"""Exact linear algebra on sparse row dicts.

Every rank, kernel, solve and quotient computation in the package runs
through this module.  Entries are exact rationals, `int` or `Fraction`;
there is no floating point.  There are two kernels:

* the sparse fraction-free `_echelon` over the integers (denominators
  cleared, row <- a*row - f*pivot, then division by the row's content).
  Every rank is its length, and `_rref` back-substitutes it into the
  reduced row echelon form, whose readers divide by each pivot once, at
  the end.  The RREF is unique, so the particular solutions of
  `BlockSolver` and the kernel bases of `kernel_from_rref` do not
  depend on row order;
* the dense canonical `echelon_reduce` over `Fraction`, whose basis the
  canonical H3 coordinates are taken in.  It depends on the order of
  its input, and downstream "canonical coordinates" depend on it being
  deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def kernel_from_rref(rows: list[dict[int, Rational]], pivots: list[int],
                     ncols: int) -> list[list[Fraction]]:
    """Null-space basis read off reduced row echelon rows, each divided by
    its entry at its pivot, so that `_rref` rows may keep their scale.

    One dense vector per free column, with a 1 there; the basis is the
    unique one with that pattern, so it does not depend on row order.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(rows, pivots):
            coeff = row.get(f)
            if coeff:
                v[c] = -Fraction(coeff, row[c])
        basis.append(v)
    return basis


def _rows_of(columns: Sequence[Mapping[object, Rational]],
             index: Mapping[object, int]) -> list[dict[int, Rational]]:
    """Row dicts of the matrix whose j-th column is columns[j]."""
    rows: list[dict[int, Rational]] = [dict() for _ in range(len(index))]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[index[k]][j] = v
    return rows


def _primitive(vec: Mapping[int, Rational]) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators,
    divided by their gcd: a primitive integer vector on the same line."""
    items = [(j, v) for j, v in vec.items() if v]
    if not items:
        return {}
    try:
        den = lcm(*(v.denominator for _, v in items))
    except AttributeError:
        raise TypeError("rank entries must be exact rationals") from None
    row = {j: v.numerator * (den // v.denominator) for j, v in items}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g != 1 else row


def _cancel(row: dict[int, int], c: int,
            prow: Mapping[int, int]) -> dict[int, int]:
    """a*row - f*prow with a*prow[c] = f*row[c] in lowest terms, so that
    column c cancels, divided by its content."""
    a, f = prow[c], row[c]
    g = gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        nv = row.get(j, 0) - f * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _echelon(rows: Iterable[Mapping[int, Rational]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse rows keyed by column index.

    Each row is made a primitive integer vector and reduced against the
    independent rows kept so far, each filed under its least column,
    until the row vanishes or its least column is free, and it becomes a
    pivot there.  Returns {least column: primitive integer row}.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        row = _primitive(vec)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            row = _cancel(row, c, prow)
    return pivots


def _rref(echelon: dict[int, dict[int, int]],
          ncols: int) -> tuple[list[int], list[dict[int, int]]]:
    """Back-substitution of `_echelon` into the reduced row echelon form
    on the columns below ncols: (pivot columns, rows) in column order,
    row i being its RREF row times its entry at pivots[i].

    Fraction-free, from the last pivot up, each row cancels its entries
    in the later pivot columns against the rows already reduced; entries
    at ncols and beyond ride along.  Consumes the rows of `echelon`.
    """
    pivots = sorted(c for c in echelon if c < ncols)
    done: dict[int, dict[int, int]] = {}
    for c in reversed(pivots):
        row = echelon[c]
        for j in [j for j in row if j in done]:
            row = _cancel(row, j, done[j])
        done[c] = row
    return pivots, [done[c] for c in pivots]


def rank_of_rows(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Rank of sparse rows keyed by column index, fraction-free."""
    return len(_echelon(rows))


def rank_of_columns(columns: Sequence[Mapping[object, Rational]]) -> int:
    """Rank of the span of sparse column vectors keyed by arbitrary row labels."""
    labels = dict.fromkeys(k for col in columns for k in col)
    return rank_of_rows(_rows_of(columns, {k: i for i, k in enumerate(labels)}))


class BlockSolver:
    """Reusable exact solver for a fixed sparse column family.

    Built once by `_echelon` of [a | I] over a fixed row universe.  The
    rows led in a reduce to the RREF of a, their I part recording how;
    the rows led in I are a basis of the left kernel of a, so b is
    consistent exactly when each annihilates it.  Solves run in integers
    up to one division per pivot and set free variables to zero, so each
    is the unique solution supported on the pivot columns.
    """

    def __init__(self, row_keys: Sequence[object],
                 columns: Sequence[Mapping[object, Rational]]):
        self.row_keys = list(row_keys)
        self.index = {k: i for i, k in enumerate(self.row_keys)}
        n = self.ncols = len(columns)
        rows = _rows_of(columns, self.index)
        for i, row in enumerate(rows):
            row[n + i] = 1
        echelon = _echelon(rows)
        self.cokernel = [{j - n: v for j, v in row.items()}
                         for c, row in echelon.items() if c >= n]
        self.pivots, reduced = _rref(echelon, n)
        self.rank = len(self.pivots)
        # x[c] = sum_j t[j] * b[j] / p for each (c, t, p) in transform
        self.transform = [(c, {j - n: v for j, v in row.items() if j >= n},
                           row[c]) for c, row in zip(self.pivots, reduced)]

    def solve(self, b: Mapping[object, Rational]) -> Optional[list[Fraction]]:
        bvec = [(self.index.get(k), v) for k, v in b.items() if v]
        if any(i is None for i, _ in bvec):
            return None          # target hits a row no column reaches
        den = lcm(*(v.denominator for _, v in bvec))
        bint = [(i, v.numerator * (den // v.denominator)) for i, v in bvec]
        for y in self.cokernel:
            if sum(y.get(i, 0) * v for i, v in bint):
                return None
        x = [ZERO] * self.ncols
        for c, trow, p in self.transform:
            s = sum(trow.get(i, 0) * v for i, v in bint)
            if s:
                x[c] = Fraction(s, p * den)
        return x


def reduce_against(v: list[Fraction], basis: Sequence[Sequence[Fraction]],
                   pivots: Sequence[int]) -> list[Fraction]:
    """Reduce v in place against a semi-echelon basis.

    Returns the multiple of each basis vector subtracted, read at its
    pivot in basis order.
    """
    coeffs = []
    for bvec, p in zip(basis, pivots):
        f = v[p]
        coeffs.append(f)
        if f:
            for j, bj in enumerate(bvec):
                if bj:
                    v[j] -= f * bj
    return coeffs


def echelon_reduce(vectors: Iterable[Sequence[Fraction]],
                   length: int) -> tuple[list[list[Fraction]], list[int]]:
    """Echelonize dense vectors; returns (reduced independent vectors, pivot positions)."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = list(vec)
        reduce_against(v, basis, pivots)
        p = next((j for j in range(length) if v[j]), None)
        if p is None:
            continue
        inv = ONE / v[p]
        v = [c * inv for c in v]
        basis.append(v)
        pivots.append(p)
    return basis, pivots
