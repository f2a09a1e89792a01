"""Exact linear algebra on sparse row dicts of nonzero exact rationals.

Every rank, kernel, solve and quotient computation in the package runs
through this module, and one elimination kernel: the fraction-free
`_echelon` over the integers (denominators cleared, row <- a*row -
f*pivot, then division by the row's content).  Every rank is its length,
and `_rref` back-substitutes it into the reduced row echelon form, whose
readers divide by each pivot once, at the end.  The RREF is unique, so
`BlockSolver` solutions and `kernel_from_rref` bases do not depend on row
order.  A `BlockSolver` takes {label: sparse column} and its solutions
are sparse, keyed by those labels; `free_lie._solve_by_weight` is the one
blockwise solve, a solver per weight block.  Only the sparse
`semi_echelon` over `Fraction`, used for the H3 quotient basis the
canonical coordinates are read in, depends on row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Iterable, Mapping, Optional, Sequence

from .sparse import scaled

ZERO = Fraction(0)
ONE = Fraction(1)


def kernel_from_rref(rows: list[dict[int, Rational]], pivots: list[int],
                     ncols: int) -> list[dict[int, Fraction]]:
    """Null-space basis read off reduced row echelon rows, each divided by
    its entry at its pivot, so that `_rref` rows may keep their scale.

    One sparse vector per free column, with a 1 there; the basis is the
    unique one with that pattern, so it does not depend on row order.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for row, c in zip(rows, pivots):
            if f in row:
                v[c] = -Fraction(row[f], row[c])
        basis.append(v)
    return basis


def _rows_of(columns: Iterable[Mapping[object, Rational]],
             index: Mapping[object, int]) -> list[dict[int, Rational]]:
    """Row dicts of the matrix whose j-th column is the j-th of columns."""
    rows: list[dict[int, Rational]] = [dict() for _ in range(len(index))]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[index[k]][j] = v
    return rows


def _primitive(vec: Mapping[int, Rational]) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators,
    divided by their gcd: a primitive integer vector on the same line."""
    try:
        row = scaled({j: v for j, v in vec.items() if v})[0]
    except AttributeError:
        raise TypeError("rank entries must be exact rationals") from None
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
    """Reusable exact solver for a fixed family of labelled sparse columns.

    Built once by `_echelon` of [a | I] over a fixed row universe, the
    columns of a in the order of their mapping.  The rows led in a reduce
    to the RREF of a, their I part recording how; the rows led in I are a
    basis of the left kernel of a, so b is consistent exactly when each
    annihilates it.  Solves run in integers up to one division per pivot
    and set free variables to zero: each is the unique solution supported
    on the pivot columns, {label: value} over its nonzero entries.
    """

    def __init__(self, row_keys: Sequence[object],
                 columns: Mapping[object, Mapping[object, Rational]]):
        self.row_keys = list(row_keys)
        self.index = {k: i for i, k in enumerate(self.row_keys)}
        labels = list(columns)
        n = len(labels)
        rows = _rows_of(columns.values(), self.index)
        for i, row in enumerate(rows):
            row[n + i] = 1
        echelon = _echelon(rows)
        self.cokernel = [{j - n: v for j, v in row.items()}
                         for c, row in echelon.items() if c >= n]
        pivots, reduced = _rref(echelon, n)
        self.pivots = [labels[c] for c in pivots]
        self.rank = len(pivots)
        # x[label] = sum_j t[j] * b[j] / p for each (label, t, p) in transform
        self.transform = [(labels[c], {j - n: v for j, v in row.items()
                                       if j >= n}, row[c])
                          for c, row in zip(pivots, reduced)]

    def solve(self, b: Mapping[object, Rational]) -> Optional[dict]:
        bvec = {self.index.get(k): v for k, v in b.items() if v}
        if None in bvec:
            return None          # target hits a row no column reaches
        bint, den = scaled(bvec)
        for y in self.cokernel:
            if sum(y.get(i, 0) * v for i, v in bint.items()):
                return None
        x = {}
        for label, trow, p in self.transform:
            s = sum(trow.get(i, 0) * v for i, v in bint.items())
            if s:
                x[label] = Fraction(s, p * den)
        return x


def reduce_against(v: dict[int, Fraction],
                   basis: Sequence[Mapping[int, Rational]],
                   pivots: Sequence[int]) -> list[Fraction]:
    """Reduce the sparse vector v in place, in basis order, against echelon
    rows (each zero at the earlier rows' pivots), until it vanishes at every
    pivot.  Returns the multiple of each row, scaled to 1 at its pivot,
    subtracted: v's entry there when the row was reached."""
    coeffs = []
    for bvec, p in zip(basis, pivots):
        f = v.get(p, ZERO)
        coeffs.append(f)
        if f:
            f = Fraction(f, bvec[p])
            for j, bj in bvec.items():
                nv = v.get(j, 0) - f * bj
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
    return coeffs


def semi_echelon(vectors: Iterable[Mapping[int, Fraction]]
                 ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Semi-echelon basis of sparse vectors, in input order: each is
    reduced against the basis so far, and a nonzero remainder joins it,
    scaled to 1 at its least index, its pivot.  Returns (basis, pivots).
    """
    basis: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = {j: c for j, c in vec.items() if c}
        reduce_against(v, basis, pivots)
        if v:
            p = min(v)
            inv = ONE / v[p]
            basis.append({j: c * inv for j, c in v.items()})
            pivots.append(p)
    return basis, pivots
