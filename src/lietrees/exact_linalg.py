"""Exact linear algebra on sparse row dicts.

Every rank, kernel, solve and quotient computation in the package runs
through this module.  Entries are exact rationals, `int` or `Fraction`;
there is no floating point.  Three kernels, one per kind of answer:

* ranks: `rank_of_rows`, a fraction-free sparse elimination over the
  integers (row <- a*row - f*pivot, then divide by the row's content,
  denominators cleared first), behind `rank_of_columns` and so every
  rank in the package;
* reduced row echelon forms: `_eliminate`, Gauss-Jordan over `Fraction`
  with a fixed pivot rule (leftmost column first, first nonzero row at
  or below the current one in that column).  The RREF is unique, so the
  particular solutions (free variables zero) of `BlockSolver` and the
  kernel bases of `kernel_from_rref` read off it are bit-reproducible;
* the canonical H3 basis: `echelon_reduce`, the dense incremental
  semi-echelon routine over `Fraction` whose basis the canonical H3
  coordinates are taken in.  It depends on the order of its input, and
  downstream "canonical coordinates" depend on it being deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _eliminate(rows: list[dict[int, Fraction]], ncols: int):
    """In-place Gauss-Jordan elimination.  Returns (rank, pivot_cols)."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        src = None
        for i in range(r, len(rows)):
            if rows[i].get(c):
                src = i
                break
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = {j: v * inv for j, v in rows[r].items()}
        prow = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i].get(c)
            if not f:
                continue
            tgt = rows[i]
            for j, v in prow.items():
                nv = tgt.get(j, ZERO) - f * v
                if nv:
                    tgt[j] = nv
                else:
                    tgt.pop(j, None)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def kernel_from_rref(rows: list[dict[int, Fraction]], pivots: list[int],
                     ncols: int) -> list[list[Fraction]]:
    """Null-space basis read off rows reduced by `_eliminate`.

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
        for i, c in enumerate(pivots):
            coeff = rows[i].get(f)
            if coeff:
                v[c] = -coeff
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


def rank_of_rows(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Rank of sparse rows keyed by column index, fraction-free.

    Each row is made a primitive integer vector and reduced against the
    independent rows kept so far, each filed under its least column:
    row <- a*row - f*pivot with a*pivot[c] = f*row[c] in lowest terms,
    then division by the row's content, until the row vanishes or its
    least column is free, and it becomes a pivot there.
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
            if g > 1:
                row = {j: v // g for j, v in row.items()}
    return len(pivots)


def rank_of_columns(columns: Sequence[Mapping[object, Rational]]) -> int:
    """Rank of the span of sparse column vectors keyed by arbitrary row labels."""
    labels = dict.fromkeys(k for col in columns for k in col)
    return rank_of_rows(_rows_of(columns, {k: i for i, k in enumerate(labels)}))


class BlockSolver:
    """Reusable exact solver for a fixed sparse column family.

    Built once from columns over a fixed row universe; solves a·x = b for
    many right-hand sides by replaying the recorded row operations
    (the reduced form of [a | I]).  Solutions set free variables to
    zero, so each is the unique one supported on the pivot columns.
    """

    def __init__(self, row_keys: Sequence[object],
                 columns: Sequence[Mapping[object, Fraction]]):
        self.row_keys = list(row_keys)
        self.index = {k: i for i, k in enumerate(self.row_keys)}
        n, m = len(columns), len(self.row_keys)
        rows = _rows_of(columns, self.index)
        for i in range(m):
            rows[i][n + i] = ONE
        self.ncols = n
        self.rank, pivots = _eliminate(rows, n)
        self.pivots = pivots
        # transform rows: tb[i] = sum_j transform[i][j] * b[j]
        self.transform = [{j - n: v for j, v in rows[i].items() if j >= n}
                          for i in range(m)]

    def solve(self, b: Mapping[object, Fraction]) -> Optional[list[Fraction]]:
        bvec: dict[int, Fraction] = {}
        for k, v in b.items():
            if v:
                i = self.index.get(k)
                if i is None:
                    return None          # target hits a row no column reaches
                bvec[i] = v
        tb = []
        for i in range(len(self.row_keys)):
            s = ZERO
            trow = self.transform[i]
            for j, bj in bvec.items():
                t = trow.get(j)
                if t:
                    s += t * bj
            tb.append(s)
        for i in range(self.rank, len(self.row_keys)):
            if tb[i]:
                return None
        x = [ZERO] * self.ncols
        for i, c in enumerate(self.pivots):
            x[c] = tb[i]
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
