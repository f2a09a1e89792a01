"""Exact rational linear algebra on sparse row dicts.

Every rank, kernel, solve and quotient computation in the package runs
through this module.  Coefficients are `fractions.Fraction` throughout.
`_eliminate` is the one sparse elimination kernel: Gauss-Jordan with a
fixed pivot rule (leftmost column first, first nonzero row at or below
the current one in that column), giving the reduced row echelon form,
which is unique.  Particular solutions (free variables zero) and kernel
bases (one vector per free column) read off it are therefore
bit-reproducible.  `echelon_reduce` is the dense incremental
semi-echelon routine behind the canonical H3 coordinates, which are
coordinates in its basis; downstream "canonical coordinates" depend on
both being deterministic.
"""

from __future__ import annotations

from fractions import Fraction
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


def _rows_of(columns: Sequence[Mapping[object, Fraction]],
             index: Mapping[object, int]) -> list[dict[int, Fraction]]:
    """Row dicts of the matrix whose j-th column is columns[j]."""
    rows: list[dict[int, Fraction]] = [dict() for _ in range(len(index))]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[index[k]][j] = v
    return rows


def rank_of_columns(columns: Sequence[Mapping[object, Fraction]]) -> int:
    """Rank of the span of sparse column vectors keyed by arbitrary row labels."""
    row_keys = sorted({k for col in columns for k in col}, key=repr)
    rows = _rows_of(columns, {k: i for i, k in enumerate(row_keys)})
    rank, _ = _eliminate(rows, len(columns))
    return rank


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
