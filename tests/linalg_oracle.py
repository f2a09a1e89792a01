"""Independent oracles for the sparse elimination code.

`_eliminate` is Gauss-Jordan over `Fraction` with a fixed pivot rule:
leftmost column first, first nonzero row at or below the current one in
that column; `solve` reads its free-variables-zero solution of a
system, and `rank_of_columns` its rank of sparse columns keyed by
arbitrary row labels.  `echelon_reduce` and `reduce_against` are the
dense semi-echelon over `Fraction` lists whose bases, pivots and
coefficients the sparse `semi_echelon` must reproduce.  None of them
shares code with `lietrees.exact_linalg`, whose fraction-free integer
echelon and sparse `semi_echelon` the tests compare against them.
"""

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def solve(rows: Sequence[Mapping[int, Fraction]], ncols: int,
          b: Mapping[int, Fraction]) -> dict[int, Fraction] | None:
    """The solution of rows . x = b with every free variable zero, read
    off the `_eliminate` form of [rows | b] as {column: value} over its
    nonzero entries; None when b is not in the column span."""
    aug = [dict(row) for row in rows]
    for i, bi in b.items():
        if bi:
            aug[i][ncols] = Fraction(bi)
    rank, pivots = _eliminate(aug, ncols)
    if any(aug[rank:]):
        return None
    return {c: row[ncols] for row, c in zip(aug, pivots) if row.get(ncols)}


def rank_of_columns(columns: Sequence[Mapping[object, Fraction]]) -> int:
    """Rank of the span of sparse column vectors keyed by arbitrary row
    labels, by `_eliminate`."""
    labels: dict[object, int] = {}
    for col in columns:
        for key in col:
            labels.setdefault(key, len(labels))
    rows: list[dict[int, Fraction]] = [{} for _ in labels]
    for j, col in enumerate(columns):
        for key, v in col.items():
            if v:
                rows[labels[key]][j] = v
    return _eliminate(rows, len(columns))[0]


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
