"""Independent oracle for the sparse elimination kernel.

Gauss-Jordan over `Fraction` with a fixed pivot rule: leftmost column
first, first nonzero row at or below the current one in that column.
It shares no code with `lietrees.exact_linalg`, whose fraction-free
integer echelon the tests compare against it.
"""

from fractions import Fraction

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
