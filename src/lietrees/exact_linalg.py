"""Exact linear algebra on sparse row dicts of nonzero exact rationals.

Every rank, kernel, solve and quotient computation in the package runs
through this module, and one fraction-free step, `_cancel` over the
integers (denominators cleared, row <- a*row - f*pivot, then division by
the row's content).  `_reduce` cancels a row at its least column while
that has a pivot; `_echelon` runs it on rows, and every rank is its
length.  `_reduce_fully` cancels a row at every pivot it reaches, least
first, so what is left is zero on every pivot column: up to scale the
one such representative of the row modulo the pivot rows' span, whatever
their order.  `BlockSolver` runs `_reduce` on tagged columns, read only
up to full rank; its one read, the memoised unit solve `unit`, runs
`_reduce_fully` on a row key's unit vector, so a unit's residual is zero
on every pivot row and unit solves add up.  `free_lie._sum_units` is the
one blockwise solve, a solver per weight block, summed on integers from
unit solves; its solutions, keyed by the column labels, are supported on
the first independent columns.  None of them depends on row order.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational
from typing import Callable, Iterable, Mapping, Sequence

from .sparse import scaled

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


def _reduce(row: dict[int, int],
            pivots: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """row cancelled against pivots, each filed under its least column,
    until it vanishes or its least column has none."""
    while row and (c := min(row)) in pivots:
        row = _cancel(row, c, pivots[c])
    return row


def _reduce_fully(row: dict[int, int],
                  pivots: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """row cancelled at every column of it that has a pivot, each filed
    under its least column, until none has.  A cancellation at c adds
    entries only above c, so the pivots are met in increasing order,
    each at most once."""
    while pending := [c for c in row if c in pivots]:
        c = min(pending)
        row = _cancel(row, c, pivots[c])
    return row


def _echelon(rows: Iterable[Mapping[int, Rational]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse rows keyed by column index.

    Each row is made a primitive integer vector and reduced against the
    independent rows kept so far, each filed under its least column,
    until the row vanishes or its least column is free, and it becomes a
    pivot there.  Returns {least column: primitive integer row}.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        if row := _reduce(_primitive(vec), pivots):
            pivots[min(row)] = row
    return pivots


def rank_of_rows(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Rank of sparse rows keyed by column index, fraction-free."""
    return len(_echelon(rows))


class BlockSolver:
    """Reusable exact solver for a labelled family of sparse columns.

    Column j, column(labels[j]) over the n row keys with a tag 1 at index
    n + j, is reduced by `_cancel` against the pivots kept so far, each
    filed under its least row, and dropped if only tags are left.  The
    kept columns, `pivots`, are the first independent ones in label
    order; once they number n no later column is read.

    Its one read, `unit(key)`, memoised on the solver, reduces the unit
    vector of a row key with a multiplier tag carried past every tag by
    `_reduce_fully`, so its residual is zero on every pivot row.  A
    vector of the span that is zero there is zero, so the sum of b_key
    unit(key) has a zero residual exactly when b is in the span, and its
    x is then the unique solution supported on the pivots
    (`free_lie._sum_units`).
    """

    def __init__(self, row_keys: Iterable[object], labels: Sequence[object],
                 column: Callable[[object], Mapping[object, Rational]]):
        self.index = {k: i for i, k in enumerate(row_keys)}
        self.labels, self.pivots, self._echelon = labels, [], {}
        self._units: dict[object, tuple[dict, dict[int, int], int]] = {}
        n = len(self.index)
        for j, label in enumerate(labels):
            if len(self.pivots) == n:
                break
            vec = {self.index[k]: v for k, v in column(label).items() if v}
            row = _reduce(_primitive({**vec, n + j: 1}), self._echelon)
            if (c := min(row)) < n:
                self._echelon[c] = row
                self.pivots.append(label)
        self.rank = len(self.pivots)

    def unit(self, key: object) -> tuple[dict, dict[int, int], int]:
        """(x, residual, m), integers, with m e_key = A x + residual,
        memoised."""
        got = self._units.get(key)
        if got is None:
            n = len(self.index)
            last = n + len(self.labels)
            # row part = -row[last] * e_key + sum over tags t of row[t] * column t
            row = _reduce_fully({self.index[key]: 1, last: -1}, self._echelon)
            m = row.pop(last)
            got = self._units[key] = (
                {self.labels[t - n]: v for t, v in row.items() if t >= n},
                {t: -v for t, v in row.items() if t < n}, m)
        return got
