"""Exact linear algebra on sparse row dicts of nonzero exact rationals.

Every rank, kernel, solve and quotient computation in the package runs
through this module, and one fraction-free step, `_cancel` over the
integers (denominators cleared, row <- a*row - f*pivot, then division
by the row's content).  `_reduce` cancels a row at its least column
while that has a pivot; `_echelon` runs it on rows, and every rank is
its length; `_rref` back-substitutes that into the unique reduced row
echelon form.  `BlockSolver` runs it on tagged columns, read only up to
full rank; its one read, the memoised unit solve `unit`, cancels a row
key's unit vector at every pivot row, not only the least, so a unit's
residual is zero on every pivot row and unit solves add up.
`free_lie._sum_units` is the one blockwise solve, a solver per weight
block, summed on integers from unit solves; its solutions, keyed by the
column labels, are supported on the first independent columns.  Neither
depends on row order.  Only the sparse `semi_echelon` over `Fraction`,
used for the H3 quotient basis the canonical coordinates are read in,
depends on row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Callable, Iterable, Mapping, Sequence

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


def _reduce(row: dict[int, int],
            pivots: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """row cancelled against pivots, each filed under its least column,
    until it vanishes or its least column has none."""
    while row and (c := min(row)) in pivots:
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


class BlockSolver:
    """Reusable exact solver for a labelled family of sparse columns.

    Column j, column(labels[j]) over the n row keys with a tag 1 at index
    n + j, is reduced by `_cancel` against the pivots kept so far, each
    filed under its least row, and dropped if only tags are left.  The
    kept columns, `pivots`, are the first independent ones in label
    order; once they number n no later column is read.

    Its one read, `unit(key)`, memoised on the solver, reduces the unit
    vector of a row key with a multiplier tag carried past every tag,
    cancelled at every pivot row it reaches, so its residual is zero on
    every pivot row.  A vector of the span that is zero there is zero,
    so the sum of b_key unit(key) has a zero residual exactly when b is
    in the span, and its x is then the unique solution supported on the
    pivots (`free_lie._sum_units`).
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
        memoised.  A cancellation at c adds entries only above c, so the
        pivots are met in increasing order, each at most once."""
        got = self._units.get(key)
        if got is None:
            n = len(self.index)
            last = n + len(self.labels)
            # row part = -row[last] * e_key + sum over tags t of row[t] * column t
            row = {self.index[key]: 1, last: -1}
            while pending := [c for c in row if c in self._echelon]:
                c = min(pending)
                row = _cancel(row, c, self._echelon[c])
            m = row.pop(last)
            got = self._units[key] = (
                {self.labels[t - n]: v for t, v in row.items() if t >= n},
                {t: -v for t, v in row.items() if t < n}, m)
        return got


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
