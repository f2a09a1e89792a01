"""Exact rational linear algebra: elimination, solving, kernels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lietrees.exact_linalg import (BlockSolver, _echelon, _rows_of, _rref,
                                   kernel_from_rref, rank_of_rows,
                                   reduce_against, semi_echelon)
from lietrees import koszul
from lietrees.free_lie import _sum_units
from lietrees.sparse import add_term, scaled, unscaled
import linalg_oracle
from linalg_oracle import _eliminate, rank_of_columns

F = Fraction


def row_dicts(data):
    return [{j: F(v) for j, v in enumerate(row) if v} for row in data]


def columns_of(data):
    """Columns keyed by row index, the form rank_of_columns takes."""
    return [{i: F(row[j]) for i, row in enumerate(data) if row[j]}
            for j in range(len(data[0]))]


def sum_units(solver, b):
    """`_sum_units` of the right-hand side b, a dict of exact rationals
    over the solver's row keys, as one block: the sparse `Fraction`
    solution, or None."""
    bint, den = scaled({k: v for k, v in b.items() if v})
    got = _sum_units(lambda mu: solver, {(): bint})
    return None if got is None else unscaled(got[0], got[1] * den)


def solve(data, b):
    """The `_sum_units` solution of data . x = b, dense, or None."""
    columns = columns_of(data)
    x = sum_units(BlockSolver(range(len(data)), range(len(columns)),
                              columns.__getitem__),
                  {i: F(v) for i, v in enumerate(b)})
    return None if x is None else dense(x, len(data[0]))


def kernel(data):
    rows = row_dicts(data)
    _, pivots = _eliminate(rows, len(data[0]))
    return kernel_from_rref(rows, pivots, len(data[0]))


def mat_vec(data, x):
    return [sum((F(a) * xj for a, xj in zip(row, x)), F(0)) for row in data]


def dense(v, n):
    """The sparse vector v as a list of length n."""
    out = [F(0)] * n
    for j, c in v.items():
        out[j] = c
    return out


class TestRref:
    def test_identity_is_fixed(self):
        rows = row_dicts([[1, 0], [0, 1]])
        rank, pivots = _eliminate(rows, 2)
        assert rank == 2
        assert pivots == [0, 1]
        assert rows == row_dicts([[1, 0], [0, 1]])

    def test_rank_deficient(self):
        rows = row_dicts([[1, 2], [2, 4]])
        rank, pivots = _eliminate(rows, 2)
        assert rank == 1
        assert pivots == [0]
        assert rows == [{0: F(1), 1: F(2)}, {}]

    def test_exact_fractions(self):
        rows = row_dicts([[F(1, 3), F(1, 7)], [F(2, 5), 1]])
        rank, _ = _eliminate(rows, 2)
        assert rank == 2
        assert rows == [{0: F(1)}, {1: F(1)}]


class TestSolve:
    def test_unique_solution(self):
        a = [[2, 1], [1, 3]]
        x = solve(a, [5, 10])
        assert mat_vec(a, x) == [F(5), F(10)]

    def test_inconsistent_returns_none(self):
        assert solve([[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_zeroes_free_variables(self):
        assert solve([[1, 1, 1]], [3]) == [F(3), F(0), F(0)]


class TestKernel:
    def test_full_rank_trivial_kernel(self):
        assert kernel([[1, 0], [0, 1]]) == []

    def test_kernel_vectors_annihilate(self):
        a = [[1, 2, 3], [2, 4, 6]]
        basis = kernel(a)
        assert len(basis) == 2
        for v in basis:
            assert mat_vec(a, dense(v, 3)) == [F(0), F(0)]

    def test_basis_is_sparse_with_a_one_at_each_free_column(self):
        assert kernel([[1, 2, 0], [0, 0, 1]]) == [{0: F(-2), 1: F(1)}]


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_nullity(rows):
    basis = kernel(rows)
    assert rank_of_columns(columns_of(rows)) + len(basis) == 3
    for v in basis:
        assert not any(mat_vec(rows, dense(v, 3)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(small_fraction, min_size=3, max_size=3))
def test_solve_satisfies_system(rows, x):
    b = mat_vec(rows, x)
    got = solve(rows, b)
    assert got is not None
    assert mat_vec(rows, got) == b


def block_solver(row_keys, cols):
    """A BlockSolver on the columns of the mapping cols, in its order."""
    return BlockSolver(row_keys, list(cols), cols.__getitem__)


class TestBlockSolver:
    def test_solves_keyed_system(self):
        cols = [{"p": F(1), "q": F(1)}, {"q": F(1)}]
        s = block_solver(["p", "q"], dict(enumerate(cols)))
        assert s.rank == 2
        x = sum_units(s, {"p": F(2), "q": F(5)})
        assert dense(x, 2) == [F(2), F(3)]

    def test_inconsistent_rhs(self):
        s = block_solver(["p", "q"], dict(enumerate([{"p": F(1), "q": F(1)}])))
        assert sum_units(s, {"p": F(1), "q": F(2)}) is None

    def test_rank_matches_rank_of_columns(self):
        cols = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: F(1)}]
        assert (block_solver([0, 1], dict(enumerate(cols))).rank
                == rank_of_columns(cols))

    def test_zero_rhs_gives_the_empty_solution(self):
        s = block_solver(["p", "q"], dict(enumerate([{"p": F(1)}])))
        assert sum_units(s, {}) == {}
        assert sum_units(s, {"p": F(0), "q": F(0)}) == {}

    def test_labels_come_back_as_keys(self):
        cols = {("u", 1): {"p": F(1), "q": F(1)}, "v": {"q": F(2)},
                ("w",): {"p": F(1), "q": F(3)}}
        s = block_solver(["p", "q"], cols)
        assert s.pivots == [("u", 1), "v"]
        assert sum_units(s, {"p": F(2), "q": F(5)}) == {("u", 1): F(2),
                                                        "v": F(3, 2)}
        assert sum_units(s, {"q": F(1)}) == {"v": F(1, 2)}

    def test_no_column_is_read_past_full_rank(self):
        cols = {"u": {"p": F(2)}, "v": {"p": F(1)}, "w": {"q": F(1)},
                "x": {"p": F(1), "q": F(1)}, "y": {"q": F(3)}}
        read = []

        def column(label):
            read.append(label)
            return cols[label]

        s = BlockSolver(["p", "q"], list(cols), column)
        assert read == ["u", "v", "w"]
        assert (s.rank, s.pivots) == (2, ["u", "w"])
        assert sum_units(s, {"p": F(1), "q": F(1)}) == {"u": F(1, 2),
                                                        "w": F(1)}


class TestSemiEchelon:
    def test_dependent_vectors_dropped(self):
        basis, pivots = semi_echelon(
            [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {0: F(0), 1: F(1)}])
        assert len(basis) == 2
        assert pivots == [0, 1]
        for vec, p in zip(basis, pivots):
            assert vec[p] == 1

    def test_empty_input(self):
        assert semi_echelon([]) == ([], [])

    def test_keeps_input_order(self):
        # the pivot is the least index after reduction, not after sorting
        basis, pivots = semi_echelon([{1: F(2), 2: F(1)}, {0: F(1), 1: F(1)}])
        assert pivots == [1, 0]
        assert basis == [{1: F(1), 2: F(1, 2)}, {0: F(1), 2: F(-1, 2)}]

    def test_reduce_against_returns_coefficients(self):
        basis, pivots = semi_echelon([{0: F(2), 1: F(2)}, {1: F(3)}])
        v = {0: F(3), 1: F(5)}
        assert reduce_against(v, basis, pivots) == [F(3), F(2)]
        assert v == {}


# The fraction-free rank kernel against the Fraction Gauss-Jordan oracle.
# Entries are mostly zero, so the matrices are sparse; repeated rows,
# scaled rows and zero rows are mixed in to force dependencies.
sparse_int = st.one_of(st.just(0), st.just(0), st.integers(-7, 7))
sparse_fraction = st.one_of(st.just(0), st.just(0),
                            st.fractions(min_value=-5, max_value=5,
                                         max_denominator=9))


@st.composite
def matrices(draw, entries):
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=6))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            scale = draw(st.sampled_from([1, -1, 2, F(-3, 4)]))
            rows.append([scale * v for v in rows[i]])
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    return ncols, draw(st.permutations(rows))


def oracle_rank(ncols, rows):
    rank, _ = _eliminate(row_dicts(rows), ncols)
    return rank


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)))
def test_fraction_free_rank_matches_fraction_oracle(matrix):
    ncols, rows = matrix
    expect = oracle_rank(ncols, rows)
    assert rank_of_rows({j: v for j, v in enumerate(row)}
                        for row in rows) == expect
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)]
    index = {i: i for i in range(len(rows))}
    assert rank_of_rows(_rows_of(columns, index)) == expect


def oracle_solution(ncols, rows, b):
    """The oracle's free-variables-zero solution of rows . x = b, dense,
    or None when b is not in the span."""
    x = linalg_oracle.solve(row_dicts(rows), ncols, dict(enumerate(b)))
    return None if x is None else dense(x, ncols)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)))
def test_rref_and_kernel_match_fraction_oracle(matrix):
    ncols, rows = matrix
    expect = row_dicts(rows)
    rank, pivots = _eliminate(expect, ncols)
    got_pivots, got = _rref(_echelon(row_dicts(rows)), ncols)
    assert got_pivots == pivots
    assert [{j: F(v, row[c]) for j, v in row.items()}
            for row, c in zip(got, got_pivots)] == expect[:rank]
    assert not any(expect[rank:])
    assert (kernel_from_rref(got, got_pivots, ncols)
            == kernel_from_rref(expect, pivots, ncols))


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_block_solver_matches_fraction_oracle(matrix, data):
    ncols, rows = matrix
    columns = [{i: F(row[j]) for i, row in enumerate(rows) if row[j]}
               for j in range(ncols)]
    solver = BlockSolver(range(len(rows)), range(ncols), columns.__getitem__)
    rank, pivots = _eliminate(row_dicts(rows), ncols)
    assert (solver.rank, solver.pivots) == (rank, pivots)

    x = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    image = mat_vec(rows, x)
    got = sum_units(solver, dict(enumerate(image)))
    assert got is not None
    assert all(got.values())        # the nonzero entries only
    assert dense(got, ncols) == oracle_solution(ncols, rows, image)

    b = data.draw(st.lists(sparse_fraction, min_size=len(rows),
                           max_size=len(rows)))
    got = sum_units(solver, dict(enumerate(b)))
    assert (None if got is None else dense(got, ncols)) == oracle_solution(
        ncols, rows, b)


def unit_sum(solver, b):
    """The sum of b_key * unit(key) over b's entries, each unit over its
    own multiplier: (x, residual) as `Fraction` dicts."""
    x, residual = {}, {}
    for key, c in b.items():
        ux, ur, m = solver.unit(key)
        for acc, part in ((x, ux), (residual, ur)):
            for j, v in part.items():
                add_term(acc, j, c * F(v, m))
    return x, residual


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_unit_solves_match_fraction_oracle(matrix, data):
    ncols, rows = matrix
    columns = [{i: F(row[j]) for i, row in enumerate(rows) if row[j]}
               for j in range(ncols)]
    solver = BlockSolver(range(len(rows)), range(ncols), columns.__getitem__)
    # the least row of each vector of an echelon basis of the column span
    _, pivot_rows = _eliminate([dict(c) for c in columns], len(rows))
    for key in range(len(rows)):
        x, r, m = solver.unit(key)
        assert m and all(x.values()) and all(r.values())
        assert x.keys() <= set(solver.pivots)
        assert not r.keys() & set(pivot_rows)
        # m e_key = A x + r
        got = [a + r.get(i, 0) for i, a in enumerate(mat_vec(rows,
                                                               dense(x, ncols)))]
        assert got == [m * (i == key) for i in range(len(rows))]
        assert solver.unit(key) is solver.unit(key)

    xs = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    image = {i: v for i, v in enumerate(mat_vec(rows, xs)) if v}
    x, residual = unit_sum(solver, image)
    assert residual == {}
    assert x == sum_units(solver, image)
    assert dense(x, ncols) == oracle_solution(ncols, rows, dense(image,
                                                                 len(rows)))

    b = data.draw(st.lists(sparse_fraction, min_size=len(rows),
                           max_size=len(rows)))
    x, residual = unit_sum(solver, dict(enumerate(b)))
    expect = oracle_solution(ncols, rows, b)
    assert (residual == {}) == (expect is not None)
    if expect is not None:
        assert dense(x, ncols) == expect


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_sum_units_solves_and_memoises_the_keys_it_reads(matrix, data):
    ncols, rows = matrix
    columns = [{i: F(row[j]) for i, row in enumerate(rows) if row[j]}
               for j in range(ncols)]
    solver = BlockSolver(range(len(rows)), range(ncols), columns.__getitem__)
    xs = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    image = mat_vec(rows, xs)
    b = data.draw(st.lists(sparse_fraction, min_size=len(rows),
                           max_size=len(rows)))
    memo = set()
    for rhs in (image, b):
        bint, den = scaled({i: v for i, v in enumerate(rhs) if v})
        got = _sum_units(lambda mu: solver, {(): bint})
        expect = oracle_solution(ncols, rows, rhs)
        assert (got is None) == (expect is None)
        if got is not None:
            x, m = got
            assert dense(unscaled(x, m * den), ncols) == expect
        memo |= bint.keys()
        assert solver._units.keys() == memo


def test_the_unit_memo_lives_on_the_cached_solver():
    koszul._d3_solver.cache_clear()
    mu = (2, 1, 1, 1)
    key = koszul._monomials(2, 4, 2, mu)[0]
    solver = koszul._d3_solver(2, 4, mu)
    solver.unit(key)
    assert koszul._d3_solver(2, 4, mu)._units.keys() == {key}
    koszul._d3_solver.cache_clear()
    fresh = koszul._d3_solver(2, 4, mu)
    assert fresh is not solver and fresh._units == {}


def sparse_rows(rows):
    """Each row as a dict over every column, zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_semi_echelon_matches_dense_oracle(matrix, data):
    ncols, rows = matrix
    basis, pivots = semi_echelon(sparse_rows(rows))
    expect, expect_pivots = linalg_oracle.echelon_reduce(rows, ncols)
    assert pivots == expect_pivots
    assert [dense(v, ncols) for v in basis] == expect
    assert all(c for v in basis for c in v.values())
    # the coordinates: the same coefficients and remainder, vector by vector
    extra = data.draw(st.lists(sparse_fraction, min_size=ncols,
                               max_size=ncols))
    for row in rows + [extra]:
        v = {j: F(c) for j, c in enumerate(row) if c}
        dv = [F(c) for c in row]
        assert (reduce_against(v, basis, pivots)
                == linalg_oracle.reduce_against(dv, expect, expect_pivots))
        assert dense(v, ncols) == dv


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_reduce_against_scaled_rref_rows(matrix, data):
    # reduction at the pivots of any echelon basis of a row space leaves
    # the one representative vanishing at them, whatever the row scale
    ncols, rows = matrix
    got_pivots, got = _rref(_echelon(row_dicts(rows)), ncols)
    normalised = row_dicts(rows)
    rank, pivots = _eliminate(normalised, ncols)
    semi, semi_pivots = linalg_oracle.echelon_reduce(rows, ncols)
    x = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    v = {j: F(c) for j, c in enumerate(x) if c}
    w = dict(v)
    dv = [F(c) for c in x]
    assert (reduce_against(v, got, got_pivots)
            == reduce_against(w, normalised[:rank], pivots))
    linalg_oracle.reduce_against(dv, semi, semi_pivots)
    assert v == w
    assert dense(v, ncols) == dv
    assert not any(v.get(c) for c in got_pivots)


class TestFractionFreeRank:
    def test_empty_input(self):
        assert block_solver([], {}).rank == 0
        assert rank_of_rows([]) == 0

    def test_zero_and_repeated_rows_are_dependent(self):
        rows = [{}, {0: 0}, {0: 2, 3: -4}, {0: F(1, 2), 3: -1}, {3: 5}]
        assert rank_of_rows(rows) == 2
        assert rank_of_rows(rows[:4]) == 1

    def test_keys_are_arbitrary_labels(self):
        cols = [{"p": 1, ("q", 1): F(2, 3)}, {"p": 3, ("q", 1): 2}]
        assert block_solver(["p", ("q", 1)], dict(enumerate(cols))).rank == 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="exact rationals"):
            rank_of_rows([{0: 0.5}])
