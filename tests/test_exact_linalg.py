"""Exact rational linear algebra: elimination, solving, kernels, and the
integer quotient-basis build and coordinates of the canonical H3 path."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lietrees.exact_linalg import (BlockSolver, _echelon, _reduce_fully,
                                   _rows_of, rank_of_rows)
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
    x, residual, m = _sum_units(lambda mu: solver.unit, {(): bint})
    return None if residual else unscaled(x, m * den)


def solve(data, b):
    """The `_sum_units` solution of data . x = b, dense, or None."""
    columns = columns_of(data)
    x = sum_units(BlockSolver(range(len(data)), range(len(columns)),
                              columns.__getitem__),
                  {i: F(v) for i, v in enumerate(b)})
    return None if x is None else dense(x, len(data[0]))


def kernel(data, ncols=None):
    """The kernel basis as `koszul._h3_structure` builds it, on integers:
    per free column f of the solver, in column order, e_f minus the
    unit-sum solve of column f."""
    ncols = len(data[0]) if ncols is None else ncols
    columns = [{i: F(row[j]) for i, row in enumerate(data) if row[j]}
               for j in range(ncols)]
    solver = BlockSolver(range(len(data)), range(len(columns)),
                         columns.__getitem__)
    pivots = set(solver.pivots)
    basis = []
    for f, col in enumerate(columns):
        if f not in pivots:
            basis.append({f: F(1), **{j: -v for j, v in sum_units(
                solver, col).items()}})
    return basis


def integer_semi_echelon(vectors):
    """The quotient-basis build of `koszul._h3_structure` on plain
    vectors: each, cleared to integers, is reduced by `_reduce_fully`
    against the rows kept so far, each under its least index, and a
    nonzero remainder is kept.  Returns (basis, pivots), each basis
    vector scaled to 1 at its pivot, its least index."""
    kept, basis, pivots = {}, [], []
    for vec in vectors:
        row = scaled({j: F(c) for j, c in vec.items() if c})[0]
        if row := _reduce_fully(row, kept):
            p = min(row)
            kept[p] = row
            basis.append({j: F(v, row[p]) for j, v in row.items()})
            pivots.append(p)
    return basis, pivots


def coefficients(basis, v, n):
    """The coefficients on the independent vectors basis, of length n, of
    v, read by unit sums as `koszul.class_of` reads them: dense, or None
    off their span."""
    x = sum_units(block_solver(range(n), dict(enumerate(basis))), v)
    return None if x is None else dense(x, len(basis))


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
        basis, pivots = integer_semi_echelon(
            [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {0: F(0), 1: F(1)}])
        assert len(basis) == 2
        assert pivots == [0, 1]
        for vec, p in zip(basis, pivots):
            assert vec[p] == 1

    def test_empty_input(self):
        assert integer_semi_echelon([]) == ([], [])

    def test_keeps_input_order(self):
        # the pivot is the least index after reduction, not after sorting;
        # the first vector is reduced at its later entry too, at pivot 1
        basis, pivots = integer_semi_echelon([{1: F(2), 2: F(1)},
                                              {0: F(1), 1: F(1)}])
        assert pivots == [1, 0]
        assert basis == [{1: F(1), 2: F(1, 2)}, {0: F(1), 2: F(-1, 2)}]

    def test_unit_sums_return_the_coefficients(self):
        basis, pivots = integer_semi_echelon([{0: F(2), 1: F(2)}, {1: F(3)}])
        assert basis == [{0: F(1), 1: F(1)}, {1: F(1)}]
        assert coefficients(basis, {0: F(3), 1: F(5)}, 2) == [F(3), F(2)]
        assert coefficients(basis[:1], {0: F(3), 1: F(5)}, 2) is None


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
def test_unit_sum_kernel_matches_fraction_oracle(matrix):
    ncols, rows = matrix
    expect = row_dicts(rows)
    rank, pivots = _eliminate(expect, ncols)
    # any echelon form's least columns are the RREF pivot columns
    assert sorted(_echelon(row_dicts(rows))) == pivots
    # the one kernel basis with a 1 at one free column and 0 at the others
    assert kernel(rows, ncols) == linalg_oracle.kernel_from_rref(
        expect[:rank], pivots, ncols)


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
        x, residual, m = _sum_units(lambda mu: solver.unit, {(): bint})
        expect = oracle_solution(ncols, rows, rhs)
        assert bool(residual) == (expect is None)
        if not residual:
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


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_untracked_columns_leave_the_tracked_solution(matrix, data):
    # an untracked column is eliminated with no tag: the tracked part of a
    # solve and the in-span verdict are those of the fully tagged solver
    ncols, rows = matrix
    columns = [{i: F(row[j]) for i, row in enumerate(rows) if row[j]}
               for j in range(ncols)]
    tagged = BlockSolver(range(len(rows)), range(ncols), columns.__getitem__)
    lead = data.draw(st.integers(0, ncols))
    mixed = BlockSolver(range(len(rows)), range(lead), columns.__getitem__)
    untracked = set()
    for j in range(lead, ncols):
        if data.draw(st.booleans()):
            untracked.add(j)
        mixed.add(None if j in untracked else j, columns[j])
    assert mixed.rank == tagged.rank
    assert mixed.pivots == [j for j in tagged.pivots if j not in untracked]
    xs = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    b = data.draw(st.lists(sparse_fraction, min_size=len(rows),
                           max_size=len(rows)))
    for rhs in (mat_vec(rows, xs), b):
        full = sum_units(tagged, dict(enumerate(rhs)))
        part = sum_units(mixed, dict(enumerate(rhs)))
        assert (part is None) == (full is None)
        if full is not None:
            assert part == {j: v for j, v in full.items()
                            if j not in untracked}


def sparse_rows(rows):
    """Each row as a dict over every column, zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_semi_echelon_matches_dense_oracle(matrix, data):
    ncols, rows = matrix
    basis, pivots = integer_semi_echelon(sparse_rows(rows))
    expect, expect_pivots = linalg_oracle.echelon_reduce(rows, ncols)
    assert pivots == expect_pivots
    assert [dense(v, ncols) for v in basis] == expect
    assert all(c for v in basis for c in v.values())
    # the coordinates: unit sums give the oracle's coefficients, and
    # refuse a vector exactly when the oracle leaves a remainder
    extra = data.draw(st.lists(sparse_fraction, min_size=ncols,
                               max_size=ncols))
    for row in rows + [extra]:
        dv = [F(c) for c in row]
        coeffs = linalg_oracle.reduce_against(dv, expect, expect_pivots)
        assert coefficients(basis, dict(enumerate(row)), ncols) == (
            None if any(dv) else coeffs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(sparse_int), matrices(sparse_fraction)), st.data())
def test_reduce_fully_leaves_the_one_representative(matrix, data):
    # reduction at every pivot of any echelon basis of a row space leaves,
    # up to scale, the one representative vanishing at them: the oracle's
    # remainder against its semi-echelon basis of the same rows
    ncols, rows = matrix
    pivot_rows = _echelon(row_dicts(rows))
    semi, semi_pivots = linalg_oracle.echelon_reduce(rows, ncols)
    assert sorted(pivot_rows) == sorted(semi_pivots)
    x = data.draw(st.lists(sparse_fraction, min_size=ncols, max_size=ncols))
    dv = [F(c) for c in x]
    linalg_oracle.reduce_against(dv, semi, semi_pivots)
    got = _reduce_fully(scaled({j: F(c) for j, c in enumerate(x) if c})[0],
                        pivot_rows)
    assert not got.keys() & pivot_rows.keys()
    assert all(isinstance(v, int) and v for v in got.values())
    if not got:
        assert not any(dv)
    else:
        p = min(got)
        assert dv[p]
        assert dense({j: F(v, got[p]) * dv[p] for j, v in got.items()},
                     ncols) == dv


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
