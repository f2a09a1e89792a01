"""Koszul chains on the nilpotent quotients: boundary, homology, lifting."""

import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from lietrees import jacobi, koszul
from lietrees.exact_linalg import BlockSolver
from lietrees.free_lie import (_letter_weight, _split_by_weight, lyndon_basis,
                               witt_dim)
from lietrees.jacobi import (TreeCombo, TreeDiagram, _caterpillars, fission,
                             random_tree)
from lietrees.johnson import morita_mk, random_ic_element
from lietrees.koszul import (BlockMismatchError, HomologyClass,
                             NotABoundaryError, WedgeChain, _block_rank,
                             _monomial_boundary, _monomials, boundary,
                             capital_phi, class_of, homology_dims,
                             phi_matrix_rank, solve_boundary3,
                             wedge_chain_from_terms)
import linalg_oracle
from linalg_oracle import rank_of_columns

F = Fraction


def words_up_to(genus, k):
    out = []
    for d in range(1, k + 1):
        out.extend(lyndon_basis(genus, d))
    return out


def all_weights(genus, d):
    """Every letter-count vector of total d, empty blocks' included."""
    return [mu for mu in product(range(d + 1), repeat=2 * genus)
            if sum(mu) == d]


def caterpillar_buckets(genus, d):
    """The nonempty per-weight caterpillar families of degree d."""
    return {mu: trees for mu in all_weights(genus, d + 2)
            if (trees := _caterpillars(genus, d, mu))}


def random_chain(genus, k, arity, rng, nterms=4):
    pool = words_up_to(genus, k)
    terms = []
    for _ in range(nterms):
        mon = tuple(rng.sample(pool, arity))
        terms.append((mon, F(rng.randint(1, 5), rng.randint(1, 3))))
    return wedge_chain_from_terms(genus, k, arity, terms)


class TestNormalization:
    def test_swap_gives_sign(self):
        a = wedge_chain_from_terms(1, 2, 2, [(((0,), (1,)), F(1))])
        b = wedge_chain_from_terms(1, 2, 2, [(((1,), (0,)), F(-1))])
        assert a == b

    def test_repeat_vanishes(self):
        c = wedge_chain_from_terms(1, 2, 2, [(((0,), (0,)), F(1))])
        assert c.is_zero()

    def test_long_factors_dropped(self):
        c = wedge_chain_from_terms(1, 2, 2, [(((0, 0, 1), (0,)), F(1))])
        assert c.is_zero()

    def test_sorted_by_length_then_word(self):
        c = wedge_chain_from_terms(1, 2, 2, [(((0, 1), (1,)), F(1))])
        assert list(c.coords) == [((1,), (0, 1))]

    def test_reduced_to(self):
        c = wedge_chain_from_terms(1, 3, 2, [(((0,), (0, 0, 1)), F(1)),
                                             (((0,), (0, 1)), F(2))])
        r = c.reduced_to(2)
        assert r.nilpotency_class == 2
        assert list(r.coords) == [((0,), (0, 1))]


class TestValidation:
    @pytest.mark.parametrize("mon", [
        ((1,), (0,), (2,)),      # factors out of basis order
        ((0,), (1,), (9,)),      # letter outside the genus-2 alphabet
        ((0,), (1,), (1, 0)),    # factor that is not a Lyndon word
    ])
    def test_constructor_rejects_malformed_monomials(self, mon):
        with pytest.raises(ValueError):
            WedgeChain(2, 2, 3, {mon: 1})

    @pytest.mark.parametrize("mon, message", [
        (((9,), (0,), (1,)), "out of range"),
        (((0,), (1,), (1, 0)), "not a Lyndon word"),
        (((0,), (), (1,)), "not a Lyndon word"),
    ])
    def test_from_terms_rejects_malformed_factors(self, mon, message):
        with pytest.raises(ValueError, match=message):
            class_of(wedge_chain_from_terms(2, 1, 3, [(mon, 1)]))
        with pytest.raises(ValueError, match=message):
            wedge_chain_from_terms(2, 2, 3, [(mon, 1)])


class TestBoundary:
    def test_pair_of_letters(self):
        c = wedge_chain_from_terms(1, 2, 2, [(((0,), (1,)), F(1))])
        assert boundary(c).coords == {((0, 1),): F(-1)}

    def test_triple(self):
        mon = ((0,), (1,), (2, 3))
        c = wedge_chain_from_terms(2, 2, 3, [(mon, F(1))])
        d = boundary(c)
        # only the (letter, letter) pair survives the class-2 cap
        assert d.coords == {((0, 1), (2, 3)): F(-1)}
        assert boundary(d).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_squares_to_zero(self, data):
        genus = data.draw(st.integers(1, 2), label="genus")
        k = data.draw(st.integers(1, 3), label="class")
        pool = len(words_up_to(genus, k))
        arity = data.draw(st.integers(2, min(4, pool)), label="arity")
        rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
        c = random_chain(genus, k, arity, rng)
        assert boundary(boundary(c)).is_zero()

    def test_linear(self):
        rng = random.Random(1)
        x = random_chain(2, 2, 3, rng)
        y = random_chain(2, 2, 3, rng)
        assert boundary(x + y) == boundary(x) + boundary(y)
        assert boundary(F(5) * x) == F(5) * boundary(x)

    def test_grading(self):
        rng = random.Random(2)
        c = random_chain(2, 3, 3, rng)
        for d in c.degrees():
            assert boundary(c).graded_part(d) == boundary(c.graded_part(d))


class TestHomologyDims:
    def test_h1_is_abelianization(self):
        for genus, k in ((1, 2), (2, 2), (2, 3)):
            assert homology_dims(genus, k, 1) == {1: 2 * genus}

    def test_h2_is_relation_space(self):
        for genus, k in ((1, 2), (1, 4), (2, 2)):
            assert homology_dims(genus, k, 2) == {
                k + 1: witt_dim(2 * genus, k + 1)}

    @pytest.mark.parametrize("genus, k", [(2, 3), (3, 2), (1, 6)])
    def test_h3_closed_form(self, genus, k):
        # H3 of L/L_{>k} sits in degrees k+2..2k+1, where it is the
        # bracket kernel of H (x) L_{d-1} -> L_d
        n = 2 * genus
        expect = {d: n * witt_dim(n, d - 1) - witt_dim(n, d)
                  for d in range(k + 2, 2 * k + 2)}
        assert homology_dims(genus, k, 3) == {d: h for d, h in expect.items()
                                              if h}

    def test_h3_small(self):
        assert homology_dims(1, 1, 3) == {}
        assert homology_dims(1, 2, 3) == {4: 1}
        assert homology_dims(2, 1, 3) == {3: 4}
        assert homology_dims(2, 2, 3) == {4: 20, 5: 36}

    @pytest.mark.parametrize("genus, k", [(0, 2), (-1, 2), (1, 0)])
    def test_rejects_genus_or_class_below_one(self, genus, k):
        with pytest.raises(ValueError):
            homology_dims(genus, k, 3)
        with pytest.raises(ValueError):
            phi_matrix_rank(genus, k)


class TestClasses:
    def test_rejects_non_cycles(self):
        c = wedge_chain_from_terms(2, 2, 3, [(((0,), (1,), (2,)), F(1))])
        assert not boundary(c).is_zero()
        with pytest.raises(ValueError):
            class_of(c)

    def test_a_non_cycle_outside_the_enumerated_basis_is_refused_as_one(self):
        # a1 ^ b1 ^ a1.a1.b1, built unchecked at class 2: no class-2
        # 3-monomial has its weight (3, 2), and its boundary
        # [a1, b1] ^ a1.a1.b1 is nonzero
        z = WedgeChain._of(1, 2, 3, {((0,), (1,), (0, 0, 1)): F(1)})
        assert koszul._h3_structure(1, 2, (3, 2)) is None
        with pytest.raises(ValueError, match="^input chain is not a cycle$"):
            class_of(z)

    def test_a_cycle_with_a_factor_above_the_class_is_refused_by_name(self):
        # a1 ^ a1.b1.b1 ^ a1.a1.b1.b1, built unchecked at class 3: every
        # pair of factors brackets above the class, so it is a cycle, but
        # its weight block holds no monomial with a length-4 factor
        z = WedgeChain._of(1, 3, 3, {((0,), (0, 1, 1), (0, 0, 1, 1)): F(1)})
        assert boundary(z).is_zero()
        with pytest.raises(BlockMismatchError,
                           match="^cycle monomial outside the enumerated basis$"):
            class_of(z)

    def test_a_cycle_takes_no_boundary(self, monkeypatch):
        z = fission(random_tree(2, 2, random.Random(5)), 2)
        expect = class_of(z)

        def refuse(c):
            raise AssertionError("boundary taken on the success path")

        monkeypatch.setattr(koszul, "boundary", refuse)
        assert class_of(z) == expect and not expect.is_zero()

    def test_boundaries_map_to_zero(self):
        for seed in range(4):
            c = random_chain(2, 2, 4, random.Random(seed))
            z = boundary(c)
            assert boundary(z).is_zero()
            assert class_of(z).is_zero()

    def test_additive(self):
        x = fission(random_tree(2, 1, random.Random(3)), 1)
        y = fission(random_tree(2, 1, random.Random(8)), 1)
        assert class_of(x + y) == class_of(x) + class_of(y)
        assert class_of(x) - class_of(x) == HomologyClass(2, 1, {})
        assert (-class_of(x)) + class_of(x) == class_of(WedgeChain.zero(2, 1, 3))

    def test_zero_chain_has_zero_class(self):
        assert class_of(WedgeChain.zero(2, 2, 3)).is_zero()

    def test_constructor_rejects_wrong_layout(self):
        with pytest.raises(ValueError, match="dimension 36"):
            HomologyClass(2, 3, {5: (1, 0)})
        with pytest.raises(ValueError, match="dimension 0"):
            HomologyClass(2, 3, {2: (1,)})

    @pytest.mark.parametrize("genus, k, parts", [(2, 0, {5: ()}),
                                                 (2, -1, {1: ()}),
                                                 (0, 3, {5: (1,)})])
    def test_constructor_rejects_bad_context(self, genus, k, parts):
        with pytest.raises(ValueError, match="bad context"):
            HomologyClass(genus, k, parts)

    def test_rejects_genus_zero_like_the_constructor(self):
        with pytest.raises(ValueError, match="bad context"):
            class_of(WedgeChain.zero(0, 3, 3))

    def test_constructor_rejects_a_non_int_degree(self):
        with pytest.raises(ValueError, match="degree key '5' is not an int"):
            HomologyClass(2, 3, {"5": (1,)})

    def test_parts_is_a_dense_view(self):
        c = HomologyClass(2, 2, {4: (0,) * 19 + (F(1, 2),), 5: (0,) * 36})
        assert c.coords == {(4, 19): F(1, 2)}
        assert c.parts == {4: (F(0),) * 19 + (F(1, 2),)}
        assert c.degrees() == [4]


class TestQuotientLayout:
    def test_builds_only_the_blocks_the_cycle_touches(self, monkeypatch):
        # an H3 solver is built only for a weight the class sum asks for
        koszul._h3_structure.cache_clear()
        koszul._quotient_layout.cache_clear()
        koszul._window_class.cache_clear()
        touched = set()

        def recording(genus, k, mu):
            touched.add((genus, k, mu))
            return h3_structure(genus, k, mu)

        h3_structure = koszul._h3_structure
        monkeypatch.setattr(koszul, "_h3_structure", recording)
        assert not morita_mk(random_ic_element(2, 2, 1, 4), 2).is_zero()
        assert touched and {(g, k) for g, k, _ in touched} == {(2, 2)}
        assert h3_structure.cache_info().currsize == len(touched)
        assert len(touched) < sum(1 for d in (4, 5) for mu in koszul._weights(
            4, d) if _monomials(2, 2, 3, mu))

    def test_ranks_are_taken_once_per_weight_orbit(self, monkeypatch):
        # the layout is counted; the rank path left is homology_dims
        koszul._block_rank.cache_clear()
        seen = []

        def recording(genus, k, arity, mu):
            seen.append((arity, mu))
            return rows_of(genus, k, arity, mu)

        rows_of = koszul._boundary_rows
        monkeypatch.setattr(koszul, "_boundary_rows", recording)
        homology_dims(2, 2, 3)
        assert seen
        assert all(list(mu) == sorted(mu, reverse=True) for _, mu in seen)
        assert len(seen) == len(set(seen))

    def test_degrees_without_arity_3_monomials_enumerate_nothing(
            self, monkeypatch):
        koszul._quotient_layout.cache_clear()
        calls = []

        def counting(*args):
            calls.append(args)
            return monomials(*args)

        monomials = koszul._monomials
        monkeypatch.setattr(koszul, "_monomials", counting)
        assert HomologyClass(2, 2, {50: ()}).is_zero()
        for d in (0, 1, 2, 7):
            assert koszul._quotient_layout(2, 2, d) == ({}, 0)
        assert calls == []
        with pytest.raises(ValueError, match="degree 7 has 1 coordinates, "
                           "but H3 has dimension 0 there"):
            HomologyClass(2, 2, {7: (1,)})

    @pytest.mark.parametrize("genus, k", [(1, 2), (1, 3), (2, 2), (2, 3),
                                          (3, 2)])
    def test_h3_lives_in_degrees_k_plus_2_to_2k_plus_1(self, genus, k):
        # the window morita_mk solves in: no H3 outside it
        for d in range(3, 3 * k + 1):
            if not k + 2 <= d <= 2 * k + 1:
                assert koszul._quotient_layout(genus, k, d)[1] == 0

    @pytest.mark.parametrize("genus, k", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_rank_dimension_is_the_quotient_basis_size(self, genus, k):
        for d in range(3, 3 * k + 1):
            offsets, total = koszul._quotient_layout(genus, k, d)
            ends = [*list(offsets.values())[1:], total]
            for (mu, start), end in zip(offsets.items(), ends):
                # the quotient columns follow the d4 columns, labelled by
                # their coordinate keys
                labels = koszul._h3_structure(genus, k, mu).labels
                n4 = len(_monomials(genus, k, 4, mu))
                assert labels[n4:] == [(d, i) for i in range(start, end)]

    @pytest.mark.parametrize("genus, k", [(1, 1), (1, 2), (1, 3), (1, 4),
                                          (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_census_layout_is_the_rank_layout(self, genus, k):
        # offsets and totals of the rank route, zero-dimension weights dropped
        for d in range(3, 3 * k + 1):
            offsets, total = {}, 0
            for mu in koszul._weights(2 * genus, d):
                rep = tuple(sorted(mu, reverse=True))
                h = (len(_monomials(genus, k, 3, rep))
                     - _block_rank(genus, k, 3, rep)
                     - _block_rank(genus, k, 4, rep))
                if h:
                    offsets[mu] = total
                    total += h
            assert koszul._quotient_layout(genus, k, d) == (offsets, total)

    def test_layout_reaches_no_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the layout eliminated")

        for name in ("_echelon", "rank_of_rows", "_block_rank", "_monomials"):
            monkeypatch.setattr(koszul, name, refuse)
        koszul._quotient_layout.cache_clear()
        assert koszul._quotient_layout(3, 3, 7)[1] == (
            6 * witt_dim(6, 6) - witt_dim(6, 7))

    def test_an_off_by_one_census_fails_the_quotient_certificate(
            self, monkeypatch):
        mu = (2, 1, 1, 0)
        real = koszul.bracket_kernel_dim
        monkeypatch.setattr(koszul, "bracket_kernel_dim",
                            lambda mu: real(mu) - 1)
        koszul._h3_structure.cache_clear()
        with pytest.raises(RuntimeError, match=re.escape(
                f"H3 quotient basis at class 2, weight {mu} has")):
            koszul._h3_structure(2, 2, mu)


class TestClassOfBlocksWithoutH3:
    def test_a_boundary_outside_the_window_is_the_zero_class(self):
        # class 3: H3 lives in degrees 5..7, and this boundary has degree 4
        z = boundary(WedgeChain(2, 3, 4, {((0,), (1,), (2,), (3,)): F(1)}))
        assert not z.is_zero() and z.degrees() == [4]
        assert koszul._quotient_layout(2, 3, 4) == ({}, 0)
        assert class_of(z).is_zero()

    def test_phi_of_a_degree_2k_tree_is_the_zero_class(self):
        # three forks a1 b1, a2 b2 and a1 a2 on one vertex: at class 2 the
        # fission keeps that vertex's wedge, of degree 2k + 2, past the window
        k = 2
        tree = TreeCombo.from_terms(2, [(F(1), 0, (1, ((2, 3), (0, 2))))])
        assert fission(tree, k).degrees() == [2 * k + 2]
        assert capital_phi(tree, k).is_zero()


def draw_fission(data, genus, k):
    """The fission of a random tree of degree k..2k-1, at class k."""
    d = data.draw(st.integers(k, 2 * k - 1), label="degree")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    return fission(random_tree(genus, d, rng), k)


@lru_cache(maxsize=None)
def oracle_block(genus, k, mu):
    """The `Fraction` oracle route on the (3, mu) block at class k: the
    monomial index, the quotient basis and the coordinates function."""
    index = {m: i for i, m in enumerate(_monomials(genus, k, 3, mu))}
    image = [{index[m]: c for m, c in _monomial_boundary(k, m4).items()}
             for m4 in _monomials(genus, k, 4, mu)]
    return (index, *linalg_oracle.h3_route(
        len(index), image, koszul._boundary_rows(genus, k, 3, mu)))


def oracle_class(z):
    """The oracle's coordinates of the 3-cycle z, keyed as in `class_of`."""
    genus, k = z.genus, z.nilpotency_class
    coords = {}
    for mu, block in _split_by_weight(z.coords, genus,
                                      chain.from_iterable).items():
        index, _, coordinates = oracle_block(genus, k, mu)
        v = [F(0)] * len(index)
        for mon, c in block.items():
            v[index[mon]] = c
        got = coordinates(v)
        assert got is not None
        if got:
            d = sum(mu)
            offset = koszul._quotient_layout(genus, k, d)[0][mu]
            coords.update(((d, i), c) for i, c in enumerate(got, offset) if c)
    return coords


class TestOracleRoute:
    """The integer H3 path against the `Fraction` route it replaced."""

    @pytest.mark.parametrize("genus, k", [(1, 1), (1, 2), (1, 3), (1, 4),
                                          (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_quotient_basis_and_coordinates_match(self, genus, k,
                                                  monkeypatch):
        columns = {}

        def recording(self, label, column):
            # the d4 columns are untracked; a quotient column's label is
            # its coordinate key
            if label is not None:
                columns[label] = column
            return add(self, label, column)

        add = BlockSolver.add
        monkeypatch.setattr(BlockSolver, "add", recording)
        koszul._h3_structure.cache_clear()
        mon4 = []
        for d in range(k + 2, 2 * k + 2):
            offsets = koszul._quotient_layout(genus, k, d)[0]
            for mu in koszul._weights(2 * genus, d):
                mon4 += _monomials(genus, k, 4, mu)
                index, basis, _ = oracle_block(genus, k, mu)
                if not index:
                    assert koszul._h3_structure(genus, k, mu) is None
                    continue
                koszul._h3_structure(genus, k, mu)
                got = []
                for i in range(offsets.get(mu, 0),
                               offsets.get(mu, 0) + len(basis)):
                    v = [F(0)] * len(index)
                    for mon, c in columns[(d, i)].items():
                        v[index[mon]] = c
                    got.append(v)
                assert got == basis
        rng = random.Random(genus * 10 + k)
        for _ in range(3):
            z = boundary(WedgeChain(genus, k, 4, {
                mon: rng.randint(-3, 3)
                for mon in rng.sample(mon4, min(3, len(mon4)))}))
            assert class_of(z).coords == oracle_class(z) == {}
        for d in range(k, 2 * k):
            z = fission(random_tree(genus, d, rng), k)
            assert class_of(z).coords == oracle_class(z)


class TestClassProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_dense_round_trip(self, data):
        genus = data.draw(st.integers(1, 2), label="genus")
        k = data.draw(st.integers(1, 3), label="class")
        c = class_of(draw_fission(data, genus, k))
        assert HomologyClass(genus, k, c.parts) == c

    @pytest.mark.parametrize("genus, k", [(1, 3), (2, 2)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_boundaries_of_random_4_chains_are_zero(self, genus, k, data):
        rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
        w = random_chain(genus, k, 4, rng,
                         data.draw(st.integers(1, 6), label="terms"))
        assert class_of(boundary(w)).is_zero()

    @pytest.mark.parametrize("genus, k", [(1, 4), (2, 2), (3, 2)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_multiple_plus_a_cycle(self, genus, k, data):
        z1 = draw_fission(data, genus, k)
        z2 = draw_fission(data, genus, k)
        a = data.draw(st.fractions(min_value=-5, max_value=5,
                                   max_denominator=4), label="a")
        assert class_of(a * z1 + z2) == a * class_of(z1) + class_of(z2)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_linear(self, data):
        genus = data.draw(st.integers(1, 2), label="genus")
        k = data.draw(st.integers(1, 3), label="class")
        x = draw_fission(data, genus, k)
        y = draw_fission(data, genus, k)
        q = data.draw(st.fractions(min_value=-5, max_value=5,
                                   max_denominator=4), label="q")
        assert class_of(x + q * y) == class_of(x) + q * class_of(y)


class TestBlocks:
    @pytest.mark.parametrize("genus", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, genus, k):
        basis = words_up_to(genus, k)
        for arity in range(1, 5):
            expect = {}
            for mon in combinations(basis, arity):
                mu = tuple(sum(w.count(x) for w in mon)
                           for x in range(2 * genus))
                expect.setdefault(mu, []).append(mon)
            for d in range(arity * k + 2):
                for mu in all_weights(genus, d):
                    assert _monomials(genus, k, arity, mu) == expect.get(mu, [])

    def test_boundary_coefficients_are_ints(self):
        # every block homology_dims(2, 3, 3) eliminates: arities 3 and 4
        genus, k = 2, 3
        seen = 0
        for arity in (3, 4):
            for d in range(arity, arity * k + 1):
                for mu in all_weights(genus, d):
                    for mon in _monomials(genus, k, arity, mu):
                        for c in _monomial_boundary(k, mon).values():
                            assert type(c) is int
                            seen += 1
        assert seen > 0


def permuted(mu, sigma):
    return tuple(mu[i] for i in sigma)


def phi_bucket_rank(k, trees):
    # oracle: the rank of the canonical H3 coordinates of the bucket
    return rank_of_columns([capital_phi(TreeCombo.single(t), k).coords
                            for t in trees])


def full_homology_dims(genus, k, n):
    """homology_dims summed over every weight, no orbits."""
    out = {}
    for d in range(n, n * k + 1):
        h = sum(len(_monomials(genus, k, n, mu)) - _block_rank(genus, k, n, mu)
                - _block_rank(genus, k, n + 1, mu)
                for mu in all_weights(genus, d))
        if h:
            out[d] = h
    return out


class TestOrbitRule:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_block_size_and_rank_are_orbit_invariant(self, data):
        genus, k = data.draw(st.sampled_from([(1, 4), (2, 2), (2, 3), (3, 2)]),
                             label="(genus, class)")
        arity = data.draw(st.integers(2, 4), label="arity")
        d = data.draw(st.integers(arity, arity * k), label="degree")
        nonempty = [mu for mu in all_weights(genus, d)
                    if _monomials(genus, k, arity, mu)]
        assume(nonempty)
        mu = data.draw(st.sampled_from(nonempty), label="mu")
        sigma = data.draw(st.permutations(range(2 * genus)), label="sigma")
        nu = permuted(mu, sigma)
        assert (len(_monomials(genus, k, arity, mu))
                == len(_monomials(genus, k, arity, nu)))
        assert _block_rank(genus, k, arity, mu) == _block_rank(genus, k, arity, nu)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_phi_bucket_rank_is_orbit_invariant(self, data):
        genus, k = data.draw(st.sampled_from([(2, 2), (3, 1)]),
                             label="(genus, class)")
        d = data.draw(st.integers(k, 2 * k - 1), label="degree")
        buckets = caterpillar_buckets(genus, d)
        mu = data.draw(st.sampled_from(sorted(buckets)), label="mu")
        sigma = data.draw(st.permutations(range(2 * genus)), label="sigma")
        nu = permuted(mu, sigma)
        assert (phi_bucket_rank(k, buckets[mu])
                == phi_bucket_rank(k, buckets.get(nu, [])))

    @pytest.mark.parametrize("genus, k, n", [(1, 4, 2), (1, 4, 3), (2, 2, 2),
                                             (2, 2, 3), (2, 2, 4), (2, 3, 3),
                                             (3, 2, 3)])
    def test_dominant_sum_matches_full_sum(self, genus, k, n):
        assert homology_dims(genus, k, n) == full_homology_dims(genus, k, n)

    @pytest.mark.parametrize("genus, k", [(1, 4), (2, 2), (2, 3), (3, 2)])
    def test_hopf_formula_gives_each_arity_3_rank(self, genus, k):
        # H1 = H and H2 = L_{k+1} (Hopf): rank d3 = c2 - (c1 - h1) - h2
        top = Counter(_letter_weight(w, genus)
                      for w in lyndon_basis(genus, k + 1))
        for d in range(1, 3 * k + 1):
            for mu in all_weights(genus, d):
                c1 = len(_monomials(genus, k, 1, mu))
                c2 = len(_monomials(genus, k, 2, mu))
                h1 = int(d == 1)
                h2 = top[mu] if d == k + 1 else 0
                assert _block_rank(genus, k, 3, mu) == c2 - (c1 - h1) - h2


class TestSolveBoundary3:
    def test_round_trip(self):
        for seed in range(4):
            x = random_chain(2, 2, 3, random.Random(seed))
            b = boundary(x)
            y = solve_boundary3(b)
            assert y.arity == 3
            assert boundary(y) == b

    def test_detects_essential_cycles(self):
        # at class 2 this 2-chain is a cycle but represents nonzero H2
        z = wedge_chain_from_terms(1, 2, 2, [(((0,), (0, 1)), F(1))])
        assert boundary(z).is_zero()
        with pytest.raises(RuntimeError):
            solve_boundary3(z)

    def test_rejects_non_cycle(self):
        z = WedgeChain(2, 2, 2, {((0,), (1,)): 1})
        assert not boundary(z).is_zero()
        with pytest.raises(ValueError):
            solve_boundary3(z)

    def test_rejects_cycle_that_bounds_nothing(self):
        z = WedgeChain(1, 1, 2, {((0,), (1,)): 1})
        assert boundary(z).is_zero()
        with pytest.raises(ValueError):
            solve_boundary3(z)

    # genus 1 has no nonzero d3 image at class 2
    @pytest.mark.parametrize("genus, k",
                             [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_the_fraction_oracle_on_real_blocks(self, genus, k):
        # z bounds a random 3-chain on up to three d3 blocks of each
        # degree; each block's free-variables-zero solution, its columns
        # the block's 3-monomials in order, is read off the oracle
        rng = random.Random(10 * genus + k)
        t = {}
        for d in range(3, 3 * k + 1):
            blocks = [mu for mu in koszul._weights(2 * genus, d)
                      if _monomials(genus, k, 3, mu)]
            for mu in rng.sample(blocks, min(3, len(blocks))):
                for mon in _monomials(genus, k, 3, mu):
                    t[mon] = rng.choice((-1, 1)) * F(rng.randint(1, 4),
                                                     rng.randint(1, 3))
        z = boundary(WedgeChain(genus, k, 3, t))
        expect = {}
        for mu, block in _split_by_weight(z.coords, genus,
                                          chain.from_iterable).items():
            row = {m: i for i, m in enumerate(_monomials(genus, k, 2, mu))}
            cols = _monomials(genus, k, 3, mu)
            x = linalg_oracle.solve(koszul._boundary_rows(genus, k, 3, mu),
                                    len(cols), {row[mon]: c for mon, c
                                                in block.items()})
            expect.update((cols[j], v) for j, v in x.items())
        assert expect and solve_boundary3(z).coords == expect

    def test_not_a_boundary_error_is_both_error_types(self):
        # a1 ^ b1 at genus 1, class 1: a cycle, and no 3-chains exist
        z = WedgeChain(1, 1, 2, {((0,), (1,)): 1})
        with pytest.raises(NotABoundaryError,
                           match="2-cycle is not a 3-boundary") as info:
            solve_boundary3(z)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, RuntimeError)


def draw_combo(data, genus, k):
    """A rational combination of one to four random trees of degrees
    k..2k+1 at the genus."""
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    c = TreeCombo.zero(genus)
    for _ in range(data.draw(st.integers(1, 4), label="trees")):
        d = data.draw(st.integers(k, 2 * k + 1), label="degree")
        q = data.draw(st.fractions(min_value=-5, max_value=5,
                                   max_denominator=4).filter(bool), label="q")
        c = c + q * random_tree(genus, d, rng)
    return c


class TestCapitalPhi:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_by_linearity_is_the_class_of_the_fission(self, data):
        genus = data.draw(st.integers(1, 3), label="genus")
        k = data.draw(st.integers(1, 3), label="class")
        c = draw_combo(data, genus, k)
        assert capital_phi(c, k) == class_of(fission(c, k))
        for tree in c.coords:
            if tree.degree >= 2 * k:
                assert capital_phi(TreeCombo.single(tree), k).is_zero()

    def test_one_tree_at_two_classes_and_two_genera(self):
        koszul._tree_class.cache_clear()
        trees = [TreeDiagram.build(genus, 0, ((1, 2), 3))[0]
                 for genus in (2, 3)]
        assert trees[0].key == trees[1].key and trees[0] != trees[1]
        seen = set()
        for tree in trees:
            for k in (1, 2):
                c = 2 * TreeCombo.single(tree) + F(1, 3) * random_tree(
                    tree.genus, k, random.Random(k))
                h = capital_phi(c, k)
                assert h == class_of(fission(c, k))
                assert h.genus == tree.genus and h.nilpotency_class == k
                seen.update((t, k) for t in c.coords)
            # degree 2 is in the window at class 2 and above it at class 1
            assert capital_phi(TreeCombo.single(tree), 1).is_zero()
            assert not capital_phi(TreeCombo.single(tree), 2).is_zero()
        # one memo entry per distinct tree and class: the genus tells the
        # two trees apart
        assert koszul._tree_class.cache_info().currsize == len(seen) == 8

    def test_the_memo_is_not_changed_by_a_result(self):
        c = random_tree(2, 2, random.Random(5))
        expect = class_of(fission(c, 2))
        capital_phi(c, 2).coords.clear()
        assert capital_phi(c, 2) == expect

    def test_low_degree_rejected(self):
        c = random_tree(2, 1, random.Random(0))
        with pytest.raises(ValueError):
            capital_phi(c, 2)

    def test_high_degree_is_zero(self):
        c = random_tree(2, 2, random.Random(0))
        assert capital_phi(c, 1).is_zero()

    def test_window_degrees_survive(self):
        c = random_tree(2, 1, random.Random(0))
        h = capital_phi(c, 1)
        assert not h.is_zero()
        assert h.nilpotency_class == 1

    def test_matches_class_of_fission(self):
        c = random_tree(2, 2, random.Random(5))
        assert capital_phi(c, 2) == class_of(fission(c, 2))

    def test_rejects_class_below_one(self):
        c = random_tree(2, 2, random.Random(1))
        with pytest.raises(ValueError):
            capital_phi(c, 0)

    def test_rank_small(self):
        assert phi_matrix_rank(2, 1) == 4
        assert phi_matrix_rank(1, 2) == 1

    def test_rank_is_h3_total_genus_3(self):
        # closed form of dim H3 in degree d: 2g W(2g, d-1) - W(2g, d)
        genus, k = 3, 2
        total = sum(2 * genus * witt_dim(2 * genus, d - 1)
                    - witt_dim(2 * genus, d) for d in range(k + 2, 2 * k + 2))
        assert total == 441
        assert phi_matrix_rank(genus, k) == total

    def test_rank_genus_2_class_3(self):
        assert phi_matrix_rank(2, 3) == 522

    @pytest.mark.parametrize("genus, k",
                             [(1, 2), (1, 3), (2, 2), (3, 1), (2, 3)])
    def test_per_weight_rank_matches_one_global_rank(self, genus, k):
        # oracle: the canonical H3 coordinates of capital_phi/class_of
        columns = [capital_phi(TreeCombo.single(tree), k).coords
                   for d in range(k, 2 * k)
                   for trees in caterpillar_buckets(genus, d).values()
                   for tree in trees]
        assert phi_matrix_rank(genus, k) == rank_of_columns(columns)

    def test_rank_rejects_a_non_cycle_like_class_of(self, monkeypatch):
        # a1 ^ b1 ^ a2 has boundary [a1,b1] ^ a2 - ... != 0 at class 2
        bad = WedgeChain(2, 2, 3, {((0,), (1,), (2,)): 1})
        with pytest.raises(ValueError) as from_class_of:
            class_of(bad)
        monkeypatch.setattr(jacobi, "fission",
                            lambda c, nilpotency_class: bad)
        with pytest.raises(ValueError) as from_rank:
            phi_matrix_rank(2, 2)
        assert type(from_rank.value) is type(from_class_of.value)
        assert str(from_rank.value) == str(from_class_of.value)

    def test_rank_builds_each_boundary_once(self, monkeypatch):
        koszul._monomials.cache_clear()
        koszul._block_rank.cache_clear()
        calls = Counter()

        def counting(k, mon):
            calls[mon] += 1
            return _monomial_boundary(k, mon)

        monkeypatch.setattr(koszul, "_monomial_boundary", counting)
        assert phi_matrix_rank(2, 3) == 522
        assert calls and max(calls.values()) == 1

    def test_d3_solvers_stop_reading_columns_at_full_rank(self, monkeypatch):
        # at class 4, d2 vanishes in degree 7 and H2 lives in degree 5, so
        # d3 on the (2,2,2,1) block has full rank: its solver reads columns
        # only until the rank reaches the block's row count
        mu = (2, 2, 2, 1)
        koszul._d3_solver.cache_clear()
        columns = []

        def counting(k, mon):
            columns.append(mon)
            return _monomial_boundary(k, mon)

        monkeypatch.setattr(koszul, "_monomial_boundary", counting)
        solver = koszul._d3_solver(2, 4, mu)
        assert solver.rank == len(_monomials(2, 4, 2, mu))
        assert 0 < len(columns) < len(_monomials(2, 4, 3, mu))
        assert len(set(columns)) == len(columns)

    def test_rank_rejects_a_cycle_of_another_weight(self, monkeypatch):
        # every bucket gets the fission of one fixed tree, a genuine cycle
        tree = next(iter(caterpillar_buckets(2, 2).values()))[0]
        z = fission(TreeCombo.single(tree), 2)
        assert boundary(z).is_zero() and not z.is_zero()
        monkeypatch.setattr(jacobi, "fission",
                            lambda c, nilpotency_class: z)
        with pytest.raises(BlockMismatchError, match="outside the weight"):
            phi_matrix_rank(2, 2)
