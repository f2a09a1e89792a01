"""Koszul chains on the nilpotent quotients: boundary, homology, lifting."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from lietrees.free_lie import lyndon_basis, witt_dim
from lietrees.jacobi import TreeCombo, TreeDiagram, fission, random_tree
from lietrees.koszul import (HomologyClass, WedgeChain, _blocks, boundary,
                             capital_phi, class_of, homology_dims,
                             phi_matrix_rank, solve_boundary3,
                             wedge_chain_from_terms)

F = Fraction


def words_up_to(genus, k):
    out = []
    for d in range(1, k + 1):
        out.extend(lyndon_basis(genus, d))
    return out


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

    def test_squares_to_zero(self):
        for seed in range(6):
            rng = random.Random(seed)
            for arity in (3, 4):
                c = random_chain(2, 3, arity, rng)
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
                expect.setdefault(sum(mu), {}).setdefault(mu, []).append(mon)
            for d in range(arity * k + 2):
                assert _blocks(genus, k, arity, d) == expect.get(d, {})


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


class TestCapitalPhi:
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
