"""Filtered automorphisms, derivations, window tensors, the obstruction map."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lietrees import koszul
from lietrees.free_lie import LieSeries, gen_count, lyndon_basis
from lietrees.jacobi import HLieTensor, eta, random_tree
from lietrees.johnson import (Derivation, LieAutomorphism, apply_aut,
                              apply_der, compose_aut, derivation_from_tensor,
                              exp_der, identity_aut, invert_aut,
                              is_omega_fixing, johnson_k, kernel_check,
                              log_aut, morita_mk, random_ic_element,
                              tau_bracket_check, tau_to_trees, tau_truncated)
from lietrees.koszul import boundary, capital_phi
from lietrees.symplectic import omega
from lietrees.tensor_hopf import ExpansionMap, TensorSeries, exp

F = Fraction

# The three generator maps, each with a valid image of a letter and an
# image of the other series type; they share one constructor.
KINDS = {
    LieAutomorphism: (lambda g, n, l: LieSeries.gen(g, n, l), "LieSeries",
                      lambda g, n, l: TensorSeries.gen(g, n, l)),
    Derivation: (lambda g, n, l: LieSeries(g, n, {(0, 1): 1}), "LieSeries",
                 lambda g, n, l: TensorSeries.gen(g, n, l)),
    ExpansionMap: (lambda g, n, l: exp(TensorSeries.gen(g, n, l)),
                   "TensorSeries", lambda g, n, l: LieSeries.gen(g, n, l)),
}


def images_of(kind, genus, n):
    """Valid generator images of this kind at genus and degree n."""
    image = KINDS[kind][0]
    return {l: image(genus, n, l) for l in range(gen_count(genus))}


def rand_series(genus, lo, hi, rng, cap):
    coords = {}
    for d in range(lo, hi + 1):
        for w in lyndon_basis(genus, d):
            if rng.random() < 0.4:
                coords[w] = F(rng.randint(-4, 4))
    return LieSeries(genus, cap, coords)


def rand_aut(genus, cap, rng, lo=2):
    images = {}
    for letter in range(gen_count(genus)):
        dev = rand_series(genus, lo, cap, rng, cap)
        images[letter] = LieSeries.gen(genus, cap, letter) + dev
    return LieAutomorphism(genus, cap, images)


def rand_derivation(genus, cap, rng, lo=2):
    return Derivation(genus, cap, {
        letter: rand_series(genus, lo, cap, rng, cap)
        for letter in range(gen_count(genus))})


class TestAutomorphisms:
    def test_identity(self):
        psi = identity_aut(2, 4)
        x = rand_series(2, 1, 4, random.Random(0), 4)
        assert apply_aut(psi, x) == x

    def test_validation(self):
        images = {0: LieSeries.gen(1, 3, 1), 1: LieSeries.gen(1, 3, 1)}
        with pytest.raises(ValueError):
            LieAutomorphism(1, 3, images)

    def test_bracket_homomorphism(self):
        rng = random.Random(4)
        psi = rand_aut(2, 5, rng)
        for _ in range(5):
            x = rand_series(2, 1, 2, rng, 5)
            y = rand_series(2, 1, 2, rng, 5)
            assert apply_aut(psi, x.bracket(y)) == \
                apply_aut(psi, x).bracket(apply_aut(psi, y))

    def test_compose_then_invert(self):
        rng = random.Random(9)
        psi = rand_aut(2, 4, rng)
        phi = rand_aut(2, 4, rng)
        chained = compose_aut(psi, phi)
        x = rand_series(2, 1, 2, rng, 4)
        assert apply_aut(chained, x) == apply_aut(psi, apply_aut(phi, x))
        inv = invert_aut(psi)
        assert compose_aut(inv, psi) == identity_aut(2, 4)
        assert compose_aut(psi, inv) == identity_aut(2, 4)

    def test_truncation(self):
        psi = rand_aut(1, 5, random.Random(3))
        assert psi.truncated(3).max_degree == 3
        assert psi.truncated(3).image_of(0) == psi.image_of(0).truncated(3)

    def test_truncation_rejects_degrees_outside_range(self):
        for kind in KINDS:
            m = kind(2, 3, images_of(kind, 2, 3))
            for n in (0, -1, 4, 7):
                with pytest.raises(ValueError, match=f"truncation degree {n} "
                                   "outside 1..3"):
                    m.truncated(n)
            assert m.truncated(3) == m
            assert m.truncated(2) == kind(2, 2, images_of(kind, 2, 2))

    def test_rejects_images_truncated_below_max_degree(self):
        for kind in KINDS:
            images = images_of(kind, 2, 3)
            with pytest.raises(ValueError, match="image of a1 is truncated at "
                               "degree 3, below 7"):
                kind(2, 7, images)
            images.update(images_of(kind, 2, 7))
            images[1] = images_of(kind, 2, 4)[1]
            with pytest.raises(ValueError, match="image of b1 is truncated at "
                               "degree 4, below 7"):
                kind(2, 7, images)

    def test_rejects_a_negative_genus(self):
        for make in (lambda: LieAutomorphism(-1, 3, {}),
                     lambda: identity_aut(-2, 3),
                     lambda: Derivation(-1, 3, {}),
                     lambda: random_ic_element(-1, 1, 0, 2)):
            with pytest.raises(ValueError, match="bad context"):
                make()

    def test_images_above_max_degree_are_truncated(self):
        for kind in KINDS:
            fine = images_of(kind, 2, 7)
            m = kind(2, 3, fine)
            assert m == kind(2, 3, images_of(kind, 2, 3))
            assert m.images == {l: s.truncated(3) for l, s in fine.items()}

    def test_images_at_max_degree_are_kept_as_given(self):
        for kind in KINDS:
            images = images_of(kind, 2, 3)
            m = kind(2, 3, images)
            assert all(m.images[l] is s for l, s in images.items())

    def test_rejects_an_image_for_a_non_generator(self):
        for kind in KINDS:
            images = images_of(kind, 1, 3)
            for key in (5, 2, -1, "a1"):
                with pytest.raises(ValueError, match=f"image for {key!r}, "
                                   "which is not a generator letter of "
                                   "genus 1"):
                    kind(1, 3, {**images, key: images[0]})

    def test_rejects_an_image_that_is_not_a_lie_series(self):
        """An image of the other series type: a TensorSeries for the Lie
        maps, a LieSeries for an expansion."""
        for kind in KINDS:
            _, name, other = KINDS[kind]
            images = images_of(kind, 1, 3)
            images[1] = other(1, 3, 1)
            with pytest.raises(ValueError,
                               match=f"image of b1 is not a {name}$"):
                kind(1, 3, images)

    def test_maps_of_different_kinds_are_never_equal(self):
        # at genus 0 every kind has the same (empty) images
        maps = [kind(0, 3, {}) for kind in KINDS]
        assert maps[0] == identity_aut(0, 3)
        for i, m in enumerate(maps):
            assert [m == o for o in maps] == [j == i for j in range(3)]
        theta = ExpansionMap(1, 3, images_of(ExpansionMap, 1, 3))
        assert identity_aut(1, 3) != theta and theta != identity_aut(1, 3)

    def test_repr_names_each_image(self):
        for kind in KINDS:
            m = kind(1, 2, images_of(kind, 1, 2))
            assert repr(m) == f"a1 -> {m.images[0]!r}; b1 -> {m.images[1]!r}"


class TestDerivations:
    def test_degree_raising_enforced(self):
        with pytest.raises(ValueError):
            Derivation(1, 3, {0: LieSeries.gen(1, 3, 1)})

    def test_rejects_malformed_images(self):
        zero = LieSeries.zero(1, 3)
        with pytest.raises(ValueError, match="image for 9, which is not a "
                           "generator letter of genus 1"):
            Derivation(1, 3, {0: zero, 1: zero, 9: "junk"})
        with pytest.raises(ValueError, match="image of a1 is not a LieSeries"):
            Derivation(1, 3, {0: "junk", 1: zero})
        for kind in KINDS:
            images = images_of(kind, 2, 3)
            del images[2]
            with pytest.raises(ValueError, match="missing image for a2"):
                kind(2, 3, images)

    def test_leibniz(self):
        rng = random.Random(6)
        delta = rand_derivation(2, 5, rng)
        for _ in range(5):
            x = rand_series(2, 1, 2, rng, 5)
            y = rand_series(2, 1, 2, rng, 5)
            lhs = apply_der(delta, x.bracket(y))
            rhs = apply_der(delta, x).bracket(y) + x.bracket(apply_der(delta, y))
            assert lhs == rhs

    def test_exp_log_round_trip(self):
        rng = random.Random(2)
        delta = rand_derivation(2, 4, rng)
        assert log_aut(exp_der(delta)) == delta
        psi = rand_aut(2, 4, rng)
        assert exp_der(log_aut(psi)) == psi

    def test_rejects_values_truncated_below_max_degree(self):
        values = {l: LieSeries.zero(2, 5) for l in range(4)}
        values[2] = LieSeries(2, 3, {(0, 1): F(1)})
        with pytest.raises(ValueError):
            Derivation(2, 5, values)

    def test_exp_of_zero(self):
        zero = Derivation(2, 4, {n: LieSeries(2, 4, {}) for n in range(4)})
        assert exp_der(zero) == identity_aut(2, 4)

    def test_rejects_values_of_another_genus(self):
        for kind in KINDS:
            values = {l: KINDS[kind][0](1, 3, l % 2) for l in range(4)}
            with pytest.raises(ValueError, match="image of a1 has genus 1, "
                               "not 2"):
                kind(2, 3, values)

    def test_rejects_max_degree_below_one(self):
        for kind in KINDS:
            with pytest.raises(ValueError,
                               match="max_degree must be at least 1"):
                kind(2, 0, images_of(kind, 2, 3))


def draw_ic_elements(data, count):
    """count seeded random_ic_element draws sharing genus, level and degree."""
    genus = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, n // 2))
    return [random_ic_element(genus, k, data.draw(st.integers(0, 10**6)), n)
            for _ in range(count)]


class TestGroupLaws:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_compose_is_associative(self, data):
        psi, phi, chi = draw_ic_elements(data, 3)
        assert (compose_aut(compose_aut(psi, phi), chi)
                == compose_aut(psi, compose_aut(phi, chi)))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_identity_is_neutral_and_inverse_two_sided(self, data):
        (psi,) = draw_ic_elements(data, 1)
        one = identity_aut(psi.genus, psi.max_degree)
        assert compose_aut(one, psi) == psi == compose_aut(psi, one)
        inv = invert_aut(psi)
        assert compose_aut(psi, inv) == one == compose_aut(inv, psi)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_log_inverts_exp(self, data):
        (psi,) = draw_ic_elements(data, 1)
        delta = log_aut(psi)
        assert log_aut(exp_der(delta)) == delta
        assert exp_der(delta) == psi


class TestTensorDerivations:
    def test_contraction_is_omega_image(self):
        rng = random.Random(7)
        t = eta(random_tree(2, 2, rng))
        delta = derivation_from_tensor(t, 6)
        got = apply_der(delta, omega(2, 6))
        assert got == LieSeries(2, 6, t.bracket_contraction().coords)

    def test_window_recovery(self):
        for genus, k, seed in ((2, 1, 0), (2, 2, 3), (3, 1, 5)):
            t = eta(random_tree(genus, k, random.Random(seed)))
            assert not t.is_zero()
            psi = exp_der(derivation_from_tensor(t, 2 * k))
            assert tau_truncated(psi, k) == t
            assert johnson_k(psi, k) == t.graded_part(k)

    def test_bracket_kernel_detection(self):
        t = eta(random_tree(2, 1, random.Random(1)))
        psi = exp_der(derivation_from_tensor(t, 2))
        assert tau_bracket_check(psi, 1)
        values = {n: LieSeries(2, 2, {}) for n in range(4)}
        values[0] = LieSeries(2, 2, {(0, 1): F(1)})
        assert not tau_bracket_check(exp_der(Derivation(2, 2, values)), 1)


class TestWindowTensor:
    def test_additive_on_composition(self):
        for genus, k, s1, s2 in ((2, 1, 0, 1), (2, 2, 2, 3)):
            psi = random_ic_element(genus, k, s1, 2 * k)
            phi = random_ic_element(genus, k, s2, 2 * k)
            lhs = tau_truncated(compose_aut(psi, phi), k)
            assert lhs == tau_truncated(psi, k) + tau_truncated(phi, k)

    def test_inverse_negates(self):
        psi = random_ic_element(2, 1, 4, 2)
        assert tau_truncated(invert_aut(psi), 1) == -tau_truncated(psi, 1)

    def test_requires_enough_degrees(self):
        psi = identity_aut(2, 3)
        with pytest.raises(ValueError):
            tau_truncated(psi, 2)


class TestKernelCheck:
    def test_identity_in_every_level(self):
        assert kernel_check(identity_aut(2, 4), 2)
        assert kernel_check(identity_aut(2, 2), 1)

    def test_detects_window_content(self):
        psi = random_ic_element(2, 1, 2, 2)
        assert not kernel_check(psi, 1)

    def test_passes_deep_elements(self):
        t = eta(random_tree(2, 2, random.Random(0)))
        psi = exp_der(derivation_from_tensor(t, 4))   # deviations start at 3
        assert psi != identity_aut(2, 4)
        assert kernel_check(psi, 1)

    def test_rejects_shallow_elements(self):
        psi = random_ic_element(2, 1, 3, 2)
        with pytest.raises(ValueError):
            kernel_check(psi, 2)


class TestRandomElements:
    def test_deterministic(self):
        a = random_ic_element(2, 2, 11, 4)
        b = random_ic_element(2, 2, 11, 4)
        assert a == b

    def test_distinct_seeds_differ(self):
        assert random_ic_element(2, 1, 0, 2) != random_ic_element(2, 1, 1, 2)

    def test_fixes_omega(self):
        for seed in range(5):
            psi = random_ic_element(2, 2, seed, 4)
            assert is_omega_fixing(psi)
            assert apply_aut(psi, omega(2, 4)) == omega(2, 4)

    def test_deviation_window(self):
        psi = random_ic_element(2, 2, 1, 5)
        for letter in range(4):
            md = psi.deviation(letter).min_degree()
            assert md is None or md >= 3

    def test_precondition(self):
        with pytest.raises(ValueError):
            random_ic_element(2, 2, 0, 3)

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError, match="genus must be at least 1"):
            random_ic_element(0, 1, 0, 2)


class TestTreeLift:
    def test_round_trip_through_eta(self):
        psi = random_ic_element(2, 2, 6, 4)
        combo = tau_to_trees(psi, 2)
        assert eta(combo) == tau_truncated(psi, 2)


def level_one_automorphism():
    """a1 -> a1 + [a2,b2], every other generator fixed: one degree-2 deviation."""
    images = {l: LieSeries.gen(2, 4, l) for l in range(4)}
    images[0] = images[0] + LieSeries(2, 4, {(2, 3): 1})
    return LieAutomorphism(2, 4, images)


def level_two_unfixing_automorphism():
    """a1 -> a1 + [a2,[a2,b2]], every other generator fixed: filtration
    level 2, but it moves the symplectic element in degree 4."""
    images = {l: LieSeries.gen(2, 4, l) for l in range(4)}
    images[0] = images[0] + LieSeries(2, 4, {(2, 2, 3): 1})
    return LieAutomorphism(2, 4, images)


class TestFiltrationLevel:
    SHALLOW = [level_one_automorphism(), random_ic_element(2, 1, 0, 4),
               random_ic_element(2, 1, 5, 4)]
    ROUTES = [tau_to_trees, kernel_check, morita_mk,
              tau_truncated, johnson_k, tau_bracket_check]

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("psi", SHALLOW)
    def test_every_route_rejects_a_lower_level(self, route, psi):
        with pytest.raises(ValueError, match="not in filtration level 2"):
            route(psi, 2)

    @pytest.mark.parametrize("route", ROUTES)
    def test_every_route_checks_k_and_truncation(self, route):
        with pytest.raises(ValueError, match="k must be at least 1"):
            route(identity_aut(2, 4), 0)
        with pytest.raises(ValueError, match="truncated below degree 2k"):
            route(identity_aut(2, 3), 2)


class TestObstruction:
    def test_identity_maps_to_zero(self):
        assert morita_mk(identity_aut(2, 2), 1).is_zero()

    def test_additive(self):
        psi = random_ic_element(2, 1, 0, 2)
        phi = random_ic_element(2, 1, 1, 2)
        both = compose_aut(psi, phi)
        assert morita_mk(both, 1) == morita_mk(psi, 1) + morita_mk(phi, 1)

    def test_tree_formula(self):
        for genus, k, seed in ((2, 1, 0), (2, 1, 7), (2, 2, 1)):
            psi = random_ic_element(genus, k, seed, 2 * k)
            lhs = -morita_mk(psi, k)
            rhs = capital_phi(tau_to_trees(psi, k), k)
            assert lhs == rhs

    def test_rejects_shallow_elements(self):
        psi = random_ic_element(2, 1, 5, 4)
        with pytest.raises(ValueError):
            morita_mk(psi, 2)

    def test_both_routes_reject_genus_zero(self):
        psi = identity_aut(0, 2)
        for route in (lambda: morita_mk(psi, 1),
                      lambda: capital_phi(tau_to_trees(psi, 1), 1)):
            with pytest.raises(ValueError, match="bad context"):
                route()

    def test_rejects_an_automorphism_moving_the_symplectic_element(self):
        psi = level_two_unfixing_automorphism()
        assert not is_omega_fixing(psi)
        with pytest.raises(ValueError, match="does not fix the symplectic "
                                             "element modulo degree 2k"):
            morita_mk(psi, 2)

    def test_one_boundary_per_cycle(self, monkeypatch):
        # its own symplectic-element check, then class_of's; the bounding
        # 3-chain is solved for without a second check of the 2-cycle
        calls = []

        def counting(c):
            calls.append(c.arity)
            return boundary(c)

        monkeypatch.setattr(koszul, "boundary", counting)
        morita_mk(random_ic_element(2, 2, 3, 4), 2)
        assert calls == [2, 3]

    def test_requires_enough_degrees(self):
        psi = random_ic_element(2, 2, 0, 4).truncated(3)
        with pytest.raises(ValueError):
            morita_mk(psi, 2)
