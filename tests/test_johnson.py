"""Filtered automorphisms, derivations, window tensors, the obstruction map."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle as oracle
from lietrees import jacobi, johnson, koszul
from lietrees.free_lie import (LieSeries, _letter_weight, a_letter, b_letter,
                               gen_count, lyndon_basis)
from lietrees.jacobi import HLieTensor, TreeCombo, eta, random_tree
from lietrees.johnson import (Derivation, LieAutomorphism, apply_aut,
                              apply_der, compose_aut, derivation_from_tensor,
                              exp_der, identity_aut, invert_aut,
                              is_omega_fixing, johnson_k, kernel_check,
                              log_aut, morita_mk, random_ic_element,
                              tau_bracket_check, tau_to_trees, tau_truncated)
from lietrees.koszul import boundary, capital_phi
from lietrees.sparse import SparseCombination
from lietrees.symplectic import (build_corrector, construct_symplectic, omega,
                                 verify_symplectic)
from lietrees.tensor_hopf import (ExpansionMap, TensorSeries, exp,
                                  magnus_expansion)

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

    def test_memo_starts_empty(self):
        """Nothing is scaled or cached until a map is first used."""
        for kind in KINDS:
            assert kind(2, 4, images_of(kind, 2, 4))._memo == {}

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


# Maps drawn against the Fraction oracle: genus 1-3, truncation 2-6, each
# generator image a few random terms of degree 2..n over the generator
# (an automorphism) or alone (a derivation).  "moved" divides one
# coefficient by 10007, which moves the common denominator of the memo;
# "identity" draws no terms (the identity map, or the zero derivation).
VARIANTS = ("plain", "moved", "identity")


def draw_terms(data, genus, lo, hi):
    words = [w for d in range(lo, hi + 1) for w in lyndon_basis(genus, d)]
    chosen = data.draw(st.lists(st.sampled_from(words), max_size=3,
                                unique=True)) if words else []
    return {w: F(data.draw(st.integers(1, 4)) * data.draw(st.sampled_from(
        (1, -1))), data.draw(st.sampled_from((1, 2, 3)))) for w in chosen}


def draw_images(data, genus, n, automorphism):
    """Generator images as plain dicts at truncation n."""
    variant = data.draw(st.sampled_from(VARIANTS))
    devs = {l: {} if variant == "identity" else draw_terms(data, genus, 2, n)
            for l in range(gen_count(genus))}
    if variant == "moved":
        letter = data.draw(st.integers(0, gen_count(genus) - 1))
        if not devs[letter]:
            devs[letter] = {lyndon_basis(genus, 2)[0]: F(1)}
        w = data.draw(st.sampled_from(sorted(devs[letter])))
        devs[letter][w] /= 10007
    if automorphism:
        for l, dev in devs.items():
            dev[(l,)] = F(1)
    return devs


def draw_map(data, automorphism):
    genus = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 6))
    images = draw_images(data, genus, n, automorphism)
    kind = LieAutomorphism if automorphism else Derivation
    return kind(genus, n, {l: LieSeries(genus, n, img)
                           for l, img in images.items()}), images


def dict_series(inner):
    """`sparse.scaled_series`, asserting that its start and every value
    its step returns are plain dicts."""
    def wrapper(step, x, *rest):
        assert type(x) is dict, type(x)

        def checked(t):
            out = step(t)
            assert type(out) is dict, type(out)
            return out
        return inner(checked, x, *rest)
    return wrapper


def as_images(m):
    return {l: s.coords for l, s in m.images.items()}


class TestAgainstFractionOracle:
    """The integer generator maps equal the Fraction apply loop and series."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.booleans())
    def test_apply(self, data, automorphism):
        m, images = draw_map(data, automorphism)
        cap = data.draw(st.integers(1, m.max_degree))     # x may be coarser
        x = LieSeries(m.genus, cap, draw_terms(data, m.genus, 1, cap))
        got = (apply_aut if automorphism else apply_der)(m, x)
        assert got.max_degree == cap
        assert got.coords == oracle.apply_map(
            images, m.max_degree, x.coords, cap, derivation=not automorphism)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_compose(self, data):
        psi, images = draw_map(data, True)
        other = draw_images(data, psi.genus, psi.max_degree, True)
        phi = LieAutomorphism(psi.genus, psi.max_degree, {
            l: LieSeries(psi.genus, psi.max_degree, img)
            for l, img in other.items()})
        assert as_images(compose_aut(psi, phi)) == oracle.compose(
            images, other, psi.max_degree)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_invert(self, data):
        psi, images = draw_map(data, True)
        assert as_images(invert_aut(psi)) == oracle.invert(
            images, psi.max_degree)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_exp_der(self, data):
        delta, values = draw_map(data, False)
        assert as_images(exp_der(delta)) == oracle.exp_der(
            values, delta.max_degree)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_log_aut(self, data):
        psi, images = draw_map(data, True)
        assert as_images(log_aut(psi)) == oracle.log_aut(
            images, psi.max_degree)


class TestIntegerPath:
    """The maps keep word images as integer numerators over one
    denominator and make `Fraction`s only once per applied series."""

    @pytest.mark.parametrize("automorphism", [True, False])
    def test_memo_holds_integer_numerators(self, automorphism):
        """Each entry is (parts, den): the nonempty degree parts of the
        word image in ascending degree, each holding words of its length
        with `int` numerators, over an `int` den > 0."""
        rng = random.Random(11)
        m = (rand_aut if automorphism else rand_derivation)(2, 5, rng)
        x = rand_series(2, 1, 5, rng, 5)
        (apply_aut if automorphism else apply_der)(m, x)
        assert len(m._memo) > gen_count(2)
        images = as_images(m)
        for w, entry in m._memo.items():
            parts, den = entry
            assert type(den) is int and den > 0
            degrees = [d for d, _ in parts]
            assert degrees == sorted(set(degrees)), w
            image = {}
            for d, numerators in parts:
                assert numerators, w
                assert all(len(u) == d for u in numerators), w
                assert all(type(c) is int for c in numerators.values()), w
                image.update((u, F(c, den)) for u, c in numerators.items())
            assert image == oracle.apply_map(images, 5, {w: F(1)}, 5,
                                             derivation=not automorphism), w

    def test_one_unscaled_per_apply(self, monkeypatch):
        rng = random.Random(12)
        psi = rand_aut(2, 5, rng)
        x = rand_series(2, 1, 5, rng, 5)
        calls = []
        real = johnson.unscaled
        monkeypatch.setattr(johnson, "unscaled",
                            lambda acc, den: calls.append(den) or real(acc, den))
        apply_aut(psi, x)
        assert len(calls) == 1

    @pytest.mark.parametrize("series", ["invert_aut", "log_aut", "exp_der"])
    def test_series_sum_integers(self, monkeypatch, series):
        """The Lie series step and sum on integer numerators: no
        `Fraction` difference, one `unscaled` per generator image, and
        `scaled_series` handed a plain dict that every step returns."""
        rng = random.Random(14)
        m = (rand_derivation if series == "exp_der" else rand_aut)(2, 5, rng)
        calls = []
        real = johnson.unscaled
        monkeypatch.setattr(johnson, "unscaled",
                            lambda acc, den: calls.append(den) or real(acc, den))
        monkeypatch.setattr(johnson, "scaled_series",
                            dict_series(johnson.scaled_series))

        def refuse(self, other):
            raise AssertionError("SparseCombination.__sub__ called")
        monkeypatch.setattr(SparseCombination, "__sub__", refuse)
        getattr(johnson, series)(m)
        assert len(calls) == gen_count(2)

    def test_group_operations_make_no_series_bracket(self, monkeypatch):
        rng = random.Random(13)
        psi, phi = rand_aut(2, 5, rng), rand_aut(2, 5, rng)

        def refuse(self, other):
            raise AssertionError("LieSeries.bracket called")
        monkeypatch.setattr(LieSeries, "bracket", refuse)
        inv = invert_aut(psi)
        assert compose_aut(phi, inv) != identity_aut(2, 5)


def _wrong_kind_calls():
    """(call, expected type name) for each entry point handed a value of
    the wrong kind."""
    psi = identity_aut(2, 3)
    delta = Derivation(2, 3, {l: LieSeries(2, 3, {(0, 1): 1})
                              for l in range(gen_count(2))})
    x = LieSeries.gen(2, 3, 0)
    return {
        "apply_der(aut)": (lambda: apply_der(psi, x), "Derivation"),
        "apply_aut(der)": (lambda: apply_aut(delta, x), "LieAutomorphism"),
        "log_aut(der)": (lambda: log_aut(delta), "LieAutomorphism"),
        "invert_aut(None)": (lambda: invert_aut(None), "LieAutomorphism"),
        "compose_aut(der, der)": (lambda: compose_aut(delta, delta),
                                  "LieAutomorphism"),
        "compose_aut(aut, der)": (lambda: compose_aut(psi, delta),
                                  "LieAutomorphism"),
        "exp_der(aut)": (lambda: exp_der(psi), "Derivation"),
        "apply_aut(psi, {})": (lambda: apply_aut(psi, {}), "LieSeries"),
        "apply_der(delta, {})": (lambda: apply_der(delta, {}), "LieSeries"),
    }


@pytest.mark.parametrize("case", sorted(_wrong_kind_calls()))
def test_wrong_kind_is_rejected_by_name(case):
    call, expected = _wrong_kind_calls()[case]
    with pytest.raises(ValueError, match=f"must be a {expected}, not "):
        call()


def _level_calls():
    """(call, message) for each level-k entry point handed a psi that is
    not an automorphism or a k that is not an int."""
    psi = random_ic_element(2, 1, 3, 4)
    delta = log_aut(psi)
    not_aut = "psi must be a LieAutomorphism, not "
    not_int = "k must be an int, not float"
    calls = {
        "is_omega_fixing(str)": (lambda: is_omega_fixing("a1"), not_aut + "str"),
        "is_omega_fixing(der)": (lambda: is_omega_fixing(delta),
                                 not_aut + "Derivation"),
        "capital_phi(combo, 1.5)": (lambda: capital_phi(TreeCombo(1), 1.5),
                                    not_int),
        "capital_phi(str, 1)": (lambda: capital_phi("a1", 1),
                                "c must be a TreeCombo, not str"),
    }
    for f in (tau_truncated, johnson_k, tau_bracket_check, kernel_check,
              tau_to_trees, morita_mk):
        name = f.__name__
        calls[f"{name}(str)"] = (partial(f, "a1", 1), not_aut + "str")
        calls[f"{name}(der)"] = (partial(f, delta, 1), not_aut + "Derivation")
        calls[f"{name}(psi, 1.5)"] = (partial(f, psi, 1.5), not_int)
    return calls


@pytest.mark.parametrize("case", sorted(_level_calls()))
def test_level_entry_points_reject_wrong_kinds(case):
    call, message = _level_calls()[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


ENTRY_POINT_CALLS = {
    "eta(str)": (lambda: eta("x"), "c must be a TreeCombo, not str"),
    "fission(str)": (lambda: jacobi.fission("x"),
                     "c must be a TreeCombo, not str"),
    "class_of(str)": (lambda: koszul.class_of("x"),
                      "z must be a WedgeChain, not str"),
    "homology_dims('2', 2, 3)": (lambda: koszul.homology_dims("2", 2, 3),
                                 "genus must be an int, not str"),
    "phi_matrix_rank(2, 2.0)": (lambda: koszul.phi_matrix_rank(2, 2.0),
                                "k must be an int, not float"),
    "construct_symplectic(2, 3.0)": (lambda: construct_symplectic(2, 3.0),
                                     "max_degree must be an int, not float"),
    "random_ic_element(2, 1.5, 1, 4)": (
        lambda: random_ic_element(2, 1.5, 1, 4), "k must be an int, not float"),
    "eta_inverse(str, 1)": (lambda: jacobi.eta_inverse("x", 1),
                            "x must be a HLieTensor, not str"),
    "eta_inverse(zero, '1')": (
        lambda: jacobi.eta_inverse(HLieTensor.zero(2), "1"),
        "d must be an int, not str"),
    "eta_inverse(zero, -1)": (lambda: jacobi.eta_inverse(HLieTensor.zero(2), -1),
                              "degree must be >= 0"),
    "boundary(str)": (lambda: boundary("x"), "c must be a WedgeChain, not str"),
    "solve_boundary3(str)": (lambda: koszul.solve_boundary3("x"),
                             "z must be a WedgeChain, not str"),
    "tree_space_dim('2', 1)": (lambda: jacobi.tree_space_dim("2", 1),
                               "genus must be an int, not str"),
}


@pytest.mark.parametrize("case", sorted(ENTRY_POINT_CALLS))
def test_entry_points_reject_wrong_kinds_by_name(case):
    call, message = ENTRY_POINT_CALLS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _bool_calls():
    """(call, message) for each entry point asking for an int, handed
    True: a bool is refused, not read as 1."""
    psi = random_ic_element(2, 1, 3, 4)
    theta = magnus_expansion(1, 4)
    not_int = "{} must be an int, not bool"
    calls = {
        "build_corrector(True, 2)": (lambda: build_corrector(True, 2), "genus"),
        "build_corrector(2, True)": (lambda: build_corrector(2, True),
                                     "max_degree"),
        "verify_symplectic(theta, True)": (
            lambda: verify_symplectic(theta, True), "n"),
        "random_ic_element(True, 1, 1, 2)": (
            lambda: random_ic_element(True, 1, 1, 2), "genus"),
        "random_ic_element(2, True, 1, 2)": (
            lambda: random_ic_element(2, True, 1, 2), "k"),
        "random_ic_element(2, 1, 1, True)": (
            lambda: random_ic_element(2, 1, 1, True), "max_degree"),
        "homology_dims(True, 2, 3)": (
            lambda: koszul.homology_dims(True, 2, 3), "genus"),
        "homology_dims(2, True, 3)": (
            lambda: koszul.homology_dims(2, True, 3), "k"),
        "homology_dims(2, 2, True)": (
            lambda: koszul.homology_dims(2, 2, True), "n"),
        "capital_phi(c, True)": (
            lambda: capital_phi(random_tree(2, 1, random.Random(0)), True), "k"),
        "phi_matrix_rank(True, 2)": (lambda: koszul.phi_matrix_rank(True, 2),
                                     "genus"),
        "phi_matrix_rank(2, True)": (lambda: koszul.phi_matrix_rank(2, True),
                                     "k"),
        "eta_inverse(zero, True)": (
            lambda: jacobi.eta_inverse(HLieTensor.zero(2), True), "d"),
        "tree_space_dim(True, 1)": (lambda: jacobi.tree_space_dim(True, 1),
                                    "genus"),
        "tree_space_dim(2, True)": (lambda: jacobi.tree_space_dim(2, True),
                                    "d"),
    }
    for f in (tau_truncated, johnson_k, tau_bracket_check, kernel_check,
              tau_to_trees, morita_mk):
        calls[f"{f.__name__}(psi, True)"] = (partial(f, psi, True), "k")
    return {case: (call, not_int.format(name))
            for case, (call, name) in calls.items()}


@pytest.mark.parametrize("case", sorted(_bool_calls()))
def test_int_arguments_refuse_a_bool(case):
    call, message = _bool_calls()[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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

    def test_builds_only_the_blocks_of_the_window_tensor(self, monkeypatch):
        psi = random_ic_element(2, 3, 1, 6)
        t = tau_truncated(psi, 3)
        blocks = {(d, _letter_weight((h, *w), 2))
                  for d in t.degrees() for h, w in t.graded_part(d).coords}
        evaluated = set()
        real = jacobi.eta

        def recording(c):
            evaluated.update(
                (tree.degree, _letter_weight(map(tree.color_of,
                                                 tree.leaf_ids()), 2))
                for tree in c.coords)
            return real(c)

        monkeypatch.setattr(jacobi, "eta", recording)
        jacobi._eta_solver.cache_clear()
        tau_to_trees(psi, 3)
        assert jacobi._eta_solver.cache_info().currsize == len(blocks)
        assert evaluated == blocks


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


def moving_a1(genus, k):
    """a1 -> a1 + the first Lyndon word of degree 2k, every other generator
    fixed: filtration level k, and the 2-cycle -w ^ b1 of degree 2k+1 is
    [w, b1] != 0 in H2(L/L_{>2k}) = L_{2k+1}."""
    n = 2 * k
    images = {l: LieSeries.gen(genus, n, l) for l in range(gen_count(genus))}
    images[0] = images[0] + LieSeries(genus, n, {lyndon_basis(genus, n)[0]: 1})
    return LieAutomorphism(genus, n, images)


def full_cycle_morita_mk(psi, k):
    """The homology route on the whole 2-cycle in Lambda^2(L/L_{>2k}): the
    a_i ^ b_i terms and every pair of image terms, solved by
    `solve_boundary3` in every weight block the cycle touches."""
    big = 2 * k
    terms = []
    for i in range(1, psi.genus + 1):
        a, b = a_letter(i), b_letter(i)
        xa = psi.image_of(a).truncated(big).coords
        xb = psi.image_of(b).truncated(big).coords
        terms.append((((a,), (b,)), 1))
        terms.extend(((wu, wv), -cu * cv)
                     for wu, cu in xa.items() for wv, cv in xb.items())
    cycle = koszul.wedge_chain_from_terms(psi.genus, big, 2, terms)
    return koszul.class_of(koszul.solve_boundary3(cycle).reduced_to(k))


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

    @pytest.mark.parametrize("psi", [
        identity_aut(2, 4), level_one_automorphism(),
        level_two_unfixing_automorphism(), random_ic_element(2, 1, 0, 4),
        random_ic_element(2, 2, 1, 5), random_ic_element(1, 3, 2, 6)])
    def test_level_is_read_off_the_least_deviation_degree(self, psi):
        least = min((d for l in range(gen_count(psi.genus))
                     if (d := psi.deviation(l).min_degree()) is not None),
                    default=psi.max_degree + 1)
        for k in range(1, psi.max_degree // 2 + 1):
            if least > k:
                johnson._check_level(psi, k)
            else:
                with pytest.raises(ValueError, match="automorphism not in "
                                   f"filtration level {k}$"):
                    johnson._check_level(psi, k)

    def test_level_routes_build_no_deviation(self, monkeypatch):
        def refuse(self, letter):
            raise AssertionError("deviation built")

        monkeypatch.setattr(LieAutomorphism, "deviation", refuse)
        psi = random_ic_element(2, 2, 1, 4)
        morita_mk(psi, 2)
        tau_to_trees(psi, 2)
        with pytest.raises(ValueError, match="not in filtration level 2"):
            morita_mk(level_one_automorphism(), 2)

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

    @pytest.mark.parametrize("genus", [2, 3])
    def test_tree_formula_at_class_3(self, genus):
        psi = random_ic_element(genus, 3, 1, 6)
        assert -morita_mk(psi, 3) == capital_phi(tau_to_trees(psi, 3), 3)

    def test_tree_formula_at_class_4(self):
        psi = random_ic_element(2, 4, 1, 8)
        assert -morita_mk(psi, 4) == capital_phi(tau_to_trees(psi, 4), 4)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_route_equals_the_full_cycle_route(self, genus, k):
        psi = random_ic_element(genus, k, 1, 2 * k)
        assert morita_mk(psi, k) == full_cycle_morita_mk(psi, k)

    # seed 1 is test_window_route_equals_the_full_cycle_route
    @pytest.mark.parametrize("seed", range(2, 6))
    @pytest.mark.parametrize("genus, k", [(1, 1), (1, 2), (1, 3), (2, 1),
                                          (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_window_classes_sum_to_the_full_cycle_route(self, genus, k, seed):
        psi = random_ic_element(genus, k, seed, 2 * k)
        assert morita_mk(psi, k) == full_cycle_morita_mk(psi, k)

    @pytest.mark.parametrize("genus, k", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_solves_and_reads_only_the_h3_window(self, genus, k, monkeypatch):
        koszul._window_class.cache_clear()
        solved, read = set(), set()

        def solver(g, c, mu):
            solved.add(sum(mu))
            return d3_solver(g, c, mu)

        def structure(g, c, mu):
            read.add(sum(mu))
            return h3_structure(g, c, mu)

        d3_solver, h3_structure = koszul._d3_solver, koszul._h3_structure
        monkeypatch.setattr(koszul, "_d3_solver", solver)
        monkeypatch.setattr(koszul, "_h3_structure", structure)
        morita_mk(random_ic_element(genus, k, 1, 2 * k + 1), k)
        window = set(range(k + 2, 2 * k + 2))
        assert solved and solved <= window
        assert read and read <= window

    @pytest.mark.parametrize("genus, k", [(1, 1), (2, 2)])
    def test_a_move_in_degree_2k_bounds_nothing(self, genus, k):
        psi = moving_a1(genus, k)
        for route in (morita_mk, full_cycle_morita_mk):
            with pytest.raises(koszul.NotABoundaryError,
                               match="2-cycle is not a 3-boundary"):
                route(psi, k)

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
        # a solved 2-cycle and a zero remainder in class_of prove both
        # chains cycles, so the success path takes no boundary; a psi
        # moving the symplectic element takes one, of its 2-cycle
        calls = []

        def counting(c):
            calls.append(c.arity)
            return boundary(c)

        monkeypatch.setattr(koszul, "boundary", counting)
        morita_mk(random_ic_element(2, 2, 3, 4), 2)
        assert calls == []
        with pytest.raises(ValueError, match="does not fix the symplectic"):
            morita_mk(level_two_unfixing_automorphism(), 2)
        assert calls == [2]

    def test_requires_enough_degrees(self):
        psi = random_ic_element(2, 2, 0, 4).truncated(3)
        with pytest.raises(ValueError):
            morita_mk(psi, 2)


def chain_tau_to_trees(psi, k):
    """The tree route on the whole window tensor: `tau_truncated`, lifted
    grade by grade by `eta_inverse`."""
    t = tau_truncated(psi, k)
    combo = TreeCombo.zero(psi.genus)
    for d in t.degrees():
        combo = combo + jacobi.eta_inverse(t.graded_part(d), d)
    return combo


class TestLinearRoutes:
    """Both routes sum memoised unit solves; the chains they replace run
    only on the failure paths."""

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_both_routes_equal_the_chains(self, genus, k, seed):
        psi = random_ic_element(genus, k, seed, 2 * k)
        assert morita_mk(psi, k).coords == full_cycle_morita_mk(psi, k).coords
        assert tau_to_trees(psi, k).coords == chain_tau_to_trees(psi, k).coords

    def test_the_success_paths_build_no_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chain route ran")

        for name in ("wedge_chain_from_terms", "solve_boundary3", "boundary"):
            monkeypatch.setattr(koszul, name, refuse)
        monkeypatch.setattr(jacobi, "eta_inverse", refuse)
        monkeypatch.setattr(johnson, "tau_truncated", refuse)
        psi = random_ic_element(2, 2, 1, 4)
        assert not morita_mk(psi, 2).is_zero()
        assert tau_to_trees(psi, 2)

    @pytest.mark.parametrize("psi, k, mk_error, mk_message, tau_message", [
        (level_two_unfixing_automorphism(), 2, ValueError,
         "automorphism does not fix the symplectic element modulo degree "
         "2k+1", "input not in the bracket kernel"),
        (moving_a1(1, 1), 1, koszul.NotABoundaryError,
         "2-cycle is not a 3-boundary", "input not in the bracket kernel"),
        (moving_a1(2, 2), 2, koszul.NotABoundaryError,
         "2-cycle is not a 3-boundary", "input not in the bracket kernel"),
    ])
    def test_the_failure_paths_keep_their_errors(self, psi, k, mk_error,
                                                  mk_message, tau_message):
        with pytest.raises(mk_error) as got:
            morita_mk(psi, k)
        assert type(got.value) is mk_error and str(got.value) == mk_message
        with pytest.raises(ValueError) as got:
            tau_to_trees(psi, k)
        assert type(got.value) is ValueError
        assert str(got.value) == tau_message
