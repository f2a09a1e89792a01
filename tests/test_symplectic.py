"""Symplectic expansions: canonical elements, corrector, verification."""

from fractions import Fraction

import pytest

from lietrees import symplectic
from lietrees.free_lie import (LieSeries, a_letter, b_letter, bracket_basis,
                               gen_count, lyndon_basis)
from lietrees.johnson import apply_aut, invert_aut
from lietrees.symplectic import (build_corrector, construct_symplectic, omega,
                                 omega_tilde, paper_example_expansion,
                                 symplectic_context, verify_symplectic,
                                 zeta_inverse_word, zeta_word)
from lietrees.tensor_hopf import (ExpansionMap, FreeGroupWord, TensorSeries,
                                  basis_expansion, exp, log, magnus_expansion,
                                  mul, project_lie)

F = Fraction


class TestCanonicalElements:
    def test_omega_genus_one(self):
        assert omega(1, 4).coords == {(0, 1): F(1)}

    def test_omega_genus_two(self):
        assert omega(2, 2).coords == {(0, 1): F(1), (2, 3): F(1)}

    def test_omega_genus_zero(self):
        assert not omega(0, 2)

    def test_boundary_word_shape(self):
        z = zeta_inverse_word(1)
        # b^-1 a b a^-1, freely reduced
        assert z.letters == ((1, -1), (0, 1), (1, 1), (0, -1))
        assert zeta_word(1) == z.inverse()

    def test_context_carrier(self):
        ctx = symplectic_context(2, 5)
        assert ctx.omega == omega(2, 5)
        assert ctx.zeta == zeta_word(2)


class TestOmegaTilde:
    def test_agrees_with_omega_in_degree_two(self):
        for genus in (1, 2):
            wt = omega_tilde(genus, 4)
            assert wt.graded_part(2) == omega(genus, 4).graded_part(2)
            assert wt.min_degree() == 2

    def test_genus_one_degree_three(self):
        # frozen value, computed once from the tensor-algebra route
        part = omega_tilde(1, 3).graded_part(3)
        assert part.coords == {(0, 0, 1): F(1, 2), (0, 1, 1): F(1, 2)}

    def test_matches_boundary_image_of_exponential_expansion(self):
        # oracle: the product exp(-b_i) exp(a_i) exp(b_i) exp(-a_i) over the
        # handles, multiplied out by hand instead of by evaluate_expansion
        for genus in (1, 2, 3):
            for n in range(2, 7):
                acc = TensorSeries.one(genus, n)
                for i in range(1, genus + 1):
                    a = TensorSeries.gen(genus, n, a_letter(i))
                    b = TensorSeries.gen(genus, n, b_letter(i))
                    for f in (exp(-b), exp(a), exp(b), exp(-a)):
                        acc = mul(acc, f)
                assert project_lie(log(acc)) == omega_tilde(genus, n), (genus, n)


class TestCorrector:
    def test_postcondition(self):
        for genus, n in ((1, 4), (2, 4), (1, 6)):
            psi = build_corrector(genus, n)
            assert apply_aut(psi, omega(genus, n)) == omega_tilde(genus, n)

    def test_identity_on_graded_level(self):
        psi = build_corrector(2, 5)
        phi = invert_aut(psi)
        for letter in range(gen_count(2)):
            for aut in (psi, phi):
                dev = aut.deviation(letter)
                md = dev.min_degree()
                assert md is None or md >= 2

    def test_corrections_start_in_degree_two(self):
        psi = build_corrector(1, 4)
        for letter in range(2):
            dev = psi.deviation(letter)
            assert not dev or dev.min_degree() >= 2

    def test_splitting_builds_only_the_defect_weight_columns(self, monkeypatch):
        # [a1, [a1, b1]] at genus 2 has weight (2, 1, 0, 0): of the 24
        # columns (x, w) with w of degree 2, only (b1, [a1, b1]) has it
        built = []

        def counted(u, v):
            built.append((u, v))
            return bracket_basis(u, v)

        monkeypatch.setattr(symplectic, "bracket_basis", counted)
        defect = LieSeries(2, 3, {(0, 0, 1): 1})
        assert symplectic._solve_splitting(2, 2, defect) == {1: {(0, 1): F(1)}}
        assert built == [((0,), (0, 1))]


class TestConstruction:
    def test_constructed_expansion_verifies(self):
        for genus, n in ((1, 4), (2, 4), (1, 6)):
            rep = verify_symplectic(construct_symplectic(genus, n), n)
            assert rep.ok, rep.message

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            construct_symplectic(0, 3)

    def test_truncation_stability(self):
        theta = construct_symplectic(2, 5)
        for lower in (4, 3, 2):
            assert verify_symplectic(theta.truncated(lower), lower).ok

    def test_degree_one_parts_are_generators(self):
        theta = construct_symplectic(1, 4)
        for letter in range(2):
            s = theta.image(letter)
            assert s.graded_part(1).coords == {(letter,): F(1)}


class TestPublishedExample:
    def test_verifies_at_degree_four(self):
        for genus in (1, 2, 3):
            rep = verify_symplectic(paper_example_expansion(genus), 4)
            assert rep.ok, f"genus {genus}: {rep.message}"
        assert "symplectic mod degree 5" in rep.message

    def test_log_coefficients(self):
        theta = paper_example_expansion(2)
        la = project_lie(log(theta.image(0)))
        assert la.coords[(0, 1)] == F(-1, 2)        # [a1,b1] in log theta(a1)
        lb = project_lie(log(theta.image(1)))
        assert lb.coords[(0, 0, 1)] == F(1, 12)     # [a1,[a1,b1]] in log theta(b1)

    def test_genus_one_has_no_cross_terms(self):
        theta = paper_example_expansion(1)
        la = project_lie(log(theta.image(0)))
        assert set(la.coords) == {(0,), (0, 1), (0, 1, 1), (0, 0, 0, 1)}

    def test_images_depend_only_on_own_and_earlier_handles(self):
        theta = paper_example_expansion(3)
        la2 = project_lie(log(theta.image(2)))      # a2 image
        letters = {x for w in la2.coords for x in w}
        assert letters <= {0, 1, 2, 3}


class TestVerifier:
    def test_magnus_fails_grouplikeness(self):
        rep = verify_symplectic(magnus_expansion(2, 4), 4)
        assert not rep.ok
        assert rep.message == "not group-like"

    def test_exponential_expansion_fails_boundary_condition(self):
        rep = verify_symplectic(basis_expansion(1, 4), 4)
        assert not rep.ok
        assert rep.grouplike
        assert rep.first_failing_degree == 3

    def test_edited_constructed_expansion_is_not_grouplike(self):
        theta = construct_symplectic(2, 5)
        last = gen_count(2) - 1
        image = theta.image(last)
        for d in range(2, 6):
            w = min(u for u in image.coords if len(u) == d)
            coords = dict(image.coords)
            coords[w] += F(1, 7)
            images = dict(theta.images)
            images[last] = TensorSeries(2, 5, coords)
            rep = verify_symplectic(ExpansionMap(2, 5, images), 5)
            assert rep.normalized
            assert rep.message == "not group-like", d

    def test_rejects_underspecified_truncation(self):
        with pytest.raises(ValueError):
            verify_symplectic(paper_example_expansion(1), 6)
