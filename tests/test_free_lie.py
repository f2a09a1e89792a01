"""Free Lie algebra on the Lyndon basis: words, brackets, BCH."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lietrees.free_lie import (LieSeries, a_letter, b_letter, bch, bracket,
                               bracket_basis, is_lyndon, letter_label,
                               lyndon_basis, parse_letter, partner,
                               std_factorization, witt_dim)
from lietrees.sparse import add_into
from lietrees.suite import _adjoint_identity
from lietrees.tensor_hopf import embed_lie, mul

F = Fraction


def rand_series(rng, genus, n, min_degree=1):
    coords = {}
    for d in range(min_degree, n + 1):
        basis = lyndon_basis(genus, d)
        w = basis[rng.randrange(len(basis))]
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            coords[w] = c
    return LieSeries(genus, n, coords)


class TestLetters:
    def test_labels(self):
        assert [letter_label(x) for x in range(4)] == ["a1", "b1", "a2", "b2"]

    def test_parse_round_trip(self):
        for x in range(6):
            assert parse_letter(letter_label(x), 3) == x

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_letter("a3", 2)
        with pytest.raises(ValueError):
            parse_letter("c1", 2)

    def test_symplectic_partner(self):
        for i in (1, 2, 3):
            assert partner(a_letter(i)) == (b_letter(i), -1)
            assert partner(b_letter(i)) == (a_letter(i), 1)


class TestLyndonWords:
    def test_genus_one_low_degrees(self):
        assert lyndon_basis(1, 1) == [(0,), (1,)]
        assert lyndon_basis(1, 2) == [(0, 1)]
        assert lyndon_basis(1, 3) == [(0, 0, 1), (0, 1, 1)]
        assert lyndon_basis(1, 4) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]

    def test_is_lyndon(self):
        assert is_lyndon((0, 1))
        assert is_lyndon((0, 0, 1))
        assert not is_lyndon((1, 0))
        assert not is_lyndon((0, 1, 0, 1))
        assert not is_lyndon(())

    def test_counts_match_dimension_formula(self):
        for genus in (1, 2, 3):
            for d in range(1, 8):
                assert len(lyndon_basis(genus, d)) == witt_dim(2 * genus, d)

    def test_known_dimensions(self):
        assert [witt_dim(2, d) for d in range(2, 7)] == [1, 2, 3, 6, 9]
        assert [witt_dim(4, d) for d in range(2, 7)] == [6, 20, 60, 204, 670]
        assert witt_dim(6, 4) == 315


class TestStandardFactorization:
    def test_examples(self):
        assert std_factorization((0, 1)) == ((0,), (1,))
        assert std_factorization((0, 0, 1)) == ((0,), (0, 1))
        assert std_factorization((0, 1, 1)) == ((0, 1), (1,))
        assert std_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))

    def test_factors_are_lyndon(self):
        for w in lyndon_basis(2, 5):
            u, v = std_factorization(w)
            assert u + v == w
            assert is_lyndon(u) and is_lyndon(v)
            assert u < v


class TestBracketBasis:
    def test_self_bracket_vanishes(self):
        assert bracket_basis((0,), (0,)) == {}

    def test_adjacent_letters(self):
        assert bracket_basis((0,), (1,)) == {(0, 1): F(1)}
        assert bracket_basis((1,), (0,)) == {(0, 1): F(-1)}

    def test_results_are_lyndon(self):
        for u in lyndon_basis(2, 2):
            for v in lyndon_basis(2, 3):
                for w in bracket_basis(u, v):
                    assert is_lyndon(w)
                    assert len(w) == 5

    def test_antisymmetry(self):
        rng = random.Random(3)
        words = lyndon_basis(2, 1) + lyndon_basis(2, 2) + lyndon_basis(2, 3)
        for _ in range(30):
            u, v = rng.choice(words), rng.choice(words)
            forward = bracket_basis(u, v)
            backward = bracket_basis(v, u)
            assert forward == {w: -c for w, c in backward.items()}

    def test_structure_constants_are_ints(self):
        # the tables hold int, not merely integral Fractions
        words = [w for d in range(1, 7) for w in lyndon_basis(2, d)]
        pairs = 0
        for u in words:
            for v in words:
                if len(u) + len(v) <= 7:
                    pairs += 1
                    assert all(type(c) is int
                               for c in bracket_basis(u, v).values())
        assert pairs > 10000

    def test_int_and_fraction_coefficients_print_alike(self):
        coords = {(0,): 3, (0, 1): -1, (0, 0, 1): 2}
        as_int = LieSeries.zero(2, 3)._like(dict(coords))
        as_fraction = LieSeries(2, 3, coords)
        assert all(type(c) is F for c in as_fraction.coords.values())
        assert str(as_int) == str(as_fraction)
        assert as_int == as_fraction

    def test_matches_tensor_commutator(self):
        # independent oracle: the bracket must agree with xy - yx upstairs
        rng = random.Random(5)
        for _ in range(15):
            genus, n = rng.randint(1, 2), rng.randint(2, 5)
            x, y = rand_series(rng, genus, n), rand_series(rng, genus, n)
            ex, ey = embed_lie(x), embed_lie(y)
            assert embed_lie(bracket(x, y)) == mul(ex, ey) - mul(ey, ex)


def all_pairs_bracket(x, y):
    """Oracle: form every term pair and drop those above the cap."""
    out = {}
    for wu, cu in x.coords.items():
        for wv, cv in y.coords.items():
            if len(wu) + len(wv) <= x.max_degree:
                add_into(out, bracket_basis(wu, wv), cu * cv)
    return LieSeries(x.genus, x.max_degree, out)


def draw_series(data, genus, cap, at_cap=False):
    """Up to two basis terms per degree 1..cap; at_cap forces one at the cap."""
    coords = {}
    for d in range(1, cap + 1):
        basis = lyndon_basis(genus, d)
        picks = data.draw(st.sets(st.integers(0, len(basis) - 1), max_size=2))
        if at_cap and d == cap and not picks:
            picks = {data.draw(st.integers(0, len(basis) - 1))}
        for i in picks:
            coords[basis[i]] = F(data.draw(st.integers(-3, 3).filter(bool)),
                                 data.draw(st.integers(1, 3)))
    return LieSeries(genus, cap, coords)


class TestBucketedBracket:
    """The degree-bucketed bracket equals the all-pairs one."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_all_pairs(self, data):
        genus = data.draw(st.integers(1, 2))
        cap = data.draw(st.integers(2, 6))
        x = draw_series(data, genus, cap, at_cap=True)
        y = draw_series(data, genus, cap, at_cap=True)
        assert x.bracket(y) == all_pairs_bracket(x, y)
        assert y.bracket(x) == all_pairs_bracket(y, x)

    def test_pair_landing_on_the_cap_is_kept(self):
        a = LieSeries.gen(1, 3, 0)
        ab = LieSeries(1, 3, {(0, 1): F(1)})
        assert a.bracket(ab).coords == {(0, 0, 1): F(1)}
        assert ab.bracket(a).coords == {(0, 0, 1): F(-1)}
        assert ab.bracket(ab).coords == {}


class TestLieSeries:
    def test_vector_operations(self):
        x = LieSeries(1, 3, {(0,): F(2), (0, 1): F(1, 2)})
        y = LieSeries(1, 3, {(0,): F(-2)})
        assert (x + y).coords == {(0, 1): F(1, 2)}
        assert (x - x).coords == {}
        assert (F(3) * y).coords == {(0,): F(-6)}

    def test_graded_parts(self):
        x = LieSeries(1, 3, {(0,): F(1), (0, 0, 1): F(2)})
        assert x.graded_part(1).coords == {(0,): F(1)}
        assert x.graded_part(2).coords == {}
        assert x.min_degree() == 1
        assert x.truncated(2).coords == {(0,): F(1)}

    def test_mismatched_context_rejected(self):
        x = LieSeries.gen(1, 3, 0)
        y = LieSeries.gen(1, 4, 1)
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x.bracket(y)

    def test_jacobi_identity(self):
        rng = random.Random(11)
        for _ in range(10):
            genus, n = rng.randint(1, 2), rng.randint(3, 5)
            x = rand_series(rng, genus, n)
            y = rand_series(rng, genus, n)
            z = rand_series(rng, genus, n)
            total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                     + bracket(z, bracket(x, y)))
            assert not total

    def test_bracket_grading(self):
        x = LieSeries(2, 6, {w: F(1) for w in lyndon_basis(2, 2)})
        y = LieSeries(2, 6, {w: F(1) for w in lyndon_basis(2, 3)})
        b = x.bracket(y)
        assert b.degrees() == [5]


class TestBch:
    def test_zero_argument(self):
        rng = random.Random(2)
        x = rand_series(rng, 2, 4)
        zero = LieSeries.zero(2, 4)
        assert bch(x, zero) == x
        assert bch(zero, x) == x

    def test_inverse_argument(self):
        rng = random.Random(4)
        x = rand_series(rng, 1, 5)
        assert not bch(x, -x)

    def test_low_degree_closed_form(self):
        # classical coefficients through degree 4
        rng = random.Random(9)
        for _ in range(8):
            genus = rng.randint(1, 2)
            x, y = rand_series(rng, genus, 4), rand_series(rng, genus, 4)
            xy = bracket(x, y)
            expected = (x + y + F(1, 2) * xy
                        + F(1, 12) * bracket(x, xy)
                        - F(1, 12) * bracket(y, xy)
                        - F(1, 24) * bracket(y, bracket(x, xy)))
            assert bch(x, y) == expected

    def test_adjoint_identity_pins_bch_below_the_top_degree(self):
        """exp(ad z) = exp(ad x) o exp(ad y) holds for z = bch(x, y), and
        fails once a single degree-2 word is added to z."""
        rng = random.Random(5)
        for genus in (1, 2):
            x, y = rand_series(rng, genus, 4), rand_series(rng, genus, 4)
            z = bch(x, y)
            assert _adjoint_identity(x, y, z)
            bad = z + LieSeries(genus, 4, {(0, 1): 1})
            assert not _adjoint_identity(x, y, bad)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        genus = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(2, 6))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        x, y, z = (rand_series(rng, genus, n) for _ in range(3))
        assert bch(bch(x, y), z) == bch(x, bch(y, z))


@pytest.mark.parametrize("genus", [0, -1])
def test_lyndon_basis_rejects_genus_below_one(genus):
    with pytest.raises(ValueError):
        lyndon_basis(genus, 2)
