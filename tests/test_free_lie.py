"""Free Lie algebra on the Lyndon basis: words, brackets, BCH."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle as oracle
from lietrees import free_lie
from lietrees.free_lie import (LieSeries, _letter_weight, a_letter, b_letter,
                               bch, bracket, bracket_basis, bracket_coords,
                               bracket_kernel_dim, graded, is_lyndon,
                               letter_label, lyndon_basis, lyndon_count,
                               parse_letter, partner, std_factorization,
                               witt_dim)
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

    @pytest.mark.parametrize("name", ["a01", "b\u0661", "a\uff11", "b+1",
                                      "a1 ", "a"])
    def test_parse_rejects_names_other_than_the_label(self, name):
        with pytest.raises(ValueError, match="bad generator name"):
            parse_letter(name, 2)

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

    def test_suffix_form_agrees_with_rotations(self):
        """Strictly below every proper suffix, as `is_lyndon` tests, is
        strictly below every proper rotation, the definition."""
        for n in range(9):
            for w in product(range(3), repeat=n):
                by_rotation = bool(w) and all(w < w[i:] + w[:i]
                                              for i in range(1, n))
                assert is_lyndon(w) == by_rotation, w

    def test_counts_match_dimension_formula(self):
        for genus in (1, 2, 3):
            for d in range(1, 8):
                assert len(lyndon_basis(genus, d)) == witt_dim(2 * genus, d)

    def test_known_dimensions(self):
        assert [witt_dim(2, d) for d in range(2, 7)] == [1, 2, 3, 6, 9]
        assert [witt_dim(4, d) for d in range(2, 7)] == [6, 20, 60, 204, 670]
        assert witt_dim(6, 4) == 315


@lru_cache(maxsize=None)
def lyndon_contents(genus, n):
    """How many Lyndon words of length n have each content."""
    return Counter(_letter_weight(w, genus) for w in lyndon_basis(genus, n))


class TestCensus:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda genus: st.lists(
        st.integers(0, 3), min_size=2 * genus, max_size=2 * genus).filter(
            lambda mu: 1 <= sum(mu) <= 6)))
    def test_counts_the_lyndon_words_of_each_content(self, mu):
        mu = tuple(mu)
        assert lyndon_count(mu) == lyndon_contents(len(mu) // 2, sum(mu))[mu]

    @pytest.mark.parametrize("alphabet", range(1, 7))
    def test_sums_to_witt_over_the_weights_of_a_degree(self, alphabet):
        for n in range(1, 8):
            assert sum(lyndon_count(mu)
                       for mu in product(range(n + 1), repeat=alphabet)
                       if sum(mu) == n) == witt_dim(alphabet, n)

    def test_known_counts(self):
        assert lyndon_count((0, 0)) == 0
        assert lyndon_count((1, 0)) == 1
        assert lyndon_count((2, 0)) == 0
        assert lyndon_count((2, 2)) == 1          # a a b b
        assert lyndon_count((3, 3)) == 3
        assert lyndon_count((2, 2, 2, 2)) == 312  # (8!/2^4 - 4!) / 8

    @pytest.mark.parametrize("args, message", [
        ((True, 2), "alphabet_size must be an int, not bool"),
        ((2.0, 3), "alphabet_size must be an int, not float"),
        ((2, "3"), "degree must be an int, not str"),
        ((2, False), "degree must be an int, not bool")])
    def test_witt_dim_names_a_bad_argument(self, args, message):
        with pytest.raises(ValueError, match=message):
            witt_dim(*args)

    @pytest.mark.parametrize("census", [lyndon_count, bracket_kernel_dim])
    @pytest.mark.parametrize("mu, message", [
        ((2, -1), "weight entry -1 is negative"),
        ((2, 1.0), "weight entry must be an int, not float"),
        ((True, 1), "weight entry must be an int, not bool"),
        ([2, 1], "mu must be a tuple, not list")])
    def test_census_names_a_bad_weight_entry(self, census, mu, message):
        with pytest.raises(ValueError, match=message):
            census(mu)

    @pytest.mark.parametrize("mu", [(), (0, 0), (1,), (0, 1, 0, 0)])
    def test_bracket_kernel_needs_total_weight_two(self, mu):
        with pytest.raises(ValueError, match=f"has total {sum(mu)}, but the "
                           "bracket kernel needs at least 2"):
            bracket_kernel_dim(mu)

    def test_bracket_kernel_of_a_y_and_of_a_strut(self):
        # one Y tree with leaves a1 b1 a2; struts are the symmetric pairs
        assert bracket_kernel_dim((1, 1, 1, 0)) == 1
        assert bracket_kernel_dim((1, 1)) == 1
        assert bracket_kernel_dim((2, 0)) == 1


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


def draw_coords(data, genus, integer):
    """A Lyndon coordinate dict with up to two words in each of a drawn
    set of degrees 1..5, possibly none; `int` or `Fraction` coefficients."""
    coords = {}
    for d in sorted(data.draw(st.sets(st.integers(1, 5), max_size=3))):
        basis = lyndon_basis(genus, d)
        for i in data.draw(st.sets(st.integers(0, len(basis) - 1),
                                   min_size=1, max_size=2)):
            c = data.draw(st.integers(-3, 3).filter(bool))
            coords[basis[i]] = c if integer else F(c, data.draw(
                st.integers(1, 3)))
    return coords


class TestGradedBracket:
    """`bracket_coords` on `graded` operands against the all-pairs
    `Fraction` bracket of the series oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        genus = data.draw(st.integers(1, 2))
        integer = data.draw(st.booleans())
        x = draw_coords(data, genus, integer)
        y = draw_coords(data, genus, integer)
        n = data.draw(st.integers(0, 10))
        self.check(x, y, n)

    @pytest.mark.parametrize("x, y, n", [
        ({}, {(0,): 1, (0, 1): 2}, 5),                      # empty left
        ({(0,): 1, (0, 1): 2}, {}, 5),                      # empty right
        ({(0, 1): 1, (0, 0, 1): 1}, {(1,): 1, (0, 1, 1): 3}, 1),  # n below both
        ({(0,): 1, (0, 1): F(1, 2), (0, 0, 1): 3},          # mixed degrees
         {(1,): -1, (0, 1, 1): 2, (0, 0, 0, 1): 1}, 4),
    ])
    def test_edge_cases(self, x, y, n):
        self.check(x, y, n)

    @staticmethod
    def check(x, y, n):
        real = free_lie.bracket_basis

        def guarded(u, v):
            assert len(u) + len(v) <= n, (u, v, n)
            return real(u, v)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(free_lie, "bracket_basis", guarded)
            got = bracket_coords(graded(x), graded(y), n)
        assert got == oracle.lie_bracket(x, y, n)
        assert all(got.values())
        if all(type(c) is int for c in (*x.values(), *y.values())):
            assert all(type(c) is int for c in got.values())

    def test_grading(self):
        coords = {(0, 0, 1): 1, (0,): 2, (1,): 3, (0, 1): 4}
        assert graded(coords) == ((1, {(0,): 2, (1,): 3}), (2, {(0, 1): 4}),
                                  (3, {(0, 0, 1): 1}))
        assert graded({}) == ()
        one = {(0, 1): 1}
        assert graded(one) == ((2, one),)


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
