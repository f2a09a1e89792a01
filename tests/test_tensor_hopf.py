"""Truncated tensor algebra: product, exp/log, Hopf predicates, expansions."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import series_oracle
from lietrees import tensor_hopf
from lietrees.free_lie import (LieSeries, bch, bracket_basis, gen_count,
                               is_lyndon, lyndon_basis)
from lietrees.johnson import identity_aut
from lietrees.sparse import add_into, add_term
from lietrees.symplectic import (construct_symplectic, omega,
                                 paper_example_expansion, verify_symplectic)
from lietrees.tensor_hopf import (ExpansionMap, FreeGroupWord, TensorSeries,
                                  _embed_word, antipode, basis_expansion,
                                  check_expansion, embed_lie,
                                  evaluate_expansion, exp, inv_unit,
                                  is_grouplike, is_primitive, log,
                                  magnus_expansion, mul, project_lie)

F = Fraction


def coproduct_grouplike(x):
    """Oracle: the coproduct of x equals x (x) x below the truncation degree."""
    if x.constant_term() != 1:
        return False
    target = {}
    for wu, cu in x.coords.items():
        for wv, cv in x.coords.items():
            if len(wu) + len(wv) <= x.max_degree:
                add_term(target, (wu, wv), cu * cv)
    return series_oracle.coproduct(x.coords) == target


def coproduct_primitive(x):
    """Oracle: the coproduct of x equals x (x) 1 + 1 (x) x."""
    target = {}
    for w, c in x.coords.items():
        add_term(target, (w, ()), c)
        add_term(target, ((), w), c)
    return series_oracle.coproduct(x.coords) == target


@lru_cache(maxsize=None)
def left_normed(w):
    """Oracle: Lyndon coordinates of the left-normed bracket of the letters of w."""
    if len(w) == 1:
        return {w: F(1)}
    out = {}
    for u, c in left_normed(w[:-1]).items():
        add_into(out, bracket_basis(u, (w[-1],)), c)
    return out


def dynkin_project(x):
    """Oracle for project_lie: the Dynkin idempotent, each degree-n word
    sent to its left-normed bracketing over n."""
    out = {}
    for w, c in x.coords.items():
        add_into(out, left_normed(w), c / len(w))
    return LieSeries(x.genus, x.max_degree, out)


def rand_lie(rng, genus, n):
    coords = {}
    for d in range(1, n + 1):
        basis = lyndon_basis(genus, d)
        w = basis[rng.randrange(len(basis))]
        c = F(rng.randint(-2, 2), rng.randint(1, 3))
        if c:
            coords[w] = c
    return LieSeries(genus, n, coords)


def rand_tensor(rng, genus, n, unit=False):
    coords = {(): F(1)} if unit else {}
    for _ in range(4):
        d = rng.randint(1, n)
        w = tuple(rng.randrange(2 * genus) for _ in range(d))
        c = F(rng.randint(-2, 2), rng.randint(1, 2))
        if c:
            coords[w] = coords.get(w, 0) + c
    return TensorSeries(genus, n, {w: c for w, c in coords.items() if c})


class TestProduct:
    def test_unit(self):
        rng = random.Random(1)
        x = rand_tensor(rng, 2, 4)
        one = TensorSeries.one(2, 4)
        assert mul(one, x) == x
        assert mul(x, one) == x

    def test_concatenation(self):
        a = TensorSeries.gen(1, 3, 0)
        b = TensorSeries.gen(1, 3, 1)
        assert mul(a, b).coords == {(0, 1): F(1)}

    def test_associativity(self):
        rng = random.Random(2)
        for _ in range(10):
            genus, n = rng.randint(1, 2), rng.randint(2, 4)
            x, y, z = (rand_tensor(rng, genus, n) for _ in range(3))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_truncation_drops_overflow(self):
        a = TensorSeries(1, 2, {(0, 1): F(1)})
        assert mul(a, a).coords == {}


class TestExpLog:
    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            exp(TensorSeries.one(1, 3))

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            log(TensorSeries.gen(1, 3, 0))

    def test_round_trips(self):
        rng = random.Random(3)
        for _ in range(10):
            genus, n = rng.randint(1, 2), rng.randint(2, 5)
            x = rand_tensor(rng, genus, n)
            assert log(exp(x)) == x
            u = rand_tensor(rng, genus, n, unit=True)
            assert exp(log(u)) == u

    def test_exp_of_letter(self):
        e = exp(TensorSeries.gen(1, 3, 0))
        assert e.coords == {(): F(1), (0,): F(1), (0, 0): F(1, 2),
                            (0, 0, 0): F(1, 6)}


class TestInverse:
    def test_geometric_series(self):
        rng = random.Random(4)
        for _ in range(8):
            genus, n = rng.randint(1, 2), rng.randint(2, 4)
            u = rand_tensor(rng, genus, n, unit=True)
            assert mul(u, inv_unit(u)) == TensorSeries.one(genus, n)
            assert mul(inv_unit(u), u) == TensorSeries.one(genus, n)

    def test_requires_unit(self):
        with pytest.raises(ValueError):
            inv_unit(TensorSeries.zero(1, 3))


class TestHopfStructure:
    def test_letters_are_primitive(self):
        d = series_oracle.coproduct(TensorSeries.gen(2, 3, 2).coords)
        assert d == {((2,), ()): F(1), ((), (2,)): F(1)}

    def test_coproduct_splits_subsets(self):
        d = series_oracle.coproduct(TensorSeries(1, 3, {(0, 1): F(1)}).coords)
        assert d == {((0, 1), ()): F(1), ((), (0, 1)): F(1),
                     ((0,), (1,)): F(1), ((1,), (0,)): F(1)}

    def test_embedded_lie_is_primitive(self):
        rng = random.Random(5)
        for _ in range(8):
            genus, n = rng.randint(1, 2), rng.randint(2, 5)
            assert is_primitive(embed_lie(rand_lie(rng, genus, n)))

    def test_products_are_not_primitive(self):
        x = TensorSeries.gen(1, 4, 0)
        assert not is_primitive(mul(x, x))

    def test_exponentials_are_grouplike(self):
        rng = random.Random(6)
        for _ in range(8):
            genus, n = rng.randint(1, 2), rng.randint(2, 5)
            assert is_grouplike(exp(embed_lie(rand_lie(rng, genus, n))))

    def test_one_plus_letter_is_not_grouplike(self):
        x = TensorSeries.one(1, 4) + TensorSeries.gen(1, 4, 0)
        assert not is_grouplike(x)

    def test_projection_inverts_embedding(self):
        rng = random.Random(7)
        for _ in range(10):
            genus, n = rng.randint(1, 2), rng.randint(2, 6)
            x = rand_lie(rng, genus, n)
            assert project_lie(embed_lie(x)) == x

    def test_projection_rejects_non_primitive(self):
        x = TensorSeries.gen(1, 4, 0)
        with pytest.raises(ValueError):
            project_lie(mul(x, x))


class TestDynkinPredicates:
    """is_primitive and is_grouplike, both decided by the Lyndon peel,
    agree with the coproduct oracle.  The draw_* helpers serve the other
    classes too."""

    @staticmethod
    def draw_lie(data, genus=None, n=None, top=5):
        """A Lie element, at a drawn genus and truncation unless given."""
        genus = genus or data.draw(st.integers(1, 2))
        n = n or data.draw(st.integers(2, top))
        coords = {}
        for d in range(1, n + 1):
            basis = lyndon_basis(genus, d)
            for i in data.draw(st.sets(st.integers(0, len(basis) - 1),
                                       max_size=3)):
                coords[basis[i]] = F(data.draw(st.integers(-3, 3).filter(bool)),
                                     data.draw(st.integers(1, 3)))
        return LieSeries(genus, n, coords)

    @staticmethod
    def draw_term(data, genus, d):
        """A nonzero multiple of one word of length d."""
        w = tuple(data.draw(st.lists(st.integers(0, 2 * genus - 1),
                                     min_size=d, max_size=d)))
        c = F(data.draw(st.integers(-3, 3).filter(bool)),
              data.draw(st.integers(1, 3)))
        return w, c

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_exponentials_and_their_edits(self, data):
        x = self.draw_lie(data)
        g = exp(embed_lie(x))
        assert is_grouplike(g) and coproduct_grouplike(g)
        for d in range(2, x.max_degree + 1):
            w, c = self.draw_term(data, x.genus, d)
            # the prime 10007 divides no other denominator of g, so the
            # second edit moves the common denominator of the series
            for c in (c, c / 10007):
                coords = dict(g.coords)
                add_term(coords, w, c)
                edited = TensorSeries(x.genus, x.max_degree, coords)
                assert not is_grouplike(edited), (w, c)
                assert not coproduct_grouplike(edited), (w, c)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_embeddings_and_product_terms(self, data):
        x = self.draw_lie(data)
        p = embed_lie(x)
        assert is_primitive(p) and coproduct_primitive(p)
        d = data.draw(st.integers(2, x.max_degree))
        w, c = self.draw_term(data, x.genus, d)
        q = p + TensorSeries(x.genus, x.max_degree, {w: c})
        assert not is_primitive(q) and not coproduct_primitive(q)

    def test_grouplike_peels_log_without_unscaling(self, monkeypatch):
        g = exp(embed_lie(LieSeries(2, 4, {(0,): F(1, 2), (0, 1): F(2, 3)})))

        def refuse(*args):
            raise AssertionError("log was unscaled")

        monkeypatch.setattr(tensor_hopf, "unscaled", refuse)
        assert is_grouplike(g)

    def test_grouplike_runs_no_series(self, monkeypatch):
        g = exp(embed_lie(LieSeries(2, 4, {(0,): F(1, 2), (0, 1): F(2, 3)})))

        def refuse(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(tensor_hopf, "scaled_series", refuse)
        assert is_grouplike(g)
        assert not is_grouplike(g + TensorSeries(2, 4, {(1, 0): F(1, 5)}))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_an_edit_at_degree_d_stops_the_peel_there(self, data):
        """p = x^-1 D(x) is peeled one degree at a time, so an exponential
        edited at degree d is peeled on degrees 1..d and no further, and
        an edit at the top degree is still seen."""
        x = self.draw_lie(data, top=6)
        g = exp(embed_lie(x))
        n = x.max_degree
        with pytest.MonkeyPatch.context() as mp:
            calls = counted(mp, "_peel")
            assert is_grouplike(g)
        assert len(calls) == n
        for d in range(2, n + 1):
            w, c = self.draw_term(data, x.genus, d)
            coords = dict(g.coords)
            add_term(coords, w, c)
            edited = TensorSeries(x.genus, n, coords)
            with pytest.MonkeyPatch.context() as mp:
                calls = counted(mp, "_peel")
                assert not is_grouplike(edited), (w, c)
            assert len(calls) == d, (w, c)

    def test_constant_terms(self):
        one = TensorSeries.one(1, 3)
        assert not is_primitive(one) and not coproduct_primitive(one)
        assert not is_grouplike(2 * one) and not coproduct_grouplike(2 * one)
        assert is_grouplike(one) and coproduct_grouplike(one)


class TestLyndonPeel:
    """project_lie peels the Lyndon basis off least word first."""

    def test_embedded_lyndon_words_are_triangular(self):
        for d in range(1, 7):
            for w in lyndon_basis(2, d):
                e = _embed_word(w)
                assert e[w] == 1
                assert all(u > w and len(u) == d for u in e if u != w), w

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_dynkin_idempotent(self, data):
        x = TestDynkinPredicates.draw_lie(data)
        p = embed_lie(x)
        assert project_lie(p) == x
        assert dynkin_project(p) == x

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_coordinate_over_a_new_prime(self, data):
        # the prime 10007 divides no drawn denominator, so dividing one
        # coordinate by it moves the common denominator the peel runs over
        x = TestDynkinPredicates.draw_lie(data)
        assume(x)
        w = data.draw(st.sampled_from(sorted(x.coords)))
        coords = dict(x.coords)
        coords[w] /= 10007
        x = LieSeries(x.genus, x.max_degree, coords)
        p = embed_lie(x)
        assert is_primitive(p)
        assert project_lie(p) == x == dynkin_project(p)


class TestPeelRejection:
    """project_lie rejects exactly the non-primitive elements, from its
    own peel, and is_primitive agrees with the coproduct on each draw."""

    KINDS = {"lie": True, "lie plus a non-Lyndon word": False,
             "constant term": False, "exponential": False, "product": None,
             "Lyndon least word, non-Lie remainder": False}

    @staticmethod
    def draw(data, kind):
        x = TestDynkinPredicates.draw_lie(data, top=6)
        genus, n = x.genus, x.max_degree
        p = embed_lie(x)
        if kind == "lie":
            return p
        if kind == "constant term":
            return p + data.draw(st.integers(-2, 2).filter(bool)) * \
                TensorSeries.one(genus, n)
        if kind == "exponential":
            return exp(p)
        if kind == "product":
            y = TestDynkinPredicates.draw_lie(data, genus, n)
            return mul(p, embed_lie(y))
        w, c = TestDynkinPredicates.draw_term(
            data, genus, data.draw(st.integers(2, n)))
        if kind == "lie plus a non-Lyndon word":
            # a rotation of a Lyndon word of length >= 2 is not Lyndon
            w = w[1:] + w[:1] if is_lyndon(w) else w
        else:
            assume(p and w > min(p.coords))
        return p + TensorSeries(genus, n, {w: c})

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rejects_exactly_the_non_primitive(self, kind, data):
        t = self.draw(data, kind)
        primitive = is_primitive(t)
        assert primitive == coproduct_primitive(t)
        if self.KINDS[kind] is not None:
            assert primitive == self.KINDS[kind]
        if primitive:
            assert embed_lie(project_lie(t)) == t
        else:
            with pytest.raises(ValueError, match="needs a primitive element"):
                project_lie(t)


class TestTruncation:
    def test_series_rejects_degrees_outside_range(self):
        lie = LieSeries(1, 4, {(0,): 1, (0, 1): 1, (0, 0, 1): F(1, 2)})
        for x, low in ((exp(TensorSeries.gen(1, 4, 0)),
                        {(): F(1), (0,): F(1), (0, 0): F(1, 2)}),
                       (lie, {(0,): F(1), (0, 1): F(1)})):
            for n in (0, -1, 5):
                with pytest.raises(ValueError, match="outside 1..4"):
                    x.truncated(n)
            assert x.truncated(4) == x
            assert x.truncated(2).coords == low
            assert x.truncated(2).max_degree == 2

    def test_expansion_rejects_degrees_outside_range(self):
        theta = paper_example_expansion(1)
        for n in (0, 5, 6):
            with pytest.raises(ValueError):
                theta.truncated(n)

    def test_automorphism_rejects_degrees_outside_range(self):
        psi = identity_aut(2, 3)
        for n in (0, -1, 4):
            with pytest.raises(ValueError,
                               match=f"truncation degree {n} outside 1..3"):
                psi.truncated(n)
        assert psi.truncated(2).max_degree == 2


# coprime and large denominators, so that common denominators grow
DENOMINATORS = (1, 2, 3, 10007, 2 ** 40, 3 ** 25)


@st.composite
def series(draw, genus, n, constant=0, low=1):
    """A TensorSeries with the given constant term and words of length
    low..n; its coefficients are Fractions over DENOMINATORS, or ints
    stored as they are through _of."""
    ints = draw(st.booleans())
    coords = {(): constant} if constant else {}
    for _ in range(draw(st.integers(0, 6))):
        d = draw(st.integers(low, n))
        w = tuple(draw(st.lists(st.integers(0, 2 * genus - 1),
                                min_size=d, max_size=d)))
        num = draw(st.integers(-4, 4).filter(bool))
        coords[w] = num if ints else F(num, draw(st.sampled_from(DENOMINATORS)))
    if ints:
        return TensorSeries._of(genus, n, coords)
    return TensorSeries(genus, n, coords)


CONTEXTS = st.tuples(st.integers(1, 2), st.integers(1, 5))
PAIRS = CONTEXTS.flatmap(lambda gn: st.tuples(series(*gn), series(*gn)))
# a series with no constant term and one with constant term 1
NILPOTENT_AND_UNIT = CONTEXTS.flatmap(
    lambda gn: st.tuples(series(*gn), series(*gn, constant=1)))


@st.composite
def expansion_and_word(draw):
    """An ExpansionMap whose images are drawn unit series, and a reduced
    free group word of up to 8 letters with both signs."""
    genus, n = draw(CONTEXTS)
    images = {l: draw(series(genus, n, constant=1))
              for l in range(2 * genus)}
    letters = draw(st.lists(st.tuples(st.integers(0, 2 * genus - 1),
                                      st.sampled_from((1, -1))), max_size=8))
    return ExpansionMap(genus, n, images), FreeGroupWord(genus, tuple(letters))


def assert_fractions(x):
    """Every coefficient is a nonzero Fraction in lowest terms."""
    assert all(type(c) is F and c and c.denominator > 0
               and gcd(c.numerator, c.denominator) == 1
               for c in x.coords.values()), x.coords


def counted(mp, name):
    """Replace tensor_hopf.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(tensor_hopf, name)

    def wrapper(*args):
        calls.append(1)
        return inner(*args)

    mp.setattr(tensor_hopf, name, wrapper)
    return calls


class TestIntegerKernel:
    """mul, the series and evaluate_expansion agree with the Fraction oracle."""

    @settings(max_examples=60, deadline=None)
    @given(PAIRS)
    def test_mul_matches_the_oracle(self, xy):
        x, y = xy
        z = mul(x, y)
        assert z.coords == series_oracle.mul(x.coords, y.coords, x.max_degree)
        assert_fractions(z)

    @settings(max_examples=40, deadline=None)
    @given(NILPOTENT_AND_UNIT)
    def test_exp_log_and_inverse_match_the_oracle(self, ux):
        u, x = ux
        n = u.max_degree
        for ours, oracle, arg in ((exp, series_oracle.exp, u),
                                  (log, series_oracle.log, x),
                                  (inv_unit, series_oracle.inv_unit, x)):
            got = ours(arg)
            assert got.coords == oracle(arg.coords, n), ours.__name__
            assert_fractions(got)

    @settings(max_examples=40, deadline=None)
    @given(NILPOTENT_AND_UNIT)
    def test_products_that_cancel_to_zero(self, ux):
        u, x = ux
        one = TensorSeries.one(u.genus, u.max_degree)
        inv = inv_unit(x)
        for left, right in ((x, inv), (inv, x), (exp(u), exp(-u))):
            z = mul(left, right)
            assert z == one
            assert z.coords == series_oracle.mul(left.coords, right.coords,
                                                 u.max_degree)
            assert_fractions(z)

    @settings(max_examples=30, deadline=None)
    @given(NILPOTENT_AND_UNIT)
    def test_each_series_scales_its_argument_once(self, ux):
        u, x = ux
        for f, arg in ((exp, u), (log, x), (inv_unit, x)):
            with pytest.MonkeyPatch.context() as mp:
                calls = counted(mp, "scaled")
                f(arg)
            assert len(calls) == 1, f.__name__

    @settings(max_examples=30, deadline=None)
    @given(NILPOTENT_AND_UNIT)
    def test_each_series_sums_plain_dicts(self, ux):
        """`scaled_series` gets a dict start, and every step returns a
        dict: no series object is built over numerators."""
        u, x = ux
        inner = tensor_hopf.scaled_series
        seen = []

        def wrapper(step, start, *rest):
            seen.append(type(start))

            def checked(t):
                out = step(t)
                seen.append(type(out))
                return out
            return inner(checked, start, *rest)
        for f, arg in ((exp, u), (log, x), (inv_unit, x)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tensor_hopf, "scaled_series", wrapper)
                f(arg)
        assert len(seen) >= 3 and set(seen) == {dict}, seen

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda g: series(g, 7, low=3)))
    def test_series_stop_after_the_last_nonzero_power(self, u):
        """u of minimum degree 3 at max degree 7: u^2 is the last power."""
        assume(u.min_degree() == 3)
        x = TensorSeries.one(u.genus, 7) + u
        for ours, oracle, arg in ((exp, series_oracle.exp, u),
                                  (log, series_oracle.log, x),
                                  (inv_unit, series_oracle.inv_unit, x)):
            with pytest.MonkeyPatch.context() as mp:
                calls = counted(mp, "_product")
                got = ours(arg)
            assert len(calls) == 2, ours.__name__
            assert got.coords == oracle(arg.coords, 7), ours.__name__
            assert_fractions(got)

    @settings(max_examples=40, deadline=None)
    @given(expansion_and_word())
    def test_evaluate_expansion_matches_the_oracle(self, theta_w):
        theta, w = theta_w
        n = theta.max_degree
        expected = {(): F(1)}
        for letter, e in w.letters:
            image = theta.images[letter].coords
            if e == -1:
                image = series_oracle.inv_unit(image, n)
            expected = series_oracle.mul(expected, image, n)
        got = evaluate_expansion(theta, w)
        assert got.coords == expected
        assert_fractions(got)
        back = evaluate_expansion(theta, w.inverse())
        assert_fractions(back)
        assert mul(got, back) == TensorSeries.one(theta.genus, n)

    def test_cancelled_words_are_dropped(self):
        a = TensorSeries.gen(1, 3, 0)
        one = TensorSeries.one(1, 3)
        z = mul(one + F(1, 10007) * a, one - F(1, 10007) * a)
        assert z.coords == {(): F(1), (0, 0): F(-1, 10007 ** 2)}
        assert_fractions(z)
        # the integer kernel drops the cancelled word itself
        assert tensor_hopf._product({(): 1, (0,): 1}, {(): 1, (0,): -1}, 3) \
            == {(): 1, (0, 0): -1}


class TestFreeGroupWords:
    def test_free_reduction(self):
        g = FreeGroupWord.gen
        w = g(1, 0) * g(1, 0, -1)
        assert w == FreeGroupWord.identity(1)

    def test_inverse(self):
        g = FreeGroupWord.gen
        w = g(2, 0) * g(2, 3, -1) * g(2, 1)
        assert w * w.inverse() == FreeGroupWord.identity(2)
        assert w.inverse().letters == ((1, -1), (3, 1), (0, -1))

    def test_commutator_of_commuting_is_trivial(self):
        g = FreeGroupWord.gen(1, 0)
        assert FreeGroupWord.commutator(g, g) == FreeGroupWord.identity(1)

    def test_letters_stay_reduced(self):
        g = FreeGroupWord.gen
        sq = g(1, 0) * g(1, 0)
        assert sq.letters == ((0, 1), (0, 1))
        assert (sq * g(1, 0, -1)).letters == ((0, 1),)
        with pytest.raises(ValueError):
            FreeGroupWord(1, ((0, 2),))


class TestExpansions:
    def test_evaluation_is_a_monoid_map(self):
        rng = random.Random(8)
        theta = basis_expansion(2, 4)
        gens = [FreeGroupWord.gen(2, l, e) for l in range(4) for e in (1, -1)]
        for _ in range(6):
            w1 = gens[rng.randrange(len(gens))] * gens[rng.randrange(len(gens))]
            w2 = gens[rng.randrange(len(gens))]
            lhs = evaluate_expansion(theta, w1 * w2)
            rhs = mul(evaluate_expansion(theta, w1), evaluate_expansion(theta, w2))
            assert lhs == rhs

    def test_inverse_images_multiply_to_one(self):
        theta = basis_expansion(1, 5)
        prod = mul(theta.image(0), theta.image(0, -1))
        assert prod == TensorSeries.one(1, 5)

    def test_magnus_is_expansion_but_not_grouplike(self):
        rep = check_expansion(magnus_expansion(2, 4))
        assert rep.is_expansion
        assert not rep.is_grouplike

    def test_basis_expansion_is_grouplike(self):
        rep = check_expansion(basis_expansion(2, 4))
        assert rep.is_expansion
        assert rep.is_grouplike

    def test_rejects_images_that_are_not_normalized(self):
        one, gen = TensorSeries.one, TensorSeries.gen
        good = {l: one(2, 3) + gen(2, 3, l) for l in range(4)}
        for bad in (2 * one(2, 3) + gen(2, 3, 1),  # constant term 2
                    one(2, 3) + TensorSeries(2, 3, {(0, 1): 1}),  # no b1
                    one(2, 3) + gen(2, 3, 1) + gen(2, 3, 2),  # stray a2
                    one(2, 3) + 3 * gen(2, 3, 1)):  # 3 b1
            rep = check_expansion(ExpansionMap(2, 3, {**good, 1: bad}))
            assert not rep.is_expansion
        assert check_expansion(ExpansionMap(2, 3, good)).is_expansion

    def test_rejects_a_negative_genus(self):
        with pytest.raises(ValueError, match="bad context"):
            ExpansionMap(-1, 2, {})

    @pytest.mark.parametrize("e", [0, 2, -2])
    def test_image_rejects_an_exponent_other_than_one_or_minus_one(self, e):
        with pytest.raises(ValueError, match=f"exponent {e} is not 1 or -1"):
            basis_expansion(1, 3).image(0, e)

    @pytest.mark.parametrize("letter", [2, 7, -1])
    def test_image_rejects_a_non_letter(self, letter):
        with pytest.raises(ValueError, match="not a generator letter"):
            basis_expansion(1, 3).image(letter)

    def test_truncation(self):
        theta = basis_expansion(1, 5)
        cut = theta.truncated(3)
        assert cut.max_degree == 3
        assert cut.image(0) == theta.image(0).truncated(3)


class TestAntipode:
    """S reverses each word with sign (-1)^length; on a group-like image
    it is the inverse, and check_expansion puts it in the memo."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_inverts_exponentials(self, data):
        x = exp(embed_lie(TestDynkinPredicates.draw_lie(data)))
        one = TensorSeries.one(x.genus, x.max_degree)
        s = antipode(x)
        assert mul(s, x) == one and mul(x, s) == one
        assert s == inv_unit(x)
        assert antipode(s) == x
        assert_fractions(s)

    @settings(max_examples=40, deadline=None)
    @given(PAIRS)
    def test_reverses_products(self, xy):
        x, y = xy
        assert antipode(mul(x, y)) == mul(antipode(y), antipode(x))
        assert antipode(antipode(x)) == x

    def test_signs_and_reversal(self):
        x = TensorSeries(2, 3, {(): 2, (1,): F(1, 2), (0, 3): 3, (0, 1, 2): -1})
        assert antipode(x).coords == {(): 2, (1,): F(-1, 2), (3, 0): 3,
                                      (2, 1, 0): 1}

    def test_check_expansion_memoises_the_antipode(self, monkeypatch):
        theta = construct_symplectic(2, 5)
        assert check_expansion(theta).is_grouplike
        # counts the calls tensor_hopf makes, not those of this module's inv_unit
        calls = counted(monkeypatch, "inv_unit")
        for l, image in theta.images.items():
            assert theta.image(l, -1) == inv_unit(image)
        assert calls == []

    def test_check_expansion_memoises_only_the_inverse_images(self):
        theta = construct_symplectic(2, 5)
        assert theta._memo == {}
        assert check_expansion(theta).is_grouplike
        assert set(theta._memo) == set(range(gen_count(2)))

    def test_check_expansion_scales_each_image_once(self, monkeypatch):
        theta = construct_symplectic(2, 5)

        def refuse(*args):
            raise AssertionError("a series was summed or unscaled")

        monkeypatch.setattr(tensor_hopf, "scaled_series", refuse)
        monkeypatch.setattr(tensor_hopf, "unscaled", refuse)
        calls = counted(monkeypatch, "scaled")
        assert check_expansion(theta).is_grouplike
        assert len(calls) == len(theta.images)

    def test_verify_uses_no_geometric_series(self, monkeypatch):
        calls = counted(monkeypatch, "inv_unit")
        assert verify_symplectic(construct_symplectic(2, 5), 5).ok
        assert calls == []

    def test_an_image_that_is_not_grouplike_is_inverted_by_series(
            self, monkeypatch):
        theta = construct_symplectic(2, 5)
        last = max(theta.images)
        image = theta.images[last]
        w = min(w for w in image.coords if len(w) == 3)
        edited = ExpansionMap(2, 5, {
            **theta.images,
            last: image + TensorSeries(2, 5, {w: F(1, 3)})})
        calls = counted(monkeypatch, "inv_unit")
        report = verify_symplectic(edited, 5)
        assert report.normalized and not report.grouplike
        assert len(calls) == 1

    def test_magnus_images_are_inverted_by_series(self, monkeypatch):
        theta = magnus_expansion(2, 4)
        assert not check_expansion(theta).is_grouplike
        calls = counted(monkeypatch, "inv_unit")
        for l, image in theta.images.items():
            assert theta.image(l, -1) == inv_unit(image)
        assert len(calls) == len(theta.images)


def _wrong_kind_calls():
    """(call, message) for each tensor-side entry point handed a value of
    the wrong kind; mul(omega, omega) must not return a LieSeries holding
    the non-Lyndon word a1.b1.a1.b1."""
    lie = omega(1, 4)
    t = TensorSeries.gen(1, 4, 0)
    aut = identity_aut(1, 4)
    theta = magnus_expansion(1, 4)
    not_tensor = "x must be a TensorSeries, not LieSeries"
    not_lie = "x must be a LieSeries, not TensorSeries"
    not_map = "theta must be an ExpansionMap, not LieAutomorphism"
    return {
        "mul(lie, lie)": (lambda: mul(lie, lie), not_tensor),
        "exp(str)": (lambda: exp("a1"), "x must be a TensorSeries, not str"),
        "exp(lie)": (lambda: exp(lie), not_tensor),
        "log(lie)": (lambda: log(lie), not_tensor),
        "inv_unit(lie)": (lambda: inv_unit(lie), not_tensor),
        "antipode(lie)": (lambda: antipode(lie), not_tensor),
        "is_primitive(lie)": (lambda: is_primitive(lie), not_tensor),
        "is_grouplike(lie)": (lambda: is_grouplike(lie), not_tensor),
        "project_lie(lie)": (lambda: project_lie(lie), not_tensor),
        "embed_lie(tensor)": (lambda: embed_lie(t), not_lie),
        "bch(tensor, tensor)": (lambda: bch(t, t), not_lie),
        "check_expansion(aut)": (lambda: check_expansion(aut), not_map),
        "verify_symplectic(aut, 4)": (lambda: verify_symplectic(aut, 4),
                                      not_map),
        "verify_symplectic(theta, 4.0)": (lambda: verify_symplectic(theta, 4.0),
                                          "n must be an int, not float"),
        "evaluate_expansion(aut, word)": (
            lambda: evaluate_expansion(aut, FreeGroupWord.gen(1, 0)), not_map),
        "evaluate_expansion(theta, str)": (
            lambda: evaluate_expansion(theta, "a1"),
            "w must be a FreeGroupWord, not str"),
    }


@pytest.mark.parametrize("case", sorted(_wrong_kind_calls()))
def test_wrong_kind_is_rejected_by_name(case):
    call, message = _wrong_kind_calls()[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
