"""The shared sparse-combination core, checked on every class built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle
from lietrees.free_lie import LieSeries
from lietrees.jacobi import HLieTensor, TreeCombo, TreeDiagram
from lietrees.koszul import HomologyClass, WedgeChain
from lietrees.sparse import (add_into, add_term, check_kind, scaled_series,
                             unscaled)
from lietrees.tensor_hopf import TensorSeries, _product

F = Fraction

# trees on distinct keys: the leaf colors differ, so AS never kills one
TREES = [TreeDiagram.build(2, r, p)[0]
         for r, p in ((0, (1, 2)), (0, (1, 3)), (1, (2, 3)), (0, ((1, 2), 3)))]

# per class: (basis keys, maker in one context, maker in another context)
FAMILIES = {
    "LieSeries": ([(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)],
                  lambda c: LieSeries(1, 3, c), lambda c: LieSeries(1, 4, c)),
    "TensorSeries": ([(), (0,), (1,), (0, 1), (1, 0)],
                     lambda c: TensorSeries(1, 2, c),
                     lambda c: TensorSeries(2, 2, c)),
    "HLieTensor": ([(0, (1,)), (1, (0,)), (0, (0, 1)), (1, (0, 1))],
                   lambda c: HLieTensor(1, c), lambda c: HLieTensor(2, c)),
    "WedgeChain": ([((0,), (1,)), ((0,), (0, 1)), ((1,), (0, 1))],
                   lambda c: WedgeChain(1, 2, 2, c),
                   lambda c: WedgeChain(1, 3, 2, c)),
    "TreeCombo": (TREES,
                  lambda c: TreeCombo(2, c),
                  lambda c: TreeCombo(3, {})),
}

coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def element(draw, name):
    keys, make, _ = FAMILIES[name]
    return make({k: draw(coeff) for k in keys if draw(st.booleans())})


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vector_space_laws(name, data):
    x, y, z = (element(data.draw, name) for _ in range(3))
    assert (x - x).is_zero()
    assert ((x + y) + z).coords == (x + (y + z)).coords
    assert (0 * x).is_zero()
    assert (-x).coords == ((-1) * x).coords
    for r in (x + y, x - y, -x, F(2, 3) * x, y * F(-1)):
        assert all(r.coords.values()), "a zero coefficient was stored"
        assert type(r) is type(x)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_context_mismatch_raises(name):
    keys, make, make_other = FAMILIES[name]
    x = make({keys[0]: F(1)})
    other = make_other({})
    with pytest.raises(ValueError):
        x + other
    with pytest.raises(ValueError):
        x - other


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constructor_stores_fractions_and_drops_zeros(name):
    keys, make, _ = FAMILIES[name]
    x = make({keys[0]: 2, keys[1]: 0})
    assert x.coords == {keys[0]: F(2)}
    assert type(x.coords[keys[0]]) is Fraction


@pytest.mark.parametrize("make, text", [
    (lambda: LieSeries(1, 3, {(0, 1): F(1, 2), (0,): 1}),
     "(1)*a1 + (1/2)*[a1,b1]"),
    (lambda: TensorSeries(1, 2, {(0, 1): -1, (): 1}), "(1)*1 + (-1)*a1.b1"),
    (lambda: WedgeChain(1, 2, 2, {((1,), (0, 1)): 2, ((0,), (1,)): 1}),
     "(1)*a1 ^ b1 + (2)*b1 ^ a1.b1"),
    (lambda: HLieTensor(1, {(0, (0, 1)): 3, (1, (0,)): -1}),
     "(-1)*b1(x)a1 + (3)*a1(x)a1.b1"),
    (lambda: TreeCombo(2, {TREES[0]: F(-1, 2)}), "(-1/2)*(a1 (b1 a2))"),
    (lambda: TreeCombo(2, {TREES[2]: 1, TREES[0]: F(-1, 2)}),
     "(-1/2)*(a1 (b1 a2)) + (1)*(b1 (a2 b2))"),
])
def test_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_zero_repr(name):
    assert repr(FAMILIES[name][1]({})) == "0"
    assert repr(HomologyClass(2, 2)) == "0"


def test_tree_combo_rejects_keys_that_are_not_its_diagrams():
    genus_3 = TreeDiagram.build(3, 0, (1, 2))[0]
    with pytest.raises(ValueError, match="not a tree diagram of genus 2"):
        TreeCombo(2, {genus_3: 1})
    with pytest.raises(ValueError, match="not a tree diagram of genus 2"):
        TreeCombo(2, {TREES[0].key: 1})


def test_helpers_drop_zeros():
    acc = {"a": F(1)}
    add_term(acc, "a", F(-1))
    add_term(acc, "b", F(0))
    assert acc == {}
    add_into(acc, {"a": F(1), "b": F(2)}, F(-1, 2))
    add_into(acc, {"a": F(-1, 2)}, -1)
    assert acc == {"b": F(-1)}


@pytest.mark.parametrize("make", [
    lambda: LieSeries(-1, 2), lambda: TensorSeries(-1, 2),
    lambda: HLieTensor(-1), lambda: TreeCombo(-3),
    lambda: WedgeChain(-2, 1, 2), lambda: LieSeries(1, 0),
    lambda: TensorSeries(1, 0), lambda: WedgeChain(1, 0, 2),
], ids=["LieSeries", "TensorSeries", "HLieTensor", "TreeCombo", "WedgeChain",
        "LieSeries degree 0", "TensorSeries degree 0", "WedgeChain class 0"])
def test_bad_context_is_rejected(make):
    with pytest.raises(ValueError, match="bad context"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: WedgeChain("2", 2, 2), "genus must be an int, not str"),
    (lambda: LieSeries("2", 3), "genus must be an int, not str"),
    (lambda: TensorSeries(2, "3"), "max_degree must be an int, not str"),
    (lambda: HLieTensor("2"), "genus must be an int, not str"),
    (lambda: TreeCombo("2"), "genus must be an int, not str"),
    (lambda: HomologyClass("2", 2), "genus must be an int, not str"),
    (lambda: WedgeChain(2, 2.0, 2),
     "nilpotency_class must be an int, not float"),
    (lambda: LieSeries(2, True), "max_degree must be an int, not bool"),
    (lambda: HLieTensor(True), "genus must be an int, not bool"),
    (lambda: HomologyClass(True, 2), "genus must be an int, not bool"),
    (lambda: HomologyClass(2, True), "nilpotency_class must be an int, not bool"),
    (lambda: HomologyClass(2, 2, {True: ()}), "degree key True is not an int"),
], ids=["WedgeChain str", "LieSeries str", "TensorSeries str",
        "HLieTensor str", "TreeCombo str", "HomologyClass str",
        "WedgeChain float", "LieSeries bool", "HLieTensor bool",
        "HomologyClass bool genus", "HomologyClass bool class",
        "HomologyClass bool degree"])
def test_context_fields_of_a_wrong_kind_are_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: LieSeries(1, 3, [((0,), 1)]), "coords must be a mapping, not list"),
    (lambda: WedgeChain(1, 2, 3, [1]), "coords must be a mapping, not list"),
    (lambda: HomologyClass(2, 2, [1]), "parts must be a mapping, not list"),
    (lambda: LieSeries(1, 3, {(0,): None}),
     r"coefficient of \(0,\) is not a rational: None"),
    (lambda: TensorSeries(1, 3, {(0,): None}),
     r"coefficient of \(0,\) is not a rational: None"),
    (lambda: WedgeChain(1, 2, 3, {((0,), (1,), (0, 1)): None}),
     r"coefficient of \(\(0,\), \(1,\), \(0, 1\)\) is not a rational: None"),
    (lambda: HomologyClass(2, 2, {4: (None,) * 20}),
     "degree 4 coordinate 0 is not a rational: None"),
    (lambda: LieSeries(1, 3, {5: 1}), "key 5 has the wrong shape"),
    (lambda: TensorSeries(1, 3, {5: 1}), "key 5 has the wrong shape"),
    (lambda: HLieTensor(1, {5: 1}), "key 5 has the wrong shape"),
    (lambda: HLieTensor(1, {(0, 5): 1}), r"key \(0, 5\) has the wrong shape"),
    (lambda: WedgeChain(1, 2, 3, {((0,), (1,), 5): 1}),
     r"key \(\(0,\), \(1,\), 5\) has the wrong shape"),
    (lambda: HomologyClass(2, 2, {4: 5}),
     "degree 4 part must be a sequence, not int"),
], ids=["LieSeries list", "WedgeChain list", "HomologyClass list",
        "LieSeries None", "TensorSeries None", "WedgeChain None",
        "HomologyClass None", "LieSeries int key", "TensorSeries int key",
        "HLieTensor int key", "HLieTensor int word", "WedgeChain int factor",
        "HomologyClass int part"])
def test_coords_of_a_wrong_kind_are_refused_by_name(make, message):
    # not the AttributeError or TypeError of the first use that fails
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def counting(step):
    """step, with the number of calls kept in .calls."""
    def run(x):
        run.calls += 1
        return step(x)
    run.calls = 0
    return run


def test_scaled_series_steps_at_most_last_times():
    x = {(0,): 1}
    for last in range(4):
        step = counting(lambda t: t)
        assert scaled_series(step, x, lambda k: k + 1, last, 1) == \
            ({(0,): (last + 1) * (last + 2) // 2}, 1)
        assert step.calls == last


def test_scaled_series_stops_at_the_first_vanishing_term():
    # right multiplication by b1 takes 1 to zero in m + 1 steps at max degree m
    for m in range(1, 5):
        step = counting(lambda t: _product(t, {(1,): 1}, m))
        acc, den = scaled_series(step, {(): 1}, lambda k: F(1, k + 1), 9, 1)
        assert step.calls == m + 1
        assert unscaled(acc, den) == {(1,) * k: F(1, k + 1)
                                      for k in range(m + 1)}


def test_scaled_series_of_zero_runs_no_step():
    step = counting(lambda t: t)
    assert scaled_series(step, {}, lambda k: 1, 5, 1) == ({}, 1)
    assert step.calls == 0


def test_scaled_series_numerators_over_den_are_the_fraction_sum():
    """The step right-multiplies integer numerators by a1 + 2 b1, so read
    over a denominator it multiplies by v = (a1 + 2 b1) / 3 and puts a
    factor 3 on the denominator: the sum is that of coeff(k) x v^k."""
    n, x = 4, {(): 2, (0, 1): -1}
    v = {(0,): F(1, 3), (1,): F(2, 3)}

    def coeff(k):
        return F((-1) ** k, k + 1)
    acc, den = scaled_series(lambda t: _product(t, {(0,): 1, (1,): 2}, n),
                             x, coeff, n, 3)
    assert all(type(c) is int for c in acc.values())
    expected: dict = {}
    power = {w: F(c) for w, c in x.items()}
    for k in range(n + 1):
        add_into(expected, power, coeff(k))
        power = series_oracle.mul(power, v, n)
    assert not power
    assert unscaled(acc, den) == expected


def test_check_kind_refuses_a_bool_as_an_int():
    check_kind(3, int, "k")
    check_kind(True, bool, "flag")
    check_kind(True, object, "x")
    for value in (True, False):
        with pytest.raises(ValueError, match="^k must be an int, not bool$"):
            check_kind(value, int, "k")
