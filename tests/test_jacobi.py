"""Tree diagrams: canonical forms, comm, fission, eta and its inverse."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lietrees.exact_linalg import _eliminate, kernel_from_rref
from lietrees.free_lie import (bracket_basis, gen_count, lyndon_basis,
                               witt_dim)
from lietrees.jacobi import (HLieTensor, TreeCombo, TreeDiagram,
                             _caterpillars, comm, eta, eta_inverse, fission,
                             ihx_combination, parse_tree_text, random_tree,
                             tree_equal, tree_space_dim, tree_text)
from lietrees.sparse import add_term

F = Fraction


def y_tree(genus=2):
    t, s = TreeDiagram.build(genus, 0, (1, 2))
    assert s == 1
    return t


class TestCanonicalization:
    def test_child_swap_flips_sign(self):
        t = y_tree()
        t2, s2 = TreeDiagram.build(2, 0, (2, 1))
        assert t2 == t
        assert s2 == -1

    def test_equal_children_vanish(self):
        t, s = TreeDiagram.build(2, 0, (1, 1))
        assert t is None
        assert s == 1

    def test_three_equal_leaves_vanish(self):
        # the two ends of (x (x (y x))) trade places under the mirror
        # symmetry, which is odd here
        t, _ = TreeDiagram.build(1, 0, (0, (1, 0)))
        assert t is None

    def test_root_choice_is_immaterial(self):
        a, sa = TreeDiagram.build(2, 3, ((2, 1), 0))
        b, sb = TreeDiagram.build(2, 2, (1, (0, 3)))
        assert a is not None and b is not None
        assert a == b

    def test_degree_counts_internal_vertices(self):
        assert y_tree().degree == 1
        t, _ = TreeDiagram.build(2, 0, (1, (2, 3)))
        assert t.degree == 2

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError):
            TreeDiagram.build(1, 0, (1, 2))


class TestComm:
    def test_three_leaf_values(self):
        t = y_tree()
        vals = {t.color_of(v): comm(t, v).coords for v in t.leaf_ids()}
        assert vals[0] == {(1, 2): F(1)}
        assert vals[1] == {(0, 2): F(-1)}
        assert vals[2] == {(0, 1): F(1)}

    def test_rejects_internal_vertex(self):
        t = y_tree()
        internal = [v for v in range(4) if v not in t.leaf_ids()]
        with pytest.raises(ValueError):
            comm(t, internal[0])


class TestCombos:
    def test_from_terms_cancels(self):
        c = TreeCombo.from_terms(2, [(F(1), 0, (1, 2)), (F(1), 0, (2, 1))])
        assert c.is_zero()

    def test_from_terms_merges_signs(self):
        c = TreeCombo.from_terms(2, [(F(1), 0, (1, 2)), (F(2), 0, (1, 2))])
        (tree, coeff), = c.terms.values()
        assert coeff == F(3)

    def test_vector_laws(self):
        rng = random.Random(7)
        x = random_tree(2, 2, rng)
        y = random_tree(2, 2, rng)
        assert x + y - y == x
        assert -(- x) == x
        assert F(2) * x == x + x


class TestEta:
    def test_three_leaf_expansion(self):
        got = eta(TreeCombo.single(y_tree()))
        assert got.coords == {(0, (1, 2)): F(1),
                              (1, (0, 2)): F(-1),
                              (2, (0, 1)): F(1)}

    def test_linear(self):
        rng = random.Random(3)
        x = random_tree(2, 2, rng)
        y = random_tree(2, 2, rng)
        assert eta(x + y) == eta(x) + eta(y)

    def test_kills_jacobi_relator(self):
        assert eta(ihx_combination(2, 0, 1, 2, 3)).is_zero()
        assert eta(ihx_combination(2, 1, 3, 0, 2)).is_zero()

    def test_tree_equal_uses_relations(self):
        c = ihx_combination(2, 0, 1, 2, 3)
        assert tree_equal(c, TreeCombo.zero(2))
        assert not tree_equal(TreeCombo.single(y_tree()), TreeCombo.zero(2))


class TestEtaInverse:
    def test_round_trip(self):
        for genus, d, seed in ((2, 1, 0), (2, 2, 1), (2, 2, 9), (3, 1, 4)):
            c = random_tree(genus, d, random.Random(seed))
            x = eta(c)
            assert not x.is_zero()
            back = eta_inverse(x, d)
            assert eta(back) == x
            assert tree_equal(back, c)

    def test_rejects_values_outside_image(self):
        bad = HLieTensor(1, {(0, (0, 1)): F(1)})   # not in the image at genus 1
        with pytest.raises(ValueError):
            eta_inverse(bad, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_on_bracket_kernel(self, data):
        genus, d = data.draw(st.sampled_from(
            [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
        keys, basis = bracket_kernel(genus, d)
        picks = data.draw(st.dictionaries(
            st.integers(0, len(basis) - 1), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=4))
        acc = {}
        for i, c in picks.items():
            for key, v in zip(keys, basis[i]):
                add_term(acc, key, c * v)
        x = HLieTensor(genus, acc)
        assert eta(eta_inverse(x, d)) == x


@lru_cache(maxsize=None)
def bracket_kernel(genus, d):
    """Keys of H (x) L_{d+1} and a basis of the kernel of (h, u) -> [h, u],
    computed from the bracket tables alone, without eta or trees."""
    keys = [(h, w) for h in range(gen_count(genus))
            for w in lyndon_basis(genus, d + 1)]
    cols = [bracket_basis((h,), w) for h, w in keys]
    targets = sorted({u for col in cols for u in col})
    rows = [{j: col[u] for j, col in enumerate(cols) if u in col}
            for u in targets]
    _, pivots = _eliminate(rows, len(keys))
    return keys, kernel_from_rref(rows, pivots, len(keys))


def brute_caterpillars(genus, d):
    """Every colouring in lexicographic order, deduplicated by diagram."""
    n = gen_count(genus)
    seen = set()
    out = {}
    for colors in product(range(n), repeat=d + 2):
        plant = colors[1]
        for x in colors[2:]:
            plant = (plant, x)
        tree, _ = TreeDiagram.build(genus, colors[0], plant)
        if tree is None or tree.key in seen:
            continue
        seen.add(tree.key)
        mu = tuple(colors.count(i) for i in range(n))
        out.setdefault(mu, []).append(tree.key)
    return out


class TestCaterpillars:
    @pytest.mark.parametrize("genus, d", [(1, 1), (1, 2), (1, 3), (2, 1),
                                          (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_brute_force_in_order(self, genus, d):
        got = [(mu, [t.key for t in trees])
               for mu, trees in _caterpillars(genus, d).items()]
        assert got == list(brute_caterpillars(genus, d).items())


class TestHLieTensor:
    @pytest.mark.parametrize("word", [(), (1, 0), (0, 1, 0)])
    def test_rejects_empty_and_non_lyndon_words(self, word):
        with pytest.raises(ValueError, match="not a Lyndon word"):
            HLieTensor(1, {(0, word): F(1)})

    def test_rejects_letter_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            HLieTensor(1, {(2, (0, 1)): F(1)})


class TestDimensions:
    def test_frozen_values(self):
        table = {(1, 1): 0, (1, 2): 1, (1, 3): 0,
                 (2, 1): 4, (2, 2): 20, (2, 3): 36}
        for (genus, d), expect in table.items():
            assert tree_space_dim(genus, d) == expect

    def test_matches_rank_of_eta_on_caterpillars(self):
        # caterpillars span the space, so the eta rank is the dimension
        from lietrees.exact_linalg import rank_of_columns
        from lietrees.free_lie import gen_count
        for genus, d in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
            n = gen_count(genus)
            cols = []
            seen = set()
            for code in range(n ** (d + 2)):
                colors = []
                c = code
                for _ in range(d + 2):
                    colors.append(c % n)
                    c //= n
                root = colors[0]
                plant = colors[1]
                for x in colors[2:]:
                    plant = (plant, x)
                tree, _ = TreeDiagram.build(genus, root, plant)
                if tree is None or tree.key in seen:
                    continue
                seen.add(tree.key)
                cols.append(dict(eta(TreeCombo.single(tree)).coords))
            assert rank_of_columns(cols) == tree_space_dim(genus, d)

    @pytest.mark.parametrize("genus", [0, -1])
    def test_rejects_genus_below_one(self, genus):
        with pytest.raises(ValueError):
            tree_space_dim(genus, 1)

    def test_formula(self):
        for genus in (1, 2, 3):
            for d in range(1, 5):
                expect = (2 * genus * witt_dim(2 * genus, d + 1)
                          - witt_dim(2 * genus, d + 2))
                assert tree_space_dim(genus, d) == expect


class TestFission:
    def test_three_leaf_tree(self):
        ch = fission(TreeCombo.single(y_tree()))
        assert ch.arity == 3
        assert ch.coords == {((0,), (1,), (2,)): F(1)}

    def test_respects_scalars(self):
        c = random_tree(2, 2, random.Random(11))
        assert fission(F(3) * c) == F(3) * fission(c)

    def test_zero_on_empty(self):
        assert fission(TreeCombo.zero(2), 2).is_zero()


class TestRandomTrees:
    def test_deterministic(self):
        a = random_tree(2, 2, random.Random(5))
        b = random_tree(2, 2, random.Random(5))
        assert a == b

    def test_prefers_eta_nonzero(self):
        c = random_tree(2, 3, random.Random(2))
        assert not eta(c).is_zero()

    def test_degenerate_slots(self):
        # genus 1, odd degree: every tree dies under antisymmetry alone,
        # so the sampler has nothing to return
        assert random_tree(1, 1, random.Random(0)).is_zero()
        assert random_tree(1, 3, random.Random(0)).is_zero()


class TestText:
    def test_render(self):
        assert tree_text(y_tree()) == "(a1 (b1 a2))"

    def test_round_trip(self):
        for genus, root, plant in ((2, 1, ((0, 2), 3)),
                                   (2, 0, (1, (2, 3))),
                                   (3, 4, (0, (5, (1, 2))))):
            t, _ = TreeDiagram.build(genus, root, plant)
            r2, p2 = parse_tree_text(tree_text(t), genus)
            t2, s2 = TreeDiagram.build(genus, r2, p2)
            assert t2 == t
            assert s2 == 1

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_tree_text("(a1 b9)", 1)
        with pytest.raises(ValueError):
            parse_tree_text("(a1 (b1)", 1)
