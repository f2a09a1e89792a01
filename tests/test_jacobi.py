"""Tree diagrams: canonical forms, comm, fission, eta and its inverse."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lietrees import jacobi
from lietrees.free_lie import (LieSeries, _letter_weight, _split_by_weight,
                               bracket_basis, bracket_kernel_dim, gen_count,
                               lyndon_basis, witt_dim)
from lietrees.jacobi import (HLieTensor, TreeCombo, TreeDiagram,
                             _caterpillars, _encode, _eta_solver, _hl_block,
                             comm, eta, eta_inverse, fission,
                             ihx_combination, parse_tree_text,
                             random_tree, tree_equal, tree_space_dim,
                             tree_text)
from lietrees.koszul import wedge_chain_from_terms
from lietrees.sparse import add_term
import linalg_oracle
from linalg_oracle import _eliminate, kernel_from_rref, rank_of_columns

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
        (tree, coeff), = c.coords.items()
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

    def test_a_tensor_outside_the_kernel_is_refused_by_name(self):
        # a kernel element plus a1 (x) a1.b1.a2, whose bracket is nonzero
        x = eta(random_tree(2, 2, random.Random(1)))
        bad = x + HLieTensor(2, {(0, (0, 1, 2)): F(1)})
        assert not bad.bracket_contraction().is_zero()
        with pytest.raises(ValueError,
                           match="^input not in the bracket kernel$"):
            eta_inverse(bad, 2)

    def test_a_kernel_element_takes_no_bracket_contraction(self, monkeypatch):
        x = eta(random_tree(2, 2, random.Random(1)))
        eta_inverse(x, 2)                   # builds the block solvers
        calls = []
        real = HLieTensor.bracket_contraction
        monkeypatch.setattr(HLieTensor, "bracket_contraction",
                            lambda t: calls.append(t) or real(t))
        assert eta(eta_inverse(x, 2)) == x
        assert calls == []

    # genus 1 has no nonzero tree space in degree 3
    @pytest.mark.parametrize("genus, d",
                             [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_the_fraction_oracle_on_real_blocks(self, genus, d):
        # x is a random combination of the caterpillars of up to four
        # weights; each block's free-variables-zero solution over their
        # etas, in order, is read off the Gauss-Jordan oracle
        rng = random.Random(10 * genus + d)
        blocks = [mu for mu in weights(genus, d) if _caterpillars(genus, d, mu)]
        x = HLieTensor.zero(genus)
        for mu in rng.sample(blocks, min(4, len(blocks))):
            for t in _caterpillars(genus, d, mu):
                c = rng.choice((-1, 1)) * F(rng.randint(1, 4), rng.randint(1, 3))
                x = x + c * eta(TreeCombo.single(t))
        expect = {}
        for mu, block in _split_by_weight(
                x.coords, genus, lambda hw: (hw[0], *hw[1])).items():
            row = {hw: i for i, hw in enumerate(_hl_block(mu))}
            trees = _caterpillars(genus, d, mu)
            rows = [{} for _ in row]
            for j, t in enumerate(trees):
                for hw, c in eta(TreeCombo.single(t)).coords.items():
                    rows[row[hw]][j] = c
            y = linalg_oracle.solve(rows, len(trees),
                                    {row[hw]: c for hw, c in block.items()})
            expect.update((trees[j], v) for j, v in y.items())
        assert expect and eta_inverse(x, d).coords == expect

    def test_a_failed_solve_in_the_kernel_is_a_solver_fault(self, monkeypatch):
        class NoSolution:
            def unit(self, key):
                return {}, {0: 1}, 1        # no solution, and a residual

        monkeypatch.setattr(jacobi, "_eta_solver", lambda *block: NoSolution())
        x = eta(random_tree(2, 1, random.Random(0)))
        with pytest.raises(RuntimeError,
                           match="^kernel element outside the certified span$"):
            eta_inverse(x, 1)

    def test_a_column_outside_the_kernel_fails_certification(self, monkeypatch):
        # every caterpillar's eta replaced by a1 (x) [a1, b1], which the
        # bracket does not kill
        monkeypatch.setattr(jacobi, "eta", lambda c: HLieTensor(
            c.genus, {(0, (0, 1)): F(1)}))
        mu = next(mu for mu in hl_blocks(1, 2) if _caterpillars(1, 2, mu))
        _eta_solver.cache_clear()
        try:
            with pytest.raises(RuntimeError,
                               match="is outside the bracket kernel$"):
                _eta_solver(1, 2, mu)
        finally:
            _eta_solver.cache_clear()

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
            for j, v in basis[i].items():
                add_term(acc, keys[j], c * v)
        x = HLieTensor(genus, acc)
        assert eta(eta_inverse(x, d)) == x

    @pytest.mark.parametrize("genus, d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_every_block_certifies_and_the_ranks_sum_to_the_dimension(
            self, genus, d):
        expect = (2 * genus * witt_dim(2 * genus, d + 1)
                  - witt_dim(2 * genus, d + 2))
        assert sum(_eta_solver(genus, d, mu).rank
                   for mu in hl_blocks(genus, d)) == expect

    def test_a_block_missing_a_diagram_names_its_degree_and_weight(
            self, monkeypatch):
        # a block whose caterpillars are independent loses rank with any one
        d = 2
        mu = next(mu for mu in hl_blocks(2, d)
                  if 0 < len(_caterpillars(2, d, mu))
                  == bracket_kernel_dim(mu))
        real = jacobi._caterpillars
        monkeypatch.setattr(jacobi, "_caterpillars",
                            lambda *block: real(*block)[1:])
        _eta_solver.cache_clear()
        with pytest.raises(RuntimeError,
                           match=re.escape(f"at degree {d}, weight {mu}")):
            _eta_solver(2, d, mu)


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


def c1_below_c2_caterpillars(genus, d):
    """The enumeration before orbit pruning: every colouring with c1 < c2
    is built, and repeated diagrams are skipped as they come."""
    seen = set()
    out = {}
    for colors in product(range(gen_count(genus)), repeat=d + 2):
        if d > 0 and colors[1] >= colors[2]:
            continue
        plant = colors[1]
        for x in colors[2:]:
            plant = (plant, x)
        tree, _ = TreeDiagram.build(genus, colors[0], plant)
        if tree is not None and tree not in seen:
            seen.add(tree)
            out.setdefault(_letter_weight(colors, genus), []).append(tree)
    return out


@lru_cache(maxsize=None)
def hl_blocks(genus, d):
    """Basis keys (h, w) of H (x) L_{d+1} by weight, split from the whole
    product of the letters and the Lyndon basis: the oracle for the
    per-weight `jacobi._hl_block`."""
    return _split_by_weight(dict.fromkeys(product(range(gen_count(genus)),
                                                  lyndon_basis(genus, d + 1))),
                            genus, lambda hw: (hw[0], *hw[1]))


def weights(genus, d):
    """Every letter-count vector of the degree-d caterpillars' d + 2 leaves."""
    return [mu for mu in product(range(d + 3), repeat=gen_count(genus))
            if sum(mu) == d + 2]


def family_keys(genus, d):
    """The per-weight caterpillar families over every weight, empty ones
    left out, as {weight: keys in family order}."""
    out = {}
    for mu in weights(genus, d):
        keys = [t.key for t in _caterpillars(genus, d, mu)]
        if keys:
            out[mu] = keys
    return out


def bucket_keys(buckets):
    return {mu: [t.key for t in trees] for mu, trees in buckets.items()}


def product_walk_colourings(genus, d):
    """Caterpillar colourings by weight from a walk of every colouring in
    product order, under the symmetry filter of `_caterpillar_colourings`."""
    out = {}
    for colors in product(range(gen_count(genus)), repeat=d + 2):
        if d > 0 and colors[1] >= colors[2]:
            continue
        if d > 1:
            c0, c1, c2, last, mid = (*colors[:3], colors[-1], colors[-2:2:-1])
            if c0 > last or any((x, z, t, *mid, y) < colors
                                for x, y in ((c1, c2), (c2, c1))
                                for z, t in ((c0, last), (last, c0))):
                continue
        out.setdefault(_letter_weight(colors, genus), []).append(colors)
    return out


class TestCaterpillars:
    @pytest.mark.parametrize("genus, d", [(1, 3), (2, 2), (2, 3), (2, 4),
                                          (3, 3)])
    def test_hl_block_is_the_weight_block_of_the_whole_space(self, genus, d):
        blocks = hl_blocks(genus, d)
        for mu in weights(genus, d):
            assert _hl_block(mu) == list(blocks.get(mu, {}))

    @pytest.mark.parametrize("genus, d", [(1, 3), (2, 2), (2, 3), (2, 4),
                                          (2, 5), (3, 3)])
    def test_colourings_per_weight_match_the_product_walk(self, genus, d):
        walk = product_walk_colourings(genus, d)
        for mu in weights(genus, d):
            assert (jacobi._caterpillar_colourings(genus, d, mu)
                    == walk.get(mu, []))

    @pytest.mark.parametrize("genus, d", [(1, 1), (1, 2), (1, 3), (2, 1),
                                          (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_brute_force_in_order(self, genus, d):
        assert family_keys(genus, d) == brute_caterpillars(genus, d)

    @pytest.mark.parametrize(
        "genus, d", [(g, d) for g in (1, 2) for d in range(6)]
        + [(3, d) for d in range(4)])
    def test_orbit_pruning_matches_c1_below_c2_loop(self, genus, d):
        # equal weights, equal keys, equal order within each weight;
        # d = 0 and d = 1 stay on the c1 < c2 rule
        assert (family_keys(genus, d)
                == bucket_keys(c1_below_c2_caterpillars(genus, d)))

    @pytest.mark.parametrize("genus, d", [(1, 4), (2, 2), (2, 4), (3, 3)])
    def test_each_orbit_built_once(self, genus, d, monkeypatch):
        built = []
        real = TreeDiagram.build.__func__

        def record(cls, *args):
            out = real(cls, *args)
            built.append(out[0])
            return out

        monkeypatch.setattr(TreeDiagram, "build", classmethod(record))
        families = [_caterpillars(genus, d, mu) for mu in weights(genus, d)]
        nonzero = [t for t in built if t is not None]
        assert len(nonzero) == len(set(nonzero))
        assert len(nonzero) == sum(map(len, families))

    @pytest.mark.parametrize("genus, d", [(2, 3), (3, 2)])
    def test_builds_only_the_requested_weight(self, genus, d, monkeypatch):
        families = family_keys(genus, d)
        mu = max(families, key=lambda m: len(families[m]))
        leaves = []
        real = TreeDiagram.build.__func__

        def record(cls, genus, root, plant):
            flat, stack = [root], [plant]
            while stack:
                p = stack.pop()
                if isinstance(p, int):
                    flat.append(p)
                else:
                    stack.extend(p)
            leaves.append(_letter_weight(flat, genus))
            return real(cls, genus, root, plant)

        monkeypatch.setattr(TreeDiagram, "build", classmethod(record))
        assert _caterpillars(genus, d, mu)
        assert leaves and set(leaves) == {mu}


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

    @pytest.mark.parametrize("genus, d", [(g, d) for g in (1, 2)
                                          for d in range(6)]
                             + [(3, d) for d in range(4)])
    def test_census_is_the_rank_on_every_block(self, genus, d):
        for mu, keys in hl_blocks(genus, d).items():
            cols = [bracket_basis((h,), w) for h, w in keys]
            assert bracket_kernel_dim(mu) == len(keys) - rank_of_columns(cols)

    def test_an_off_by_one_census_fails_the_solver_certificate(
            self, monkeypatch):
        d, mu = 2, (1, 1, 1, 1)
        monkeypatch.setattr(jacobi, "bracket_kernel_dim",
                            lambda mu: bracket_kernel_dim(mu) + 1)
        _eta_solver.cache_clear()
        with pytest.raises(RuntimeError, match=re.escape(
                f"does not span tree space at degree {d}, weight {mu}")):
            _eta_solver(2, d, mu)

    def test_counted_without_building_a_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tree block was built")

        monkeypatch.setattr(jacobi, "_hl_block", refuse)
        monkeypatch.setattr(jacobi, "BlockSolver", refuse)
        assert tree_space_dim(3, 7) == 6 * witt_dim(6, 8) - witt_dim(6, 9)

    def test_formula(self):
        for genus in (1, 2, 3):
            for d in range(1, 5):
                expect = (2 * genus * witt_dim(2 * genus, d + 1)
                          - witt_dim(2 * genus, d + 2))
                assert tree_space_dim(genus, d) == expect


def nested_series(genus, nested, cap):
    """Iterated bracket of a nested pair structure, rebuilt from its leaves."""
    if isinstance(nested, int):
        return LieSeries(genus, cap, {(nested,): F(1)})
    return nested_series(genus, nested[0], cap).bracket(
        nested_series(genus, nested[1], cap))


def fission_per_vertex(c, nilpotency_class=None):
    """Fission that rebuilds all three subtree brackets at every vertex,
    untruncated, and leaves the class cut to the wedge chain."""
    degs = c.degrees()
    if nilpotency_class is None:
        nilpotency_class = degs[-1] + 1 if degs else 1
    terms = []
    for tree, coeff in sorted(c.coords.items(), key=lambda t: t[0].key):
        kinds, _, nbrs = tree.graph()
        nleaves = len(tree.leaf_ids())
        for v in range(len(kinds)):
            if kinds[v] != "int":
                continue
            vals = [nested_series(tree.genus, _encode(tree.graph(), u, v),
                                  nleaves) for u in nbrs[v]]
            for w0, c0 in vals[0].coords.items():
                for w1, c1 in vals[1].coords.items():
                    for w2, c2 in vals[2].coords.items():
                        terms.append(((w0, w1, w2), coeff * c0 * c1 * c2))
    return wedge_chain_from_terms(c.genus, nilpotency_class, 3, terms)


def eta_per_leaf(c):
    """eta that rebuilds the bracket of the rest at every leaf."""
    acc = {}
    for tree, coeff in c.coords.items():
        kinds, colors, nbrs = tree.graph()
        cap = len(tree.leaf_ids()) - 1
        for v in range(len(kinds)):
            if kinds[v] == "leaf":
                val = nested_series(tree.genus,
                                    _encode(tree.graph(), nbrs[v][0], v), cap)
                for w, cw in val.coords.items():
                    add_term(acc, (colors[v], w), coeff * cw)
    return HLieTensor(c.genus, acc)


@st.composite
def tree_sums(draw):
    """A seeded random tree, or a small sum of them, at genus 1-3 and
    degree 1-5."""
    genus = draw(st.integers(1, 3))
    combo = TreeCombo.zero(genus)
    for _ in range(draw(st.integers(1, 3))):
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        coeff = F(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        combo = combo + coeff * random_tree(genus, draw(st.integers(1, 5)), rng)
    return combo


class TestFissionOracle:
    """Per-edge shared brackets against the per-vertex rebuild."""

    @pytest.mark.parametrize("cut", ["none", "below", "at_or_above"])
    @settings(max_examples=25, deadline=None)
    @given(combo=tree_sums(), data=st.data())
    def test_fission_matches_per_vertex_rebuild(self, cut, combo, data):
        # a degree-D tree's largest subtree at a vertex has max(D, 1) leaves
        top = max(combo.degrees(), default=1)
        k = {"none": None,
             "below": data.draw(st.integers(1, max(1, top - 1))),
             "at_or_above": data.draw(st.integers(top, top + 2))}[cut]
        got, want = fission(combo, k), fission_per_vertex(combo, k)
        assert got == want
        assert list(got.coords.items()) == list(want.coords.items())

    @settings(max_examples=25, deadline=None)
    @given(combo=tree_sums())
    def test_eta_matches_per_leaf_rebuild(self, combo):
        got, want = eta(combo), eta_per_leaf(combo)
        assert got == want
        assert list(got.coords.items()) == list(want.coords.items())

    @settings(max_examples=25, deadline=None)
    @given(combo=tree_sums())
    def test_comm_matches_per_root_rebuild(self, combo):
        for tree in combo.coords:
            nbrs = tree.graph()[2]
            for v in tree.leaf_ids():
                want = nested_series(tree.genus,
                                     _encode(tree.graph(), nbrs[v][0], v),
                                     len(tree.leaf_ids()) - 1)
                assert comm(tree, v) == want


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

    @pytest.mark.parametrize("genus", [0, -1])
    def test_rejects_a_genus_below_one(self, genus):
        with pytest.raises(ValueError, match="genus must be at least 1"):
            random_tree(genus, 2, random.Random(0))

    def test_rejects_a_negative_degree(self):
        with pytest.raises(ValueError, match="tree degree must be at least 0"):
            random_tree(2, -1, random.Random(0))
        assert random_tree(2, 0, random.Random(0))


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
