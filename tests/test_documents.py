"""Serialization round trips and diagnostics for the interchange formats."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lietrees.documents import (DocumentError, automorphism_from_doc,
                                automorphism_to_doc, dump_json,
                                expansion_from_doc, expansion_to_doc,
                                lie_series_from_doc, lie_series_to_doc,
                                load_json, tree_combo_from_text,
                                tree_combo_to_text)
from lietrees.free_lie import LieSeries, lyndon_basis
from lietrees.jacobi import TreeCombo, random_tree, tree_equal
from lietrees.johnson import LieAutomorphism, random_ic_element
from lietrees.symplectic import construct_symplectic, paper_example_expansion
from lietrees.tensor_hopf import ExpansionMap, TensorSeries

F = Fraction


def sample_series(seed=0):
    rng = random.Random(seed)
    coords = {}
    for d in range(1, 5):
        for w in lyndon_basis(2, d):
            if rng.random() < 0.5:
                coords[w] = F(rng.randint(-9, 9), rng.randint(1, 7))
    return LieSeries(2, 4, coords)


class TestLieSeriesDocs:
    def test_round_trip(self):
        x = sample_series()
        assert lie_series_from_doc(lie_series_to_doc(x)) == x

    def test_json_round_trip(self):
        x = sample_series(3)
        text = dump_json(lie_series_to_doc(x))
        assert text.endswith("\n")
        assert lie_series_from_doc(load_json(text)) == x

    def test_terms_sorted_by_degree(self):
        doc = lie_series_to_doc(sample_series(1))
        lens = [len(t["word"]) for t in doc["terms"]]
        assert lens == sorted(lens)

    def test_coefficients_are_strings(self):
        doc = lie_series_to_doc(LieSeries(1, 2, {(0, 1): F(-3, 2)}))
        assert doc["terms"][0]["coefficient"] == "-3/2"
        assert doc["terms"][0]["word"] == ["a1", "b1"]

    def test_int_coefficients_write_like_fractions(self):
        # bracket tables are int, so a series built from them may hold int
        coords = {(0,): 3, (0, 1): -1, (0, 0, 1): 2}
        as_int = LieSeries.zero(2, 3)._like(dict(coords))
        as_fraction = LieSeries(2, 3, coords)
        assert dump_json(lie_series_to_doc(as_int)) == \
            dump_json(lie_series_to_doc(as_fraction))

    def test_diagnostics_name_the_field(self):
        base = {"genus": 1, "max_degree": 3, "terms": []}
        cases = [
            (dict(base, extra=1), "extra"),
            (dict(base, terms=[{"coefficient": "x", "word": ["a1"]}]),
             "terms[0].coefficient"),
            (dict(base, terms=[{"coefficient": "1", "word": ["z9"]}]),
             "terms[0].word"),
            (dict(base, terms=[{"coefficient": "1", "word": ["b1", "a1"]}]),
             "not a Lyndon word"),
            (dict(base, terms=[{"coefficient": "1",
                                "word": ["a1", "a1", "a1", "b1"]}]),
             "above max_degree"),
            (dict(base, genus="two"), "genus"),
        ]
        for doc, needle in cases:
            with pytest.raises(DocumentError) as err:
                lie_series_from_doc(doc)
            assert needle in str(err.value)

    def test_duplicate_words_rejected(self):
        doc = {"genus": 1, "max_degree": 2,
               "terms": [{"coefficient": "1", "word": ["a1"]},
                         {"coefficient": "2", "word": ["a1"]}]}
        with pytest.raises(DocumentError):
            lie_series_from_doc(doc)

    def test_malformed_json(self):
        with pytest.raises(DocumentError):
            load_json("{not json")


class TestExpansionDocs:
    def test_round_trip(self):
        theta = construct_symplectic(2, 4)
        doc = expansion_to_doc(theta)
        assert expansion_from_doc(doc) == theta

    def test_published_example_round_trip(self):
        theta = paper_example_expansion(1)
        text = dump_json(expansion_to_doc(theta))
        assert expansion_from_doc(json.loads(text)) == theta

    def test_requires_every_generator(self):
        doc = expansion_to_doc(construct_symplectic(1, 3))
        del doc["images"]["b1"]
        with pytest.raises(DocumentError) as err:
            expansion_from_doc(doc)
        assert "b1" in str(err.value)

    def test_rejects_unknown_generator(self):
        doc = expansion_to_doc(construct_symplectic(1, 3))
        doc["images"]["a2"] = doc["images"]["a1"]
        with pytest.raises(DocumentError) as err:
            expansion_from_doc(doc)
        assert "images.a2" in str(err.value)


class TestAutomorphismDocs:
    def test_round_trip(self):
        psi = random_ic_element(2, 2, 5, 4)
        assert automorphism_from_doc(automorphism_to_doc(psi)) == psi

    def test_degree_one_part_checked(self):
        doc = automorphism_to_doc(random_ic_element(1, 1, 0, 2))
        doc["images"]["a1"] = [{"coefficient": "2", "word": ["a1"]}]
        with pytest.raises(DocumentError) as err:
            automorphism_from_doc(doc)
        assert "images.a1" in str(err.value)


class TestTreeText:
    def test_round_trip(self):
        for genus, d, seed in ((2, 1, 0), (2, 2, 1), (3, 2, 2)):
            c = random_tree(genus, d, random.Random(seed))
            back = tree_combo_from_text(tree_combo_to_text(c), genus)
            assert back == c
            assert tree_equal(back, c)

    def test_blank_lines_and_comments_skipped(self):
        text = "# a comment\n\n1 (a1 (b1 a2))\n"
        c = tree_combo_from_text(text, 2)
        assert len(c.coords) == 1

    def test_zero_combo_renders_empty(self):
        from lietrees.jacobi import TreeCombo
        assert tree_combo_to_text(TreeCombo.zero(2)) == ""
        assert tree_combo_from_text("", 2).is_zero()

    def test_missing_coefficient(self):
        with pytest.raises(DocumentError) as err:
            tree_combo_from_text("(a1 (b1 a2))", 2)
        assert "line 1" in str(err.value)

    def test_bad_tree_syntax(self):
        with pytest.raises(DocumentError):
            tree_combo_from_text("1/2 (a1 (b1)", 2)

    def test_bad_coefficient(self):
        with pytest.raises(DocumentError):
            tree_combo_from_text("q (a1 (b1 a2))", 2)


def rand_coeff(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 7))


def rand_lie_coords(rng, genus, lo, n):
    return {w: rand_coeff(rng) for d in range(lo, n + 1)
            for w in lyndon_basis(genus, d) if rng.random() < 0.4}


def through_json(doc):
    return load_json(dump_json(doc))


SIZES = dict(genus=st.integers(1, 2), n=st.integers(1, 4),
             seed=st.integers(0, 10**6))


class TestWriterRoundTrips:
    """Whatever a writer emits, its reader turns back into the same value."""

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_lie_series(self, genus, n, seed):
        x = LieSeries(genus, n, rand_lie_coords(random.Random(seed), genus, 1, n))
        assert lie_series_from_doc(through_json(lie_series_to_doc(x))) == x

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_expansion(self, genus, n, seed):
        rng = random.Random(seed)
        words = [w for d in range(n + 1)
                 for w in product(range(2 * genus), repeat=d)]
        theta = ExpansionMap(genus, n, {
            l: TensorSeries(genus, n, {w: rand_coeff(rng) for w in words
                                       if rng.random() < 0.3})
            for l in range(2 * genus)})
        assert expansion_from_doc(through_json(expansion_to_doc(theta))) == theta

    @settings(max_examples=25, deadline=None)
    @given(**SIZES)
    def test_automorphism(self, genus, n, seed):
        rng = random.Random(seed)
        psi = LieAutomorphism(genus, n, {
            l: LieSeries.gen(genus, n, l)
            + LieSeries(genus, n, rand_lie_coords(rng, genus, 2, n))
            for l in range(2 * genus)})
        assert automorphism_from_doc(through_json(automorphism_to_doc(psi))) == psi

    @settings(max_examples=25, deadline=None)
    @given(genus=st.integers(1, 3), terms=st.integers(0, 3),
           seed=st.integers(0, 10**6))
    def test_tree_text(self, genus, terms, seed):
        rng = random.Random(seed)
        combo = TreeCombo.zero(genus)
        for _ in range(terms):
            combo = combo + rand_coeff(rng) * random_tree(
                genus, rng.randint(1, 3), rng)
        text = tree_combo_to_text(combo)
        back = tree_combo_from_text(text, genus)
        assert back == combo
        assert tree_combo_to_text(back) == text
