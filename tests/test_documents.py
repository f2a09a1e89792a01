"""Serialization round trips and diagnostics for the interchange formats."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lietrees import documents
from lietrees.documents import (DocumentError, automorphism_from_doc,
                                automorphism_to_doc, dump_json,
                                expansion_from_doc, expansion_to_doc,
                                lie_series_from_doc, lie_series_to_doc,
                                load_json, tree_combo_from_text,
                                tree_combo_to_text)
from lietrees.free_lie import (LieSeries, letter_label, lyndon_basis,
                               parse_letter)
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

    def test_rejects_a_name_that_only_parses_to_a_generator(self):
        doc = expansion_to_doc(construct_symplectic(1, 3))
        doc["images"]["a01"] = doc["images"].pop("a1")
        with pytest.raises(DocumentError,
                           match=r"^images\.a01: unknown generator$"):
            expansion_from_doc(doc)

    @pytest.mark.parametrize("read", [expansion_from_doc,
                                      automorphism_from_doc])
    def test_rejects_keys_of_mixed_types(self, read):
        images = {"a1": [term("1", "a1")], 3: [], "zz": []}
        with pytest.raises(DocumentError,
                           match=r"^images\.3: unknown generator$"):
            read({"genus": 1, "max_degree": 2, "images": images})

    def test_missing_image_costs_no_pass_over_the_genus(self, monkeypatch):
        calls = []
        real = documents.letter_label
        monkeypatch.setattr(documents, "letter_label",
                            lambda l: calls.append(l) or real(l))
        with pytest.raises(DocumentError,
                           match=r"^images\.a1: missing generator image$"):
            expansion_from_doc({"genus": 10 ** 4, "max_degree": 1,
                                "images": {}})
        assert len(calls) <= 2


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

    @pytest.mark.parametrize("name", ["a01", "b\u0661"])
    def test_rejects_a_name_that_only_parses_to_a_generator(self, name):
        with pytest.raises(DocumentError,
                           match=f"^line 1: bad generator name '{name}'$"):
            tree_combo_from_text(f"1 (a1 ({name} a2))", 2)


WRONG_KIND_WRITES = {
    "lie_series_to_doc(TensorSeries)": (
        lambda: lie_series_to_doc(TensorSeries.gen(1, 2, 0)),
        "x must be a LieSeries, not TensorSeries"),
    "expansion_to_doc(LieAutomorphism)": (
        lambda: expansion_to_doc(random_ic_element(1, 1, 0, 2)),
        "theta must be an ExpansionMap, not LieAutomorphism"),
    "automorphism_to_doc(ExpansionMap)": (
        lambda: automorphism_to_doc(paper_example_expansion(1)),
        "psi must be a LieAutomorphism, not ExpansionMap"),
    "tree_combo_to_text(str)": (lambda: tree_combo_to_text("x"),
                                "c must be a TreeCombo, not str"),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND_WRITES))
def test_writers_refuse_wrong_kinds_by_name(case):
    write, message = WRONG_KIND_WRITES[case]
    with pytest.raises(ValueError) as err:
        write()
    assert str(err.value) == message


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


def term(c, *word):
    return {"coefficient": c, "word": list(word)}


def expansion_doc(b2):
    """Genus 2, degree 3, every generator sent to 1 + itself but b2."""
    images = {x: [term("1"), term("1", x)] for x in ("a1", "b1", "a2")}
    return {"genus": 2, "max_degree": 3, "images": {**images, "b2": b2}}


def automorphism_doc(b2):
    """Genus 2, degree 3, every generator fixed but b2."""
    images = {x: [term("1", x)] for x in ("a1", "b1", "a2")}
    return {"genus": 2, "max_degree": 3, "images": {**images, "b2": b2}}


def lie_doc(*terms):
    return {"genus": 2, "max_degree": 3, "terms": list(terms)}


ONE, B2 = term("1"), term("1", "b2")

# every message as the reader gave it before terms were checked inline
DIAGNOSTICS = [
    (expansion_from_doc, expansion_doc([ONE, {"coefficient": "1", "word": "b2"}]),
     "images.b2[1].word: word must be a list of generator names"),
    (expansion_from_doc, expansion_doc([ONE, term("1", "b2", 7)]),
     "images.b2[1].word[1]: generator name must be a string"),
    (expansion_from_doc, expansion_doc([ONE, term("1", "b2", ["a1"])]),
     "images.b2[1].word[1]: generator name must be a string"),
    (expansion_from_doc, expansion_doc([ONE, term("1", "b2", "c1")]),
     "images.b2[1].word[1]: unknown generator 'c1'"),
    (expansion_from_doc, expansion_doc([ONE, term("1", "a3")]),
     "images.b2[1].word[0]: unknown generator 'a3'"),
    (expansion_from_doc, expansion_doc([ONE, term("1/0", "b2")]),
     "images.b2[1].coefficient: bad rational '1/0'"),
    (expansion_from_doc, expansion_doc([ONE, term("x", "b2")]),
     "images.b2[1].coefficient: bad rational 'x'"),
    (expansion_from_doc, expansion_doc([ONE, term(1, "b2")]),
     "images.b2[1].coefficient: coefficient must be a rational string"),
    (expansion_from_doc, expansion_doc([ONE, {"word": ["b2"]}]),
     "images.b2[1].coefficient: coefficient must be a rational string"),
    (expansion_from_doc, expansion_doc([ONE, {"coefficient": "1"}]),
     "images.b2[1].word: word must be a list of generator names"),
    (expansion_from_doc,
     expansion_doc([ONE, {"coefficient": "1", "word": ["b2"], "extra": 0}]),
     "images.b2[1].extra: unknown field"),
    (expansion_from_doc, expansion_doc([ONE, term("1", *["b2"] * 4)]),
     "images.b2[1].word: degree above max_degree"),
    (expansion_from_doc, expansion_doc([ONE, ["b2"]]),
     "images.b2[1]: term must be an object"),
    (expansion_from_doc, expansion_doc("b2"),
     "images.b2: expected a list of terms"),
    (expansion_from_doc, expansion_doc([ONE, B2, term("2", "b2")]),
     "images.b2[2].word: duplicate word"),
    (expansion_from_doc, {**expansion_doc([]), "x": 1}, "x: unknown field"),
    (expansion_from_doc, {"genus": 2, "max_degree": 3, "images": {"a1": []}},
     "images.b1: missing generator image"),
    (expansion_from_doc, {"genus": 2, "max_degree": 3, "images": []},
     "images: expected an object keyed by generator"),
    (expansion_from_doc, {"genus": 0, "max_degree": 3, "images": {}},
     "genus: expected an integer >= 1"),
    (expansion_from_doc, {"genus": 2, "max_degree": 0, "images": {}},
     "max_degree: expected an integer >= 1"),
    (expansion_from_doc, [], "document: expected an object"),
    (automorphism_from_doc, automorphism_doc([B2, ONE]),
     "images.b2[1].word: empty word is not a Lyndon word"),
    (automorphism_from_doc, automorphism_doc([B2, term("1", "b2", "a1")]),
     "images.b2[1].word: not a Lyndon word"),
    (automorphism_from_doc, automorphism_doc([B2, term("1", "a1", "b2", "a1")]),
     "images.b2[1].word: not a Lyndon word"),
    (automorphism_from_doc,
     automorphism_doc([B2, term("1", "a1", "a1", "a1", "b2")]),
     "images.b2[1].word: degree above max_degree"),
    (automorphism_from_doc, automorphism_doc([B2, term("1", "a3")]),
     "images.b2[1].word[0]: unknown generator 'a3'"),
    (automorphism_from_doc, automorphism_doc([B2, term("1", "c1")]),
     "images.b2[1].word[0]: unknown generator 'c1'"),
    (automorphism_from_doc, automorphism_doc([B2, term(2, "a1", "b2")]),
     "images.b2[1].coefficient: coefficient must be a rational string"),
    (automorphism_from_doc, automorphism_doc([B2, term("1/0", "a1", "b2")]),
     "images.b2[1].coefficient: bad rational '1/0'"),
    (automorphism_from_doc, automorphism_doc([term("2", "b2")]),
     "images.b2: degree-1 part must be exactly b2"),
    (automorphism_from_doc, automorphism_doc([B2, term("1", "a1")]),
     "images.b2: degree-1 part must be exactly b2"),
    (automorphism_from_doc, automorphism_doc([{"coefficient": "1", "word": 3}]),
     "images.b2[0].word: word must be a list of generator names"),
    (lie_series_from_doc, lie_doc(term("1", "b1", "a1")),
     "terms[0].word: not a Lyndon word"),
    (lie_series_from_doc, lie_doc(term("1")),
     "terms[0].word: empty word is not a Lyndon word"),
    (lie_series_from_doc, lie_doc(term("1", "z9")),
     "terms[0].word[0]: unknown generator 'z9'"),
    (lie_series_from_doc, lie_doc("a1"), "terms[0]: term must be an object"),
    (lie_series_from_doc, {"genus": 2, "max_degree": 3, "terms": {}},
     "terms: expected a list of terms"),
    (lie_series_from_doc, {"genus": "two", "max_degree": 3, "terms": []},
     "genus: expected an integer >= 0"),
    (lie_series_from_doc, lie_doc(term("1", "a01")),
     "terms[0].word[0]: unknown generator 'a01'"),
    (lie_series_from_doc, lie_doc(term("1", "b\u0661")),
     "terms[0].word[0]: unknown generator 'b\u0661'"),
    (expansion_from_doc, expansion_doc([ONE, term("1", "b02")]),
     "images.b2[1].word[0]: unknown generator 'b02'"),
]


@pytest.mark.parametrize("read, doc, message", DIAGNOSTICS)
def test_diagnostic_messages(read, doc, message):
    with pytest.raises(DocumentError) as err:
        read(doc)
    assert str(err.value) == message


# a word given twice is refused whatever the coefficients and their order
DUPLICATES = [
    (expansion_from_doc, lambda ts: expansion_doc([ONE, *ts]),
     ("a1", "b1"), "images.b2[2].word: duplicate word"),
    (automorphism_from_doc, lambda ts: automorphism_doc([B2, *ts]),
     ("a1", "b1"), "images.b2[2].word: duplicate word"),
    (lie_series_from_doc, lambda ts: lie_doc(*ts),
     ("a1", "b1"), "terms[1].word: duplicate word"),
]


@pytest.mark.parametrize("read, make, word, message", DUPLICATES)
@pytest.mark.parametrize("first, second",
                         [("0", "1/2"), ("1/2", "0"), ("0", "0"), ("1", "2")])
def test_duplicate_word_in_either_order(read, make, word, message,
                                        first, second):
    doc = make([term(first, *word), term(second, *word)])
    with pytest.raises(DocumentError) as err:
        read(doc)
    assert str(err.value) == message


def assert_fraction_coords(x):
    assert all(type(c) is F and c for c in x.coords.values()), x.coords


def raw_coords(terms, genus):
    """The terms of a document as {word: coefficient string}."""
    return {tuple(parse_letter(name, genus) for name in t["word"]):
            t["coefficient"] for t in terms}


class TestReadersMatchTheCheckedConstructors:
    """The readers build through the unchecked `_of`; what they build
    equals the checked constructors' value, all coefficients Fractions."""

    def test_expansion(self):
        doc = expansion_to_doc(construct_symplectic(2, 4))
        doc["images"]["a1"].append(term("0", "b2", "b2"))
        theta = expansion_from_doc(through_json(doc))
        for l, image in theta.images.items():
            raw = raw_coords(doc["images"][letter_label(l)], 2)
            assert image == TensorSeries(2, 4, raw)
            assert_fraction_coords(image)
        assert (3, 3) not in theta.images[0].coords

    def test_automorphism(self):
        psi = random_ic_element(2, 2, 5, 4)
        doc = automorphism_to_doc(psi)
        back = automorphism_from_doc(through_json(doc))
        for l, image in back.images.items():
            raw = raw_coords(doc["images"][letter_label(l)], 2)
            assert image == LieSeries(2, 4, raw)
            assert_fraction_coords(image)

    def test_lie_series(self):
        doc = lie_series_to_doc(sample_series(2))
        doc["terms"].append(term("0", "a1", "a1", "b1"))
        x = lie_series_from_doc(through_json(doc))
        assert x == LieSeries(2, 4, raw_coords(doc["terms"], 2))
        assert_fraction_coords(x)


def outcome(parse, text):
    """The value parse gives text, or the type of error it raises."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)
    assert type(value) is F
    return value


DIGITS = st.text("0123456789", min_size=1, max_size=12)
RESPELLINGS = st.one_of(
    st.builds(lambda p, q: str(F(p, q)), st.integers(), st.integers(1)),
    st.builds(lambda s, p, q: f"{s}{p}/{q}", st.sampled_from(["", "-", "+"]),
              DIGITS, DIGITS),
    st.builds(lambda s, p: f"{s}{p}", st.sampled_from(["", "-", "+", "--"]),
              DIGITS),
    st.builds(lambda a, p, b: f"{a}{p}{b}",
              st.sampled_from([" ", "\t", "\n", ""]), DIGITS,
              st.sampled_from([" ", "\n", "", " /2", "/ 2"])),
    st.builds(lambda p, q, e: f"{p}.{q}{e}", DIGITS, DIGITS,
              st.sampled_from(["", "e3", "E-2", "e+1"])),
    st.builds(lambda p, q: f"{p}_{q}", DIGITS, DIGITS),
    st.builds(lambda p, d: p + d, DIGITS,
              st.sampled_from(["\u0661", "\u0669", "\uff11", "\u00b2"])),
    st.sampled_from(["1/0", "-0/0", "0", "-0", "", "/", "1/", "/2", "1//2",
                     "nan", "inf", "0x10", "1/-2", "١/٢"]),
    st.builds(lambda n, tail: "1" * n + tail, st.integers(4290, 4310),
              st.sampled_from(["", "/3"])),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(RESPELLINGS)
def test_coefficient_parser_agrees_with_fraction(text):
    """The one coefficient parser accepts exactly the strings
    Fraction(str) accepts, with the same value and the same error."""
    assert outcome(documents._rational, text) == outcome(F, text)


def respell(c):
    """A coefficient string in a form Fraction reads but the plain
    -?[0-9]+(/[0-9]+)? form does not: p/q as +2p/2q, or -p/q as
    " -2p/2q" with a leading space."""
    x = F(c)
    sign = "+" if x >= 0 else " -"
    out = f"{sign}{2 * abs(x.numerator)}/{2 * x.denominator}"
    assert documents._PLAIN_RATIONAL.fullmatch(out) is None
    return out


def test_respelled_coefficients_read_to_the_same_series():
    theta = construct_symplectic(2, 4)
    doc = expansion_to_doc(theta)
    for terms in doc["images"].values():
        for t in terms:
            t["coefficient"] = respell(t["coefficient"])
    assert expansion_from_doc(through_json(doc)) == theta
    x = sample_series(4)
    doc = lie_series_to_doc(x)
    for t in doc["terms"]:
        t["coefficient"] = respell(t["coefficient"])
    assert lie_series_from_doc(through_json(doc)) == x
