"""Exchange documents for series, expansions, automorphisms and trees.

The three series-like formats are JSON objects with explicit genus and
truncation degree; coefficients are exact rational strings and words
are lists of generator names, so documents round-trip exactly.  Tree
combinations use a plain text format, one coefficient and one
parenthesized tree per line.  All validation errors raise
DocumentError with a message naming the offending field.

`_header` checks what the series-like documents share (an object, no
unknown field, `genus`, `max_degree`), and one loop,
`_series_terms_from_doc`, reads every series, checking each term once,
in order: an object, no unknown field, coefficient, word list, names
(looked up in one table per document), Lyndon, degree, duplicate.  A
location such as `images.b2[17].word[0]` is formatted only for an error.
The readers check all that the series constructors would and build with
the unchecked `_of`; the generator-map constructors still vet the images.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .free_lie import (LieSeries, Word, gen_count, is_lyndon, letter_label,
                       parse_letter)
from .jacobi import TreeCombo, parse_tree_text, tree_text
from .johnson import LieAutomorphism
from .sparse import check_kind
from .tensor_hopf import ExpansionMap, TensorSeries


class DocumentError(ValueError):
    """Malformed exchange document; the message names the bad field."""


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(text: str) -> Fraction:
    """Fraction(text), the one coefficient parser: a plain ASCII
    -?[0-9]+(/[0-9]+)? string, as the writers print, is read with int,
    and any other is handed to Fraction(str) as it is, so the strings
    accepted, their values and the errors raised are Fraction's."""
    m = _PLAIN_RATIONAL.fullmatch(text)
    if m is None:
        return Fraction(text)
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


class _Letters(dict):
    """Generator name -> letter for one genus, filled by `parse_letter`
    as names are first met, so a large genus builds no table."""

    def __init__(self, genus: int):
        super().__init__()
        self.genus = genus

    def __missing__(self, name):
        letter = self[name] = parse_letter(name, self.genus)
        return letter


def _is_name(key: Any, letters: _Letters) -> bool:
    """Whether key is the name of a generator of the genus."""
    try:
        letters[key]
    except (TypeError, ValueError):
        return False
    return True


def _terms_payload(coords) -> list[dict]:
    """Terms sorted by degree, then word."""
    return [{"coefficient": str(c), "word": [letter_label(x) for x in w]}
            for w, c in sorted(coords.items(), key=lambda t: (len(t[0]), t[0]))]


# ---------------------------------------------------------------------------
# LieSeries documents


def lie_series_to_doc(x: LieSeries) -> dict:
    check_kind(x, LieSeries, "x")
    return {"genus": x.genus, "max_degree": x.max_degree,
            "terms": _terms_payload(x.coords)}


_TERM_FIELDS = frozenset(("coefficient", "word"))


def _header(doc: Any, body: str, min_genus: int) -> tuple[int, int]:
    """(genus, max_degree) of a document whose only other field is body."""
    if not isinstance(doc, dict):
        raise DocumentError("document: expected an object")
    extra = doc.keys() - {"genus", "max_degree", body}
    if extra:
        raise DocumentError(f"{min(extra, key=str)}: unknown field")
    for field, minimum in (("genus", min_genus), ("max_degree", 1)):
        v = doc.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise DocumentError(f"{field}: expected an integer >= {minimum}")
    return doc["genus"], doc["max_degree"]


def _series_terms_from_doc(raw: Any, letters: _Letters, max_degree: int,
                           where: str, lyndon: bool) -> dict[Word, Fraction]:
    """Nonzero coefficients by word, each term checked once, in the order
    of the module docstring; Lyndon words only if lyndon is set."""
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of terms")

    def bad(field: str, message: str) -> DocumentError:
        return DocumentError(f"{where}[{i}]{field}: {message}")

    coords: dict[Word, Fraction] = {}
    for i, term in enumerate(raw):
        if not isinstance(term, dict):
            raise bad("", "term must be an object")
        # a two-field term with both fields, the common case, needs no set
        if len(term) != 2 or "coefficient" not in term or "word" not in term:
            extra = term.keys() - _TERM_FIELDS
            if extra:
                raise bad(f".{min(extra, key=str)}", "unknown field")
        cr = term.get("coefficient")
        if not isinstance(cr, str):
            raise bad(".coefficient", "coefficient must be a rational string")
        try:
            c = _rational(cr)
        except (ValueError, ZeroDivisionError):
            raise bad(".coefficient", f"bad rational {cr!r}") from None
        wr = term.get("word")
        if not isinstance(wr, list):
            raise bad(".word", "word must be a list of generator names")
        try:
            w = tuple([letters[name] for name in wr])
        except (TypeError, ValueError):
            j, name = next((j, name) for j, name in enumerate(wr)
                           if not _is_name(name, letters))
            raise bad(f".word[{j}]", f"unknown generator {name!r}"
                      if isinstance(name, str)
                      else "generator name must be a string") from None
        if lyndon and not is_lyndon(w):
            raise bad(".word", "not a Lyndon word" if w
                      else "empty word is not a Lyndon word")
        if len(w) > max_degree:
            raise bad(".word", "degree above max_degree")
        if w in coords:
            raise bad(".word", "duplicate word")
        coords[w] = c
    if not all(coords.values()):
        coords = {w: c for w, c in coords.items() if c}
    return coords


def lie_series_from_doc(doc: Any) -> LieSeries:
    genus, n = _header(doc, "terms", 0)
    coords = _series_terms_from_doc(doc.get("terms"), _Letters(genus), n,
                                    "terms", True)
    return LieSeries._of(genus, n, coords)


# ---------------------------------------------------------------------------
# Expansion documents


def _images_to_doc(m: ExpansionMap | LieAutomorphism) -> dict:
    """Generator images of an expansion or an automorphism, as a document."""
    images = {letter_label(l): _terms_payload(m.images[l].coords)
              for l in range(gen_count(m.genus))}
    return {"genus": m.genus, "max_degree": m.max_degree, "images": images}


def expansion_to_doc(theta: ExpansionMap) -> dict:
    check_kind(theta, ExpansionMap, "theta")
    return _images_to_doc(theta)


def _images_from_doc(doc: Any, lyndon: bool):
    genus, n = _header(doc, "images", 1)
    raw = doc.get("images")
    if not isinstance(raw, dict):
        raise DocumentError("images: expected an object keyed by generator")
    letters = _Letters(genus)
    unknown = [name for name in raw if not _is_name(name, letters)]
    if unknown:
        raise DocumentError(
            f"images.{min(unknown, key=str)}: unknown generator")
    out = {}
    for letter in range(gen_count(genus)):
        name = letter_label(letter)
        if name not in raw:
            raise DocumentError(f"images.{name}: missing generator image")
        out[letter] = _series_terms_from_doc(raw[name], letters, n,
                                             f"images.{name}", lyndon)
    return genus, n, out


def expansion_from_doc(doc: Any) -> ExpansionMap:
    genus, n, raw = _images_from_doc(doc, lyndon=False)
    return ExpansionMap(genus, n,
                        {l: TensorSeries._of(genus, n, coords)
                         for l, coords in raw.items()})


# ---------------------------------------------------------------------------
# Automorphism documents


def automorphism_to_doc(psi: LieAutomorphism) -> dict:
    check_kind(psi, LieAutomorphism, "psi")
    return _images_to_doc(psi)


def automorphism_from_doc(doc: Any) -> LieAutomorphism:
    genus, n, raw = _images_from_doc(doc, lyndon=True)
    images = {}
    for letter, coords in raw.items():
        name = letter_label(letter)
        if coords.get((letter,)) != 1 or any(
                len(w) == 1 and w != (letter,) for w in coords):
            raise DocumentError(
                f"images.{name}: degree-1 part must be exactly {name}")
        images[letter] = LieSeries._of(genus, n, coords)
    return LieAutomorphism(genus, n, images)


# ---------------------------------------------------------------------------
# JSON and tree text fronts


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"document: invalid JSON ({e.msg} at line {e.lineno})") \
            from None


def tree_combo_to_text(c: TreeCombo) -> str:
    check_kind(c, TreeCombo, "c")
    lines = []
    for tree, coeff in sorted(c.coords.items(), key=lambda t: t[0].key):
        lines.append(f"{coeff} {tree_text(tree)}")
    return "\n".join(lines) + ("\n" if lines else "")


def tree_combo_from_text(text: str, genus: int) -> TreeCombo:
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if "(" in head:
            raise DocumentError(f"line {lineno}: missing coefficient")
        try:
            coeff = _rational(head)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"line {lineno}: coefficient: bad rational "
                                f"{head!r}") from None
        if not rest.strip():
            raise DocumentError(f"line {lineno}: missing tree expression")
        try:
            root, plant = parse_tree_text(rest, genus)
        except ValueError as e:
            raise DocumentError(f"line {lineno}: {e}") from None
        terms.append((coeff, root, plant))
    return TreeCombo.from_terms(genus, terms)
