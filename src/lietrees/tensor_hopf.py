"""Truncated tensor algebra on H with its Hopf structure.

Words over the 2g letters with rational coefficients, product by
concatenation, everything above the truncation degree discarded.  The
coproduct declares every generator primitive and is extended
multiplicatively, so a word splits as the sum over all ways of dividing
its letter positions into two subsequences.  Under this structure the
primitive part is exactly the image of the free Lie algebra, which is
what makes this module an independent oracle for `free_lie`: embed_lie
expands canonical bracketings as commutators of tensors, and project_lie
comes back by peeling off the Lyndon basis, least word first, since the
canonical bracketing of a Lyndon word w is w plus greater words of the
same length (Reutenauer, Free Lie Algebras, Thm 5.1); the peel rejects
a non-primitive element itself, at the first non-Lyndon least word.  No
`free_lie` bracket table is used.  Products run on integer numerators
over one common denominator (`sparse.scaled`) in one loop, `_product`:
`mul`, the bracketings `_embed_word`, the power series behind exp, log
and inv_unit, the free group word product `evaluate_expansion`, and the
primitivity test.  Every coefficient a series holds is a nonzero
lowest-terms `Fraction`, made once per output word by `sparse.unscaled`.

The predicates do not expand the coproduct, which has 2^m components
per word of length m.  By Dynkin-Specht-Wever, a homogeneous element p
of degree n is primitive iff D(p) = n·p, where D is left-normed
bracketing; by Friedrichs, x with constant term 1 is group-like iff
log x is primitive (Reutenauer, Free Lie Algebras, §1.3).  D is computed
by tensor arithmetic alone.  `coproduct` itself stays as the reference
the tests compare the predicates against.

Also hosts free group words and expansions (multiplicative maps from the
surface group into the unit group of the tensor algebra).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from typing import Mapping, NamedTuple

from .free_lie import (LieSeries, Word, gen_count, is_lyndon, letter_label,
                       std_factorization)
from .sparse import (TruncatedSeries, add_into, add_term, check_truncation,
                     power_series, scaled, unscaled)

ONE = Fraction(1)


class TensorSeries(TruncatedSeries):
    """Element of T(H) truncated above max_degree; coords word -> Fraction."""

    __slots__ = ()

    def _admit(self, w: Word) -> bool:
        if len(w) > self.max_degree:
            return False
        n = gen_count(self.genus)
        if any(not 0 <= x < n for x in w):
            raise ValueError(f"letter out of range in word {w}")
        return True

    @staticmethod
    def _key_text(w: Word) -> str:
        return ".".join(map(letter_label, w)) if w else "1"

    @classmethod
    def one(cls, genus: int, max_degree: int) -> "TensorSeries":
        return cls(genus, max_degree, {(): ONE})

    def constant_term(self) -> Fraction:
        return self.coords.get((), Fraction(0))


def _product(nx: Mapping[Word, int], ny: Mapping[Word, int],
             n: int) -> dict[Word, int]:
    """Concatenation product of two integer word dicts, words above n
    and zero entries dropped, so that a vanishing power is seen."""
    acc: dict[Word, int] = {}
    by_len: dict[int, list[tuple[Word, int]]] = {}
    for w, c in ny.items():
        by_len.setdefault(len(w), []).append((w, c))
    for wu, cu in nx.items():
        room = n - len(wu)
        for ly, terms in by_len.items():
            if ly <= room:
                for wv, cv in terms:
                    w = wu + wv
                    acc[w] = acc.get(w, 0) + cu * cv
    return {w: c for w, c in acc.items() if c}


def mul(x: TensorSeries, y: TensorSeries) -> TensorSeries:
    """Concatenation product, truncated, on integer numerators."""
    x._check(y)
    (nx, dx), (ny, dy) = scaled(x.coords), scaled(y.coords)
    return x._like(unscaled(_product(nx, ny, x.max_degree), dx * dy))


def _series_in(u: TensorSeries, coeff) -> TensorSeries:
    """The sum of coeff(k) * u^k over k >= 0, u with no constant term.

    With u = nu / du, the power u^k is an integer dict over du^k.  Over
    the common denominator D = lcm(denominators of coeff(0..K)) * du^K,
    K the last k with u^k possibly nonzero, every term is an integer
    dict, so `power_series` sums integers and the result is unscaled once.
    """
    n = u.max_degree
    nu, du = scaled(u.coords)
    last = n // u.min_degree() if u else 0
    cs = [coeff(k) for k in range(last + 1)]
    den = lcm(*(c.denominator for c in cs)) * du ** last
    ints = [c.numerator * (den // (c.denominator * du ** k))
            for k, c in enumerate(cs)]
    acc = power_series(lambda p: p._like(_product(p.coords, nu, n)),
                       u._like({(): 1}), ints.__getitem__, last)
    return u._like(unscaled(acc.coords, den))


def exp(x: TensorSeries) -> TensorSeries:
    if x.constant_term():
        raise ValueError("exp needs a zero constant term")
    return _series_in(x, lambda k: Fraction(1, factorial(k)))


def log(x: TensorSeries) -> TensorSeries:
    if x.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    return _series_in(x - TensorSeries.one(x.genus, x.max_degree),
                      lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def inv_unit(x: TensorSeries) -> TensorSeries:
    """Inverse of 1 + u as the truncated geometric series in u."""
    if x.constant_term() != 1:
        raise ValueError("inverse needs constant term 1")
    return _series_in(x - TensorSeries.one(x.genus, x.max_degree),
                      lambda k: (-1) ** k)


# ---------------------------------------------------------------------------
# Hopf predicates


def coproduct(x: TensorSeries) -> dict[tuple[Word, Word], Fraction]:
    """All (left word, right word) components of the coproduct."""
    out: dict[tuple[Word, Word], Fraction] = {}
    for w, c in x.coords.items():
        m = len(w)
        idx = range(m)
        for r in range(m + 1):
            for left in combinations(idx, r):
                left_set = set(left)
                wl = tuple(w[i] for i in left)
                wr = tuple(w[i] for i in idx if i not in left_set)
                add_term(out, (wl, wr), c)
    return out


def _dynkin(piece: Mapping[Word, Fraction], n: int) -> dict[Word, Fraction]:
    """Left-normed bracketing of a homogeneous degree-n element.

    Reads the words one letter at a time by D(y·a) = D(y)·a - a·D(y).
    The state maps each unread suffix to the expanded prefixes in front
    of it, so like terms merge at every step and the work is bounded by
    the number of distinct (prefix, suffix) pairs, not 2^m per word.
    """
    state: dict[Word, dict[Word, Fraction]] = {}
    for w, c in piece.items():
        state.setdefault(w[1:], {})[w[:1]] = c
    for _ in range(n - 1):
        nxt: dict[Word, dict[Word, Fraction]] = {}
        for suffix, prefixes in state.items():
            a, rest = suffix[:1], suffix[1:]
            acc = nxt.setdefault(rest, {})
            for p, c in prefixes.items():
                add_term(acc, p + a, c)
                add_term(acc, a + p, -c)
        state = nxt
    return state.get((), {})


def is_primitive(x: TensorSeries) -> bool:
    """Primitive: no constant term, and D(p_n) = n·p_n in every degree n."""
    pieces: dict[int, dict[Word, int]] = {}
    # D is linear, so the test runs on the integer numerators of x
    for w, c in scaled(x.coords)[0].items():
        pieces.setdefault(len(w), {})[w] = c
    return not x.constant_term() and all(
        _dynkin(p, n) == {w: n * c for w, c in p.items()}
        for n, p in sorted(pieces.items()))


def is_grouplike(x: TensorSeries) -> bool:
    """Coproduct of x equals x (x) x below the truncation degree (Friedrichs)."""
    return x.constant_term() == 1 and is_primitive(log(x))


# ---------------------------------------------------------------------------
# Lie embedding and projection


@lru_cache(maxsize=None)
def _embed_word(w: Word) -> Mapping[Word, int]:
    """Integer tensor expansion of the canonical bracketing of a Lyndon word."""
    if len(w) == 1:
        return {w: 1}
    eu, ev = map(_embed_word, std_factorization(w))
    out = _product(eu, ev, len(w))
    add_into(out, _product(ev, eu, len(w)), -1)
    return out


def embed_lie(x: LieSeries) -> TensorSeries:
    nx, den = scaled(x.coords)
    out: dict[Word, int] = {}
    for w, c in nx.items():
        add_into(out, _embed_word(w), c)
    return TensorSeries._of(x.genus, x.max_degree, unscaled(out, den))


def project_lie(x: TensorSeries) -> LieSeries:
    """Inverse of embed_lie on primitive elements, by peeling off the
    Lyndon basis least word first.

    The canonical bracketing of a Lyndon word w expands to w plus words
    of the same length greater than w (Reutenauer, Free Lie Algebras,
    Thm 5.1), so the least word left in a primitive residual is Lyndon
    and its coefficient is the coordinate on that word.  The peel is its
    own primitivity test: it stops at a non-Lyndon least word, and if it
    meets none, x is the Lie combination it wrote.
    """
    residual = dict(x.coords)
    heap = sorted(residual)         # a sorted list is a heap
    out: dict[Word, Fraction] = {}
    while heap:
        w = heapq.heappop(heap)
        c = residual.pop(w, None)
        if c is None:
            continue
        if not is_lyndon(w):
            raise ValueError("project_lie needs a primitive element")
        out[w] = c
        for u, e in _embed_word(w).items():
            if u != w:
                if u not in residual:
                    heapq.heappush(heap, u)
                add_term(residual, u, -c * e)
    return LieSeries._of(x.genus, x.max_degree, out)


# ---------------------------------------------------------------------------
# free group words and expansions


class FreeGroupWord:
    """Freely reduced word in the 2g generators of the surface group."""

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int,
                 letters: tuple[tuple[int, int], ...] = ()):
        n = gen_count(genus)
        stack: list[tuple[int, int]] = []
        for letter, e in letters:
            if not 0 <= letter < n or e not in (1, -1):
                raise ValueError("bad free group letter")
            if stack and stack[-1][0] == letter and stack[-1][1] == -e:
                stack.pop()
            else:
                stack.append((letter, e))
        self.genus = genus
        self.letters = tuple(stack)

    @classmethod
    def identity(cls, genus: int) -> "FreeGroupWord":
        return cls(genus)

    @classmethod
    def gen(cls, genus: int, letter: int, e: int = 1) -> "FreeGroupWord":
        return cls(genus, ((letter, e),))

    def __mul__(self, other: "FreeGroupWord") -> "FreeGroupWord":
        if self.genus != other.genus:
            raise ValueError("mismatched genus")
        return FreeGroupWord(self.genus, self.letters + other.letters)

    def inverse(self) -> "FreeGroupWord":
        return FreeGroupWord(self.genus,
                             tuple((l, -e) for l, e in reversed(self.letters)))

    @classmethod
    def commutator(cls, x: "FreeGroupWord", y: "FreeGroupWord") -> "FreeGroupWord":
        return x * y * x.inverse() * y.inverse()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FreeGroupWord) and self.genus == other.genus
                and self.letters == other.letters)

    def __hash__(self) -> int:
        return hash((self.genus, self.letters))

    def __repr__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter_label(l) + ("" if e == 1 else "^-1")
                        for l, e in self.letters)


class ExpansionMap:
    """Images of the positive generators under a candidate expansion.

    The container itself does not enforce the expansion axioms; use
    check_expansion (or symplectic.verify_symplectic) to validate.
    """

    __slots__ = ("genus", "max_degree", "images", "_inverses")

    def __init__(self, genus: int, max_degree: int,
                 images: Mapping[int, TensorSeries]):
        if genus < 0:
            raise ValueError("bad context")
        n = gen_count(genus)
        if sorted(images) != list(range(n)):
            raise ValueError("need exactly one image per generator")
        for s in images.values():
            if s.genus != genus or s.max_degree != max_degree:
                raise ValueError("image context mismatch")
        self.genus = genus
        self.max_degree = max_degree
        self.images = dict(images)
        self._inverses: dict[int, TensorSeries] = {}

    def image(self, letter: int, e: int = 1) -> TensorSeries:
        if e == 1:
            return self.images[letter]
        inv = self._inverses.get(letter)
        if inv is None:
            inv = inv_unit(self.images[letter])
            self._inverses[letter] = inv
        return inv

    def truncated(self, n: int) -> "ExpansionMap":
        """Every image truncated above degree n, 1 <= n <= max_degree."""
        check_truncation(n, self.max_degree)
        return ExpansionMap(self.genus, n,
                            {l: s.truncated(n) for l, s in self.images.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExpansionMap) and self.genus == other.genus
                and self.max_degree == other.max_degree
                and self.images == other.images)


def evaluate_expansion(theta: ExpansionMap, w: FreeGroupWord) -> TensorSeries:
    if theta.genus != w.genus:
        raise ValueError("mismatched genus")
    acc: dict[Word, int] = {(): 1}
    den = 1
    for letter, e in w.letters:
        nx, dx = scaled(theta.image(letter, e).coords)
        acc, den = _product(acc, nx, theta.max_degree), den * dx
    return TensorSeries._of(theta.genus, theta.max_degree, unscaled(acc, den))


class ExpansionReport(NamedTuple):
    is_expansion: bool
    is_grouplike: bool


def check_expansion(theta: ExpansionMap) -> ExpansionReport:
    """Normalization (1 + generator + higher) and group-likeness of all images."""
    ok_exp = all(s.constant_term() == 1
                 and s.graded_part(1).coords == {(letter,): ONE}
                 for letter, s in theta.images.items())
    ok_gl = all(is_grouplike(s) for s in theta.images.values())
    return ExpansionReport(ok_exp, ok_gl)


def magnus_expansion(genus: int, max_degree: int) -> ExpansionMap:
    """Every generator goes to 1 + letter (an expansion, not group-like)."""
    return ExpansionMap(genus, max_degree, {
        l: TensorSeries.one(genus, max_degree) + TensorSeries.gen(genus, max_degree, l)
        for l in range(gen_count(genus))})


def basis_expansion(genus: int, max_degree: int) -> ExpansionMap:
    """Every generator goes to exp(letter); group-like but not symplectic."""
    return ExpansionMap(genus, max_degree, {
        l: exp(TensorSeries.gen(genus, max_degree, l))
        for l in range(gen_count(genus))})
