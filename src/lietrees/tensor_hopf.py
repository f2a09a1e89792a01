"""Truncated tensor algebra on H with its Hopf structure.

Words over the 2g letters with rational coefficients, product by
concatenation, everything above the truncation degree discarded.  The
coproduct declares every generator primitive and is extended
multiplicatively, so a word splits as the sum over all ways of dividing
its letter positions into two subsequences.  Under this structure the
primitive part is exactly the image of the free Lie algebra, which is
what makes this module an independent oracle for `free_lie`: embed_lie
expands canonical bracketings as commutators of tensors, and `_peel`
comes back by taking off the Lyndon basis, least word first.  The
canonical bracketing of a Lyndon word w is w plus greater words of the
same length (Reutenauer, Free Lie Algebras, Thm 5.1), so the least word
left in a primitive residual is Lyndon, and the peel decides
primitivity itself: it fails at the first non-Lyndon least word.
`project_lie` and `is_primitive` run it, and `is_grouplike` runs it on
p = x^-1 D(x), one degree at a time, where D(w) = |w| w is the degree
derivation: x with constant term 1 is group-like iff p is primitive.
Proof: Delta D = D2 Delta with D2 = D (x) 1 + 1 (x) D.  If p is
primitive, Delta x and x (x) x both solve D2 z = z (p (x) 1 + 1 (x) p)
from z_0 = 1 (x) 1: Delta x because Delta is an algebra map, x (x) x
because D is a derivation.  That equation fixes z one degree at a
time, so Delta x = x (x) x.  Conversely, for a group-like x,
Delta p = (x^-1 (x) x^-1) D2(x (x) x) = p (x) 1 + 1 (x) p.  All of it
holds modulo the degrees above the truncation, which D, Delta and the
product keep.  No `free_lie` bracket table is used, and the coproduct,
with 2^m components per word of length m, is never expanded; the tests
keep the expanded coproduct as their reference.  Products run on
integer numerators over one common denominator (`sparse.scaled`) in one
loop, `_product`: `mul`, `_embed_word`, the power series behind exp,
log and inv_unit (`sparse.scaled_series`), `evaluate_expansion` and the
degree recursion of `is_grouplike`; the peel runs on the same numerators.
Every coefficient a series holds is a nonzero lowest-terms `Fraction`,
made once per output word by `sparse.unscaled`.

The antipode S, each word reversed with sign (-1)^length, inverts a
group-like element in every truncation (Reutenauer, §1.3), with no
series.

Also hosts free group words and expansions (multiplicative maps from the
surface group into the unit group of the tensor algebra); an
`ExpansionMap` is a `free_lie.GeneratorMap` on `TensorSeries` images
whose memo keeps only the inverse images, each under its letter as
integer numerators over one denominator: the antipode of each image
that `check_expansion` finds group-like, the geometric series
`inv_unit` of any other.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, NamedTuple

from .free_lie import (GeneratorMap, LieSeries, Word, gen_count, is_lyndon,
                       letter_label, std_factorization)
from .sparse import (TruncatedSeries, add_into, check_kind, scaled,
                     scaled_series, unscaled)

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
    check_kind(x, TensorSeries, "x")
    x._check(y)
    (nx, dx), (ny, dy) = scaled(x.coords), scaled(y.coords)
    return x._like(unscaled(_product(nx, ny, x.max_degree), dx * dy))


def _series_in(x: TensorSeries, c0: int, what: str, coeff) -> TensorSeries:
    """The sum of coeff(k) * u^k over k >= 0, u = x - c0 for a `TensorSeries`
    x with constant term c0 (else ValueError(what)), on integer numerators:
    with u = nu / du, the power u^k is an integer dict over du^k."""
    check_kind(x, TensorSeries, "x")
    if x.constant_term() != c0:
        raise ValueError(what)
    n = x.max_degree
    nu, du = scaled(x.coords)
    nu.pop((), None)
    acc, den = scaled_series(lambda p: _product(p, nu, n), {(): 1}, coeff,
                             n // min(map(len, nu)) if nu else 0, du)
    return x._like(unscaled(acc, den))


def exp(x: TensorSeries) -> TensorSeries:
    return _series_in(x, 0, "exp needs a zero constant term",
                      lambda k: Fraction(1, factorial(k)))


def log(x: TensorSeries) -> TensorSeries:
    return _series_in(x, 1, "log needs constant term 1",
                      lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def inv_unit(x: TensorSeries) -> TensorSeries:
    """Inverse of 1 + u as the truncated geometric series in u."""
    return _series_in(x, 1, "inverse needs constant term 1",
                      lambda k: (-1) ** k)


def _antipode(coords: Mapping[Word, object]) -> dict[Word, object]:
    """Each word reversed, its coefficient times (-1)^length."""
    return {w[::-1]: -c if len(w) % 2 else c for w, c in coords.items()}


def antipode(x: TensorSeries) -> TensorSeries:
    """S(x): each word reversed, times (-1)^length.  S is the algebra
    anti-automorphism with S(a) = -a on letters, so S(xy) = S(y)S(x) and
    S(S(x)) = x; on a group-like x it is the inverse (see ExpansionMap)."""
    check_kind(x, TensorSeries, "x")
    return x._like(_antipode(x.coords))


# ---------------------------------------------------------------------------
# Hopf predicates


def is_primitive(x: TensorSeries) -> bool:
    """In the image of the free Lie algebra: the Lyndon peel completes."""
    check_kind(x, TensorSeries, "x")
    return _peel(scaled(x.coords)[0]) is not None


def is_grouplike(x: TensorSeries) -> bool:
    """Coproduct of x equals x (x) x below the truncation degree: the
    constant term is 1 and p = x^-1 D(x), D(w) = |w| w, is primitive (see
    the module docstring for the proof)."""
    check_kind(x, TensorSeries, "x")
    return _grouplike_scaled(*scaled(x.coords), x.max_degree)


def _grouplike_scaled(nx: Mapping[Word, int], den: int, n: int) -> bool:
    """is_grouplike of x = nx / den, truncated above n.

    x p = D(x) is solved one degree at a time: p_m = m x_m - sum over
    0 < i < m of x_i p_(m-i).  Over den, x_i is the integer dict X_i,
    and P_m = den^m p_m = m den^(m-1) X_m - sum den^(i-1) X_i P_(m-i) is
    an integer dict too.  Each P_m is peeled as soon as it is formed, so
    the test stops at the first degree that is not Lie.
    """
    if nx.get(()) != den:
        return False
    xs: list[dict[Word, int]] = [{} for _ in range(n + 1)]
    for w, c in nx.items():
        xs[len(w)][w] = c
    ps: list[dict[Word, int]] = [{}]
    for m in range(1, n + 1):
        scale = m * den ** (m - 1)
        p = {w: scale * c for w, c in xs[m].items()}
        for i in range(1, m):
            add_into(p, _product(xs[i], ps[m - i], m), -den ** (i - 1))
        if _peel(p) is None:
            return False
        ps.append(p)
    return True


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
    check_kind(x, LieSeries, "x")
    nx, den = scaled(x.coords)
    out: dict[Word, int] = {}
    for w, c in nx.items():
        add_into(out, _embed_word(w), c)
    return TensorSeries._of(x.genus, x.max_degree, unscaled(out, den))


def _peel(numerators: Mapping[Word, int]) -> dict[Word, int] | None:
    """Lyndon coordinates of an integer tensor, or None if it is not Lie.

    The least word left in a Lie residual is Lyndon, with the residual's
    coefficient as its coordinate (see the module docstring), so the
    peel ends at the first non-Lyndon least word, the empty word too.
    """
    residual = dict(numerators)
    heap = sorted(residual)         # a sorted list is a heap
    pop, push = heapq.heappop, heapq.heappush
    out: dict[Word, int] = {}
    while heap:
        w = pop(heap)
        c = residual.pop(w, None)
        if c is None:
            continue
        if not is_lyndon(w):
            return None
        out[w] = c
        for u, e in _embed_word(w).items():
            if u != w:
                old = residual.get(u)
                if old is None:
                    push(heap, u)
                    residual[u] = -c * e
                elif old == c * e:
                    del residual[u]
                else:
                    residual[u] = old - c * e
    return out


def project_lie(x: TensorSeries) -> LieSeries:
    """Inverse of embed_lie on primitive elements, by the Lyndon peel."""
    check_kind(x, TensorSeries, "x")
    nx, den = scaled(x.coords)
    out = _peel(nx)
    if out is None:
        raise ValueError("project_lie needs a primitive element")
    return LieSeries._of(x.genus, x.max_degree, unscaled(out, den))


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


class ExpansionMap(GeneratorMap):
    """Images of the positive generators under a candidate expansion.

    The container itself does not enforce the expansion axioms; use
    check_expansion (or symplectic.verify_symplectic) to validate.  The
    memo, empty at construction, keeps each inverse image under its
    letter, as integer numerators over one denominator, and nothing
    else.  An image that check_expansion finds group-like gets its
    antipode there: with Delta x = x (x) x modulo degrees above n, and S,
    the product and the coproduct all keeping degree, the antipode axiom
    m (S (x) id) Delta = eta epsilon gives S(x) x = epsilon(x) = 1 modulo
    degree n + 1, and x S(x) = 1 alike.  Any other image is inverted by
    the geometric series `inv_unit` when first asked for.
    """

    __slots__ = ()
    _series = TensorSeries

    def image(self, letter: int, e: int = 1) -> TensorSeries:
        """The image of the generator letter raised to e = 1 or -1."""
        if letter not in self.images:
            raise ValueError(f"{letter!r} is not a generator letter of "
                             f"genus {self.genus}")
        if e == 1:
            return self.images[letter]
        if e != -1:
            raise ValueError(f"exponent {e!r} is not 1 or -1")
        return TensorSeries._of(self.genus, self.max_degree,
                                unscaled(*self._inverse(letter)))

    def _inverse(self, letter: int) -> tuple[dict[Word, int], int]:
        """The inverse image of a letter as (numerators, den), from the
        memo, which `inv_unit` fills on a miss."""
        inv = self._memo.get(letter)
        if inv is None:
            inv = self._memo[letter] = scaled(
                inv_unit(self.images[letter]).coords)
        return inv


def evaluate_expansion(theta: ExpansionMap, w: FreeGroupWord) -> TensorSeries:
    check_kind(theta, ExpansionMap, "theta")
    check_kind(w, FreeGroupWord, "w")
    if theta.genus != w.genus:
        raise ValueError("mismatched genus")
    acc: dict[Word, int] = {(): 1}
    den = 1
    for letter, e in w.letters:
        nx, dx = (scaled(theta.images[letter].coords) if e == 1
                  else theta._inverse(letter))
        acc, den = _product(acc, nx, theta.max_degree), den * dx
    return TensorSeries._of(theta.genus, theta.max_degree, unscaled(acc, den))


class ExpansionReport(NamedTuple):
    is_expansion: bool
    is_grouplike: bool


def check_expansion(theta: ExpansionMap) -> ExpansionReport:
    """Normalization (1 + generator + higher) and group-likeness of all
    images, the latter stopping at the first image that is not group-like.
    Each image is scaled once; the memo of theta keeps the antipode of
    each group-like image, on the same numerators, as its inverse."""
    check_kind(theta, ExpansionMap, "theta")
    ok_exp = all(s.constant_term() == 1
                 and s.graded_part(1).coords == {(letter,): ONE}
                 for letter, s in theta.images.items())
    for letter, s in theta.images.items():
        nx, dx = scaled(s.coords)
        if not _grouplike_scaled(nx, dx, s.max_degree):
            return ExpansionReport(ok_exp, False)
        theta._memo[letter] = _antipode(nx), dx
    return ExpansionReport(ok_exp, True)


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
