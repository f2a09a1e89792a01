"""Free Lie algebra on the 2g-dimensional symplectic vector space H.

Elements live in the quotient by degrees above a truncation bound N and
are stored as rational coordinates on the Lyndon basis.  The alphabet is
a1 < b1 < a2 < b2 < ... < bg (this order is normative and fixes all
Lyndon data, including the serialized form).  A basis element is a
Lyndon word; its bracketing is the canonical one induced by the standard
factorization and is never stored.

Bracket rewriting is the classical recursive collection on the Lyndon
(Hall) family.  The tensor-algebra round trip in `tensor_hopf` is kept
deliberately independent of it and serves as the oracle in the tests.

`GeneratorMap`, the one base of the maps given by an image per
generator letter (`LieAutomorphism`, `Derivation`, `ExpansionMap`),
lives here, the lowest module that knows the letters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .sparse import TruncatedSeries, add_into, check_truncation

Word = tuple[int, ...]

# ---------------------------------------------------------------------------
# generators


def gen_count(genus: int) -> int:
    return 2 * genus


def a_letter(i: int) -> int:
    """Letter index of a_i (1-based i)."""
    return 2 * (i - 1)


def b_letter(i: int) -> int:
    return 2 * (i - 1) + 1


def partner(letter: int) -> tuple[int, int]:
    """The symplectic pairing: (b_i, -1) for a_i and (a_i, +1) for b_i."""
    return letter ^ 1, 1 if letter % 2 else -1


def letter_label(letter: int) -> str:
    kind = "a" if letter % 2 == 0 else "b"
    return f"{kind}{letter // 2 + 1}"


def parse_letter(name: str, genus: int) -> int:
    kind, idx = name[:1], name[1:]
    if kind not in ("a", "b") or not idx.isdigit():
        raise ValueError(f"bad generator name {name!r}")
    i = int(idx)
    if not 1 <= i <= genus:
        raise ValueError(f"generator {name!r} out of range for genus {genus}")
    return a_letter(i) if kind == "a" else b_letter(i)


# ---------------------------------------------------------------------------
# Lyndon words


def is_lyndon(w: Word) -> bool:
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def _lyndon_words(alphabet: int, degree: int) -> tuple[Word, ...]:
    """All Lyndon words of exactly this length, in lexicographic order (Duval)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == degree:
            out.append(tuple(w))
        while len(w) < degree:
            w.append(w[-m])
        while w and w[-1] == alphabet - 1:
            w.pop()
    return tuple(sorted(out))


def lyndon_basis(genus: int, degree: int) -> list[Word]:
    """Ordered Lyndon-word basis of the degree-d graded piece."""
    if genus < 1 or degree < 1:
        raise ValueError("genus and degree must be >= 1")
    return list(_lyndon_words(gen_count(genus), degree))


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out, d, left = 1, 2, n
    while d * d <= left:
        if left % d == 0:
            left //= d
            if left % d == 0:
                return 0
            out = -out
        d += 1
    if left > 1:
        out = -out
    return out


def witt_dim(alphabet_size: int, degree: int) -> int:
    """Number of Lyndon words of the given length (necklace-counting formula)."""
    if alphabet_size < 1 or degree < 1:
        raise ValueError("alphabet size and degree must be >= 1")
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * alphabet_size ** (degree // e)
    return total // degree


@lru_cache(maxsize=None)
def std_factorization(w: Word) -> tuple[Word, Word]:
    """Standard factorization w = u·v, v the lexicographically least proper suffix."""
    if len(w) < 2:
        raise ValueError("letters have no factorization")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def bracket_string(w: Word) -> str:
    """Human-readable bracketing of a basis word, e.g. [a1,[a1,b1]]."""
    if len(w) == 1:
        return letter_label(w[0])
    u, v = std_factorization(w)
    return f"[{bracket_string(u)},{bracket_string(v)}]"


def _letter_weight(letters: Iterable[int], genus: int) -> tuple[int, ...]:
    """How often each generator occurs among the letters (the weight grading)."""
    counts = [0] * gen_count(genus)
    for c in letters:
        counts[c] += 1
    return tuple(counts)


def _split_by_weight(coords: Mapping, genus: int,
                     letters=lambda key: key) -> dict[tuple[int, ...], dict]:
    """The entries of coords in blocks by the letter weight of letters(key)."""
    blocks: dict[tuple[int, ...], dict] = {}
    for key, c in coords.items():
        blocks.setdefault(_letter_weight(letters(key), genus), {})[key] = c
    return blocks


def _solve_by_weight(solvers: Mapping, blocks: Mapping) -> dict | None:
    """Each block's right-hand side solved, in weight order, by the
    `BlockSolver` filed under its weight, and the sparse solutions joined;
    None when some block has no solver or no solution."""
    out: dict = {}
    for mu in sorted(blocks):
        sol = solvers[mu].solve(blocks[mu]) if mu in solvers else None
        if sol is None:
            return None
        out.update(sol)
    return out


# ---------------------------------------------------------------------------
# bracket rewriting on the Lyndon basis

_BRACKET_CACHE: dict[tuple[Word, Word], dict[Word, int]] = {}


def bracket_basis(u: Word, v: Word) -> dict[Word, int]:
    """Expansion of the bracket of two basis elements on the Lyndon basis.

    Classical collection: for u < v, either u·v is again a standard
    factorization (giving a single basis word) or the Jacobi identity is
    applied to the standard factors of u.  Terminates for any Hall
    family; results are cached globally (they do not depend on genus or
    truncation).  The structure constants are integers and are stored
    as `int`; a caller scaling them by a rational coefficient gets a
    `Fraction` back.
    """
    if u == v:
        return {}
    if v < u:
        return {w: -c for w, c in bracket_basis(v, u).items()}
    key = (u, v)
    hit = _BRACKET_CACHE.get(key)
    if hit is not None:
        return hit
    if len(u) == 1 or std_factorization(u)[1] >= v:
        result = {u + v: 1}
    else:
        u1, u2 = std_factorization(u)
        # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
        result: dict[Word, int] = {}
        for w, c in bracket_basis(u2, v).items():
            add_into(result, bracket_basis(u1, w), c)
        for w, c in bracket_basis(u1, v).items():
            add_into(result, bracket_basis(u2, w), -c)
    _BRACKET_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# series


class LieSeries(TruncatedSeries):
    """Element of the free Lie algebra truncated above max_degree, on the
    Lyndon basis; immutable by convention."""

    __slots__ = ()

    def _admit(self, w: Word) -> bool:
        """Words above max_degree are dropped; non-Lyndon words rejected."""
        if len(w) > self.max_degree:
            return False
        n = gen_count(self.genus)
        if any(not 0 <= x < n for x in w) or not is_lyndon(w):
            raise ValueError(f"{w} is not a Lyndon word over {n} letters")
        return True

    _key_text = staticmethod(bracket_string)

    def bracket(self, other: "LieSeries") -> "LieSeries":
        """[self, other]; term pairs above max_degree are never formed.

        The right operand is bucketed by degree once, and each left term
        walks the buckets upward until the next one would pass the cap.
        """
        self._check(other)
        by_len: dict[int, list[tuple[Word, Fraction]]] = {}
        for wv, cv in other.coords.items():
            by_len.setdefault(len(wv), []).append((wv, cv))
        buckets = sorted(by_len.items())
        out: dict[Word, Fraction] = {}
        n = self.max_degree
        for wu, cu in self.coords.items():
            room = n - len(wu)
            for d, terms in buckets:
                if d > room:
                    break
                for wv, cv in terms:
                    add_into(out, bracket_basis(wu, wv), cu * cv)
        return self._like(out)


def bracket(x: LieSeries, y: LieSeries) -> LieSeries:
    return x.bracket(y)


def bch(x: LieSeries, y: LieSeries) -> LieSeries:
    """log(exp(x)·exp(y)) on the Lie side, truncated.

    Computed by transporting to the tensor algebra, multiplying
    exponentials, taking log and projecting back to the Lyndon basis.
    """
    x._check(y)
    from . import tensor_hopf as th

    p = th.mul(th.exp(th.embed_lie(x)), th.exp(th.embed_lie(y)))
    return th.project_lie(th.log(p))


class GeneratorMap:
    """A map fixed by one image per generator letter: a `_series` of the
    map's genus, cut down to `max_degree` (kept as given when already
    there; a coarser image is rejected).  A subclass names `_series`,
    vets images in `_check_image` and caches in `_memo`, which starts as
    the images keyed by their one-letter words."""

    __slots__ = ("genus", "max_degree", "images", "_memo")
    _series: type[TruncatedSeries]

    def __init__(self, genus: int, max_degree: int,
                 images: Mapping[int, TruncatedSeries]):
        if genus < 0:
            raise ValueError("bad context")
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.genus = genus
        self.max_degree = max_degree
        for key in images:
            if key not in range(gen_count(genus)):
                raise ValueError(f"image for {key!r}, which is not a "
                                 f"generator letter of genus {genus}")
        kind = self._series.__name__
        clean = {}
        for letter in range(gen_count(genus)):
            label = letter_label(letter)
            if letter not in images:
                raise ValueError(f"missing image for {label}")
            img = images[letter]
            if not isinstance(img, self._series):
                raise ValueError(f"image of {label} is not a {kind}")
            if img.genus != genus:
                raise ValueError(f"image of {label} has genus {img.genus}, "
                                 f"not {genus}")
            if img.max_degree < max_degree:
                raise ValueError(
                    f"image of {label} is truncated at degree "
                    f"{img.max_degree}, below {max_degree}")
            if img.max_degree > max_degree:
                img = img.truncated(max_degree)
            self._check_image(letter, img)
            clean[letter] = img
        self.images = clean
        self._memo = {(letter,): img for letter, img in clean.items()}

    def _check_image(self, letter: int, img: TruncatedSeries) -> None:
        """Raise ValueError for an image this kind of map cannot have."""

    def truncated(self, n: int):
        """The induced map modulo degrees above n, 1 <= n <= max_degree."""
        check_truncation(n, self.max_degree)
        return type(self)(self.genus, n, self.images)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.genus == other.genus
                and self.max_degree == other.max_degree
                and self.images == other.images)

    def __repr__(self) -> str:
        bits = [f"{letter_label(l)} -> {s!r}" for l, s in sorted(self.images.items())]
        return "; ".join(bits)
