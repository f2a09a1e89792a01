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
`bracket_coords` is the one bracket loop, on coordinate dicts of any
exact type split by `graded` into their degree parts, so that it only
visits parts whose degrees fit under the cap: `LieSeries.bracket`
grades its `Fraction` coords as they stand, since its operands are
mostly a few words and scaling them would cost more than it saves, and
the generator maps of `johnson` keep the integer numerators of their
memoised word images graded once, when an entry is stored.

`lyndon_count` and `bracket_kernel_dim` are the one weight-block
census: Witt's formula by weight, and from it the dimension of each
weight block of the tree space, which `jacobi` and `koszul` read their
block dimensions and H3 layout off, with no elimination.

`GeneratorMap`, the one base of the maps given by an image per
generator letter (`LieAutomorphism`, `Derivation`, `ExpansionMap`),
lives here, the lowest module that knows the letters.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Iterable, Mapping

from .sparse import TruncatedSeries, add_into, check_kind, check_truncation

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
    """The letter whose `letter_label` is name, so not `a01`."""
    kind, idx = name[:1], name[1:]
    if kind not in ("a", "b") or not idx.isdigit():
        raise ValueError(f"bad generator name {name!r}")
    i = int(idx)
    letter = a_letter(i) if kind == "a" else b_letter(i)
    if letter_label(letter) != name:
        raise ValueError(f"bad generator name {name!r}")
    if not 1 <= i <= genus:
        raise ValueError(f"generator {name!r} out of range for genus {genus}")
    return letter


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
    check_kind(alphabet_size, int, "alphabet_size")
    check_kind(degree, int, "degree")
    if alphabet_size < 1 or degree < 1:
        raise ValueError("alphabet size and degree must be >= 1")
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * alphabet_size ** (degree // e)
    return total // degree


def _check_weight(mu: tuple[int, ...]) -> int:
    """|mu|, or a ValueError unless mu is a tuple of non-negative ints."""
    check_kind(mu, tuple, "mu")
    for m in mu:
        check_kind(m, int, "weight entry")
        if m < 0:
            raise ValueError(f"weight entry {m} is negative")
    return sum(mu)


def lyndon_count(mu: tuple[int, ...]) -> int:
    """Number of Lyndon words of content mu (letter i occurring mu[i]
    times), the dimension of the free Lie algebra at weight mu: Witt's
    formula by multidegree, (1/n) sum over e | gcd(mu) of Moebius(e)
    (n/e)! / prod_i (mu_i/e)!, with n = |mu|."""
    _check_weight(mu)
    return _lyndon_count(mu)


def _lyndon_count(mu: tuple[int, ...]) -> int:
    n = sum(mu)
    if not n:
        return 0
    g = gcd(*mu)
    return sum(_mobius(e) * factorial(n // e)
               // prod(factorial(m // e) for m in mu)
               for e in range(1, g + 1) if g % e == 0) // n


def bracket_kernel_dim(mu: tuple[int, ...]) -> int:
    """Dimension of the weight-mu block (|mu| >= 2) of the kernel of the
    bracket H (x) L -> L, (h, u) -> [h, u]: the bracket is onto every
    weight of degree at least 2, so it is the block of H (x) L, the sum
    over the letters h in mu of `lyndon_count(mu - e_h)`, less
    `lyndon_count(mu)`."""
    if (n := _check_weight(mu)) < 2:
        raise ValueError(f"weight {mu!r} has total {n}, but the bracket "
                         "kernel needs at least 2")
    return sum(_lyndon_count((*mu[:h], m - 1, *mu[h + 1:]))
               for h, m in enumerate(mu) if m) - _lyndon_count(mu)


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


def _sum_units(unit_of, blocks: Mapping) -> tuple[dict, dict, int]:
    """The one blockwise solve, by linearity: each block of integer
    right-hand sides, in weight order, summed as b_key times the unit
    solve `unit_of(mu)(key)` of its weight, such as a `BlockSolver.unit`, as
    (integer numerators, residuals, den) over the lcm of the units'
    multipliers.  residuals keeps each block's nonzero summed residual
    by its weight; it is empty exactly when every right-hand side is in
    its solver's span."""
    terms = []
    for mu in sorted(blocks):
        unit = unit_of(mu)
        terms.append((mu, [(c, *unit(key)) for key, c in blocks[mu].items()]))
    den = lcm(*(m for _, block in terms for *_, m in block))
    out: dict = {}
    residuals: dict = {}
    for mu, block in terms:
        residual: dict = {}
        for c, x, r, m in block:
            f = c * (den // m)
            add_into(out, x, f)
            add_into(residual, r, f)
        if residual:
            residuals[mu] = residual
    return out, residuals, den


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


def graded(coords: Mapping[Word, object]) -> tuple[tuple[int, dict], ...]:
    """The nonempty degree parts (d, {word of length d: c}) of a Lyndon
    coordinate dict, in ascending degree; a homogeneous dict is its own
    one part, uncopied."""
    degrees = set(map(len, coords))
    if len(degrees) < 2:
        return ((degrees.pop(), coords),) if degrees else ()
    parts: dict[int, dict] = {d: {} for d in sorted(degrees)}
    for w, c in coords.items():
        parts[len(w)][w] = c
    return tuple(parts.items())


def bracket_coords(x: tuple[tuple[int, Mapping], ...],
                   y: tuple[tuple[int, Mapping], ...],
                   n: int) -> dict[Word, object]:
    """The bracket of two `graded` Lyndon coordinate dicts, term pairs
    above degree n never formed and zero sums dropped.  Coefficients of
    any exact type (`Fraction` coords of a `LieSeries`, or the integer
    numerators of a generator map's memo) come out of the same type.

    Each left part of degree du meets the right parts of degree at most
    n - du; the walk stops at the first left part that meets none.
    """
    out: dict[Word, object] = {}
    if not y:
        return out
    least = y[0][0]
    for du, xs in x:
        room = n - du
        if room < least:
            break
        for dv, ys in y:
            if dv > room:
                break
            for wu, cu in xs.items():
                for wv, cv in ys.items():
                    add_into(out, bracket_basis(wu, wv), cu * cv)
    return out


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
        """[self, other] on the `Fraction` coords as they stand; term pairs
        above max_degree are never formed."""
        self._check(other)
        return self._like(bracket_coords(graded(self.coords),
                                         graded(other.coords),
                                         self.max_degree))


def bracket(x: LieSeries, y: LieSeries) -> LieSeries:
    return x.bracket(y)


def bch(x: LieSeries, y: LieSeries) -> LieSeries:
    """log(exp(x)·exp(y)) on the Lie side, truncated.

    Computed by transporting to the tensor algebra, multiplying
    exponentials, taking log and projecting back to the Lyndon basis.
    """
    check_kind(x, LieSeries, "x")
    x._check(y)
    from . import tensor_hopf as th

    p = th.mul(th.exp(th.embed_lie(x)), th.exp(th.embed_lie(y)))
    return th.project_lie(th.log(p))


class GeneratorMap:
    """A map fixed by one image per generator letter: a `_series` of the
    map's genus, cut down to `max_degree` (kept as given when already
    there; a coarser image is rejected).  A subclass names `_series`,
    vets images in `_check_image` and caches in `_memo`, which starts
    empty and is filled as entries are first asked for."""

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
        self._memo = {}

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
