"""Sparse rational linear combinations.

Every linear-combination type in the package stores a dict `coords`
from basis keys to nonzero exact rationals (`Fraction`, or `int` where a
value comes straight from the integer bracket tables; the two print
alike), plus a few context fields (genus, truncation degree, arity) that
two operands must share.  This module holds the accumulate helpers and
`SparseCombination`, which owns everything the types have in common:
the checked construction `_fill`, the unchecked `_of` and `_like`,
`zero`, the vector-space protocol and `__repr__`.  A subclass names its
context fields and fills in hooks: `_check_context` validates them,
`_admit(key)` keeps, drops or rejects a key, `_degree(key)` grades it,
and `_order(key)` and `_key_text(key)` lay out the repr.

`TruncatedSeries` adds what `LieSeries` and `TensorSeries` share: words
cut above `max_degree`, `gen` and `truncated`, whose range check
`check_truncation` the automorphism and expansion maps share too.
`scaled_series` is the one loop behind tensor exp, log and inverse and
the Lie-side exp_der, log_aut and invert_aut.  It runs on plain integer
dicts: its steps multiply a term's denominator by a fixed ratio, so
every term and coefficient it sums is an integer.  `scaled`
writes coords as integer numerators over one common denominator and
`unscaled` turns an integer accumulator back into lowest-terms
`Fraction`s.  The tensor product, the power series of both algebras,
the free group word product, the primitivity test and the Lie-side
generator maps, whose memo keeps every word image scaled, all work
between the two, so each pays one gcd per output entry instead of one
per product or sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c, deleting the key when the sum is zero."""
    nv = acc.get(key, 0) + c
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def add_into(acc: dict, terms: Mapping, factor=1) -> None:
    """acc += factor * terms, deleting keys whose sum is zero."""
    scale = factor != 1
    # factor first: Fraction * int takes Fraction's fast path, int * Fraction
    # its slower reflected one
    for key, c in terms.items():
        nv = acc.get(key, 0) + (factor * c if scale else c)
        if nv:
            acc[key] = nv
        else:
            acc.pop(key, None)


def scaled(coords: Mapping) -> tuple[dict, int]:
    """(numerators, den) with den the lcm of the denominators of the
    coefficients (`Fraction` or `int`) and coords[k] == numerators[k] / den."""
    den = lcm(*(c.denominator for c in coords.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in coords.items()}, den


def unscaled(acc: Mapping, den: int) -> dict:
    """{k: Fraction(v, den)} over the nonzero integers v of acc."""
    return {k: Fraction(v, den) for k, v in acc.items() if v}


def check_truncation(n: int, max_degree: int) -> None:
    """Raise ValueError unless 1 <= n <= max_degree."""
    if not 1 <= n <= max_degree:
        raise ValueError(f"truncation degree {n} outside 1..{max_degree}")


def check_kind(value: object, kind: type, name: str) -> None:
    """Raise ValueError, naming the argument, unless value is a `kind`;
    a bool is not an int here, though Python makes it a subclass."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, "
                         f"not {type(value).__name__}")


class SparseCombination:
    """Construction and vector-space protocol shared by the combination types.

    `_context` names the fields that must agree between operands.  The
    public constructors go through `_fill`; arithmetic builds results
    through `_like` and `_of`, which skip key validation: sums,
    differences and multiples only carry keys the validated operands
    already had.
    """

    __slots__ = ("coords",)
    _context: tuple[str, ...] = ()
    # the grading of a basis key; keys are words unless a subclass says otherwise
    _degree = staticmethod(len)

    def _fill(self, context: tuple, coords: Mapping | None) -> None:
        """Set the context fields, each an int, check them, and keep each
        nonzero coefficient, as a `Fraction`, whose key `_admit` accepts;
        a ValueError names coords, a coefficient or a key of the wrong kind."""
        for field, value in zip(self._context, context):
            check_kind(value, int, field)
            setattr(self, field, value)
        self._check_context()
        if coords is not None and not isinstance(coords, Mapping):
            raise ValueError(f"coords must be a mapping, "
                             f"not {type(coords).__name__}")
        clean = {}
        for key, c in (coords or {}).items():
            try:
                c = Fraction(c)
            except TypeError:
                raise ValueError(f"coefficient of {key!r} is not a rational: "
                                 f"{c!r}") from None
            if not c:
                continue
            try:
                admitted = self._admit(key)
            except TypeError:
                raise ValueError(f"key {key!r} has the wrong shape") from None
            if admitted:
                clean[key] = c
        self.coords = clean

    def _check_context(self) -> None:
        """Raise ValueError for context fields no combination can have."""
        if self.genus < 0:
            raise ValueError("bad context")

    @classmethod
    def zero(cls, *context):
        return cls(*context)

    @classmethod
    def _of(cls, *context_and_coords):
        """The combination with these context fields and coords, unchecked."""
        *context, coords = context_and_coords
        out = object.__new__(cls)
        for field, value in zip(cls._context, context):
            setattr(out, field, value)
        out.coords = coords
        return out

    def _like(self, coords: dict):
        """A combination in this one's context with the given coords, unchecked."""
        out = object.__new__(type(self))
        for field in self._context:
            setattr(out, field, getattr(self, field))
        out.coords = coords
        return out

    def _same_context(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self._context)

    def _check(self, other: "SparseCombination") -> None:
        if not self._same_context(other):
            raise ValueError(f"mismatched context ({', '.join(self._context)})")

    def degrees(self) -> list[int]:
        return sorted({self._degree(k) for k in self.coords})

    def min_degree(self) -> int | None:
        return min(map(self._degree, self.coords), default=None)

    def graded_part(self, d: int):
        deg = self._degree
        return self._like({k: c for k, c in self.coords.items() if deg(k) == d})

    def __bool__(self) -> bool:
        return bool(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other: object) -> bool:
        return self._same_context(other) and self.coords == other.coords

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        add_into(out, other.coords)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coords)
        add_into(out, other.coords, -1)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coords.items()})

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return self._like({k: c * s for k, c in self.coords.items()} if s else {})

    __mul__ = __rmul__

    def _order(self, key):
        """Sort key of a basis key in the repr: by degree, then by key."""
        return (self._degree(key), key)

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        terms = sorted(self.coords.items(), key=lambda t: self._order(t[0]))
        return " + ".join(f"({c})*{self._key_text(k)}" for k, c in terms)


class TruncatedSeries(SparseCombination):
    """A series on words truncated above max_degree; a subclass adds its
    `_admit`, `_key_text` and own methods."""

    __slots__ = ("genus", "max_degree")
    _context = ("genus", "max_degree")

    def __init__(self, genus: int, max_degree: int,
                 coords: Mapping | None = None):
        self._fill((genus, max_degree), coords)

    def _check_context(self) -> None:
        if self.genus < 0 or self.max_degree < 1:
            raise ValueError("bad context")

    @classmethod
    def gen(cls, genus: int, max_degree: int, letter: int):
        return cls(genus, max_degree, {(letter,): 1})

    def truncated(self, n: int):
        """The image in the quotient by degrees above n, 1 <= n <= max_degree."""
        check_truncation(n, self.max_degree)
        return self._of(self.genus, n,
                        {w: c for w, c in self.coords.items() if len(w) <= n})


def scaled_series(step, x: dict, coeff, last: int,
                  ratio: int) -> tuple[dict, int]:
    """The sum of coeff(k) * step^k(x) over 0 <= k <= last, stopped at the
    first term that vanishes, as (integer numerators, den), for an
    integer dict x and a step that, read over a denominator, multiplies
    it by ratio, so step^k(x) is an integer dict over ratio^k.  Over den
    = lcm(denominators of coeff(0..last)) * ratio^last every summand is
    an integer dict.  step runs at most last times; step^k(x) must
    vanish for k > last."""
    cs = [coeff(k) for k in range(last + 1)]
    den = lcm(*(c.denominator for c in cs)) * ratio ** last
    out: dict = {}
    for k, c in enumerate(cs):
        if k:
            x = step(x)
        if not x:
            break
        add_into(out, x, c.numerator * (den // (c.denominator * ratio ** k)))
    return out, den
