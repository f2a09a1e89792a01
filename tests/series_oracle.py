"""Fraction oracle for the tensor product and the series built on it.

`mul` is the concatenation product computed with one `Fraction` product
per pair of terms, the way `tensor_hopf.mul` worked before it moved to
integer numerators over one common denominator.  `exp`, `log` and
`inv_unit` sum their truncated power series term by term on top of it,
with `Fraction` coefficients, through every power up to the truncation
degree.  A chain of `mul` over the images of a free group word's letters
(with `inv_unit` for an inverse letter) is the oracle for
`tensor_hopf.evaluate_expansion`.  They work on plain word -> coefficient
dicts and share no code with `lietrees`, whose integer kernels for
`mul`, `exp`, `log`, `inv_unit` and `evaluate_expansion` the tests
compare against them.  `coproduct` expands the coproduct word by word,
every generator primitive, for the tests' Hopf-algebra definitions of
primitive and group-like, which `tensor_hopf` decides by the Lyndon
peel instead.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Mapping


def _add_term(acc: dict, key, c) -> None:
    nv = acc.get(key, 0) + c
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def mul(x: Mapping, y: Mapping, n: int) -> dict:
    """Concatenation product of two word dicts, words above n discarded."""
    out: dict = {}
    by_len: dict = {}
    for w, c in y.items():
        by_len.setdefault(len(w), []).append((w, c))
    for wu, cu in x.items():
        room = n - len(wu)
        if room < 0:
            continue
        for ly, terms in by_len.items():
            if ly > room:
                continue
            for wv, cv in terms:
                _add_term(out, wu + wv, cu * cv)
    return out


def _series(u: Mapping, coeff, n: int) -> dict:
    """The sum of coeff(k) * u^k over 0 <= k <= n."""
    out: dict = {}
    power: dict = {(): Fraction(1)}
    for k in range(n + 1):
        if k:
            power = mul(power, u, n)
        for w, c in power.items():
            _add_term(out, w, coeff(k) * c)
    return out


def exp(x: Mapping, n: int) -> dict:
    """exp of a series with no constant term."""
    return _series(x, lambda k: Fraction(1, factorial(k)), n)


def log(x: Mapping, n: int) -> dict:
    """log of a series with constant term 1."""
    u = {w: c for w, c in x.items() if w}
    return _series(u, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, n)


def inv_unit(x: Mapping, n: int) -> dict:
    """Inverse of a series with constant term 1."""
    u = {w: c for w, c in x.items() if w}
    return _series(u, lambda k: (-1) ** k, n)


def coproduct(x: Mapping) -> dict:
    """All (left word, right word) components of the coproduct of a word
    dict: each word splits over every way of dividing its letter
    positions into two subsequences."""
    out: dict = {}
    for w, c in x.items():
        m = len(w)
        idx = range(m)
        for r in range(m + 1):
            for left in combinations(idx, r):
                left_set = set(left)
                wl = tuple(w[i] for i in left)
                wr = tuple(w[i] for i in idx if i not in left_set)
                _add_term(out, (wl, wr), c)
    return out
