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

The Lie side has the same kind of oracle.  `lie_bracket` is the bracket
of two Lyndon coordinate dicts with one `Fraction` product per pair of
terms, and `apply_map` is the generator-map apply loop with a memo of
`Fraction` word images, the way `johnson` worked before the maps kept
their word images as integer numerators over one denominator.
`compose`, `invert`, `exp_der` and `log_aut` sum their series term by
term on top of it.  These take the integer structure constants from
`free_lie.bracket_basis`; the arithmetic, the memo and the series are
their own.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Mapping

from lietrees.free_lie import bracket_basis, std_factorization


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


def lie_bracket(x: Mapping, y: Mapping, n: int) -> dict:
    """Bracket of two Lyndon coordinate dicts, words above n discarded."""
    out: dict = {}
    for wu, cu in x.items():
        for wv, cv in y.items():
            if len(wu) + len(wv) <= n:
                for w, e in bracket_basis(wu, wv).items():
                    _add_term(out, w, Fraction(cu) * cv * e)
    return out


def apply_map(images: Mapping, n: int, x: Mapping, m: int,
              derivation: bool = False) -> dict:
    """The map with these generator images (dicts at truncation n) applied
    to x (a dict at truncation m <= n), as an automorphism, or as a
    derivation when asked; words above m discarded."""
    memo = {(letter,): dict(img) for letter, img in images.items()}

    def word(w):
        if w not in memo:
            u, v = std_factorization(w)
            if derivation:
                out = lie_bracket(word(u), {v: Fraction(1)}, n)
                for key, c in lie_bracket({u: Fraction(1)}, word(v), n).items():
                    _add_term(out, key, c)
            else:
                out = lie_bracket(word(u), word(v), n)
            memo[w] = out
        return memo[w]

    acc: dict = {}
    for w, c in x.items():
        for wu, cu in word(w).items():
            if len(wu) <= m:
                _add_term(acc, wu, Fraction(c) * cu)
    return acc


def _lie_series(step, x: Mapping, coeff, n: int) -> dict:
    """The sum of coeff(k) * step^k(x) over 0 <= k <= n."""
    out: dict = {}
    for k in range(n + 1):
        if k:
            x = step(x)
        for w, c in x.items():
            _add_term(out, w, coeff(k) * c)
    return out


def _difference(x: Mapping, y: Mapping) -> dict:
    out = dict(x)
    for w, c in y.items():
        _add_term(out, w, -c)
    return out


def compose(psi: Mapping, phi: Mapping, n: int) -> dict:
    """Generator images of x -> psi(phi(x)), both maps at truncation n."""
    return {l: apply_map(psi, n, img, n) for l, img in phi.items()}


def invert(psi: Mapping, n: int) -> dict:
    """Generator images of the inverse, the sum of (id - psi)^k."""
    step = lambda t: _difference(t, apply_map(psi, n, t, n))
    return {l: _lie_series(step, {(l,): Fraction(1)}, lambda k: 1, n)
            for l in psi}


def exp_der(delta: Mapping, n: int) -> dict:
    """Generator images of the exponential of a derivation, sum delta^k/k!."""
    step = lambda t: apply_map(delta, n, t, n, derivation=True)
    return {l: _lie_series(step, {(l,): Fraction(1)},
                           lambda k: Fraction(1, factorial(k)), n)
            for l in delta}


def log_aut(psi: Mapping, n: int) -> dict:
    """Generator values of the derivation log psi, the sum of
    (-1)^k/(k+1) (psi - id)^k applied to psi(x) - x."""
    step = lambda t: _difference(apply_map(psi, n, t, n), t)
    return {l: _lie_series(step, _difference(img, {(l,): Fraction(1)}),
                           lambda k: Fraction((-1) ** k, k + 1), n)
            for l, img in psi.items()}
