"""Filtered automorphisms of the truncated free Lie algebra.

An automorphism here sends each degree-one generator to itself plus
higher-degree terms and extends through standard factorizations, so it
respects the lower central filtration.  The module provides the group
operations (apply, compose, invert), the exp/log dictionary with
degree-raising derivations, the degree-window invariant read off the
generator deviations, its tree-diagram lift, and the homology-valued
invariant obtained by solving a boundary problem in the Koszul complex
of the nilpotent quotient.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .free_lie import (LieSeries, Word, a_letter, b_letter, gen_count,
                       letter_label, std_factorization)
from .jacobi import HLieTensor, TreeCombo, eta, eta_inverse, random_tree
from .sparse import add_term

ONE = Fraction(1)


class LieAutomorphism:
    """Automorphism of L/L_{>N} fixing every generator modulo L_{>=2}."""

    __slots__ = ("genus", "max_degree", "images", "_cache")

    def __init__(self, genus: int, max_degree: int,
                 images: Mapping[int, LieSeries]):
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.genus = genus
        self.max_degree = max_degree
        clean: dict[int, LieSeries] = {}
        for letter in range(gen_count(genus)):
            if letter not in images:
                raise ValueError(f"missing image for {letter_label(letter)}")
            img = images[letter]
            if img.genus != genus:
                raise ValueError("image genus mismatch")
            img = img.truncated(max_degree)
            if img.graded_part(1).coords != {(letter,): ONE}:
                raise ValueError(
                    f"image of {letter_label(letter)} must be the generator "
                    "plus higher-degree terms")
            clean[letter] = img
        self.images = clean
        self._cache: dict[Word, LieSeries] = {
            (letter,): img for letter, img in clean.items()}

    def image_of(self, letter: int) -> LieSeries:
        return self.images[letter]

    def deviation(self, letter: int) -> LieSeries:
        return self.images[letter] - LieSeries.gen(self.genus, self.max_degree,
                                                   letter)

    def truncated(self, n: int) -> "LieAutomorphism":
        return LieAutomorphism(self.genus, n,
                               {l: s.truncated(n) for l, s in self.images.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LieAutomorphism)
                and self.genus == other.genus
                and self.max_degree == other.max_degree
                and self.images == other.images)

    def __repr__(self) -> str:
        bits = [f"{letter_label(l)} -> {s!r}" for l, s in sorted(self.images.items())]
        return "; ".join(bits)


def identity_aut(genus: int, max_degree: int) -> LieAutomorphism:
    return LieAutomorphism(genus, max_degree,
                           {l: LieSeries.gen(genus, max_degree, l)
                            for l in range(gen_count(genus))})


def _word_image(psi: LieAutomorphism, w: Word) -> LieSeries:
    got = psi._cache.get(w)
    if got is None:
        u, v = std_factorization(w)
        got = _word_image(psi, u).bracket(_word_image(psi, v))
        psi._cache[w] = got
    return got


def apply_aut(psi: LieAutomorphism, x: LieSeries) -> LieSeries:
    """psi(x); x may live at a coarser truncation than psi."""
    if x.genus != psi.genus:
        raise ValueError("genus mismatch")
    if x.max_degree > psi.max_degree:
        raise ValueError("series truncated above the automorphism")
    acc: dict[Word, Fraction] = {}
    for w, c in x.coords.items():
        for wu, cu in _word_image(psi, w).coords.items():
            if len(wu) <= x.max_degree:
                add_term(acc, wu, c * cu)
    return x._like(acc)


def compose_aut(psi: LieAutomorphism, phi: LieAutomorphism) -> LieAutomorphism:
    """x -> psi(phi(x)), at the finer of the two truncations that both support."""
    if psi.genus != phi.genus:
        raise ValueError("genus mismatch")
    n = min(psi.max_degree, phi.max_degree)
    return LieAutomorphism(psi.genus, n,
                           {l: apply_aut(psi, phi.image_of(l).truncated(n))
                            for l in range(gen_count(psi.genus))})


def invert_aut(psi: LieAutomorphism) -> LieAutomorphism:
    """Group inverse, by successive defect correction.

    Each pass removes the lowest-degree defect, so at most N passes are
    needed; the result is checked to compose to the identity.
    """
    genus, n = psi.genus, psi.max_degree
    phi = identity_aut(genus, n)
    for _ in range(n):
        defects = {l: apply_aut(psi, phi.image_of(l))
                   - LieSeries.gen(genus, n, l)
                   for l in range(gen_count(genus))}
        if not any(defects.values()):
            break
        phi = LieAutomorphism(genus, n,
                              {l: phi.image_of(l) - defects[l]
                               for l in range(gen_count(genus))})
    if compose_aut(psi, phi) != identity_aut(genus, n):
        raise RuntimeError("inverse iteration failed to converge")
    return phi


class Derivation:
    """Degree-raising derivation of L/L_{>N}; values have degree >= 2."""

    __slots__ = ("genus", "max_degree", "values", "_cache")

    def __init__(self, genus: int, max_degree: int,
                 values: Mapping[int, LieSeries]):
        self.genus = genus
        self.max_degree = max_degree
        clean: dict[int, LieSeries] = {}
        for letter in range(gen_count(genus)):
            if letter not in values:
                raise ValueError(f"missing value for {letter_label(letter)}")
            val = values[letter].truncated(max_degree)
            md = val.min_degree()
            if md is not None and md < 2:
                raise ValueError("derivation must raise degree")
            clean[letter] = val
        self.values = clean
        self._cache: dict[Word, LieSeries] = {
            (letter,): val for letter, val in clean.items()}

    def value_of(self, letter: int) -> LieSeries:
        return self.values[letter]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Derivation) and self.genus == other.genus
                and self.max_degree == other.max_degree
                and self.values == other.values)

    def __repr__(self) -> str:
        bits = [f"{letter_label(l)} -> {s!r}" for l, s in sorted(self.values.items())]
        return "; ".join(bits)


def _word_der(delta: Derivation, w: Word) -> LieSeries:
    got = delta._cache.get(w)
    if got is None:
        u, v = std_factorization(w)
        us = LieSeries(delta.genus, delta.max_degree, {u: ONE})
        vs = LieSeries(delta.genus, delta.max_degree, {v: ONE})
        got = _word_der(delta, u).bracket(vs) + us.bracket(_word_der(delta, v))
        delta._cache[w] = got
    return got


def apply_der(delta: Derivation, x: LieSeries) -> LieSeries:
    """Leibniz extension of the generator values."""
    if x.genus != delta.genus:
        raise ValueError("genus mismatch")
    if x.max_degree > delta.max_degree:
        raise ValueError("series truncated above the derivation")
    acc: dict[Word, Fraction] = {}
    for w, c in x.coords.items():
        for wu, cu in _word_der(delta, w).coords.items():
            if len(wu) <= x.max_degree:
                add_term(acc, wu, c * cu)
    return x._like(acc)


def exp_der(delta: Derivation) -> LieAutomorphism:
    """Automorphism sum(delta^n / n!); finite because delta raises degree."""
    genus, n = delta.genus, delta.max_degree
    images: dict[int, LieSeries] = {}
    for letter in range(gen_count(genus)):
        term = LieSeries.gen(genus, n, letter)
        acc = term
        fact = 1
        for m in range(1, n + 1):
            term = apply_der(delta, term)
            if not term:
                break
            fact *= m
            acc = acc + Fraction(1, fact) * term
        images[letter] = acc
    return LieAutomorphism(genus, n, images)


def log_aut(psi: LieAutomorphism) -> Derivation:
    """Derivation whose exponential is psi.

    Uses the series sum (-1)^(k+1)/k (psi - id)^k on each generator,
    where each application of (psi - id) raises degree.
    """
    genus, n = psi.genus, psi.max_degree
    values: dict[int, LieSeries] = {}
    for letter in range(gen_count(genus)):
        t = apply_aut(psi, LieSeries.gen(genus, n, letter)) \
            - LieSeries.gen(genus, n, letter)
        acc = LieSeries.zero(genus, n)
        k = 1
        sign = 1
        while t and k <= n:
            acc = acc + Fraction(sign, k) * t
            t = apply_aut(psi, t) - t
            k += 1
            sign = -sign
        values[letter] = acc
    return Derivation(genus, n, values)


def is_omega_fixing(psi: LieAutomorphism) -> bool:
    from .symplectic import omega
    w = omega(psi.genus, psi.max_degree)
    return apply_aut(psi, w) == w


def derivation_from_tensor(t: HLieTensor, max_degree: int) -> Derivation:
    """Derivation paired off a coefficient tensor via the symplectic form.

    A term b_i tensor u feeds -u into the value on a_i, and a term
    a_i tensor u feeds +u into the value on b_i; with this convention a
    tensor in the bracket kernel yields a derivation killing the
    symplectic element.
    """
    genus = t.genus
    acc: dict[int, dict[Word, Fraction]] = {
        l: {} for l in range(gen_count(genus))}
    for (h, w), c in t.coords.items():
        if len(w) > max_degree:
            continue
        if h % 2:
            target, coeff = h - 1, -c
        else:
            target, coeff = h + 1, c
        add_term(acc[target], w, coeff)
    return Derivation(genus, max_degree,
                      {l: LieSeries(genus, max_degree, d)
                       for l, d in acc.items()})


# ---------------------------------------------------------------------------
# degree-window invariants


def tau_truncated(psi: LieAutomorphism, k: int) -> HLieTensor:
    """Generator deviations in degrees k+1..2k, packaged as a tensor.

    Deviations of a_i ride with -b_i, deviations of b_i with +a_i, so
    the window data of psi is recovered exactly from the result.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if psi.max_degree < 2 * k:
        raise ValueError("automorphism truncated below degree 2k")
    genus = psi.genus
    coords: dict[tuple[int, Word], Fraction] = {}
    for i in range(1, genus + 1):
        for letter, mate, sign in ((a_letter(i), b_letter(i), -1),
                                   (b_letter(i), a_letter(i), 1)):
            for w, c in psi.deviation(letter).coords.items():
                if k + 1 <= len(w) <= 2 * k:
                    add_term(coords, (mate, w), sign * c)
    return HLieTensor.zero(genus)._like(coords)


def johnson_k(psi: LieAutomorphism, k: int) -> HLieTensor:
    """Lowest graded piece (tree degree k) of the window tensor."""
    return tau_truncated(psi, k).graded_part(k)


def tau_bracket_check(psi: LieAutomorphism, k: int) -> bool:
    """Whether the window tensor lies in the bracket kernel."""
    return tau_truncated(psi, k).bracket_contraction().is_zero()


def kernel_check(psi: LieAutomorphism, k: int) -> bool:
    """Whether psi lies in the next filtration window, by two routes.

    Route one asks for the window tensor to vanish; route two asks the
    generator deviations to vanish through degree 2k.  The routes must
    agree; a disagreement is an internal error.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if psi.max_degree < 2 * k:
        raise ValueError("automorphism truncated below degree 2k")
    for letter in range(gen_count(psi.genus)):
        md = psi.deviation(letter).min_degree()
        if md is not None and md <= k:
            raise ValueError(f"automorphism not in filtration level {k}")
    via_tau = tau_truncated(psi, k).is_zero()
    via_dev = all(not psi.deviation(letter).truncated(2 * k)
                  for letter in range(gen_count(psi.genus)))
    if via_tau != via_dev:
        raise RuntimeError("window tensor and deviation tests disagree")
    return via_tau


def tau_to_trees(psi: LieAutomorphism, k: int) -> TreeCombo:
    """Tree-diagram lift of the window tensor, grade by grade."""
    t = tau_truncated(psi, k)
    combo = TreeCombo.zero(psi.genus)
    for d in t.degrees():
        combo = combo + eta_inverse(t.graded_part(d), d)
    return combo


def random_ic_element(genus: int, k: int, seed: int,
                      max_degree: int) -> LieAutomorphism:
    """Seeded random element of filtration level k.

    Built as the exponential of a derivation paired off random tree
    tensors, one per tree degree from k up to max_degree - 1, so the
    result fixes the symplectic element exactly.
    """
    if k < 1 or max_degree < 2 * k:
        raise ValueError("need k >= 1 and max_degree >= 2k")
    rng = random.Random(seed)
    tensor = HLieTensor.zero(genus)
    for d in range(k, max_degree):
        combo = random_tree(genus, d, rng)
        coeff = Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
        if rng.random() < 0.5:
            coeff = -coeff
        tensor = tensor + coeff * eta(combo)
    delta = derivation_from_tensor(tensor, max_degree)
    return exp_der(delta)


def morita_mk(psi: LieAutomorphism, k: int) -> "object":
    """Homology-valued invariant of a filtration-level-k automorphism.

    In the rank-two Koszul chain group of the class-2k quotient, the
    difference between the symplectic 2-chain and its image under psi is
    a cycle; it bounds a 3-chain, whose reduction to the class-k
    quotient is a cycle with a well-defined class independent of the
    chosen bounding chain.
    """
    from .koszul import boundary, class_of, solve_boundary3, wedge_chain_from_terms
    if k < 1:
        raise ValueError("k must be at least 1")
    if psi.max_degree < 2 * k:
        raise ValueError("automorphism truncated below degree 2k")
    genus = psi.genus
    for letter in range(gen_count(genus)):
        md = psi.deviation(letter).min_degree()
        if md is not None and md <= k:
            raise ValueError(f"automorphism not in filtration level {k}")
    big = 2 * k
    base = []
    moved = []
    for i in range(1, genus + 1):
        a, b = a_letter(i), b_letter(i)
        base.append((((a,), (b,)), ONE))
        xa = psi.image_of(a).truncated(big)
        xb = psi.image_of(b).truncated(big)
        for wu, cu in xa.coords.items():
            for wv, cv in xb.coords.items():
                moved.append(((wu, wv), cu * cv))
    cycle = (wedge_chain_from_terms(genus, big, 2, base)
             - wedge_chain_from_terms(genus, big, 2, moved))
    if not boundary(cycle).is_zero():
        raise ValueError("automorphism does not fix the symplectic element "
                         "modulo degree 2k+1")
    t = solve_boundary3(cycle)
    return class_of(t.reduced_to(k))
