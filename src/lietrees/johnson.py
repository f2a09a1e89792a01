"""Filtered automorphisms of the truncated free Lie algebra.

An automorphism here sends each degree-one generator to itself plus
higher-degree terms and extends through standard factorizations, so it
respects the lower central filtration.  The module provides the group
operations (apply, compose, invert), the exp/log dictionary with
degree-raising derivations, the degree-window invariant read off the
generator deviations, its tree-diagram lift, and the homology-valued
invariant obtained by solving a boundary problem in the Koszul complex
of the nilpotent quotient.  Automorphisms and derivations take their
construction, truncation and equality from `free_lie.GeneratorMap`;
`_LieMap` adds the apply loop over memoised word images.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .free_lie import (GeneratorMap, LieSeries, Word, a_letter, b_letter,
                       gen_count, letter_label, partner, std_factorization)
from .jacobi import HLieTensor, TreeCombo, eta, eta_inverse, random_tree
from .sparse import add_term, power_series

ONE = Fraction(1)


class _LieMap(GeneratorMap):
    """A generator map of L/L_{>N} into itself: a subclass gives `_kind`
    and `_extend`, the image of a basis word from those of its standard
    factors; word images are cached in the memo."""

    __slots__ = ()
    _series = LieSeries

    def _word(self, w: Word) -> LieSeries:
        got = self._memo.get(w)
        if got is None:
            got = self._memo[w] = self._extend(*std_factorization(w))
        return got

    def _apply(self, x: LieSeries) -> LieSeries:
        if x.genus != self.genus:
            raise ValueError("genus mismatch")
        if x.max_degree > self.max_degree:
            raise ValueError(f"series truncated above the {self._kind}")
        acc: dict[Word, Fraction] = {}
        for w, c in x.coords.items():
            for wu, cu in self._word(w).coords.items():
                if len(wu) <= x.max_degree:
                    add_term(acc, wu, c * cu)
        return x._like(acc)


class LieAutomorphism(_LieMap):
    """Automorphism of L/L_{>N} fixing every generator modulo L_{>=2}."""

    __slots__ = ()
    _kind = "automorphism"

    def _check_image(self, letter: int, img: LieSeries) -> None:
        if img.graded_part(1).coords != {(letter,): ONE}:
            raise ValueError(
                f"image of {letter_label(letter)} must be the generator "
                "plus higher-degree terms")

    def _extend(self, u: Word, v: Word) -> LieSeries:
        return self._word(u).bracket(self._word(v))

    def image_of(self, letter: int) -> LieSeries:
        return self.images[letter]

    def deviation(self, letter: int) -> LieSeries:
        return self.images[letter] - LieSeries.gen(self.genus, self.max_degree,
                                                   letter)


def identity_aut(genus: int, max_degree: int) -> LieAutomorphism:
    return LieAutomorphism(genus, max_degree,
                           {l: LieSeries.gen(genus, max_degree, l)
                            for l in range(gen_count(genus))})


def apply_aut(psi: LieAutomorphism, x: LieSeries) -> LieSeries:
    """psi(x); x may live at a coarser truncation than psi."""
    return psi._apply(x)


def compose_aut(psi: LieAutomorphism, phi: LieAutomorphism) -> LieAutomorphism:
    """x -> psi(phi(x)), at the finer of the two truncations that both support."""
    if psi.genus != phi.genus:
        raise ValueError("genus mismatch")
    n = min(psi.max_degree, phi.max_degree)
    return LieAutomorphism(psi.genus, n,
                           {l: apply_aut(psi, phi.image_of(l).truncated(n))
                            for l in range(gen_count(psi.genus))})


def invert_aut(psi: LieAutomorphism) -> LieAutomorphism:
    """Group inverse psi^-1 = sum over k >= 0 of (id - psi)^k.

    id - psi is linear and raises degree, so on each generator the sum
    stops by degree N; the result is checked to compose to the identity.
    """
    genus, n = psi.genus, psi.max_degree
    phi = LieAutomorphism(genus, n, {
        l: power_series(lambda t: t - apply_aut(psi, t),
                        LieSeries.gen(genus, n, l), lambda k: 1, n)
        for l in range(gen_count(genus))})
    if compose_aut(psi, phi) != identity_aut(genus, n):
        raise RuntimeError("inverse iteration failed to converge")
    return phi


class Derivation(_LieMap):
    """Degree-raising derivation of L/L_{>N}; values have degree >= 2."""

    __slots__ = ()
    _kind = "derivation"

    def _check_image(self, letter: int, img: LieSeries) -> None:
        md = img.min_degree()
        if md is not None and md < 2:
            raise ValueError("derivation must raise degree")

    def _extend(self, u: Word, v: Word) -> LieSeries:
        zero = LieSeries.zero(self.genus, self.max_degree)
        return (self._word(u).bracket(zero._like({v: ONE}))
                + zero._like({u: ONE}).bracket(self._word(v)))


def apply_der(delta: Derivation, x: LieSeries) -> LieSeries:
    """Leibniz extension of the generator values."""
    return delta._apply(x)


def exp_der(delta: Derivation) -> LieAutomorphism:
    """Automorphism sum of delta^k / k!; finite because delta raises degree."""
    genus, n = delta.genus, delta.max_degree
    return LieAutomorphism(genus, n, {
        l: power_series(lambda t: apply_der(delta, t),
                        LieSeries.gen(genus, n, l),
                        lambda k: Fraction(1, factorial(k)), n)
        for l in range(gen_count(genus))})


def log_aut(psi: LieAutomorphism) -> Derivation:
    """Derivation whose exponential is psi.

    On each generator x it is the sum over k >= 0 of
    (-1)^k/(k+1) (psi - id)^k applied to the deviation psi(x) - x; each
    application of psi - id raises degree.
    """
    genus, n = psi.genus, psi.max_degree
    return Derivation(genus, n, {
        l: power_series(lambda t: apply_aut(psi, t) - t, psi.deviation(l),
                        lambda k: Fraction((-1) ** k, k + 1), n)
        for l in range(gen_count(genus))})


def is_omega_fixing(psi: LieAutomorphism) -> bool:
    from .symplectic import omega
    w = omega(psi.genus, psi.max_degree)
    return apply_aut(psi, w) == w


def derivation_from_tensor(t: HLieTensor, max_degree: int) -> Derivation:
    """Derivation paired off a coefficient tensor via the symplectic form.

    A term h tensor u feeds -sign * u into the value on the partner of h,
    inverting the pairing of tau_truncated: b_i tensor u feeds -u into a_i
    and a_i tensor u feeds +u into b_i.  With this convention a tensor in
    the bracket kernel yields a derivation killing the symplectic element.
    """
    genus = t.genus
    acc: dict[int, dict[Word, Fraction]] = {
        l: {} for l in range(gen_count(genus))}
    for (h, w), c in t.coords.items():
        if len(w) <= max_degree:
            target, sign = partner(h)
            add_term(acc[target], w, -sign * c)
    return Derivation(genus, max_degree,
                      {l: LieSeries(genus, max_degree, d)
                       for l, d in acc.items()})


# ---------------------------------------------------------------------------
# degree-window invariants


def tau_truncated(psi: LieAutomorphism, k: int) -> HLieTensor:
    """Deviations of a level-k psi in degrees k+1..2k, packaged as a tensor.

    Each deviation rides with the `partner` of its generator, signed, so
    the window data of psi is recovered exactly from the result.
    """
    _check_level(psi, k)
    genus = psi.genus
    coords: dict[tuple[int, Word], Fraction] = {}
    for letter in range(gen_count(genus)):
        mate, sign = partner(letter)
        for w, c in psi.deviation(letter).coords.items():
            if k + 1 <= len(w) <= 2 * k:
                add_term(coords, (mate, w), sign * c)
    return HLieTensor._of(genus, coords)


def _check_level(psi: LieAutomorphism, k: int) -> None:
    """Reject k < 1, a truncation below 2k, or a deviation of degree <= k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if psi.max_degree < 2 * k:
        raise ValueError("automorphism truncated below degree 2k")
    for letter in range(gen_count(psi.genus)):
        md = psi.deviation(letter).min_degree()
        if md is not None and md <= k:
            raise ValueError(f"automorphism not in filtration level {k}")


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
    if genus < 1:
        raise ValueError("bad context: genus must be at least 1")
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
    from .koszul import _solve_boundary3, boundary, class_of, wedge_chain_from_terms
    _check_level(psi, k)
    genus = psi.genus
    big = 2 * k
    terms = []
    for i in range(1, genus + 1):
        a, b = a_letter(i), b_letter(i)
        terms.append((((a,), (b,)), ONE))
        xa = psi.image_of(a).truncated(big)
        xb = psi.image_of(b).truncated(big)
        for wu, cu in xa.coords.items():
            for wv, cv in xb.coords.items():
                terms.append(((wu, wv), -cu * cv))
    cycle = wedge_chain_from_terms(genus, big, 2, terms)
    if not boundary(cycle).is_zero():
        raise ValueError("automorphism does not fix the symplectic element "
                         "modulo degree 2k+1")
    t = _solve_boundary3(cycle)
    return class_of(t.reduced_to(k))
