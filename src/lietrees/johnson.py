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
`_LieMap` adds the apply loop over memoised word images.  The memo holds
each word image as integer numerators over one denominator
(`sparse.scaled`), split by degree (`free_lie.graded`), and is filled on
first use: a generator's image is scaled from the map's image of it,
and a longer word's image is the integer bracket
(`free_lie.bracket_coords`) of its factors' images over the product of
their denominators.  One integer core, `_LieMap._image`, takes integer
numerators to the image's numerators over the lcm of the word images'
denominators, reading each word image only up to the truncation.
Applying the map to a series scales it once and makes one `Fraction`
per output word.  Each map kind has one series step, psi - id for an
automorphism and delta for a derivation: `invert_aut`, `log_aut` and
`exp_der` sum their powers on the same core's integers
(`sparse.scaled_series`) and make one `Fraction` per word of each
generator image.  The two invariants are linear in the window
coefficients of psi, read from that memo on integers by one reader,
`_window`: `tau_to_trees` sums the memoised unit solves of the cached
eta solvers and `morita_mk` the memoised class of each window word
(`free_lie._sum_units`), and each builds a chain or tensor only on a
failure path, to name the fault, never to solve again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import factorial, lcm

from . import jacobi
from .free_lie import (GeneratorMap, LieSeries, Word, _letter_weight,
                       _sum_units, bracket_coords, gen_count, graded,
                       letter_label, partner, std_factorization)
from .jacobi import HLieTensor, TreeCombo, eta, random_tree
from .sparse import (add_into, add_term, check_kind, scaled, scaled_series,
                     unscaled)

ONE = Fraction(1)
Parts = tuple[tuple[int, dict[Word, int]], ...]


class _LieMap(GeneratorMap):
    """A generator map of L/L_{>N} into itself: a subclass gives `_kind`,
    `_extend`, the image of a basis word from those of its standard
    factors, and `_step`, the series step of `_generator_series`; the
    memo keeps word images as (parts, denominator), the parts the
    `graded` integer numerators, each made when first asked for."""

    __slots__ = ()
    _series = LieSeries

    def _word(self, w: Word) -> tuple[Parts, int]:
        got = self._memo.get(w)
        if got is None:
            nx, den = (scaled(self.images[w[0]].coords) if len(w) == 1
                       else self._extend(*std_factorization(w)))
            got = self._memo[w] = graded(nx), den
        return got

    def _image(self, nx: dict[Word, int], n: int,
               den: int | None = None) -> tuple[dict[Word, int], int]:
        """(numerators, den) of the image of the integer combination nx,
        words above n dropped: each word image brought over den (by
        default the lcm of their denominators) and walked up to degree n."""
        images = [(c, *self._word(w)) for w, c in nx.items()]
        if den is None:
            den = lcm(*(du for _, _, du in images))
        acc: dict[Word, int] = {}
        for c, parts, du in images:
            f = c * (den // du)
            for d, terms in parts:
                if d > n:
                    break
                add_into(acc, terms, f)
        return acc, den

    def _apply(self, x: LieSeries) -> LieSeries:
        """x scaled once, its integer image taken, and one `Fraction` made
        per output word."""
        check_kind(x, LieSeries, "x")
        if x.genus != self.genus:
            raise ValueError("genus mismatch")
        if x.max_degree > self.max_degree:
            raise ValueError(f"series truncated above the {self._kind}")
        nx, dx = scaled(x.coords)
        acc, den = self._image(nx, x.max_degree)
        return x._like(unscaled(acc, dx * den))

    def _generator_series(self, start, coeff) -> dict[int, LieSeries]:
        """Per generator l, the sum of coeff(k) * `_step`^k(x) for x =
        start(l) = (numerators, den), by `sparse.scaled_series` on integer
        numerators, with one `unscaled` per generator image.

        A word image's denominator is the product of those of its
        letters' images, so r = lcm(letter image denominators)^N clears
        them all: the numerators nt of a term step to _step(nt, acc, r),
        acc the map's image of nt over r, and the step multiplies the
        denominator by r.  Each step raises degree, so a start of least
        degree m vanishes after N - m steps."""
        n = self.max_degree
        ratio = lcm(*(self._word((l,))[1]
                      for l in range(gen_count(self.genus)))) ** n
        out = {}
        for l in range(gen_count(self.genus)):
            nx, dx = start(l)
            acc, den = scaled_series(
                lambda nt: self._step(nt, self._image(nt, n, ratio)[0], ratio),
                nx, coeff, n - min(map(len, nx), default=n), ratio)
            out[l] = LieSeries._of(self.genus, n, unscaled(acc, dx * den))
        return out


class LieAutomorphism(_LieMap):
    """Automorphism of L/L_{>N} fixing every generator modulo L_{>=2}."""

    __slots__ = ()
    _kind = "automorphism"

    def _check_image(self, letter: int, img: LieSeries) -> None:
        if img.graded_part(1).coords != {(letter,): ONE}:
            raise ValueError(
                f"image of {letter_label(letter)} must be the generator "
                "plus higher-degree terms")

    def _extend(self, u: Word, v: Word) -> tuple[dict[Word, int], int]:
        (pu, du), (pv, dv) = self._word(u), self._word(v)
        return bracket_coords(pu, pv, self.max_degree), du * dv

    @staticmethod
    def _step(nt: dict[Word, int], acc: dict[Word, int],
              ratio: int) -> dict[Word, int]:
        """(psi - id)(t): acc, psi(t) over ratio times t's denominator,
        less t's numerators nt brought over the same."""
        add_into(acc, nt, -ratio)
        return acc

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
    check_kind(psi, LieAutomorphism, "psi")
    return psi._apply(x)


def compose_aut(psi: LieAutomorphism, phi: LieAutomorphism) -> LieAutomorphism:
    """x -> psi(phi(x)), at the finer of the two truncations that both support."""
    check_kind(psi, LieAutomorphism, "psi")
    check_kind(phi, LieAutomorphism, "phi")
    if psi.genus != phi.genus:
        raise ValueError("genus mismatch")
    n = min(psi.max_degree, phi.max_degree)
    return LieAutomorphism(psi.genus, n,
                           {l: apply_aut(psi, phi.image_of(l).truncated(n))
                            for l in range(gen_count(psi.genus))})


def invert_aut(psi: LieAutomorphism) -> LieAutomorphism:
    """Group inverse psi^-1 = sum over k >= 0 of (-1)^k (psi - id)^k.

    psi - id is linear and raises degree, so on each generator the sum
    stops by degree N; the result is checked to compose to the identity.
    """
    check_kind(psi, LieAutomorphism, "psi")
    phi = LieAutomorphism(psi.genus, psi.max_degree, psi._generator_series(
        lambda l: ({(l,): 1}, 1), lambda k: (-1) ** k))
    for l, img in phi.images.items():
        nx, dx = scaled(img.coords)
        acc, den = psi._image(nx, psi.max_degree)
        if acc != {(l,): dx * den}:
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

    def _extend(self, u: Word, v: Word) -> tuple[dict[Word, int], int]:
        """[D(u), v] + [u, D(v)] over du·dv."""
        (pu, du), (pv, dv) = self._word(u), self._word(v)
        n = self.max_degree
        out = bracket_coords(pu, ((len(v), {v: dv}),), n)
        add_into(out, bracket_coords(((len(u), {u: du}),), pv, n))
        return out, du * dv

    @staticmethod
    def _step(nt: dict[Word, int], acc: dict[Word, int],
              ratio: int) -> dict[Word, int]:
        """delta(t): acc, already delta(t) over ratio times t's denominator."""
        return acc


def apply_der(delta: Derivation, x: LieSeries) -> LieSeries:
    """Leibniz extension of the generator values."""
    check_kind(delta, Derivation, "delta")
    return delta._apply(x)


def exp_der(delta: Derivation) -> LieAutomorphism:
    """Automorphism sum of delta^k / k!; finite because delta raises degree."""
    check_kind(delta, Derivation, "delta")
    images = delta._generator_series(lambda l: ({(l,): 1}, 1),
                                     lambda k: Fraction(1, factorial(k)))
    return LieAutomorphism(delta.genus, delta.max_degree, images)


def log_aut(psi: LieAutomorphism) -> Derivation:
    """Derivation whose exponential is psi.

    On each generator x it is the sum over k >= 0 of
    (-1)^k/(k+1) (psi - id)^k applied to the deviation psi(x) - x; each
    application of psi - id raises degree.
    """
    check_kind(psi, LieAutomorphism, "psi")

    def deviation(l):
        nx, dx = scaled(psi.images[l].coords)
        add_term(nx, (l,), -dx)
        return nx, dx

    return Derivation(psi.genus, psi.max_degree, psi._generator_series(
        deviation, lambda k: Fraction((-1) ** k, k + 1)))


def is_omega_fixing(psi: LieAutomorphism) -> bool:
    from .symplectic import omega
    check_kind(psi, LieAutomorphism, "psi")
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
    the window data of psi is recovered exactly from the result.  Above
    degree one a deviation's words are its image's, read in place.
    """
    _check_level(psi, k)
    genus = psi.genus
    coords: dict[tuple[int, Word], Fraction] = {}
    for letter in range(gen_count(genus)):
        mate, sign = partner(letter)
        for w, c in psi.image_of(letter).coords.items():
            if k + 1 <= len(w) <= 2 * k:
                add_term(coords, (mate, w), sign * c)
    return HLieTensor._of(genus, coords)


def _check_level(psi: LieAutomorphism, k: int) -> None:
    """Reject a psi that is not an automorphism, a k that is not an int,
    k < 1, a truncation below 2k, or a deviation of degree <= k.  An
    image's degree-one part is its generator, so a deviation of degree
    <= k is an image word of length 2..k."""
    check_kind(psi, LieAutomorphism, "psi")
    check_kind(k, int, "k")
    if k < 1:
        raise ValueError("k must be at least 1")
    if psi.max_degree < 2 * k:
        raise ValueError("automorphism truncated below degree 2k")
    if any(1 < len(w) <= k for img in psi.images.values() for w in img.coords):
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


def _window(psi: LieAutomorphism, k: int) -> tuple[dict, int]:
    """The window tensor of a level-k psi as `tau_truncated` packages it,
    read on integers from psi's image memo: (blocks, den), each block
    {(h, w): numerator} of one tree degree d and weight mu under the key
    (d, mu), over the lcm den of the generator images' denominators."""
    genus = psi.genus
    images = [(l, *psi._word((l,))) for l in range(gen_count(genus))]
    den = lcm(*(dl for *_, dl in images))
    blocks: dict = {}
    for l, parts, dl in images:
        mate, sign = partner(l)
        f = sign * (den // dl)
        for d, terms in parts:
            if k + 1 <= d <= 2 * k:
                for w, c in terms.items():
                    blocks.setdefault((d - 1, _letter_weight((mate, *w), genus)),
                                      {})[(mate, w)] = f * c
    return blocks, den


def tau_to_trees(psi: LieAutomorphism, k: int) -> TreeCombo:
    """Tree-diagram lift of the window tensor, by linearity.

    eta_inverse is linear, so the lift is summed from the memoised unit
    solves of the cached eta solvers (`free_lie._sum_units`), one per
    window word of `_window`, with no tensor built.  Each solver spans
    exactly its block of the bracket kernel, so a residual left means the
    window tensor is outside it; only then is the tensor built, and its
    bracket contraction, as in `eta_inverse`, tells that from a solver
    fault.
    """
    _check_level(psi, k)
    genus = psi.genus
    blocks, den = _window(psi, k)
    x, residual, m = _sum_units(
        lambda block: jacobi._eta_solver(genus, *block).unit, blocks)
    if residual:
        if not tau_truncated(psi, k).bracket_contraction().is_zero():
            raise ValueError("input not in the bracket kernel")
        raise RuntimeError("kernel element outside the certified span")
    return TreeCombo._of(genus, unscaled(x, m * den))


def random_ic_element(genus: int, k: int, seed: int,
                      max_degree: int) -> LieAutomorphism:
    """Seeded random element of filtration level k.

    Built as the exponential of a derivation paired off random tree
    tensors, one per tree degree from k up to max_degree - 1, so the
    result fixes the symplectic element exactly.
    """
    check_kind(genus, int, "genus")
    check_kind(k, int, "k")
    check_kind(max_degree, int, "max_degree")
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

    Only the cycle's degrees k+2..2k+1, the degrees of H3(L/L_{>k}), are
    solved.  The boundary keeps degree, so each degree part of the cycle
    is a cycle and bounds on its own.  Below k+2 the cycle vanishes,
    since psi moves each generator only in degrees above k: the a_i ^ b_i
    terms cancel in degree 2 and are left out.  Degrees up to 2k are
    where psi can fail to fix the symplectic element, and degree 2k+1 is
    where H2(L/L_{>2k}) = L_{2k+1} lives, so a cycle that bounds nothing
    is still refused.  Above 2k+1 every 2-cycle bounds, and the reduced
    3-chain is a cycle in degrees where H3(L/L_{>k}) is zero, so those
    degrees add nothing to the class.

    In those degrees each term of the cycle has a one-letter factor,
    since every deviation has degree above k, so the cycle is exactly
    -sum tau_{h,w} h ^ w over the window tensor tau of `_window`, the
    data `tau_to_trees` reads.  The class is linear in it: -sum
    tau_{h,w} M(h, w), each M(h, w) the memoised class of one window
    word (`koszul._window_class`), summed by `free_lie._sum_units`
    with the residuals of its d3 and H3 solves.  A d3 residual left
    means the cycle is outside the span of d3: it bounds nothing, or is
    no cycle; its boundary, computed only there, tells a psi moving the
    symplectic element from a cycle that bounds nothing.
    """
    from .koszul import (HomologyClass, NotABoundaryError, WedgeChain,
                         _window_class, boundary)
    _check_level(psi, k)
    genus = psi.genus
    if genus < 1:
        raise ValueError("bad context")
    blocks, den = _window(psi, k)
    x, residual, m = _sum_units(
        lambda block: partial(_window_class, genus, k, block[1]), blocks)
    if not residual:
        return HomologyClass._of(genus, k, unscaled(
            {key: -v for key, v in x.items()}, m * den))
    if all(arity == 3 for r in residual.values() for arity, _ in r):
        raise RuntimeError("cycle reduction left a nonzero remainder")
    cycle = {((h,), w): -c for block in blocks.values()
             for (h, w), c in block.items()}
    if not boundary(WedgeChain._of(genus, 2 * k, 2,
                                   unscaled(cycle, den))).is_zero():
        raise ValueError("automorphism does not fix the symplectic "
                         "element modulo degree 2k+1")
    raise NotABoundaryError("2-cycle is not a 3-boundary")
