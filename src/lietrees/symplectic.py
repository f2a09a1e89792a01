"""Symplectic expansions of the surface group.

The boundary word of the genus-g surface is a product of commutators;
an expansion is symplectic when it is group-like and sends that word to
the exponential of minus the canonical degree-2 Lie element omega.  This
module builds such expansions to any truncation degree by correcting
the naive exponential expansion with a filtered automorphism, solved
degree by degree, and independently verifies candidates.  The target
omega_tilde is the boundary inverse under the naive expansion, taken by
`evaluate_expansion`; the splitting columns pair letters by `partner`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact_linalg import BlockSolver
from .free_lie import (LieSeries, Word, _letter_weight, _split_by_weight,
                       _sum_units, a_letter, b_letter, bracket_basis,
                       gen_count, lyndon_basis, partner)
from .johnson import (LieAutomorphism, apply_aut, compose_aut, identity_aut,
                      invert_aut)
from .sparse import check_kind, scaled, unscaled
from .tensor_hopf import (ExpansionMap, FreeGroupWord, TensorSeries,
                          basis_expansion, check_expansion, embed_lie,
                          evaluate_expansion, mul, project_lie)
from .tensor_hopf import exp as tensor_exp
from .tensor_hopf import log as tensor_log

HALF = Fraction(1, 2)


class SymplecticContext(NamedTuple):
    genus: int
    max_degree: int
    omega: LieSeries
    zeta: FreeGroupWord


def omega(genus: int, max_degree: int) -> LieSeries:
    """Canonical degree-2 element, the sum of the generator brackets."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    coords = {}
    for i in range(1, genus + 1):
        coords[(a_letter(i), b_letter(i))] = Fraction(1)
    return LieSeries(genus, max_degree, coords)


def zeta_inverse_word(genus: int) -> FreeGroupWord:
    """Product over handles of the commutator of inverse-b with a."""
    acc = FreeGroupWord.identity(genus)
    for i in range(1, genus + 1):
        acc = acc * FreeGroupWord.commutator(
            FreeGroupWord.gen(genus, b_letter(i), -1),
            FreeGroupWord.gen(genus, a_letter(i)))
    return acc


def zeta_word(genus: int) -> FreeGroupWord:
    return zeta_inverse_word(genus).inverse()


def symplectic_context(genus: int, max_degree: int) -> SymplecticContext:
    return SymplecticContext(genus, max_degree, omega(genus, max_degree),
                             zeta_word(genus))


@lru_cache(maxsize=None)
def omega_tilde(genus: int, max_degree: int) -> LieSeries:
    """log of the boundary inverse under the exponential basis expansion,
    projected to the Lie side; as inv_unit(exp(x)) = exp(-x), that is the
    product over handles of exp(-b_i) exp(a_i) exp(b_i) exp(-a_i)."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    return project_lie(tensor_log(evaluate_expansion(
        basis_expansion(genus, max_degree), zeta_inverse_word(genus))))


def _solve_splitting(genus: int, j: int,
                     defect: LieSeries) -> dict[int, dict[Word, Fraction]]:
    """Write a degree-(j+1) element as sum_i [a_i, v_i] + [u_i, b_i] with
    u, v of degree j; blocked per letter weight, summed from the unit
    solves of a fresh solver per block (`free_lie._sum_units`), free
    variables zeroed.
    Returns {a_i: u_i, b_i: v_i}, the terms each generator's image gains."""
    coords, den = scaled(defect.coords)
    blocks = _split_by_weight(coords, genus)
    # column (x, w) is sign * [mate, w], (mate, sign) = partner(x), in the
    # order handle, word, a before b; only the defect's weights are built
    col_blocks: dict[tuple[int, ...], dict] = {mu: {} for mu in blocks}
    for i in range(1, genus + 1):
        for w in lyndon_basis(genus, j):
            for x in (a_letter(i), b_letter(i)):
                mate, sign = partner(x)
                cols = col_blocks.get(_letter_weight((mate, *w), genus))
                if cols is not None:
                    cols[(x, w)] = {u: sign * c for u, c
                                    in bracket_basis((mate,), w).items()}
    if not all(col_blocks.values()):
        raise RuntimeError("defect weight outside the bracket image")
    sol, residual, m = _sum_units(lambda mu: BlockSolver(
        sorted(set().union(*col_blocks[mu].values())), list(col_blocks[mu]),
        col_blocks[mu].__getitem__).unit, blocks)
    if residual:
        raise RuntimeError("bracket splitting system is inconsistent")
    gains: dict[int, dict[Word, Fraction]] = {}
    for (x, w), c in unscaled(sol, m * den).items():
        gains.setdefault(x, {})[w] = c
    return gains


def build_corrector(genus: int, max_degree: int) -> LieAutomorphism:
    """Filtered automorphism psi with psi(omega) = omega_tilde, truncated.

    Works upward one degree at a time: the lowest defect degree j+1 is
    removed by a step sending a_i to a_i + u_i and b_i to b_i + v_i with
    u, v of degree j, then the step is composed on the right.
    """
    check_kind(genus, int, "genus")
    check_kind(max_degree, int, "max_degree")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    target = omega_tilde(genus, max_degree)
    w = omega(genus, max_degree)
    psi = identity_aut(genus, max_degree)
    for j in range(2, max_degree):
        defect = (target.graded_part(j + 1)
                  - apply_aut(psi, w).graded_part(j + 1))
        if not defect:
            continue
        gains = _solve_splitting(genus, j, defect)
        images = {x: (LieSeries.gen(genus, max_degree, x)
                      + LieSeries(genus, max_degree, gains.get(x, {})))
                  for x in range(gen_count(genus))}
        psi = compose_aut(psi, LieAutomorphism(genus, max_degree, images))
    if apply_aut(psi, w) != target:
        raise RuntimeError("correction loop left a nonzero defect")
    return psi


def construct_symplectic(genus: int, max_degree: int) -> ExpansionMap:
    """Symplectic expansion at the given truncation.

    The inverse of the corrector is applied to the exponential basis
    expansion; images stay group-like because they are exponentials of
    Lie elements.
    """
    phi = invert_aut(build_corrector(genus, max_degree))
    return ExpansionMap(genus, max_degree,
                        {l: tensor_exp(embed_lie(phi.image_of(l)))
                         for l in range(gen_count(genus))})


def paper_example_expansion(genus: int) -> ExpansionMap:
    """Published degree-4 symplectic expansion with exact coefficients."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    n = 4

    def g(letter: int) -> LieSeries:
        return LieSeries.gen(genus, n, letter)

    images = {}
    for i in range(1, genus + 1):
        a, b = g(a_letter(i)), g(b_letter(i))
        ab = a.bracket(b)
        la = (a - HALF * ab + Fraction(1, 12) * ab.bracket(b)
              - Fraction(1, 24) * a.bracket(a.bracket(a.bracket(b))))
        lb = (b - HALF * ab + Fraction(1, 12) * a.bracket(a.bracket(b))
              + Fraction(1, 4) * ab.bracket(b)
              - Fraction(1, 24) * ab.bracket(b).bracket(b))
        for jj in range(1, i):
            abj = g(a_letter(jj)).bracket(g(b_letter(jj)))
            la = la - HALF * abj.bracket(a) + Fraction(1, 4) * abj.bracket(ab)
            lb = lb + HALF * b.bracket(abj) + Fraction(1, 4) * abj.bracket(ab)
        images[a_letter(i)] = tensor_exp(embed_lie(la))
        images[b_letter(i)] = tensor_exp(embed_lie(lb))
    return ExpansionMap(genus, n, images)


class SymplecticReport(NamedTuple):
    genus: int
    degree: int
    normalized: bool
    grouplike: bool
    sends_zeta: bool
    first_failing_degree: int | None
    ok: bool
    message: str


def verify_symplectic(theta: ExpansionMap, n: int) -> SymplecticReport:
    """Independent check of the symplectic conditions through degree n.

    Checks normalization of the images, group-likeness, and that the
    boundary word times exp(omega) is 1; on failure of the last check
    the first failing degree is reported.
    """
    check_kind(theta, ExpansionMap, "theta")
    check_kind(n, int, "n")
    if n < 2:
        raise ValueError("verification degree must be at least 2")
    if theta.max_degree < n:
        raise ValueError("expansion truncated below the requested degree")
    t = theta if theta.max_degree == n else theta.truncated(n)
    basic = check_expansion(t)
    normalized, grouplike = basic.is_expansion, basic.is_grouplike
    sends_zeta = False
    first = None
    if normalized:
        prod = mul(evaluate_expansion(t, zeta_word(t.genus)),
                   tensor_exp(embed_lie(omega(t.genus, n))))
        diff = prod - TensorSeries.one(t.genus, n)
        if diff:
            first = diff.min_degree()
        else:
            sends_zeta = True
    ok = normalized and grouplike and sends_zeta
    if ok:
        message = (f"symplectic mod degree {n + 1} "
                   f"(group-like; boundary condition holds through degree {n})")
    elif not normalized:
        message = "not an expansion: some image is not 1 + generator + higher"
    elif not grouplike:
        message = "not group-like"
    else:
        message = f"boundary condition fails first at degree {first}"
    return SymplecticReport(t.genus, n, normalized, grouplike, sends_zeta,
                            first, ok, message)
