"""Deterministic property suite behind `suite run` and the acceptance tests.

Each criterion function takes a base seed and returns (ok, detail); all
randomness flows through seeded Random instances, so the emitted report
is identical across runs with the same seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import jacobi, johnson, koszul, symplectic
from .free_lie import (LieSeries, bch, bracket, gen_count, lyndon_basis,
                       witt_dim)
from .sparse import add_term

ONE = Fraction(1)


class CriterionResult(NamedTuple):
    index: int
    name: str
    ok: bool
    detail: str


def _random_lie(rng: random.Random, genus: int, n: int,
                min_degree: int = 1) -> LieSeries:
    coords = {}
    for d in range(min_degree, n + 1):
        basis = lyndon_basis(genus, d)
        for _ in range(rng.randint(1, 2)):
            w = basis[rng.randrange(len(basis))]
            add_term(coords, w, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return LieSeries(genus, n, coords)


def _random_derivation(rng: random.Random, genus: int, n: int) -> johnson.Derivation:
    return johnson.Derivation(genus, n, {
        l: _random_lie(rng, genus, n, min_degree=2)
        for l in range(gen_count(genus))})


def _random_filtered_aut(rng: random.Random, genus: int,
                         n: int) -> johnson.LieAutomorphism:
    return johnson.LieAutomorphism(genus, n, {
        l: LieSeries.gen(genus, n, l) + _random_lie(rng, genus, n, min_degree=2)
        for l in range(gen_count(genus))})


def crit_paper_example(seed: int) -> tuple[bool, str]:
    for genus in (1, 2, 3):
        rep = symplectic.verify_symplectic(
            symplectic.paper_example_expansion(genus), 4)
        if not rep.ok:
            return False, f"genus {genus}: {rep.message}"
    return True, "published degree-4 expansion verified at genus 1, 2, 3"


def crit_constructor(seed: int) -> tuple[bool, str]:
    theta = symplectic.construct_symplectic(2, 6)
    rep = symplectic.verify_symplectic(theta, 6)
    return rep.ok, f"construct(genus 2, degree 6): {rep.message}"


def _ad(z: LieSeries) -> johnson.Derivation:
    """The inner derivation l -> [z, l]."""
    return johnson.Derivation(z.genus, z.max_degree, {
        l: z.bracket(LieSeries.gen(z.genus, z.max_degree, l))
        for l in range(gen_count(z.genus))})


def _adjoint_identity(x: LieSeries, y: LieSeries, z: LieSeries) -> bool:
    """exp(ad z) == exp(ad x) o exp(ad y) modulo degrees above N, which
    holds for z = bch(x, y) and, ad being injective on the free Lie
    algebra, pins z down below degree N."""
    e = johnson.exp_der
    return e(_ad(z)) == johnson.compose_aut(e(_ad(x)), e(_ad(y)))


def crit_bch_oracle(seed: int) -> tuple[bool, str]:
    """bch checked on the Lie side: x and y are lifted one degree up,
    where the adjoint identity fixes bch through degree n; genus 2 stops
    at n = 4, past which one exp_der can take seconds."""
    rng = random.Random(seed)
    for case in range(20):
        genus = rng.randint(1, 2)
        n = rng.randint(2, 6 if genus == 1 else 4)
        x = _random_lie(rng, genus, n)
        y = _random_lie(rng, genus, n)
        big_x, big_y = (LieSeries(genus, n + 1, t.coords) for t in (x, y))
        z = bch(big_x, big_y)
        if (not _adjoint_identity(big_x, big_y, z)
                or z.truncated(n) != bch(x, y)):
            return False, f"case {case}: bch disagrees with the tensor route"
    return True, "20 random pairs, Lie bch == tensor-side log(exp*exp)"


def _eta_as_wedge(combo: jacobi.TreeCombo, k: int) -> koszul.WedgeChain:
    terms = [(((h,), w), c) for (h, w), c in jacobi.eta(combo).coords.items()]
    return koszul.wedge_chain_from_terms(combo.genus, k, 2, terms)


def crit_fission_boundary(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    done = 0
    while done < 50:
        genus = rng.randint(1, 2)
        degree = rng.randint(1, 5)
        combo = jacobi.random_tree(genus, degree, rng)
        if not combo:
            continue
        k = degree + 1
        lhs = koszul.boundary(jacobi.fission(combo, nilpotency_class=k))
        if lhs != _eta_as_wedge(combo, k):
            return False, f"tree {next(iter(combo.coords)).key}: boundary mismatch"
        done += 1
    return True, "50 random trees: boundary of fission == leaf-wedge sum"


def crit_ihx(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for case in range(20):
        genus = rng.randint(1, 2)
        colors = [rng.randrange(gen_count(genus)) for _ in range(4)]
        combo = jacobi.ihx_combination(genus, *colors)
        lhs = jacobi.fission(combo, nilpotency_class=4)
        rhs = koszul.wedge_chain_from_terms(
            genus, 4, 4, [(tuple((c,) for c in colors), ONE)])
        if lhs != koszul.boundary(rhs):
            return False, f"case {case} colors {colors}: identity fails"
    return True, "20 color 4-tuples: fission of the Jacobi combination == boundary of the 4-wedge"


def _d_dim(genus: int, d: int) -> int:
    return 2 * genus * witt_dim(2 * genus, d - 1) - witt_dim(2 * genus, d)


def crit_h3_and_phi(seed: int) -> tuple[bool, str]:
    notes = []
    for genus, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        dims = koszul.homology_dims(genus, k, 3)
        expected = {d: _d_dim(genus, d) for d in range(k + 2, 2 * k + 2)
                    if _d_dim(genus, d)}
        if dims != expected:
            return False, f"(genus {genus}, class {k}): H3 dims {dims} != {expected}"
        total = sum(expected.values())
        rank = koszul.phi_matrix_rank(genus, k)
        if rank != total:
            return False, (f"(genus {genus}, class {k}): phi rank {rank} != "
                           f"H3 total {total}")
        notes.append(f"({genus},{k}):{total}")
    return True, "H3 dims and full phi rank at " + " ".join(notes)


def crit_additivity(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    pairs = 0
    for genus, k in ((1, 1), (2, 2)):
        for _ in range(10):
            n = 2 * k
            psi = johnson.random_ic_element(genus, k, rng.randrange(10 ** 6), n)
            phi = johnson.random_ic_element(genus, k, rng.randrange(10 ** 6), n)
            comp = johnson.compose_aut(psi, phi)
            t_sum = johnson.tau_truncated(psi, k) + johnson.tau_truncated(phi, k)
            if johnson.tau_truncated(comp, k) != t_sum:
                return False, f"(genus {genus}, k {k}): window tensor not additive"
            m_sum = johnson.morita_mk(psi, k) + johnson.morita_mk(phi, k)
            if johnson.morita_mk(comp, k) != m_sum:
                return False, f"(genus {genus}, k {k}): homology invariant not additive"
            pairs += 1
    return True, f"{pairs} composable pairs: window tensor and homology invariant additive"


def crit_morita_theorem(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for genus, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for j in range(10):
            psi = johnson.random_ic_element(genus, k, rng.randrange(10 ** 6),
                                            2 * k)
            lhs = -johnson.morita_mk(psi, k)
            rhs = koszul.capital_phi(johnson.tau_to_trees(psi, k), k)
            if lhs != rhs:
                return False, (f"(genus {genus}, k {k}) case {j}: "
                               "-m_k != phi of the tree lift")
    return True, "40 seeded elements: -m_k == phi(eta-inverse(window tensor))"


def crit_kernel(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    trues = falses = 0
    for case in range(20):
        genus = 2
        k = rng.randint(1, 2)
        n = 2 * k + 1
        high = jacobi.random_tree(genus, 2 * k, rng)
        tensor = Fraction(rng.randint(1, 3)) * jacobi.eta(high)
        expect = rng.random() < 0.5
        if not expect:
            low = jacobi.random_tree(genus, k, rng)
            tensor = tensor + Fraction(rng.randint(1, 3)) * jacobi.eta(low)
        psi = johnson.exp_der(johnson.derivation_from_tensor(tensor, n))
        if expect and psi == johnson.identity_aut(genus, n):
            return False, f"case {case}: degree-2k element collapsed to identity"
        if johnson.kernel_check(psi, k) != expect:
            return False, f"case {case}: kernel test gave {not expect}"
        trues += expect
        falses += not expect
    return True, f"20 cases ({trues} inside, {falses} outside) all matched"


def crit_exp_log(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    for case in range(20):
        genus = rng.randint(1, 2)
        n = rng.randint(2, 6)
        if case % 2 == 0:
            delta = _random_derivation(rng, genus, n)
            if johnson.log_aut(johnson.exp_der(delta)) != delta:
                return False, f"case {case}: log(exp(delta)) != delta"
        else:
            psi = _random_filtered_aut(rng, genus, n)
            delta = johnson.log_aut(psi)
            if johnson.exp_der(delta) != psi:
                return False, f"case {case}: exp(log(psi)) != psi"
            x = _random_lie(rng, genus, n)
            y = _random_lie(rng, genus, n)
            lhs = johnson.apply_der(delta, bracket(x, y))
            rhs = (bracket(johnson.apply_der(delta, x), y)
                   + bracket(x, johnson.apply_der(delta, y)))
            if lhs != rhs:
                return False, f"case {case}: Leibniz fails for log output"
    return True, "20 cases: round trips exact, log outputs satisfy Leibniz"


CRITERIA: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("published example is symplectic", crit_paper_example),
    ("constructed expansion verifies", crit_constructor),
    ("bch tensor-route agreement", crit_bch_oracle),
    ("fission boundary lemma", crit_fission_boundary),
    ("Jacobi-shaped relation maps to a boundary", crit_ihx),
    ("H3 dimensions and phi rank", crit_h3_and_phi),
    ("invariants are additive", crit_additivity),
    ("homology route matches tree route", crit_morita_theorem),
    ("kernel characterization", crit_kernel),
    ("exp/log correspondence", crit_exp_log),
]


def run_criterion(index: int, seed: int) -> CriterionResult:
    name, fn = CRITERIA[index - 1]
    ok, detail = fn(seed * 1000 + index)
    return CriterionResult(index, name, ok, detail)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(i, seed) for i in range(1, len(CRITERIA) + 1)]


def format_result(r: CriterionResult) -> str:
    mark = "PASS" if r.ok else "FAIL"
    return f"{mark} criterion {r.index:2d} ({r.name}): {r.detail}"
