"""Golden outputs: canonical documents, tree text and H3 coordinates.

The digests pin the exact bytes of outputs that must not move when the
implementation changes underneath them.
"""

import hashlib
import random
from fractions import Fraction

from lietrees.cli import run
from lietrees.documents import tree_combo_to_text
from lietrees.jacobi import TreeCombo, eta, eta_inverse, random_tree
from lietrees.johnson import (invert_aut, log_aut, morita_mk,
                              random_ic_element, tau_to_trees)
from lietrees.free_lie import a_letter, b_letter
from lietrees.koszul import (capital_phi, solve_boundary3,
                             wedge_chain_from_terms)
from lietrees.symplectic import (construct_symplectic,
                                 paper_example_expansion, verify_symplectic,
                                 zeta_word)
from lietrees.tensor_hopf import (ExpansionMap, TensorSeries,
                                  evaluate_expansion, inv_unit, log)


def test_constructed_expansion_document(capsys):
    assert run(["expand", "construct", "--genus", "2", "--degree", "6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("f885ec60d8ae9e45741d92147f5a4742"
                      "4d7b0f85efb8fc925daaba90217d3db6")


def test_constructed_expansion_document_at_degree_7(capsys):
    assert run(["expand", "construct", "--genus", "2", "--degree", "7"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("54c0d290e33721700d81873f5335ea46"
                      "848c03c3d7a9576408cf5989b88f98c5")


def test_constructed_expansion_document_at_genus_3(capsys):
    assert run(["expand", "construct", "--genus", "3", "--degree", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("915f1abc5cba14babd27b50ac0860145"
                      "83d35c112ea91072f3afd08c09e2520a")


def test_constructed_expansion_document_at_genus_3_degree_7(capsys):
    """The automorphism `_extend` path (build_corrector, invert_aut) at
    genus 3 past degree 5."""
    assert run(["expand", "construct", "--genus", "3", "--degree", "7"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("37b7bb8c063f88879bf2cf91e821c8ba"
                      "1dfffa21b79a86cde2695318f1ac3cb1")


def test_log_of_a_class_three_automorphism():
    """The derivation `_extend` path (exp_der inside random_ic_element)
    and log_aut at degree 6."""
    text = repr(log_aut(random_ic_element(2, 3, 1, 6)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "da4cb165aab9cfb77bccdc8ef567d65d7e0286d56d1176cf23546c66cc27b703")


def test_automorphism_series():
    """exp_der (inside random_ic_element), log_aut and invert_aut."""
    h = hashlib.sha256()
    for genus, k, seed, n in ((2, 1, 0, 6), (2, 2, 4, 6), (3, 1, 2, 4)):
        psi = random_ic_element(genus, k, seed, n)
        for x in (psi, log_aut(psi), invert_aut(psi)):
            h.update(repr(x).encode())
    assert h.hexdigest() == ("1c4e349cbbafdab353974a621ee76346"
                             "93b46184f93d47de06118d12516cc21e")


def test_tensor_series():
    """log and inv_unit of every image, and the image of the boundary word."""
    h = hashlib.sha256()
    for theta in (construct_symplectic(2, 5), paper_example_expansion(2)):
        for letter in sorted(theta.images):
            image = theta.images[letter]
            h.update(repr(log(image)).encode())
            h.update(repr(inv_unit(image)).encode())
        h.update(repr(evaluate_expansion(theta, zeta_word(2))).encode())
    assert h.hexdigest() == ("4926e197ba103ca1798fa71cf2b7e8c2"
                             "08e075c9eaff580611ea9b822604ddd8")


def test_genus_3_boundary_word():
    z = evaluate_expansion(construct_symplectic(3, 5), zeta_word(3))
    assert hashlib.sha256(repr(z).encode()).hexdigest() == (
        "ee2619ab9c7c913337ede1ef0ae442e0b8f18b0028010a4cd0345dc6e6f222d2")


def test_verify_reports():
    """Accepted expansions at (3, 5) and (2, 7), and the (2, 7) one with
    the coefficient of the least degree-3 word of its last image raised
    by 1/3."""
    theta = construct_symplectic(2, 7)
    last = max(theta.images)
    image = theta.images[last]
    w = min(w for w in image.coords if len(w) == 3)
    edited = ExpansionMap(2, 7, {
        **theta.images,
        last: image + TensorSeries(2, 7, {w: Fraction(1, 3)})})
    h = hashlib.sha256()
    for t, n in ((construct_symplectic(3, 5), 5), (theta, 7), (edited, 7)):
        h.update(repr(verify_symplectic(t, n)).encode())
    assert h.hexdigest() == ("83ab55adff71bf6272875a796bb21045"
                             "808b7dff7b6dc56249793c5c320ac644")


def test_homology_and_tree_routes():
    h = hashlib.sha256()
    for seed in range(5):
        psi = random_ic_element(2, 2, seed, 4)
        h.update(repr(sorted(morita_mk(psi, 2).parts.items())).encode())
        h.update(tree_combo_to_text(tau_to_trees(psi, 2)).encode())
    assert h.hexdigest() == ("762172aaee16d7e6bc26752bd4fd359a"
                             "cbaa4ab5ed0c4613fdf858785af6068d")


def test_class_three_h3_coordinates():
    rng = random.Random(3)
    combo = TreeCombo.zero(2)
    for d in (3, 4, 5):
        combo = combo + random_tree(2, d, rng)
        combo = combo + random_tree(2, d, rng)
    coords = repr(sorted(capital_phi(combo, 3).parts.items()))
    assert hashlib.sha256(coords.encode()).hexdigest() == (
        "bfa8053392c77d924d107c0855ab646d6c5e0cb628603de16b1f767afe54237e")


def test_class_three_morita_coordinates():
    m = morita_mk(random_ic_element(2, 3, 1, 6), 3)
    coords = repr(sorted(m.parts.items()))
    assert hashlib.sha256(coords.encode()).hexdigest() == (
        "dd58abaea8584fb92dd1ddb725ca68158dc5a40db652caa5bf85ff2a8f2c1ce2")


def test_eta_inverse_tree_text():
    h = hashlib.sha256()
    for genus, d, seed in ((2, 4, 5), (3, 2, 6)):
        rng = random.Random(seed)
        x = eta(random_tree(genus, d, rng))
        for coeff in (3, -2):
            x = x + coeff * eta(random_tree(genus, d, rng))
        h.update(tree_combo_to_text(eta_inverse(x, d)).encode())
    assert h.hexdigest() == ("5c082dfdeb770c4bd3bbb30e566091d1"
                             "7b0e54ddb36d7305c4c3fbcc7b4e68eb")


def test_solve_boundary3_chains():
    # the whole class-2k 2-cycle of psi at k = 3, as the homology route
    # builds it: each a_i ^ b_i minus the wedge of the two images
    h = hashlib.sha256()
    for genus in (2, 3):
        psi = random_ic_element(genus, 3, 1, 6)
        terms = []
        for i in range(1, genus + 1):
            a, b = a_letter(i), b_letter(i)
            xa, xb = psi.image_of(a).coords, psi.image_of(b).coords
            terms.append((((a,), (b,)), 1))
            terms.extend(((wu, wv), -cu * cv)
                         for wu, cu in xa.items() for wv, cv in xb.items())
        cycle = wedge_chain_from_terms(genus, 6, 2, terms)
        h.update(repr(solve_boundary3(cycle)).encode())
    assert h.hexdigest() == ("51db36d6e8160798aeb0dd451be0c995"
                             "548f61cac0282f7d6481e496ea1b265e")


def test_class_three_tree_text():
    for genus, expect in (
            (2, "f3fb9d02720cfe0b04c4944e0d3f3932"
                "33d99333b75784482f73fbf5a305856f"),
            (3, "c92d4358c035c30c1b23e3765b4eaf2f"
                "25c54008f8b366500fde87ac2dc00811")):
        psi = random_ic_element(genus, 3, 1, 6)
        text = tree_combo_to_text(tau_to_trees(psi, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == expect


def test_inverse_of_a_class_two_automorphism():
    """invert_aut outside build_corrector, on images with mixed
    denominators (exp_der inside random_ic_element)."""
    text = repr(invert_aut(random_ic_element(2, 2, 7, 6)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9530b3d100d4931bcf41a2e586c5a84e69703fa4d9fb2493eb0603823206ed0c")
