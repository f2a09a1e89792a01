"""Golden outputs: canonical documents, tree text and H3 coordinates.

The digests pin the exact bytes of outputs that must not move when the
implementation changes underneath them.
"""

import hashlib
import random

from lietrees.cli import run
from lietrees.documents import tree_combo_to_text
from lietrees.jacobi import TreeCombo, eta, eta_inverse, random_tree
from lietrees.johnson import morita_mk, random_ic_element, tau_to_trees
from lietrees.koszul import capital_phi


def test_constructed_expansion_document(capsys):
    assert run(["expand", "construct", "--genus", "2", "--degree", "6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("f885ec60d8ae9e45741d92147f5a4742"
                      "4d7b0f85efb8fc925daaba90217d3db6")


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
