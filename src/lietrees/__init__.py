"""Exact symbolic toolkit for surface-group expansions and their invariants.

Everything is computed over the rationals with exact arithmetic: free
Lie algebra calculus on the Lyndon basis, the truncated tensor Hopf
algebra with exp/log, construction and verification of symplectic
expansions, tree Jacobi diagrams with their fission and leaf-tensor
maps, Koszul homology of free nilpotent Lie algebras, and the
degree-window invariants of filtered automorphisms.
"""

from .free_lie import (LieSeries, bch, bracket, bracket_basis, is_lyndon,
                       letter_label, lyndon_basis, parse_letter,
                       std_factorization, witt_dim)
from .tensor_hopf import (ExpansionMap, FreeGroupWord, TensorSeries,
                          antipode, basis_expansion, check_expansion, embed_lie,
                          evaluate_expansion, exp, inv_unit, is_grouplike,
                          is_primitive, log, magnus_expansion, mul,
                          project_lie)
from .jacobi import (HLieTensor, TreeCombo, TreeDiagram, comm, eta,
                     eta_inverse, fission, ihx_combination, parse_tree_text,
                     random_tree, tree_equal, tree_space_dim, tree_text)
from .koszul import (HomologyClass, WedgeChain, boundary, capital_phi,
                     class_of, homology_dims, phi_matrix_rank,
                     solve_boundary3, wedge_chain_from_terms)
from .johnson import (Derivation, LieAutomorphism, apply_aut, apply_der,
                      compose_aut, derivation_from_tensor, exp_der,
                      identity_aut, invert_aut, is_omega_fixing, johnson_k,
                      kernel_check, log_aut, morita_mk, random_ic_element,
                      tau_bracket_check, tau_to_trees, tau_truncated)
from .symplectic import (SymplecticContext, SymplecticReport, build_corrector,
                         construct_symplectic, omega, omega_tilde,
                         paper_example_expansion, symplectic_context,
                         verify_symplectic, zeta_inverse_word, zeta_word)

__version__ = "0.1.0"
