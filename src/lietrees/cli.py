"""Command-line frontend.

Exit codes: 0 on success or a passing verification, 1 when a
verification or the property suite fails, 2 on usage errors and
malformed documents (the diagnostic names the offending field).
The parser is built once; each leaf command sets its handler as `command`.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Sequence

from . import documents, johnson, koszul, suite, symplectic


@cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lietrees",
        description="exact symbolic toolkit: symplectic expansions, tree "
                    "diagrams, Koszul homology and filtered automorphisms")
    groups = p.add_subparsers(dest="group", required=True)

    expand = groups.add_parser("expand", help="construct and verify expansions")
    esub = expand.add_subparsers(dest="action", required=True)
    c = esub.add_parser("construct", help="build a symplectic expansion")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--degree", type=int, required=True,
                   help="log-side truncation degree")
    c.add_argument("--out", help="output file (default stdout)")
    c.set_defaults(command=_cmd_construct)
    v = esub.add_parser("verify", help="verify an expansion document")
    v.add_argument("--in", dest="in_path",
                   help="input file (default stdin)")
    v.add_argument("--degree", type=int, required=True)
    v.set_defaults(command=_cmd_verify)
    pe = esub.add_parser("paper-example",
                         help="emit the published degree-4 expansion")
    pe.add_argument("--genus", type=int, required=True)
    pe.set_defaults(command=_cmd_paper_example)

    hom = groups.add_parser("homology", help="Koszul homology of nilpotent quotients")
    hsub = hom.add_subparsers(dest="action", required=True)
    hd = hsub.add_parser("dims", help="nonzero homology dimensions per degree")
    hd.add_argument("--genus", type=int, required=True)
    hd.add_argument("--class", dest="nilpotency_class", type=int, required=True)
    hd.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    hd.set_defaults(command=_cmd_homology)

    phi = groups.add_parser("phi", help="tree-to-homology map")
    psub = phi.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("rank", help="rank of the map on the spanning family")
    pr.add_argument("--genus", type=int, required=True)
    pr.add_argument("--class", dest="nilpotency_class", type=int, required=True)
    pr.set_defaults(command=_cmd_phi)

    joh = groups.add_parser("johnson", help="degree-window invariants")
    jsub = joh.add_subparsers(dest="action", required=True)
    jt = jsub.add_parser("tau", help="tree lift of the window tensor")
    jt.add_argument("--aut", help="automorphism document (default stdin)")
    jt.add_argument("--k", type=int, required=True)
    jt.set_defaults(command=_cmd_johnson)

    mor = groups.add_parser("morita", help="homology-valued invariant")
    msub = mor.add_subparsers(dest="action", required=True)
    mk = msub.add_parser("mk")
    mk.add_argument("--aut", help="automorphism document (default stdin)")
    mk.add_argument("--k", type=int, required=True)
    mk.set_defaults(command=_cmd_morita)

    su = groups.add_parser("suite", help="property suite")
    ssub = su.add_subparsers(dest="action", required=True)
    sr = ssub.add_parser("run")
    sr.add_argument("--seed", type=int, default=0)
    sr.set_defaults(command=_cmd_suite)
    return p


def _read_text(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_automorphism(path: str | None) -> johnson.LieAutomorphism:
    return documents.automorphism_from_doc(documents.load_json(_read_text(path)))


def _cmd_construct(args: argparse.Namespace) -> int:
    theta = symplectic.construct_symplectic(args.genus, args.degree)
    _write_text(args.out, documents.dump_json(documents.expansion_to_doc(theta)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = documents.load_json(_read_text(args.in_path))
    theta = documents.expansion_from_doc(doc)
    report = symplectic.verify_symplectic(theta, args.degree)
    print(report.message)
    return 0 if report.ok else 1


def _cmd_paper_example(args: argparse.Namespace) -> int:
    theta = symplectic.paper_example_expansion(args.genus)
    _write_text(None, documents.dump_json(documents.expansion_to_doc(theta)))
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    dims = koszul.homology_dims(args.genus, args.nilpotency_class, args.n)
    print("degree  dimension")
    for d in sorted(dims):
        print(f"{d:<7d} {dims[d]}")
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    rank = koszul.phi_matrix_rank(args.genus, args.nilpotency_class)
    print(f"rank {rank}")
    return 0


def _cmd_johnson(args: argparse.Namespace) -> int:
    psi = _load_automorphism(args.aut)
    combo = johnson.tau_to_trees(psi, args.k)
    sys.stdout.write(documents.tree_combo_to_text(combo))
    return 0


def _cmd_morita(args: argparse.Namespace) -> int:
    psi = _load_automorphism(args.aut)
    cls = johnson.morita_mk(psi, args.k)
    if cls.is_zero():
        print("0")
    else:
        for d in sorted(cls.parts):
            coords = " ".join(str(c) for c in cls.parts[d])
            print(f"degree {d}: {coords}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    results = suite.run_all(args.seed)
    for r in results:
        print(suite.format_result(r))
    ok = all(r.ok for r in results)
    print("all criteria passed" if ok else "some criteria FAILED")
    return 0 if ok else 1


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.command(args)
    except documents.DocumentError as e:
        print(f"error: malformed document: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
