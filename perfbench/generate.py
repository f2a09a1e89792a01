"""Seeded input generator for the lietrees benchmark.

Runs in its own process before the measured one, so nothing it computes
warms the measured process's caches.  It writes `spec.json` (the job
list with every expected output) and, for `invariants`, the automorphism
documents the jobs read.

    python3 perfbench/generate.py --workload invariants --seed 1 --out DIR

The same workload, seed and profile always give the same files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

WORKLOADS = ("expansion", "homology", "invariants")

# "full" is what the benchmark measures; "smoke" is the same job shapes at
# genus-1 sizes, for the benchmark's own tests.
PROFILES = {
    "full": {
        "expansion": {"genus": 2, "degree": 7},
        "homology": [("dims", 2, 3, 3), ("dims", 2, 3, 2), ("phi", 2, 3),
                     ("dims", 3, 2, 3), ("phi", 3, 2), ("dims", 1, 6, 3)],
        "invariants": {"genus": 2, "k": 2, "max_degree": 4, "jobs": 300},
    },
    "smoke": {
        "expansion": {"genus": 1, "degree": 4},
        "homology": [("dims", 1, 2, 3), ("dims", 1, 2, 2), ("phi", 1, 2),
                     ("dims", 1, 3, 3)],
        "invariants": {"genus": 1, "k": 2, "max_degree": 4, "jobs": 12},
    },
}


def witt_dim(n: int, d: int) -> int:
    """Dimension of the degree-d part of the free Lie algebra on n letters."""
    def mobius(m: int) -> int:
        result, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if m > 1 else result
    total = sum(mobius(e) * n ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


def h3_dims(genus: int, k: int) -> dict[int, int]:
    """Closed form for H3 of the class-k free nilpotent Lie algebra on 2g
    letters: 2g·W(2g, d-1) - W(2g, d) in degrees k+2 .. 2k+1."""
    n = 2 * genus
    dims = {d: n * witt_dim(n, d - 1) - witt_dim(n, d)
            for d in range(k + 2, 2 * k + 2)}
    return {d: v for d, v in dims.items() if v}


def h2_dims(genus: int, k: int) -> dict[int, int]:
    """Hopf's formula: H2 of the class-k quotient is L_{k+1}, in degree k+1."""
    return {k + 1: witt_dim(2 * genus, k + 1)}


def expansion_spec(size: dict, rng: random.Random) -> list[dict]:
    g, n = size["genus"], size["degree"]
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    # The edit: in the image of the last generator, term number `index`
    # (taken modulo the count) among the terms of word length 2..n in
    # document order gets `delta` added to its coefficient.  Any such edit
    # breaks group-likeness in that degree, so the verdict is fixed.  The
    # verifier checks the images in generator order and stops at the first
    # failure; editing the last one keeps its work the same for every seed.
    perturb = {"src": "F.json", "dst": "G.json",
               "generator": f"b{g}", "index": rng.randrange(10 ** 6),
               "min_length": 2, "max_length": n,
               "delta": str(Fraction(num, rng.randint(1, 9)))}
    ok_line = (f"symplectic mod degree {n + 1} (group-like; boundary condition "
               f"holds through degree {n})\n")
    return [
        {"argv": ["expand", "construct", "--genus", str(g), "--degree", str(n),
                  "--out", "F.json"],
         "expect": {"exit": 0, "stdout": "", "file": "F.json"}},
        {"argv": ["expand", "verify", "--in", "F.json", "--degree", str(n)],
         "expect": {"exit": 0, "stdout": ok_line}},
        {"perturb": perturb,
         "argv": ["expand", "verify", "--in", "G.json", "--degree", str(n)],
         "expect": {"exit": 1, "stdout": "not group-like\n"}},
    ]


def homology_spec(queries: list[tuple]) -> list[dict]:
    jobs = []
    for query in queries:
        if query[0] == "dims":
            _, g, k, n = query
            dims = h3_dims(g, k) if n == 3 else h2_dims(g, k)
            jobs.append({"argv": ["homology", "dims", "--genus", str(g),
                                  "--class", str(k), "--n", str(n)],
                         "expect": {"exit": 0, "dims": dims}})
        else:
            _, g, k = query
            jobs.append({"argv": ["phi", "rank", "--genus", str(g),
                                  "--class", str(k)],
                         "expect": {"exit": 0,
                                    "rank": sum(h3_dims(g, k).values())}})
    return jobs


def invariants_spec(size: dict, rng: random.Random, out: str,
                    src: str) -> list[dict]:
    sys.path.insert(0, src)
    from lietrees import documents, johnson
    os.makedirs(os.path.join(out, "docs"), exist_ok=True)
    jobs = []
    for i in range(size["jobs"]):
        psi = johnson.random_ic_element(size["genus"], size["k"],
                                        rng.randrange(2 ** 31),
                                        size["max_degree"])
        name = os.path.join("docs", f"{i:04d}.json")
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(documents.dump_json(documents.automorphism_to_doc(psi)))
        jobs.append({"doc": name, "k": size["k"]})
    return jobs


def generate(workload: str, seed: int, profile: str, out: str,
             src: str) -> dict:
    sizes = PROFILES[profile]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "expansion":
        jobs = expansion_spec(sizes["expansion"], rng)
    elif workload == "homology":
        # a fixed batch: the seed is accepted but selects nothing
        jobs = homology_spec(sizes["homology"])
    else:
        jobs = invariants_spec(sizes["invariants"], rng, out, src)
    # Invariants jobs are independent, so each repetition starts the stream
    # at a different document (see worker.py); the others run in order.
    spec = {"workload": workload, "seed": seed, "profile": profile,
            "rotate": workload == "invariants", "jobs": jobs}
    with open(os.path.join(out, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return spec


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default="full")
    p.add_argument("--out", required=True, help="directory for spec.json")
    p.add_argument("--src", required=True, help="directory holding lietrees")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.profile, args.out, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
