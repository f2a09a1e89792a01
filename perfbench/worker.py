"""One measured repetition of a workload, in a fresh process.

    python3 -I perfbench/worker.py SPEC RESULT SRC TRACE REP

Reads the job list from SPEC, runs every job in order in this process
with a single caller, checks each output, and writes timings, checks,
peak RSS and a sha256 of the outputs to RESULT (JSON).  The clock starts
before `import lietrees`, so the first job pays the import and the cold
caches.  Timings are scaled to a reference machine speed (see
PROBE_REF_S); the unscaled setup and solution times are reported too.

With TRACE = 1 the span tracer is installed after the import, its
per-layer metrics are added to RESULT and the spans are written next to
RESULT.  When the spec allows it, repetition REP starts the job list at
job 53·REP (mod its length) and wraps around, so the cold first job
differs between repetitions; outputs are still hashed in spec order.
Run from the directory the jobs may write files into.
"""

import time
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
from fractions import Fraction

# The host's speed drifts by a third over tens of seconds, so every timing
# is scaled to a fixed machine speed: the speed at which `probe` takes
# PROBE_REF_S.  The probe runs before the import, after job 1, after the
# last job, and after any job that ends a stretch of SEGMENT_S of timed
# work; each stretch is scaled by the probes on either side of it.
PROBE_REF_S = 0.04
SEGMENT_S = 1.5


def probe() -> float:
    """Median of three timings of a fixed piece of Fraction and dict work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc: dict = {}
        for i in range(10000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def apply_perturbation(rule: dict) -> None:
    """Add rule['delta'] to one coefficient of an expansion document."""
    with open(rule["src"], encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = [t for t in doc["images"][rule["generator"]]
             if rule["min_length"] <= len(t["word"]) <= rule["max_length"]]
    term = terms[rule["index"] % len(terms)]
    value = Fraction(term["coefficient"]) + Fraction(rule["delta"])
    if not value:
        value += Fraction(rule["delta"])
    term["coefficient"] = str(value)
    with open(rule["dst"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def check_cli(expect: dict, code: int, out: str) -> str | None:
    """None when the CLI job's exit code and output are as expected."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if "stdout" in expect and out != expect["stdout"]:
        return f"stdout {out!r}, expected {expect['stdout']!r}"
    if "file" in expect and not os.path.getsize(expect["file"]):
        return f"{expect['file']} is empty"
    if "dims" in expect:
        lines = out.splitlines()
        dims = {}
        for line in lines[1:]:
            d, v = line.split()
            dims[d] = int(v)
        if lines[:1] != ["degree  dimension"] or dims != expect["dims"]:
            return f"dims {dims}, expected {expect['dims']}"
    if "rank" in expect and out != f"rank {expect['rank']}\n":
        return f"{out.strip()!r}, expected rank {expect['rank']}"
    return None


def main(spec_path: str, result_path: str, src: str, trace: bool,
         rep: int) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec_dir = os.path.dirname(spec_path)
    jobs = spec["jobs"]
    order = list(range(len(jobs)))
    if spec["rotate"]:
        start = 53 * rep % len(jobs)
        order = order[start:] + order[:start]
    clock = time.perf_counter

    speeds = [probe()]
    t0 = clock()
    sys.path.insert(0, src)
    import lietrees
    from lietrees import cli, documents, johnson, koszul

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(lietrees)
        cli.run = tracer.wrap(cli.run, "cli", "run")
    import_s = clock() - t0

    segments = [import_s]              # timed seconds between two probes
    job_s, job_segment, errors = [], [], []
    outputs = [None] * len(jobs)
    last = len(jobs) - 1
    for i, index in enumerate(order):
        job = jobs[index]
        if "perturb" in job:
            apply_perturbation(job["perturb"])
        if tracer is not None:
            tracer.job = i
        start = clock()
        try:
            if "argv" in job:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.run(job["argv"])
                problem = check_cli(job["expect"], code, out.getvalue())
                if problem and err.getvalue():
                    problem += f" ({err.getvalue().strip()})"
                result = (" ".join(job["argv"]), code, out.getvalue())
            else:
                with open(os.path.join(spec_dir, job["doc"]),
                          encoding="utf-8") as fh:
                    psi = documents.automorphism_from_doc(
                        documents.load_json(fh.read()))
                k = job["k"]
                m = johnson.morita_mk(psi, k)
                trees = johnson.tau_to_trees(psi, k)
                phi = koszul.capital_phi(trees, k)
                problem = None if -m == phi else "-m_k != Phi(tau)"
                result = (documents.tree_combo_to_text(trees), m.parts)
        except Exception as e:             # a failed job is counted, not fatal
            problem, result = f"{type(e).__name__}: {e}", None
        job_s.append(clock() - start)
        job_segment.append(len(segments) - 1)
        segments[-1] += job_s[-1]
        errors.append(problem)
        outputs[index] = result
        if i in (0, last) or segments[-1] >= SEGMENT_S:
            speeds.append(probe())
            if i != last:
                segments.append(0.0)
    scale = [PROBE_REF_S / math.sqrt(speeds[s] * speeds[s + 1])
             for s in range(len(segments))]

    digest = hashlib.sha256()
    for job, result in zip(jobs, outputs):
        if result is None:
            digest.update(b"<failed>\n")
        elif "argv" in job:
            cmd, code, out = result
            digest.update(f"$ {cmd}\n{out}exit {code}\n".encode())
            produced = job["expect"].get("file")
            if produced and os.path.exists(produced):
                with open(produced, "rb") as fh:
                    digest.update(fh.read())
        else:
            text, parts = result
            digest.update(text.encode())
            for d in sorted(parts):
                coords = " ".join(str(c) for c in parts[d])
                digest.update(f"degree {d}: {coords}\n".encode())

    report = {
        "setup_s": (import_s + job_s[0]) * scale[0],
        "solution_s": sum(t * f for t, f in zip(segments, scale)),
        "job_s": [t * scale[s] for t, s in zip(job_s, job_segment)],
        "raw_setup_s": import_s + job_s[0],
        "raw_solution_s": sum(segments),
        "probe_s": speeds,
        "errors": errors,
        "sha256": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.metrics()
        report["spans"] = len(tracer.span_start)
        tracer.dump(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1",
         int(sys.argv[5]))
