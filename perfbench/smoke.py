"""Smoke tests for the benchmark itself, at genus-1 sizes.

    python3 -m pytest perfbench/smoke.py

They check that every metric named in BENCHMARK.json prints with its
unit, and that a wrong expected output or a corrupted input document
makes jobs fail, so that `failed` and `error_ratio` really gate.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from generate import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def declared_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_and_units_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert declared_units("end_to_end") == run.END_TO_END_UNITS
    assert declared_units("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--profile", "smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3 and line.split()[0] in units}
    assert printed == units
    assert any(line.startswith("error_ratio") and line.split()[1] == "0"
               for line in lines)
    if trace:
        check_spans(os.path.join(run.WORK, workload, "spans.jsonl"))


def check_spans(path):
    """Spans carry their layer and job, and nest inside their parents."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    assert header["columns"] == ["name", "layer", "start", "end", "parent",
                                 "job"]
    assert spans
    for name, layer, start, end, parent, job in spans:
        assert name.startswith(layer + ".") and start <= end and job >= 0
        if parent >= 0:
            assert spans[parent][1] != layer
            assert spans[parent][2] <= start and end <= spans[parent][3]


def _corrupt_expected_dims(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    dims = spec["jobs"][0]["expect"]["dims"]
    degree = sorted(dims)[0]
    dims[degree] += 1
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def _corrupt_expected_exit(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["jobs"][-1]["expect"]["exit"] = 0
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def _corrupt_document(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    path = os.path.join(os.path.dirname(spec_path), spec["jobs"][0]["doc"])
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = doc["images"]["a1"]
    terms.append({"coefficient": "1", "word": ["a1", "a1", "b1"]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("workload, corrupt", [
    ("homology", _corrupt_expected_dims),
    ("expansion", _corrupt_expected_exit),
    ("invariants", _corrupt_document),
])
def test_a_corrupted_expectation_is_counted_as_failed(workload, corrupt,
                                                       capsys):
    assert run.bench(workload, 1, 1, False, "smoke", prepare=corrupt) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    ratio = next(line for line in lines if line.startswith("error_ratio"))
    assert float(ratio.split()[1]) > 0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "perfbench", "run.py"), "--workload",
         "homology", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
