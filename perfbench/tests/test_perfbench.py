"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    """Run the benchmark of the checkout at `cwd`, from that checkout."""
    res = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    if check:
        assert res.returncode == 0, res.stderr
    return res


def tiny(workload, trace, *extra):
    res = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), *extra)
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    details, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    # fail_ratio and the tail's percentile and op count sit beside them
    assert details["fail_ratio"] == 0
    assert details["reference_checked"]
    tail = details["op_tail"]
    assert tail["ops_beyond"] >= 10 and tail["ops_per_pass"] > tail["ops_beyond"]
    assert details["meta"]["seed"] == 0 and details["meta"]["note"]


def test_corrupted_reference_drives_fail_ratio_above_zero(tmp_path):
    ref = json.loads((ROOT / "perfbench" / "reference" / "domain-tower.json")
                     .read_text())
    kind, digest = ref["ops"][5]
    ref["ops"][5] = [kind, "0" * len(digest)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ref))
    details, result = tiny("domain-tower", 0, "--reference", str(bad))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert details["fail_ratio"] > 0
    assert details["failures"][0]["op"] == 5


def test_traced_spans_nest_across_layers():
    tiny("term-queries", 1)
    path = ROOT / ".perfbench-out" / "term-queries-seed0.spans.tsv.gz"
    with gzip.open(path, "rt") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    name = {int(r[0]): r[2] for r in rows}
    parent = {int(r[0]): int(r[1]) for r in rows}

    def chain(i):
        out = []
        while i != -1:
            out.append(name[i])
            i = parent[i]
        return out

    chains = {tuple(chain(i)) for i in name if name[i] == "lamcalc.solvability"}
    assert ("lamcalc.solvability", "bohm.bohm_truncate", "bohm.p_bohm",
            "op.p_bohm@2") in chains
    assert ("lamcalc.solvability", "contextual.p_ctx_bracket",
            "op.p_ctx_bracket@1024") in chains


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                cwd=tmp_path, check=False)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
