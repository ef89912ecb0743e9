"""Self-test of the benchmark at minimal size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at ``--size tiny``: every metric named in
BENCHMARK.json must print with its unit, no operation may fail, two
runs of one seed must give the same digest, and a traced run's layer
self times plus its unattributed time must add up to its wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("figures", "serve_sparse", "serve_churn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace=0, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digest[0].split(": ")[-1]


def check_metrics(result, names):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in names}
    for m in names:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_agree(workload):
    first, digest = parse(run_bench(workload))
    second, digest_again = parse(run_bench(workload))
    for result in (first, second):
        check_metrics(result, SPEC["end_to_end"])
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] == 0
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert digest == digest_again
    for name in ("sim_cycles", "virtual_p50_ms", "virtual_p99_ms"):
        assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(workload):
    result, _digest = parse(run_bench(workload, trace=1))
    check_metrics(result, SPEC["per_layer"])
    assert result["failed"] == 0
    path = os.path.join(ROOT, "perfbench", "out", f"{workload}-seed5")
    with open(path + ".layers.json") as fh:
        layers = json.load(fh)
    accounted = sum(layers["self_s"].values()) + layers["unattributed_s"]
    assert accounted == pytest.approx(layers["traced_wall_s"], rel=1e-9)
    with open(path + ".trace.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("figures", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
