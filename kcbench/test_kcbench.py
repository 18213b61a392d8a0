"""Tests of the benchmark itself: determinism of its inputs and simulated
statistics, the metric set it prints, and its correctness gate.

    PYTHONPATH=src python3 -m pytest kcbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from kcbench.metrics import END_TO_END, PER_LAYER, sim_metrics  # noqa: E402
from kcbench.run import Run  # noqa: E402
from kcbench.tracing import Tracer  # noqa: E402
from kcbench.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(name: str, seed: int) -> dict:
    wl = WORKLOADS[name](seed, Tracer())
    return wl.make_graphs()


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k].indptr, b[k].indptr) and np.array_equal(a[k].adj, b[k].adj)
        for k in a
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_determines_inputs(name):
    assert _same(_inputs(name, 5), _inputs(name, 5))
    assert not _same(_inputs(name, 5), _inputs(name, 6))


def _one_pass(name: str, seed: int) -> Run:
    wl = WORKLOADS[name](seed, Tracer())
    wl.setup()
    r = Run(wl, Tracer(), lambda msg: None)
    r.run_pass()
    return r


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_simulated_statistics(name):
    a, b = _one_pass(name, 11), _one_pass(name, 11)
    assert a.failed == b.failed == 0
    assert a.listing == b.listing
    assert sim_metrics(a.listing) == sim_metrics(b.listing)


def test_wrong_coreness_counts_as_failed():
    wl = WORKLOADS["sparse-cascade"](3, Tracer())
    wl.setup()
    ops = wl.ops()
    good_run = ops[0].run

    def wrong():
        core, met = good_run()
        core = core.copy()
        core[0] += 1
        return core, met

    ops[0].run = wrong
    wl.ops = lambda: ops
    r = Run(wl, Tracer(), lambda msg: None)
    r.run_pass()
    assert (r.attempted, r.failed) == (len(ops), 1)


def test_benchmark_json_declares_the_printed_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


def _bench(args, cwd=ROOT, timeout=900):
    return subprocess.run(
        [sys.executable, "kcbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(name, trace):
    p = _bench(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    assert p.returncode == 0, p.stderr[-3000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_thread_pinning_precedes_numpy():
    code = "import sys; import kcbench.env; print('numpy' in sys.modules)"
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert p.stdout.strip() == "False", p.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kcbench", tmp_path / "kcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(["--workload", "sparse-cascade", "--seed", "1", "--seconds", "1"],
               cwd=tmp_path, timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
