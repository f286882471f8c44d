"""Self-tests of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
from spans import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = run_cli(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_expected_threshold_counts_as_failed(monkeypatch):
    run.load_library()
    import workloads

    monkeypatch.setattr(
        workloads, "expected_threshold", lambda m, k: (Fraction(m, 2) + 1, 1 + k)
    )
    res = run.measure("symbolic", seed=3, seconds=0, trace=False, tiny=True)
    engine_items = 2  # the tiny mix has two engine systems
    assert res["failed"] == engine_items
    assert res["attempted"] > engine_items
    assert not res["correct"]


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("bench.job"):
        with tr.span("a.outer"):
            time.sleep(0.02)
            with tr.span("b.inner"):
                time.sleep(0.03)
    stats = tr.layer_stats()
    assert stats["a.outer.calls"] == 1
    assert stats["a.outer.s_total"] == pytest.approx(0.02, abs=0.015)
    assert stats["b.inner.s_total"] >= 0.03
    assert "bench.job.calls" not in stats
    assert tr.coverage() > 0.9


def test_jobs_per_s_weighs_every_kind_equally():
    # kind 0 ran twice at 1 s, kind 1 once at 3 s: a pass of both takes 4 s
    assert run.jobs_per_s({0: [1.0, 1.0], 1: [3.0]}) == pytest.approx(0.5)
    assert run.jobs_per_s({0: [2.0, 4.0]}) == pytest.approx(1 / 3)
