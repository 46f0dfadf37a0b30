"""Smoke test of the benchmark itself, at a tiny workload size (~30 s).

    python3 -m pytest bench_e2e/test_smoke.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, that its output checks pass, that the selection-hash
pins hold (traced == untraced, fleet_durable closed and reattached
half-way == fleet_worker1 == the same campaigns run as plain
trajectories without the service), that traced runs write a valid
Chrome trace with one lane per trajectory or campaign, and that a
mismatched hash or an unreadable ``references.json`` fails the check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(workload: str, trace: int) -> tuple[dict, str]:
    """Run the benchmark at tiny size; (final JSON, selection hash)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    (hash_line,) = [ln for ln in lines if ln.startswith("selection_hash: ")]
    return json.loads(lines[-1]), hash_line.split(": ", 1)[1]


@pytest.fixture(scope="module")
def results() -> dict:
    return {
        (w["name"], trace): bench(w["name"], trace)
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_unit(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in SPEC["workloads"]:
        out, _ = results[(w["name"], trace)]
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == expected, w["name"]
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_selection_pins(results):
    from workload import SIZES, fleet_reference, paper_dataset

    dataset = paper_dataset()
    reference = fleet_reference(dataset, dataset.memory_limit(), SEED, SIZES["tiny"])
    fleet_hashes = {
        results[(w, trace)][1] for w in ("fleet_durable", "fleet_worker1") for trace in (0, 1)
    }
    assert fleet_hashes == {reference}
    assert results[("paper_fig4", 0)][1] == results[("paper_fig4", 1)][1]


def test_unattributed_remainder_is_reported(results):
    # The 5% gate applies to full-size runs; at tiny size fixed costs
    # (service construction, reattach) are a noisy share of a ~0.3 s
    # wall, so this only catches a layer that lost its wrapper.
    for w in SPEC["workloads"]:
        out, _ = results[(w["name"], 1)]
        assert 0.0 <= out["metrics"]["unattributed_frac"]["value"] < 0.25, w["name"]


@pytest.mark.parametrize("workload, lane", [
    ("paper_fig4", "traj000"), ("fleet_durable", "c00"), ("fleet_worker1", "c00"),
])
def test_chrome_trace_has_a_lane_per_id(results, workload, lane):
    from repro.obs import validate_chrome_trace

    trace = json.loads((HERE / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
    assert validate_chrome_trace(trace) == []
    lanes = {e["args"]["name"]: e["tid"] for e in trace["traceEvents"] if e["ph"] == "M"}
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X" and e["tid"] == lanes[lane]]
    assert spans and all(e["args"]["id"] == lane for e in spans)


def test_reference_checks_fail_loudly(tmp_path, monkeypatch):
    import run

    rep = {"ok": True, "selection_hash": "a"}
    assert run.check_selections([rep, rep], "a") == []
    assert run.check_selections([rep], "b")
    assert run.check_selections([rep, dict(rep, selection_hash="b")], None)

    (tmp_path / "references.json").write_text("{truncated")
    monkeypatch.setattr(run, "HERE", tmp_path)
    args = argparse.Namespace(workload="paper_fig4", seed=0, size="full")
    with pytest.raises(ValueError, match="unreadable"):
        run.find_reference(args, deadline=0.0)
