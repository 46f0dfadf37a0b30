"""End-to-end benchmark of the AL stack: one command, every metric.

Run from the repository root::

    python3 bench_e2e/run.py --workload paper_fig4 --seed 0 --seconds 45 --trace 0

Each repetition is a fresh interpreter running ``workload.py`` with BLAS
threading pinned to one thread.  Repetitions continue until ``--seconds``
is used up (at least three untraced ones, or one untraced/traced pair).

A shared host's speed drifts by up to half for a minute at a time, and
each vCPU drifts on its own (other tenants contend for the physical
cores' caches and memory, with no steal time to show for it), which no
statistic over one run's repetitions removes.  So every repetition, its
spawned workers included, is pinned to one CPU, and a probe thread in
this process, pinned to the same CPU, times a fixed unit of work (a
pure-Python loop and small-matrix numpy linear algebra, the mix of a GP
fit) in thread CPU time every 50 ms while the repetitions run.  Every
time metric of a repetition is scaled to a reference host speed:
``measured s * PROBE_REF_S / median probe time over the repetition``.
The probe's unit never calls into ``repro``, so a change to the program
moves the scaled times exactly as it moves the measured ones.  Every
metric is the median over the run's repetitions; peak RSS and the
per-layer metrics are not scaled.

``--trace 0`` reports the end-to-end metrics (set-up, wall, throughput,
CPU, peak RSS, success fraction).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
their unattributed remainder and the tracing overhead, and writes the
traced spans as Chrome-trace JSON under ``bench_e2e/out/``.

Every run checks its outputs: no trajectory or campaign fails, every
repetition of a seed selects the same dataset indices (so traced and
untraced runs select the same), and the selection hash matches the
reference for the seed.  References are stored in ``references.json``;
for a fleet seed with none stored, the run computes it first: the same
campaigns as plain trajectories without the service.  Both fleets are
pinned to that one reference, so fleet_durable (closed and reattached
half-way) and fleet_worker1 select the same.  A full-size traced run
also fails if more than ``MAX_UNATTRIBUTED`` of its wall time falls
outside every wrapped layer.  Host facts (cores, versions, load, CPU
steal) are printed with every run; they explain noise, and no run is
dropped because of them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Pinned before numpy loads, here and in every repetition: unpinned
#: OpenBLAS threads oversubscribe a small host and make wall time erratic.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Untraced repetitions per ``--trace 0`` run, at least.
MIN_REPS = 3
#: A run ends within this many seconds: a repetition still going at the
#: deadline is killed and counted failed.
RUN_DEADLINE_S = 170.0
#: Largest share of a full-size traced run's wall time that may fall
#: outside every wrapped layer.
MAX_UNATTRIBUTED = 0.05
#: The one CPU that repetitions and the probe share.  A fleet's worker
#: shares it with its parent: on a 2-vCPU host their overlap was small
#: (a one-worker fleet used 4.6 s of CPU in 5.2 s of wall unpinned).
CPU = min(os.sched_getaffinity(0))
#: Seconds between two probe samples; one sample takes about 3 ms of
#: the shared CPU, the same share of every repetition.
PROBE_PERIOD_S = 0.05
#: Probe time of the reference host speed that time metrics are scaled
#: to.  A 2-vCPU cloud VM takes 1.9-2.7 ms, so scaled times read at or
#: a little below measured ones.
PROBE_REF_S = 2e-3
#: Fixed points of the probe's kernel matrices.
PROBE_X = np.random.default_rng(0).random((60, 3))


# ----------------------------------------------------------------- host


def cpu_steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs (0 where /proc/stat is absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def load_average() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


# ----------------------------------------------------------- host speed


def probe_unit() -> float:
    """The fixed unit of work whose CPU time tracks the host's speed:
    interpreter work plus four RBF-kernel Cholesky solves of size 60."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    x = PROBE_X
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    for ls in (0.3, 0.6, 0.9, 1.2):
        k = np.exp(-0.5 * sq / ls**2) + 1e-2 * np.eye(len(x))
        total += float(np.linalg.solve(np.linalg.cholesky(k), x[:, 0]).sum())
    return total


class SpeedProbe:
    """Samples ``(monotonic time, probe unit CPU s)`` on a thread until
    closed.  The thread holds the GIL only while it runs the unit; the
    main thread meanwhile waits on a repetition's pipes."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        os.sched_setaffinity(0, {CPU})  # this thread only
        while not self._stop.is_set():
            t = time.monotonic()
            c0 = time.thread_time()
            probe_unit()
            self.samples.append((t, time.thread_time() - c0))
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def probe_s(self, t0: float, t1: float) -> float:
        """Median probe time of the samples taken in ``[t0, t1]``; of the
        nearest ones when a window is shorter than the sampling period."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if not inside:
            near = sorted(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))
            inside = [dt for _, dt in near[:3]]
        return median(inside)


# ---------------------------------------------------------- repetitions


def run_workload(args, extra: list[str], deadline: float) -> tuple[dict | None, str, float]:
    """Run ``workload.py`` in a fresh interpreter.

    Returns (its final JSON object or None on failure, error text, the
    monotonic time it was spawned at).
    """
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--scratch", str(OUT / f"rep-{os.getpid()}"),
        *extra,
    ]
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    # Pinned while the interpreter starts, before it spawns any worker.
    os.sched_setaffinity(proc.pid, {CPU})
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "killed at the run deadline", t_spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}", t_spawn
    return json.loads(lines[-1]), "", t_spawn


def run_rep(args, traced: bool, index: int, deadline: float, probe: SpeedProbe) -> dict:
    """One measured repetition; ``{"ok": False, ...}`` on failure.

    The scaled time metrics replace the measured ones, which are kept
    under ``raw``."""
    extra = ["--trace", "1" if traced else "0"]
    if traced:
        extra += ["--trace-out", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    steal0 = cpu_steal_ticks()
    rep, error, t_spawn = run_workload(args, extra, deadline)
    if rep is None:
        return {"ok": False, "traced": traced, "error": error}
    t_first, t_end = rep["t_first_step"], rep["t_first_step"] + rep["wall_s"]
    setup_probe = probe.probe_s(t_spawn, t_first)
    run_probe = probe.probe_s(t_first, t_end)
    raw = {"setup_s": t_first - t_spawn, "wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"]}
    rep.update(
        ok=True,
        index=index,
        raw=raw,
        probe_ms=1e3 * run_probe,
        setup_s=raw["setup_s"] * PROBE_REF_S / setup_probe,
        wall_s=raw["wall_s"] * PROBE_REF_S / run_probe,
        cpu_s=raw["cpu_s"] * PROBE_REF_S / run_probe,
        steal_ticks=cpu_steal_ticks() - steal0,
    )
    return rep


def run_reps(args, budget_s: float, deadline: float, probe: SpeedProbe) -> list[dict]:
    """Repeat until ``budget_s`` is used up; never start a repetition
    that is predicted to overrun it once the minimum is reached."""
    pattern = (False, True) if args.trace else (False,)
    minimum = 1 if args.trace else MIN_REPS
    reps: list[dict] = []
    t0 = time.monotonic()
    rounds = 0
    while True:
        t_round = time.monotonic()
        for traced in pattern:
            reps.append(run_rep(args, traced, len(reps), deadline, probe))
        rounds += 1
        elapsed = time.monotonic() - t0
        last = time.monotonic() - t_round
        if (rounds >= minimum and elapsed + last > budget_s) or (
            time.monotonic() + last > deadline
        ):
            return reps


# --------------------------------------------------------------- checks


def find_reference(args, deadline: float) -> tuple[str | None, str]:
    """The selection hash this seed must give, and where it came from.

    Full-size seeds look in ``references.json`` (unreadable is an error:
    ``ValueError``).  A fleet seed with no stored reference gets one
    computed now; a Fig. 4 seed with none has no independent path to
    compare with, and only agreement between repetitions is checked.
    """
    key = "paper_fig4" if args.workload == "paper_fig4" else "fleet"
    if args.size == "full":
        try:
            refs = json.loads((HERE / "references.json").read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"references.json is unreadable: {exc}") from exc
        stored = refs.get(str(args.seed), {}).get(key)
        if stored is not None:
            return stored, "stored"
    if key == "paper_fig4":
        return None, "none"
    out, error, _ = run_workload(args, ["--reference"], deadline)
    if out is None:
        raise ValueError(f"computing the fleet reference failed: {error}")
    return out["selection_hash"], "computed"


def check_selections(reps: list[dict], reference: str | None) -> list[str]:
    """Selection-hash checks; returns the failures as messages."""
    problems = []
    hashes = {r["selection_hash"] for r in reps if r["ok"]}
    if len(hashes) > 1:
        problems.append(
            "repetitions of one seed selected different indices "
            "(traced vs untraced or run to run)"
        )
    if reference is not None and hashes - {reference}:
        problems.append("selection hash differs from the reference for this seed")
    return problems


# --------------------------------------------------------------- report


def median(values) -> float:
    return float(statistics.median(values))


def summarize(args, spec: dict, reps: list[dict], problems: list[str]) -> dict:
    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    units = good[0]["units"]
    attempted = units * len(reps)
    failed = sum(r["failed_units"] for r in good) + units * (len(reps) - len(good))
    if problems:  # a failed check makes every output suspect
        failed = attempted
    if args.trace:
        traced = [r for r in good if r["traced"]]
        names = traced[0]["layers"]
        metrics = {n: median([r["layers"][n] for r in traced]) for n in names}
        metrics["trace_overhead_frac"] = (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1.0
        )
        section = "per_layer"
    else:
        metrics = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "wall_s": median([r["wall_s"] for r in plain]),
            "iters_per_s": median([r["iterations"] / r["wall_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"
    units_of = {m["name"]: m["unit"] for m in spec[section]}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units_of[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's workload size")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load0 = load_average()
    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    problems: list[str] = []
    try:
        try:
            reference, source = find_reference(args, deadline)
        except ValueError as exc:
            reference, source = None, "unavailable"
            problems.append(str(exc))
        # Computing a reference spends part of the run's time budget.
        with SpeedProbe() as probe:
            reps = run_reps(args, args.seconds - (time.monotonic() - t0), deadline, probe)
    finally:
        shutil.rmtree(OUT / f"rep-{os.getpid()}", ignore_errors=True)
    for r in reps:
        if not r["ok"]:
            print(f"repetition failed ({'traced' if r['traced'] else 'untraced'}): {r['error']}")
    good = [r for r in reps if r["ok"]]
    needed = {False, True} if args.trace else {False}
    if not needed <= {r["traced"] for r in good}:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    problems += check_selections(reps, reference)
    if args.trace and args.size == "full":
        # Tiny runs are exempt: fixed costs are a noisy share of their wall.
        unattributed = median([r["layers"]["unattributed_frac"] for r in good if r["traced"]])
        if unattributed > MAX_UNATTRIBUTED:
            problems.append(f"unattributed_frac {unattributed:.4f} exceeds {MAX_UNATTRIBUTED}")
    if source == "none":
        print(f"note: no reference for seed {args.seed}; the reference check was skipped")

    host = dict(good[0]["host"])
    host.update(
        load_average_start=load0,
        load_average_end=load_average(),
        steal_ticks=sum(r.get("steal_ticks", 0) for r in reps),
        probe_ms=[round(r["probe_ms"], 4) for r in good],
        probe_ref_ms=1e3 * PROBE_REF_S,
        blas_env=BLAS_ENV,
    )
    print("host: " + json.dumps(host, sort_keys=True))
    print("selection_hash: " + good[0]["selection_hash"])
    print(f"reference_hash: {reference} ({source})")
    for r in reps:
        if r["ok"]:
            print(
                "rep {index} {kind}: measured setup {setup_s:.3f} s, wall {wall_s:.3f} s, "
                "cpu {cpu_s:.3f} s; probe {probe_ms:.3f} ms; scaled wall {scaled:.3f} s; "
                "peak {peak_rss_mb:.1f} MB, steal {steal_ticks} ticks".format(
                    kind="traced" if r["traced"] else "untraced",
                    index=r["index"],
                    probe_ms=r["probe_ms"],
                    scaled=r["wall_s"],
                    peak_rss_mb=r["peak_rss_mb"],
                    steal_ticks=r["steal_ticks"],
                    **r["raw"],
                )
            )
    for p in problems:
        print(f"check failed: {p}")
    result = summarize(args, spec, reps, problems)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
