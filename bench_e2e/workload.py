"""One measured run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with BLAS threading
pinned in its environment and reads the JSON object it prints as its
last line.  The script can also be run by hand::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench_e2e/workload.py \\
        --workload paper_fig4 --seed 0 --trace 1 --scratch bench_e2e/out/manual

With ``--reference`` (fleets only) it prints instead the selection hash
of the fleet's campaigns run as plain trajectories without the service,
which both fleets must reproduce.

Timeline of a run: interpreter start -> ``repro`` imports, dataset
generation, memory limit and (fleets) store open plus submit = set-up ->
first AL step -> last result = the measured wall window.  Selection
hashes are computed after the window closes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import ALConfig, BatchConfig, RGMA, RandGoodness, run_batch
from repro.core.parallel import TrajectorySpec, run_trajectories
from repro.core.service import CampaignService, CampaignSpec, CheckpointStore
from repro.core.trajectory import Trajectory
from repro.data import run_campaign

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke test's: the same code paths in well under a second each.
SIZES = {
    "full": {
        "fig4_n_inits": (1, 50, 100),
        "fig4_partitions": 3,
        "fig4_iterations": 80,
        "fig4_refit_interval": 2,
        "fleet_campaigns": 16,
        "fleet_iterations": 40,
        "fleet_refit_interval": 8,
    },
    "tiny": {
        "fig4_n_inits": (1, 50),
        "fig4_partitions": 1,
        "fig4_iterations": 4,
        "fig4_refit_interval": 2,
        "fleet_campaigns": 3,
        "fleet_iterations": 6,
        "fleet_refit_interval": 3,
    },
}

#: Fleet slice length: AL steps per committed checkpoint.
STEPS_PER_SLICE = 2

#: Every run uses the one 600-job dataset of this campaign seed, as the
#: paper studies one measured dataset; ``--seed`` draws the trajectories'
#: initial, pool and test partitions.  How costly GP fits are depends far
#: more on the dataset than on the partitions (Fig. 4 takes 6.2-8.0 s over
#: datasets of seeds 0-3, 6.2-6.6 s over partitions of one dataset), so a
#: dataset drawn per seed would make run-to-run spread measure the data.
DATASET_SEED = 0

WORKLOADS = ("paper_fig4", "fleet_durable", "fleet_worker1")


def selection_hash(named_indices: list[tuple[str, list[int]]]) -> str:
    """SHA-256 over every trajectory's or campaign's selected indices."""
    h = hashlib.sha256()
    for name, indices in named_indices:
        h.update(f"{name}:{','.join(map(str, indices))};".encode())
    return h.hexdigest()


def paper_dataset():
    return run_campaign(np.random.default_rng(DATASET_SEED)).dataset


def trajectory_indices(traj: Trajectory) -> list[int]:
    return [int(r.dataset_index) for r in traj.records]


# ------------------------------------------------------------- workloads


def fig4(dataset, memory_limit: float, seed: int, size: dict) -> list:
    """Quick-scale Fig. 4 through ``run_batch``, serial in-process.

    ``run_batch`` raises if any trajectory fails, which fails the run.
    """
    named = []
    for n_init in size["fig4_n_inits"]:
        factories = {f"rgma_init{n_init}": functools.partial(RGMA, memory_limit_MB=memory_limit)}
        if n_init == 50:
            factories["rand_goodness_init50"] = RandGoodness
        cfg = BatchConfig(
            n_trajectories=size["fig4_partitions"],
            n_init=n_init,
            n_test=200,
            max_iterations=size["fig4_iterations"],
            hyper_refit_interval=size["fig4_refit_interval"],
            base_seed=seed,
            processes=1,
        )
        batch = run_batch(dataset, factories, cfg)
        for name in factories:
            for i, traj in enumerate(batch[name]):
                named.append((f"{name}/{i}", trajectory_indices(traj)))
    return named


def fleet_specs(memory_limit: float, seed: int, size: dict) -> list[CampaignSpec]:
    config = ALConfig(
        max_iterations=size["fleet_iterations"],
        hyper_refit_interval=size["fleet_refit_interval"],
    )
    return [
        CampaignSpec(
            campaign_id=f"c{i:02d}",
            policy_factory=functools.partial(RGMA, memory_limit_MB=memory_limit),
            base_seed=seed,
            traj_index=i,
            n_init=50,
            n_test=200,
            config=config,
        )
        for i in range(size["fleet_campaigns"])
    ]


def fleet_reference(dataset, memory_limit: float, seed: int, size: dict) -> str:
    """Selection hash of the fleet's campaigns run as plain trajectories.

    Campaigns share the trajectory seed tree, so the uninterrupted,
    service-free run must select exactly what either fleet selects.
    """
    specs = [
        TrajectorySpec(
            name=s.campaign_id,
            policy_factory=s.policy_factory,
            base_seed=s.base_seed,
            traj_index=s.traj_index,
            n_init=s.n_init,
            n_test=s.n_test,
            max_iterations=s.config.max_iterations,
            hyper_refit_interval=s.config.hyper_refit_interval,
        )
        for s in fleet_specs(memory_limit, seed, size)
    ]
    results = run_trajectories(dataset, specs, max_workers=1)
    return selection_hash([(name, trajectory_indices(t)) for name, t in results])


def fleet_results(service: CampaignService, specs) -> tuple:
    named, failed = [], 0
    for spec in specs:
        result = service.result(spec.campaign_id)
        if isinstance(result, Trajectory):
            named.append((spec.campaign_id, trajectory_indices(result)))
        else:
            failed += 1
            named.append((spec.campaign_id, []))
    return named, failed


# ------------------------------------------------------------------ main


def rusage_totals() -> tuple[float, float, float]:
    """(self CPU s, children CPU s, MaxRSS MB of self + largest child)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        (me.ru_maxrss + kids.ru_maxrss) / 1024.0,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--scratch", type=Path, required=True, help="private work directory")
    ap.add_argument("--trace-out", type=Path, help="Chrome-trace JSON (traced runs)")
    ap.add_argument("--reference", action="store_true",
                    help="fleets only: print the service-free reference hash and exit")
    args = ap.parse_args(argv)
    size = SIZES[args.size]

    if args.reference:
        if args.workload == "paper_fig4":
            ap.error("--reference applies to the fleet workloads")
        dataset = paper_dataset()
        reference = fleet_reference(dataset, dataset.memory_limit(), args.seed, size)
        print(json.dumps({"selection_hash": reference}))
        return 0

    recorder = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Recorder

        recorder = Recorder()
        recorder.install()

    t_data = time.perf_counter()
    dataset = paper_dataset()
    data_s = time.perf_counter() - t_data
    memory_limit = dataset.memory_limit()

    store_dir = args.scratch / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    if args.workload == "paper_fig4":
        units = (len(size["fig4_n_inits"]) + 1) * size["fig4_partitions"]
    else:
        specs = fleet_specs(memory_limit, args.seed, size)
        units = len(specs)
        workers = 1 if args.workload == "fleet_worker1" else 0
        service = CampaignService(
            dataset,
            store=CheckpointStore(store_dir),
            workers=workers,
            steps_per_slice=STEPS_PER_SLICE,
        )
        for spec in specs:
            service.submit(spec)

    if recorder is not None:
        recorder.reset()
    obs.reset()
    t_first_step = time.monotonic()
    cpu_self0, cpu_kids0, _ = rusage_totals()
    t0 = time.perf_counter()
    if args.workload == "paper_fig4":
        named, failed = fig4(dataset, memory_limit, args.seed, size), 0
    elif args.workload == "fleet_durable":
        # Close after half the slices and finish on a fresh service
        # attached to the same store: the kill-and-resume path.
        half = len(specs) * size["fleet_iterations"] // STEPS_PER_SLICE // 2
        service.run(max_slices=half)
        service.close()
        service = CampaignService(
            dataset, store=CheckpointStore(store_dir), workers=0, steps_per_slice=STEPS_PER_SLICE
        )
        service.run()
        service.close()
        named, failed = fleet_results(service, specs)
    else:
        service.run()
        service.close()
        named, failed = fleet_results(service, specs)
    wall_s = time.perf_counter() - t0
    cpu_self1, cpu_kids1, peak_rss_mb = rusage_totals()
    shutil.rmtree(store_dir, ignore_errors=True)
    reap_children()

    iterations = sum(len(ix) for _, ix in named)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "traced": bool(args.trace),
        "t_first_step": t_first_step,
        "wall_s": wall_s,
        "cpu_s": (cpu_self1 - cpu_self0) + (cpu_kids1 - cpu_kids0),
        "peak_rss_mb": peak_rss_mb,
        "units": units,
        "failed_units": failed,
        "iterations": iterations,
        "selection_hash": selection_hash(named),
        "data_s": data_s,
        "host": host_facts(),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, wall_s, data_s, cpu_kids1 - cpu_kids0)
        if args.trace_out is not None:
            recorder.write_chrome_trace(
                args.trace_out,
                {"workload": args.workload, "seed": args.seed, "wall_s": wall_s},
            )
    print(json.dumps(result))
    return 0


def reap_children() -> None:
    """Leave no process behind: join stray workers, then stop the
    resource-tracker helper that spawning a worker launches."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = multiprocessing.resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def layer_metrics(rec, wall_s: float, data_s: float, worker_cpu_s: float) -> dict:
    """Per-layer numbers of a traced run, plus the ``repro.obs`` totals."""
    counters = obs.counters()
    phases = obs.snapshot()
    steps = sorted(rec.durations.get("loop.step", []))

    def quantile_ms(q: float) -> float:
        if not steps:
            return 0.0
        return 1e3 * steps[min(len(steps) - 1, int(q * len(steps)))]

    def phase_s(name: str) -> float:
        stat = phases.get(name)
        return stat.seconds if stat is not None else 0.0

    def phase_calls(name: str) -> int:
        stat = phases.get(name)
        return stat.calls if stat is not None else 0

    slices = int(counters.get("service.slice.committed", 0))
    return {
        "data.run_campaign_s": data_s,
        "gp.fit_s": rec.self_s["gp.fit"],
        "gp.fit_calls": rec.calls["gp.fit"],
        "gp.refactor_s": rec.self_s["gp.refactor"],
        "gp.predict_s": rec.self_s["gp.predict"],
        "gp.predict_from_cross_s": rec.self_s["gp.predict_from_cross"],
        "gp.lml_evals": int(counters.get("lml_eval", 0)),
        "gp.ws_extend": int(counters.get("ws_extend", 0)),
        "gp.ws_rebuild": int(counters.get("ws_rebuild", 0)),
        "gp.rank1_updates": phase_calls("rank1_update"),
        "gp.full_refactors": phase_calls("refactor"),
        "loop.cache_predict_s": rec.self_s["loop.cache_predict"],
        "loop.cache_acquire_s": rec.self_s["loop.cache_acquire"],
        "loop.step_self_s": rec.self_s["loop.step"],
        "loop.step_p50_ms": quantile_ms(0.50),
        "loop.step_p98_ms": quantile_ms(0.98),
        "loop.step_samples": len(steps),
        "policies.select_s": rec.self_s["policies.select"],
        "policies.select_calls": rec.calls["policies.select"],
        "service.dumps_s": rec.self_s["service.dumps"],
        "service.loads_s": rec.self_s["service.loads"],
        "service.store_save_s": rec.self_s["service.store_save"],
        "service.store_load_s": rec.self_s["service.store_load"],
        "service.fsync_s": rec.self_s["service.fsync"],
        "service.fsync_calls": rec.calls["service.fsync"],
        "service.ckpt_bytes_per_slice": rec.saved_bytes // slices if slices else 0,
        "service.slices_committed": slices,
        "service.pool_wait_s": rec.self_s["service.pool_wait"],
        "service.pipe_s": rec.self_s["service.pipe"],
        "service.pool_lifecycle_s": rec.self_s["service.pool_lifecycle"],
        "service.worker_cpu_s": worker_cpu_s,
        "obs.merge_s": rec.self_s["obs.merge"],
        "obs.fit_s": phase_s("fit"),
        "obs.refactor_s": phase_s("refactor") + phase_s("rank1_update"),
        "obs.predict_s": phase_s("predict"),
        "obs.select_s": phase_s("select"),
        "unattributed_frac": (wall_s - rec.top_level_s) / wall_s,
    }


if __name__ == "__main__":
    sys.exit(main())
