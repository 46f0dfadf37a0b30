"""Perf headline: multi-fidelity portfolios vs single-fidelity RGMA.

The batch multi-fidelity rounds of the AL loop buy most of its information at coarse
fidelity rungs (low ``mx`` / shallow ``max_level``), each priced by the
machine model at a fraction of the full-fidelity node-hour cost, and
propagates it to the top-fidelity posterior through the co-kriging stack.
Two claims are pinned:

- **regret per node-hour**: over held-out seeds, the F=2/B=4 portfolio
  configuration ends at (or below) sequential RGMA's final cumulative
  regret while committing >= ``NODE_HOUR_TARGET``x fewer node-hours for
  the same number of acquisitions — the coarse rungs do the exploring,
  the budget does the rationing;
- **exact reduction**: at B=1/F=1 the portfolio configuration reproduces
  sequential RGMA's selections bit-identically (same partitions, same
  rng streams), so batch rounds are a strict generalization, not a
  different algorithm.  The RGMA baselines fan out over
  ``REPRO_BENCH_WORKERS`` processes; parity holds for any worker count
  by seed design.

Results: ``benchmarks/results/perf_mf.txt`` plus machine-readable
``BENCH_mf.json`` (schema ``mf_portfolio_regret``) at the repo root.
``REPRO_BENCH_SCALE=quick`` (default) runs 2 seeds x 25 acquisitions;
``full`` runs 4 seeds x 60.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import numpy as np

from repro.core import (
    ActiveLearner,
    ALConfig,
    PortfolioPolicy,
    RGMA,
    TrajectorySpec,
    random_partition,
    run_trajectories,
)
from repro.data import MultiFidelityDataset, default_schedule

#: Fidelity rungs and per-round batch width of the portfolio arm.
NUM_FIDELITIES = 2
BATCH_SIZE = 4
#: Predicted node-hours each portfolio round may commit.
ROUND_BUDGET = 0.3
#: Deterministic low-fidelity pricing seed (shared by every seed's run).
FIDELITY_SEED = 0

#: The headline target: RGMA node-hours / portfolio node-hours.
NODE_HOUR_TARGET = 1.5
#: Absolute slack on the regret comparison (both arms are usually ~0).
REGRET_SLACK = 0.05

#: Held-out seed tree (disjoint from the test suites' seeds).
BASE_SEED = 4242
PARITY_SEEDS = 2
PARITY_ITERATIONS = 15

SCALES = {
    "quick": dict(regret_seeds=2, regret_iterations=25),
    "full": dict(regret_seeds=4, regret_iterations=60),
}

BENCH_JSON = Path(__file__).parent.parent / "BENCH_mf.json"


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _seeded(traj_index: int, dataset, n_init=50, n_test=200):
    """The shared seed tree: same (partition, rng) as TrajectorySpec."""
    seed_seq = np.random.SeedSequence(entropy=BASE_SEED, spawn_key=(traj_index,))
    rng = np.random.default_rng(seed_seq)
    partition = random_partition(rng, len(dataset), n_init=n_init, n_test=n_test)
    return partition, rng


def _rgma_specs(memory_limit: float, n: int, iterations: int):
    return [
        TrajectorySpec(
            name=f"rgma-{i}",
            policy_factory=functools.partial(RGMA, memory_limit_MB=memory_limit),
            base_seed=BASE_SEED,
            traj_index=i,
            max_iterations=iterations,
        )
        for i in range(n)
    ]


def _parity(dataset, memory_limit: float, workers: int) -> dict:
    """B=1/F=1 portfolio selections vs sequential RGMA, per seed."""
    rgma = run_trajectories(
        dataset,
        _rgma_specs(memory_limit, PARITY_SEEDS, PARITY_ITERATIONS),
        max_workers=min(workers, PARITY_SEEDS),
    )
    identical = True
    rounds = 0
    for i, (_, traj) in enumerate(rgma):
        partition, rng = _seeded(i, dataset)
        learner = ActiveLearner(
            dataset,
            partition,
            policy=PortfolioPolicy(memory_limit_MB=memory_limit),
            rng=rng,
            config=ALConfig(max_iterations=PARITY_ITERATIONS),
        )
        mf_traj = learner.run()
        rounds += len(mf_traj.records)
        if not np.array_equal(traj.selected_indices, mf_traj.selected_indices):
            identical = False
    return {"identical": bool(identical), "rounds": int(rounds)}


def test_mf_parity_b1_f1(dataset, memory_limit, bench_workers, report):
    """The exact-reduction pin, runnable on its own as the CI smoke slice."""
    parity = _parity(dataset, memory_limit, bench_workers)
    report(
        "perf_mf_parity",
        f"B=1/F=1 portfolio vs sequential RGMA over {PARITY_SEEDS} seeds x "
        f"{PARITY_ITERATIONS} iterations: "
        f"{'bit-identical' if parity['identical'] else 'DIVERGED'} "
        f"({parity['rounds']} selections compared)",
    )
    assert parity["identical"], (
        "B=1/F=1 portfolio selections diverged from sequential RGMA"
    )


def test_mf_portfolio_regret(dataset, memory_limit, bench_workers, report):
    scale = _scale()
    cfg = SCALES[scale]
    seeds, iterations = cfg["regret_seeds"], cfg["regret_iterations"]

    rgma_results = run_trajectories(
        dataset,
        _rgma_specs(memory_limit, seeds, iterations),
        max_workers=min(bench_workers, seeds),
    )
    rgma_regret = float(np.mean([t.total_regret for _, t in rgma_results]))
    rgma_nh = float(np.mean([t.total_cost for _, t in rgma_results]))
    rgma_rmse = float(np.mean([t.final_rmse_cost for _, t in rgma_results]))

    mf_dataset = MultiFidelityDataset.from_dataset(
        dataset, default_schedule(NUM_FIDELITIES), seed=FIDELITY_SEED
    )
    mf_cfg = ALConfig(
        max_iterations=iterations,
        num_fidelities=NUM_FIDELITIES,
        batch_size=BATCH_SIZE,
        round_budget_node_hours=ROUND_BUDGET,
        fidelity_seed=FIDELITY_SEED,
    )
    mf_regrets, mf_nhs, mf_rmses, mf_coarse = [], [], [], []
    for i in range(seeds):
        partition, rng = _seeded(i, dataset)
        learner = ActiveLearner(
            mf_dataset,
            partition,
            policy=PortfolioPolicy(memory_limit_MB=memory_limit),
            rng=rng,
            config=mf_cfg,
        )
        traj = learner.run()
        mf_regrets.append(traj.total_regret)
        mf_nhs.append(learner.cumulative_cost_spent)
        mf_rmses.append(traj.final_rmse_cost)
        mf_coarse.append(
            sum(1 for r in traj.records if r.fidelity < NUM_FIDELITIES - 1)
            / max(len(traj.records), 1)
        )
    mf_regret = float(np.mean(mf_regrets))
    mf_nh = float(np.mean(mf_nhs))
    mf_rmse = float(np.mean(mf_rmses))

    node_hour_factor = rgma_nh / mf_nh
    within = (
        mf_regret <= rgma_regret + REGRET_SLACK
        and node_hour_factor >= NODE_HOUR_TARGET
    )
    parity = _parity(dataset, memory_limit, bench_workers)

    lines = [
        f"{seeds} seeds x {iterations} acquisitions (scale={scale})",
        f"rgma      : regret {rgma_regret:.4f} nh  spend {rgma_nh:.3f} nh  "
        f"final cost RMSE {rgma_rmse:.4f}",
        f"portfolio : regret {mf_regret:.4f} nh  spend {mf_nh:.3f} nh  "
        f"final cost RMSE {mf_rmse:.4f}  "
        f"(F={NUM_FIDELITIES}, B={BATCH_SIZE}, "
        f"coarse fraction {np.mean(mf_coarse):.2f})",
        f"node-hour factor: {node_hour_factor:.2f}x "
        f"(target >= {NODE_HOUR_TARGET}x, regret slack {REGRET_SLACK}): "
        f"{'ok' if within else 'VIOLATED'}",
        f"parity    : B=1/F=1 "
        f"{'bit-identical' if parity['identical'] else 'DIVERGED'} "
        f"over {parity['rounds']} selections",
    ]
    report("perf_mf", "\n".join(lines))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "mf_portfolio_regret",
                "host_cores": os.cpu_count(),
                "config": {
                    "scale": scale,
                    "num_fidelities": NUM_FIDELITIES,
                    "batch_size": BATCH_SIZE,
                    "round_budget_node_hours": ROUND_BUDGET,
                    "fidelity_seed": FIDELITY_SEED,
                    "base_seed": BASE_SEED,
                    "regret_seeds": seeds,
                    "regret_iterations": iterations,
                    "node_hour_target": NODE_HOUR_TARGET,
                    "regret_slack": REGRET_SLACK,
                },
                "regret": {
                    "rgma_final_regret": round(rgma_regret, 4),
                    "mf_final_regret": round(mf_regret, 4),
                    "rgma_node_hours": round(rgma_nh, 4),
                    "mf_node_hours": round(mf_nh, 4),
                    "rgma_final_rmse_cost": round(rgma_rmse, 4),
                    "mf_final_rmse_cost": round(mf_rmse, 4),
                    "coarse_fraction": round(float(np.mean(mf_coarse)), 3),
                    "node_hour_factor": round(node_hour_factor, 3),
                    "within_target": bool(within),
                },
                "parity": parity,
                "speedup": round(node_hour_factor, 3),
            },
            indent=2,
        )
        + "\n"
    )

    assert parity["identical"], (
        "B=1/F=1 portfolio selections diverged from sequential RGMA"
    )
    assert within, (
        f"portfolio regret {mf_regret:.4f} / node-hour factor "
        f"{node_hour_factor:.2f}x missed the target "
        f"(rgma regret {rgma_regret:.4f}, >= {NODE_HOUR_TARGET}x)"
    )
