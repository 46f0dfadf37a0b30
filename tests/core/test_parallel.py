"""Tests for the process-pool trajectory runner."""

import os

import numpy as np
import pytest

from repro.core.parallel import (
    TrajectoryFailure,
    TrajectorySpec,
    default_workers,
    run_trajectories,
)
from repro.core.policies import MinPred, RandGoodness, RandUniform
from repro.core.trajectory import Trajectory


class ExplodingPolicy(RandUniform):
    """Raises mid-trajectory (3rd selection).  Module-level so it pickles
    into spawn-started workers."""

    name = "exploding"

    def __init__(self):
        self.calls = 0

    def select(self, view, rng):
        self.calls += 1
        if self.calls >= 3:
            raise RuntimeError("injected mid-run explosion")
        return super().select(view, rng)


class DyingPolicy(RandUniform):
    """Hard-kills its worker process on the first selection (a real death,
    not an exception).  Module-level so it pickles into workers."""

    name = "dying"

    def select(self, view, rng):
        os._exit(23)


def _specs(n=3, **kw):
    base = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
    base.update(kw)
    return [
        TrajectorySpec(
            name=f"traj{i}", policy_factory=RandUniform, base_seed=31, traj_index=i,
            **base,
        )
        for i in range(n)
    ]


class TestSerialExecution:
    def test_returns_named_pairs_in_spec_order(self, small_dataset):
        out = run_trajectories(small_dataset, _specs(3), max_workers=1)
        assert [name for name, _ in out] == ["traj0", "traj1", "traj2"]
        assert all(len(t) == 4 for _, t in out)

    def test_same_seed_position_shares_partition(self, small_dataset):
        """Paired comparison: equal (base_seed, traj_index) => equal
        partitions, so the first selected index pool is shared."""
        a = TrajectorySpec(name="a", policy_factory=MinPred, base_seed=5,
                           n_init=15, n_test=20, max_iterations=3)
        b = TrajectorySpec(name="b", policy_factory=MinPred, base_seed=5,
                           n_init=15, n_test=20, max_iterations=3)
        out = run_trajectories(small_dataset, [a, b], max_workers=1)
        assert np.array_equal(out[0][1].selected_indices, out[1][1].selected_indices)

    def test_distinct_indices_get_distinct_streams(self, small_dataset):
        out = run_trajectories(small_dataset, _specs(2), max_workers=1)
        assert not np.array_equal(
            out[0][1].selected_indices, out[1][1].selected_indices
        )

    def test_learner_kwargs_forwarded(self, small_dataset):
        spec = TrajectorySpec(
            name="s", policy_factory=RandUniform, base_seed=1, n_init=15,
            n_test=20, max_iterations=2,
            learner_kwargs={"cache_candidates": False},
        )
        out = run_trajectories(small_dataset, [spec], max_workers=1)
        assert len(out[0][1]) == 2


class TestParallelExecution:
    def test_parallel_matches_serial_exactly(self, small_dataset):
        specs = _specs(2)
        serial = run_trajectories(small_dataset, specs, max_workers=1)
        parallel = run_trajectories(small_dataset, specs, max_workers=2)
        for (n1, a), (n2, b) in zip(serial, parallel):
            assert n1 == n2
            assert np.array_equal(a.selected_indices, b.selected_indices)
            assert np.array_equal(a.rmse_cost, b.rmse_cost)

    def test_invalid_worker_count(self, small_dataset):
        with pytest.raises(ValueError):
            run_trajectories(small_dataset, _specs(1), max_workers=0)


class TestDefaultWorkers:
    def test_capped_by_jobs_and_cores(self):
        assert default_workers(1) == 1
        assert default_workers(10**6) >= 1
        assert default_workers(2) <= 2


class TestWorkerCountDeterminism:
    """The determinism contract: results are a function of the specs alone,
    not of how they were scheduled over processes."""

    def test_identical_results_at_workers_1_2_4(self, small_dataset):
        specs = [
            TrajectorySpec(
                name=f"rg{i}", policy_factory=RandGoodness, base_seed=17,
                traj_index=i, n_init=15, n_test=20, max_iterations=4,
                hyper_refit_interval=2,
            )
            for i in range(3)
        ]
        runs = {
            w: run_trajectories(small_dataset, specs, max_workers=w)
            for w in (1, 2, 4)
        }
        ref = runs[1]
        for w in (2, 4):
            for (n_ref, t_ref), (n_w, t_w) in zip(ref, runs[w]):
                assert n_ref == n_w
                assert np.array_equal(t_ref.selected_indices, t_w.selected_indices)
                assert np.array_equal(t_ref.rmse_cost, t_w.rmse_cost)
                assert np.array_equal(t_ref.rmse_mem, t_w.rmse_mem)

    def test_mid_run_failure_does_not_perturb_survivors(self, small_dataset):
        """A trajectory that raises on its 3rd selection is reported as a
        TrajectoryFailure; every other trajectory is bit-identical at any
        worker count."""
        good = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
        specs = [
            TrajectorySpec(name="ok0", policy_factory=RandGoodness,
                           base_seed=17, traj_index=0, **good),
            TrajectorySpec(name="boom", policy_factory=ExplodingPolicy,
                           base_seed=17, traj_index=1, **good),
            TrajectorySpec(name="ok1", policy_factory=RandGoodness,
                           base_seed=17, traj_index=2, **good),
        ]
        runs = {
            w: run_trajectories(
                small_dataset, specs, max_workers=w, on_error="return"
            )
            for w in (1, 2, 4)
        }
        for w, out in runs.items():
            assert [name for name, _ in out] == ["ok0", "boom", "ok1"]
            failure = out[1][1]
            assert isinstance(failure, TrajectoryFailure)
            assert "injected mid-run explosion" in failure.error
            assert isinstance(out[0][1], Trajectory)
            assert isinstance(out[2][1], Trajectory)
        ref = runs[1]
        for w in (2, 4):
            for pos in (0, 2):
                assert np.array_equal(
                    ref[pos][1].selected_indices, runs[w][pos][1].selected_indices
                )
                assert np.array_equal(
                    ref[pos][1].rmse_cost, runs[w][pos][1].rmse_cost
                )

    def test_failure_carries_worker_traceback(self, small_dataset):
        spec = TrajectorySpec(
            name="boom", policy_factory=ExplodingPolicy, base_seed=3,
            n_init=15, n_test=20, max_iterations=4,
        )
        out = run_trajectories(
            small_dataset, [spec], max_workers=1, on_error="return"
        )
        failure = out[0][1]
        assert isinstance(failure, TrajectoryFailure)
        assert "RuntimeError" in failure.traceback
        assert "injected mid-run explosion" in failure.traceback

    def test_on_error_raise_names_every_failure(self, small_dataset):
        specs = [
            TrajectorySpec(name=f"boom{i}", policy_factory=ExplodingPolicy,
                           base_seed=3, traj_index=i, n_init=15, n_test=20,
                           max_iterations=4)
            for i in range(2)
        ]
        with pytest.raises(RuntimeError, match="2/2 trajectories failed"):
            run_trajectories(small_dataset, specs, max_workers=2)

    def test_on_error_validated(self, small_dataset):
        with pytest.raises(ValueError):
            run_trajectories(
                small_dataset, _specs(1), max_workers=1, on_error="ignore"
            )


class TestDyingWorker:
    def test_dead_worker_costs_only_its_own_spec(self, small_dataset):
        """A worker that dies outright (os._exit in the policy) fails its
        own spec only; the pool respawns it and every other spec is
        bit-identical to a serial run."""
        healthy = _specs(5)
        dying = TrajectorySpec(
            name="dier", policy_factory=DyingPolicy, base_seed=31, traj_index=9,
            n_init=15, n_test=20, max_iterations=4,
        )
        specs = healthy[:2] + [dying] + healthy[2:]
        out = run_trajectories(
            small_dataset, specs, max_workers=2, on_error="return"
        )
        assert [name for name, _ in out] == [s.name for s in specs]
        kinds = [type(t) for _, t in out]
        assert kinds == [Trajectory] * 2 + [TrajectoryFailure] + [Trajectory] * 3
        assert "died" in out[2][1].error
        survivors = out[:2] + out[3:]
        serial = run_trajectories(small_dataset, healthy, max_workers=1)
        for (n_ref, t_ref), (n_par, t_par) in zip(serial, survivors):
            assert n_ref == n_par
            assert np.array_equal(t_ref.selected_indices, t_par.selected_indices)
            assert np.array_equal(t_ref.rmse_cost, t_par.rmse_cost)
            assert np.array_equal(t_ref.rmse_mem, t_par.rmse_mem)


class TestMidDrainCancellation:
    """Regression: obs payloads already shipped by finished workers must be
    merged even when the drain loop is cancelled while waiting for a later
    result."""

    def test_finished_payloads_survive_cancellation(
        self, small_dataset, monkeypatch
    ):
        from repro import obs
        from repro.core import parallel

        real_wait = parallel.WorkerPool.wait
        waits = []

        def wait_then_interrupt(pool):
            # The first wait returns real results (and their payloads);
            # the next one is cancelled while specs are still running.
            waits.append(None)
            if len(waits) > 1:
                raise KeyboardInterrupt
            return real_wait(pool)

        monkeypatch.setattr(parallel.WorkerPool, "wait", wait_then_interrupt)
        obs.reset()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_trajectories(small_dataset, _specs(3), max_workers=2)
            # The payload of the spec that finished before the
            # cancellation was merged: only workers fit models here.
            assert obs.snapshot()["fit"].calls > 0
            assert obs.counters().get("lml_eval", 0) > 0
        finally:
            obs.reset()
