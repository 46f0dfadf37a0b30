"""Batch rounds of the one AL loop at a single fidelity.

``ALConfig(batch_size=B)`` makes :class:`ActiveLearner` pick ``B``
points per round with :func:`repro.core.loop.select_round`, conditioning
each later pick on the earlier ones by a kriging believer, and retrain
once per round.  Without a conditioner a round is plain top-``B`` of the
acquisition (the *independent* batch).
"""

import numpy as np
import pytest

from repro.core import (
    ActiveLearner,
    ALConfig,
    MaxSigma,
    RandGoodness,
    RGMA,
    StopReason,
    random_partition,
)
from repro.core.loop import select_round


def _learner(dataset, policy, seed=0, **config):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=15, n_test=30)
    config.setdefault("max_iterations", 16)
    config.setdefault("hyper_refit_interval", 2)
    return ActiveLearner(
        dataset, part, policy=policy, rng=rng, config=ALConfig(**config)
    )


def _round_inputs(dataset, batch_size=5):
    learner = _learner(dataset, MaxSigma(), batch_size=batch_size)
    learner.start()
    return learner, learner._candidate_view()


class TestValidation:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            ALConfig(batch_size=0)


class TestBatchMechanics:
    @pytest.mark.parametrize("samples", [12, 10])
    def test_selects_max_iterations_samples(self, small_dataset, samples):
        """``max_iterations`` counts samples: the last round is trimmed."""
        traj = _learner(
            small_dataset, RandGoodness(), batch_size=4, max_iterations=samples
        ).run()
        assert len(traj) == samples
        assert traj.stop_reason == StopReason.MAX_ITERATIONS
        assert [r.iteration for r in traj.records] == list(range(samples))

    def test_no_duplicate_selections(self, small_dataset):
        traj = _learner(small_dataset, RandGoodness(), batch_size=4).run()
        sel = traj.selected_indices
        assert np.unique(sel).size == sel.size

    def test_rmse_constant_within_round(self, small_dataset):
        """The models retrain once per round: the recorded RMSE is
        identical across the samples of one batch."""
        traj = _learner(
            small_dataset, MaxSigma(), batch_size=4, max_iterations=8
        ).run()
        rmse = traj.rmse_cost
        assert rmse[0] == rmse[1] == rmse[2] == rmse[3]
        assert rmse[4] == rmse[5] == rmse[6] == rmse[7]

    @pytest.mark.parametrize("policy", [RandGoodness, MaxSigma])
    def test_batch_size_one_reduces_to_sequential_count(self, small_dataset, policy):
        """At B=1 every round is one sample, as in the sequential loop."""
        learner = _learner(small_dataset, policy(), batch_size=1, max_iterations=5)
        learner.start()
        rounds = 0
        while learner.step():
            rounds += 1
            assert len(learner.records) == rounds
        assert rounds == 5


class TestInBatchDiversity:
    def test_independent_maxsigma_takes_top_k(self, small_dataset):
        """Without a conditioner a deterministic policy's round is top-k of
        its acquisition."""
        learner, view = _round_inputs(small_dataset)
        picks = select_round(
            learner.policy, view, learner.rng, num_points=len(view), batch_size=5
        )
        top = np.argsort(-view.sigma_cost, kind="stable")[:5]
        assert [p for p, _ in picks] == top.tolist()
        assert all(f == 0 for _, f in picks)

    def test_independent_round_has_no_duplicates(self, small_dataset):
        """A randomized policy never draws one point twice in a round."""
        learner, view = _round_inputs(small_dataset)
        picks = select_round(
            RandGoodness(), view, learner.rng, num_points=len(view), batch_size=len(view)
        )
        assert len(picks) == len(view)
        assert len({p for p, _ in picks}) == len(view)

    def test_believer_diversifies_maxsigma(self, small_dataset):
        """Each pseudo-observation collapses sigma at its pick and never
        raises it elsewhere, so MaxSigma's picks spread out."""
        learner, view = _round_inputs(small_dataset)
        condition = learner._believer(view)
        pos = int(np.argmax(view.sigma_cost))
        sigma = condition(pos, 0)
        assert sigma[pos] < 0.5 * view.sigma_cost[pos]
        assert np.all(sigma <= view.sigma_cost + 1e-9)
        picks = select_round(
            learner.policy,
            view,
            learner.rng,
            num_points=len(view),
            batch_size=5,
            condition=learner._believer(view),
        )
        assert len({p for p, _ in picks}) == 5

    def test_believer_restores_true_model(self, small_dataset):
        """Pseudo-observations never leak into the post-round model."""
        learner, _ = _round_inputs(small_dataset, batch_size=4)
        assert learner.step()
        X, y = learner._training_set(memory=False)
        np.testing.assert_array_equal(learner.gpr_cost.X_train_, X)
        np.testing.assert_array_equal(learner.gpr_cost.y_train_, y)
        assert X.shape[0] == learner.partition.n_init + 4


class TestBatchRGMA:
    def test_rgma_batch_respects_limit(self, small_dataset):
        lmem = small_dataset.memory_limit()
        traj = _learner(
            small_dataset,
            RGMA(memory_limit_MB=lmem),
            batch_size=4,
            max_iterations=24,
        ).run()
        assert np.sum(traj.mems >= lmem) <= 2

    def test_rgma_batch_early_termination(self, small_dataset):
        tiny = float(small_dataset.mem.min()) * 0.5
        traj = _learner(
            small_dataset,
            RGMA(memory_limit_MB=tiny),
            batch_size=4,
            max_iterations=40,
        ).run()
        assert traj.stop_reason == StopReason.MEMORY_CONSTRAINED


class TestBatchVsSequentialTradeoff:
    def test_fewer_rounds_than_samples(self, small_dataset):
        learner = _learner(
            small_dataset, RandGoodness(), batch_size=8, max_iterations=24
        )
        learner.start()
        rounds = 0
        while learner.step():
            rounds += 1
        assert rounds == 3
        assert len(learner.records) == 24

    def test_batch_model_still_learns(self, small_dataset):
        traj = _learner(
            small_dataset, MaxSigma(), seed=3, batch_size=4, max_iterations=24
        ).run()
        assert traj.final_rmse_cost < traj.initial_rmse_cost * 1.5
