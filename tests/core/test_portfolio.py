"""Batch multi-fidelity rounds of the one AL loop.

Property tests (hypothesis, derandomized) pin the greedy round
(:func:`repro.core.loop.select_round`): every emitted batch is
budget-feasible on predicted cost, never violates the memory mask, and
one pick at one fidelity equals sequential RGMA draw-for-draw.  The
learner-level tests pin the F=1/B=1 reduction of :class:`ActiveLearner`
to sequential RGMA and the multi-fidelity bookkeeping; the single-rung
batch mechanics are in ``test_batch_selection.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActiveLearner,
    ALConfig,
    PortfolioPolicy,
    RandGoodness,
    RGMA,
    StopReason,
    random_partition,
)
from repro.core.loop import select_round
from repro.core.policies import CandidateView
from repro.data import MultiFidelityDataset, default_schedule
from repro.machine.accounting import CampaignLedger

MEM_LIMIT_MB = 100.0  # log10 = 2.0


def _view(rng, F, m, mem_high_frac=0.0):
    """A synthetic fidelity-major view over ``m`` candidates at ``F`` rungs."""
    mu_mem = rng.uniform(0.0, 1.5, size=F * m)
    n_high = int(mem_high_frac * F * m)
    if n_high:
        mu_mem[rng.choice(F * m, size=n_high, replace=False)] = 3.0  # > limit
    return CandidateView(
        X=np.tile(rng.uniform(size=(m, 3)), (F, 1)),
        mu_cost=rng.uniform(-2.0, 1.0, size=F * m),
        sigma_cost=rng.uniform(0.01, 1.0, size=F * m),
        mu_mem=mu_mem,
        sigma_mem=np.full(F * m, 0.1),
    )


class TestBudgetFeasibility:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        F=st.integers(1, 3),
        m=st.integers(1, 20),
        batch=st.integers(1, 8),
        budget=st.floats(0.01, 20.0),
    )
    def test_predicted_batch_cost_never_exceeds_round_budget(
        self, seed, F, m, batch, budget
    ):
        rng = np.random.default_rng(seed)
        view = _view(rng, F, m)
        ledger = CampaignLedger(budget_node_hours=budget)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        picks = select_round(
            policy, view, rng, num_points=m, batch_size=batch, ledger=ledger
        )
        predicted = sum(10.0 ** view.mu_cost[f * m + i] for i, f in picks)
        assert predicted <= budget + 1e-12
        assert ledger.remaining_node_hours >= -1e-12
        # At most one observation per design point per round.
        assert len({i for i, _ in picks}) == len(picks)
        assert len(picks) <= batch

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), F=st.integers(1, 3), m=st.integers(1, 20))
    def test_memory_mask_never_violated(self, seed, F, m):
        rng = np.random.default_rng(seed)
        view = _view(rng, F, m, mem_high_frac=0.5)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        picks = select_round(policy, view, rng, num_points=m, batch_size=F * m)
        for i, f in picks:
            assert view.mu_mem[f * m + i] < policy.log_limit

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), F=st.integers(2, 3), m=st.integers(1, 20))
    def test_blocked_pairs_never_picked(self, seed, F, m):
        rng = np.random.default_rng(seed)
        view = _view(rng, F, m)
        blocked = rng.uniform(size=F * m) < 0.5
        blocked[(F - 1) * m :] = False  # the top rung stays open
        picks = select_round(
            RandGoodness(), view, rng, num_points=m, batch_size=m, blocked=blocked
        )
        assert len(picks) == m
        for i, f in picks:
            assert not blocked[f * m + i]

    def test_infeasible_budget_returns_empty(self, rng):
        view = _view(rng, 2, 6)
        ledger = CampaignLedger(budget_node_hours=1e-9)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        assert select_round(
            policy, view, rng, num_points=6, batch_size=3, ledger=ledger
        ) == []


class TestSequentialReduction:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 30),
        budget=st.sampled_from([None, 1e9]),
    )
    def test_b1_f1_equals_rgma_draw_for_draw(self, seed, m, budget):
        view = _view(np.random.default_rng(seed), 1, m, mem_high_frac=0.3)
        rgma_rng = np.random.default_rng(seed + 1)
        round_rng = np.random.default_rng(seed + 1)
        pos = RGMA(memory_limit_MB=MEM_LIMIT_MB).select(view, rgma_rng)
        picks = select_round(
            PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB),
            view,
            round_rng,
            num_points=m,
            ledger=None if budget is None else CampaignLedger(budget_node_hours=budget),
        )
        assert picks == ([] if pos is None else [(pos, 0)])
        assert rgma_rng.bit_generator.state == round_rng.bit_generator.state


@pytest.fixture(scope="module")
def mf_small(small_dataset):
    return MultiFidelityDataset.from_dataset(
        small_dataset, default_schedule(2), seed=0
    )


class TestMultiFidelityLearner:
    @pytest.mark.parametrize("use_workspace", [True, False])
    def test_f1_b1_reduces_to_sequential_rgma(self, small_dataset, use_workspace):
        part = random_partition(
            np.random.default_rng(11), len(small_dataset), n_init=20, n_test=40
        )
        cfg = ALConfig(max_iterations=10, use_workspace=use_workspace)
        base = ActiveLearner(
            small_dataset,
            part,
            policy=RGMA(memory_limit_MB=small_dataset.memory_limit()),
            rng=np.random.default_rng(21),
            config=cfg,
        )
        tb = base.run()
        mf = ActiveLearner(
            small_dataset,
            part,
            rng=np.random.default_rng(21),
            config=dataclasses.replace(cfg, policy="portfolio"),
        )
        tm = mf.run()
        np.testing.assert_array_equal(tb.selected_indices, tm.selected_indices)
        np.testing.assert_array_equal(tb.rmse_cost, tm.rmse_cost)
        assert tb.stop_reason == tm.stop_reason
        assert all(r.fidelity == 0 for r in tm.records)

    def test_mf_run_mixes_fidelities_and_respects_pairs(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        cfg = ALConfig(
            max_iterations=30,
            num_fidelities=2,
            batch_size=4,
            round_budget_node_hours=0.5,
        )
        learner = ActiveLearner(
            mf_small, part, rng=np.random.default_rng(3), config=cfg
        )
        traj = learner.run()
        assert traj.policy_name == "portfolio"
        fids = [r.fidelity for r in traj.records]
        assert set(fids) <= {0, 1}
        assert 0 in fids  # the coarse rung is actually used
        # No (point, fidelity) pair observed twice.
        pairs = [(r.dataset_index, r.fidelity) for r in traj.records]
        assert len(pairs) == len(set(pairs))
        # Node-hours spent == sum of actual per-pick costs at their rung.
        assert learner.cumulative_cost_spent == pytest.approx(
            sum(r.cost for r in traj.records)
        )
        for r in traj.records:
            assert r.cost == mf_small.cost[r.fidelity, r.dataset_index]

    def test_budget_exhaustion_stop_reason(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        cfg = ALConfig(
            num_fidelities=2, batch_size=2, round_budget_node_hours=1e-9
        )
        learner = ActiveLearner(
            mf_small, part, rng=np.random.default_rng(3), config=cfg
        )
        traj = learner.run()
        assert traj.stop_reason == StopReason.BUDGET_EXHAUSTED
        assert len(traj.records) == 0

    def test_config_normalized_to_dataset_reality(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        learner = ActiveLearner(
            mf_small,
            part,
            rng=np.random.default_rng(3),
            config=ALConfig(max_iterations=2),
        )
        assert learner.config.surrogate == "multifidelity"
        assert learner.config.num_fidelities == 2
        assert learner.config.fidelity_schedule == ((4, 1), (1, 0))

    def test_plain_dataset_priced_for_f2(self, small_dataset, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(small_dataset), n_init=20, n_test=40
        )
        learner = ActiveLearner(
            small_dataset,
            part,
            rng=np.random.default_rng(3),
            config=ALConfig(num_fidelities=2, max_iterations=2),
        )
        np.testing.assert_array_equal(learner.mf.cost, mf_small.cost)
        np.testing.assert_array_equal(learner.mf.mem, mf_small.mem)
        assert learner.config.surrogate == "multifidelity"

    def test_any_policy_drives_portfolio_rounds(self, mf_small):
        """Rounds go through the ordinary ``select``: plain RGMA works."""
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        traj = ActiveLearner(
            mf_small,
            part,
            policy=RGMA(memory_limit_MB=mf_small.memory_limit()),
            rng=np.random.default_rng(3),
            config=ALConfig(num_fidelities=2, batch_size=3, max_iterations=9),
        ).run()
        assert traj.policy_name == "rgma"
        assert len(traj) == 9

    def test_faults_and_zero_refit_need_the_sequential_loop(self):
        from repro.faults.acquisition import AcquisitionFaultModel

        faults = AcquisitionFaultModel(crash_probability=0.5)
        with pytest.raises(ValueError, match="fault"):
            ALConfig(acquisition_faults=faults, batch_size=2)
        with pytest.raises(ValueError, match="zero-refit"):
            ALConfig(policy="amortized", num_fidelities=2)
        ALConfig(acquisition_faults=faults)  # sequential: fine
