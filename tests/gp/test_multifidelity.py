"""MultiFidelityGPRegressor: the Kennedy–O'Hagan co-kriging stack.

Pins the DESIGN.md invariants of the multi-fidelity surrogate: the F=1
configuration *is* a GPRegressor (bit-identical predictions, workspace
on or off), the F>1 stack keeps the ``predict_from_cross`` contract the
candidate cache relies on, and fidelity information actually transfers
(a co-kriging fit beats a high-fidelity-only GP given the same few
high-fidelity samples).
"""

import pickle

import numpy as np
import pytest

from repro.gp import GPRegressor, MultiFidelityGPRegressor, split_fidelity_column
from repro.gp.surrogate import cross_appends, cross_points, cross_version


def _mf_data(rng, n_lo=60, n_hi=12, d=2):
    """Correlated low/high surfaces: f_hi = 1.6 * f_lo + shift."""
    X_lo = rng.uniform(0.0, 1.0, size=(n_lo, d))
    X_hi = X_lo[:n_hi]
    f_lo = np.sin(3.0 * X_lo.sum(axis=1))
    y_lo = f_lo + 0.02 * rng.standard_normal(n_lo)
    y_hi = 1.6 * np.sin(3.0 * X_hi.sum(axis=1)) + 0.4 + 0.02 * rng.standard_normal(n_hi)
    X = np.vstack(
        [
            np.column_stack([X_lo, np.zeros(n_lo)]),
            np.column_stack([X_hi, np.ones(n_hi)]),
        ]
    )
    y = np.concatenate([y_lo, y_hi])
    return X, y, X_lo, y_lo, X_hi, y_hi


class TestSplitFidelityColumn:
    def test_round_trip(self, rng):
        X = np.column_stack([rng.uniform(size=(9, 3)), np.repeat([0, 1, 2], 3)])
        feats, fid = split_fidelity_column(X, 3)
        assert feats.shape == (9, 3)
        np.testing.assert_array_equal(fid, np.repeat([0, 1, 2], 3))

    def test_rejects_fractional_and_out_of_range(self, rng):
        X = np.column_stack([rng.uniform(size=(4, 2)), [0.0, 0.5, 1.0, 0.0]])
        with pytest.raises(ValueError):
            split_fidelity_column(X, 2)
        X2 = np.column_stack([rng.uniform(size=(4, 2)), [0.0, 3.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            split_fidelity_column(X2, 2)


class TestSingleFidelityCollapse:
    """F=1 must be GPRegressor to the bit — the tested reduction."""

    @pytest.mark.parametrize("use_workspace", [True, False])
    def test_bit_identical_predictions(self, use_workspace):
        rng_data = np.random.default_rng(5)
        X = rng_data.uniform(size=(40, 3))
        y = np.sin(X.sum(axis=1)) + 0.05 * rng_data.standard_normal(40)
        Xq = rng_data.uniform(size=(9, 3))
        base = GPRegressor(
            n_restarts=2,
            rng=np.random.default_rng(77),
            use_workspace=use_workspace,
        ).fit(X, y)
        mf = MultiFidelityGPRegressor(
            num_fidelities=1,
            n_restarts=2,
            rng=np.random.default_rng(77),
            use_workspace=use_workspace,
        ).fit(X, y)
        mu_b, sd_b = base.predict(Xq, return_std=True)
        mu_m, sd_m = mf.predict(Xq, return_std=True)
        assert np.array_equal(mu_b, mu_m)
        assert np.array_equal(sd_b, sd_m)

    def test_cross_probes_match_base_gp(self, rng):
        X = rng.uniform(size=(30, 2))
        y = X.sum(axis=1)
        mf = MultiFidelityGPRegressor(num_fidelities=1, n_restarts=0).fit(X, y)
        assert cross_appends(mf) is True
        assert cross_version(mf) == 0
        np.testing.assert_array_equal(cross_points(mf), mf.X_train_)


class TestCoKrigingStack:
    def test_fidelity_transfer_beats_hifi_only(self, rng):
        X, y, X_lo, y_lo, X_hi, y_hi = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=1, rng=np.random.default_rng(1)
        ).fit(X, y)
        hi_only = GPRegressor(n_restarts=1, rng=np.random.default_rng(1)).fit(
            X_hi, y_hi
        )
        Xq = rng.uniform(0.0, 1.0, size=(200, 2))
        truth = 1.6 * np.sin(3.0 * Xq.sum(axis=1)) + 0.4
        err_mf = np.sqrt(np.mean((mf.predict(Xq) - truth) ** 2))
        err_hi = np.sqrt(np.mean((hi_only.predict(Xq) - truth) ** 2))
        assert err_mf < 0.5 * err_hi
        # The estimated scale factor tracks the generative rho = 1.6.
        assert 1.0 < mf.rhos_[0] < 2.5

    def test_predict_from_cross_matches_predict(self, rng):
        X, y, *_ = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=0, rng=np.random.default_rng(1)
        ).fit(X, y)
        Xq = rng.uniform(0.0, 1.0, size=(7, 2))
        basis = cross_points(mf)
        Ks = mf.kernel_(Xq, basis)
        prior = mf.kernel_.diag(Xq)
        mu, sd = mf.predict_from_cross(Ks, prior, return_std=True)
        mu_ref, sd_ref = mf.predict(Xq, return_std=True)
        np.testing.assert_allclose(mu, mu_ref, atol=1e-10)
        np.testing.assert_allclose(sd, sd_ref, atol=1e-8)

    def test_refit_bumps_cross_version(self, rng):
        X, y, *_ = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=0, rng=np.random.default_rng(1)
        ).fit(X, y)
        assert cross_appends(mf) is False
        v0 = cross_version(mf)
        # Append one low-fidelity row and refactor: the stacked basis is
        # rebuilt block-wise, so cached cross rows must be invalidated.
        X2 = np.vstack([X, [[0.5, 0.5, 0.0]]])
        y2 = np.concatenate([y, [0.0]])
        mf.refactor(X2, y2)
        assert cross_version(mf) > v0

    def test_predict_fidelity_levels_differ(self, rng):
        X, y, *_ = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=0, rng=np.random.default_rng(1)
        ).fit(X, y)
        Xq = rng.uniform(0.0, 1.0, size=(11, 2))
        lo, lo_sd = mf.predict_fidelity(Xq, 0, return_std=True)
        hi, hi_sd = mf.predict_fidelity(Xq, 1, return_std=True)
        assert lo.shape == hi.shape == (11,)
        assert np.all(lo_sd >= 0) and np.all(hi_sd >= 0)
        assert not np.allclose(lo, hi)
        np.testing.assert_array_equal(hi, mf.predict(Xq))

    def test_fit_requires_rows_at_every_level(self, rng):
        X_lo = rng.uniform(size=(10, 2))
        X = np.column_stack([X_lo, np.zeros(10)])  # no top-fidelity rows
        with pytest.raises(ValueError, match="fidelity"):
            MultiFidelityGPRegressor(num_fidelities=2, n_restarts=0).fit(
                X, X_lo.sum(axis=1)
            )

    def test_pickle_round_trip(self, rng):
        X, y, *_ = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=0, rng=np.random.default_rng(1)
        ).fit(X, y)
        Xq = rng.uniform(0.0, 1.0, size=(5, 2))
        clone = pickle.loads(pickle.dumps(mf))
        np.testing.assert_array_equal(clone.predict(Xq), mf.predict(Xq))

    def test_unsupported_surfaces_raise_at_f2(self, rng):
        X, y, *_ = _mf_data(rng)
        mf = MultiFidelityGPRegressor(
            num_fidelities=2, n_restarts=0, rng=np.random.default_rng(1)
        ).fit(X, y)
        with pytest.raises(NotImplementedError):
            mf.sample_y(X[:2], np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            mf.log_marginal_likelihood(mf.kernel_.theta)
