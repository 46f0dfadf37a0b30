"""Autoregressive (Kennedy–O'Hagan) co-kriging over the exact-GP fast path.

:class:`MultiFidelityGPRegressor` models F correlated response surfaces —
the same quantity observed at F fidelities (see
:mod:`repro.data.fidelity`) — with the recursive first-order
autoregressive stack of Kennedy & O'Hagan (2000) in Le Gratiet's
decoupled form::

    f_0(x) = delta_0(x)
    f_t(x) = rho_t * f_{t-1}(x) + delta_t(x)        t = 1 .. F-1

Each ``delta_t`` is an independent :class:`~repro.gp.gpr.GPRegressor`
(inheriting the kernel-workspace fit fast path, the O(n^2) incremental
refactor, and the jitter ladder), trained on the level-``t`` rows with
the regressed contribution of the stack below subtracted out.  The
scalar ``rho_t`` is estimated by least squares of the level-``t``
targets on the posterior mean of the stack below, and frozen across
:meth:`refactor` calls (it is a hyperparameter, like the kernel thetas).

Contract highlights (DESIGN.md "Multi-fidelity co-kriging stack"):

- ``num_fidelities=1`` is *pure inheritance*: no method takes a
  different code path, so the single-fidelity collapse is bit-identical
  to :class:`GPRegressor` — rng draws, workspace behaviour, everything.
- For F > 1, ``fit``/``refactor`` take ``X`` with a trailing integer
  fidelity column; ``predict`` takes plain features and returns the
  *top*-fidelity posterior (``predict_fidelity`` exposes the rungs).
- The cross-covariance surface stays cache-compatible: the fitted
  ``kernel_`` is a composite whose two-argument call horizontally stacks
  the per-level cross blocks against the stacked ``cross_points_``
  basis, ``predict_from_cross`` splits those blocks per level, and
  ``diag`` is the 1-D combined prior variance — exactly what
  :class:`~repro.core.loop.CandidateCovarianceCache` maintains.  The
  basis is block-stacked, so acquisitions must not append columns at the
  end of cached rows: ``cross_appends_on_acquire`` is False and every
  fit/refactor bumps ``cross_version_``, forcing a coherent rebuild.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro import obs
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import Kernel
from repro.registry import register_surrogate

__all__ = ["MultiFidelityGPRegressor", "split_fidelity_column"]


def split_fidelity_column(
    X: np.ndarray, num_fidelities: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``(n, d+1)`` rows into features and an integer fidelity column.

    The trailing column must hold integers in ``[0, num_fidelities)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError(
            "multi-fidelity training rows need a trailing fidelity column"
        )
    fid_f = X[:, -1]
    fid = np.rint(fid_f).astype(int)
    if np.any(np.abs(fid_f - fid) > 1e-8):
        raise ValueError("fidelity column must hold integers")
    if np.any((fid < 0) | (fid >= num_fidelities)):
        raise ValueError(
            f"fidelity indices must lie in [0, {num_fidelities}); "
            f"got range [{fid.min()}, {fid.max()}]"
        )
    return np.ascontiguousarray(X[:, :-1]), fid


class _StackKernel:
    """The composite cross-kernel of a fitted co-kriging stack.

    Quacks like a :class:`~repro.gp.kernels.Kernel` exactly as far as
    :class:`~repro.core.loop.CandidateCovarianceCache` needs: ``theta``
    (stale-check identity: per-level thetas plus the rhos), a
    two-argument ``__call__`` producing the horizontally stacked
    per-level cross blocks against the stacked basis, and a 1-D ``diag``
    equal to the combined prior variance at the top fidelity.
    """

    def __init__(
        self,
        kernels: tuple[Kernel, ...],
        rhos: np.ndarray,
        sizes: tuple[int, ...],
    ) -> None:
        self.kernels = kernels
        self.rhos = np.asarray(rhos, dtype=np.float64)
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        #: w_t = prod(rhos[t:]): the top-fidelity weight of level t.
        self.weights = np.array(
            [float(np.prod(self.rhos[t:])) for t in range(len(kernels))]
        )

    @property
    def theta(self) -> np.ndarray:
        parts = [k.theta for k in self.kernels]
        parts.append(self.rhos)
        return np.concatenate(parts) if parts else np.empty(0)

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        if eval_gradient:
            raise NotImplementedError("stack kernel has no gradient surface")
        if Y is None:
            out = self.weights[0] ** 2 * self.kernels[0](X)
            for w, k in zip(self.weights[1:], self.kernels[1:]):
                out = out + w**2 * k(X)
            return out
        Y = np.asarray(Y, dtype=np.float64)
        if Y.shape[0] != self.offsets[-1]:
            raise ValueError(
                f"basis must stack {self.offsets[-1]} level rows, "
                f"got {Y.shape[0]}"
            )
        blocks = [
            k(X, Y[self.offsets[t] : self.offsets[t + 1]])
            for t, k in enumerate(self.kernels)
        ]
        return np.hstack(blocks)

    def diag(self, X) -> np.ndarray:
        out = self.weights[0] ** 2 * self.kernels[0].diag(X)
        for w, k in zip(self.weights[1:], self.kernels[1:]):
            out = out + w**2 * k.diag(X)
        return out


@register_surrogate("multifidelity")
class MultiFidelityGPRegressor(GPRegressor):
    """Recursive co-kriging stack of ``num_fidelities`` exact GPs.

    Parameters are :class:`GPRegressor`'s plus:

    num_fidelities : int
        Number of rungs.  ``1`` (the default) makes the class a plain
        :class:`GPRegressor` — pure inheritance, no new code paths.
    rho_ridge : float
        Tikhonov term in the least-squares estimate of each ``rho_t``;
        guards the degenerate all-zero-mean case.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        num_fidelities: int = 1,
        rho_ridge: float = 1e-9,
        **kwargs,
    ) -> None:
        super().__init__(kernel=kernel, **kwargs)
        if int(num_fidelities) < 1:
            raise ValueError("num_fidelities must be >= 1")
        self.num_fidelities = int(num_fidelities)
        self.rho_ridge = float(rho_ridge)
        self._levels: list[GPRegressor] = []
        self._rhos = np.ones(max(self.num_fidelities - 1, 0))
        self.cross_version_ = 0
        self.cross_points_: np.ndarray | None = None
        # Block-stacked basis: end-appends would corrupt cached rows, so
        # the candidate cache must rebuild (cross_version_ bump) instead.
        self.cross_appends_on_acquire = self.num_fidelities == 1

    # ------------------------------------------------------------- fitting

    def _ensure_levels(self) -> list[GPRegressor]:
        if not self._levels:
            self._levels = [
                GPRegressor(
                    kernel=self.kernel.with_theta(self.kernel.theta),
                    normalize_y=self.normalize_y,
                    n_restarts=self.n_restarts,
                    restart_every_fit=self.restart_every_fit,
                    rng=self.rng,
                    incremental=self.incremental,
                    use_workspace=self.use_workspace,
                    max_memory_MB=self.max_memory_MB,
                )
                for _ in range(self.num_fidelities)
            ]
        return self._levels

    def _stack_mean(self, X: np.ndarray, upto: int) -> np.ndarray:
        """Posterior mean of the sub-stack ``0 .. upto`` at ``X``."""
        mean = self._levels[0].predict(X)
        for s in range(1, upto + 1):
            mean = self._rhos[s - 1] * mean + self._levels[s].predict(X)
        return mean

    def _fit_stack(
        self, X: np.ndarray, y: np.ndarray, fid: np.ndarray, optimize: bool
    ) -> None:
        levels = self._ensure_levels()
        for t in range(self.num_fidelities):
            rows = np.flatnonzero(fid == t)
            if rows.size == 0:
                raise ValueError(f"fidelity level {t} has no training rows")
            Xt = np.ascontiguousarray(X[rows])
            yt = y[rows]
            if t == 0:
                target = yt
            else:
                f_prev = self._stack_mean(Xt, upto=t - 1)
                if optimize:
                    denom = float(f_prev @ f_prev) + self.rho_ridge
                    self._rhos[t - 1] = float(f_prev @ yt) / denom
                target = yt - self._rhos[t - 1] * f_prev
            model = levels[t]
            if optimize or not model.is_fitted:
                model.fit(Xt, target)
            else:
                model.refactor(Xt, target)
        self.X_train_ = np.column_stack([X, fid.astype(np.float64)])
        self.y_train_ = y
        sizes = tuple(m.X_train_.shape[0] for m in levels)
        self.cross_points_ = np.vstack([m.X_train_ for m in levels])
        self.kernel_ = _StackKernel(
            tuple(m.kernel_ for m in levels), self._rhos.copy(), sizes
        )
        self.cross_version_ += 1
        self.last_factor_mode_ = "fit" if optimize else "full"

    def fit(self, X, y) -> "MultiFidelityGPRegressor":
        if self.num_fidelities == 1:
            return super().fit(X, y)
        X, fid = split_fidelity_column(X, self.num_fidelities)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d+1) aligned with y (n,)")
        with obs.timed("fit", cat="gp", n=len(X)):
            self._fit_stack(X, y, fid, optimize=True)
        return self

    def refactor(self, X, y) -> "MultiFidelityGPRegressor":
        if self.num_fidelities == 1:
            return super().refactor(X, y)
        if not self.is_fitted:
            raise RuntimeError("refactor() requires a prior fit()")
        X, fid = split_fidelity_column(X, self.num_fidelities)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d+1) aligned with y (n,)")
        with obs.timed("refactor", cat="gp", n=len(X)):
            self._fit_stack(X, y, fid, optimize=False)
        return self

    # ---------------------------------------------------------- prediction

    def fidelity_weights(self, level: int) -> np.ndarray:
        """``w_t = prod(rho_{t+1} .. rho_level)`` for ``t = 0 .. level``."""
        w = np.ones(level + 1)
        for t in range(level):
            w[t] = float(np.prod(self._rhos[t:level]))
        return w

    def predict_fidelity(self, X, level: int, return_std: bool = False):
        """Posterior of the stack truncated at ``level`` (0-based)."""
        if self.num_fidelities == 1:
            if level != 0:
                raise ValueError("single-fidelity model has only level 0")
            return super().predict(X, return_std)
        if not (0 <= level < self.num_fidelities):
            raise ValueError(f"level must be in [0, {self.num_fidelities})")
        if not self.is_fitted:
            raise RuntimeError("predict_fidelity() requires a fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        with obs.timed("predict", cat="gp"):
            mean, std = self._levels[0].predict(X, return_std=True)
            var = std**2
            for s in range(1, level + 1):
                mean_s, std_s = self._levels[s].predict(X, return_std=True)
                rho = self._rhos[s - 1]
                mean = rho * mean + mean_s
                var = rho * rho * var + std_s**2
        if not return_std:
            return mean
        return mean, np.sqrt(np.maximum(var, 0.0))

    def predict(self, X, return_std: bool = False):
        if self.num_fidelities == 1:
            return super().predict(X, return_std)
        if not self.is_fitted:
            return super().predict(np.asarray(X, dtype=np.float64), return_std)
        return self.predict_fidelity(X, self.num_fidelities - 1, return_std)

    def predict_from_cross(
        self, Ks: np.ndarray, prior_diag: np.ndarray, return_std: bool = False
    ):
        if self.num_fidelities == 1:
            return super().predict_from_cross(Ks, prior_diag, return_std)
        if not self.is_fitted:
            raise RuntimeError("predict_from_cross() requires a factorized model")
        kernel = self.kernel_
        assert isinstance(kernel, _StackKernel)
        Ks = np.asarray(Ks, dtype=np.float64)
        if Ks.ndim != 2 or Ks.shape[1] != kernel.offsets[-1]:
            raise ValueError(
                f"Ks must be (m, {kernel.offsets[-1]}) against the stacked basis"
            )
        with obs.timed("predict", cat="gp"):
            mean = np.zeros(Ks.shape[0])
            reduction = np.zeros(Ks.shape[0])
            for t, model in enumerate(self._levels):
                w = kernel.weights[t]
                B = Ks[:, kernel.offsets[t] : kernel.offsets[t + 1]]
                mean += w * (B @ model._alpha + model._y_mean)
                if return_std:
                    V = solve_triangular(
                        model._L, B.T, lower=True, check_finite=False
                    )
                    reduction += w * w * np.einsum("ij,ij->j", V, V)
            if not return_std:
                return mean
            var = np.asarray(prior_diag, dtype=np.float64) - reduction
            return mean, np.sqrt(np.maximum(var, 0.0))

    # ------------------------------------------------------------- protocol

    @property
    def is_fitted(self) -> bool:
        if self.num_fidelities == 1:
            return super().is_fitted
        return bool(self._levels) and all(m.is_fitted for m in self._levels)

    @property
    def rhos_(self) -> np.ndarray:
        """The fitted level-to-level regression scalars (read-only view)."""
        return self._rhos.copy()

    def workspace_counters(self) -> dict[str, int]:
        if self.num_fidelities == 1 or not self._levels:
            return super().workspace_counters()
        totals = {"ws_hit": 0, "ws_extend": 0, "ws_rebuild": 0}
        for model in self._levels:
            for key, value in model.workspace_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def log_marginal_likelihood(self, theta, eval_gradient: bool = False):
        if self.num_fidelities == 1:
            return super().log_marginal_likelihood(theta, eval_gradient)
        raise NotImplementedError(
            "the stack has no joint LML; fit() optimizes each level"
        )

    def sample_y(self, X, rng, n_samples: int = 1):
        if self.num_fidelities == 1:
            return super().sample_y(X, rng, n_samples)
        raise NotImplementedError("posterior sampling is single-fidelity only")
