"""Algorithm 1: the Active Learning procedure.

The learner owns two GPR models — cost and memory — pre-fit on the Initial
partition.  Each iteration it predicts over the remaining Active samples,
asks the selection policy for a candidate, "runs the experiment" by looking
the sample up in the offline dataset, moves it into the learned set, and
retrains both models warm-started from the previous hyperparameters.
Test-set RMSE, cumulative cost, and cumulative regret are recorded after
every iteration.

The same loop runs batch multi-fidelity rounds (the paper's Sec. VI batch
scheme; Li et al., "Batch Multi-Fidelity Active Learning with Budget
Constraints", PAPERS.md): the candidate view carries one row per
(fidelity, point) pair, :func:`select_round` greedily picks up to
``batch_size`` pairs through the policy's ordinary ``select`` under an
optional per-round node-hour budget, every pick is observed, the models
are refit once, and each pick gets its own record.  One fidelity, one
pick and no round budget is the paper's loop exactly.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

import numpy as np

from repro import obs
from repro.core.config import ALConfig
from repro.core.metrics import individual_regret, rmse_nonlog
from repro.core.partitions import Partition
from repro.core.policies import CandidateView, SelectionPolicy
from repro.core.preprocessing import DesignTransform
from repro.core.stopping import NoEarlyStopping, StoppingRule
from repro.core.trajectory import IterationRecord, StopReason, Trajectory
from repro.data.dataset import Dataset
from repro.data.fidelity import MultiFidelityDataset
from repro.faults.acquisition import (
    AcquisitionFaultModel,
    AcquisitionOutcome,
    FailurePolicy,
)
from repro.faults.model import FaultEvent, FaultKind
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import Kernel, default_kernel
from repro.gp.surrogate import (
    build_surrogate,
    cross_appends,
    cross_points,
    cross_version,
    supports_cross,
)
from repro.machine.accounting import CampaignLedger

#: Sentinel distinguishing "legacy kwarg not passed" from any real value,
#: so explicitly passed legacy kwargs override an ``ALConfig`` while
#: omitted ones defer to it.
_UNSET = object()


class CandidateCovarianceCache:
    """Incrementally maintained cross-covariance for one surrogate model.

    Re-scoring the Active pool each iteration rebuilds the
    ``(candidates x basis)`` kernel matrix from scratch even though only
    one candidate left the pool — and, for training-set bases, one column
    (the newly learned point) joined the basis.  This cache keeps ``Ks``
    and the prior diagonal across iterations: an acquisition deletes the
    selected candidate's row and appends a single freshly evaluated
    column when the model's basis grows on acquisition
    (:func:`repro.gp.surrogate.cross_appends`); models with a frozen
    basis (the sparse GP's inducing set) keep their rows valid with no
    column work at all.

    Exactness invariants:

    - The cache is keyed on the kernel's ``theta`` *and* the model's
      basis epoch (:func:`repro.gp.surrogate.cross_version`); a
      hyperparameter refit or a basis move (inducing re-cluster) makes
      the next :meth:`predict` silently rebuild.
    - ``Ks`` depends only on the kernel and the point sets — *not* on the
      factorization — so a jitter-ladder or full-refactor fallback in
      the model never stales the cache.
    - Models without a ``predict_from_cross`` surface (e.g.
      :class:`repro.gp.local.LocalGPRegressor`) bypass the cache entirely.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._Ks: np.ndarray | None = None
        self._diag: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self._version = 0

    def invalidate(self) -> None:
        self._Ks = None
        self._diag = None
        self._theta = None

    @property
    def _cacheable(self) -> bool:
        return supports_cross(self.model) and getattr(self.model, "is_fitted", False)

    def _fresh(self) -> bool:
        kernel = getattr(self.model, "kernel_", None)
        basis = cross_points(self.model)
        return (
            self._Ks is not None
            and kernel is not None
            and basis is not None
            and self._theta is not None
            and self._Ks.shape[1] == basis.shape[0]
            and self._version == cross_version(self.model)
            and np.array_equal(kernel.theta, self._theta)
        )

    def predict(self, U_cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate mean/std, rebuilding the cached ``Ks`` only when stale."""
        if not self._cacheable:
            return self.model.predict(U_cand, return_std=True)
        if not self._fresh():
            kernel = self.model.kernel_
            self._Ks = kernel(U_cand, cross_points(self.model))
            self._diag = kernel.diag(U_cand)
            self._theta = kernel.theta.copy()
            self._version = cross_version(self.model)
        return self.model.predict_from_cross(self._Ks, self._diag, return_std=True)

    def acquire(self, pos: int, U_remaining: np.ndarray, u_new: np.ndarray) -> None:
        """Candidate ``pos`` was selected: drop its row, append its column.

        ``U_remaining`` are the features of the pool *after* removal and
        ``u_new`` the selected point now joining the training set.  Must
        run before any hyperparameter refit so the single-column kernel
        evaluation uses the same ``theta`` the cache was built under.
        Models whose cross basis does not absorb acquisitions (frozen
        inducing sets) only lose the selected row — their remaining rows
        are still exact.
        """
        if self._Ks is None or not self._fresh():
            self.invalidate()
            return
        self._Ks = np.delete(self._Ks, pos, axis=0)
        self._diag = np.delete(self._diag, pos)
        if not cross_appends(self.model):
            return
        if U_remaining.shape[0] != self._Ks.shape[0]:
            self.invalidate()
            return
        col = self.model.kernel_(U_remaining, u_new[None, :])
        self._Ks = np.hstack([self._Ks, col])

    def drop(self, pos: int) -> None:
        """Candidate ``pos`` left the pool *without* joining the training set.

        The failure-handling path: a crashed or censored acquisition is
        removed from the pool but its column never appears in the kernel
        matrix, so only the row is deleted.  ``Ks`` stays keyed to the
        unchanged training set and the fast path is preserved.
        """
        if self._Ks is None or not self._fresh():
            self.invalidate()
            return
        self._Ks = np.delete(self._Ks, pos, axis=0)
        self._diag = np.delete(self._diag, pos)


def select_round(
    policy: SelectionPolicy,
    view: CandidateView,
    rng: np.random.Generator,
    num_points: int,
    batch_size: int = 1,
    blocked: np.ndarray | None = None,
    ledger: CampaignLedger | None = None,
    condition=None,
) -> list[tuple[int, int]]:
    """Greedily pick up to ``batch_size`` ``(position, fidelity)`` pairs.

    ``view`` is fidelity-major: row ``f * num_points + pos`` scores pool
    position ``pos`` at fidelity ``f``.  Each pick is one ordinary
    ``policy.select`` call on the view restricted to the open pairs: not
    ``blocked``, point not already picked this round, and — with a round
    ``ledger`` — predicted cost ``10**mu_cost`` within the ledger's
    remaining node-hours.  Picks are charged to the ledger at their
    predicted cost, so a round's predicted total never exceeds its
    budget.  After each pick but the last, ``condition(pos, fid)`` (if
    given) returns the view's new ``sigma_cost``.

    With one fidelity, one pick and no ledger this is exactly one
    ``policy.select(view, rng)`` call.
    """
    open_rows = np.ones(len(view), dtype=bool) if blocked is None else ~blocked
    picks: list[tuple[int, int]] = []
    for b in range(batch_size):
        feasible = open_rows
        if ledger is not None:
            feasible = feasible & (
                np.power(10.0, view.mu_cost) <= ledger.remaining_node_hours
            )
        rows = np.flatnonzero(feasible)
        if rows.size == 0:
            break
        sub = view if rows.size == len(view) else CandidateView(
            X=view.X[rows],
            mu_cost=view.mu_cost[rows],
            sigma_cost=view.sigma_cost[rows],
            mu_mem=view.mu_mem[rows],
            sigma_mem=view.sigma_mem[rows],
        )
        k = policy.select(sub, rng)
        if k is None:
            break
        j = int(rows[k])
        fid, pos = divmod(j, num_points)
        picks.append((pos, fid))
        # One observation per design point per round.
        open_rows[pos::num_points] = False
        if ledger is not None:
            ledger.charge(float(10.0 ** view.mu_cost[j]))
        if condition is not None and b + 1 < batch_size:
            view = _dc_replace(view, sigma_cost=condition(pos, fid))
    return picks


class ActiveLearner:
    """Runs Algorithm 1 on an offline dataset.

    Parameters
    ----------
    dataset : Dataset or MultiFidelityDataset
        Precomputed job table (features + cost/memory responses).  With
        ``config.num_fidelities > 1`` a plain :class:`Dataset` is priced
        at every rung by :meth:`MultiFidelityDataset.from_dataset` (from
        ``config.resolved_schedule()`` and ``config.fidelity_seed``); a
        priced :class:`MultiFidelityDataset` is used as given, and the
        config is normalized to its fidelity axis and to the
        ``"multifidelity"`` co-kriging surrogate.
    partition : Partition
        Initial / Active / Test split.
    policy : SelectionPolicy, optional
        One of the Sec. IV-B algorithms (:mod:`repro.core.policies`) or
        any other implementation of the protocol — e.g. the zero-refit
        :class:`repro.policy.AmortizedPolicy`.  ``None`` instantiates the
        policy declared by ``config.policy`` / ``config.policy_options``
        (:func:`repro.policy.make_policy`); a policy with
        ``requires_surrogate = False`` switches the loop into zero-refit
        mode (no GP fit/refactor/RMSE anywhere).
    rng : numpy.random.Generator
        Drives randomized policies and GPR restarts (required).
    kernel : Kernel, optional
        Prior covariance for *both* models; defaults to the paper's
        amplitude * RBF + noise.
    n_restarts : int
        LML restarts on the initial fit (later fits warm-start).
    hyper_refit_interval : int
        Re-optimize hyperparameters every this many rounds (iterations at
        B=1); in between, the models are refactored on the enlarged
        training set with frozen hyperparameters.  1 (default) is the
        paper-faithful behaviour.
    stopping_rule : StoppingRule, optional
        Extra early-termination heuristic (Sec. V-D); default never fires.
    max_iterations : int, optional
        Hard cap on AL iterations (e.g. 150 for the Fig. 2 analysis).
    log2_features : iterable of int, optional
        Feature columns to model through their log2 exponent (Sec. V-D:
        powers-of-two features like the node count ``p``).
    weight_rmse_by_cost : bool
        Also record the cost-weighted test RMSE of Eq. (12) each iteration
        (``rho = diag(test costs)``), the scale-dependent metric Sec. V-D
        argues suits cost-efficient AL.
    model_factory : callable, optional
        Zero-argument factory producing the surrogate model for *each* of
        the cost and memory responses.  Anything with the
        ``fit`` / ``refactor`` / ``predict(return_std=True)`` surface of
        :class:`~repro.gp.gpr.GPRegressor` works — e.g.
        :class:`repro.gp.local.LocalGPRegressor` (the paper's "multiple
        local performance models" future work).  Overrides ``kernel`` and
        ``n_restarts``.
    cache_candidates : bool
        Maintain the candidate cross-covariance matrices across iterations
        (:class:`CandidateCovarianceCache`) instead of rebuilding them for
        every :meth:`_candidate_view`.  Exact; disable only to benchmark
        or to cross-check against the straight-line path.
    acquisition_faults : AcquisitionFaultModel, optional
        Failure model for the "run the experiment" step.  ``None`` (or a
        disabled model) takes the paper-faithful path, bit-identical to a
        fault-free build; an enabled model makes each acquisition crash or
        lose its MaxRSS with the configured probabilities, and the loop
        responds per ``on_failure``.  Spent node-hours are charged either
        way — a crashed experiment still burned its allocation.
    on_failure : FailurePolicy or str
        Response to a failed/censored acquisition:

        - ``"drop"`` — discard the sample; the iteration is consumed and
          the models are left untouched.
        - ``"next_best"`` (default) — discard the sample and immediately
          re-ask the policy for a replacement within the same iteration.
        - ``"impute"`` — train on the GP posterior mean at the point
          instead of the lost observation (censored acquisitions impute
          only the memory response; the observed cost is kept).
    use_workspace : bool
        Forwarded to both default :class:`GPRegressor` models: evaluate
        hyperparameter refits through the cached kernel workspace
        (:class:`repro.gp.kernels.KernelWorkspace`) extended across
        acquisitions.  Ignored when ``model_factory`` is given.  Disable
        to force the direct reference LML path (parity tests).
    config : ALConfig, optional
        All of the above knobs as one validated value
        (:class:`repro.core.config.ALConfig`).  Legacy keywords passed
        explicitly override the corresponding config fields; the resolved
        configuration is available as ``self.config`` and embedded in the
        returned :class:`~repro.core.trajectory.Trajectory`.  Its
        ``batch_size``, ``num_fidelities`` and ``round_budget_node_hours``
        shape each round (see :meth:`step`); ``hyper_refit_interval``
        and ``max_iterations`` count rounds and selected samples
        respectively.
    """

    def __init__(
        self,
        dataset: Dataset | MultiFidelityDataset,
        partition: Partition,
        policy: SelectionPolicy | None = None,
        rng: np.random.Generator | None = None,
        kernel: Kernel | None = _UNSET,
        n_restarts: int = _UNSET,
        hyper_refit_interval: int = _UNSET,
        stopping_rule: StoppingRule | None = _UNSET,
        max_iterations: int | None = _UNSET,
        log2_features=_UNSET,
        weight_rmse_by_cost: bool = _UNSET,
        model_factory=_UNSET,
        cache_candidates: bool = _UNSET,
        acquisition_faults: AcquisitionFaultModel | None = _UNSET,
        on_failure: FailurePolicy | str = _UNSET,
        use_workspace: bool = _UNSET,
        surrogate: str = _UNSET,
        surrogate_options=_UNSET,
        config: ALConfig | None = None,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("kernel", kernel),
                ("n_restarts", n_restarts),
                ("hyper_refit_interval", hyper_refit_interval),
                ("stopping_rule", stopping_rule),
                ("max_iterations", max_iterations),
                ("log2_features", log2_features),
                ("weight_rmse_by_cost", weight_rmse_by_cost),
                ("model_factory", model_factory),
                ("cache_candidates", cache_candidates),
                ("acquisition_faults", acquisition_faults),
                ("on_failure", on_failure),
                ("use_workspace", use_workspace),
                ("surrogate", surrogate),
                ("surrogate_options", surrogate_options),
            )
            if value is not _UNSET
        }
        base = config if config is not None else ALConfig()
        # replace() re-runs ALConfig.__post_init__, so overrides are
        # validated and normalized exactly like direct construction.
        cfg = _dc_replace(base, **overrides) if overrides else base
        mf = dataset if isinstance(dataset, MultiFidelityDataset) else None
        if mf is None and cfg.num_fidelities > 1:
            mf = MultiFidelityDataset.from_dataset(
                dataset, cfg.resolved_schedule(), seed=cfg.fidelity_seed
            )
        if mf is not None:
            dataset = mf.base
            if mf.num_fidelities == 1:
                mf = None
            else:
                # describe()/fingerprint() must name the run's real
                # identity: the co-kriging backend and the fidelity axis
                # actually in effect.
                opts = dict(cfg.surrogate_options)
                opts["num_fidelities"] = mf.num_fidelities
                cfg = _dc_replace(
                    cfg,
                    surrogate="multifidelity",
                    surrogate_options=opts,
                    num_fidelities=mf.num_fidelities,
                    fidelity_schedule=tuple(
                        tuple(level.describe()) for level in mf.schedule.levels
                    ),
                )
        self.config = cfg

        if rng is None:
            raise ValueError("rng is required")
        if policy is None:
            # Instantiate from the config's declarative policy selection
            # (lazy import: repro.policy depends on this module).
            from repro.policy import make_policy

            policy = make_policy(cfg, dataset)
        # Policies that never consult a surrogate (the amortized server)
        # switch the loop into zero-refit mode: no GP fit, refactor, or
        # RMSE evaluation anywhere on the serving path.
        self._zero_refit = not getattr(policy, "requires_surrogate", True)
        if self._zero_refit:
            cfg.check_sequential(f"zero-refit policies ({policy.name!r})")
            if cfg.on_failure is FailurePolicy.IMPUTE:
                raise ValueError(
                    "on_failure='impute' needs surrogate predictions; "
                    f"policy {policy.name!r} is zero-refit"
                )
            if cfg.stopping_rule is not None:
                raise ValueError(
                    "stopping rules consume surrogate predictions; "
                    f"policy {policy.name!r} is zero-refit"
                )
        # Policies may expose incremental-state hooks (prepare /
        # observe_acquire / observe_drop); the loop feeds them so the
        # policy's own caches track the pool exactly like the
        # cross-covariance caches do.
        self._policy_hooks = hasattr(policy, "observe_acquire")

        self.dataset = dataset
        self.partition = partition
        self.policy = policy
        self.rng = rng
        self.hyper_refit_interval = cfg.hyper_refit_interval
        self.stopping_rule = (
            cfg.stopping_rule if cfg.stopping_rule is not None else NoEarlyStopping()
        )
        self.max_iterations = cfg.max_iterations
        self.weight_rmse_by_cost = cfg.weight_rmse_by_cost
        self.batch_size = cfg.batch_size
        self.round_budget = cfg.round_budget_node_hours

        self.scaler = DesignTransform(dataset.bounds, log2_columns=cfg.log2_features)
        self._U = self.scaler.transform(dataset.X)  # all features, unit cube
        self._log_cost = dataset.log_cost()
        self._log_mem = dataset.log_mem()
        #: The priced fidelity surfaces (``None`` at one fidelity) and the
        #: pairs acquired below the top rung, per rung; top-fidelity
        #: acquisitions leave the pool and use the lists further down.
        self.mf = mf
        self._F = 1 if mf is None else mf.num_fidelities
        self._lofi_learned: list[list[int]] = [[] for _ in range(self._F - 1)]

        if cfg.model_factory is not None:
            self.gpr_cost = cfg.model_factory()
            self.gpr_mem = cfg.model_factory()
        else:
            base_kernel = cfg.kernel if cfg.kernel is not None else default_kernel()
            opts = dict(cfg.surrogate_options)
            # The two models get structurally independent kernel copies
            # (with_theta) so their workspaces/fits never alias.  The
            # backend name resolves through the surrogate registry
            # (repro.registry) — any registered model plugs in here.
            kernels = (base_kernel, base_kernel.with_theta(base_kernel.theta))
            self.gpr_cost, self.gpr_mem = (
                build_surrogate(
                    cfg.surrogate,
                    kernel=k,
                    rng=rng,
                    n_restarts=cfg.n_restarts,
                    use_workspace=cfg.use_workspace,
                    options=opts,
                )
                for k in kernels
            )

        self.acquisition_faults = cfg.acquisition_faults
        self.on_failure = cfg.on_failure

        # Mutable AL state.  The cost and memory models keep separate
        # learned lists because a censored acquisition (MaxRSS lost) feeds
        # only the cost model; targets ride along so the impute policy can
        # substitute posterior means for lost observations.
        self._remaining = list(partition.active_idx)
        self._learned: list[int] = []
        self._targets_cost: list[float] = []
        self._learned_mem: list[int] = []
        self._targets_mem: list[float] = []
        self.cache_candidates = cfg.cache_candidates
        self._cache_cost = CandidateCovarianceCache(self.gpr_cost)
        self._cache_mem = CandidateCovarianceCache(self.gpr_mem)

        # Stepwise-execution state (see start/step/finalize).  Lives on the
        # instance — not in run()-local variables — so a learner pickled
        # between steps checkpoints its complete mid-run state and resumes
        # bit-identically (the campaign service's resume contract).
        self._started = False
        self._stop: StopReason | None = None
        self._records: list[IterationRecord] = []
        self._fault_events: list[FaultEvent] = []
        self._cum_cost = 0.0
        self._cum_regret = 0.0
        self._iteration = 0
        self._round = 0
        self._initial_rmse = (float("nan"), float("nan"))
        self._prev_rmse = (float("nan"), float("nan"), float("nan"))
        self._memory_limit: float | None = None

    # ---------------------------------------------------------------- helpers

    def _train_indices(self) -> np.ndarray:
        return np.concatenate(
            [self.partition.init_idx, np.asarray(self._learned, dtype=np.int64)]
        )

    def _training_set(self, memory: bool, extra=()) -> tuple[np.ndarray, np.ndarray]:
        """Training rows of the cost (or ``memory``) model.

        The Initial samples plus the learned ones.  At F > 1 every rung
        contributes its own rows — the Initial samples plus the pairs
        acquired at that rung — tagged with a trailing fidelity column
        for the co-kriging stack.  ``extra`` appends ``(dataset index,
        fidelity, target)`` pseudo-observations (the in-round believer).
        """
        init = self.partition.init_idx
        if memory:
            learned, targets, log_y = self._learned_mem, self._targets_mem, self._log_mem
        else:
            learned, targets, log_y = self._learned, self._targets_cost, self._log_cost
        idx = np.concatenate([init, np.asarray(learned, dtype=np.int64)])
        y = np.concatenate([log_y[init], np.asarray(targets, dtype=np.float64)])
        if self._F == 1 and not extra:
            return self._U[idx], y
        blocks = []
        for f, lofi in enumerate(self._lofi_learned):
            lidx = np.concatenate([init, np.asarray(lofi, dtype=np.int64)])
            surface = self.mf.mem if memory else self.mf.cost
            blocks.append((f, lidx, np.log10(surface[f][lidx])))
        blocks.append((self._F - 1, idx, y))
        blocks += [(f, np.array([i]), np.array([t])) for i, f, t in extra]
        X = np.vstack([
            self._U[rows]
            if self._F == 1
            else np.column_stack([self._U[rows], np.full(rows.shape[0], float(f))])
            for f, rows, _ in blocks
        ])
        return X, np.concatenate([t for _, _, t in blocks])

    def _fit_models(self, optimize: bool = True) -> None:
        X_c, y_c = self._training_set(memory=False)
        X_m, y_m = self._training_set(memory=True)
        with obs.span("gp_fit", cat="al", optimize=optimize, n=int(X_c.shape[0])):
            if optimize:
                self.gpr_cost.fit(X_c, y_c)
                self.gpr_mem.fit(X_m, y_m)
            else:
                self.gpr_cost.refactor(X_c, y_c)
                self.gpr_mem.refactor(X_m, y_m)

    def _test_rmse(self) -> tuple[float, float, float]:
        t = self.partition.test_idx
        mu_c = self.gpr_cost.predict(self._U[t])
        mu_m = self.gpr_mem.predict(self._U[t])
        weighted = float("nan")
        if self.weight_rmse_by_cost:
            weighted = rmse_nonlog(mu_c, self.dataset.cost[t], weights=self.dataset.cost[t])
        return (
            rmse_nonlog(mu_c, self.dataset.cost[t]),
            rmse_nonlog(mu_m, self.dataset.mem[t]),
            weighted,
        )

    def _candidate_view(self) -> CandidateView:
        """Model state over the pool, one row per (fidelity, point) pair.

        Fidelity-major (see :func:`select_round`); the top rung comes
        through the candidate caches.  Below the top, ``sigma_cost`` is
        the *effective* top-fidelity sigma ``|w_f| * sigma_f``: the share
        of a rung-``f`` observation's uncertainty that propagates into
        the top-fidelity posterior (``w_f = prod(rho_{f+1..F-1})``).
        """
        idx = np.asarray(self._remaining, dtype=np.int64)
        U = self._U[idx]
        if self._zero_refit:
            # No surrogate exists; the amortized policy scores from its
            # own features and never reads the predictive columns.
            nan = np.full(idx.shape[0], np.nan)
            return CandidateView(
                X=U, mu_cost=nan, sigma_cost=nan, mu_mem=nan, sigma_mem=nan
            )
        if self.cache_candidates:
            mu_c, sd_c = self._cache_cost.predict(U)
            mu_m, sd_m = self._cache_mem.predict(U)
        else:
            mu_c, sd_c = self.gpr_cost.predict(U, return_std=True)
            mu_m, sd_m = self.gpr_mem.predict(U, return_std=True)
        if self._F == 1:
            return CandidateView(
                X=U, mu_cost=mu_c, sigma_cost=sd_c, mu_mem=mu_m, sigma_mem=sd_m
            )
        cost = [self.gpr_cost.predict_fidelity(U, f, True) for f in range(self._F - 1)]
        mem = [self.gpr_mem.predict_fidelity(U, f, True) for f in range(self._F - 1)]
        cost.append((mu_c, sd_c))
        mem.append((mu_m, sd_m))
        w = np.abs(self.gpr_cost.fidelity_weights(self._F - 1))
        return CandidateView(
            X=np.tile(U, (self._F, 1)),
            mu_cost=np.concatenate([mu for mu, _ in cost]),
            sigma_cost=np.concatenate([w[f] * sd for f, (_, sd) in enumerate(cost)]),
            mu_mem=np.concatenate([mu for mu, _ in mem]),
            sigma_mem=np.concatenate([sd for _, sd in mem]),
        )

    def _believer(self, view: CandidateView):
        """The in-round conditioner: a kriging believer on the cost model.

        After a pick, the cost model's predicted mean there joins its
        training set as a pseudo-observation (hyperparameters frozen) and
        sigma is re-predicted for every (fidelity, point) row, so the
        collapsed uncertainty steers the round's next pick away.  The
        round's refit on the true data replaces the pseudo-points.
        """
        idx = np.asarray(self._remaining, dtype=np.int64)
        U = self._U[idx]
        m = idx.shape[0]
        pseudo: list[tuple[int, int, float]] = []

        def condition(pos: int, fid: int) -> np.ndarray:
            pseudo.append((int(idx[pos]), fid, float(view.mu_cost[fid * m + pos])))
            self.gpr_cost.refactor(*self._training_set(memory=False, extra=pseudo))
            if self._F == 1:
                return self.gpr_cost.predict(U, return_std=True)[1]
            w = np.abs(self.gpr_cost.fidelity_weights(self._F - 1))
            return np.concatenate([
                w[f] * self.gpr_cost.predict_fidelity(U, f, True)[1]
                for f in range(self._F)
            ])

        return condition

    def _blocked(self) -> np.ndarray | None:
        """View rows already acquired (sub-top pairs; ``None`` at F=1)."""
        if self._F == 1:
            return None
        idx = np.asarray(self._remaining, dtype=np.int64)
        rows = [np.isin(idx, lofi) for lofi in self._lofi_learned]
        rows.append(np.zeros(idx.shape[0], dtype=bool))
        return np.concatenate(rows)

    # -------------------------------------------------------------------- run

    def run(self) -> Trajectory:
        """Execute the full AL loop and return its trajectory.

        With an enabled ``acquisition_faults`` model, acquisitions can
        crash (no usable responses) or come back RSS-censored (cost
        observed, memory lost); either way the sample's node-hours are
        charged, the candidate leaves the pool, a
        :class:`~repro.faults.FaultEvent` is appended to the trajectory,
        and the loop proceeds per ``on_failure`` — it never corrupts the
        incremental-Cholesky fast path (lost samples are *dropped* from
        the cached cross-covariance, never appended) and never aborts.
        """
        with obs.span(
            "trajectory",
            cat="al",
            policy=self.policy.name,
            n_init=self.partition.n_init,
        ) as traj_span:
            trajectory = self._run()
            traj_span.annotate(
                iterations=len(trajectory), stop_reason=trajectory.stop_reason.value
            )
            return trajectory

    def _run(self) -> Trajectory:
        self.start()
        while self.step():
            pass
        return self.finalize()

    # ------------------------------------------------------- stepwise API

    @property
    def finished(self) -> bool:
        """True once the run has reached a stop condition."""
        return self._stop is not None

    @property
    def iteration(self) -> int:
        """The next AL iteration to execute (0 before any selection)."""
        return self._iteration

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """Records committed so far (stable snapshot)."""
        return tuple(self._records)

    @property
    def cumulative_cost_spent(self) -> float:
        """Node-hours charged so far (the campaign ledger's feed)."""
        return self._cum_cost

    def start(self) -> None:
        """Pre-AL initialization: initial fit + baseline RMSE (idempotent).

        Splitting this out of :meth:`run` lets a driver (the campaign
        service) execute the loop one :meth:`step` at a time, pickling the
        learner between steps as a checkpoint.  Everything :meth:`step`
        needs lives on the instance afterwards.
        """
        if self._started:
            return
        self.stopping_rule.reset()
        if not self._zero_refit:
            self._fit_models(optimize=True)
            rmse_c0, rmse_m0, _ = self._test_rmse()
            self._initial_rmse = (rmse_c0, rmse_m0)
            # RMSE reported on iterations that learned nothing (dropped
            # acquisitions leave the models untouched).
            self._prev_rmse = (rmse_c0, rmse_m0, float("nan"))
        self._memory_limit = getattr(self.policy, "memory_limit_MB", None)
        prepare = getattr(self.policy, "prepare", None)
        if prepare is not None:
            # One-time policy state construction (e.g. the amortized
            # feature extractor).  Runs only on a cold start: ``_started``
            # rides the checkpoint pickle, so a resumed learner keeps the
            # policy state it was pickled with instead of rebuilding it.
            from repro.policy.features import PolicyContext

            prepare(
                PolicyContext(
                    dataset=self.dataset,
                    scaler=self.scaler,
                    pool_indices=np.asarray(self._remaining, dtype=np.int64),
                    train_indices=self._train_indices(),
                    memory_limit_MB=getattr(self.policy, "memory_limit_MB", None),
                )
            )
        self._started = True

    def step(self) -> bool:
        """One AL round; returns False once the run has ended.

        One pass of Algorithm 1's loop body, widened to a portfolio:
        :func:`select_round` picks up to ``batch_size`` (point, fidelity)
        pairs (conditioning the cost model on each pick by the kriging
        believer, :meth:`_believer`), :meth:`_acquire` observes each one,
        the models are refit once, and every pick gets its own record.
        At B=1/F=1 that is one candidate leaving the pool, and the
        ``next_best`` failure path consumes a step without advancing the
        iteration counter (a replacement is selected on the following
        step), matching the historical in-loop ``continue``.  The learner
        may be pickled between any two calls and the restored copy
        continues the identical sequence.
        """
        if not self._started:
            self.start()
        if self._stop is not None:
            return False
        if not self._remaining:
            self._stop = StopReason.EXHAUSTED
            return False

        iteration = self._iteration
        with obs.span(
            "al_iteration",
            cat="al",
            iteration=iteration,
            pool=len(self._remaining),
        ):
            if self.max_iterations is not None and iteration >= self.max_iterations:
                self._stop = StopReason.MAX_ITERATIONS
                return False
            view = self._candidate_view()
            m = len(self._remaining)
            top = slice((self._F - 1) * m, None)
            if self.stopping_rule.update(view.mu_cost[top], view.sigma_cost[top]):
                self._stop = StopReason.STOPPING_RULE
                return False
            batch = self.batch_size
            if self.max_iterations is not None:
                batch = min(batch, self.max_iterations - iteration)
            ledger = (
                None
                if self.round_budget is None
                else CampaignLedger(budget_node_hours=self.round_budget)
            )
            blocked = self._blocked()
            picks = select_round(
                self.policy,
                view,
                self.rng,
                num_points=m,
                batch_size=batch,
                blocked=blocked,
                ledger=ledger,
                condition=self._believer(view) if batch > 1 else None,
            )
            if not picks:
                self._stop = self._empty_round_reason(view, blocked, ledger)
                return False

            observed = []
            top_fid = self._F - 1
            for k, (pos, fid) in enumerate(picks):
                # Earlier top-fidelity picks already left the pool.
                pos -= sum(1 for p, f in picks[:k] if f == top_fid and p < pos)
                acquired = self._acquire(pos, fid)
                if acquired is None:
                    return True  # lost acquisition (B=1/F=1 only)
                observed.append(acquired)

            if self._zero_refit:
                # The whole point: no fit, no refactor, no RMSE pass.
                rmse_c, rmse_m, rmse_w = self._prev_rmse
            else:
                optimize = (self._round % self.hyper_refit_interval) == 0
                self._fit_models(optimize=optimize)
                rmse_c, rmse_m, rmse_w = self._test_rmse()
                self._prev_rmse = (rmse_c, rmse_m, rmse_w)
            for ds_index, fid, cost, mem, cum_cost, cum_regret, crashed, censored in (
                observed
            ):
                self._records.append(
                    IterationRecord(
                        iteration=self._iteration,
                        dataset_index=ds_index,
                        cost=cost,
                        mem=mem,
                        rmse_cost=rmse_c,
                        rmse_mem=rmse_m,
                        cumulative_cost=cum_cost,
                        cumulative_regret=cum_regret,
                        rmse_cost_weighted=rmse_w,
                        failed=crashed,
                        censored=censored,
                        fidelity=fid,
                    )
                )
                self._iteration += 1
            self._round += 1
        return True

    def _empty_round_reason(
        self,
        view: CandidateView,
        blocked: np.ndarray | None,
        ledger: CampaignLedger | None,
    ) -> StopReason:
        """Why a round picked nothing: the round budget, or memory."""
        safe = np.ones(len(view), dtype=bool) if blocked is None else ~blocked
        if self._memory_limit is not None:
            safe &= view.mu_mem < np.log10(self._memory_limit)
        if ledger is not None and safe.any():
            return StopReason.BUDGET_EXHAUSTED
        return StopReason.MEMORY_CONSTRAINED

    def _acquire(self, pos: int, fid: int):
        """Run the experiment at pool position ``pos`` and fidelity ``fid``.

        A top-fidelity pick leaves the pool and joins the training sets
        (or, under acquisition faults, is handled per ``on_failure``); a
        sub-top pick joins its rung's rows and the point stays in the
        pool.  Returns the record fields ``(dataset index, fidelity,
        cost, mem, cumulative cost, cumulative regret, crashed,
        censored)``, or ``None`` when the acquisition was lost — its
        failed record is then already appended and the step is over.
        """
        if fid < self._F - 1:
            ds_index = int(self._remaining[pos])
            cost = float(self.mf.cost[fid, ds_index])
            mem = float(self.mf.mem[fid, ds_index])
            self._charge(cost, mem)
            self._lofi_learned[fid].append(ds_index)
            return (ds_index, fid, cost, mem, self._cum_cost, self._cum_regret,
                    False, False)

        faults = self.acquisition_faults
        faults_on = faults is not None and faults.enabled
        iteration = self._iteration
        ds_index = self._remaining.pop(pos)
        outcome = faults.strike(self.rng) if faults_on else AcquisitionOutcome.OK

        # The experiment ran (or died trying): its node-hours are
        # spent regardless of whether the observation is usable.
        cost = float(self.dataset.cost[ds_index])
        mem = float(self.dataset.mem[ds_index])
        self._charge(cost, mem)

        crashed = outcome is AcquisitionOutcome.CRASHED
        censored = outcome is AcquisitionOutcome.CENSORED
        if crashed and self.on_failure is not FailurePolicy.IMPUTE:
            # The sample is lost entirely: remove it from the cached
            # cross-covariances (row only — it never joins the kernel)
            # and leave both models untouched.
            if self.cache_candidates:
                self._cache_cost.drop(pos)
                self._cache_mem.drop(pos)
            if self._policy_hooks:
                self.policy.observe_drop(pos, cost=cost)
            obs.event(
                "acquisition_fault",
                cat="al",
                kind="crash",
                dataset_index=int(ds_index),
                handled=self.on_failure.value,
            )
            self._fault_events.append(
                FaultEvent(
                    job_id=int(ds_index),
                    attempt=iteration,
                    kind=FaultKind.CRASH,
                    lost_wall_seconds=float(self.dataset.wall[ds_index]),
                    nodes=int(self.dataset.X[ds_index, 0]),
                    detail=f"acquisition crashed ({self.on_failure.value})",
                )
            )
            self._records.append(
                IterationRecord(
                    iteration=iteration,
                    dataset_index=int(ds_index),
                    cost=cost,
                    mem=mem,
                    rmse_cost=self._prev_rmse[0],
                    rmse_mem=self._prev_rmse[1],
                    cumulative_cost=self._cum_cost,
                    cumulative_regret=self._cum_regret,
                    rmse_cost_weighted=self._prev_rmse[2],
                    failed=True,
                    fidelity=fid,
                )
            )
            if self.on_failure is not FailurePolicy.NEXT_BEST:
                # DROP: the iteration (and its round) is consumed.
                self._iteration += 1
                self._round += 1
            return None  # NEXT_BEST: replacement selected next step

        # The sample (or an imputation of it) joins the training sets.
        u_new = self._U[ds_index]
        target_cost = float(self._log_cost[ds_index])
        target_mem = float(self._log_mem[ds_index])
        learn_mem = True
        if crashed:  # IMPUTE policy: both observations were lost
            target_cost = float(self.gpr_cost.predict(u_new[None, :])[0])
            target_mem = float(self.gpr_mem.predict(u_new[None, :])[0])
        elif censored:  # cost observed, MaxRSS lost
            if self.on_failure is FailurePolicy.IMPUTE:
                target_mem = float(self.gpr_mem.predict(u_new[None, :])[0])
            else:
                learn_mem = False

        self._learned.append(ds_index)
        self._targets_cost.append(target_cost)
        if learn_mem:
            self._learned_mem.append(ds_index)
            self._targets_mem.append(target_mem)
        if self.cache_candidates and not self._zero_refit:
            U_rem = self._U[np.asarray(self._remaining, dtype=np.int64)]
            self._cache_cost.acquire(pos, U_rem, u_new)
            if learn_mem:
                self._cache_mem.acquire(pos, U_rem, u_new)
            else:
                self._cache_mem.drop(pos)
        if self._policy_hooks:
            self.policy.observe_acquire(
                pos,
                u_new,
                cost=cost,
                target_cost=target_cost,
                target_mem=target_mem,
                learn_mem=learn_mem,
            )
        if crashed or censored:
            obs.event(
                "acquisition_fault",
                cat="al",
                kind="crash" if crashed else "rss_lost",
                dataset_index=int(ds_index),
                handled=self.on_failure.value,
            )
            self._fault_events.append(
                FaultEvent(
                    job_id=int(ds_index),
                    attempt=iteration,
                    kind=FaultKind.CRASH if crashed else FaultKind.RSS_LOST,
                    lost_wall_seconds=(
                        float(self.dataset.wall[ds_index]) if crashed else 0.0
                    ),
                    nodes=int(self.dataset.X[ds_index, 0]),
                    detail=f"handled via {self.on_failure.value}",
                )
            )
        return (int(ds_index), fid, cost, mem, self._cum_cost, self._cum_regret,
                crashed, censored)

    def _charge(self, cost: float, mem: float) -> None:
        self._cum_cost += cost
        if self._memory_limit is not None:
            self._cum_regret += individual_regret(cost, mem, self._memory_limit)

    def finalize(self, stop: StopReason | None = None) -> Trajectory:
        """Build the :class:`Trajectory` for the run so far.

        ``stop`` overrides the recorded stop reason — the campaign service
        uses it to close out a run its ledger terminated early
        (:attr:`StopReason.BUDGET_EXHAUSTED`).  Without an override, an
        unfinished run reports ``EXHAUSTED`` (the historical default for a
        loop that never hit another condition).
        """
        if stop is None:
            stop = self._stop if self._stop is not None else StopReason.EXHAUSTED
        else:
            self._stop = stop
        return Trajectory(
            policy_name=self.policy.name,
            n_init=self.partition.n_init,
            records=tuple(self._records),
            stop_reason=stop,
            initial_rmse_cost=self._initial_rmse[0],
            initial_rmse_mem=self._initial_rmse[1],
            fault_events=tuple(self._fault_events),
            config=self.config.describe(),
        )
