"""ALConfig: the resolved configuration of one Active-Learning run.

:class:`~repro.core.loop.ActiveLearner` grew a dozen keyword arguments;
this dataclass consolidates every knob that is *configuration* (as opposed
to the run's data inputs — dataset, partition, policy, rng, which remain
positional on the learner).  Benefits over loose kwargs:

- one value to validate, log, and pass around (``ActiveLearner(...,
  config=cfg)``; the legacy keywords still work and are mapped onto a
  config internally);
- :meth:`ALConfig.describe` renders the resolved configuration as a
  JSON-able dict, which the learner embeds in its
  :class:`~repro.core.trajectory.Trajectory` and the CLI embeds in
  exported Chrome traces — runs are self-describing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.core.stopping import StoppingRule
from repro.faults.acquisition import AcquisitionFaultModel, FailurePolicy
from repro.gp.kernels import Kernel
from repro.registry import policy_registry, surrogate_registry


@dataclass(frozen=True)
class ALConfig:
    """Every tuning knob of Algorithm 1, in one validated value.

    Field semantics are documented on :class:`~repro.core.loop.ActiveLearner`
    (they are the learner's former keyword arguments, unchanged).
    """

    kernel: Kernel | None = None
    n_restarts: int = 2
    hyper_refit_interval: int = 1
    stopping_rule: StoppingRule | None = None
    max_iterations: int | None = None
    log2_features: tuple[int, ...] = ()
    weight_rmse_by_cost: bool = False
    model_factory: Callable[[], Any] | None = None
    cache_candidates: bool = True
    acquisition_faults: AcquisitionFaultModel | None = None
    on_failure: FailurePolicy = FailurePolicy.NEXT_BEST
    use_workspace: bool = True
    #: Which built-in surrogate backend backs the cost/memory models when
    #: no ``model_factory`` is given: ``"dense"`` (exact GPRegressor),
    #: ``"iterative"`` (CG/Lanczos large-n fast path) or ``"sparse"``
    #: (DTC inducing points).
    surrogate: str = "dense"
    #: Extra constructor keywords for the selected surrogate backend
    #: (e.g. ``{"exact_lml_max_n": 2000}`` or ``{"n_inducing": 64}``),
    #: normalized to a sorted tuple of pairs so the config stays hashable
    #: and its fingerprint deterministic.
    surrogate_options: tuple[tuple[str, Any], ...] = ()
    #: Declarative policy selection, used when the learner is constructed
    #: without an explicit policy object: a name from
    #: :data:`repro.core.policies.POLICIES` or ``"amortized"``
    #: (the offline-trained zero-refit server, :mod:`repro.policy`).
    #: ``None`` means the caller passes the policy object itself.
    policy: str | None = None
    #: Constructor keywords for the declared policy (e.g.
    #: ``{"policy_file": "policy.npz", "epsilon": 0.05}``), normalized
    #: like ``surrogate_options``.
    policy_options: tuple[tuple[str, Any], ...] = ()
    #: The fidelity axis (:mod:`repro.data.fidelity`): how many rungs the
    #: co-kriging stack models.  1 is classic single-fidelity AL.
    num_fidelities: int = 1
    #: Explicit ``((mx_divisor, maxlevel_delta), ...)`` ladder, low to
    #: high, one pair per fidelity (the top pair must be the identity
    #: ``(1, 0)``).  Empty selects the default ladder for
    #: ``num_fidelities`` (:func:`repro.data.fidelity.default_schedule`).
    fidelity_schedule: tuple[tuple[int, int], ...] = ()
    #: Seed of the deterministic sub-top pricing stream
    #: (:meth:`repro.data.fidelity.MultiFidelityDataset.from_dataset`).
    fidelity_seed: int = 0
    #: Picks per acquisition round (portfolio size B).  1 reduces the
    #: batch layer to sequential selection.
    batch_size: int = 1
    #: Per-round node-hour budget the portfolio must fit under
    #: (``None`` = unbudgeted); enforced on predicted costs through a
    #: per-round :class:`~repro.machine.accounting.CampaignLedger`.
    round_budget_node_hours: float | None = None

    def __post_init__(self) -> None:
        if self.n_restarts < 0:
            raise ValueError("n_restarts must be non-negative")
        if self.hyper_refit_interval < 1:
            raise ValueError("hyper_refit_interval must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        # Normalize loosely-typed inputs (frozen, so via object.__setattr__).
        object.__setattr__(
            self, "log2_features", tuple(int(c) for c in self.log2_features)
        )
        object.__setattr__(self, "on_failure", FailurePolicy(self.on_failure))
        object.__setattr__(
            self, "weight_rmse_by_cost", bool(self.weight_rmse_by_cost)
        )
        object.__setattr__(self, "cache_candidates", bool(self.cache_candidates))
        object.__setattr__(self, "use_workspace", bool(self.use_workspace))
        # Surrogate/policy names resolve through the registries
        # (:mod:`repro.registry`): anything registered — built-in or
        # third-party — is a valid configuration value, and unknown
        # names fail listing the registered keys.
        if self.surrogate not in surrogate_registry:
            raise ValueError(
                f"surrogate must be one of the registered surrogates "
                f"{surrogate_registry.names()}, got {self.surrogate!r}"
            )
        opts = self.surrogate_options
        if isinstance(opts, dict):
            opts = opts.items()
        object.__setattr__(
            self,
            "surrogate_options",
            tuple(sorted((str(k), v) for k, v in opts)),
        )
        if self.policy is not None and self.policy not in policy_registry:
            raise ValueError(
                f"policy must be one of the registered policies "
                f"{policy_registry.names()}, got {self.policy!r}"
            )
        popts = self.policy_options
        if isinstance(popts, dict):
            popts = popts.items()
        object.__setattr__(
            self,
            "policy_options",
            tuple(sorted((str(k), v) for k, v in popts)),
        )
        if self.num_fidelities < 1:
            raise ValueError("num_fidelities must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if (
            self.round_budget_node_hours is not None
            and self.round_budget_node_hours <= 0
        ):
            raise ValueError("round_budget_node_hours must be positive (or None)")
        schedule = tuple(
            (int(d), int(m)) for d, m in self.fidelity_schedule
        )
        if schedule:
            if len(schedule) != self.num_fidelities:
                raise ValueError(
                    f"fidelity_schedule must list {self.num_fidelities} "
                    f"(mx_divisor, maxlevel_delta) pairs, got {len(schedule)}"
                )
            if schedule[-1] != (1, 0):
                raise ValueError(
                    "the top fidelity_schedule pair must be the identity (1, 0)"
                )
        object.__setattr__(self, "fidelity_schedule", schedule)
        faults = self.acquisition_faults
        if faults is not None and faults.enabled:
            self.check_sequential("acquisition faults")
        if self.policy is not None and not getattr(
            policy_registry.get(self.policy), "requires_surrogate", True
        ):
            self.check_sequential(f"zero-refit policies ({self.policy!r})")

    @property
    def sequential(self) -> bool:
        """One full-fidelity pick per round and no round budget.

        The paper's Algorithm 1 as written; anything else is a batch
        multi-fidelity portfolio run of the same loop.
        """
        return (
            self.num_fidelities == 1
            and self.batch_size == 1
            and self.round_budget_node_hours is None
        )

    def check_sequential(self, what: str) -> None:
        """Refuse ``what`` outside the sequential loop (:attr:`sequential`).

        Acquisition faults and zero-refit policies are defined for one
        full-fidelity pick per round only.
        """
        if not self.sequential:
            raise ValueError(
                f"{what} are supported only for sequential runs "
                "(F=1, B=1, no round budget)"
            )

    def describe(self) -> dict[str, Any]:
        """JSON-able summary of the resolved configuration.

        Object-valued fields collapse to names: the kernel to its ``repr``,
        the stopping rule and model factory to their type/function names,
        the fault model to its enabled flag.  Embedded in
        :class:`~repro.core.trajectory.Trajectory` metadata and in exported
        trace files, so a trajectory (or trace) carries the configuration
        that produced it.
        """
        faults = self.acquisition_faults
        return {
            "kernel": None if self.kernel is None else repr(self.kernel),
            "n_restarts": self.n_restarts,
            "hyper_refit_interval": self.hyper_refit_interval,
            "stopping_rule": (
                None
                if self.stopping_rule is None
                else type(self.stopping_rule).__name__
            ),
            "max_iterations": self.max_iterations,
            "log2_features": list(self.log2_features),
            "weight_rmse_by_cost": self.weight_rmse_by_cost,
            "model_factory": (
                None
                if self.model_factory is None
                else getattr(
                    self.model_factory, "__name__", type(self.model_factory).__name__
                )
            ),
            "cache_candidates": self.cache_candidates,
            "acquisition_faults": (
                None if faults is None else {"enabled": bool(faults.enabled)}
            ),
            "on_failure": self.on_failure.value,
            "use_workspace": self.use_workspace,
            "surrogate": self.surrogate,
            "surrogate_options": [[k, v] for k, v in self.surrogate_options],
            "policy": self.policy,
            "policy_options": [[k, v] for k, v in self.policy_options],
            # The fidelity axis is part of the config identity: a
            # checkpoint written under one fidelity schedule must be
            # refused on resume under another (the fingerprint pin).
            "num_fidelities": self.num_fidelities,
            "fidelity_schedule": [list(pair) for pair in self.fidelity_schedule],
            "fidelity_seed": self.fidelity_seed,
            "batch_size": self.batch_size,
            "round_budget_node_hours": self.round_budget_node_hours,
        }

    def resolved_schedule(self):
        """The :class:`~repro.data.fidelity.FidelitySchedule` declared here.

        An explicit ``fidelity_schedule`` wins; otherwise the default
        ladder for ``num_fidelities``.  Lazy import: the data layer must
        stay importable without the core package.
        """
        from repro.data.fidelity import FidelitySchedule, default_schedule

        if self.fidelity_schedule:
            return FidelitySchedule.from_pairs(self.fidelity_schedule)
        return default_schedule(self.num_fidelities)

    def fingerprint(self) -> str:
        """Short stable hash of :meth:`describe`.

        The campaign service stamps every checkpoint with the fingerprint
        of the configuration that produced it and refuses to resume a
        campaign under a different one — a silently changed config would
        break the resume bit-identity contract, so the mismatch must be
        loud.
        """
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:16]


#: Names of the legacy ``ActiveLearner`` keyword arguments that map 1:1
#: onto :class:`ALConfig` fields (everything except the data inputs).
LEGACY_KWARGS: tuple[str, ...] = tuple(f.name for f in fields(ALConfig))
