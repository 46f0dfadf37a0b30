"""Amortized (offline-trained, zero-refit) selection policies.

The package splits into:

- :mod:`repro.policy.features` — GP-free incremental feature extraction;
- :mod:`repro.policy.scorer` — the numpy-only MLP scorer + trainer;
- :mod:`repro.policy.amortized` — the :class:`AmortizedPolicy` serving
  implementation of the ``SelectionPolicy`` protocol;
- :mod:`repro.policy.simulate` — the teacher-replay data generator
  (imports the campaign service; import it explicitly, not via this
  package, to keep light consumers light).

``python -m repro.policy {simulate,train}`` is the offline pipeline.
"""

from __future__ import annotations

import os
import warnings

from repro.core.config import ALConfig
from repro.core.policies import POLICIES, RGMA
from repro.data.dataset import Dataset
from repro.policy.amortized import AmortizedPolicy, load_amortized_policy
from repro.policy.features import FEATURE_NAMES, FeatureExtractor, PolicyContext
from repro.policy.scorer import DecisionLog, MLPScorer, train_scorer

__all__ = [
    "AmortizedPolicy",
    "DecisionLog",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "MLPScorer",
    "PolicyContext",
    "load_amortized_policy",
    "make_policy",
    "train_scorer",
]


#: Policy names whose constructor takes a ``memory_limit_MB`` the config
#: may omit — defaulted to the dataset's own limit (Sec. III-B).
_MEMORY_AWARE = ("rgma", "portfolio", "amortized")


def make_policy(cfg: ALConfig, dataset: Dataset):
    """Instantiate the selection policy named by ``cfg.policy``.

    An undeclared policy is ``rgma`` for the sequential loop and its
    portfolio name, ``portfolio``, for batch multi-fidelity runs.
    Resolution goes through :data:`repro.registry.policy_registry` —
    any registered policy (built-in or third-party) is constructible
    here, and unknown names raise listing the registered keys.

    ``policy="amortized"`` loads the scorer file named in
    ``policy_options["policy_file"]``; a missing/unset file falls back to
    :class:`~repro.core.policies.RGMA` at the dataset's memory limit with
    a warning — a documented invariant (DESIGN.md): serving must degrade
    to the exact paper policy, never crash, when the learned artifact is
    absent.
    """
    from repro.registry import policy_registry

    name = cfg.policy or ("rgma" if cfg.sequential else "portfolio")
    opts = dict(cfg.policy_options)
    policy_cls = policy_registry.get(name)  # unknown -> KeyError with keys
    if name in _MEMORY_AWARE:
        opts.setdefault("memory_limit_MB", dataset.memory_limit())
    if name == "amortized":
        path = opts.pop("policy_file", None)
        if path is None or not os.path.exists(path):
            warnings.warn(
                f"amortized policy file {path!r} not found; "
                "falling back to RGMA",
                RuntimeWarning,
                stacklevel=2,
            )
            return RGMA(memory_limit_MB=opts["memory_limit_MB"])
        return load_amortized_policy(
            path,
            memory_limit_MB=opts["memory_limit_MB"],
            epsilon=float(opts.get("epsilon", 0.05)),
            temperature=float(opts.get("temperature", 1.0)),
        )
    return policy_cls(**opts)
