"""Per-layer attribution from outside the program.

The traced benchmark run wraps public entry points of each ``repro``
layer with :class:`Recorder` spans; nothing under ``src/`` knows it is
being measured.  Each span records its duration and the part of it that
child spans cover, so a layer's *self* time is its own work and the self
times of all spans sum to the time covered by top-level spans.  Wall time
minus that sum is the run's unattributed remainder.

Spans carry an id naming the trajectory or campaign they belong to: the
wrapped ``ActiveLearner.run`` (one trajectory) and the service's slice
runner set it for everything beneath them, and checkpoint store calls
take it from their ``campaign_id`` argument.  In the Chrome-trace export
every id is one lane, so a trajectory's nested spans line up by eye.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: Layer name -> (module path, attribute path) of every wrapped callable.
#: The layer name's prefix is the ``repro`` module it measures.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "gp.fit": [("repro.gp.gpr", "GPRegressor.fit")],
    "gp.refactor": [("repro.gp.gpr", "GPRegressor.refactor")],
    "gp.predict": [("repro.gp.gpr", "GPRegressor.predict")],
    "gp.predict_from_cross": [("repro.gp.gpr", "GPRegressor.predict_from_cross")],
    "loop.cache_predict": [("repro.core.loop", "CandidateCovarianceCache.predict")],
    "loop.cache_acquire": [("repro.core.loop", "CandidateCovarianceCache.acquire")],
    "loop.step": [("repro.core.loop", "ActiveLearner.step")],
    "policies.select": [
        ("repro.core.policies", "RGMA.select"),
        ("repro.core.policies", "RandGoodness.select"),
    ],
    "service.dumps": [("repro.core.service", "dumps_campaign")],
    "service.loads": [("repro.core.service", "loads_campaign")],
    "service.store_save": [("repro.core.service", "CheckpointStore.save")],
    "service.store_load": [("repro.core.service", "CheckpointStore.load")],
    "service.fsync": [("os", "fsync")],
    "service.pool_wait": [("multiprocessing.connection", "wait")],
    "service.pipe": [
        ("multiprocessing.connection", "Connection.send"),
        ("multiprocessing.connection", "Connection.recv"),
    ],
    "service.pool_lifecycle": [
        ("repro.core.service", "CampaignWorkerPool.__init__"),
        ("repro.core.service", "CampaignWorkerPool.close"),
    ],
    "obs.merge": [("repro.obs", "merge_state")],
}

#: Callables that only name the trajectory or campaign their callees
#: belong to; they add no span of their own.
ID_SCOPES: dict[str, tuple[str, str]] = {
    "trajectory": ("repro.core.loop", "ActiveLearner.run"),
    "campaign": ("repro.core.service", "_run_slice"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """In-memory span recorder with per-layer self-time accounting.

    Single-threaded by design: every wrapped call in the benchmark
    workloads runs on the main thread of the measured process.
    """

    def __init__(self) -> None:
        self._trajectories = 0
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (the measured window starts)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.top_level_s = 0.0
        self.saved_bytes = 0
        self._events: list[tuple] = []
        self._stack: list[list] = []
        self._spans = 0
        self._id = "main"
        self.t0 = time.perf_counter()

    # ----------------------------------------------------------- spans

    def _enter(self) -> None:
        parent = self._stack[-1][2] if self._stack else None
        self._spans += 1
        self._stack.append([time.perf_counter(), 0.0, self._spans, parent])

    def _exit(self, layer: str) -> None:
        start, child, span_id, parent = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        self.durations[layer].append(dur)
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_level_s += dur
        self._events.append((layer, start, dur, dur - child, self._id, span_id, parent))

    def _span(self, layer: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._exit(layer)

        return wrapper

    def _store_span(self, layer: str, fn):
        """A checkpoint-store span: its id is the ``campaign_id`` argument."""
        rec = self

        @functools.wraps(fn)
        def wrapper(store, campaign_id, *args, **kwargs):
            outer, rec._id = rec._id, campaign_id
            rec._enter()
            try:
                return fn(store, campaign_id, *args, **kwargs)
            finally:
                rec._exit(layer)
                if layer == "service.store_save":
                    rec.saved_bytes += os.path.getsize(store.path(campaign_id))
                rec._id = outer

        return wrapper

    def _id_scope(self, kind: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "campaign":  # _run_slice(dataset, job)
                scope_id = args[1]["cid"]
            else:
                scope_id = f"traj{rec._trajectories:03d}"
                rec._trajectories += 1
            outer, rec._id = rec._id, scope_id
            try:
                return fn(*args, **kwargs)
            finally:
                rec._id = outer

        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every target in place, for the rest of the process."""
        for layer, targets in TARGETS.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
                if layer.startswith("service.store_"):
                    wrapped = self._store_span(layer, fn)
                else:
                    wrapped = self._span(layer, fn)
                setattr(owner, attr, wrapped)
        for kind, (module, path) in ID_SCOPES.items():
            owner, attr = _resolve(module, path)
            setattr(owner, attr, self._id_scope(kind, getattr(owner, attr)))

    # ---------------------------------------------------------- export

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome-trace JSON (one lane per id)."""
        lanes: dict[str, int] = {}
        events = []
        for layer, start, dur, self_dur, lane, span_id, parent in self._events:
            tid = lanes.setdefault(lane, len(lanes) + 1)
            events.append(
                {
                    "name": layer,
                    "cat": layer.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((start - self.t0) * 1e6, 3),
                    "dur": round(dur * 1e6, 3),
                    "args": {
                        "id": lane,
                        "span_id": span_id,
                        "parent_id": parent,
                        "self_us": round(self_dur * 1e6, 3),
                    },
                }
            )
        for lane, tid in lanes.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": lane},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
