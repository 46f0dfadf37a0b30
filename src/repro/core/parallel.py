"""Parallel execution: the one spawn-worker pool and the trajectory runner.

:class:`WorkerPool` is every process pool in the package: spawn-started
workers with one pipe each, an init payload shipped once per spawn,
respawn of dead workers and optional per-job deadlines.  The trajectory
runner, the campaign service (:mod:`repro.core.service`) and the sharded
AMR driver (:class:`ShardWorkerPool`) each add only their own handler.

The figure benchmarks and the paper's cross-validation run many AL
trajectories that share nothing but the (read-only) dataset — one per
(policy, partition seed) pair.  :func:`run_trajectories` fans a list of
:class:`TrajectorySpec` out over a :class:`WorkerPool`.  The dataset is
the pool's init payload, so ``S`` specs on ``W`` workers pickle it ``W``
times, not ``S`` times.  Policy factories cross the process boundary by
pickling: classes or :func:`functools.partial`, not lambdas.

Determinism: every spec derives its own ``Generator`` from
``SeedSequence(entropy=base_seed, spawn_key=(traj_index,))`` — the same
stream construction :mod:`repro.core.batch` has always used — so results
are identical serial or parallel, at any worker count, and specs with the
same ``(base_seed, traj_index)`` share a partition (paired comparisons
across policies).

Failure isolation: exceptions are caught *inside* the worker and returned
as :class:`TrajectoryFailure` values, and a worker process that dies
outright is respawned, so one bad trajectory costs exactly its own
result — see ``run_trajectories(on_error=...)``.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.trajectory import Trajectory
from repro.data.dataset import Dataset


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent AL run: a policy factory plus its seed-tree position.

    Attributes
    ----------
    name : str
        Display name the result is reported under.
    policy_factory : callable
        Zero-argument factory for a fresh policy instance.  Must be
        picklable for parallel execution — a policy class or a
        ``functools.partial``, not a lambda.
    base_seed, traj_index : int
        Position in the seed tree; specs sharing both get the same
        partition and RNG stream.
    n_init, n_test, max_iterations, hyper_refit_interval, n_restarts :
        Forwarded to :class:`~repro.core.loop.ActiveLearner`.
    learner_kwargs : dict
        Extra keyword arguments for :class:`ActiveLearner` (e.g.
        ``stopping_rule``, ``cache_candidates``).
    """

    name: str
    policy_factory: Callable[[], object]
    base_seed: int = 0
    traj_index: int = 0
    n_init: int = 50
    n_test: int = 200
    max_iterations: int | None = None
    hyper_refit_interval: int = 1
    n_restarts: int = 2
    learner_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrajectoryFailure:
    """A trajectory that died instead of returning a :class:`Trajectory`.

    Returned in place of the trajectory when ``on_error="return"``, so one
    bad spec (a policy that raises, a worker that crashes) costs exactly
    one result — never the whole batch.

    Attributes
    ----------
    name : str
        The failed spec's display name.
    error : str
        ``repr`` of the exception (or a pool-level diagnosis).
    traceback : str
        Formatted traceback from the worker, for postmortems.
    """

    name: str
    error: str
    traceback: str = ""


def _run_spec(
    dataset: Dataset, spec: TrajectorySpec
) -> tuple[str, Trajectory | TrajectoryFailure]:
    """One fully seeded AL run; an exception becomes a TrajectoryFailure.

    Catching here, inside the worker, makes a failed trajectory an
    ordinary result: the serial path honours ``on_error`` the same way,
    and a worker still ships the failed run's metrics and spans.
    """
    try:
        seed_seq = np.random.SeedSequence(
            entropy=spec.base_seed, spawn_key=(spec.traj_index,)
        )
        rng = np.random.default_rng(seed_seq)
        partition = random_partition(
            rng, len(dataset), n_init=spec.n_init, n_test=spec.n_test
        )
        learner = ActiveLearner(
            dataset,
            partition,
            policy=spec.policy_factory(),
            rng=rng,
            n_restarts=spec.n_restarts,
            hyper_refit_interval=spec.hyper_refit_interval,
            max_iterations=spec.max_iterations,
            **spec.learner_kwargs,
        )
        return spec.name, learner.run()
    except Exception as exc:  # noqa: BLE001 - the boundary must be total
        return spec.name, TrajectoryFailure(
            name=spec.name, error=repr(exc), traceback=_traceback.format_exc()
        )


def _serve_spec(dataset: Dataset, cmd: str, spec: TrajectorySpec) -> tuple:
    """Trajectory-worker handler: run one spec (``cmd`` is always ``"spec"``).

    Returns the spec's result plus its observability payload
    (:func:`repro.obs.snapshot_state` with ``reset_after``, so a worker
    running several specs ships each spec's metrics and spans exactly
    once).
    """
    name, result = _run_spec(dataset, spec)
    return name, result, obs.snapshot_state(reset_after=True)


def default_workers(n_jobs: int) -> int:
    """Worker count capped by the job count and the machine's cores."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


def _worker_main(conn, rank: int, handler: Callable, trace_enabled: bool) -> None:
    """Entry point of every spawned worker (must be importable).

    The first message is the pool's init payload; the worker keeps it as
    its state and answers ``("ok", rank)``.  After that every message is
    ``(cmd, payload)``: ``ping`` answers the rank, ``obs`` ships and resets
    this process's metrics and spans, and any other command replies
    ``("ok", handler(state, cmd, payload))``.  A handler that raises
    replies ``("error", (repr, traceback))`` and the worker keeps serving.
    The worker exits once the parent's end of the pipe is closed — by
    :meth:`WorkerPool.close`, or when a pool nobody closed is collected.
    """
    if trace_enabled:
        obs.enable_tracing()
    try:
        state = conn.recv()
        conn.send(("ok", rank))
        while True:
            cmd, payload = conn.recv()
            try:
                if cmd == "ping":
                    value = rank
                elif cmd == "obs":
                    value = obs.snapshot_state(reset_after=True)
                else:
                    value = handler(state, cmd, payload)
                conn.send(("ok", value))
            except Exception as exc:  # noqa: BLE001 - report, never kill the pipe
                conn.send(("error", (repr(exc), _traceback.format_exc())))
    except (EOFError, OSError, KeyboardInterrupt):
        pass


@dataclass
class Worker:
    """One spawned worker: its process, its pipe and the job it runs."""

    rank: int
    proc: object = None
    conn: object = None
    job: object = None
    deadline: float | None = None


class WorkerPool:
    """``num_workers`` spawn-started workers, one pipe each.

    Each worker runs ``handler(state, cmd, payload)`` — a picklable
    module-level function — on its copy of ``init`` (for example the
    shared dataset), which ships once per spawn in the handshake, never
    with a job.  Workers are expendable: one that dies mid-job, or
    overruns the deadline its job was submitted with, is respawned in
    place by :meth:`wait`, and only that job is lost.  ``name`` prefixes
    the process names.
    """

    def __init__(self, num_workers: int, handler: Callable, init, name: str) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._ctx = get_context("spawn")
        self._handler = handler
        self._init = init
        self._name = name
        self.workers = [Worker(rank) for rank in range(num_workers)]
        # Start every interpreter before the first handshake so their
        # imports overlap.
        for worker in self.workers:
            self._start(worker)
        for worker in self.workers:
            self._handshake(worker)

    def _start(self, worker: Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        worker.proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker.rank, self._handler, obs.tracing_enabled()),
            daemon=True,
            name=f"{self._name}-{worker.rank}",
        )
        worker.proc.start()
        child_conn.close()
        worker.conn = parent_conn

    def _handshake(self, worker: Worker) -> None:
        try:
            worker.conn.send(self._init)
            worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"{worker.proc.name} died during start-up") from exc

    def _respawn(self, worker: Worker) -> int | None:
        """Replace a dead or condemned worker; returns the old exit code."""
        worker.conn.close()
        worker.proc.terminate()  # a no-op on a dead process
        worker.proc.join(timeout=5.0)
        code = worker.proc.exitcode
        self._start(worker)
        self._handshake(worker)
        return code

    def idle(self) -> list[Worker]:
        return [w for w in self.workers if w.job is None]

    def busy(self) -> list[Worker]:
        return [w for w in self.workers if w.job is not None]

    def submit(
        self, worker: Worker, job, cmd: str, payload, deadline: float | None = None
    ) -> None:
        """Send ``(cmd, payload)`` to an idle worker, tagged with ``job``.

        ``deadline`` is a :func:`time.monotonic` instant after which
        :meth:`wait` kills the worker and reports the job as overdue.
        """
        worker.conn.send((cmd, payload))
        worker.job = job
        worker.deadline = deadline

    def wait(self) -> list[tuple[Worker, object, str, object]]:
        """Block until some busy worker replies, dies or overruns its deadline.

        Returns ``(worker, job, status, value)`` events in rank order.
        ``status`` is the worker's reply (``"ok"`` with the handler's value,
        ``"error"`` with ``(repr, traceback)``), ``"died"`` when the pipe hit
        EOF, or ``"deadline"``; the last two carry ``(message, "")`` and the
        worker has already been respawned.  Every reported worker is idle.
        """
        busy = self.busy()
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        ready = connection.wait([w.conn for w in busy], timeout)
        now = time.monotonic()
        events = []
        for worker in busy:
            job = worker.job
            if worker.conn in ready:
                try:
                    status, value = worker.conn.recv()
                except (EOFError, OSError):
                    code = self._respawn(worker)
                    status = "died"
                    value = (f"{self._name}-{worker.rank} died (exit code {code})", "")
            elif worker.deadline is not None and now >= worker.deadline:
                self._respawn(worker)
                status = "deadline"
                value = (f"{self._name}-{worker.rank} killed at its deadline", "")
            else:
                continue
            worker.job = worker.deadline = None
            events.append((worker, job, status, value))
        return events

    def close(self) -> None:
        """Shut every worker down, terminating busy ones; safe to call twice."""
        for worker in self.workers:
            worker.conn.close()  # an idle worker exits on EOF
            if worker.job is not None:
                # Mid-job: its reply would be discarded anyway.
                worker.proc.terminate()
        for worker in self.workers:
            worker.proc.join(timeout=2.0)
            worker.proc.terminate()  # a no-op unless the worker is stuck
        self.workers = []


# --------------------------------------------------------------------------
# Persistent shard workers (parallel AMR)
#
# The sharded AMR driver (repro.amr.parallel) needs a persistent,
# synchronously-phased crew: every worker owns a contiguous slice of one
# shared-memory PatchStack and must run the same phase (exchange / sweep /
# wave speeds) before any worker may start the next.  There is deliberately
# no OS barrier primitive here — the parent IS the barrier: it sends a phase
# command to every worker and collects every reply before issuing the next
# phase, which on measured hardware costs a fraction of a
# multiprocessing.Barrier cycle and keeps all failure handling in one place.
# --------------------------------------------------------------------------


class ShardWorkerError(RuntimeError):
    """A shard worker raised (or died) during a phase."""


class ShardWorkerPool(WorkerPool):
    """A persistent crew of shard workers, phased by the parent.

    Workers hold no hierarchy state of their own beyond what ``install``
    ships (shared-memory names, their shard program and row slice), so the
    pool outlives regrids and repartitions — only ``install`` is re-sent.
    :meth:`broadcast` returns only after every worker has replied, so a
    subsequent phase can never observe a half-finished predecessor.
    """

    def __init__(self, num_workers: int) -> None:
        # The shard handler is AMR logic and lives with the AMR driver.
        from repro.amr.parallel import _ShardWorkerState

        super().__init__(
            num_workers, _ShardWorkerState.handle, _ShardWorkerState(), "amr-shard"
        )

    def broadcast(self, cmd: str, payload=None) -> list:
        """Send one phase command to every worker; gather every reply."""
        return self.scatter(cmd, [payload] * len(self.workers))

    def scatter(self, cmd: str, payloads: Sequence) -> list:
        """Send per-worker payloads (e.g. shard-specific install specs)."""
        if len(payloads) != len(self.workers):
            raise ValueError("need exactly one payload per worker")
        for worker, payload in zip(self.workers, payloads):
            self.submit(worker, cmd, cmd, payload)
        events = []
        while self.busy():
            events += self.wait()
        events.sort(key=lambda event: event[0].rank)
        errors = [
            f"[worker {w.rank}] {status}\n{value[1] or value[0]}"
            for w, _, status, value in events
            if status != "ok"
        ]
        if errors:
            raise ShardWorkerError(f"shard phase {cmd!r} failed:\n" + "\n".join(errors))
        return [value for _, _, _, value in events]


def run_trajectories(
    dataset: Dataset,
    specs: Iterable[TrajectorySpec],
    max_workers: int | None = None,
    on_error: str = "raise",
) -> list[tuple[str, Trajectory | TrajectoryFailure]]:
    """Run every spec; return ``(name, trajectory)`` pairs in spec order.

    ``max_workers=None`` picks :func:`default_workers`; ``1`` runs
    serially in-process (no pool, easiest to debug/profile).  Results are
    independent of the worker count by construction.

    Failure handling (``on_error``):

    - ``"raise"`` (default) — after *every* spec has finished, raise a
      ``RuntimeError`` naming each failed trajectory with its worker-side
      traceback.  Unlike a raw ``pool.map``, completed results are
      computed before the raise and no worker is left hanging.
    - ``"return"`` — substitute a :class:`TrajectoryFailure` for each
      failed trajectory and return the full, spec-ordered list.  Callers
      filter with ``isinstance(t, Trajectory)``.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'")
    spec_list: Sequence[TrajectorySpec] = list(specs)
    if max_workers is None:
        max_workers = default_workers(len(spec_list))
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")

    results: list[tuple[str, Trajectory | TrajectoryFailure]]
    if max_workers == 1 or len(spec_list) <= 1:
        results = [_run_spec(dataset, s) for s in spec_list]
    else:
        results = [None] * len(spec_list)
        pending = deque(enumerate(spec_list))
        pool = WorkerPool(
            min(max_workers, len(spec_list)), _serve_spec, dataset, "trajectory"
        )
        try:
            while pending or pool.busy():
                for worker in pool.idle()[: len(pending)]:
                    i, spec = pending.popleft()
                    pool.submit(worker, i, "spec", spec)
                for _, i, status, value in pool.wait():
                    if status == "ok":
                        name, result, payload = value
                        # Spans land on lane ``spec_index + 1`` and metric
                        # merging is order-independent (sums; gauges keep
                        # the max), so merging as results arrive gives the
                        # same state at any worker count.  Merging inside
                        # the loop keeps what finished specs shipped if a
                        # later wait is cancelled (KeyboardInterrupt).
                        obs.merge_state(payload, track=i + 1)
                    else:
                        # The handler raised outside the guard, or the
                        # worker died (respawned already): this spec alone
                        # fails, and its observability payload is lost.
                        name = spec_list[i].name
                        result = TrajectoryFailure(name, *value)
                    results[i] = (name, result)
        finally:
            pool.close()

    failures = [t for _, t in results if isinstance(t, TrajectoryFailure)]
    if failures and on_error == "raise":
        detail = "\n".join(
            f"- {f.name}: {f.error}\n{f.traceback}".rstrip() for f in failures
        )
        raise RuntimeError(
            f"{len(failures)}/{len(spec_list)} trajectories failed:\n{detail}"
        )
    return results
