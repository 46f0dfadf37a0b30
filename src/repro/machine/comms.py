"""LogP-style communication cost model.

Ghost exchange dominates the communication of a patch-based AMR step: each
rank sends one edge strip per patch face whose neighbor lives on another
rank.  The model charges ``latency + bytes / bandwidth`` per message and a
logarithmic tree cost for the collective that reduces the global CFL dt.

:func:`calibrate_exchange` closes the loop with the sharded AMR driver:
the halo counters its exchange programs export (``amr.halo.*`` in
:mod:`repro.obs`) replace the model's surface-to-volume guess with the
measured inter-shard traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.machine.spec import MachineSpec


@dataclass(frozen=True, slots=True)
class LogPModel:
    """Latency/bandwidth messaging costs for a :class:`MachineSpec`."""

    spec: MachineSpec

    def message_time(self, nbytes: int) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.spec.network_latency_s + nbytes / self.spec.network_bandwidth_Bps

    def allreduce_time(self, nbytes: int, ranks: int) -> float:
        """Binary-tree allreduce estimate over ``ranks`` ranks."""
        if ranks < 1:
            raise ValueError("ranks must be positive")
        rounds = max(1, ceil(log2(max(ranks, 2))))
        return 2.0 * rounds * self.message_time(nbytes)

    def ghost_exchange_time(
        self,
        patches_per_rank: float,
        mx: int,
        ng: int,
        fields: int = 4,
        remote_fraction: float = 0.35,
    ) -> float:
        """Per-step ghost-exchange time for one rank.

        Parameters
        ----------
        patches_per_rank : float
            Average patches owned by a rank (fractional values represent
            load imbalance-adjusted averages).
        mx, ng : int
            Patch interior size and ghost width; a face strip carries
            ``fields * ng * mx`` doubles.
        remote_fraction : float
            Fraction of the 4 faces per patch whose neighbor is off-rank.
            Morton partitioning keeps subdomains compact, so this is well
            below 1; 0.35 matches the surface-to-volume ratio of curve
            segments at the paper's scales — or use
            :func:`calibrate_exchange` to measure it.
        """
        if patches_per_rank < 0:
            raise ValueError("patches_per_rank must be non-negative")
        strip_bytes = fields * ng * mx * 8
        messages = 4.0 * patches_per_rank * remote_fraction
        return messages * self.message_time(strip_bytes)


@dataclass(frozen=True, slots=True)
class ExchangeCalibration:
    """Measured inter-shard traffic folded into the LogP exchange model.

    Produced by :func:`calibrate_exchange` from the halo counters the
    sharded AMR exchange exports through :mod:`repro.obs`
    (``amr.halo.gather_bytes`` / ``amr.halo.messages``, shipped home by
    ``ParallelAmrDriver.drain_observability``) or directly from
    :class:`repro.amr.shard.ShardedExchange` accounting.

    Attributes
    ----------
    remote_fraction : float
        Measured fraction of the ``4 * num_patches`` patch faces whose
        source patch lives on another shard — the calibrated replacement
        for :meth:`LogPModel.ghost_exchange_time`'s 0.35 default.
    mean_message_bytes : float
        Average payload of one inter-shard strip message.
    messages_per_rank : float
        Inter-shard messages one rank handles per exchange.
    predicted_time_s : float
        LogP estimate of one rank's per-exchange communication time.
    """

    remote_fraction: float
    mean_message_bytes: float
    messages_per_rank: float
    predicted_time_s: float


def calibrate_exchange(
    model: LogPModel,
    *,
    num_patches: int,
    num_ranks: int,
    halo_messages: int,
    halo_bytes: int,
) -> ExchangeCalibration:
    """Turn measured halo traffic into a calibrated exchange-time estimate.

    Parameters
    ----------
    model : LogPModel
        The machine's messaging costs.
    num_patches : int
        Total patches in the hierarchy the traffic was measured on.
    num_ranks : int
        Shard/rank count the traffic was measured with.
    halo_messages : int
        Inter-shard strip messages per exchange execution, summed over
        ranks (``ShardedExchange.halo_messages_per_exchange``, or the
        ``amr.halo.messages`` counter divided by ``amr.shard.exchanges``).
    halo_bytes : int
        Inter-shard bytes gathered per exchange execution, summed over
        ranks (``ShardedExchange.halo_bytes_per_exchange``).
    """
    if num_patches < 1:
        raise ValueError("num_patches must be positive")
    if num_ranks < 1:
        raise ValueError("num_ranks must be positive")
    if halo_messages < 0 or halo_bytes < 0:
        raise ValueError("halo traffic must be non-negative")
    remote_fraction = halo_messages / (4.0 * num_patches)
    mean_bytes = halo_bytes / halo_messages if halo_messages else 0.0
    messages_per_rank = halo_messages / num_ranks
    predicted = messages_per_rank * model.message_time(int(round(mean_bytes)))
    return ExchangeCalibration(
        remote_fraction=remote_fraction,
        mean_message_bytes=mean_bytes,
        messages_per_rank=messages_per_rank,
        predicted_time_s=predicted,
    )
