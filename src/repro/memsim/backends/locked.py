"""Locked-cache alternative: hot vertices pinned in the shared L2."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext, account_latencies
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import ROUTE_LOCKED

__all__ = ["LockedCacheBackend"]


@register_backend("locked")
class LockedCacheBackend(HierarchyBackend):
    """Hot vertices pinned in the L2 via cache-line locking.

    Uses the same popularity partition as OMEGA (``mapping`` decides
    which vertices are "locked"), but a locked access behaves like a
    guaranteed L2 hit at its home bank: L2 latency, plus a crossbar
    *line* transfer whenever the bank is remote — no word-granularity
    packets, no PISC, atomics serialized on the cores.
    """

    def __init__(self, config: SimConfig, mapping: ScratchpadMapping) -> None:
        if config.use_pisc:
            raise SimulationError(
                "LockedCacheBackend has no PISCs; pass use_pisc=False"
            )
        super().__init__(config)
        self.mapping = mapping

    def prepass_mapping(self) -> Optional[ScratchpadMapping]:
        return self.mapping

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        routes = np.zeros(prepass.num_events, dtype=np.int8)
        routes[prepass.hot] = ROUTE_LOCKED
        return routes

    def account(self, ctx: ReplayContext, trace: Trace,
                prepass: TracePrepass, routes: np.ndarray) -> None:
        idx = np.flatnonzero(routes == ROUTE_LOCKED)
        if len(idx) == 0:
            return
        stats = ctx.stats
        config = ctx.config
        n = len(idx)
        cores = np.asarray(trace.core[idx], dtype=np.int64)
        remote = ~prepass.local[idx]
        n_remote = int(np.count_nonzero(remote))
        stats.l2_hits += n
        lat = np.full(n, float(config.l2_per_core.latency_cycles))
        if n_remote:
            # Locked lines move at line granularity; the transfer cost
            # is the topology's endpoint-free average.
            line_bytes = config.l1.line_bytes
            header = config.interconnect.header_bytes
            lat[remote] += ctx.crossbar.transfer_latency()
            ctx.crossbar.line_packets += n_remote
            ctx.crossbar.line_bytes += n_remote * (line_bytes + header)
            stats.onchip_line_bytes += n_remote * (line_bytes + header)
        account_latencies(ctx, cores, lat, prepass.atomic[idx],
                          family="locked")
