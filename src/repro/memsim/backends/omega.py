"""OMEGA: halved L2 + partitioned scratchpads + PISCs + source buffers."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext, add_core_sums
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.ckernel import FlatSourceBuffers
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import Microcode, PiscEngine
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import (
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
    ROUTE_SRCBUF_HIT,
)
from repro.memsim.srcbuffer import SourceVertexBuffer

__all__ = ["OmegaBackend"]


@register_backend("omega")
class OmegaBackend(HierarchyBackend):
    """OMEGA: halved L2 + partitioned scratchpads + PISCs + source buffers."""

    def __init__(
        self,
        config: SimConfig,
        mapping: ScratchpadMapping,
        microcode: Optional[Microcode] = None,
        dram_random_ranges=(),
    ) -> None:
        if not config.use_scratchpad:
            raise SimulationError(
                "OmegaBackend requires a config with use_scratchpad=True"
            )
        super().__init__(config)
        self.mapping = mapping
        self.microcode = microcode
        self.dram_random_ranges = tuple(dram_random_ranges)

    def prepass_mapping(self) -> Optional[ScratchpadMapping]:
        return self.mapping

    @property
    def _use_pisc(self) -> bool:
        return self.config.use_pisc and self.microcode is not None

    def prepare(self, ctx: ReplayContext) -> None:
        ctx.piscs = [PiscEngine(p) for p in range(ctx.ncores)]
        if self._use_pisc:
            for p in ctx.piscs:
                p.load_microcode(self.microcode)
        if self.config.use_source_buffer:
            entries = self.config.source_buffer_entries
            lib = ctx.system.kernel_lib()
            ctx.srcbufs = (
                FlatSourceBuffers(lib, ctx.ncores, entries)
                if lib is not None
                else [SourceVertexBuffer(entries) for _ in range(ctx.ncores)]
            )

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        routes = np.zeros(prepass.num_events, dtype=np.int8)
        hot = prepass.hot
        # Offload to the PISC: always for atomics; for plain
        # update-function writes only when the pad is remote (a local
        # owner-write is cheaper done by the core). Without PISCs the
        # core performs hot atomics itself over SP word accesses.
        if self._use_pisc:
            taken = hot & (prepass.atomic | (prepass.update & ~prepass.local))
            routes[taken] = ROUTE_SP_OFFLOAD
        else:
            taken = hot & prepass.atomic
            routes[taken] = ROUTE_SP_RMW
        plain = hot & ~taken
        routes[plain] = ROUTE_SP_PLAIN
        if ctx.srcbufs is not None:
            cand = (
                plain & prepass.src_read & ~prepass.write & ~prepass.local
            )
            hits = srcbuf_stage(ctx, trace, np.flatnonzero(cand))
            routes[hits] = ROUTE_SRCBUF_HIT
        return routes

    def account(self, ctx: ReplayContext, trace: Trace,
                prepass: TracePrepass, routes: np.ndarray) -> None:
        # Source-buffer hits: 1-cycle local reads. The stateful LRU walk
        # in srcbuf_stage decides them at route time, but they are
        # charged here so windowed/segmented replays attribute them to
        # the window they occur in.
        idx = np.flatnonzero(routes == ROUTE_SRCBUF_HIT)
        if len(idx):
            stats = ctx.stats
            stats.srcbuf_hits += len(idx)
            cores = np.asarray(trace.core[idx], dtype=np.int64)
            ones = np.ones(len(idx))
            if ctx.ledger is not None:
                ctx.ledger.add_mem("srcbuf", cores, ones)
            else:
                add_core_sums(
                    stats.core_mem_latency, cores, ones, ctx.ncores
                )
        super().account(ctx, trace, prepass, routes)


def srcbuf_stage(ctx: ReplayContext, trace: Trace,
                 cand_idx: np.ndarray) -> np.ndarray:
    """Run the stateful source-buffer LRU over its candidate events.

    Walks only the candidates (in trace order), applying the wholesale
    barrier invalidations at the positions the full scan would: in C
    when ``ctx.srcbufs`` is a :class:`FlatSourceBuffers`, else through
    the :class:`SourceVertexBuffer` objects. Returns the hit indices
    (charged by :meth:`OmegaBackend.account`); misses read-allocate and
    fall through to the plain-SP route.
    """
    srcbufs = ctx.srcbufs
    n = trace.num_events
    barriers = np.asarray(trace.barriers, dtype=np.int64)
    barriers = np.unique(barriers[(barriers >= 0) & (barriers < n)])
    if isinstance(srcbufs, FlatSourceBuffers):
        return srcbufs.walk(cand_idx, trace.core[cand_idx],
                            trace.addr[cand_idx], barriers)
    barriers = barriers.tolist()
    positions = cand_idx.tolist()
    cores = np.asarray(trace.core[cand_idx], dtype=np.int64).tolist()
    addrs = np.asarray(trace.addr[cand_idx], dtype=np.int64).tolist()
    hits: List[int] = []
    bi = 0
    nb = len(barriers)
    for j in range(len(positions)):
        p = positions[j]
        while bi < nb and barriers[bi] <= p:
            for buf in srcbufs:
                buf.invalidate_all()
            bi += 1
        if srcbufs[cores[j]].lookup(addrs[j]):
            hits.append(p)
    while bi < nb:
        for buf in srcbufs:
            buf.invalidate_all()
        bi += 1
    return np.asarray(hits, dtype=np.int64)
