"""The backend protocol: a memory hierarchy as a routing policy.

Subclasses validate their configuration in ``__init__``, spin up any
private structures in :meth:`HierarchyBackend.prepare` (PISCs, source
buffers), assign one ``ROUTE_*`` code per event in
:meth:`HierarchyBackend.route`, and charge everything that is not the
stateful cache path in :meth:`HierarchyBackend.account` (vectorized).
The template :meth:`HierarchyBackend.replay` delegates to the shared
driver (:func:`repro.memsim.replay.run_replay`), which owns the
pre-pass, the cache stage, and the per-core access counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SimConfig
from repro.ligra.trace import Trace
from repro.memsim.accounting import (
    ReplayContext,
    account_offload,
    account_sp_plain,
    account_sp_rmw,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import Microcode
from repro.memsim.prepass import TracePrepass
from repro.memsim.replay import ReplayOutput, run_replay, run_replay_segments
from repro.memsim.routes import (
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
)
from repro.obs.timeline import ReplaySampler

__all__ = ["HierarchyBackend"]


class HierarchyBackend:
    """A memory hierarchy as a routing policy over the shared engine."""

    #: Registry name; set by :func:`register_backend`.
    name = "?"

    #: Replay the cache path through the scalar reference oracle
    #: instead of the compiled kernel; the drivers copy
    #: :attr:`repro.core.context.RunContext.scalar_cache` here.
    scalar_cache: bool = False

    #: Off-chip bytes charged per in-memory atomic (non-zero only for
    #: PIM-style backends); read by the attribution accumulator so its
    #: per-class DRAM folds mirror the backend's accounting.
    pim_bytes_per_op = 0

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.dram_random_ranges = ()
        self.microcode: Optional[Microcode] = None

    # -- hooks ---------------------------------------------------------
    def prepass_mapping(self) -> Optional[ScratchpadMapping]:
        """Mapping used by the pre-pass for hot/home/local columns."""
        return None

    def prepare(self, ctx: ReplayContext) -> None:
        """Create backend-private structures before routing."""

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        """Assign one ROUTE_* code per event (default: all cache)."""
        return np.zeros(prepass.num_events, dtype=np.int8)

    def account(self, ctx: ReplayContext, trace: Trace,
                prepass: TracePrepass, routes: np.ndarray) -> None:
        """Batch-account all non-cache routes (scratchpad family)."""
        home = ctx.sp_home if ctx.sp_home is not None else prepass.home
        local = ctx.sp_local if ctx.sp_local is not None else prepass.local
        account_sp_plain(
            ctx, trace, prepass, np.flatnonzero(routes == ROUTE_SP_PLAIN),
            home, local,
        )
        account_sp_rmw(
            ctx, trace, prepass, np.flatnonzero(routes == ROUTE_SP_RMW),
            home, local,
        )
        off = np.flatnonzero(routes == ROUTE_SP_OFFLOAD)
        if len(off):
            account_offload(
                ctx, trace, prepass, off, self.microcode, home, local
            )

    def finalize(self, ctx: ReplayContext) -> None:
        """Post-accounting fixups (e.g. fold PIM occupancy)."""

    # -- the engine ----------------------------------------------------
    def replay(self, trace: Trace,
               sampler: Optional[ReplaySampler] = None,
               attribution=None) -> ReplayOutput:
        """Replay ``trace``: pre-pass, route, cache stage, accounting.

        Delegates to :func:`repro.memsim.replay.run_replay`; see its
        docstring for the windowed-sampling and attribution contracts.
        """
        return run_replay(self, trace, sampler, attribution)

    def replay_segments(self, segments,
                        sampler: Optional[ReplaySampler] = None,
                        attribution=None) -> ReplayOutput:
        """Replay a segmented trace stream with bounded resident memory.

        ``segments`` is a :class:`repro.ligra.segments.SegmentedTrace`
        (an interleaved archive). Counters are bit-identical to
        :meth:`replay` over the materialized trace; see
        :func:`repro.memsim.replay.run_replay_segments`.
        """
        return run_replay_segments(self, segments, sampler, attribution)
