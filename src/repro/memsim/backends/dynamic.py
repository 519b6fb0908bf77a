"""Dynamic hot-set identification (Section VI), made measurable."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.ckernel import FlatDynamicPads
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import Microcode, PiscEngine
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import ROUTE_SP_OFFLOAD, ROUTE_SP_PLAIN

__all__ = ["DynamicPads", "DynamicScratchpadBackend"]


class DynamicPads:
    """The frequency-weighted vertex sets, one Python step per event.

    The scalar oracle of the dynamic backend's trainer, and its path
    when the cache path runs through the oracle or no compiler exists;
    :class:`~repro.memsim.ckernel.FlatDynamicPads` is the compiled twin
    with the same :meth:`train`, :meth:`sets` and :meth:`counts`.
    """

    def __init__(self, num_sets: int, slots: int) -> None:
        self.slots = slots
        self._sets: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self._freq: Dict[int, int] = {}

    def train(self, vtxprop: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Train on one segment's events; returns the resident mask.

        Every vtxProp event of a vertex ``v >= 0`` bumps ``v``'s running
        count and offers ``v`` to set ``v % num_sets``: a resident ``v``
        takes the new count, a set with room takes ``v``, and a full
        set evicts its least-count entry (the first such, in insertion
        order) for ``v`` only when that count is below ``v``'s.
        """
        idx = np.flatnonzero(vtxprop & (vertex >= 0))
        sets, freq, slots = self._sets, self._freq, self.slots
        num_sets = len(sets)
        flags = [False] * len(idx)
        for j, v in enumerate(vertex[idx].tolist()):
            count = freq.get(v, 0) + 1
            freq[v] = count
            entry_set = sets[v % num_sets]
            if v in entry_set or len(entry_set) < slots:
                entry_set[v] = count
                flags[j] = True
                continue
            victim = min(entry_set, key=entry_set.get)
            if entry_set[victim] < count:
                del entry_set[victim]
                entry_set[v] = count
                flags[j] = True
        resident = np.zeros(len(vertex), dtype=bool)
        resident[idx] = flags
        return resident

    def sets(self) -> List[Dict[int, int]]:
        """Per set, vertex -> count in insertion order."""
        return [dict(s) for s in self._sets]

    def counts(self) -> Dict[int, int]:
        """Every trained vertex's running access count."""
        return dict(self._freq)


@register_backend("dynamic")
class DynamicScratchpadBackend(HierarchyBackend):
    """Section VI's *dynamic* hot-set identification, made measurable.

    The scratchpads are managed as a frequency-weighted vertex cache:
    any vtxProp access may allocate its vertex into the
    (hash-partitioned) pads, and on conflict the entry with the higher
    running access count stays. Hits behave like OMEGA scratchpad
    accesses (atomics offload to the PISC); misses fall through to the
    cache path and train the frequency counters. Runs on the
    *original* vertex ordering — no preprocessing pass.
    """

    def __init__(
        self,
        config: SimConfig,
        capacity_vertices: int,
        microcode: Optional[Microcode] = None,
        slots_per_set: int = 4,
    ) -> None:
        if not config.use_scratchpad:
            raise SimulationError(
                "DynamicScratchpadBackend needs an OMEGA-style config"
            )
        if capacity_vertices < 0:
            raise SimulationError(
                f"capacity must be >= 0, got {capacity_vertices}"
            )
        if slots_per_set <= 0:
            raise SimulationError(
                f"slots_per_set must be > 0, got {slots_per_set}"
            )
        super().__init__(config)
        self.capacity_vertices = capacity_vertices
        self.microcode = microcode
        self.slots_per_set = slots_per_set

    @property
    def _use_pisc(self) -> bool:
        return self.config.use_pisc and self.microcode is not None

    def prepare(self, ctx: ReplayContext) -> None:
        ctx.piscs = [PiscEngine(p) for p in range(ctx.ncores)]
        if self._use_pisc:
            for p in ctx.piscs:
                p.load_microcode(self.microcode)
        # The frequency trainer's state lives on the context so it
        # carries across trace segments: counts learned in segment k
        # keep deciding victims in segment k+1, exactly as they would
        # in one whole-trace pass. It runs compiled exactly when the
        # cache path does.
        pads = None
        if self.capacity_vertices > 0:
            num_sets = max(1, self.capacity_vertices // self.slots_per_set)
            lib = ctx.system.kernel_lib()
            pads = (
                FlatDynamicPads(lib, num_sets, self.slots_per_set)
                if lib is not None
                else DynamicPads(num_sets, self.slots_per_set)
            )
        ctx.extra["dyn_pads"] = pads

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        n = prepass.num_events
        routes = np.zeros(n, dtype=np.int8)
        pads = ctx.extra["dyn_pads"]
        if pads is None or n == 0:
            return routes
        verts_all = np.ascontiguousarray(trace.vertex, dtype=np.int64)
        resident = pads.train(prepass.vtxprop, verts_all)
        # Dynamic pads hash by vertex id (a chunk-1 interleave), not by
        # the static chunked map.
        ctx.sp_home = np.where(
            verts_all >= 0,
            ScratchpadMapping(ctx.ncores, 0, chunk_size=1).home_many(
                verts_all),
            0,
        )
        ctx.sp_local = ctx.sp_home == trace.core
        if self._use_pisc:
            off = resident & prepass.atomic
            routes[off] = ROUTE_SP_OFFLOAD
            routes[resident & ~off] = ROUTE_SP_PLAIN
        else:
            routes[resident] = ROUTE_SP_PLAIN
        return routes

    def tag_overhead_fraction(self, vtxprop_entry_bytes: int,
                              tag_bytes: int = 4) -> float:
        """Storage overhead of the dynamic approach's per-entry tags.

        The paper's rejection argument: "2x overhead for BFS assuming
        32 bits per tag entry and 32 bits per vtxProp entry".
        """
        if vtxprop_entry_bytes <= 0:
            raise SimulationError(
                f"entry bytes must be > 0, got {vtxprop_entry_bytes}"
            )
        return tag_bytes / vtxprop_entry_bytes
