"""Analytic fast-path estimator: predict replay counters without replay.

The replay engine's cost is its stateful cache kernel. This module
predicts the MemStats-level headline counters — cache hit rates, DRAM
read traffic, scratchpad/offload shares — from trace *structure*
alone:

1. The real pre-pass and routing stages run exactly as in
   :func:`repro.memsim.replay.run_replay` (so scratchpad, offload,
   source-buffer, locked-region and PIM shares are **exact**: routing
   is a pure function of the trace and the backend's training state,
   not of cache contents).
2. Cache-routed events go through a *reuse-gap* model instead of the
   stateful kernel: an access is predicted to hit its L1 iff the
   previous access of the same core to the same line is at most
   ``ways`` accesses of that (core, L1-set) slot back. First touches
   are misses. The same rule, applied to the predicted-miss
   subsequence in (bank, L2-set) slots with the L2's associativity,
   predicts L2 hits.
3. Predicted DRAM read traffic is the predicted L2 miss count times
   the line size; write traffic uses the write-triggered subset of
   those misses as a dirty-eviction proxy.

Step 2 runs as one C pass in trace order (``estimate_batch`` in
``ckernel.c``: per slot, a ring of the lines of its last ``ways``
accesses) whenever the cache path runs compiled. Under the
scalar oracle — ``RunContext.scalar_cache`` (``REPRO_SCALAR_CACHE``)
or no C compiler — :func:`predict_reuse_gaps` computes the same counts with
numpy sorts (:func:`predict_slot_hits`); the parity suite holds the
two equal at tolerance 0.

The model is deliberately *approximate* where the kernel is stateful:
the reuse gap counts slot accesses rather than distinct intervening
lines (a pessimistic bias — repeats inflate the gap), there is no
cross-core coherence (invalidations make the model optimistic for
write-shared lines), no prefetcher, and no warm state across calls.
``docs/performance.md`` documents the measured error envelope; the
property suite (``tests/property/test_estimate.py``) pins the
conservation invariants that hold regardless of workload.

Determinism (DET001): this module takes no wall-clock time and draws
no randomness — identical inputs give identical estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.config import SimConfig
from repro.ligra.trace import Trace
from repro.memsim.accounting import LatencyLedger, ReplayContext
from repro.memsim.cachestate import CacheSystem
from repro.memsim.ckernel import estimate_batch
from repro.memsim.dram import DramModel
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import precompute
from repro.memsim.routes import (
    ROUTE_CACHE,
    ROUTE_LOCKED,
    ROUTE_PIM,
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
    ROUTE_SRCBUF_HIT,
)
from repro.memsim.stats import MemStats

__all__ = [
    "ReplayEstimate",
    "estimate_replay",
    "predict_reuse_gaps",
    "predict_slot_hits",
]


def _slot_argsort(slot: np.ndarray) -> np.ndarray:
    """Stable argsort of the small-range slot keys.

    Slot ids are bounded by ncores * num_sets, so they almost always
    fit int16 — where numpy's stable sort is a radix sort, several
    times faster than the int64 comparison sort.
    """
    if len(slot) and int(slot.max()) < 32768:
        return np.argsort(slot.astype(np.int16), kind="stable")
    return np.argsort(slot, kind="stable")


@dataclass
class ReplayEstimate:
    """Predicted headline counters for one (backend, trace) pair.

    Route-derived fields (``sp_*``, ``offloads``, ``srcbuf_hits``,
    ``locked_events``, ``pim_events``) are exact; cache-level fields
    (``l1_*``, ``l2_*``, ``dram_*``) come from the reuse-gap model.
    """

    events: int = 0
    cache_events: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    sp_plain: int = 0
    sp_rmw: int = 0
    offloads: int = 0
    srcbuf_hits: int = 0
    locked_events: int = 0
    pim_events: int = 0
    #: Raw route-code histogram (route code -> event count).
    route_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def l1_hit_rate(self) -> float:
        """Predicted L1 hit rate over cache-routed events."""
        return self.l1_hits / self.cache_events if self.cache_events else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Predicted L2 hit rate over predicted L1 misses."""
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def sp_events(self) -> int:
        """Events absorbed by the scratchpad port (exact)."""
        return self.sp_plain + self.sp_rmw + self.offloads

    @property
    def offload_fraction(self) -> float:
        """Fire-and-forget offload share of all events (exact)."""
        return self.offloads / self.events if self.events else 0.0

    @property
    def sp_fraction(self) -> float:
        """Scratchpad-routed share of all events (exact)."""
        return self.sp_events / self.events if self.events else 0.0

    @property
    def dram_bytes(self) -> int:
        """Predicted total DRAM traffic."""
        return self.dram_read_bytes + self.dram_write_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric form — the namespace prune specs evaluate in."""
        return {
            "events": self.events,
            "cache_events": self.cache_events,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "dram_bytes": self.dram_bytes,
            "sp_plain": self.sp_plain,
            "sp_rmw": self.sp_rmw,
            "offloads": self.offloads,
            "sp_events": self.sp_events,
            "sp_fraction": self.sp_fraction,
            "offload_fraction": self.offload_fraction,
            "srcbuf_hits": self.srcbuf_hits,
            "locked_events": self.locked_events,
            "pim_events": self.pim_events,
        }


def predict_slot_hits(
    slots: np.ndarray, keys: np.ndarray, ways: int
) -> np.ndarray:
    """Reuse-gap hit prediction for one level of set-associative cache.

    ``slots[i]`` names the set the i-th access indexes (already fused
    with the core/bank id so distinct caches never share a slot) and
    ``keys[i]`` the line it touches. An access is predicted to *hit*
    iff the nearest earlier access to the same ``(slot, key)`` is at
    most ``ways`` accesses away *within that slot* — i.e. at most
    ``ways - 1`` slot accesses intervene, which bounds the number of
    distinct intervening lines an LRU set of ``ways`` ways can absorb
    without evicting the key. First touches always predict a miss.

    The gap counts slot *accesses*, not distinct lines, so repeated
    touches of one hot line inflate the gap and the model errs toward
    predicting misses (pessimistic for hits, conservative for DRAM
    traffic). This is the numpy form: a radix argsort into slot-major
    order and a ``lexsort`` into (slot, key)-major order. It is the
    reference for the compiled ``estimate_batch`` and the estimator's
    path when the cache runs through the scalar oracle.
    """
    n = len(slots)
    out = np.zeros(n, dtype=bool)
    if n < 2 or ways <= 0:
        return out
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    # Slot-major, batch-stable order; per-slot sequence numbers.
    so = _slot_argsort(slots)
    ss = slots[so]
    rank = np.arange(n, dtype=np.int64)
    new_slot = np.empty(n, dtype=bool)
    new_slot[0] = True
    np.not_equal(ss[1:], ss[:-1], out=new_slot[1:])
    starts = np.flatnonzero(new_slot)
    sizes = np.diff(np.append(starts, n))
    rank -= np.repeat(starts, sizes)
    # (slot, key)-major order, still batch-stable: lexsort's last key
    # is primary, and ties keep the slot-major (= batch) order.
    o2 = np.lexsort((keys[so], ss))
    k2 = keys[so][o2]
    s2 = ss[o2]
    r2 = rank[o2]
    same = (s2[1:] == s2[:-1]) & (k2[1:] == k2[:-1])
    hit2 = same & ((r2[1:] - r2[:-1]) <= ways)
    out[so[o2[1:][hit2]]] = True
    return out


def predict_reuse_gaps(
    routes: np.ndarray,
    cores: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    geometry: BankGeometry,
    l1: Tuple[int, int],
    l2: Tuple[int, int],
) -> Tuple[int, int, int]:
    """The reuse-gap model over the cache-routed events, in numpy.

    ``l1`` and ``l2`` are ``(sets, ways)``; ``geometry`` gives the
    core/bank count and the bank interleave. Returns ``(l1_hits,
    l2_hits, l2_miss_writes)`` — the counts
    :func:`repro.memsim.ckernel.estimate_batch` computes in C.
    """
    cache_idx = np.flatnonzero(routes == ROUTE_CACHE)
    cores = np.asarray(cores, dtype=np.int64)[cache_idx]
    lines = np.asarray(lines, dtype=np.int64)[cache_idx]
    l1_hit = predict_slot_hits(cores * l1[0] + lines % l1[0], lines, l1[1])
    miss = ~l1_hit
    miss_lines = lines[miss]
    banks = geometry.banks_of(miss_lines)
    bank_keys = geometry.bank_keys_of(miss_lines)
    l2_hit = predict_slot_hits(
        banks * l2[0] + bank_keys % l2[0], bank_keys, l2[1]
    )
    miss_writes = np.asarray(writes, dtype=bool)[cache_idx][miss] & ~l2_hit
    return (int(np.count_nonzero(l1_hit)), int(np.count_nonzero(l2_hit)),
            int(np.count_nonzero(miss_writes)))


def estimate_replay(backend, trace: Trace) -> ReplayEstimate:
    """Predict replay counters for ``trace`` through ``backend``.

    Runs the backend's real prepare/route stages (so the estimate
    sees the same routing a replay would — including training-state
    routes like the dynamic scratchpad's frequency filter) and then
    the reuse-gap cache model instead of the stateful kernel: one C
    pass (:func:`repro.memsim.ckernel.estimate_batch`) when the cache
    path runs compiled, else :func:`predict_reuse_gaps`. Never touches
    :meth:`CacheSystem.replay_cache_path`.
    """
    config: SimConfig = backend.config
    ncores = config.core.num_cores
    stats = MemStats(num_cores=ncores)
    dram = DramModel(config.dram)
    dram.set_random_ranges(backend.dram_random_ranges)
    crossbar = Crossbar(config.interconnect, ncores)
    system = CacheSystem(
        config, stats, dram, crossbar, scalar_cache=backend.scalar_cache
    )
    ctx = ReplayContext(
        config=config, stats=stats, dram=dram, crossbar=crossbar,
        system=system, ncores=ncores, ledger=LatencyLedger(ncores),
    )
    backend.prepare(ctx)

    seg = trace.interleaved()
    prepass = precompute(seg, config, mapping=backend.prepass_mapping())
    routes = backend.route(ctx, seg, prepass)

    est = ReplayEstimate(events=int(prepass.num_events))
    nonneg = routes[routes >= 0]
    counts = np.bincount(nonneg, minlength=int(ROUTE_PIM) + 1)
    est.route_counts = {
        int(code): int(c) for code, c in enumerate(counts) if c
    }
    est.sp_plain = int(counts[ROUTE_SP_PLAIN])
    est.sp_rmw = int(counts[ROUTE_SP_RMW])
    est.offloads = int(counts[ROUTE_SP_OFFLOAD])
    est.srcbuf_hits = int(counts[ROUTE_SRCBUF_HIT])
    est.locked_events = int(counts[ROUTE_LOCKED])
    est.pim_events = int(counts[ROUTE_PIM])
    est.cache_events = int(counts[ROUTE_CACHE])
    if not est.cache_events:
        return est

    lib = system.kernel_lib()
    levels = (
        (config.l1.num_sets, config.l1.ways),
        (config.l2_per_core.num_sets, config.l2_per_core.ways),
    )
    args = (routes, seg.core, prepass.lines, prepass.write,
            system.geometry, *levels)
    l1_hits, l2_hits, l2_miss_writes = (
        estimate_batch(lib, *args) if lib is not None
        else predict_reuse_gaps(*args)
    )
    est.l1_hits = l1_hits
    est.l1_misses = est.cache_events - l1_hits
    est.l2_hits = l2_hits
    est.l2_misses = est.l1_misses - l2_hits
    line_bytes = config.l1.line_bytes
    est.dram_read_bytes = est.l2_misses * line_bytes
    est.dram_write_bytes = l2_miss_writes * line_bytes
    return est
