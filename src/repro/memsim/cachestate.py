"""The stateful cache path: set-associative state and the batch kernel.

:class:`CacheSystem` owns everything a cache-routed event can touch —
per-core L1s, the banked L2, the MESI directory, the stream
prefetcher, DRAM row state, interconnect accounting — and replays
pre-routed event batches over it along one of two *bit-identical*
paths:

- the **scalar oracle** (:meth:`CacheSystem.access`, driven by
  :meth:`CacheSystem._replay_generic`): one event per Python
  iteration over the :class:`Cache` / :class:`Directory` /
  :class:`StreamDetector` objects, the seed semantics. Selected by
  ``scalar_cache=True`` (a run's ``RunContext.scalar_cache``), and
  the fallback when the compiled kernel cannot be built.
- the **compiled kernel** (:meth:`CacheSystem._replay_compiled`): the
  whole batch in one C call over flat array state
  (:mod:`repro.memsim.ckernel`), reading the segment's full columns in
  place; Python folds its counter deltas into the model objects.

A system uses one path for its whole life: in kernel mode the model
objects carry the counters only, and :meth:`CacheSystem.state` is the
one view of the final cache, directory, prefetcher and DRAM state.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, List, Optional

import numpy as np

from repro.config import SimConfig
from repro.memsim.cache import Cache
from repro.ligra.trace import FLAG_ATOMIC, FLAG_WRITE, check_core_ids
from repro.memsim.ckernel import REPLAY_COLUMNS, FlatCacheState, load_kernel
from repro.memsim.coherence import Directory
from repro.memsim.dram import DramModel
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import StreamDetector
from repro.memsim.routes import ROUTE_CACHE
from repro.memsim.stats import MemStats

__all__ = [
    "CacheBatch",
    "CacheRecord",
    "CacheSystem",
    "KernelTelemetry",
    "iter_set_bits",
]


class CacheBatch:
    """The events ``[start, end)`` of one segment, as full columns.

    What :meth:`CacheSystem.replay_cache_path` replays: ``core``,
    ``addr`` and ``flags`` are the segment's trace columns and
    ``routes`` the backend's route codes, all read in place by the
    kernel. Only the cache-routed events run through the caches, but
    every event of the range counts toward its core's accesses.
    ``len()`` is the number of cache-routed events.
    """

    __slots__ = ("core", "addr", "flags", "routes", "start", "end")

    def __init__(self, core: np.ndarray, addr: np.ndarray,
                 flags: np.ndarray, routes: np.ndarray, start: int = 0,
                 end: Optional[int] = None) -> None:
        if core.dtype != np.int16:
            check_core_ids(core)  # before the narrowing cast hides a bad id
        self.core, self.addr, self.flags, self.routes = (
            np.ascontiguousarray(col, dtype=dtype)
            for (_, dtype), col in zip(REPLAY_COLUMNS,
                                       (core, addr, flags, routes))
        )
        self.start = start
        self.end = len(self.core) if end is None else end

    def positions(self) -> np.ndarray:
        """Column positions of the range's cache-routed events."""
        routes = self.routes[self.start:self.end]
        return np.flatnonzero(routes == ROUTE_CACHE) + self.start

    def __len__(self) -> int:
        routes = self.routes[self.start:self.end]
        return int(np.count_nonzero(routes == ROUTE_CACHE))


class CacheRecord:
    """Per-event outcome columns of one cache batch (attribution).

    Optional observability sidecar of :meth:`CacheSystem.replay_cache_path`:
    when passed, both execution paths fill one row per cache-routed
    event, in order, at the exact counter-increment sites, so column
    sums reproduce the batch's
    ``MemStats`` deltas bit-identically. ``l1_hit`` *defaults* to
    True — only the miss path flips it.

    ``writebacks`` counts dirty-line DRAM write-backs *triggered by*
    the event (an L1-victim's L2 insertion plus the demand miss's own
    L2 eviction can both fire, so the count reaches 2); each one is
    ``line_bytes`` of DRAM write traffic.
    """

    __slots__ = ("l1_hit", "l2_hit", "l2_miss", "prefetch", "writebacks")

    def __init__(self, n: int) -> None:
        self.l1_hit = np.ones(n, dtype=bool)
        self.l2_hit = np.zeros(n, dtype=bool)
        self.l2_miss = np.zeros(n, dtype=bool)
        self.prefetch = np.zeros(n, dtype=bool)
        self.writebacks = np.zeros(n, dtype=np.int64)


def iter_set_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, LSB first.

    The oracle's sharer-bitmask walk: invalidation targets are the
    set bits of a directory mask.
    """
    pos = 0
    while mask:
        if mask & 1:
            yield pos
        mask >>= 1
        pos += 1


class KernelTelemetry:
    """Batch and event counts of a system's compiled-kernel replays.

    One instance lives on each :class:`CacheSystem` and accumulates
    over every kernel batch the system replays (all segments and
    windows of a run); the manifest's ``replay.kernel`` block and the
    Perfetto counter track read from here. The scalar oracle never
    touches it: ``batches`` stays 0 and the replay block reports mode
    "scalar".
    """

    __slots__ = ("batches", "events")

    def __init__(self) -> None:
        self.batches = 0
        self.events = 0

    def as_dict(self) -> dict:
        """The manifest shape of the counters (JSON-safe)."""
        return {"batches": self.batches, "events": self.events}


class CacheSystem:
    """The shared cache path: L1s + banked L2 + directory + DRAM.

    Exposes both the scalar :meth:`access` (seed semantics, the
    reference oracle) and :meth:`replay_cache_path`, which replays a
    whole batch through the compiled kernel. ``fast_path_ok`` selects
    the kernel; it starts ``False`` only for ``scalar_cache=True``, and
    it drops to ``False`` at the first :meth:`kernel_lib` call when the
    kernel cannot be built.
    """

    def __init__(self, config: SimConfig, stats: MemStats,
                 dram: DramModel, crossbar: Crossbar,
                 scalar_cache: bool = False) -> None:
        ncores = config.core.num_cores
        self.config = config
        self.stats = stats
        self.dram = dram
        self.crossbar = crossbar
        self.l1s = [Cache(config.l1, f"l1.{c}") for c in range(ncores)]
        self.l2_banks = [
            Cache(config.l2_per_core, f"l2.{b}") for b in range(ncores)
        ]
        self.directory = Directory(ncores)
        self.ncores = ncores
        self.geometry = BankGeometry(
            num_banks=ncores, line_bytes=config.l1.line_bytes
        )
        self.line_bytes = self.geometry.line_bytes
        self.line_bits = self.geometry.line_bits
        self.l1_lat = config.l1.latency_cycles
        self.l2_lat = config.l2_per_core.latency_cycles
        self.remote_lat = config.interconnect.remote_latency_cycles
        # An OoO core's stride prefetcher hides the latency of
        # sequential line streams (edgeList scans); the fetch itself
        # (traffic, cache fills) still happens.
        self.prefetcher = StreamDetector(ncores)
        #: Whether replay_cache_path may use the compiled kernel. The
        #: kernel covers every topology and page policy; only the
        #: scalar oracle (or a missing compiler) disables it.
        self.fast_path_ok = not scalar_cache
        #: Batch/event counts over every kernel batch this system
        #: replays (see :class:`KernelTelemetry`).
        self.kernel_telemetry = KernelTelemetry()
        #: Kernel-mode state, built at the first kernel batch.
        self._flat: Optional[FlatCacheState] = None

    # ------------------------------------------------------------------
    # Scalar oracle (reference semantics + external callers)
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, write: bool) -> float:
        """One cache-path access; returns the latency seen by the core."""
        line = addr >> self.line_bits
        stats = self.stats
        l1 = self.l1s[core]
        latency = float(self.l1_lat)
        hit, dirty_victim = l1.access_line(line, write)
        if hit:
            stats.l1_hits += 1
            if write:
                inval_mask, writeback = self.directory.on_write(line, core)
                if inval_mask:
                    latency += self._invalidate(inval_mask, line, core)
                if writeback:
                    latency += self._fetch_modified(line)
            return latency

        stats.l1_misses += 1
        # Coherence action for the fill.
        if write:
            inval_mask, writeback = self.directory.on_write(line, core)
            if inval_mask:
                latency += self._invalidate(inval_mask, line, core)
        else:
            _, writeback = self.directory.on_read(line, core)
        if writeback:
            latency += self._fetch_modified(line)
        if dirty_victim is not None:
            self._writeback_to_l2(dirty_victim, core)
            self.directory.on_eviction(dirty_victim, core)

        # L2 lookup at the line's home bank.
        bank = self.geometry.bank_of(line)
        bank_key = self.geometry.bank_key_of(line)
        if bank != core:
            latency += self.crossbar.line_transfer(self.line_bytes, core, bank)
            stats.onchip_line_bytes += (
                self.line_bytes + self.crossbar.config.header_bytes
            )
        latency += self.l2_lat
        l2hit, l2_dirty_victim = self.l2_banks[bank].access_line(bank_key, write)
        if l2hit:
            stats.l2_hits += 1
        else:
            stats.l2_misses += 1
            stats.dram_read_bytes += self.line_bytes
            latency += self.dram.read(self.line_bytes, addr)
        if l2_dirty_victim is not None:
            victim_addr = self.geometry.victim_addr(l2_dirty_victim, bank)
            self.dram.write(self.line_bytes, victim_addr)
            stats.dram_write_bytes += self.line_bytes
        # A stream prefetcher hides the fill latency of sequential line
        # runs; the traffic and cache-state changes above still stand.
        if self.prefetcher.observe(core, line):
            stats.prefetch_hits += 1
            latency = float(self.l1_lat + 1)
        return latency

    def _invalidate(self, inval_mask: int, line: int, writer: int) -> float:
        """Invalidate other cores' L1 copies; returns added latency."""
        stats = self.stats
        for c in iter_set_bits(inval_mask):
            self.l1s[c].invalidate_line(line)
            stats.onchip_word_bytes += self.crossbar.config.header_bytes
            self.crossbar.control_message()
            stats.coherence_invalidations += 1
        # The writer waits one round trip for the acks, not one per copy.
        return float(self.remote_lat)

    def _fetch_modified(self, line: int) -> float:
        """Cache-to-cache transfer of a modified line."""
        self.stats.onchip_line_bytes += (
            self.line_bytes + self.crossbar.config.header_bytes
        )
        return float(self.crossbar.line_transfer(self.line_bytes))

    def _writeback_to_l2(self, line: int, core: int) -> None:
        """Write a dirty L1 victim back to its L2 bank."""
        bank = self.geometry.bank_of(line)
        bank_key = self.geometry.bank_key_of(line)
        if bank != core:
            self.crossbar.line_transfer(self.line_bytes, core, bank)
            self.stats.onchip_line_bytes += (
                self.line_bytes + self.crossbar.config.header_bytes
            )
        _, l2_dirty_victim = self.l2_banks[bank].access_line(bank_key, True)
        if l2_dirty_victim is not None:
            victim_addr = self.geometry.victim_addr(l2_dirty_victim, bank)
            self.dram.write(self.line_bytes, victim_addr)
            self.stats.dram_write_bytes += self.line_bytes

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def replay_cache_path(
        self,
        batch: CacheBatch,
        mem_lat: List[float],
        serial: List[float],
        record: Optional[CacheRecord] = None,
    ) -> int:
        """Replay a batch's cache-routed events; returns their number.

        Every event of the batch's range adds one to its core's
        ``stats.core_accesses``. Per-core memory-latency and
        serialization sums accumulate into ``mem_lat``/``serial``;
        atomic events get the core-executed split
        (``atomic_serialization`` of the latency serializes, plus the
        fixed stall). ``record`` (a :class:`CacheRecord` with one row
        per cache-routed event) additionally captures per-event
        outcomes for traffic attribution; both paths fill it at the
        counter-increment sites. The kernel reads the batch's columns in
        place; only the scalar oracle gathers the cache-routed events.
        """
        if self.fast_path_ok:
            events = self._replay_compiled(batch, mem_lat, serial, record)
            if events is not None:
                return events
        lo, hi = batch.start, batch.end
        self._add_core_accesses(np.bincount(
            batch.core[lo:hi], minlength=self.ncores
        ).tolist())
        idx = batch.positions()
        flags = batch.flags[idx]
        self._replay_generic(
            batch.core[idx].tolist(),
            batch.addr[idx].tolist(),
            ((flags & FLAG_WRITE) != 0).tolist(),
            ((flags & FLAG_ATOMIC) != 0).tolist(),
            mem_lat, serial, record,
        )
        return len(idx)

    def _add_core_accesses(self, counts: List[int]) -> None:
        accesses = self.stats.core_accesses
        for c, count in enumerate(counts):
            accesses[c] += count

    def _replay_generic(self, cores, addrs, writes, atomics,
                        mem_lat, serial, record=None) -> None:
        """Scalar oracle: per-event :meth:`access` (seed semantics).

        With ``record`` set, per-event outcomes are recovered by
        differencing the stats counters around each access — the
        oracle-side twin of the kernel's in-loop capture, guaranteed
        to match the aggregate increments by construction.
        """
        stats = self.stats
        access = self.access
        core_cfg = self.config.core
        atomic_stall = core_cfg.atomic_stall_cycles
        atomic_ser = core_cfg.atomic_serialization
        line_bytes = self.line_bytes
        i = -1
        for core, addr, write, atomic in zip(cores, addrs, writes, atomics):
            i += 1
            if record is not None:
                p_l1m = stats.l1_misses
                p_l2h = stats.l2_hits
                p_l2m = stats.l2_misses
                p_pref = stats.prefetch_hits
                p_dw = stats.dram_write_bytes
            latency = access(core, addr, write)
            if record is not None:
                if stats.l1_misses != p_l1m:
                    record.l1_hit[i] = False
                record.l2_hit[i] = stats.l2_hits != p_l2h
                record.l2_miss[i] = stats.l2_misses != p_l2m
                record.prefetch[i] = stats.prefetch_hits != p_pref
                record.writebacks[i] = (
                    (stats.dram_write_bytes - p_dw) // line_bytes
                )
            if atomic:
                stats.atomics_total += 1
                stats.atomics_on_cores += 1
                serial[core] += latency * atomic_ser + atomic_stall
                mem_lat[core] += latency * (1.0 - atomic_ser)
            else:
                mem_lat[core] += latency

    def kernel_lib(self) -> Optional[ctypes.CDLL]:
        """The compiled kernel library when this system runs compiled.

        ``None`` under the scalar oracle; when the kernel cannot be
        built, ``fast_path_ok`` drops to ``False`` here, for good. The
        estimator and OMEGA's source buffers ask here too, so they run
        compiled exactly when the cache path does.
        """
        if not self.fast_path_ok:
            return None
        lib = load_kernel()
        if lib is None:
            self.fast_path_ok = False  # no kernel: the oracle from here on
        return lib

    def _replay_compiled(self, batch: CacheBatch, mem_lat, serial,
                         record=None) -> Optional[int]:
        """One kernel pass over the whole batch, then the counter fold.

        Returns the number of cache-routed events replayed, or ``None``,
        having replayed nothing, when the kernel is unavailable (the
        flat state is built at the first batch, so constructing a system
        never compiles or loads anything). The kernel folds each event's
        latency into ``mem_lat`` / ``serial`` in event order — the same
        float operations, in the same order, as :meth:`_replay_generic`
        — and returns its counter deltas, which land here on the same
        model objects (stats, caches, directory, crossbar, DRAM) the
        oracle updates.
        """
        if self._flat is None:
            lib = self.kernel_lib()
            if lib is None:
                return None
            self._flat = FlatCacheState(lib, self.config, self.crossbar,
                                        self.prefetcher.num_heads)
        dram = self.dram
        ranges = (dram._random_ranges
                  if self.config.dram.page_policy == "hybrid" else ())
        k = self._flat.replay(
            batch.core, batch.addr, batch.flags, batch.routes, batch.start,
            batch.end, mem_lat, serial, dram._open_rows, ranges, record,
        )
        self._add_core_accesses(k["events"])
        events = k["cache_events"]
        if not events:
            return 0
        kt = self.kernel_telemetry
        kt.batches += 1
        kt.events += events

        stats, xbar = self.stats, self.crossbar
        header = xbar.config.header_bytes
        line_bytes = self.line_bytes
        inval = k["invalidations"]
        packets = k["line_packets"]
        reads = k["demand_l2_misses"]
        writebacks = k["dram_writes"]
        stats.l1_hits += sum(k["l1_hits"])
        stats.l1_misses += sum(k["l1_misses"])
        stats.l2_hits += k["demand_l2_hits"]
        stats.l2_misses += reads
        stats.prefetch_hits += k["prefetch"]
        stats.onchip_line_bytes += packets * (line_bytes + header)
        stats.onchip_word_bytes += inval * header
        stats.coherence_invalidations += inval
        stats.dram_read_bytes += reads * line_bytes
        stats.dram_write_bytes += writebacks * line_bytes
        stats.atomics_total += k["atomics"]
        stats.atomics_on_cores += k["atomics"]
        for level, caches in (("l1", self.l1s), ("l2", self.l2_banks)):
            for name in ("hits", "misses", "evictions", "dirty_evictions"):
                for cache, count in zip(caches, k[f"{level}_{name}"]):
                    setattr(cache, name, getattr(cache, name) + count)
        self.directory.invalidations += inval
        self.directory.writebacks += k["dir_writebacks"]
        xbar.line_packets += packets
        xbar.line_bytes += packets * (line_bytes + header)
        xbar.control_packets += inval
        xbar.control_bytes += inval * header
        dram.read_accesses += reads
        dram.read_bytes += reads * line_bytes
        dram.write_accesses += writebacks
        dram.write_bytes += writebacks * line_bytes
        dram.row_hits += k["row_hits"]
        dram.row_misses += k["row_misses"]
        return events

    # ------------------------------------------------------------------
    # State export
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The final cache path state, identical in shape for both paths.

        ``l1``/``l2``: per core (bank), per set, the resident
        ``(line, dirty)`` pairs in LRU order (least recent first; L2
        entries are bank-local keys). ``directory``: line ->
        ``(sharer_mask, owner)``. ``prefetch_heads``/``prefetch_next``:
        the stream detector's per-core heads and round-robin pointers.
        ``dram_open_rows``: the per-channel open row registers.
        """
        if self._flat is not None:
            out = self._flat.export()
        else:
            pref = self.prefetcher
            out = {
                "l1": [[list(s.items()) for s in c._sets] for c in self.l1s],
                "l2": [[list(s.items()) for s in b._sets]
                       for b in self.l2_banks],
                "directory": {
                    line: tuple(entry)
                    for line, entry in self.directory._lines.items()
                },
                "prefetch_heads": [list(h) for h in pref._heads],
                "prefetch_next": list(pref._next),
            }
        out["dram_open_rows"] = list(self.dram._open_rows)
        return out
