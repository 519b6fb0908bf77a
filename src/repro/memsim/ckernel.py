"""The compiled cache kernel: build cache, loader and flat state.

``ckernel.c`` (beside this module) replays the cache-routed events of
a range of full trace columns over flat cache state in one C call
(:class:`FlatCacheState`). The same library carries the estimator's
reuse-gap pass (:func:`estimate_batch`), OMEGA's source-buffer walk
(:class:`FlatSourceBuffers`), the dynamic backend's frequency trainer
(:class:`FlatDynamicPads`) and the trace's lockstep interleave
(:func:`lockstep_perm`). The host C compiler builds
it with :data:`CFLAGS` at first use (a kernel replay or a trace
interleave) — never at import — and the library is cached as ``ckernel-<digest>.so``, the digest
covering the source, the compiler's version line and the flags. It is
written to a temporary file and moved into place with
:func:`os.replace`, so concurrent processes never load a half-written
file. :func:`load_kernel` returns ``None``, after one logged warning,
when no compiler is found or the build fails; replay then falls back
to the scalar oracle (and the interleave to numpy).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import MAX_CORES, SimConfig
from repro.errors import SimulationError, TraceError
from repro.ligra.trace import FLAG_ATOMIC, FLAG_WRITE, check_core_ids
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.routes import ROUTE_CACHE

__all__ = [
    "CFLAGS",
    "FlatCacheState",
    "FlatDynamicPads",
    "FlatSourceBuffers",
    "estimate_batch",
    "find_compiler",
    "load_kernel",
    "lockstep_perm",
]

_LOG = logging.getLogger("repro.memsim.ckernel")

SOURCE = Path(__file__).with_name("ckernel.c")

#: ``-ffp-contract=off`` forbids fused multiply-adds, and there is
#: deliberately no ``-ffast-math``: latencies must sum exactly as the
#: oracle's Python floats do.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The kernel's counter array: these scalars (the ``K_*`` enum in
#: ``ckernel.c``), then one ``ncores`` block per :data:`PER_CORE` name.
COUNTERS = (
    "demand_l2_hits", "demand_l2_misses", "prefetch", "line_packets",
    "invalidations", "dir_writebacks", "dram_writes", "row_hits",
    "row_misses", "atomics", "cache_events",
)
PER_CORE = (
    "l1_hits", "l1_misses", "l1_evictions", "l1_dirty_evictions",
    "l2_hits", "l2_misses", "l2_evictions", "l2_dirty_evictions",
    "events",
)

#: The columns :meth:`FlatCacheState.replay` reads in place, with the
#: dtypes the kernel reads them as (the trace's canonical ones, and
#: the backends' int8 route codes).
REPLAY_COLUMNS = (
    ("core", np.int16), ("addr", np.int64), ("flags", np.int8),
    ("routes", np.int8),
)

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class _KState(ctypes.Structure):
    """Mirror of ``kstate`` in ``ckernel.c`` (field order matters)."""

    _fields_ = [(name, _I64) for name in (
        "ncores", "l1_sets", "l1_ways", "l2_sets", "l2_ways",
        "line_bits", "bank_mask", "bank_bits",
        "l1_lat", "l2_lat", "remote_lat", "wb_lat", "dram_lat",
        "track_rows", "channels", "row_bytes", "row_hit", "row_miss",
        "num_heads", "nranges", "cache_route", "write_flag", "atomic_flag",
        "clock", "dir_cap", "dir_count",
    )] + [("atomic_ser", ctypes.c_double), ("atomic_stall", ctypes.c_double),
          ] + [(name, _PTR) for name in (
        "l1_tag", "l1_stamp", "l2_tag", "l2_stamp", "l1_dirty", "l2_dirty",
        "dir_key", "dir_mask", "dir_owner", "heads", "next_head",
        "open_rows", "ranges", "bank_lat", "counters",
    )]


class _SbState(ctypes.Structure):
    """Mirror of ``sbstate`` in ``ckernel.c`` (field order matters)."""

    _fields_ = [(name, _I64) for name in ("ncores", "entries")] + [
        (name, _PTR) for name in ("keys", "fill")
    ]


class _DpState(ctypes.Structure):
    """Mirror of ``dpstate`` in ``ckernel.c`` (field order matters)."""

    _fields_ = [(name, _I64) for name in ("num_sets", "slots", "nfreq")] + [
        (name, _PTR) for name in ("vert", "count", "fill", "freq")
    ]


def find_compiler() -> Optional[str]:
    """Path of the host C compiler, or ``None`` when there is none."""
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dirs() -> Iterator[Path]:
    """The package's ``__pycache__``, else a per-user temp directory."""
    yield SOURCE.parent / "__pycache__"
    uid = getattr(os, "getuid", lambda: 0)()
    yield Path(tempfile.gettempdir()) / f"repro-ckernel-{uid}"


def _build(cc: str) -> Path:
    """The cached library for this source/compiler/flags, built if new."""
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, check=True,
    ).stdout.partition("\n")[0]
    digest = hashlib.blake2b(digest_size=8)
    for part in (SOURCE.read_bytes(), version.encode(),
                 " ".join(CFLAGS).encode()):
        digest.update(part + b"\0")
    failure = OSError("no writable directory for the kernel library")
    for d in _cache_dirs():
        lib = d / f"ckernel-{digest.hexdigest()}.so"
        if lib.is_file():
            return lib
        try:
            d.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".ckernel-",
                                       suffix=".so")
        except OSError as exc:
            failure = exc
            continue
        os.close(fd)
        try:
            subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                           capture_output=True, text=True, check=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return lib
    raise failure


@functools.lru_cache(maxsize=None)
def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` (warned once) if unusable."""
    cc = find_compiler()
    if cc is None:
        reason = "no C compiler (gcc or cc) on PATH"
    else:
        try:
            lib = ctypes.CDLL(str(_build(cc)))
        except subprocess.CalledProcessError as exc:
            reason = f"{cc} failed: {(exc.stderr or '').strip()[:500]}"
        except (OSError, subprocess.SubprocessError) as exc:
            reason = f"build/load failed: {exc}"
        else:
            lib.replay_batch.restype = _I64
            lib.replay_batch.argtypes = (
                [ctypes.POINTER(_KState), _I64, _I64] + [_PTR] * 11
            )
            lib.dir_rehash.restype = None
            lib.dir_rehash.argtypes = (
                [ctypes.POINTER(_KState)] + [_PTR] * 3 + [_I64]
            )
            lib.estimate_batch.restype = None
            lib.estimate_batch.argtypes = (
                [_I64, _PTR, _I64, _PTR, _PTR, _PTR] + [_I64] * 6
                + [_PTR] * 5
            )
            lib.srcbuf_walk.restype = _I64
            lib.srcbuf_walk.argtypes = (
                [ctypes.POINTER(_SbState), _I64] + [_PTR] * 3
                + [_I64, _PTR, _PTR]
            )
            lib.dynpad_train.restype = _I64
            lib.dynpad_train.argtypes = (
                [ctypes.POINTER(_DpState), _I64, _I64] + [_PTR] * 3
            )
            lib.lockstep_perm.restype = _I64
            lib.lockstep_perm.argtypes = [_PTR, _I64] + [_PTR] * 3
            return lib
    _LOG.warning(
        "compiled cache kernel unavailable (%s); replaying through the"
        " scalar oracle, which is much slower", reason,
    )
    return None


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


def _check_events(what: str, ncores: int, cores: np.ndarray,
                  ids: np.ndarray, *others: np.ndarray,
                  id_name: str = "address") -> None:
    """Reject what the C side cannot take: columns of unequal length,
    core ids outside ``0..ncores-1`` (it indexes per-core state with
    them) and negative addresses or keys (-1 marks an empty way or ring
    slot, and no address is negative)."""
    n = len(cores)
    if any(len(a) != n for a in (ids, *others)):
        raise SimulationError(f"{what} columns differ in length")
    if n and not 0 <= int(cores.min()) <= int(cores.max()) < ncores:
        raise SimulationError(
            f"{what} names a core outside 0..{ncores - 1}"
        )
    if n and int(ids.min()) < 0:
        raise SimulationError(f"{what} has a negative {id_name}")


def estimate_batch(lib: ctypes.CDLL, routes: np.ndarray, cores: np.ndarray,
                   addrs: np.ndarray, writes: np.ndarray,
                   geometry: BankGeometry, l1: Tuple[int, int],
                   l2: Tuple[int, int]) -> Tuple[int, int, int]:
    """The reuse-gap model's counts in one C pass over full columns.

    Events not routed to the cache are skipped in C, and line ids are
    derived there from the addresses. ``l1`` and ``l2`` are ``(sets,
    ways)``; ``geometry`` gives the core/bank count, the line size and
    the bank interleave. Returns ``(l1_hits, l2_hits,
    l2_miss_writes)``, equal to
    :func:`repro.memsim.estimate.predict_reuse_gaps` on the same input.
    """
    routes = np.ascontiguousarray(routes, dtype=np.int8)
    cores, addrs = (np.ascontiguousarray(a, dtype=np.int64)
                    for a in (cores, addrs))
    writes = np.ascontiguousarray(writes, dtype=bool)
    ncores = geometry.num_banks
    _check_events("estimate batch", ncores, cores, addrs, routes, writes)
    if min(l1[0], l2[0]) < 1:
        raise SimulationError("reuse-gap levels need at least one set")
    # Per level, each slot's ring of its last `ways` lines, and the
    # ring position.
    rings = []
    for sets, ways in (l1, l2):
        slots = ncores * sets
        rings += [np.full(slots * max(ways, 0), -1, np.int64),
                  np.zeros(slots, np.int64)]
    out = np.zeros(3, np.int64)
    lib.estimate_batch(
        len(routes), _ptr(routes), int(ROUTE_CACHE), _ptr(cores),
        _ptr(addrs), _ptr(writes), geometry.line_bits, geometry.bank_bits,
        l1[0], l1[1], l2[0], l2[1], *(_ptr(a) for a in rings), _ptr(out),
    )
    l1_hits, l2_hits, l2_miss_writes = out.tolist()
    return l1_hits, l2_hits, l2_miss_writes


def lockstep_perm(lib: ctypes.CDLL, core: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """The lockstep interleave permutation of a whole trace, in one C call.

    ``bounds`` are strictly increasing span bounds from 0 to
    ``len(core)``; each span is ordered as
    :func:`repro.ligra.trace.span_lockstep_perm` orders it, and the
    result indexes the whole trace. Raises
    :class:`~repro.errors.TraceError` on a core id outside
    ``0..MAX_CORES-1``.
    """
    core = np.asarray(core)
    if core.dtype != np.int16:
        check_core_ids(core)  # before the narrowing cast hides a bad id
    core = np.ascontiguousarray(core, dtype=np.int16)
    bounds = np.ascontiguousarray(bounds, dtype=np.int64)
    # The C side writes perm[bounds[k]:bounds[k+1]] unchecked.
    if (len(bounds) == 0 or bounds[0] != 0 or bounds[-1] != len(core)
            or np.any(np.diff(bounds) <= 0)):
        raise TraceError("lockstep span bounds must rise strictly from 0"
                         " to the event count")
    # Both stay referenced here for the whole C call.
    perm, scratch = (np.empty(len(core), np.int64) for _ in range(2))
    bad = lib.lockstep_perm(_ptr(core), len(bounds), _ptr(bounds),
                            _ptr(perm), _ptr(scratch))
    if bad >= 0:
        raise TraceError(f"trace names core {int(core[bad])} outside"
                         f" 0..{MAX_CORES - 1}")
    return perm


class FlatSourceBuffers:
    """Kernel-mode source vertex buffers: one recency-ordered row per core.

    The compiled twin of a list of
    :class:`~repro.memsim.srcbuffer.SourceVertexBuffer`; it lives on
    the replay context, so a streamed replay carries it across
    segments.
    """

    def __init__(self, lib: ctypes.CDLL, ncores: int, entries: int) -> None:
        if entries < 1:
            raise SimulationError(f"buffer needs >= 1 entry, got {entries}")
        self._lib = lib
        self.ncores = ncores
        self.keys = np.zeros((ncores, entries), np.int64)
        self.fill = np.zeros(ncores, np.int64)
        self.st = _SbState(ncores=ncores, entries=entries,
                           keys=_ptr(self.keys), fill=_ptr(self.fill))

    def walk(self, positions: np.ndarray, cores: np.ndarray,
             keys: np.ndarray, barriers: np.ndarray) -> np.ndarray:
        """Look the candidates up in order; returns the hit positions.

        ``barriers`` are sorted positions before which every buffer is
        emptied (trailing ones empty the buffers after the walk).
        """
        positions, cores, keys, barriers = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (positions, cores, keys, barriers)
        )
        _check_events("source-buffer walk", self.ncores, cores, keys,
                      positions, id_name="key")
        hits = np.empty(len(positions), np.int64)
        nh = self._lib.srcbuf_walk(
            ctypes.byref(self.st), len(positions), _ptr(positions),
            _ptr(cores), _ptr(keys), len(barriers), _ptr(barriers),
            _ptr(hits),
        )
        return hits[:nh]

    def contents(self) -> List[List[int]]:
        """Per core, the buffered keys, least recently used first."""
        return [keys[:fill][::-1].tolist()
                for keys, fill in zip(self.keys, self.fill.tolist())]


class FlatDynamicPads:
    """Kernel-mode dynamic pads: per-set slots plus dense vertex counts.

    The compiled twin of
    :class:`~repro.memsim.backends.dynamic.DynamicPads`. Set ``k``'s
    entries are ``vert[k, :fill[k]]`` with their counts in ``count``, in
    insertion order; ``freq[v]`` is vertex ``v``'s running access count.
    ``freq`` grows between kernel calls, as the cache directory does. It
    lives on the replay context, so a streamed replay carries it across
    segments.
    """

    def __init__(self, lib: ctypes.CDLL, num_sets: int, slots: int) -> None:
        if num_sets < 1 or slots < 1:
            raise SimulationError(
                f"dynamic pads need >= 1 set and slot, got {num_sets}"
                f" sets of {slots}"
            )
        self._lib = lib
        self.vert = np.zeros((num_sets, slots), np.int64)
        self.count = np.zeros_like(self.vert)
        self.fill = np.zeros(num_sets, np.int64)
        self.st = _DpState(num_sets=num_sets, slots=slots,
                           vert=_ptr(self.vert), count=_ptr(self.count),
                           fill=_ptr(self.fill))
        self._set_freq(np.zeros(0, np.int64))

    def _set_freq(self, freq: np.ndarray) -> None:
        self.freq = freq
        self.st.nfreq = len(freq)
        self.st.freq = _ptr(freq)

    def train(self, vtxprop: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Train on one segment's events; returns the resident mask.

        ``vtxprop`` (bool) marks the vtxProp events and ``vertex``
        (int64) holds their vertex ids (negative ones are skipped), both
        full columns read in place. Event ``i`` is resident when its
        vertex is in its set right after it.
        """
        for name, col, dtype in (("vtxprop", vtxprop, np.bool_),
                                 ("vertex", vertex, np.int64)):
            _check_column("dynamic pad", name, col, dtype)
        n = len(vertex)
        if len(vtxprop) != n:
            raise SimulationError("dynamic pad columns differ in length")
        resident = np.zeros(n, dtype=bool)
        done = 0
        while True:
            done = self._lib.dynpad_train(
                ctypes.byref(self.st), done, n, _ptr(vtxprop), _ptr(vertex),
                _ptr(resident),
            )
            if done == n:
                return resident
            # Stopped at a vertex past the count array: grow it.
            grown = np.zeros(max(2 * len(self.freq), int(vertex[done]) + 1),
                             np.int64)
            grown[:len(self.freq)] = self.freq
            self._set_freq(grown)

    def sets(self) -> List[Dict[int, int]]:
        """Per set, vertex -> count in insertion order."""
        return [dict(zip(v[:f], c[:f])) for v, c, f in zip(
            self.vert.tolist(), self.count.tolist(), self.fill.tolist()
        )]

    def counts(self) -> Dict[int, int]:
        """Every trained vertex's running access count."""
        seen = np.flatnonzero(self.freq)
        return dict(zip(seen.tolist(), self.freq[seen].tolist()))


def _check_column(what: str, name: str, col, dtype) -> None:
    """Reject a column the C side cannot read in place: it must be a
    one-dimensional, C-contiguous array of exactly ``dtype``."""
    if (not isinstance(col, np.ndarray) or col.dtype != dtype
            or col.ndim != 1 or not col.flags.c_contiguous):
        raise SimulationError(
            f"{what} column {name} must be a contiguous 1-d"
            f" {np.dtype(dtype).name} array"
        )


class FlatCacheState:
    """Kernel-mode cache state: flat arrays plus the ``kstate`` view.

    Everything but the DRAM row registers lives here for the system's
    lifetime; those are copied in and out per batch, because the
    backends' off-chip paths share the DRAM model.
    """

    def __init__(self, lib: ctypes.CDLL, config: SimConfig,
                 crossbar: Crossbar, num_heads: int) -> None:
        self._lib = lib
        ncores = self.ncores = config.core.num_cores
        l1, l2, dram = config.l1, config.l2_per_core, config.dram
        self.l1_tag = np.full((ncores * l1.num_sets, l1.ways), -1, np.int64)
        self.l1_stamp = np.zeros_like(self.l1_tag)
        self.l1_dirty = np.zeros(self.l1_tag.shape, np.uint8)
        self.l2_tag = np.full((ncores * l2.num_sets, l2.ways), -1, np.int64)
        self.l2_stamp = np.zeros_like(self.l2_tag)
        self.l2_dirty = np.zeros(self.l2_tag.shape, np.uint8)
        self.heads = np.full((ncores, num_heads), -2, np.int64)
        self.next_head = np.zeros(ncores, np.int64)
        self.open_rows = np.full(dram.channels, -1, np.int64)
        self.ranges = np.zeros(0, np.int64)
        # Interconnect latencies are per-(core, bank) constants under
        # both topologies; the miss path indexes this table.
        self.bank_lat = np.array(
            [[crossbar.transfer_latency(c, b) for b in range(ncores)]
             for c in range(ncores)], dtype=np.int64,
        )
        self.counters = np.zeros(len(COUNTERS) + len(PER_CORE) * ncores,
                                 np.int64)
        ks = self.ks = _KState(
            ncores=ncores, l1_sets=l1.num_sets, l1_ways=l1.ways,
            l2_sets=l2.num_sets, l2_ways=l2.ways,
            line_bits=l1.line_bytes.bit_length() - 1,
            bank_mask=ncores - 1, bank_bits=ncores.bit_length() - 1,
            l1_lat=l1.latency_cycles, l2_lat=l2.latency_cycles,
            # Invalidation acks cost one crossbar round trip under
            # every topology (as in CacheSystem._invalidate).
            remote_lat=config.interconnect.remote_latency_cycles,
            wb_lat=crossbar.transfer_latency(),
            dram_lat=dram.latency_cycles,
            track_rows=int(dram.page_policy != "closed"),
            channels=dram.channels, row_bytes=dram.row_bytes,
            row_hit=dram.row_hit_cycles, row_miss=dram.row_miss_cycles,
            num_heads=num_heads, cache_route=int(ROUTE_CACHE),
            write_flag=FLAG_WRITE, atomic_flag=FLAG_ATOMIC,
            atomic_ser=config.core.atomic_serialization,
            atomic_stall=config.core.atomic_stall_cycles,
        )
        for name in ("l1_tag", "l1_stamp", "l2_tag", "l2_stamp",
                     "l1_dirty", "l2_dirty", "heads", "next_head",
                     "open_rows", "bank_lat", "counters"):
            setattr(ks, name, _ptr(getattr(self, name)))
        self._set_directory(np.full(64, -1, np.int64))

    def _set_directory(self, keys: np.ndarray) -> None:
        self.dir_key = keys
        self.dir_mask = np.zeros(len(keys), np.uint64)
        self.dir_owner = np.full(len(keys), -1, np.int32)
        ks = self.ks
        ks.dir_cap = len(keys)
        ks.dir_key = _ptr(keys)
        ks.dir_mask = _ptr(self.dir_mask)
        ks.dir_owner = _ptr(self.dir_owner)

    def _grow_directory(self) -> None:
        """Double the directory table, rehashing its live entries."""
        old = (self.dir_key, self.dir_mask, self.dir_owner)
        self._set_directory(np.full(2 * len(old[0]), -1, np.int64))
        self._lib.dir_rehash(
            ctypes.byref(self.ks), *(_ptr(a) for a in old), len(old[0])
        )

    def replay(self, core: np.ndarray, addr: np.ndarray, flags: np.ndarray,
               routes: np.ndarray, start: int, end: int,
               mem_lat: List[float], serial: List[float],
               open_rows: List[int], ranges, record=None) -> Dict:
        """Replay events ``[start, end)`` of full columns; counters by name.

        The columns (:data:`REPLAY_COLUMNS`) are read in place, nothing
        is copied: every event of the range counts once per core
        (``events``), and the cache-routed ones run through the caches
        (``cache_events``). Scalar counters map to ints,
        :data:`PER_CORE` ones to per-core lists. Per-event latencies
        fold into ``mem_lat``/``serial`` (per-core sums) and the DRAM
        ``open_rows`` registers update, both in place; ``ranges`` are
        the hybrid policy's random ranges (empty for the other
        policies). ``record`` (a ``CacheRecord``) gets one row per
        cache-routed event. The kernel stops early when the directory
        table is half full; it is grown here, between calls, and the
        batch resumes where it stopped.
        """
        # Everything below becomes a raw pointer or an index into one:
        # check dtypes, contiguity, lengths, the range and the ids the
        # kernel indexes with, here.
        cols = (core, addr, flags, routes)
        for (name, dtype), col in zip(REPLAY_COLUMNS, cols):
            _check_column("cache batch", name, col, dtype)
        n = len(core)
        if any(len(col) != n for col in cols):
            raise SimulationError("cache batch columns differ in length")
        start, end = int(start), int(end)
        if not 0 <= start <= end <= n:
            raise SimulationError(
                f"cache batch range [{start}, {end}) lies outside"
                f" the {n}-event columns"
            )
        ncores = self.ncores
        # Tag -1 marks an empty way, so addresses must be non-negative.
        _check_events("cache batch", ncores, core[start:end],
                      addr[start:end])
        if len(mem_lat) != ncores or len(serial) != ncores:
            raise SimulationError("latency sums must have one slot per core")
        rec: List[Optional[int]] = [None] * 5
        if record is not None:
            rows = int(np.count_nonzero(routes[start:end] == ROUTE_CACHE))
            rcols = (record.l1_hit, record.l2_hit, record.l2_miss,
                     record.prefetch, record.writebacks)
            if any(len(c) != rows or not c.flags.c_contiguous
                   for c in rcols):
                raise SimulationError("CacheRecord does not match the batch")
            rec = [_ptr(c) for c in rcols]
        mem = np.asarray(mem_lat, dtype=np.float64)
        ser = np.asarray(serial, dtype=np.float64)
        self.open_rows[:] = open_rows
        self.ranges = np.asarray(ranges, dtype=np.int64).reshape(-1)
        ks = self.ks
        ks.ranges = _ptr(self.ranges)
        ks.nranges = len(self.ranges) // 2
        self.counters[:] = 0
        args = [_ptr(a) for a in (*cols, mem, ser)] + rec
        done = start
        while True:
            done = self._lib.replay_batch(ctypes.byref(ks), done, end, *args)
            if done == end:
                break
            self._grow_directory()
        mem_lat[:] = mem.tolist()
        serial[:] = ser.tolist()
        open_rows[:] = self.open_rows.tolist()
        c = self.counters.tolist()
        counts: Dict = dict(zip(COUNTERS, c))
        base = len(COUNTERS)
        for i, name in enumerate(PER_CORE):
            counts[name] = c[base + i * ncores: base + (i + 1) * ncores]
        return counts

    @staticmethod
    def _sets(tag: np.ndarray, stamp: np.ndarray, dirty: np.ndarray,
              ncores: int) -> list:
        order = np.argsort(stamp, axis=1, kind="stable")
        tag = np.take_along_axis(tag, order, 1).tolist()
        dirty = np.take_along_axis(dirty, order, 1).tolist()
        sets = [
            [(t, bool(d)) for t, d in zip(ts, ds) if t != -1]
            for ts, ds in zip(tag, dirty)
        ]
        per = len(sets) // ncores
        return [sets[c * per:(c + 1) * per] for c in range(ncores)]

    def export(self) -> dict:
        """Cache, directory and prefetcher state in the oracle's shape."""
        live = self.dir_key != -1
        return {
            "l1": self._sets(self.l1_tag, self.l1_stamp, self.l1_dirty,
                             self.ncores),
            "l2": self._sets(self.l2_tag, self.l2_stamp, self.l2_dirty,
                             self.ncores),
            "directory": dict(zip(
                self.dir_key[live].tolist(),
                zip(self.dir_mask[live].tolist(),
                    self.dir_owner[live].tolist()),
            )),
            "prefetch_heads": self.heads.tolist(),
            "prefetch_next": self.next_head.tolist(),
        }
