"""Segmented trace archives: streaming writes, bounded-memory reads.

Format version 3 turns the trace archive into a first-class *segment
index*: the event columns are split into fixed-size segments, each
stored as its own uncompressed ``.npy`` member of a zip archive, next
to a small index (``segment_bounds``, ``barriers``, the region table,
and an ``interleaved`` flag). Because the members are plain ``.npy``
blobs in a plain zip, ``np.load`` can still open the archive and read
the index, while :class:`SegmentedTrace` streams one segment at a
time — resident memory is bounded by one segment, not the trace.

Three producers/consumers live here:

- :class:`SegmentWriter` — incremental archive writer. Accepts column
  batches of any size, cuts segments at exact ``segment_events``
  multiples, and writes each completed segment immediately, so a
  trace larger than RAM can be spooled to disk as it is generated.
- :class:`SegmentedTrace` — the read side. Backed either by an open
  archive (lazy: segments are read — or memory-mapped with
  ``mmap_mode`` — on demand) or by an in-core :class:`Trace` (for
  tests and for segmenting an already-materialized trace).
- :class:`SpoolingTraceBuilder` — a :class:`TraceBuilder` that flushes
  each completed barrier span (in lockstep-interleaved order) into a
  :class:`SegmentWriter` instead of accumulating the whole trace.

The interleave invariant: lockstep interleaving is applied per
barrier span and spans compose independently, so a spooled archive
holds exactly the event order ``Trace.interleaved()`` would produce —
replaying its segments back-to-back is bit-identical to in-core
replay of the interleaved trace.
"""

from __future__ import annotations

import io
import os
import zipfile
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib import format as npformat

from repro.errors import TraceError
from repro.ligra.trace import (
    EVENT_COLUMNS,
    READABLE_TRACE_VERSIONS,
    TRACE_FORMAT_VERSION,
    AccessClass,
    Region,
    Trace,
    TraceBuilder,
    lockstep_order,
)

__all__ = [
    "DEFAULT_SEGMENT_EVENTS",
    "EVENT_COLUMNS",
    "SegmentWriter",
    "SegmentedTrace",
    "SpoolingTraceBuilder",
]

#: Default segment granularity (events). 2^18 events is ~5.5 MiB of
#: columns — small enough to bound RSS, large enough to keep the
#: vectorized replay stages efficient.
DEFAULT_SEGMENT_EVENTS = 262144

_COLUMN_NAMES = tuple(name for name, _ in EVENT_COLUMNS)
#: Column bytes per event.
_EVENT_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in EVENT_COLUMNS)


def _segment_member(index: int, column: str) -> str:
    return f"seg{index:05d}.{column}.npy"


def _write_member(zf: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """Write one ``.npy`` member with a fixed (epoch) timestamp.

    ``ZipInfo``'s default date is the zip epoch, so archives are
    byte-deterministic for identical inputs (``zf.write`` would stamp
    the local mtime instead). The data goes out straight from the
    array's buffer, byte for byte what ``npformat.write_array`` writes.
    """
    info = zipfile.ZipInfo(name)
    array = np.asarray(array)
    if array.ndim:
        # ascontiguousarray would promote 0-d scalars to 1-d.
        array = np.ascontiguousarray(array)
    with zf.open(info, "w", force_zip64=True) as fp:
        npformat.write_array_header_1_0(
            fp, npformat.header_data_from_array_1_0(array)
        )
        # A flat byte view: zipfile's size accounting counts len(data).
        fp.write(array.reshape(-1).view(np.uint8))


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    return npformat.read_array(io.BytesIO(zf.read(name)),
                               allow_pickle=False)


def _member_data(f, path,
                 info: zipfile.ZipInfo) -> Tuple[int, tuple, bool, np.dtype]:
    """Locate a stored ``.npy`` member's array data in the open file.

    Only ``ZIP_STORED`` members hold the raw ``.npy`` stream; the
    local file header is parsed to find it because its extra-field
    length can differ from the central directory's. Returns the
    member's start offset and its npy header (shape, Fortran order,
    dtype), leaving ``f`` at the first data byte.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise TraceError(
            f"{info.filename} in {path} is compressed; only stored"
            " members can be read in place"
        )
    f.seek(info.header_offset)
    header = f.read(30)
    if len(header) < 30 or header[:4] != b"PK\x03\x04":
        raise TraceError(
            f"{path} has a corrupt local header for {info.filename}"
        )
    name_len = int.from_bytes(header[26:28], "little")
    extra_len = int.from_bytes(header[28:30], "little")
    start = info.header_offset + 30 + name_len + extra_len
    f.seek(start)
    version = npformat.read_magic(f)
    if version == (1, 0):
        shape, fortran, dtype = npformat.read_array_header_1_0(f)
    elif version == (2, 0):
        shape, fortran, dtype = npformat.read_array_header_2_0(f)
    else:
        raise TraceError(
            f"{info.filename} in {path} has unsupported npy"
            f" version {version}"
        )
    return start, shape, fortran, dtype


def _member_memmap(path: str, info: zipfile.ZipInfo,
                   mmap_mode: str) -> np.ndarray:
    """Memory-map one stored ``.npy`` member in place."""
    with open(path, "rb") as f:
        _, shape, fortran, dtype = _member_data(f, path, info)
        offset = f.tell()
    return np.memmap(path, dtype=dtype, mode=mmap_mode, offset=offset,
                     shape=shape, order="F" if fortran else "C")


def _read_column(f, path, info: zipfile.ZipInfo, out: np.ndarray) -> None:
    """Read one stored column member straight into ``out`` (1-d, contiguous).

    The member's npy header must describe exactly ``out`` — its dtype
    and its length, which the caller takes from ``segment_bounds`` —
    and the bytes read must match the CRC-32 in the central directory.
    A mismatch or a short read raises :class:`TraceError`, so the
    trace store discards the entry as it would on a zip CRC error.
    """
    start, shape, _, dtype = _member_data(f, path, info)
    data_start = f.tell()
    if (dtype != out.dtype or shape != out.shape
            or data_start - start + out.nbytes != info.file_size):
        raise TraceError(
            f"{info.filename} in {path} holds {dtype}{list(shape)}"
            f" where the index expects {out.dtype}{list(out.shape)}"
        )
    f.seek(start)
    crc = zlib.crc32(f.read(data_start - start))
    data = out.view(np.uint8)
    if f.readinto(data) != len(data):
        raise TraceError(f"{info.filename} in {path} is truncated")
    if zlib.crc32(data, crc) != info.CRC:
        raise TraceError(f"{info.filename} in {path} fails its CRC-32")


class SegmentWriter:
    """Incremental segmented-archive writer with bounded buffering.

    Column batches of arbitrary size go in via :meth:`append`; full
    segments of exactly ``segment_events`` events are written to the
    archive as soon as they fill, so at most one segment (plus the
    current input batch) is ever resident. :meth:`close` flushes the
    final partial segment and writes the index members.
    """

    def __init__(self, path, segment_events: int = DEFAULT_SEGMENT_EVENTS,
                 interleaved: bool = False) -> None:
        if segment_events <= 0:
            raise TraceError(
                f"segment_events must be > 0, got {segment_events}"
            )
        self.path = path
        self.segment_events = int(segment_events)
        self.interleaved = interleaved
        self._zf: Optional[zipfile.ZipFile] = zipfile.ZipFile(
            path, "w", compression=zipfile.ZIP_STORED, allowZip64=True
        )
        self._pending: List[Dict[str, np.ndarray]] = []
        self._pending_n = 0
        self._counts: List[int] = []

    @property
    def num_events(self) -> int:
        """Events accepted so far (written + buffered)."""
        return sum(self._counts) + self._pending_n

    def append(self, columns: Dict[str, np.ndarray]) -> None:
        """Buffer one batch; write out every segment it completes."""
        if self._zf is None:
            raise TraceError("SegmentWriter is closed")
        n = len(columns["addr"])
        if n == 0:
            return
        batch = {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in EVENT_COLUMNS
        }
        for name in _COLUMN_NAMES:
            if len(batch[name]) != n:
                raise TraceError(
                    f"column {name!r} length {len(batch[name])} != {n}"
                )
        self._pending.append(batch)
        self._pending_n += n
        if self._pending_n >= self.segment_events:
            self._drain(final=False)

    def _drain(self, final: bool) -> None:
        if self._pending_n == 0:
            return
        if len(self._pending) == 1:
            cols = self._pending[0]
        else:
            cols = {
                name: np.concatenate([b[name] for b in self._pending])
                for name in _COLUMN_NAMES
            }
        n = self._pending_n
        self._pending = []
        self._pending_n = 0
        step = self.segment_events
        lo = 0
        while n - lo >= step:
            self._write_segment(
                {name: cols[name][lo:lo + step] for name in _COLUMN_NAMES}
            )
            lo += step
        if lo < n:
            if final:
                self._write_segment(
                    {name: cols[name][lo:] for name in _COLUMN_NAMES}
                )
            else:
                # Copy the remainder so the drained batches can be freed.
                self._pending = [
                    {name: cols[name][lo:].copy() for name in _COLUMN_NAMES}
                ]
                self._pending_n = n - lo

    def _write_segment(self, cols: Dict[str, np.ndarray]) -> None:
        index = len(self._counts)
        for name in _COLUMN_NAMES:
            _write_member(self._zf, _segment_member(index, name), cols[name])
        self._counts.append(len(cols["addr"]))

    def close(self, barriers: Sequence[int] = (),
              regions: Tuple[Region, ...] = ()) -> None:
        """Flush the tail segment and write the archive index."""
        if self._zf is None:
            return
        self._drain(final=True)
        zf = self._zf
        bounds = np.zeros(len(self._counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._counts, dtype=np.int64), out=bounds[1:])
        total = int(bounds[-1])
        barrier_arr = np.asarray(
            sorted({int(b) for b in barriers if 0 <= b <= total}),
            dtype=np.int64,
        )
        _write_member(zf, "format_version.npy",
                      np.asarray(np.int64(TRACE_FORMAT_VERSION)))
        _write_member(zf, "interleaved.npy",
                      np.asarray(np.int64(1 if self.interleaved else 0)))
        _write_member(zf, "segment_bounds.npy", bounds)
        _write_member(zf, "barriers.npy", barrier_arr)
        if regions:
            _write_member(zf, "region_name.npy", np.array(
                [r.name for r in regions], dtype=np.str_))
            _write_member(zf, "region_base.npy", np.array(
                [r.base for r in regions], dtype=np.int64))
            _write_member(zf, "region_size.npy", np.array(
                [r.size for r in regions], dtype=np.int64))
            _write_member(zf, "region_class.npy", np.array(
                [int(r.access_class) for r in regions], dtype=np.int8))
        self._zf = None
        zf.close()

    def abort(self) -> None:
        """Close the underlying file without finalizing the index."""
        if self._zf is not None:
            zf = self._zf
            self._zf = None
            zf.close()


class SegmentedTrace:
    """A trace exposed as an ordered sequence of segment traces.

    Backed either by an open v3 archive (:meth:`open` — segments are
    read on demand, optionally memory-mapped) or by an in-core
    :class:`Trace` (:meth:`from_trace`). Each segment comes out as a
    self-contained :class:`Trace` whose barriers are rebased to the
    segment and whose ``regions`` are the full table, so every replay
    stage (pre-pass, routing, source-buffer barriers) works unchanged
    on a segment.
    """

    def __init__(self, *, bounds: np.ndarray, barriers: np.ndarray,
                 regions: Tuple[Region, ...], interleaved: bool,
                 trace: Optional[Trace] = None,
                 path=None, file=None, zf: Optional[zipfile.ZipFile] = None,
                 mmap_mode: Optional[str] = None) -> None:
        self.segment_bounds = np.asarray(bounds, dtype=np.int64)
        self.barriers = np.asarray(barriers, dtype=np.int64)
        self.regions = regions
        self.interleaved = interleaved
        self.path = path
        self._trace = trace
        # The archive's file, and the zip index read from it; column
        # members are read from the file directly.
        self._file = file
        self._zf = zf
        self._mmap_mode = mmap_mode

    # -- constructors --------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace,
                   segment_events: int = DEFAULT_SEGMENT_EVENTS,
                   interleave: bool = True) -> "SegmentedTrace":
        """Segment an in-core trace (interleaving it first by default)."""
        if segment_events <= 0:
            raise TraceError(
                f"segment_events must be > 0, got {segment_events}"
            )
        if interleave:
            trace = trace.interleaved()
        n = trace.num_events
        bounds = np.arange(0, n, segment_events, dtype=np.int64)
        bounds = np.append(bounds, n)
        return cls(
            bounds=bounds, barriers=np.asarray(trace.barriers,
                                               dtype=np.int64),
            regions=trace.regions, interleaved=interleave, trace=trace,
        )

    @classmethod
    def open(cls, path,
             mmap_mode: Optional[str] = None) -> "SegmentedTrace":
        """Open a v3 segmented archive for streaming reads.

        ``mmap_mode`` (e.g. ``"r"``) memory-maps segment columns in
        place instead of reading them, trading page-cache pressure
        for zero-copy access. The default reads each segment into a
        fresh buffer that is dropped when iteration moves on — that
        is what keeps peak RSS bounded.
        """
        segtrace = cls.try_open(path, mmap_mode=mmap_mode)
        if segtrace is None:
            raise TraceError(f"{path} is not a segmented trace archive")
        return segtrace

    @classmethod
    def try_open(cls, path, mmap_mode: Optional[str] = None
                 ) -> Optional["SegmentedTrace"]:
        """Like :meth:`open`, but ``None`` for a monolithic archive.

        A zip without a segment index is closed again and ``None``
        returned, so a loader opens an archive of either layout once.
        """
        file = open(path, "rb")
        try:
            zf = zipfile.ZipFile(file)
            names = set(zf.namelist())
            if "segment_bounds.npy" not in names:
                file.close()
                return None
            if "format_version.npy" in names:
                version = int(_read_member(zf, "format_version.npy"))
                if version not in READABLE_TRACE_VERSIONS:
                    readable = sorted(READABLE_TRACE_VERSIONS)
                    raise TraceError(
                        f"{path} has trace format version {version};"
                        f" this build reads versions {readable}"
                    )
            bounds = _read_member(zf, "segment_bounds.npy")
            # Columns are allocated from the index before any member is
            # read, so the index must be sane and fit in the file.
            if (bounds.ndim != 1 or len(bounds) == 0 or bounds[0] != 0
                    or np.any(np.diff(bounds) < 0)
                    or int(bounds[-1]) * _EVENT_BYTES
                    > os.fstat(file.fileno()).st_size):
                raise TraceError(f"{path} has a malformed segment index")
            barriers = (
                _read_member(zf, "barriers.npy")
                if "barriers.npy" in names
                else np.zeros(0, dtype=np.int64)
            )
            interleaved = bool(
                int(_read_member(zf, "interleaved.npy"))
                if "interleaved.npy" in names else 0
            )
            regions: Tuple[Region, ...] = ()
            if "region_base.npy" in names:
                regions = tuple(
                    Region(
                        name=str(name), base=int(base), size=int(size),
                        access_class=AccessClass(int(klass)),
                    )
                    for name, base, size, klass in zip(
                        _read_member(zf, "region_name.npy"),
                        _read_member(zf, "region_base.npy"),
                        _read_member(zf, "region_size.npy"),
                        _read_member(zf, "region_class.npy"),
                    )
                )
        except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: close the archive on any failure, then propagate it unchanged
            file.close()
            raise
        return cls(
            bounds=bounds, barriers=barriers, regions=regions,
            interleaved=interleaved, path=path, file=file, zf=zf,
            mmap_mode=mmap_mode,
        )

    # -- geometry ------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self.segment_bounds) - 1

    @property
    def num_events(self) -> int:
        return int(self.segment_bounds[-1])

    @property
    def nbytes(self) -> int:
        """Column footprint, matching :attr:`Trace.nbytes` semantics."""
        return int(self.num_events * _EVENT_BYTES + self.barriers.nbytes)

    def __len__(self) -> int:
        return self.num_events

    # -- reads ---------------------------------------------------------
    def _segment_columns(self, index: int) -> Dict[str, np.ndarray]:
        lo = int(self.segment_bounds[index])
        hi = int(self.segment_bounds[index + 1])
        if self._trace is not None:
            t = self._trace
            return {name: getattr(t, name)[lo:hi] for name in _COLUMN_NAMES}
        if self._zf is None:
            raise TraceError("SegmentedTrace is closed")
        if self._mmap_mode is not None:
            return {
                name: _member_memmap(
                    self.path,
                    self._zf.getinfo(_segment_member(index, name)),
                    self._mmap_mode,
                )
                for name in _COLUMN_NAMES
            }
        cols = {name: np.empty(hi - lo, dtype=dtype)
                for name, dtype in EVENT_COLUMNS}
        self._read_segment(index, cols)
        return cols

    def _read_segment(self, index: int, out: Dict[str, np.ndarray]) -> None:
        """Read segment ``index``'s column members into ``out``'s arrays."""
        if self._zf is None:
            raise TraceError("SegmentedTrace is closed")
        for name in _COLUMN_NAMES:
            _read_column(self._file, self.path,
                         self._zf.getinfo(_segment_member(index, name)),
                         out[name])

    def verify(self) -> None:
        """Read every column member once, checking it as a load does.

        Raises :class:`TraceError` at the first member whose npy header
        disagrees with ``segment_bounds`` or whose bytes fail their
        CRC-32. Memory stays bounded by one segment; an in-core trace
        has nothing to check.
        """
        if self._trace is not None or self.num_segments == 0:
            return
        step = int(np.diff(self.segment_bounds).max())
        scratch = {name: np.empty(step, dtype=dtype)
                   for name, dtype in EVENT_COLUMNS}
        for index, m in enumerate(np.diff(self.segment_bounds).tolist()):
            self._read_segment(
                index, {name: buf[:m] for name, buf in scratch.items()}
            )

    def segment(self, index: int) -> Trace:
        """Segment ``index`` as a standalone :class:`Trace`.

        Barriers are rebased to the segment (a global barrier ``b``
        lands in the segment with ``lo <= b < hi``), so the
        source-buffer invalidation walk sees each barrier exactly
        once across the whole sequence.
        """
        if not 0 <= index < self.num_segments:
            raise TraceError(
                f"segment index {index} out of range"
                f" [0, {self.num_segments})"
            )
        lo = int(self.segment_bounds[index])
        hi = int(self.segment_bounds[index + 1])
        b = self.barriers
        local = b[(b >= lo) & (b < hi)] - lo
        cols = self._segment_columns(index)
        seg = Trace(
            core=cols["core"], addr=cols["addr"], size=cols["size"],
            access_class=cols["access_class"], flags=cols["flags"],
            vertex=cols["vertex"],
            barriers=np.asarray(local, dtype=np.int64),
            regions=self.regions,
        )
        if self.interleaved:
            seg._interleaved = seg
        return seg

    def iter_segments(self) -> Iterator[Trace]:
        """Stream the segments in order."""
        for index in range(self.num_segments):
            yield self.segment(index)

    def materialize(self) -> Trace:
        """Every segment in one in-core :class:`Trace`.

        Each full column is allocated once and every segment member
        read straight into its slice (memory-mapped members are copied
        in).
        """
        if self._trace is not None:
            return self._trace
        cols = {name: np.empty(self.num_events, dtype=dtype)
                for name, dtype in EVENT_COLUMNS}
        for index in range(self.num_segments):
            lo = int(self.segment_bounds[index])
            hi = int(self.segment_bounds[index + 1])
            out = {name: col[lo:hi] for name, col in cols.items()}
            if self._mmap_mode is None:
                self._read_segment(index, out)
            else:
                for name, part in self._segment_columns(index).items():
                    out[name][...] = part
        trace = Trace(**cols, barriers=self.barriers.copy(),
                      regions=self.regions)
        if self.interleaved:
            trace._interleaved = trace
        return trace

    # -- writes --------------------------------------------------------
    def save(self, path) -> None:
        """Write a v3 archive with this trace's exact segmentation."""
        step = max(
            int(np.diff(self.segment_bounds).max()) if self.num_segments
            else 1, 1,
        )
        writer = SegmentWriter(path, segment_events=step,
                               interleaved=self.interleaved)
        try:
            for index in range(self.num_segments):
                writer.append(self._segment_columns(index))
            writer.close(barriers=self.barriers.tolist(),
                         regions=self.regions)
        except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: abort the partial spool on any failure, then propagate it unchanged
            writer.abort()
            raise

    def close(self) -> None:
        """Release the underlying archive handle (idempotent)."""
        if self._zf is not None:
            zf, file = self._zf, self._file
            self._zf = self._file = None
            zf.close()
            file.close()

    def __enter__(self) -> "SegmentedTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SpoolingTraceBuilder(TraceBuilder):
    """A trace builder that spools to a segmented archive as it runs.

    Each completed barrier span is lockstep-interleaved (the same
    per-span permutation :meth:`Trace.interleaved` applies) and
    flushed to a :class:`SegmentWriter`, so resident memory is
    bounded by the largest span plus one segment — never the whole
    trace. :meth:`finalize` closes the archive and returns the
    spooled :class:`SegmentedTrace`; :meth:`build` is unavailable
    (it would defeat the point by materializing).
    """

    def __init__(self, path,
                 segment_events: int = DEFAULT_SEGMENT_EVENTS) -> None:
        super().__init__(enabled=True)
        self._writer = SegmentWriter(path, segment_events=segment_events,
                                     interleaved=True)

    def _flush_span(self) -> None:
        if not self._chunks:
            return
        cols = self._columns(self._chunks)
        self._chunks = []
        perm = lockstep_order(cols["core"], ())
        self._writer.append({name: col[perm] for name, col in cols.items()})

    def mark_barrier(self) -> None:
        self._barriers.append(self.num_events)
        self._flush_span()

    def build(self) -> Trace:
        raise TraceError(
            "SpoolingTraceBuilder spools to disk; call finalize() for"
            " the SegmentedTrace instead of build()"
        )

    def finalize(self, regions: Tuple[Region, ...] = ()) -> SegmentedTrace:
        """Flush the tail span, close the archive, and open the result."""
        self._flush_span()
        self._writer.close(barriers=self._barriers, regions=regions)
        return SegmentedTrace.open(self._writer.path)

    def abort(self) -> None:
        """Drop the spool without finalizing (cleanup on error)."""
        self._writer.abort()
