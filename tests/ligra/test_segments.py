"""Tests for the v3 segmented trace archive and the spooling builder."""

import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

from repro.errors import TraceError
from repro.ligra.segments import (
    DEFAULT_SEGMENT_EVENTS,
    SegmentedTrace,
    SegmentWriter,
    SpoolingTraceBuilder,
)
from repro.ligra.trace import (
    READABLE_TRACE_VERSIONS,
    TRACE_FORMAT_VERSION,
    AccessClass,
    Region,
    Trace,
    TraceBuilder,
)

COLUMNS = ("core", "addr", "size", "access_class", "flags", "vertex")


def build_trace(n=100, seed=0, barrier_every=17, cores=4):
    rng = np.random.default_rng(seed)
    tb = TraceBuilder()
    for start in range(0, n, barrier_every):
        span = min(barrier_every, n - start)
        for core in range(cores):
            tb.append(core, rng.integers(0, 1 << 20, size=span), 8,
                      AccessClass.VTXPROP, write=bool(core % 2),
                      vertex=rng.integers(0, 50, size=span))
        tb.mark_barrier()
    trace = tb.build()
    trace.regions = (
        Region(name="vtxprop:x", base=0, size=1 << 20,
               access_class=AccessClass.VTXPROP),
    )
    return trace


def assert_traces_equal(a: Trace, b: Trace):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.barriers, b.barriers)
    assert a.regions == b.regions


class TestFromTrace:
    def test_segments_cover_the_interleaved_trace(self):
        trace = build_trace()
        seg = SegmentedTrace.from_trace(trace, 37)
        inter = trace.interleaved()
        assert seg.num_events == trace.num_events
        lo = 0
        for part in seg.iter_segments():
            hi = lo + part.num_events
            np.testing.assert_array_equal(part.addr, inter.addr[lo:hi])
            np.testing.assert_array_equal(part.core, inter.core[lo:hi])
            lo = hi
        assert lo == trace.num_events

    def test_materialize_equals_interleaved(self):
        trace = build_trace()
        seg = SegmentedTrace.from_trace(trace, 37)
        assert_traces_equal(seg.materialize(), trace.interleaved())

    @pytest.mark.parametrize("step", [1, 3, 1000])
    def test_every_step_partitions_exactly(self, step):
        trace = build_trace(n=20)
        seg = SegmentedTrace.from_trace(trace, step)
        sizes = np.diff(seg.segment_bounds)
        assert int(sizes.sum()) == seg.num_events
        assert (sizes[:-1] == step).all() if len(sizes) > 1 else True
        assert seg.num_segments == -(-seg.num_events // step)

    def test_barriers_rebase_exactly_once(self):
        trace = build_trace(barrier_every=10)
        seg = SegmentedTrace.from_trace(trace, 33)
        seen = []
        for k, part in enumerate(seg.iter_segments()):
            lo = int(seg.segment_bounds[k])
            hi = int(seg.segment_bounds[k + 1])
            assert ((part.barriers >= 0) & (part.barriers < hi - lo)).all()
            seen.extend(int(b) + lo for b in part.barriers)
        inter = trace.interleaved()
        assert seen == [b for b in inter.barriers.tolist() if b < len(inter)]

    def test_nonpositive_step_rejected(self):
        with pytest.raises(TraceError, match="segment_events"):
            SegmentedTrace.from_trace(build_trace(), 0)

    def test_segment_index_bounds_checked(self):
        seg = SegmentedTrace.from_trace(build_trace(), 50)
        with pytest.raises(TraceError, match="out of range"):
            seg.segment(seg.num_segments)


class TestArchiveRoundtrip:
    def test_save_open_roundtrip(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(trace, 41).save(path)
        with SegmentedTrace.open(path) as loaded:
            assert loaded.interleaved
            assert loaded.num_events == trace.num_events
            assert_traces_equal(loaded.materialize(), trace.interleaved())

    def test_mmap_mode_reads_same_columns(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(trace, 41).save(path)
        with SegmentedTrace.open(path, mmap_mode="r") as loaded:
            assert_traces_equal(loaded.materialize(), trace.interleaved())

    def test_nbytes_matches_trace_semantics(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(trace, 41).save(path)
        inter = trace.interleaved()
        with SegmentedTrace.open(path) as loaded:
            assert loaded.nbytes == inter.nbytes

    def test_open_rejects_future_version(self, tmp_path):
        path = tmp_path / "t.npz"
        writer = SegmentWriter(path, segment_events=8)
        writer.close()
        # Rewrite the version member with a future stamp.
        with zipfile.ZipFile(path) as zf:
            members = {
                name: zf.read(name) for name in zf.namelist()
                if name != "format_version.npy"
            }
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)
            import io
            buf = io.BytesIO()
            np.save(buf, np.asarray(np.int64(max(READABLE_TRACE_VERSIONS)
                                             + 1)))
            zf.writestr("format_version.npy", buf.getvalue())
        with pytest.raises(TraceError, match="format version"):
            SegmentedTrace.open(path)

    def test_open_rejects_monolithic_archive(self, tmp_path):
        path = tmp_path / "mono.npz"
        build_trace().save(path)
        with pytest.raises(TraceError, match="not a segmented"):
            SegmentedTrace.open(path)

    def test_reads_after_close_fail_cleanly(self, tmp_path):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        loaded = SegmentedTrace.open(path)
        loaded.close()
        loaded.close()  # idempotent
        with pytest.raises(TraceError, match="closed"):
            loaded.segment(0)

    def test_archive_stamps_current_version(self, tmp_path):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        with np.load(path) as data:
            assert int(data["format_version"]) == TRACE_FORMAT_VERSION
            assert "segment_bounds" in data.files


def _reference_archive(path, segtrace):
    """The archive as ``npformat.write_array`` lays it out, member by
    member: the byte-for-byte reference for the buffer-direct writer."""
    def member(zf, name, array):
        with zf.open(zipfile.ZipInfo(name), "w", force_zip64=True) as fp:
            npformat.write_array(fp, np.asarray(array), allow_pickle=False)

    regions = segtrace.regions
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as zf:
        for index in range(segtrace.num_segments):
            seg = segtrace.segment(index)
            for name in COLUMNS:
                member(zf, f"seg{index:05d}.{name}.npy", getattr(seg, name))
        member(zf, "format_version.npy", np.int64(TRACE_FORMAT_VERSION))
        member(zf, "interleaved.npy", np.int64(1))
        member(zf, "segment_bounds.npy", segtrace.segment_bounds)
        member(zf, "barriers.npy", segtrace.barriers)
        member(zf, "region_name.npy",
               np.array([r.name for r in regions], dtype=np.str_))
        member(zf, "region_base.npy",
               np.array([r.base for r in regions], dtype=np.int64))
        member(zf, "region_size.npy",
               np.array([r.size for r in regions], dtype=np.int64))
        member(zf, "region_class.npy",
               np.array([int(r.access_class) for r in regions],
                        dtype=np.int8))


class TestByteDeterminism:
    """Archives are a pure function of the trace and the segment size."""

    def test_store_and_save_write_identical_bytes(self, tmp_path):
        from repro.store import TraceStore

        trace = build_trace(n=300, barrier_every=23)
        store = TraceStore(tmp_path / "store")
        for key in ("a", "b"):
            store.store(key, trace, {"num_events": trace.num_events},
                        segment_events=64)
        saved = []
        for name in ("s1.npz", "s2.npz"):
            SegmentedTrace.from_trace(trace, 64).save(tmp_path / name)
            saved.append((tmp_path / name).read_bytes())
        stored = [store.trace_path(k).read_bytes() for k in ("a", "b")]
        assert stored[0] == stored[1] == saved[0] == saved[1]

    def test_matches_write_array_layout(self, tmp_path):
        segtrace = SegmentedTrace.from_trace(build_trace(n=300), 64)
        segtrace.save(tmp_path / "fast.npz")
        _reference_archive(tmp_path / "ref.npz", segtrace)
        assert ((tmp_path / "fast.npz").read_bytes()
                == (tmp_path / "ref.npz").read_bytes())

    def test_np_load_reads_every_member_back(self, tmp_path):
        trace = build_trace(n=300)
        segtrace = SegmentedTrace.from_trace(trace, 64)
        segtrace.save(tmp_path / "t.npz")
        interleaved = trace.interleaved()
        with np.load(tmp_path / "t.npz") as data:
            np.testing.assert_array_equal(data["segment_bounds"],
                                          segtrace.segment_bounds)
            np.testing.assert_array_equal(data["barriers"], trace.barriers)
            for name in COLUMNS:
                column = np.concatenate([
                    data[f"seg{i:05d}.{name}"]
                    for i in range(segtrace.num_segments)
                ])
                np.testing.assert_array_equal(column,
                                              getattr(interleaved, name))
                assert column.dtype == getattr(interleaved, name).dtype


class TestSegmentWriter:
    def test_bounded_buffering_flushes_full_segments(self, tmp_path):
        path = tmp_path / "w.npz"
        writer = SegmentWriter(path, segment_events=10)
        rng = np.random.default_rng(1)
        total = 0
        for batch in (7, 13, 4, 26):
            writer.append({
                "core": np.zeros(batch, dtype=np.int16),
                "addr": rng.integers(0, 1 << 20, size=batch),
                "size": np.full(batch, 8, dtype=np.int16),
                "access_class": np.zeros(batch, dtype=np.int8),
                "flags": np.zeros(batch, dtype=np.int8),
                "vertex": np.full(batch, -1, dtype=np.int64),
            })
            total += batch
            # Never more than one partial segment buffered.
            assert writer._pending_n < 10
        writer.close()
        with SegmentedTrace.open(path) as loaded:
            assert loaded.num_events == total
            sizes = np.diff(loaded.segment_bounds)
            assert (sizes[:-1] == 10).all()

    def test_append_after_close_rejected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "w.npz", segment_events=4)
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append({"addr": np.zeros(1, dtype=np.int64)})


class TestSpoolingBuilder:
    def _run_both(self, tmp_path, n=120, barrier_every=13):
        """Drive a TraceBuilder and a spooling builder identically."""
        rng = np.random.default_rng(5)
        spool = tmp_path / "spool.npz"
        spooler = SpoolingTraceBuilder(spool, segment_events=25)
        direct = TraceBuilder()
        for start in range(0, n, barrier_every):
            span = min(barrier_every, n - start)
            addrs = rng.integers(0, 1 << 20, size=span)
            verts = rng.integers(0, 40, size=span)
            for core in range(3):
                for tb in (spooler, direct):
                    tb.append(core, addrs, 8, AccessClass.VTXPROP,
                              write=True, vertex=verts)
            for tb in (spooler, direct):
                tb.mark_barrier()
        return spooler, direct

    def test_spooled_archive_equals_interleaved_build(self, tmp_path):
        spooler, direct = self._run_both(tmp_path)
        segments = spooler.finalize()
        assert segments.interleaved
        assert_traces_equal(
            segments.materialize(), direct.build().interleaved()
        )
        segments.close()

    def test_build_is_unavailable(self, tmp_path):
        spooler = SpoolingTraceBuilder(tmp_path / "s.npz")
        with pytest.raises(TraceError, match="finalize"):
            spooler.build()
        spooler.abort()

    def test_regions_land_in_the_archive(self, tmp_path):
        spooler, _ = self._run_both(tmp_path, n=30)
        regions = (
            Region(name="vtxprop:x", base=0, size=4096,
                   access_class=AccessClass.VTXPROP),
        )
        segments = spooler.finalize(regions=regions)
        assert segments.regions == regions
        segments.close()

    def test_empty_run_finalizes_to_empty_archive(self, tmp_path):
        spooler = SpoolingTraceBuilder(tmp_path / "e.npz")
        segments = spooler.finalize()
        assert segments.num_events == 0
        assert segments.materialize().num_events == 0
        segments.close()

    def test_default_segment_size_is_sane(self):
        assert DEFAULT_SEGMENT_EVENTS > 0
