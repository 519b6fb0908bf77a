"""The compiled lockstep interleave equals the numpy reference exactly.

``lockstep_perm`` in ``ckernel.c`` orders a whole trace span by span in
one linear-time call. Its reference is :func:`span_lockstep_perm`
composed over the barrier spans; these tests pin the two together at
tolerance 0 over awkward inputs (empty traces, single-event spans,
barriers at 0, at n, duplicated and out of range, one core, 64 cores,
very uneven per-core counts), check the core-id bounds, the
no-compiler fallback, and that the spooling builder archives the same
order as :meth:`Trace.interleaved`.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings

import hypothesis.strategies as st

from repro.config import MAX_CORES
from repro.errors import TraceError
from repro.ligra.segments import SpoolingTraceBuilder
from repro.ligra.trace import (
    EVENT_COLUMNS,
    AccessClass,
    Trace,
    TraceBuilder,
    lockstep_order,
    span_lockstep_perm,
)
from repro.memsim import ckernel

pytestmark = pytest.mark.skipif(
    ckernel.load_kernel() is None, reason="no C compiler for the kernel"
)


def reference_perm(core, barriers):
    """The numpy composition: span_lockstep_perm over each barrier span."""
    n = len(core)
    cuts = sorted({int(b) for b in barriers if 0 < b < n})
    bounds = [0] + cuts + [n]
    parts = [lo + span_lockstep_perm(core[lo:hi])
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return np.concatenate(parts) if parts else np.zeros(0, np.int64)


@st.composite
def traces(draw):
    """Core columns with skewed per-core counts, and barrier lists."""
    ncores = draw(st.sampled_from([1, 2, 3, 16, MAX_CORES]))
    n = draw(st.integers(0, 300))
    # Geometric-ish core weights: some cores get most events, others
    # one or none.
    weights = np.array(draw(st.lists(st.integers(0, 1000), min_size=ncores,
                                     max_size=ncores)), dtype=float) + 1e-3
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    core = rng.choice(ncores, size=n, p=weights / weights.sum())
    barriers = draw(st.lists(
        st.one_of(st.integers(-5, n + 5), st.sampled_from([0, n])),
        max_size=12,
    ))
    return core.astype(np.int16), barriers


def _trace(core, barriers=()):
    n = len(core)
    rng = np.random.default_rng(n)
    return Trace(
        core=np.asarray(core, dtype=np.int16),
        addr=rng.integers(0, 1 << 30, n).astype(np.int64),
        size=np.full(n, 8, np.int16),
        access_class=rng.integers(0, 3, n).astype(np.int8),
        flags=rng.integers(0, 16, n).astype(np.int8),
        vertex=rng.integers(-1, 1000, n).astype(np.int64),
        barriers=np.asarray(sorted(barriers), dtype=np.int64),
    )


def _columns(trace):
    return {name: getattr(trace, name) for name, _ in EVENT_COLUMNS}


def _assert_same_trace(a, b):
    for name, _ in EVENT_COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.barriers, b.barriers)


class TestCompiledMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_lockstep_order_matches_span_composition(self, case):
        core, barriers = case
        expected = reference_perm(core, barriers)
        got = lockstep_order(core, np.asarray(barriers, dtype=np.int64))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_interleaved_trace_matches_reference_gather(self, case):
        core, barriers = case
        trace = _trace(core, [b for b in barriers if 0 <= b])
        perm = reference_perm(trace.core, trace.barriers)
        got = trace.interleaved()
        for name, col in _columns(trace).items():
            np.testing.assert_array_equal(getattr(got, name), col[perm])

    def test_empty_trace(self):
        core = np.zeros(0, np.int16)
        assert len(lockstep_order(core, np.array([0, 0, 3]))) == 0
        trace = _trace(core)
        assert trace.interleaved() is trace

    def test_single_event_spans(self):
        core = np.array([3, 1, 2, 0, 1], np.int16)
        barriers = np.arange(6)  # every span holds one event
        np.testing.assert_array_equal(lockstep_order(core, barriers),
                                      np.arange(5))

    def test_one_core_keeps_trace_order(self):
        core = np.zeros(50, np.int16)
        np.testing.assert_array_equal(
            lockstep_order(core, np.array([10, 10, 40])), np.arange(50)
        )

    def test_all_cores_very_uneven(self):
        rng = np.random.default_rng(7)
        core = np.concatenate([
            np.full(5000, 63), np.arange(MAX_CORES), np.full(300, 0),
        ]).astype(np.int16)
        rng.shuffle(core)
        barriers = np.array([0, 1, 2000, 2000, len(core), len(core) + 9])
        np.testing.assert_array_equal(lockstep_order(core, barriers),
                                      reference_perm(core, barriers))

    def test_rank_then_core_order(self):
        # Core 1 has three events, core 0 one: ranks interleave and a
        # core drops out once it runs dry.
        core = np.array([1, 1, 0, 1], np.int16)
        np.testing.assert_array_equal(lockstep_order(core, ()),
                                      [2, 0, 1, 3])


class TestCoreBounds:
    @pytest.mark.parametrize("bad", [MAX_CORES, 200, -1])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_out_of_range_core_raises(self, bad, dtype):
        core = np.array([0, 1, bad, 2], dtype=dtype)
        with pytest.raises(TraceError, match="outside"):
            lockstep_order(core, ())
        with pytest.raises(TraceError, match="outside"):
            _bad_trace(core).interleaved()

    def test_wide_dtype_does_not_wrap(self):
        # 65536 + 2 narrows to core 2 as int16; it must be rejected
        # before the cast, not replayed as core 2.
        core = np.array([0, 65538], dtype=np.int64)
        with pytest.raises(TraceError, match="65538"):
            lockstep_order(core, ())

    def test_malformed_bounds_rejected(self):
        lib = ckernel.load_kernel()
        core = np.zeros(4, np.int16)
        for bounds in ([0, 3], [1, 4], [0, 3, 2, 4], []):
            with pytest.raises(TraceError, match="bounds"):
                ckernel.lockstep_perm(lib, core, np.array(bounds))


def _bad_trace(core):
    n = len(core)
    trace = _trace(np.zeros(n, np.int16))
    trace.core = np.asarray(core)
    return trace


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestNoCompilerFallback:
    def test_interleaved_without_compiler(self, monkeypatch):
        rng = np.random.default_rng(3)
        core = rng.integers(0, 8, 2000).astype(np.int16)
        compiled = _trace(core, [0, 500, 500, 1999, 2000]).interleaved()
        records = _Records()
        logger = logging.getLogger("repro.memsim.ckernel")
        logger.addHandler(records)
        monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
        ckernel.load_kernel.cache_clear()
        try:
            fallback = _trace(core, [0, 500, 500, 1999, 2000]).interleaved()
            again = _trace(core[::-1].copy()).interleaved()
            with pytest.raises(TraceError, match="outside"):
                lockstep_order(np.array([0, MAX_CORES], np.int16), ())
        finally:
            logger.removeHandler(records)
            monkeypatch.undo()
            ckernel.load_kernel.cache_clear()
        _assert_same_trace(fallback, compiled)
        np.testing.assert_array_equal(
            again.core, core[::-1][reference_perm(core[::-1], ())]
        )
        assert len(records.messages) == 1
        assert "no C compiler" in records.messages[0]


def _append_batches(builder, rng, spans):
    """The same batch sequence into any builder: scalar and array
    columns, uneven cores, a barrier after each span."""
    for span in range(spans):
        for batch in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 40))
            core = (int(rng.integers(0, 4)) if batch % 2
                    else rng.integers(0, 4, n))
            builder.append(
                core, rng.integers(0, 1 << 20, n), 8,
                AccessClass(batch % 3), write=bool(batch % 2),
                atomic=bool(span % 2),
                vertex=(-1 if batch % 3 else rng.integers(0, 99, n)),
            )
        builder.mark_barrier()


class TestSpoolingOrder:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spans=st.integers(0, 6),
           segment_events=st.integers(1, 64))
    def test_spooled_archive_is_interleaved_order(self, tmp_path_factory,
                                                  seed, spans,
                                                  segment_events):
        path = tmp_path_factory.mktemp("spool") / "spool.npz"
        in_core = TraceBuilder()
        spool = SpoolingTraceBuilder(path, segment_events=segment_events)
        _append_batches(in_core, np.random.default_rng(seed), spans)
        _append_batches(spool, np.random.default_rng(seed), spans)
        assert spool.num_events == in_core.num_events
        with spool.finalize() as segments:
            streamed = segments.materialize()
        _assert_same_trace(streamed, in_core.build().interleaved())


class TestBuilderBoundaries:
    @pytest.mark.parametrize("column", ["core", "size", "vertex"])
    def test_array_length_mismatch_raises(self, column):
        tb = TraceBuilder()
        args = {"core": 0, "size": 8, "vertex": -1}
        args[column] = np.zeros(3, dtype=np.int64)
        with pytest.raises(TraceError, match="length 3 != 4"):
            tb.append(args["core"], np.arange(4), args["size"],
                      AccessClass.VTXPROP, vertex=args["vertex"])
        assert tb.num_events == 0

    def test_running_count_matches_columns(self):
        tb = TraceBuilder()
        _append_batches(tb, np.random.default_rng(1), 4)
        trace = tb.build()
        assert tb.num_events == trace.num_events
        assert trace.barriers[-1] == trace.num_events

    def test_scalar_columns_fill_at_build(self):
        tb = TraceBuilder()
        tb.append(3, np.arange(4), 2, AccessClass.NGRAPH, write=True)
        tb.append(np.array([0, 1]), np.arange(2), np.array([8, 4]),
                  AccessClass.VTXPROP, vertex=np.array([5, 6]))
        trace = tb.build()
        np.testing.assert_array_equal(trace.core, [3, 3, 3, 3, 0, 1])
        np.testing.assert_array_equal(trace.size, [2, 2, 2, 2, 8, 4])
        np.testing.assert_array_equal(trace.vertex, [-1] * 4 + [5, 6])
        np.testing.assert_array_equal(trace.access_class, [2] * 4 + [0] * 2)
        np.testing.assert_array_equal(trace.flags, [1] * 4 + [0] * 2)
        for name, dtype in EVENT_COLUMNS:
            assert getattr(trace, name).dtype == dtype

    def test_empty_build_has_canonical_dtypes(self):
        trace = TraceBuilder().build()
        for name, dtype in EVENT_COLUMNS:
            assert getattr(trace, name).dtype == dtype
            assert len(getattr(trace, name)) == 0
