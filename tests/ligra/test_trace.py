"""Tests for the memory-trace model."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.ligra.trace import (
    AccessClass,
    AddressSpace,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_WRITE,
    TraceBuilder,
)


class TestAddressSpace:
    def test_regions_page_aligned_and_disjoint(self):
        space = AddressSpace()
        a = space.allocate("a", 100, AccessClass.VTXPROP)
        b = space.allocate("b", 5000, AccessClass.EDGELIST)
        assert a.base % AddressSpace.PAGE == 0
        assert b.base >= a.base + AddressSpace.PAGE
        assert b.base % AddressSpace.PAGE == 0

    def test_classify(self):
        space = AddressSpace()
        a = space.allocate("a", 64, AccessClass.VTXPROP)
        assert space.classify(a.base) is AccessClass.VTXPROP
        assert space.classify(a.base + 63) is AccessClass.VTXPROP
        assert space.classify(a.base + 64) is AccessClass.NGRAPH

    def test_zero_size_region(self):
        space = AddressSpace()
        r = space.allocate("empty", 0, AccessClass.NGRAPH)
        assert r.size == 0
        assert not r.contains(r.base)

    def test_negative_size_rejected(self):
        with pytest.raises(TraceError):
            AddressSpace().allocate("bad", -1, AccessClass.NGRAPH)

    def test_region_contains(self):
        space = AddressSpace()
        r = space.allocate("r", 10, AccessClass.NGRAPH)
        assert r.contains(r.base)
        assert not r.contains(r.base - 1)
        assert r.end == r.base + 10


class TestTraceBuilder:
    def test_append_and_build(self):
        tb = TraceBuilder()
        tb.append(0, np.array([100, 108]), 8, AccessClass.VTXPROP, vertex=np.array([0, 1]))
        tb.append(np.array([1, 2]), np.array([200, 300]), 4, AccessClass.EDGELIST)
        tr = tb.build()
        assert tr.num_events == 4
        assert tr.core.tolist() == [0, 0, 1, 2]
        assert tr.vertex.tolist() == [0, 1, -1, -1]

    def test_flags(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1]), 8, AccessClass.VTXPROP, write=True, atomic=True)
        tb.append(0, np.array([2]), 8, AccessClass.VTXPROP, src_read=True)
        tr = tb.build()
        assert tr.flags[0] == FLAG_WRITE | FLAG_ATOMIC
        assert tr.flags[1] == FLAG_SRC_READ

    def test_empty_batch_ignored(self):
        tb = TraceBuilder()
        tb.append(0, np.zeros(0, dtype=np.int64), 8, AccessClass.VTXPROP)
        assert tb.num_events == 0

    def test_disabled_builder_is_noop(self):
        tb = TraceBuilder(enabled=False)
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tr = tb.build()
        assert tr.num_events == 0
        assert len(tr.barriers) == 0

    def test_column_length_mismatch(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(np.array([0]), np.array([1, 2]), 8, AccessClass.VTXPROP)

    def test_build_empty(self):
        tr = TraceBuilder().build()
        assert tr.num_events == 0

    def test_barriers_recorded(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tb.append(0, np.array([2]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        assert tr.barriers.tolist() == [1]


class TestTraceQueries:
    def _trace(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP,
                  write=True, atomic=True, vertex=np.array([5, 6]))
        tb.append(1, np.array([3]), 8, AccessClass.EDGELIST)
        tb.append(2, np.array([4]), 8, AccessClass.NGRAPH, write=True)
        return tb.build()

    def test_count_by_class(self):
        tr = self._trace()
        assert tr.count(access_class=AccessClass.VTXPROP) == 2
        assert tr.count(access_class=AccessClass.EDGELIST) == 1

    def test_count_by_flags(self):
        tr = self._trace()
        assert tr.count(atomic=True) == 2
        assert tr.count(write=True) == 3
        assert tr.count(write=True, atomic=False) == 1

    def test_vtxprop_vertex_ids(self):
        tr = self._trace()
        assert tr.vtxprop_vertex_ids().tolist() == [5, 6]

    def test_concat(self):
        a, b = self._trace(), self._trace()
        c = a.concat(b)
        assert c.num_events == 8

    def test_concat_shifts_barriers(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        a = tb.build()
        c = a.concat(a)
        assert c.barriers.tolist() == [1, 2]


class TestInterleaving:
    def test_round_robin_order(self):
        tb = TraceBuilder()
        tb.append(0, np.array([10, 11, 12]), 8, AccessClass.VTXPROP)
        tb.append(1, np.array([20, 21]), 8, AccessClass.VTXPROP)
        tr = tb.build().interleaved()
        assert tr.addr.tolist() == [10, 20, 11, 21, 12]

    def test_per_core_order_preserved(self):
        tb = TraceBuilder()
        tb.append(2, np.array([5, 6, 7]), 8, AccessClass.VTXPROP)
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tr = tb.build().interleaved()
        core0 = tr.addr[tr.core == 0].tolist()
        core2 = tr.addr[tr.core == 2].tolist()
        assert core0 == [1, 2]
        assert core2 == [5, 6, 7]

    def test_barriers_respected(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tb.append(1, np.array([3]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tb.append(1, np.array([4]), 8, AccessClass.VTXPROP)
        tr = tb.build().interleaved()
        # Events before the barrier stay before it.
        assert sorted(tr.addr[:3].tolist()) == [1, 2, 3]
        assert tr.addr[3] == 4

    def test_empty_trace(self):
        tr = TraceBuilder().build()
        assert tr.interleaved().num_events == 0

    def test_event_multiset_preserved(self):
        tb = TraceBuilder()
        tb.append(np.array([0, 3, 1, 3]), np.array([1, 2, 3, 4]), 8,
                  AccessClass.EDGELIST)
        tr = tb.build()
        inter = tr.interleaved()
        assert sorted(inter.addr.tolist()) == sorted(tr.addr.tolist())
