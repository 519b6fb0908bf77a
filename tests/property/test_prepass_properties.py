"""Property tests: the vectorized pre-pass matches the scalar models.

The replay engine's batch stage must agree, event for event, with the
scalar implementations it replaced: region classification with
``AddressSpace.classify``, hot/home columns with ``ScratchpadMapping``'s
scalar methods, flag decoding with direct bit tests, and the O(1)
stream detector with a naive linear-scan reference of the same 16-head
round-robin scheme.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.ligra.trace import (
    AccessClass,
    AddressSpace,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_UPDATE,
    FLAG_WRITE,
    TraceBuilder,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.prepass import (
    StreamDetector,
    classify_regions,
    precompute,
    word_bytes,
)

CLASSES = (AccessClass.VTXPROP, AccessClass.EDGELIST, AccessClass.NGRAPH)


def _space(sizes):
    space = AddressSpace()
    for i, size in enumerate(sizes):
        space.allocate(f"r{i}", size, CLASSES[i % len(CLASSES)])
    return space


class TestClassifyRegions:
    @given(
        st.lists(st.integers(0, 3000), min_size=0, max_size=6),
        st.lists(st.integers(0, 1 << 22), min_size=1, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_classify(self, sizes, offsets):
        space = _space(sizes)
        addrs = np.asarray(offsets, dtype=np.int64) + 0x1000_0000 - 4096
        got = classify_regions(space.regions, addrs)
        for addr, cls in zip(addrs.tolist(), got.tolist()):
            assert cls == int(space.classify(addr))

    def test_first_region_wins_overlap(self):
        from repro.ligra.trace import Region

        regions = [
            Region("a", 0, 100, AccessClass.VTXPROP),
            Region("b", 50, 100, AccessClass.EDGELIST),
        ]
        got = classify_regions(regions, np.array([60]))
        assert got[0] == int(AccessClass.VTXPROP)


def _random_trace(rng, n, num_cores, space):
    builder = TraceBuilder()
    regions = space.regions
    for _ in range(n):
        region = regions[rng.integers(0, len(regions))]
        addr = int(region.base) + int(
            rng.integers(0, max(1, region.size + 64))
        )
        builder.append(
            core=int(rng.integers(0, num_cores)),
            addr=np.array([addr]),
            size=int(rng.integers(1, 17)),
            access_class=region.access_class,
            write=bool(rng.integers(0, 2)),
            atomic=bool(rng.integers(0, 2)),
            src_read=bool(rng.integers(0, 2)),
            update=bool(rng.integers(0, 2)),
            vertex=int(rng.integers(-1, 500)),
        )
    return builder.build()


class TestPrecompute:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_models(self, seed):
        rng = np.random.default_rng(seed)
        config = SimConfig.scaled_omega()
        num_cores = config.core.num_cores
        space = _space([512, 2048, 1024])
        trace = _random_trace(rng, 60, num_cores, space)
        mapping = ScratchpadMapping(num_cores, hot_capacity=128,
                                    chunk_size=32)
        pre = precompute(trace, mapping=mapping)

        for i in range(trace.num_events):
            flags = int(trace.flags[i])
            assert pre.write[i] == bool(flags & FLAG_WRITE)
            assert pre.atomic[i] == bool(flags & FLAG_ATOMIC)
            assert pre.src_read[i] == bool(flags & FLAG_SRC_READ)
            assert pre.update[i] == bool(flags & FLAG_UPDATE)
            vertex = int(trace.vertex[i])
            is_vtx = (
                int(trace.access_class[i]) == int(AccessClass.VTXPROP)
            )
            assert pre.vtxprop[i] == is_vtx
            assert pre.hot[i] == (is_vtx and mapping.is_hot(vertex))
            assert pre.home[i] == mapping.home(vertex)
            assert pre.local[i] == (
                mapping.home(vertex) == int(trace.core[i])
            )

    @given(st.lists(st.integers(-3, 5000), max_size=50),
           st.integers(1, 70), st.sampled_from([1, 2, 3, 4, 16, 64]))
    @settings(max_examples=100, deadline=None)
    def test_home_many_matches_home(self, vertices, chunk, cores):
        """Power-of-two chunks and core counts take the shift-and-mask
        path; both paths equal the scalar floor division, negative ids
        included."""
        mapping = ScratchpadMapping(cores, hot_capacity=64, chunk_size=chunk)
        homes = mapping.home_many(np.asarray(vertices, dtype=np.int64))
        assert homes.tolist() == [mapping.home(v) for v in vertices]

    def test_word_bytes_clamps_to_the_port(self):
        sizes = np.array([1, 4, 8, 16, 64], dtype=np.int16)
        assert word_bytes(sizes) == 1 + 4 + 8 + 8 + 8
        assert word_bytes(sizes[:0]) == 0

    def test_no_mapping_gives_inert_columns(self):
        config = SimConfig.scaled_baseline()
        space = _space([256])
        rng = np.random.default_rng(0)
        trace = _random_trace(rng, 20, config.core.num_cores, space)
        pre = precompute(trace, mapping=None)
        assert not pre.hot.any()
        assert (pre.home == -1).all()
        assert not pre.local.any()


class _NaiveStreamDetector:
    """Reference 16-head detector: literal linear scan, as in the seed."""

    def __init__(self, num_cores, num_heads=16):
        self.num_heads = num_heads
        self._heads = [[-2] * num_heads for _ in range(num_cores)]
        self._next = [0] * num_cores

    def observe(self, core, line):
        heads = self._heads[core]
        for slot in range(self.num_heads):
            if heads[slot] + 1 == line:
                heads[slot] = line
                return True
        slot = self._next[core]
        heads[slot] = line
        self._next[core] = (slot + 1) % self.num_heads
        return False


class TestStreamDetector:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 40)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_reference(self, events):
        fast = StreamDetector(num_cores=4)
        naive = _NaiveStreamDetector(num_cores=4)
        for core, line in events:
            assert fast.observe(core, line) == naive.observe(core, line)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 40)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_flags_equals_observe(self, events):
        seq = StreamDetector(num_cores=4)
        batch = StreamDetector(num_cores=4)
        cores = np.array([c for c, _ in events])
        lines = np.array([ln for _, ln in events])
        expected = np.array(
            [seq.observe(c, ln) for c, ln in events], dtype=bool
        )
        got = batch.flags(cores, lines)
        assert (got == expected).all()

    def test_sequential_run_prefetches_after_first(self):
        det = StreamDetector(num_cores=1)
        flags = [det.observe(0, line) for line in range(10)]
        assert flags[0] is False
        assert all(flags[1:])
