"""Exact parity of the dynamic backend's frequency trainer: C vs Python.

:class:`repro.memsim.ckernel.FlatDynamicPads` (``dynpad_train`` in
``ckernel.c``) must reproduce :class:`DynamicPads`, the Python loop,
at tolerance 0: the same resident mask per segment, the same set
contents in the same insertion order, and the same running counts,
whatever the set count, slot count, vertex ids and segment cuts.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.offload import microcode_for_algorithm
from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import FLAG_ATOMIC, FLAG_WRITE, AccessClass
from repro.memsim.backends import DynamicScratchpadBackend
from repro.memsim.backends.dynamic import DynamicPads
from repro.memsim.ckernel import FlatDynamicPads, load_kernel

from tests.property.test_kernel_parity import (
    NCORES,
    assert_parity,
    make_trace,
    snapshot,
)


@pytest.fixture(scope="module")
def lib():
    lib = load_kernel()
    assert lib is not None
    return lib


def train_both(lib, num_sets, slots, vtxprop, vertex, cuts):
    """Train the compiled and the Python pads over the segments
    ``[cuts[k], cuts[k+1])`` with the state carried, comparing the
    resident masks segment by segment; returns both pads."""
    flat = FlatDynamicPads(lib, num_sets, slots)
    python = DynamicPads(num_sets, slots)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        got = flat.train(vtxprop[lo:hi].copy(), vertex[lo:hi].copy())
        want = python.train(vtxprop[lo:hi], vertex[lo:hi])
        assert got.tolist() == want.tolist()
    assert flat.sets() == python.sets()
    # Insertion order is part of the state: the tie-break reads it.
    assert [list(s) for s in flat.sets()] == [list(s)
                                             for s in python.sets()]
    assert flat.counts() == python.counts()
    return flat, python


# Events: (is_vtxprop, vertex). A small vertex universe over few sets
# forces full sets, count ties and evictions; -1 is a non-vertex event.
TRAIN_EVENTS = st.lists(
    st.tuples(st.booleans(), st.integers(-1, 40)), max_size=300
)


class TestTrainerParity:
    @given(
        TRAIN_EVENTS,
        st.sampled_from([1, 2, 3, 5, 7, 8]),
        st.sampled_from([1, 2, 3, 4]),
        st.lists(st.integers(0, 300), max_size=4),
    )
    @example([(True, v) for v in (0, 1, 2, 3, 4, 4, 0)], 1, 4, [])
    @settings(max_examples=200, deadline=None)
    def test_matches_python_loop(self, lib, events, num_sets, slots, cuts):
        """Count ties, 1-slot sets, non-power-of-two set counts, and
        state carried across arbitrary segment cuts."""
        n = len(events)
        vtxprop = np.array([e[0] for e in events], dtype=bool)
        vertex = np.array([e[1] for e in events], dtype=np.int64)
        segmented = [0] + sorted({c for c in cuts if 0 < c < n}) + [n]
        whole, _ = train_both(lib, num_sets, slots, vtxprop, vertex, [0, n])
        cut, _ = train_both(lib, num_sets, slots, vtxprop, vertex, segmented)
        # Cutting the stream changes nothing.
        assert cut.sets() == whole.sets()
        assert cut.counts() == whole.counts()

    def test_tie_evicts_first_inserted(self, lib):
        """Equal counts: the victim is the earliest-inserted entry, and
        the newcomer goes last."""
        vertex = np.array([0, 1, 2, 0, 1, 2, 3, 3, 3], dtype=np.int64)
        vtxprop = np.ones(len(vertex), dtype=bool)
        flat, _ = train_both(lib, 1, 3, vtxprop, vertex, [0, len(vertex)])
        # 3 reaches count 2 (ties 0, 1, 2 at 2; no eviction), then 3
        # beats the first of them, 0.
        assert [list(s.items()) for s in flat.sets()] == [
            [(1, 2), (2, 2), (3, 3)]
        ]

    def test_count_array_grows_between_calls(self, lib):
        """Vertex ids far past the count array grow it, within one call
        and across calls, without losing earlier counts."""
        flat, _ = train_both(
            lib, 3, 2, np.ones(6, dtype=bool),
            np.array([2, 70_000, 5, 2, 1_000_003, 70_000], dtype=np.int64),
            [0, 2, 3, 6],
        )
        assert len(flat.freq) > 1_000_003
        assert flat.counts() == {2: 2, 5: 1, 70_000: 2, 1_000_003: 1}

    def test_non_vertex_events_never_resident(self, lib):
        flat = FlatDynamicPads(lib, 2, 2)
        resident = flat.train(np.array([True, False, True]),
                              np.array([-1, 4, 4], dtype=np.int64))
        assert resident.tolist() == [False, False, True]
        assert flat.counts() == {4: 1}


def dyn_trace(n=600, seed=5):
    rng = np.random.default_rng(seed)
    cores = rng.integers(0, NCORES, n)
    # Skewed vertex ids: a few hubs recur, a long tail competes.
    verts = np.where(rng.random(n) < 0.5, rng.integers(0, 6, n),
                     rng.integers(0, 200, n))
    classes = np.where(rng.random(n) < 0.7, int(AccessClass.VTXPROP),
                       int(AccessClass.EDGELIST))
    verts = np.where(classes == int(AccessClass.VTXPROP), verts, -1)
    flags = np.where(rng.random(n) < 0.3, FLAG_WRITE | FLAG_ATOMIC, 0)
    addrs = 0x100000 + np.maximum(verts, 0) * 8 + (verts < 0) * 0x40000
    return make_trace(cores, addrs, flags, classes, verts)


class TestBackendParity:
    """The whole dynamic backend, compiled trainer + kernel vs oracle."""

    CFG = SimConfig.scaled_omega(num_cores=NCORES)

    @pytest.mark.parametrize("capacity,slots", [
        (0, 4),    # no pads: every event takes the cache path
        (3, 4),    # capacity < slots_per_set: one set of 4 slots
        (21, 4),   # 5 sets, not a power of two
        (64, 1),   # direct-mapped pads
    ])
    def test_capacity_shapes(self, capacity, slots):
        microcode = microcode_for_algorithm("pagerank")

        def make():
            return DynamicScratchpadBackend(self.CFG, capacity, microcode,
                                            slots_per_set=slots)

        out_k, _ = assert_parity(make, dyn_trace())
        if capacity == 0:
            assert out_k.stats.sp_accesses == 0
        else:
            assert out_k.stats.sp_accesses > 0

    @pytest.mark.parametrize("segment_events", [1, 7, 256])
    def test_streamed_matches_in_core_oracle(self, segment_events):
        """The compiled trainer carries its sets and counts across
        segment cuts: a streamed replay equals the in-core oracle."""
        trace = dyn_trace(300)

        def make():
            return DynamicScratchpadBackend(self.CFG, 21, slots_per_set=4)

        streamed = make().replay_segments(
            SegmentedTrace.from_trace(trace, segment_events)
        )
        assert streamed.kernel["mode"] == "kernel"
        oracle = make()
        oracle.scalar_cache = True
        assert snapshot(streamed) == snapshot(oracle.replay(trace))
