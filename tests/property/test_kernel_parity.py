"""Exact-parity suite: compiled kernel vs the scalar reference oracle.

The compiled cache kernel
(:meth:`repro.memsim.cachestate.CacheSystem._replay_compiled`) must
reproduce the scalar per-event oracle (``REPRO_SCALAR_CACHE=1`` /
``scalar_cache``) *exactly* — every integer counter, every
per-core float latency sum, and the full final cache/directory/
prefetcher/DRAM state — across all five hierarchy backends, every
interconnect topology, every DRAM page policy, and up to the 64-core
limit of the directory's sharer mask. No tolerances anywhere in this
file: a single-bit divergence is a bug.
"""

import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import run_algorithm
from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_system
from repro.core.offload import microcode_for_algorithm
from repro.graph.generators import rmat_graph
from repro.graph.reorder import reorder_nth_element
from repro.ligra.trace import (
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_UPDATE,
    FLAG_WRITE,
    AccessClass,
    Trace,
)
from repro.memsim.backends.omega import srcbuf_stage
from repro.memsim.cachestate import CacheSystem
from repro.memsim.ckernel import FlatSourceBuffers, load_kernel
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.stats import MemStats
from repro.memsim.backends import (
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    LockedCacheBackend,
    OmegaBackend,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.estimate import estimate_replay
from repro.memsim.scratchpad import hot_capacity_for
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.obs import ReplaySampler

NCORES = 4


def snapshot(out):
    """Every observable a replay produces, as one comparable dict.

    Includes the final *state* of the models — cache set contents with
    LRU order and dirty bits, the directory's line map, the stream
    prefetcher's heads, DRAM open-row registers — through
    :meth:`CacheSystem.state`, not just the counters, so state
    divergence that has not yet surfaced in a counter still fails the
    comparison.
    """
    return {
        "stats": dataclasses.asdict(out.stats),
        "l1": [(c.hits, c.misses, c.evictions, c.dirty_evictions)
               for c in out.l1s],
        "l2": [(c.hits, c.misses, c.evictions, c.dirty_evictions)
               for c in out.l2_banks],
        "directory": (out.directory.invalidations,
                      out.directory.writebacks),
        "dram": (
            out.dram.read_accesses, out.dram.write_accesses,
            out.dram.read_bytes, out.dram.write_bytes,
            out.dram.row_hits, out.dram.row_misses,
        ),
        "crossbar": (
            out.crossbar.line_packets, out.crossbar.word_packets,
            out.crossbar.control_packets, out.crossbar.line_bytes,
            out.crossbar.word_bytes, out.crossbar.control_bytes,
        ),
        "state": out.cache.state(),
        "srcbufs": srcbuf_contents(out.srcbufs),
    }


def srcbuf_contents(srcbufs):
    """Per-core source-buffer keys (LRU first), compiled or oracle."""
    if srcbufs is None:
        return None
    if isinstance(srcbufs, FlatSourceBuffers):
        return srcbufs.contents()
    return [buf.contents() for buf in srcbufs]


def assert_parity(make_backend, trace, sampler=False):
    """Replay twice — compiled kernel and scalar oracle — and compare
    exactly. The kernel side must really have run compiled, so the
    comparison can never pass oracle-vs-oracle."""
    kernel = make_backend()
    out_k = kernel.replay(
        trace, sampler=ReplaySampler(64) if sampler else None
    )
    assert out_k.kernel["mode"] == "kernel"
    assert out_k.kernel["batches"] > 0
    oracle = make_backend()
    oracle.scalar_cache = True
    out_o = oracle.replay(
        trace, sampler=ReplaySampler(64) if sampler else None
    )
    assert out_o.kernel["mode"] == "scalar"
    snap_k, snap_o = snapshot(out_k), snapshot(out_o)
    assert snap_k == snap_o
    # Float latency sums must be EXACT (same per-core accumulation
    # order), not just close.
    assert snap_k["stats"]["core_mem_latency"] == \
        snap_o["stats"]["core_mem_latency"]
    return out_k, out_o


def make_trace(cores, addrs, flags, classes=None, vertices=None):
    n = len(addrs)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=(
            np.full(n, int(AccessClass.NGRAPH), dtype=np.int8)
            if classes is None
            else np.asarray(classes, dtype=np.int8)
        ),
        flags=np.asarray(flags, dtype=np.int8),
        vertex=(
            np.full(n, -1, dtype=np.int64)
            if vertices is None
            else np.asarray(vertices, dtype=np.int64)
        ),
    )


def baseline_config(topology="crossbar", page_policy="closed"):
    cfg = SimConfig.scaled_baseline(num_cores=NCORES)
    return dataclasses.replace(
        cfg,
        interconnect=dataclasses.replace(cfg.interconnect,
                                         topology=topology),
        dram=dataclasses.replace(cfg.dram, page_policy=page_policy),
    )


# Event tuples: (core, line_id, offset_words, flags). A small line
# universe forces set conflicts, evictions, coherence churn, and
# repeated same-line runs (L1 hits) in every example.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, NCORES - 1),
        st.integers(0, 63),
        st.integers(0, 7),
        st.sampled_from([0, FLAG_WRITE, FLAG_WRITE | FLAG_ATOMIC]),
    ),
    min_size=1,
    max_size=400,
)


def events_to_trace(events):
    cores = [e[0] for e in events]
    addrs = [0x100000 + e[1] * 64 + e[2] * 8 for e in events]
    flags = [e[3] for e in events]
    return make_trace(cores, addrs, flags)


class TestRandomizedTraceParity:
    """Hypothesis-driven traces through every config family."""

    @given(EVENTS)
    @settings(max_examples=60, deadline=None)
    def test_crossbar_closed(self, events):
        cfg = baseline_config()
        assert_parity(lambda: BaselineBackend(cfg), events_to_trace(events))

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_mesh_topology(self, events):
        cfg = baseline_config(topology="mesh")
        assert_parity(lambda: BaselineBackend(cfg), events_to_trace(events))

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_open_page_dram(self, events):
        cfg = baseline_config(page_policy="open")
        # Random ranges set but must be IGNORED under plain open-page.
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100000, 0x100800)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_hybrid_page_dram(self, events):
        cfg = baseline_config(page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100000, 0x100800)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=20, deadline=None)
    def test_mesh_hybrid_combined(self, events):
        cfg = baseline_config(topology="mesh", page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100400, 0x100c00)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=20, deadline=None)
    def test_windowed_replay(self, events):
        cfg = baseline_config()
        assert_parity(
            lambda: BaselineBackend(cfg), events_to_trace(events),
            sampler=True,
        )


@pytest.fixture(scope="module")
def workload():
    """A real PageRank trace plus everything backends need to route it."""
    graph = rmat_graph(8, edge_factor=6, seed=7)
    result = run_algorithm("pagerank", graph, num_cores=NCORES,
                           chunk_size=32, trace=True)
    ranges = [(p.start_addr, p.region.end) for p in result.engine.vtx_props]
    bpv = result.engine.vtxprop_bytes_per_vertex()
    return result.trace, ranges, bpv, graph.num_vertices


def all_backend_factories(workload):
    trace, ranges, bpv, nverts = workload
    bcfg = SimConfig.scaled_baseline(num_cores=NCORES)
    ocfg = SimConfig.scaled_omega(num_cores=NCORES)
    lcfg = SimConfig.scaled_omega(num_cores=NCORES, use_pisc=False,
                                  use_source_buffer=False)
    microcode = microcode_for_algorithm("pagerank")
    hot = hot_capacity_for(ocfg.scratchpad_total_bytes, bpv, nverts)
    mapping = ScratchpadMapping(NCORES, hot, chunk_size=32)
    return {
        "baseline": lambda: BaselineBackend(bcfg, dram_random_ranges=ranges),
        "omega": lambda: OmegaBackend(ocfg, mapping, microcode,
                                      dram_random_ranges=ranges),
        "locked": lambda: LockedCacheBackend(lcfg, mapping),
        "graphpim": lambda: GraphPimBackend(bcfg),
        "dynamic": lambda: DynamicScratchpadBackend(ocfg, hot, microcode),
    }


class TestAllBackendsParity:
    """All five backends, one real workload, exact equality."""

    @pytest.mark.parametrize(
        "name", ["baseline", "omega", "locked", "graphpim", "dynamic"]
    )
    def test_backend_parity(self, workload, name):
        factories = all_backend_factories(workload)
        assert_parity(factories[name], workload[0])

    @pytest.mark.parametrize("name", ["baseline", "omega"])
    def test_windowed_timelines_identical(self, workload, name):
        """Windowed kernel and windowed oracle emit the same timeline."""
        factories = all_backend_factories(workload)
        kernel = factories[name]()
        s_k = ReplaySampler(4096)
        kernel.replay(workload[0], sampler=s_k)
        oracle = factories[name]()
        oracle.scalar_cache = True
        s_o = ReplaySampler(4096)
        oracle.replay(workload[0], sampler=s_o)
        cols_k = dict(s_k.timeline().columns)
        cols_o = dict(s_o.timeline().columns)
        cols_k.pop("wall_seconds"), cols_o.pop("wall_seconds")
        assert cols_k == cols_o

    def test_hybrid_dram_workload_parity(self, workload):
        """The paper's hybrid page policy on a real trace."""
        trace, ranges, _, _ = workload
        cfg = baseline_config(page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(cfg, dram_random_ranges=ranges), trace
        )


class TestScalarEscapeHatches:
    SCALAR_ENV = {"REPRO_SCALAR_CACHE": "1"}

    def test_env_var_forces_oracle(self):
        context = RunContext.from_env(environ=self.SCALAR_ENV)
        assert context.scalar_cache is True
        cfg = baseline_config()
        system = CacheSystem(
            cfg,
            MemStats(num_cores=NCORES),
            DramModel(cfg.dram),
            Crossbar(cfg.interconnect, NCORES),
            scalar_cache=context.scalar_cache,
        )
        assert system.fast_path_ok is False

    def test_env_var_replay_matches_kernel(self):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        request = RunRequest("pagerank", backend="baseline", num_cores=NCORES)
        kernel = run_system(graph, request, context=RunContext())
        oracle = run_system(
            graph, request, context=RunContext.from_env(environ=self.SCALAR_ENV)
        )
        assert kernel.replay.kernel["mode"] == "kernel"
        assert oracle.replay.kernel["mode"] == "scalar"
        assert snapshot(kernel.replay) == snapshot(oracle.replay)

    def test_force_scalar_attribute_respected(self):
        cfg = baseline_config()
        backend = BaselineBackend(cfg)
        backend.scalar_cache = True
        trace = make_trace([0], [0x100000], [0])
        out = backend.replay(trace)
        assert out.stats.l1_misses == 1


class TestSixtyFourCores:
    """The sharer mask is one 64-bit word: core 63 owns its top bit."""

    def test_top_sharer_bit(self):
        cfg = SimConfig.scaled_baseline(num_cores=64)
        rng = np.random.default_rng(64)
        n = 3000
        # Lean on the highest cores so bit 63 is set, shared, owned
        # and invalidated many times over a small line universe.
        cores = np.where(rng.random(n) < 0.5,
                         rng.integers(60, 64, n), rng.integers(0, 64, n))
        lines = rng.integers(0, 48, n)
        flags = np.where(rng.random(n) < 0.35, FLAG_WRITE, 0)
        trace = make_trace(cores, 0x100000 + lines * 64, flags)
        out_k, _ = assert_parity(lambda: BaselineBackend(cfg), trace)
        directory = out_k.cache.state()["directory"]
        assert any(mask >> 63 for mask, _ in directory.values())
        assert out_k.stats.coherence_invalidations > 0


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestOracleFallback:
    def test_missing_compiler_falls_back_to_oracle(self, monkeypatch):
        from repro.memsim import ckernel

        trace = make_trace(
            [0, 1, 2, 3] * 30,
            [0x100000 + 64 * (i % 11) for i in range(120)],
            [FLAG_WRITE if i % 4 == 0 else 0 for i in range(120)],
        )
        cfg = baseline_config()
        records = _Records()
        logger = logging.getLogger("repro.memsim.ckernel")
        logger.addHandler(records)
        monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
        ckernel.load_kernel.cache_clear()
        try:
            fallback = BaselineBackend(cfg).replay(trace)
            again = BaselineBackend(cfg).replay(trace)
        finally:
            logger.removeHandler(records)
            monkeypatch.undo()
            ckernel.load_kernel.cache_clear()
        assert fallback.kernel == {"batches": 0, "events": 0,
                                   "mode": "scalar"}
        assert again.kernel["mode"] == "scalar"
        # One warning per process, naming the reason.
        assert len(records.messages) == 1
        assert "no C compiler" in records.messages[0]
        oracle = BaselineBackend(cfg)
        oracle.scalar_cache = True
        assert snapshot(fallback) == snapshot(oracle.replay(trace))
        compiled = BaselineBackend(cfg).replay(trace)
        assert compiled.kernel["mode"] == "kernel"
        assert snapshot(compiled) == snapshot(fallback)


    def test_missing_compiler_estimator_and_srcbuf_fallback(
        self, monkeypatch, sssp_workload
    ):
        """Without a compiler, the estimator and OMEGA's source buffers
        fall back to numpy and the Python buffers, with the same
        results and still one warning."""
        from repro.memsim import ckernel

        make, trace = sssp_workload
        compiled_est = estimate_replay(make(), trace).as_dict()
        compiled = make().replay(trace)
        assert isinstance(compiled.srcbufs, FlatSourceBuffers)
        records = _Records()
        logger = logging.getLogger("repro.memsim.ckernel")
        logger.addHandler(records)
        monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
        ckernel.load_kernel.cache_clear()
        try:
            fallback_est = estimate_replay(make(), trace).as_dict()
            fallback = make().replay(trace)
        finally:
            logger.removeHandler(records)
            monkeypatch.undo()
            ckernel.load_kernel.cache_clear()
        assert len(records.messages) == 1
        assert "no C compiler" in records.messages[0]
        assert fallback.kernel["mode"] == "scalar"
        assert isinstance(fallback.srcbufs[0], SourceVertexBuffer)
        assert fallback_est == compiled_est
        assert snapshot(fallback) == snapshot(compiled)
        assert compiled.stats.srcbuf_hits > 0


@pytest.fixture(scope="module")
def sssp_workload():
    """An SSSP trace on a reordered graph through OMEGA: remote reads
    of hot source vertices, the source buffer's workload."""
    graph = rmat_graph(8, edge_factor=6, seed=7, weighted=True)
    graph, _ = reorder_nth_element(graph, key="in")
    result = run_algorithm("sssp", graph, num_cores=NCORES, chunk_size=32,
                           trace=True)
    cfg = SimConfig.scaled_omega(num_cores=NCORES)
    hot = hot_capacity_for(cfg.scratchpad_total_bytes,
                           result.engine.vtxprop_bytes_per_vertex(),
                           graph.num_vertices)
    mapping = ScratchpadMapping(NCORES, hot, chunk_size=32)
    microcode = microcode_for_algorithm("sssp")
    return (lambda: OmegaBackend(cfg, mapping, microcode)), result.trace


class TestSourceBufferAndUpdateRoutes:
    """Trace shapes that exercise OMEGA's srcbuf + offload routing
    alongside the cache path, end to end, kernel vs oracle."""

    def test_mixed_class_trace(self, workload):
        _, ranges, bpv, nverts = workload
        ocfg = SimConfig.scaled_omega(num_cores=NCORES)
        hot = hot_capacity_for(ocfg.scratchpad_total_bytes, bpv, nverts)
        mapping = ScratchpadMapping(NCORES, hot, chunk_size=32)
        microcode = microcode_for_algorithm("pagerank")
        rng = np.random.default_rng(3)
        n = 600
        cores = rng.integers(0, NCORES, n)
        verts = rng.integers(0, max(hot, 1) * 2, n)
        addrs = 0x100000 + verts * 8
        classes = np.where(rng.random(n) < 0.6,
                           int(AccessClass.VTXPROP),
                           int(AccessClass.EDGELIST))
        flags = np.where(
            rng.random(n) < 0.3, FLAG_WRITE | FLAG_ATOMIC | FLAG_UPDATE,
            np.where(rng.random(n) < 0.3, FLAG_SRC_READ, 0),
        )
        trace = make_trace(cores, addrs, flags, classes, verts)
        assert_parity(
            lambda: OmegaBackend(ocfg, mapping, microcode), trace
        )

    def test_sssp_trace(self, sssp_workload):
        """The compiled source buffers really run, and hit, here."""
        make, trace = sssp_workload
        out_k, _ = assert_parity(make, trace)
        assert isinstance(out_k.srcbufs, FlatSourceBuffers)
        assert out_k.stats.srcbuf_hits > 0
        assert any(out_k.srcbufs.contents())

    def test_sssp_trace_streamed(self, sssp_workload):
        """Streamed replay carries the compiled buffers across segments
        and matches the in-core oracle."""
        from repro.ligra.segments import SegmentedTrace

        make, trace = sssp_workload
        streamed = make().replay_segments(
            SegmentedTrace.from_trace(trace, 1000)
        )
        assert streamed.num_segments > 1
        oracle = make()
        oracle.scalar_cache = True
        assert snapshot(streamed) == snapshot(oracle.replay(trace))


# Candidate events: (core, key, is_candidate). A small key universe and
# small buffers force repeated keys, hits and LRU evictions.
SRCBUF_EVENTS = st.lists(
    st.tuples(st.integers(0, NCORES - 1), st.integers(0, 9), st.booleans()),
    max_size=120,
)


def _walk(srcbufs, cores, keys, cand, barriers, cuts):
    """srcbuf_stage over segments [cuts[k], cuts[k+1]) with the state
    carried; returns the global hit positions."""
    ctx = SimpleNamespace(srcbufs=srcbufs)
    barriers = np.asarray(barriers, dtype=np.int64)
    hits = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        local = barriers[(barriers >= lo) & (barriers < hi)] - lo
        seg = make_trace(cores[lo:hi], keys[lo:hi], np.zeros(hi - lo))
        seg.barriers = local
        idx = np.flatnonzero(cand[lo:hi])
        hits += (srcbuf_stage(ctx, seg, idx) + lo).tolist()
    return hits


class TestSourceBufferWalkParity:
    """srcbuf_walk (C) against the SourceVertexBuffer walk."""

    @given(
        SRCBUF_EVENTS,
        st.lists(st.integers(-2, 125), max_size=8),
        st.sampled_from([1, 2, 3, 64]),
        st.lists(st.integers(0, 120), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_python_walk(self, events, barriers, entries, cuts):
        """Barriers at, between and beyond candidates (and outside the
        trace), repeated keys, one-entry buffers, and streamed segments
        that carry the state: same hits, same final contents."""
        lib = load_kernel()
        assert lib is not None
        n = len(events)
        cores = np.array([e[0] for e in events], dtype=np.int64)
        keys = 0x200000 + 8 * np.array([e[1] for e in events],
                                       dtype=np.int64)
        cand = np.array([e[2] for e in events], dtype=bool)
        segmented = [0] + sorted({c for c in cuts if 0 < c < n}) + [n]
        results = []
        for cut in ([0, n], segmented):
            flat = FlatSourceBuffers(lib, NCORES, entries)
            python = [SourceVertexBuffer(entries) for _ in range(NCORES)]
            hits_c = _walk(flat, cores, keys, cand, barriers, cut)
            hits_p = _walk(python, cores, keys, cand, barriers, cut)
            assert hits_c == hits_p
            assert flat.contents() == srcbuf_contents(python)
            results.append((hits_c, flat.contents()))
        # Segment barriers are rebased, so streaming changes nothing.
        assert results[0] == results[1]

    def test_hits_evictions_and_barriers(self):
        lib = load_kernel()
        assert lib is not None
        flat = FlatSourceBuffers(lib, 2, 2)
        cores = np.array([0, 0, 0, 0, 0, 1, 0, 0], dtype=np.int64)
        keys = np.array([1, 2, 1, 3, 2, 1, 1, 3], dtype=np.int64)
        cand = np.ones(8, dtype=bool)
        # 1 2 1(hit) 3(evicts 2) 2(miss, evicts 1) | barrier at 6 | ...
        hits = _walk(flat, cores, keys, cand, [6], [0, 8])
        assert hits == [2]
        assert flat.contents() == [[1, 3], []]
