"""Attribution conservation: per-class folds == aggregate stats, exactly.

The attribution subsystem (:mod:`repro.obs.attribution`) promises an
exact conservation invariant: for every backend, every trace, and every
segmentation — including one event per segment — the per-class counter
matrix sums bit-identically (tolerance 0) to the aggregate
:class:`~repro.memsim.stats.MemStats` counters, and the streamed matrix
equals the in-core matrix element for element. These tests pin that
contract with hypothesis traces across all five backends, plus a real
PageRank workload attributed through an actual Region table and degree
split.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import hypothesis.strategies as st

from repro.errors import SimulationError
from repro.graph.degree import degree_classes
from repro.graph.generators import rmat_graph
from repro.ligra.segments import SegmentedTrace
from repro.obs import (
    AttributionAccumulator,
    AttributionSpec,
    ReplaySampler,
)
from repro.obs.attribution import CLASS_NAMES, FIELDS, NUM_CLASSES

from tests.property.test_kernel_parity import (
    EVENTS,
    all_backend_factories,
    baseline_config,
    events_to_trace,
    workload,  # noqa: F401  (module fixture, registered by import)
)

from repro.memsim.backends import BaselineBackend

ALL_BACKENDS = ["baseline", "omega", "locked", "graphpim", "dynamic"]


def fresh_acc(spec=None):
    """An accumulator over a bare spec (no regions: conservation must
    hold no matter how — or how badly — events classify)."""
    return AttributionAccumulator(spec if spec is not None else
                                  AttributionSpec())


def attributed_incore(make_backend, trace, spec=None, sampler_window=None):
    """Replay in-core with attribution; verify conservation; return acc."""
    backend = make_backend()
    acc = fresh_acc(spec)
    sampler = ReplaySampler(sampler_window) if sampler_window else None
    out = backend.replay(trace, sampler=sampler, attribution=acc)
    acc.verify(out.stats, trace.num_events)
    return acc


def attributed_streamed(make_backend, trace, segment_events, spec=None,
                        sampler_window=None):
    """Replay streamed with attribution; verify; return acc."""
    segments = SegmentedTrace.from_trace(trace, segment_events)
    backend = make_backend()
    acc = fresh_acc(spec)
    sampler = ReplaySampler(sampler_window) if sampler_window else None
    out = backend.replay_segments(segments, sampler=sampler,
                                  attribution=acc)
    acc.verify(out.stats, trace.num_events)
    return acc


def assert_attribution_parity(make_backend, trace, segment_events,
                              spec=None, sampler_window=None):
    """In-core and streamed attribution must agree element-for-element."""
    acc_i = attributed_incore(make_backend, trace, spec, sampler_window)
    acc_s = attributed_streamed(make_backend, trace, segment_events, spec,
                                sampler_window)
    assert acc_i.counts.shape == (NUM_CLASSES, len(FIELDS))
    np.testing.assert_array_equal(acc_i.counts, acc_s.counts)
    return acc_i


class TestRandomizedConservation:
    """Hypothesis: any trace, any cut — conservation and stream parity."""

    @settings(max_examples=30, deadline=None)
    @given(events=EVENTS, segment_events=st.integers(1, 64))
    def test_any_segmentation_conserves(self, events, segment_events):
        trace = events_to_trace(events)
        cfg = baseline_config()
        assert_attribution_parity(
            lambda: BaselineBackend(cfg), trace, segment_events
        )

    @settings(max_examples=10, deadline=None)
    @given(events=EVENTS)
    def test_single_event_segments(self, events):
        """The pathological cut: every event is its own segment."""
        trace = events_to_trace(events)
        cfg = baseline_config()
        assert_attribution_parity(lambda: BaselineBackend(cfg), trace, 1)

    @settings(max_examples=10, deadline=None)
    @given(events=EVENTS, segment_events=st.integers(1, 64))
    def test_windowed_replay_conserves(self, events, segment_events):
        """Windowed accounting must not double- or under-fold."""
        trace = events_to_trace(events)
        cfg = baseline_config()
        assert_attribution_parity(
            lambda: BaselineBackend(cfg), trace, segment_events,
            sampler_window=16,
        )

    @settings(max_examples=10, deadline=None)
    @given(events=EVENTS)
    def test_scalar_oracle_conserves(self, events):
        """The REPRO_SCALAR_CACHE reference path fills the record too."""
        trace = events_to_trace(events)
        cfg = baseline_config()

        def make():
            backend = BaselineBackend(cfg)
            backend.scalar_cache = True
            return backend

        acc_o = attributed_incore(make, trace)
        acc_k = attributed_incore(lambda: BaselineBackend(cfg), trace)
        np.testing.assert_array_equal(acc_o.counts, acc_k.counts)


class TestAllBackendsConservation:
    """All five backends, one real workload, exact conservation."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("segment_events", [1000, 4096])
    def test_backend_conserves(self, workload, name,  # noqa: F811
                               segment_events):
        factories = all_backend_factories(workload)
        assert_attribution_parity(factories[name], workload[0],
                                  segment_events)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backend_windowed_conserves(self, workload, name):  # noqa: F811
        """Segment-straddling windows (unaligned grids) fold once."""
        factories = all_backend_factories(workload)
        assert_attribution_parity(factories[name], workload[0], 1000,
                                  sampler_window=4096)


class TestRealWorkloadAttribution:
    """A Region table + degree split: classes mean what they claim."""

    @pytest.fixture(scope="class")
    def attributed(self):
        graph = rmat_graph(8, edge_factor=6, seed=7)
        from repro.algorithms.registry import run_algorithm

        result = run_algorithm("pagerank", graph, num_cores=4,
                               chunk_size=32, trace=True)
        trace = result.trace
        deg = graph.in_degrees()
        spec = AttributionSpec(
            regions=trace.regions,
            vertex_classes=degree_classes(deg),
            meta={"degree_key": "in"},
        )
        cfg = baseline_config()
        acc = assert_attribution_parity(
            lambda: BaselineBackend(cfg), trace, 1000, spec=spec
        )
        return acc

    def test_every_vtxprop_stratum_populated(self, attributed):
        per = attributed.per_class()
        for name in ("vtxprop-hub", "vtxprop-torso", "vtxprop-tail"):
            assert per[name]["events"] > 0, name

    def test_entity_classes_populated(self, attributed):
        per = attributed.per_class()
        assert per["csr-offsets"]["events"] > 0
        assert per["csr-edges"]["events"] > 0

    def test_result_block_shape(self, attributed):
        block = attributed.result()
        assert block["schema"].startswith("omega-repro/attribution/")
        assert tuple(block["fields"]) == FIELDS
        assert set(block["classes"]) == set(CLASS_NAMES)
        assert block["totals"]["events"] == int(
            attributed.counts[:, 0].sum()
        )

    def test_verify_raises_on_divergence(self, attributed):
        """A single-bit divergence must raise, never warn."""
        acc = fresh_acc()
        acc.counts = attributed.counts.copy()
        acc.counts[0, 1] += 1  # corrupt one l1_hits cell

        class _Stats:
            pass

        stats = _Stats()
        sums = attributed.counts.sum(axis=0)
        for j, name in enumerate(FIELDS):
            setattr(stats, name, int(sums[j]))
        with pytest.raises(SimulationError, match="conservation"):
            acc.verify(stats, int(sums[0]))
