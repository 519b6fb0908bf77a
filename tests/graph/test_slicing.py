"""Tests for Section VII graph slicing."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.slicing import (
    merge_slice_results,
    num_slices_required,
    slice_graph,
    slice_graph_power_law,
)


class TestSliceGraph:
    def test_slices_cover_all_vertices(self, small_powerlaw):
        slices = slice_graph(small_powerlaw, 100)
        assert slices[0].vertex_lo == 0
        assert slices[-1].vertex_hi == small_powerlaw.num_vertices
        for a, b in zip(slices, slices[1:]):
            assert a.vertex_hi == b.vertex_lo

    def test_edges_partitioned_exactly(self, small_powerlaw):
        slices = slice_graph(small_powerlaw, 100)
        total = sum(s.graph.num_edges for s in slices)
        assert total == small_powerlaw.num_edges

    def test_slice_owns_only_its_destinations(self, small_powerlaw):
        for s in slice_graph(small_powerlaw, 128):
            _, dst = s.graph.edge_arrays()
            if len(dst):
                assert dst.min() >= s.vertex_lo
                assert dst.max() < s.vertex_hi

    def test_single_slice_when_large(self, tiny_graph):
        slices = slice_graph(tiny_graph, 1000)
        assert len(slices) == 1
        assert slices[0].num_owned_vertices == tiny_graph.num_vertices

    def test_invalid_size(self, tiny_graph):
        with pytest.raises(GraphError):
            slice_graph(tiny_graph, 0)


class TestPowerLawSlicing:
    def test_fewer_slices_than_plain(self, small_powerlaw):
        plain = slice_graph(small_powerlaw, 64)
        pl = slice_graph_power_law(small_powerlaw, hot_capacity=64)
        assert len(pl) < len(plain)

    def test_five_x_reduction(self):
        # hot_fraction 0.2 -> slices 5x larger -> 5x fewer (paper claim).
        plain = num_slices_required(10000, 100, power_law_aware=False)
        aware = num_slices_required(10000, 100, power_law_aware=True)
        assert plain == 100
        assert aware == 20

    def test_invalid_capacity(self, tiny_graph):
        with pytest.raises(GraphError):
            slice_graph_power_law(tiny_graph, 0)

    def test_num_slices_validates(self):
        with pytest.raises(GraphError):
            num_slices_required(100, 0, False)


class TestMergeAndSemantics:
    def test_sliced_pagerank_scatter_matches_whole(self, small_powerlaw):
        """Per-slice accumulation then merge equals whole-graph result."""
        g = small_powerlaw
        n = g.num_vertices
        contrib = np.random.default_rng(1).random(n)
        src, dst = g.edge_arrays()
        whole = np.zeros(n)
        np.add.at(whole, dst, contrib[src])

        slices = slice_graph(g, 97)
        results = []
        for s in slices:
            part = np.zeros(n)
            ssrc, sdst = s.graph.edge_arrays()
            np.add.at(part, sdst, contrib[ssrc])
            results.append(part)
        merged = merge_slice_results(results, slices)
        np.testing.assert_allclose(merged, whole)

    def test_merge_validates_lengths(self, tiny_graph):
        slices = slice_graph(tiny_graph, 3)
        with pytest.raises(GraphError):
            merge_slice_results([np.zeros(6)], slices)

    def test_merge_empty_rejected(self):
        with pytest.raises(GraphError):
            merge_slice_results([], [])
