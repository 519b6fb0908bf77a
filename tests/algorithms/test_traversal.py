"""Tests for BFS, SSSP, BC and Radii (traversal-family algorithms)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.algorithms.bc import bc_reference_num_paths, run_bc
from repro.algorithms.bfs import UNVISITED, bfs_reference_levels, run_bfs
from repro.algorithms.radii import radii_reference, run_radii
from repro.algorithms.sssp import run_sssp, sssp_reference


class TestBfs:
    def test_levels_match_reference(self, small_powerlaw):
        res = run_bfs(small_powerlaw, source=0, trace=False)
        np.testing.assert_array_equal(
            res.value("level"), bfs_reference_levels(small_powerlaw, 0)
        )

    def test_parents_are_valid(self, small_powerlaw):
        res = run_bfs(small_powerlaw, source=0, trace=False)
        parent = res.value("parent")
        level = res.value("level")
        for v in range(small_powerlaw.num_vertices):
            if level[v] > 0:
                p = int(parent[v])
                assert level[p] == level[v] - 1
                assert v in small_powerlaw.out_neighbors(p)

    def test_source_is_own_parent(self, small_powerlaw):
        res = run_bfs(small_powerlaw, source=3, trace=False)
        assert res.value("parent")[3] == 3

    def test_unreachable_marked(self, tiny_graph):
        res = run_bfs(tiny_graph, source=3, trace=False)
        # From 3 only 2, then 0, 1 are reachable; 4 and 5 are not.
        assert res.value("parent")[4] == UNVISITED
        assert res.value("level")[5] == -1

    def test_default_source_is_max_out_degree(self, tiny_graph):
        res = run_bfs(tiny_graph, trace=False)
        # Vertex 0 has the highest out-degree (2) in tiny_graph.
        assert res.value("level")[0] == 0

    def test_invalid_source(self, tiny_graph):
        with pytest.raises(SimulationError):
            run_bfs(tiny_graph, source=17)

    def test_iterations_equal_max_level(self, small_powerlaw):
        res = run_bfs(small_powerlaw, source=0, trace=False)
        assert res.iterations >= int(res.value("level").max())

    def test_undirected_bfs(self, small_ba_undirected):
        res = run_bfs(small_ba_undirected, source=0, trace=False)
        # Preferential-attachment graphs are connected.
        assert (res.value("level") >= 0).all()


class TestSssp:
    def test_matches_dijkstra(self, small_powerlaw_weighted):
        res = run_sssp(small_powerlaw_weighted, source=0, trace=False)
        np.testing.assert_array_equal(
            res.value("dist"), sssp_reference(small_powerlaw_weighted, 0)
        )

    def test_requires_weights(self, small_powerlaw):
        with pytest.raises(SimulationError, match="weighted"):
            run_sssp(small_powerlaw, source=0)

    def test_source_distance_zero(self, small_powerlaw_weighted):
        res = run_sssp(small_powerlaw_weighted, source=5, trace=False)
        assert res.value("dist")[5] == 0

    def test_visited_tracks_reachable(self, small_powerlaw_weighted):
        res = run_sssp(small_powerlaw_weighted, source=0, trace=False)
        dist = res.value("dist")
        visited = res.value("visited")
        reachable = dist < 2**40
        # Source excepted (marked visited at init).
        np.testing.assert_array_equal(visited.astype(bool), reachable)

    def test_max_rounds_cuts_off(self, small_powerlaw_weighted):
        res = run_sssp(small_powerlaw_weighted, source=0, trace=False, max_rounds=1)
        assert res.iterations == 1

    def test_invalid_source(self, small_powerlaw_weighted):
        with pytest.raises(SimulationError):
            run_sssp(small_powerlaw_weighted, source=-1)

    def test_two_vtxprops(self, small_powerlaw_weighted):
        res = run_sssp(small_powerlaw_weighted, source=0)
        # Table II: SSSP has 2 vtxProp structures, 8 bytes total.
        assert res.engine.vtxprop_bytes_per_vertex() == 8


class TestBc:
    def test_path_counts_match_brandes(self, small_powerlaw):
        res = run_bc(small_powerlaw, source=0, trace=False)
        np.testing.assert_allclose(
            res.value("num_paths"), bc_reference_num_paths(small_powerlaw, 0)
        )

    def test_levels_match_bfs(self, small_powerlaw):
        res = run_bc(small_powerlaw, source=0, trace=False)
        np.testing.assert_array_equal(
            res.value("level"), bfs_reference_levels(small_powerlaw, 0)
        )

    def test_source_has_one_path(self, small_powerlaw):
        res = run_bc(small_powerlaw, source=2, trace=False)
        assert res.value("num_paths")[2] == 1.0

    def test_backward_pass_dependency(self):
        # Path graph 0->1->2: dependency(0)=2, dependency(1)=1.
        from repro.graph.csr import from_edges

        g = from_edges([(0, 1), (1, 2)], num_vertices=3)
        res = run_bc(g, source=0, trace=False, backward_pass=True)
        np.testing.assert_allclose(res.value("dependency"), [2.0, 1.0, 0.0])
        assert res.value("centrality")[0] == 0.0

    def test_backward_pass_diamond(self):
        # Diamond 0->{1,2}->3: two shortest paths through 1 and 2.
        from repro.graph.csr import from_edges

        g = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], num_vertices=4)
        res = run_bc(g, source=0, trace=False, backward_pass=True)
        np.testing.assert_allclose(res.value("dependency")[1], 0.5)
        np.testing.assert_allclose(res.value("dependency")[2], 0.5)

    def test_invalid_source(self, small_powerlaw):
        with pytest.raises(SimulationError):
            run_bc(small_powerlaw, source=10**6)


class TestRadii:
    def test_estimate_matches_sampled_eccentricity(self, small_powerlaw):
        res = run_radii(small_powerlaw, sample_size=4, seed=1, trace=False)
        expected = radii_reference(small_powerlaw, res.value("sources"))
        assert int(res.value("max_radius")) == expected

    def test_three_vtxprops_twelve_bytes(self, small_powerlaw):
        res = run_radii(small_powerlaw, sample_size=4, seed=1)
        assert res.engine.vtxprop_bytes_per_vertex() == 12

    def test_sample_size_clamped(self, tiny_graph):
        res = run_radii(tiny_graph, sample_size=100, seed=1, trace=False)
        assert len(res.value("sources")) <= tiny_graph.num_vertices

    def test_deterministic_with_seed(self, small_powerlaw):
        a = run_radii(small_powerlaw, sample_size=4, seed=9, trace=False)
        b = run_radii(small_powerlaw, sample_size=4, seed=9, trace=False)
        np.testing.assert_array_equal(a.value("sources"), b.value("sources"))

    def test_sources_have_radius_zero_or_more(self, small_powerlaw):
        res = run_radii(small_powerlaw, sample_size=4, seed=1, trace=False)
        radii = res.value("radii")
        assert (radii[res.value("sources")] >= 0).all()

    def test_empty_graph_rejected(self):
        from repro.graph.csr import from_edges

        with pytest.raises(SimulationError):
            run_radii(from_edges([], num_vertices=0))

    def test_larger_sample_no_smaller_radius(self, small_powerlaw):
        small = run_radii(small_powerlaw, sample_size=2, seed=3, trace=False)
        big = run_radii(small_powerlaw, sample_size=16, seed=3, trace=False)
        assert int(big.value("max_radius")) >= 0
        assert int(small.value("max_radius")) >= 0
