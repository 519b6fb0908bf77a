"""Tests for the extension algorithms (MIS, label propagation)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph.csr import from_edges
from repro.algorithms.extensions import (
    label_propagation_reference,
    mis_reference_check,
    run_label_propagation,
    run_mis,
)


class TestMis:
    def test_valid_on_ba_graph(self, small_ba_undirected):
        res = run_mis(small_ba_undirected, trace=False, seed=3)
        assert mis_reference_check(small_ba_undirected, res.value("in_set"))

    def test_valid_on_road_graph(self, small_road):
        res = run_mis(small_road, trace=False, seed=1)
        assert mis_reference_check(small_road, res.value("in_set"))

    def test_triangle_has_one_member(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=3,
                       directed=False)
        res = run_mis(g, trace=False)
        assert int(res.value("in_set").sum()) == 1

    def test_edgeless_graph_all_in(self):
        g = from_edges([], num_vertices=5, directed=False)
        res = run_mis(g, trace=False)
        assert res.value("in_set").all()

    def test_deterministic_per_seed(self, small_ba_undirected):
        a = run_mis(small_ba_undirected, trace=False, seed=9)
        b = run_mis(small_ba_undirected, trace=False, seed=9)
        np.testing.assert_array_equal(a.value("in_set"), b.value("in_set"))

    def test_rejects_directed(self, small_powerlaw):
        with pytest.raises(SimulationError, match="undirected"):
            run_mis(small_powerlaw)

    def test_emits_trace(self, small_ba_undirected):
        res = run_mis(small_ba_undirected, trace=True, seed=2)
        assert res.trace.num_events > 0
        assert res.trace.count(atomic=True) > 0

    def test_reference_rejects_non_independent(self, tiny_undirected):
        bad = np.ones(tiny_undirected.num_vertices, dtype=bool)
        assert not mis_reference_check(tiny_undirected, bad)

    def test_reference_rejects_non_maximal(self, tiny_undirected):
        assert not mis_reference_check(
            tiny_undirected, np.zeros(tiny_undirected.num_vertices, bool)
        )


class TestLabelPropagation:
    def test_matches_reference(self, small_powerlaw):
        seeds = [0, 5, 17]
        res = run_label_propagation(small_powerlaw, seeds, trace=False)
        np.testing.assert_array_equal(
            res.value("labels"),
            label_propagation_reference(small_powerlaw, seeds),
        )

    def test_disconnected_components_keep_labels(self):
        g = from_edges([(0, 1), (2, 3)], num_vertices=5, directed=False)
        res = run_label_propagation(g, [0, 2], trace=False)
        labels = res.value("labels")
        assert labels[0] == labels[1] == 0
        assert labels[2] == labels[3] == 1
        assert labels[4] == -1  # unreachable

    def test_min_label_wins_overlap(self):
        # Both seeds reach everything; label 0 must win everywhere.
        g = from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=3,
                       directed=False)
        res = run_label_propagation(g, [2, 0], trace=False)
        assert set(res.value("labels").tolist()) == {0}

    def test_seed_claimed_by_smaller_community(self):
        # Seed 1 (community 1) is reachable from seed 0 (community 0).
        g = from_edges([(0, 1), (1, 2)], num_vertices=3)
        res = run_label_propagation(g, [0, 1], trace=False)
        np.testing.assert_array_equal(res.value("labels"), [0, 0, 0])

    def test_requires_seeds(self, small_powerlaw):
        with pytest.raises(SimulationError, match="seed"):
            run_label_propagation(small_powerlaw, [])

    def test_seed_range_checked(self, small_powerlaw):
        with pytest.raises(SimulationError, match="range"):
            run_label_propagation(small_powerlaw, [10**6])

    def test_max_rounds_cuts_off(self, small_powerlaw):
        res = run_label_propagation(
            small_powerlaw, [0], trace=False, max_rounds=1
        )
        assert res.iterations == 1

    def test_runs_through_full_system(self, small_ba_undirected):
        """Extension algorithms replay through the simulator like the
        Table II set (trace -> hierarchy -> timing)."""
        from repro.config import SimConfig
        from repro.memsim.core_model import compute_timing
        from repro.memsim.backends import BaselineBackend

        res = run_label_propagation(small_ba_undirected, [0, 1],
                                    num_cores=4)
        out = BaselineBackend(
            SimConfig.scaled_baseline(num_cores=4)
        ).replay(res.trace)
        timing = compute_timing(out, SimConfig.scaled_baseline(num_cores=4))
        assert timing.total_cycles > 0
