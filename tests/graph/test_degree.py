"""Tests for degree analytics and the Table I characterization."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.degree import (
    GraphCharacterization,
    characterize,
    degree_histogram,
    is_power_law,
    power_law_exponent,
    top_fraction_connectivity,
)


class TestTopFractionConnectivity:
    def test_uniform_degrees(self):
        # All equal: top 20% hold exactly 20%.
        deg = np.full(100, 5)
        assert top_fraction_connectivity(deg) == pytest.approx(20.0)

    def test_single_hub(self):
        deg = np.zeros(10, dtype=int)
        deg[3] = 100
        assert top_fraction_connectivity(deg) == pytest.approx(100.0)

    def test_perfect_80_20(self):
        deg = np.zeros(10, dtype=int)
        deg[:2] = 40  # top 20% of 10 vertices hold 80 of 100 edges
        deg[2:] = 2.5  # truncated to int
        deg[2:] = 2
        total = deg.sum()
        expected = 100.0 * 80 / total
        assert top_fraction_connectivity(deg) == pytest.approx(expected)

    def test_empty_degrees(self):
        assert top_fraction_connectivity(np.zeros(0, dtype=int)) == 0.0

    def test_all_zero_degrees(self):
        assert top_fraction_connectivity(np.zeros(5, dtype=int)) == 0.0

    def test_fraction_one_covers_everything(self):
        deg = np.array([1, 2, 3, 4])
        assert top_fraction_connectivity(deg, fraction=1.0) == pytest.approx(100.0)

    def test_invalid_fraction(self):
        with pytest.raises(GraphError):
            top_fraction_connectivity(np.array([1, 2]), fraction=0.0)
        with pytest.raises(GraphError):
            top_fraction_connectivity(np.array([1, 2]), fraction=1.5)

    def test_monotone_in_fraction(self, small_powerlaw):
        deg = small_powerlaw.in_degrees()
        values = [
            top_fraction_connectivity(deg, f) for f in (0.05, 0.1, 0.2, 0.5)
        ]
        assert values == sorted(values)


class TestIsPowerLaw:
    def test_rmat_is_power_law(self, small_powerlaw):
        assert is_power_law(small_powerlaw)

    def test_road_is_not(self, small_road):
        assert not is_power_law(small_road)

    def test_uniform_is_not(self, small_er):
        assert not is_power_law(small_er)


class TestHistogramAndExponent:
    def test_histogram_counts(self):
        hist = degree_histogram(np.array([0, 1, 1, 3]))
        np.testing.assert_array_equal(hist, [1, 2, 0, 1])

    def test_histogram_empty(self):
        assert len(degree_histogram(np.zeros(0, dtype=int))) == 0

    def test_exponent_of_powerlaw_in_typical_range(self, small_powerlaw):
        alpha = power_law_exponent(small_powerlaw.in_degrees())
        assert 1.2 < alpha < 4.0

    def test_exponent_nan_for_tiny_input(self):
        assert np.isnan(power_law_exponent(np.array([0])))


class TestCharacterize:
    def test_row_fields(self, small_powerlaw):
        ch = characterize(small_powerlaw, "test")
        assert isinstance(ch, GraphCharacterization)
        row = ch.as_row()
        assert row["name"] == "test"
        assert row["type"] == "dir."
        assert row["power law"] == "yes"

    def test_edge_count_uses_input_edges(self, tiny_undirected):
        ch = characterize(tiny_undirected)
        assert ch.num_edges == tiny_undirected.num_input_edges

    def test_road_flagged_non_power_law(self, small_road):
        assert characterize(small_road).power_law is False

    def test_undirected_in_equals_out(self, tiny_undirected):
        ch = characterize(tiny_undirected)
        assert ch.in_degree_connectivity == pytest.approx(
            ch.out_degree_connectivity
        )
