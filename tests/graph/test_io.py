"""Tests for edge-list and DIMACS I/O."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.io import load_dimacs, load_edge_list, save_dimacs, save_edge_list


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path, small_powerlaw):
        path = tmp_path / "g.txt"
        save_edge_list(small_powerlaw, path)
        g = load_edge_list(path)
        assert g.num_edges == small_powerlaw.num_edges
        np.testing.assert_array_equal(
            g.out_degrees(), small_powerlaw.out_degrees()
        )

    def test_roundtrip_weighted(self, tmp_path, small_powerlaw_weighted):
        path = tmp_path / "g.txt"
        save_edge_list(small_powerlaw_weighted, path)
        g = load_edge_list(path)
        assert g.weighted
        assert g.out_weights.sum() == pytest.approx(
            small_powerlaw_weighted.out_weights.sum()
        )

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n# middle\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_explicit_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, num_vertices=100)
        assert g.num_vertices == 100

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        g = load_edge_list(path)
        assert g.num_vertices == 0

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError, match="expected"):
            load_edge_list(path)

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(path)

    def test_bad_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 heavy\n")
        with pytest.raises(GraphFormatError, match="non-numeric"):
            load_edge_list(path)

    def test_mixed_weighted_unweighted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.5\n1 2\n")
        with pytest.raises(GraphFormatError, match="mixed"):
            load_edge_list(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nbroken\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(path)


class TestDimacs:
    def test_roundtrip(self, tmp_path, small_powerlaw_weighted):
        path = tmp_path / "g.gr"
        save_dimacs(small_powerlaw_weighted, path)
        g = load_dimacs(path)
        assert g.num_vertices == small_powerlaw_weighted.num_vertices
        assert g.num_edges == small_powerlaw_weighted.num_edges

    def test_unweighted_export_defaults_weight_one(self, tmp_path, tiny_graph):
        path = tmp_path / "g.gr"
        save_dimacs(tiny_graph, path)
        g = load_dimacs(path)
        assert g.weighted
        assert set(g.out_weights.tolist()) == {1.0}

    def test_parses_comments(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("c comment\np sp 3 2\na 1 2 5\na 2 3 7\n")
        g = load_dimacs(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_one_based_ids(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\na 1 2 4\n")
        g = load_dimacs(path)
        assert g.out_degree(0) == 1

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("a 1 2 4\n")
        with pytest.raises(GraphFormatError, match="missing"):
            load_dimacs(path)

    def test_zero_based_id_rejected(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\na 0 1 4\n")
        with pytest.raises(GraphFormatError, match="1-based"):
            load_dimacs(path)

    def test_bad_record_type(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p sp 2 1\nx 1 2 4\n")
        with pytest.raises(GraphFormatError, match="unknown record"):
            load_dimacs(path)

    def test_bad_problem_line(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("p max 2 1\n")
        with pytest.raises(GraphFormatError, match="bad problem"):
            load_dimacs(path)
