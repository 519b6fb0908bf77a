"""Tests for manifest diffing and the ``repro report`` gate."""

import json

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.core.system import run_system
from repro.errors import ReproError
from repro.graph.generators import rmat_graph
from repro.obs import diff_manifests, format_report, load_manifest
from repro.core.context import RunRequest


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    g = rmat_graph(7, edge_factor=6, seed=3)
    path = tmp_path_factory.mktemp("manifests") / "run.json"
    run_system(
        g, RunRequest("pagerank", dataset="t", manifest_path=path),
        SimConfig.scaled_omega(num_cores=4),
    )
    return path


def _variant(manifest_path, tmp_path, mutate):
    doc = json.loads(manifest_path.read_text())
    mutate(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadManifest:
    def test_loads_valid_manifest(self, manifest_path):
        doc = load_manifest(manifest_path)
        assert doc["schema"].startswith("omega-repro/run-manifest/")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_manifest(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_manifest(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ReproError, match="not a run manifest"):
            load_manifest(path)


class TestDiffManifests:
    def test_identical_manifests_pass(self, manifest_path):
        doc = load_manifest(manifest_path)
        result = diff_manifests(doc, doc)
        assert result.ok
        assert not result.mismatches
        assert all(d.status == "ok" for d in result.deltas)

    def test_hit_rate_regression_detected(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        new["event_counts"]["l2_hit_rate"] = (
            old["event_counts"]["l2_hit_rate"] * 0.5
        )
        result = diff_manifests(old, new, tolerance=0.05)
        assert not result.ok
        assert [d.name for d in result.regressions] == [
            "event_counts.l2_hit_rate"
        ]

    def test_cycle_increase_is_regression(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        new["timing"]["total_cycles"] = old["timing"]["total_cycles"] * 1.5
        result = diff_manifests(old, new)
        assert "timing.total_cycles" in [d.name for d in result.regressions]

    def test_cycle_decrease_is_improvement(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        new["timing"]["total_cycles"] = old["timing"]["total_cycles"] * 0.5
        result = diff_manifests(old, new)
        assert result.ok
        delta = next(d for d in result.deltas
                     if d.name == "timing.total_cycles")
        assert delta.status == "improved"

    def test_within_tolerance_passes(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        new["timing"]["total_cycles"] = old["timing"]["total_cycles"] * 1.04
        assert diff_manifests(old, new, tolerance=0.05).ok

    def test_missing_metric_not_a_regression(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        del new["energy_nj"]["total"]
        result = diff_manifests(old, new)
        assert result.ok
        delta = next(d for d in result.deltas if d.name == "energy_nj.total")
        assert delta.status == "missing"

    def test_context_mismatch_warns(self, manifest_path):
        old = load_manifest(manifest_path)
        new = json.loads(json.dumps(old))
        new["algorithm"] = "bfs"
        result = diff_manifests(old, new)
        assert ("algorithm", "pagerank", "bfs") in result.mismatches

    def test_negative_tolerance_rejected(self, manifest_path):
        doc = load_manifest(manifest_path)
        with pytest.raises(ReproError, match="tolerance"):
            diff_manifests(doc, doc, tolerance=-0.1)

    def test_format_report_mentions_status(self, manifest_path):
        doc = load_manifest(manifest_path)
        text = format_report(diff_manifests(doc, doc), 0.05)
        assert "OK: no metric regressed" in text


class TestGoldenManifest:
    """The CI smoke job gates against this checked-in manifest."""

    GOLDEN = "tests/golden/lj-pagerank-omega.json"

    def test_golden_loads_and_self_diffs(self):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            self.GOLDEN)
        doc = load_manifest(path)
        assert doc["dataset"] == "lj"
        assert doc["algorithm"] == "pagerank"
        assert doc["backend"] == "omega"
        assert diff_manifests(doc, doc).ok


class TestReportCommand:
    def test_identical_exits_zero(self, manifest_path, capsys):
        code = main(["report", str(manifest_path), str(manifest_path)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, manifest_path, tmp_path, capsys):
        def worsen(doc):
            doc["event_counts"]["l2_hit_rate"] *= 0.5
        bad = _variant(manifest_path, tmp_path, worsen)
        code = main(["report", str(manifest_path), str(bad),
                     "--tolerance", "0.05"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_loose_tolerance_admits_regression(self, manifest_path,
                                               tmp_path):
        def worsen(doc):
            doc["event_counts"]["l2_hit_rate"] *= 0.97
        slightly = _variant(manifest_path, tmp_path, worsen)
        assert main(["report", str(manifest_path), str(slightly),
                     "--tolerance", "0.05"]) == 0

    def test_missing_manifest_exits_two(self, manifest_path, tmp_path,
                                        capsys):
        code = main(["report", str(manifest_path),
                     str(tmp_path / "gone.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
