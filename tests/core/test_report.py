"""Tests for SimReport / Comparison reporting."""

import json

import pytest

from repro.config import SimConfig
from repro.core.system import compare_systems, run_system
from repro.graph.generators import rmat_graph
from repro.core.context import RunRequest


@pytest.fixture(scope="module")
def report():
    g = rmat_graph(8, edge_factor=6, seed=5)
    return run_system(
        g, RunRequest("pagerank", dataset="t"), SimConfig.scaled_baseline(num_cores=4),
    )


class TestSimReport:
    def test_cycles_and_seconds(self, report):
        assert report.cycles > 0
        assert report.seconds == pytest.approx(
            report.cycles / (report.config.core.freq_ghz * 1e9)
        )

    def test_dram_bandwidth_positive(self, report):
        assert report.dram_bandwidth_gbps > 0

    def test_to_dict_structure(self, report):
        d = report.to_dict()
        assert set(d) == {"summary", "workload", "stats", "timing",
                          "energy_nj"}
        assert d["workload"]["num_vertices"] == report.num_vertices
        assert d["timing"]["total_cycles"] == report.timing.total_cycles

    def test_save_json_roundtrip(self, report, tmp_path):
        path = tmp_path / "r.json"
        report.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["summary"]["algorithm"] == "pagerank"
        assert loaded["stats"]["atomics_total"] == (
            report.stats.atomics_total
        )

    def test_memory_bound_fraction_in_range(self, report):
        assert 0.0 <= report.timing.memory_bound_fraction <= 1.0


class TestManifest:
    REQUIRED_KEYS = {
        "schema", "system", "backend", "algorithm", "dataset", "config",
        "workload", "replay", "timing", "energy_nj", "event_counts",
        "telemetry",
    }

    def test_manifest_round_trip(self, report, tmp_path):
        path = tmp_path / "manifest.json"
        report.save_manifest(path)
        loaded = json.loads(path.read_text())
        assert self.REQUIRED_KEYS <= set(loaded)
        assert loaded["schema"] == "omega-repro/run-manifest/v7"
        assert loaded == report.manifest()

    def test_manifest_is_loadable_by_diff_tool(self, report, tmp_path):
        from repro.obs import diff_manifests, load_manifest

        path = tmp_path / "manifest.json"
        report.save_manifest(path)
        doc = load_manifest(path)
        assert diff_manifests(doc, doc).ok

    def test_unsampled_run_has_null_telemetry(self, report):
        assert report.manifest()["telemetry"] is None

    def test_sampled_run_attaches_telemetry(self, tmp_path):
        from repro.graph.generators import rmat_graph as _rmat

        g = _rmat(7, edge_factor=6, seed=5)
        sampled = run_system(
            g, RunRequest("pagerank", dataset="t", obs_window=0),
            SimConfig.scaled_baseline(num_cores=4),
        )
        block = sampled.manifest()["telemetry"]
        assert block["num_windows"] == sampled.timeline.num_windows
        assert block["window_events"] == sampled.timeline.window_events
        assert set(block["summary"]) <= {
            "l1_hit_rate", "l2_hit_rate", "last_level_hit_rate",
            "dram_gbps", "onchip_traffic_bytes", "dram_bytes",
            "sp_offloads",
        }

    def test_manifest_creates_parent_dirs(self, report, tmp_path):
        path = tmp_path / "a" / "b" / "manifest.json"
        report.save_manifest(path)
        assert path.exists()


class TestComparisonReport:
    @pytest.fixture(scope="class")
    def cmp(self):
        g = rmat_graph(8, edge_factor=6, seed=5)
        return compare_systems(
            g, RunRequest("pagerank", dataset="t"),
            SimConfig.scaled_baseline(num_cores=4), SimConfig.scaled_omega(num_cores=4),
        )

    def test_all_ratios_finite_positive(self, cmp):
        for value in (cmp.speedup, cmp.traffic_reduction,
                      cmp.dram_bw_improvement, cmp.energy_saving):
            assert value > 0
            assert value != float("inf")

    def test_summary_round_trips_to_json(self, cmp):
        assert json.loads(json.dumps(cmp.summary()))["dataset"] == "t"
