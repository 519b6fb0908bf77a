"""Tests for windowed replay sampling and the Timeline container."""

import csv
import json

import pytest

from repro.errors import ObsError

from repro.config import SimConfig
from repro.core.system import run_system
from repro.graph.generators import rmat_graph
from repro.memsim.stats import MemStats
from repro.obs.timeline import (
    AUTO_WINDOWS,
    COLUMNS,
    ReplaySampler,
    Timeline,
)
from repro.core.context import RunRequest


def _sampler(window=0, total=100):
    s = ReplaySampler(window)
    s.begin(total_events=total, ncores=4, compute_cycles_per_access=1.0,
            mlp=4.0, imbalance_factor=1.0, freq_ghz=2.0)
    return s


class TestReplaySampler:
    def test_rejects_negative_window(self):
        with pytest.raises(ObsError):
            ReplaySampler(-1)

    def test_auto_window_targets_64(self):
        s = _sampler(window=0, total=6400)
        assert s.window_events == 6400 // AUTO_WINDOWS

    def test_auto_window_minimum_one(self):
        s = _sampler(window=0, total=3)
        assert s.window_events == 1

    def test_record_differences_cumulative_stats(self):
        s = _sampler(window=50)
        stats = MemStats(num_cores=4)
        stats.l1_hits, stats.l1_misses = 30, 20
        stats.dram_read_bytes = 1000
        s.record(0, 50, stats, 0.01)
        stats.l1_hits, stats.l1_misses = 90, 30  # +60 hits, +10 misses
        stats.dram_read_bytes = 1500
        s.record(50, 100, stats, 0.01)
        tl = s.timeline()
        assert tl.columns["l1_hit_rate"] == [
            pytest.approx(0.6), pytest.approx(6 / 7)
        ]
        assert tl.columns["dram_read_bytes"] == [1000, 500]
        assert tl.columns["window"] == [0, 1]

    def test_zero_access_window_is_safe(self):
        s = _sampler(window=10)
        s.record(0, 10, MemStats(num_cores=4), 0.0)
        tl = s.timeline()
        assert tl.columns["l1_hit_rate"] == [0.0]
        assert tl.columns["dram_gbps"][0] >= 0.0


class TestTimeline:
    def _make(self):
        s = _sampler(window=10)
        stats = MemStats(num_cores=4)
        for i in range(1, 4):
            stats.l1_hits = 8 * i
            stats.l1_misses = 2 * i
            stats.dram_read_bytes = 100 * i
            s.record((i - 1) * 10, i * 10, stats, 0.001)
        return s.timeline()

    def test_summary_covers_rate_columns(self):
        tl = self._make()
        summary = tl.summary()
        assert summary["l1_hit_rate"]["count"] == 3
        assert "p50" in summary["dram_gbps"]

    def test_json_roundtrip(self, tmp_path):
        tl = self._make()
        tl.metrics = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
        path = tmp_path / "tl.json"
        tl.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "omega-repro/timeline/v1"
        loaded = Timeline.load(path)
        assert loaded.columns == tl.columns
        assert loaded.metrics["counters"] == {"x": 1}

    def test_csv_export(self, tmp_path):
        tl = self._make()
        path = tmp_path / "tl.csv"
        tl.save(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == [c for c in COLUMNS if c in tl.columns]
        assert len(rows) == 1 + tl.num_windows


class TestWindowedReplayEquivalence:
    """Sampling must not change what the simulator measures."""

    @pytest.mark.parametrize("backend", ["baseline", "omega"])
    def test_stats_identical_with_and_without_sampler(self, backend):
        g = rmat_graph(7, edge_factor=6, seed=3)
        config = (SimConfig.scaled_omega(num_cores=4) if backend == "omega"
                  else SimConfig.scaled_baseline(num_cores=4))
        plain = run_system(
            g, RunRequest("pagerank", backend=backend, dataset="t"), config,
        )
        sampled = run_system(
            g, RunRequest("pagerank", backend=backend, dataset="t", obs_window=500),
            config,
        )
        assert sampled.stats.as_dict() == plain.stats.as_dict()
        # Per-core latency sums accumulate in window-sized chunks, so
        # cycles agree to FP rounding, not bit-exactly.
        assert sampled.timing.total_cycles == pytest.approx(
            plain.timing.total_cycles, rel=1e-12
        )
        assert sampled.timeline is not None
        assert sampled.timeline.num_windows >= 2

    def test_window_totals_match_run_totals(self):
        g = rmat_graph(7, edge_factor=6, seed=3)
        report = run_system(
            g, RunRequest("pagerank", dataset="t", obs_window=0),
            SimConfig.scaled_omega(num_cores=4),
        )
        tl = report.timeline
        assert tl.num_windows >= 10
        assert sum(tl.columns["events"]) == report.trace_events
        assert sum(tl.columns["dram_bytes"]) == report.stats.dram_bytes
        assert sum(tl.columns["onchip_traffic_bytes"]) == (
            report.stats.onchip_traffic_bytes
        )
        assert sum(tl.columns["atomics"]) == report.stats.atomics_total
