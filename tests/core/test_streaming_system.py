"""Out-of-core streaming through run_system and the CLI.

The segmented pipeline (generation → store → replay) must be invisible
in the numbers: every streamed path — cold without a store, cold with a
store (spool adopted by rename), warm from the store — produces
simulated counters bit-identical to the plain in-core run, while the
report and manifest record how the run was segmented.
"""

import json

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.core.context import ENV_SEGMENT_EVENTS, RunContext, RunRequest
from repro.core.system import run_system
from repro.errors import SimulationError
from repro.graph.generators import rmat_graph
from repro.obs.manifest_diff import diff_manifests
from repro.store import TraceStore


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=33)


@pytest.fixture(scope="module")
def omega_cfg():
    return SimConfig.scaled_omega(num_cores=4)


@pytest.fixture(scope="module")
def incore(graph, omega_cfg):
    return run_system(
        graph, RunRequest("pagerank", dataset="t"), omega_cfg, context=RunContext(),
    )


class TestStreamedRunSystem:
    def test_streamed_counters_bit_identical(self, graph, omega_cfg, incore):
        streamed = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(segment_events=2000),
        )
        assert streamed.stats.as_dict() == incore.stats.as_dict()
        assert streamed.cycles == incore.cycles
        assert streamed.energy.as_dict() == incore.energy.as_dict()
        assert streamed.streamed is True
        assert streamed.segment_events == 2000
        assert streamed.num_segments > 1
        assert streamed.trace_events == incore.trace_events
        assert streamed.trace_bytes == incore.trace_bytes

    def test_in_core_run_reports_no_segmentation(self, incore):
        assert incore.streamed is False
        assert incore.segment_events is None
        assert incore.num_segments == 1

    def test_peak_rss_recorded(self, incore):
        assert incore.peak_rss_bytes is not None
        assert incore.peak_rss_bytes > 0

    def test_cold_store_adopts_spool(self, graph, omega_cfg, incore,
                                     tmp_path):
        store = TraceStore(tmp_path)
        cold = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(store=store, segment_events=2000),
        )
        assert cold.stats.as_dict() == incore.stats.as_dict()
        assert cold.trace_cache["hit"] is False
        assert len(store) == 1
        # The spool was renamed into place, not copied and left behind.
        assert not any(
            p.name.startswith(".") for p in tmp_path.iterdir()
        )

    def test_warm_hit_streams_without_rehydrating(self, graph, omega_cfg,
                                                  incore, tmp_path):
        store = TraceStore(tmp_path)
        run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(store=store, segment_events=2000),
        )
        warm = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(store=store, segment_events=2000),
        )
        assert warm.trace_cache["hit"] is True
        assert warm.streamed is True
        assert warm.stats.as_dict() == incore.stats.as_dict()
        # And the same entry still serves whole-trace consumers.
        plain = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(store=store),
        )
        assert plain.trace_cache["hit"] is True
        assert plain.streamed is False
        assert plain.stats.as_dict() == incore.stats.as_dict()

    def test_streamed_vs_incore_manifest_diff_zero_tolerance(
        self, graph, omega_cfg, incore
    ):
        streamed = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext(segment_events=2000),
        )
        result = diff_manifests(incore.manifest(), streamed.manifest(),
                                tolerance=0.0)
        assert result.ok, result.regressions

    def test_manifest_records_segmentation(self, graph, omega_cfg,
                                           tmp_path):
        path = tmp_path / "deep" / "nested" / "run.json"
        run_system(
            graph, RunRequest("pagerank", dataset="t", manifest_path=path), omega_cfg,
            context=RunContext(segment_events=2000),
        )
        doc = json.loads(path.read_text())
        seg = doc["segmentation"]
        assert seg["streamed"] is True
        assert seg["segment_events"] == 2000
        assert seg["num_segments"] > 1
        assert doc["replay"]["peak_rss_bytes"] > 0

    def test_windowed_timeline_streams_identically(self, graph, omega_cfg,
                                                   tmp_path):
        a = run_system(
            graph, RunRequest("pagerank", dataset="t", obs_window=3000), omega_cfg,
            context=RunContext(),
        )
        b = run_system(
            graph, RunRequest("pagerank", dataset="t", obs_window=3000), omega_cfg,
            context=RunContext(segment_events=2000),
        )
        cols_a = dict(a.timeline.columns)
        cols_b = dict(b.timeline.columns)
        cols_a.pop("wall_seconds"), cols_b.pop("wall_seconds")
        assert cols_a == cols_b


class TestSegmentEventsResolution:
    @staticmethod
    def resolve(segment_events=None, env=None):
        environ = {} if env is None else {ENV_SEGMENT_EVENTS: env}
        return RunContext.from_env(
            segment_events=segment_events, environ=environ
        ).segment_events

    def test_explicit_wins_over_env(self):
        assert self.resolve(222, env="111") == 222

    def test_env_fallback(self):
        assert self.resolve(env="333") == 333

    def test_default_off(self):
        assert self.resolve() is None

    def test_nonpositive_means_off(self):
        assert self.resolve(env="0") is None
        assert self.resolve(-5, env="0") is None

    def test_junk_env_rejected(self, monkeypatch, graph, omega_cfg):
        monkeypatch.setenv(ENV_SEGMENT_EVENTS, "lots")
        with pytest.raises(SimulationError, match=ENV_SEGMENT_EVENTS):
            run_system(graph, RunRequest("pagerank"), omega_cfg)

    def test_env_var_streams_run_system(self, monkeypatch, graph,
                                        omega_cfg, incore):
        monkeypatch.setenv(ENV_SEGMENT_EVENTS, "2000")
        rep = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext.from_env(cache=False),
        )
        assert rep.streamed is True
        assert rep.segment_events == 2000
        assert rep.stats.as_dict() == incore.stats.as_dict()


class TestCliStreaming:
    def test_segment_events_flag(self, capsys):
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--segment-events", "4000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "streamed:" in out

    def test_flag_matches_in_core_cycles(self, capsys):
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--segment-events", "4000", "--no-cache"]) == 0
        streamed = capsys.readouterr().out
        pick = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if line.startswith(("cycles:", "dram_bytes:", "energy_nj:"))
        ]
        assert pick(plain) == pick(streamed)


class TestOutputPathParents:
    """Every CLI output path creates missing parent directories."""

    def test_run_outputs_in_fresh_directories(self, tmp_path, capsys):
        manifest = tmp_path / "m" / "run.json"
        trace_out = tmp_path / "t" / "trace.json"
        metrics = tmp_path / "x" / "timeline.csv"
        assert main([
            "run", "--dataset", "sd", "--scale", "0.5", "--no-cache",
            "--manifest", str(manifest),
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics),
        ]) == 0
        assert manifest.exists() and trace_out.exists() and metrics.exists()

    def test_sweep_outputs_in_fresh_directories(self, tmp_path, capsys):
        json_out = tmp_path / "a" / "rows.json"
        csv_out = tmp_path / "b" / "rows.csv"
        assert main([
            "sweep", "--datasets", "sd", "--algorithms", "pagerank",
            "--backends", "baseline", "--scale", "0.5", "--no-cache",
            "--json-out", str(json_out), "--csv-out", str(csv_out),
        ]) == 0
        assert json_out.exists() and csv_out.exists()
        doc = json.loads(json_out.read_text())
        assert doc["rows"]

    def test_run_system_cleans_spool_without_store(self, graph, omega_cfg,
                                                   tmp_path, monkeypatch):
        # Point the system temp directory somewhere observable: after a
        # storeless streamed run, no spool file may remain.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            run_system(
                graph, RunRequest("pagerank", dataset="t"), omega_cfg,
                context=RunContext(segment_events=2000),
            )
            assert list(tmp_path.iterdir()) == []
        finally:
            tempfile.tempdir = None
