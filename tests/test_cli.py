"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "lj"])
        assert args.algorithm == "pagerank"
        assert args.backend == "omega"
        assert args.scale == 1.0

    def test_bad_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "lj", "--backend", "tpu"]
            )


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "sd" in out and "twitter" in out and "USA" in out

    def test_run_baseline(self, capsys):
        code = main(["run", "--dataset", "sd", "--algorithm", "pagerank",
                     "--backend", "baseline", "--scale", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "baseline" in out

    def test_run_omega(self, capsys):
        code = main(["run", "--dataset", "sd", "--scale", "0.5"])
        assert code == 0
        assert "hot_fraction" in capsys.readouterr().out

    def test_run_locked(self, capsys):
        assert main(["run", "--dataset", "sd", "--backend", "locked",
                     "--scale", "0.5"]) == 0
        assert "locked-cache" in capsys.readouterr().out

    def test_run_graphpim(self, capsys):
        assert main(["run", "--dataset", "sd", "--backend", "graphpim",
                     "--scale", "0.5"]) == 0
        assert "graphpim" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--dataset", "sd", "--scale", "0.5"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--algorithms", "pagerank",
                     "--datasets", "sd", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_undirected_algorithm_symmetrizes(self, capsys):
        assert main(["run", "--dataset", "sd", "--algorithm", "cc",
                     "--scale", "0.5"]) == 0

    def test_weighted_algorithm_gets_weights(self, capsys):
        assert main(["run", "--dataset", "sd", "--algorithm", "sssp",
                     "--scale", "0.5"]) == 0

    def test_unknown_algorithm_errors(self, capsys):
        assert main(["run", "--dataset", "sd", "--algorithm", "apsp"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_dataset_errors(self, capsys):
        assert main(["run", "--dataset", "facebook"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "sd", "--backend", "tpu"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "shouty", "datasets"])
        assert exc.value.code == 2


class TestCacheFlags:
    def test_run_cache_dir_miss_then_hit(self, tmp_path, capsys):
        argv = ["run", "--dataset", "sd", "--scale", "0.5",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "trace_cache: miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "trace_cache: hit" in capsys.readouterr().out

    def test_no_cache_silences_cache_line(self, tmp_path, capsys):
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--cache-dir", str(tmp_path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "trace_cache" not in out
        assert list(tmp_path.iterdir()) == []

    def test_warm_manifest_passes_report_gate(self, tmp_path, capsys):
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        cache = str(tmp_path / "store")
        base = ["run", "--dataset", "sd", "--scale", "0.5",
                "--cache-dir", cache]
        assert main(base + ["--manifest", str(cold)]) == 0
        assert main(base + ["--manifest", str(warm)]) == 0
        capsys.readouterr()
        assert main(["report", str(cold), str(warm),
                     "--tolerance", "0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_accepts_cache_dir(self, tmp_path, capsys):
        assert main(["compare", "--dataset", "sd", "--scale", "0.5",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "speedup" in capsys.readouterr().out


class TestSweepCommand:
    def test_backend_table_and_outputs(self, tmp_path, capsys):
        import csv
        import json

        json_out = tmp_path / "rows.json"
        csv_out = tmp_path / "rows.csv"
        assert main(["sweep", "--algorithms", "pagerank",
                     "--datasets", "sd", "--backends", "baseline,omega",
                     "--scale", "0.5", "--cores", "4",
                     "--json-out", str(json_out),
                     "--csv-out", str(csv_out)]) == 0
        out = capsys.readouterr().out
        assert "backend sweep" in out
        assert "speedup" in out  # OMEGA-vs-baseline ratio table
        doc = json.loads(json_out.read_text())
        assert doc["schema"] == "omega-repro/sweep-results/v1"
        assert len(doc["rows"]) == 2
        assert {r["backend"] for r in doc["rows"]} == {"baseline", "omega"}
        with open(csv_out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert rows[0]["dataset"] == "sd"

    def test_single_backend_skips_ratio_table(self, capsys):
        assert main(["sweep", "--algorithms", "pagerank",
                     "--datasets", "sd", "--backends", "baseline",
                     "--scale", "0.5", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "backend sweep" in out
        assert "speedup" not in out

    def test_unknown_backend_errors(self, capsys):
        assert main(["sweep", "--algorithms", "pagerank",
                     "--datasets", "sd", "--backends", "tpu"]) == 2
        assert "backend" in capsys.readouterr().err

    def test_workers_match_serial_rows(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "store")
        serial_out = tmp_path / "serial.json"
        par_out = tmp_path / "par.json"
        base = ["sweep", "--algorithms", "pagerank", "--datasets", "sd",
                "--backends", "baseline,omega", "--scale", "0.5",
                "--cores", "4", "--cache-dir", cache]
        assert main(base + ["--json-out", str(serial_out)]) == 0
        assert main(base + ["--workers", "2",
                            "--json-out", str(par_out)]) == 0
        capsys.readouterr()
        serial = json.loads(serial_out.read_text())["rows"]
        parallel = json.loads(par_out.read_text())["rows"]
        drop = ("replay_seconds", "run_seconds", "trace_cache")
        for s, p in zip(serial, parallel):
            assert {k: v for k, v in s.items() if k not in drop} == \
                   {k: v for k, v in p.items() if k not in drop}
        # Second pass ran against a warm store.
        assert all(r["trace_cache"] == "hit" for r in parallel)


class TestObservabilityFlags:
    def test_run_writes_trace_and_timeline(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        timeline = tmp_path / "timeline.json"
        code = main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--trace-out", str(trace),
                     "--metrics-out", str(timeline)])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "trace:" in out
        doc = json.loads(trace.read_text())
        assert max(e["args"]["depth"] for e in doc["traceEvents"]
                   if e["ph"] == "X") >= 3
        tl = json.loads(timeline.read_text())
        assert tl["num_windows"] >= 10

    def test_metrics_out_csv(self, tmp_path):
        timeline = tmp_path / "timeline.csv"
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--metrics-out", str(timeline)]) == 0
        header = timeline.read_text().splitlines()[0]
        assert header.startswith("window,")

    def test_obs_window_controls_window_size(self, tmp_path):
        import json

        timeline = tmp_path / "timeline.json"
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--metrics-out", str(timeline),
                     "--obs-window", "1000"]) == 0
        assert json.loads(timeline.read_text())["window_events"] == 1000

    def test_report_identical_manifests(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["run", "--dataset", "sd", "--scale", "0.5",
                     "--manifest", str(manifest)]) == 0
        assert main(["report", str(manifest), str(manifest)]) == 0
        assert "OK" in capsys.readouterr().out


class TestValidateCommand:
    @pytest.mark.slow
    def test_validate_passes(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["validate", "--scale", "0.25"])
        out = capsys.readouterr().out
        assert "criteria passed" in out
        assert code == 0, out
