"""One way to load a dataset for an algorithm: ``load_workload``.

The CLI, the HTTP server's job runner and the sweep's cell runner all
load their graph through :func:`repro.algorithms.registry.load_workload`,
and an unknown dataset or algorithm fails the same way at each.
"""

import pytest

from repro.algorithms import registry
from repro.algorithms.registry import load_workload
from repro.bench.parallel import SweepTask, run_task
from repro.cli import main
from repro.core.context import RunContext
from repro.errors import DatasetError, ReproError, SimulationError
from repro.serve import make_system_runner
from repro.serve.jobs import JobSpec

from tests.serve.test_server import _post, fake_server  # noqa: F401


class TestLoadWorkload:
    def test_weights_when_the_algorithm_needs_them(self):
        graph, spec = load_workload("sd", "sssp", 0.25)
        assert graph.weighted and spec.name == "sd"
        assert not load_workload("sd", "pagerank", 0.25)[0].weighted

    def test_symmetrized_when_the_algorithm_needs_it(self):
        directed, _ = load_workload("sd", "pagerank", 0.25)
        undirected, _ = load_workload("sd", "cc", 0.25)
        assert directed.directed and not undirected.directed

    def test_unknown_names(self):
        with pytest.raises(SimulationError, match="unknown algorithm"):
            load_workload("sd", "apsp")
        with pytest.raises(DatasetError, match="unknown dataset"):
            load_workload("facebook", "pagerank")


class _Spy(DatasetError):
    """Raised by the stand-in loader, so no graph is generated."""


@pytest.fixture()
def spy(monkeypatch):
    calls = []

    def fake(dataset, algorithm, scale=1.0):
        calls.append((dataset, algorithm, scale))
        raise _Spy("spy loader")

    monkeypatch.setattr(registry, "load_workload", fake)
    return calls


class TestEveryEntryPointUsesIt:
    def test_cli_run_and_compare(self, spy, capsys):
        assert main(["run", "--dataset", "sd", "--algorithm", "bfs",
                     "--scale", "0.5"]) == 2
        assert main(["compare", "--dataset", "ap", "--scale", "0.25"]) == 2
        assert spy == [("sd", "bfs", 0.5), ("ap", "pagerank", 0.25)]
        assert "spy loader" in capsys.readouterr().err

    def test_server_runner(self, spy):
        runner = make_system_runner(RunContext())
        spec = JobSpec(dataset="sd", algorithm="cc", scale=0.5)
        with pytest.raises(_Spy):
            runner(spec, lambda _stage: None)
        assert spy == [("sd", "cc", 0.5)]

    def test_sweep_cell(self, spy):
        task = SweepTask(dataset="rCA", algorithm="sssp", backend="omega",
                         scale=0.25)
        with pytest.raises(_Spy):
            run_task(task, context=RunContext())
        assert spy == [("rCA", "sssp", 0.25)]


class TestUnknownNamesAtEachEntryPoint:
    def test_cli_exits_2(self, capsys):
        assert main(["run", "--dataset", "sd", "--algorithm", "apsp"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err
        assert main(["run", "--dataset", "facebook"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_http_answers_400(self, fake_server):  # noqa: F811
        def runner(spec, progress):  # pragma: no cover - never reached
            raise AssertionError("a bad spec must not become a job")

        srv = fake_server(runner)
        for body, needle in (
            ({"dataset": "sd", "algorithm": "apsp"}, "unknown algorithm"),
            ({"dataset": "facebook", "algorithm": "bfs"}, "unknown dataset"),
        ):
            status, doc = _post(srv, {**body, "wait": True})
            assert status == 400
            assert needle in doc["error"]

    def test_sweep_cell_raises_repro_error(self):
        for task, needle in (
            (SweepTask("sd", "apsp", "omega"), "unknown algorithm"),
            (SweepTask("facebook", "bfs", "omega"), "unknown dataset"),
        ):
            with pytest.raises(ReproError, match=needle):
                run_task(task, context=RunContext())
