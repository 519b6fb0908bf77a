"""Tests for the shared-trace multi-backend driver (run_backends)."""

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.core.system import (
    compare_systems,
    default_backend_config,
    run_backends,
    run_system,
)
from repro.graph.generators import rmat_graph
from repro.store import TraceStore
from repro.core.context import RunContext, RunRequest

BACKENDS = ("baseline", "omega", "locked", "graphpim", "dynamic")


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=21)


@pytest.fixture(scope="module")
def shared(graph):
    return run_backends(graph, RunRequest("pagerank", num_cores=4), BACKENDS)


class TestDefaultBackendConfig:
    def test_roles(self):
        assert not default_backend_config("baseline").use_scratchpad
        assert not default_backend_config("graphpim").use_scratchpad
        omega = default_backend_config("omega")
        assert omega.use_scratchpad and omega.use_pisc
        locked = default_backend_config("locked")
        assert locked.use_scratchpad and not locked.use_pisc

    def test_num_cores_forwarded(self):
        assert default_backend_config("omega", num_cores=4).core.num_cores == 4


class TestRunBackends:
    def test_matches_solo_run_system(self, graph, shared):
        """Sharing the trace must not change any simulated counter:
        every backend's report equals a standalone run_system run."""
        for name in BACKENDS:
            solo = run_system(
                graph, RunRequest("pagerank", backend=name),
                default_backend_config(name, num_cores=4), context=RunContext(),
            )
            assert shared[name].stats.as_dict() == solo.stats.as_dict(), name
            assert shared[name].cycles == solo.cycles, name
            assert shared[name].energy.as_dict() == solo.energy.as_dict(), name
            assert shared[name].hot_capacity == solo.hot_capacity, name

    def test_preserves_request_order(self, shared):
        assert tuple(shared) == BACKENDS

    def test_generates_two_traces_for_default_grid(self, graph, tmp_path):
        """baseline/graphpim/dynamic share the original-order trace;
        omega/locked share the reordered one — two entries, not five."""
        store = TraceStore(tmp_path)
        run_backends(
            graph, RunRequest("pagerank", num_cores=4), BACKENDS,
            context=RunContext(store=store),
        )
        assert len(store) == 2

    def test_warm_store_hits_for_all_groups(self, graph, tmp_path):
        store = TraceStore(tmp_path)
        run_backends(
            graph, RunRequest("pagerank", num_cores=4), ("baseline", "omega"),
            context=RunContext(store=store),
        )
        warm = run_backends(
            graph, RunRequest("pagerank", num_cores=4), ("baseline", "omega"),
            context=RunContext(store=store),
        )
        assert all(r.trace_cache["hit"] for r in warm.values())

    def test_explicit_config_overrides_default(self, graph):
        cfg = SimConfig.scaled_omega(num_cores=2)
        reports = run_backends(
            graph, RunRequest("pagerank"), ("omega",), configs={"omega": cfg},
        )
        assert reports["omega"].config.core.num_cores == 2

    def test_empty_backends_rejected(self, graph):
        with pytest.raises(SimulationError):
            run_backends(graph, RunRequest("pagerank"), ())

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(SimulationError):
            run_backends(graph, RunRequest("pagerank"), ("tpu",))

    def test_source_pinned_once_for_traversals(self, graph):
        """bfs must resolve its default source before grouping so the
        reordered and original-order traces walk the same logical root."""
        reports = run_backends(
            graph, RunRequest("bfs", num_cores=4), ("baseline", "omega"),
        )
        base, omega = reports["baseline"], reports["omega"]
        assert base.trace_events == pytest.approx(
            omega.trace_events, rel=0.05
        )


class TestCompareSystemsWrapper:
    def test_equals_run_backends(self, graph, shared):
        cmp = compare_systems(
            graph, RunRequest("pagerank"), SimConfig.scaled_baseline(num_cores=4),
            SimConfig.scaled_omega(num_cores=4),
        )
        assert (
            cmp.baseline.stats.as_dict()
            == shared["baseline"].stats.as_dict()
        )
        assert cmp.omega.stats.as_dict() == shared["omega"].stats.as_dict()

    def test_shares_cache_with_run_backends(self, graph, tmp_path):
        store = TraceStore(tmp_path)
        run_backends(
            graph, RunRequest("pagerank"), ("baseline", "omega"),
            context=RunContext(store=store),
        )
        cmp = compare_systems(
            graph, RunRequest("pagerank"), context=RunContext(store=store),
        )
        assert cmp.baseline.trace_cache["hit"]
        assert cmp.omega.trace_cache["hit"]
