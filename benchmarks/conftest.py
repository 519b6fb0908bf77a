"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's tables or
figures. Comparisons are expensive, so caching happens at two levels:

- a session-scoped in-memory cache shares finished
  (algorithm, dataset, config) *reports* across benchmarks within one
  pytest run, and
- the persistent content-addressed trace store (:mod:`repro.store`)
  shares *traces* across processes and invocations, so a repeated
  ``pytest benchmarks/`` starts warm: only the replay stage re-runs.

The store lives in ``benchmarks/.trace_cache`` by default; point
``REPRO_CACHE_DIR`` somewhere else (e.g. a CI cache path) to relocate
it, or set ``REPRO_BENCH_NO_CACHE=1`` to disable persistence.

Every bench emits its rows both to stdout and to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be assembled
from the artifacts. Headline benches additionally append one
ledger-format entry per invocation to a machine-readable
``BENCH_<name>.json`` trajectory at the repo root (via
:func:`record`, backed by :mod:`repro.bench.record`).

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Optional, Tuple

import pytest

from repro.config import SimConfig
from repro.core.report import Comparison, SimReport
from repro.core.system import run_system
from repro.bench.record import record_bench
from repro.bench.runner import bench_graph
from repro.core.context import RunContext, RunRequest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo root — where the BENCH_<name>.json trajectories live.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Persistent trace-store root shared by every benchmark process.
TRACE_CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", str(pathlib.Path(__file__).parent / ".trace_cache")
)


def _bench_cache():
    """``RunContext.from_env(cache=...)`` selector for benchmark runs."""
    if os.environ.get("REPRO_BENCH_NO_CACHE"):
        return False
    return TRACE_CACHE_DIR


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text, end="" if text.endswith("\n") else "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


def record(name: str, metrics: Dict, context: Optional[Dict] = None) -> None:
    """Append this invocation's numbers to ``BENCH_<name>.json``."""
    path = record_bench(name, metrics, REPO_ROOT, context)
    print(f"recorded trajectory entry: {path}")


class ComparisonCache:
    """Session-wide cache of simulation runs keyed by workload+config.

    Finished reports are memoized in-process; the underlying traces
    are additionally persisted in the shared trace store, so a fresh
    pytest process skips trace generation for every workload a
    previous invocation already ran.
    """

    def __init__(self) -> None:
        self._runs: Dict[Tuple, SimReport] = {}

    def _config_key(self, cfg: SimConfig) -> Tuple:
        return (
            cfg.name,
            cfg.core.num_cores,
            cfg.l1.size_bytes,
            cfg.l2_per_core.size_bytes,
            cfg.scratchpad.size_bytes,
            cfg.use_scratchpad,
            cfg.use_pisc,
            cfg.use_source_buffer,
        )

    def run(
        self,
        algorithm: str,
        dataset: str,
        config: SimConfig,
        scale: float = 1.0,
        **kwargs,
    ) -> SimReport:
        """Run (or fetch) one system simulation."""
        from repro.algorithms.registry import ALGORITHMS

        key = (
            algorithm,
            dataset,
            scale,
            self._config_key(config),
            tuple(sorted(kwargs.items())),
        )
        if key not in self._runs:
            info = ALGORITHMS[algorithm]
            graph, _ = bench_graph(
                dataset,
                scale=scale,
                weighted=info.requires_weights,
                undirected=info.requires_undirected,
            )
            self._runs[key] = run_system(
                graph, RunRequest(algorithm, dataset=dataset, **kwargs), config,
                context=RunContext.from_env(cache=_bench_cache()),
            )
        return self._runs[key]

    def compare(
        self,
        algorithm: str,
        dataset: str,
        baseline_config: Optional[SimConfig] = None,
        omega_config: Optional[SimConfig] = None,
        scale: float = 1.0,
        **kwargs,
    ) -> Comparison:
        """Run (or fetch) a baseline-vs-OMEGA comparison."""
        base = self.run(
            algorithm, dataset, baseline_config or SimConfig.scaled_baseline(),
            scale=scale, **kwargs,
        )
        omega = self.run(
            algorithm, dataset, omega_config or SimConfig.scaled_omega(),
            scale=scale, **kwargs,
        )
        return Comparison(baseline=base, omega=omega)


_CACHE = ComparisonCache()


@pytest.fixture(scope="session")
def sims() -> ComparisonCache:
    """The shared simulation cache."""
    return _CACHE
