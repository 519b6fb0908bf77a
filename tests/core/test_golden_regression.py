"""Golden regression: the engine refactor must not move the results.

The headline ``compare_systems`` ratios below were captured from the
pre-refactor tree (seed commit 296ad4d), where every hierarchy ran its
own hand-written per-event replay loop. The unified batch engine must
reproduce them to float-noise precision (1e-9 relative): integer event
counters are bit-exact by construction, and the only permitted float
deviation is summation order in the per-core latency folds.
"""

import pytest

from repro.core.system import compare_systems
from repro.graph.generators import rmat_graph
from repro.core.context import RunRequest

#: compare_systems ratios recorded from the seed tree.
GOLDEN = {
    "rmat8_pagerank": {
        "speedup": 1.2691732762267351,
        "traffic_reduction": 5.042659974905897,
        "dram_bw_improvement": 1.321781494930434,
        "energy_saving": 1.3562589008083694,
    },
    "rmat7_bfs": {
        "speedup": 0.9905729114682102,
        "traffic_reduction": 1.233159674618408,
        "dram_bw_improvement": 0.9143749952014248,
        "energy_saving": 1.0565702335103304,
    },
}

REL_TOL = 1e-9


def _check(comparison, golden):
    for metric, expected in golden.items():
        got = getattr(comparison, metric)
        assert got == pytest.approx(expected, rel=REL_TOL), (
            f"{metric}: {got!r} deviates from pre-refactor {expected!r}"
        )


@pytest.mark.slow
def test_pagerank_ratios_match_pre_refactor():
    graph = rmat_graph(8, edge_factor=8, seed=21)
    comparison = compare_systems(graph, RunRequest("pagerank", dataset="rmat8"))
    _check(comparison, GOLDEN["rmat8_pagerank"])


@pytest.mark.slow
def test_bfs_ratios_match_pre_refactor():
    graph = rmat_graph(7, edge_factor=6, seed=5)
    comparison = compare_systems(graph, RunRequest("bfs", dataset="rmat7"))
    _check(comparison, GOLDEN["rmat7_bfs"])
