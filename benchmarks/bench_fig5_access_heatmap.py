"""Figure 5 — heatmap of vtxProp accesses to the top-20% vertices.

One cell per (algorithm, dataset): the percentage of vtxProp accesses
that target the 20% most-connected vertices. The paper reports up to
99% for power-law datasets and ~20-30% for road networks (twitter is
omitted there too, for profiling cost).
"""

from repro.bench import bench_graph, format_table
from repro.algorithms.registry import ALGORITHMS, run_algorithm
from repro.core.characterization import access_fraction_to_top

from conftest import emit

ALGS = ("pagerank", "bfs", "sssp", "radii")
DATASETS = ("sd", "rmat", "wiki", "lj", "rPA", "rCA")


def _heatmap():
    table = {}
    for alg in ALGS:
        info = ALGORITHMS[alg]
        row = {}
        for ds in DATASETS:
            graph, _ = bench_graph(
                ds, weighted=info.requires_weights,
                undirected=info.requires_undirected,
            )
            res = run_algorithm(alg, graph, num_cores=16, chunk_size=32)
            row[ds] = round(access_fraction_to_top(res.trace, graph), 1)
        table[alg] = row
    return table


def test_fig5_access_heatmap(benchmark, sims):
    table = benchmark.pedantic(_heatmap, rounds=1, iterations=1)
    rows = [
        {"algorithm": alg, **{ds: table[alg][ds] for ds in DATASETS}}
        for alg in ALGS
    ]
    emit("fig5_heatmap",
         format_table(rows, "Fig 5 — % vtxProp accesses to top-20% vertices"))
    for alg in ALGS:
        for ds in DATASETS:
            value = table[alg][ds]
            if ds in ("rPA", "rCA"):
                assert value < 50.0, f"{alg}/{ds} road cell too hot: {value}"
            else:
                assert value > 45.0, f"{alg}/{ds} power-law cell too cold: {value}"
