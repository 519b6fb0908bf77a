"""Section III motivation — limits of pre-processing-only solutions.

The paper applied in-degree, out-degree and SlashBurn reorderings to
the *baseline* CMP (no OMEGA hardware) and found limited benefit: +8%
for in-degree, +6.3% for out-degree, none for SlashBurn. We regenerate
the experiment by running the baseline on reordered graphs.
"""

from repro.bench import bench_graph, format_table
from repro.config import SimConfig
from repro.core.system import run_system
from repro.graph.reorder import (
    reorder_by_degree,
    reorder_slashburn,
)
from repro.core.context import RunRequest

from conftest import emit

DATASET = "lj"


def _rows():
    graph, _ = bench_graph(DATASET)
    cfg = SimConfig.scaled_baseline()
    base = run_system(
        graph, RunRequest("pagerank", dataset=DATASET, reorder=False), cfg,
    )

    variants = {
        "original order": graph,
        "in-degree sort": reorder_by_degree(graph, key="in")[0],
        "out-degree sort": reorder_by_degree(graph, key="out")[0],
        "slashburn": reorder_slashburn(graph, k=8)[0],
    }
    rows = []
    for name, g in variants.items():
        rep = run_system(g, RunRequest("pagerank", dataset=DATASET, reorder=False), cfg)
        rows.append(
            {
                "ordering": name,
                "cycles": round(rep.cycles),
                "speedup vs original": round(base.cycles / rep.cycles, 3),
                "llc hit rate": round(rep.stats.l2_hit_rate, 3),
            }
        )
    return rows


def test_motivation_reordering_limited(benchmark, sims):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = format_table(
        rows,
        "Section III — reordering alone on the baseline CMP (PageRank, lj)",
    )
    text += "\npaper: best +8% (in-degree), +6.3% (out-degree), ~0 (SlashBurn)\n"
    emit("motivation_reordering", text)
    by_name = {r["ordering"]: r["speedup vs original"] for r in rows}
    # Shape: reordering alone is nowhere near OMEGA's 2x.
    assert max(by_name.values()) < 1.5
    # SlashBurn provides no advantage over degree sorting.
    assert by_name["slashburn"] <= max(
        by_name["in-degree sort"], by_name["out-degree sort"]
    ) + 0.05
