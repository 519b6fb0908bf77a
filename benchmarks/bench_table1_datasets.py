"""Table I — graph dataset characterization.

Regenerates the paper's Table I for the synthetic stand-ins: vertex
and edge counts, directedness, in-/out-degree connectivity of the top
20% most-connected vertices, and the power-law flag. The paper's
original values are shown alongside for comparison.
"""

from repro.bench import bench_graph, format_table
from repro.graph.datasets import dataset_names
from repro.graph.degree import characterize

from conftest import emit


def _build_rows():
    rows = []
    for name in dataset_names():
        graph, spec = bench_graph(name)
        ch = characterize(graph, name)
        row = ch.as_row()
        row["paper in-con."] = spec.paper_in_connectivity
        row["paper #V (M)"] = spec.paper_vertices_m
        rows.append(row)
    return rows


def test_table1_dataset_characterization(benchmark, sims):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    emit(
        "table1_datasets",
        format_table(rows, "Table I — dataset characterization (stand-ins)"),
    )
    # Shape checks: power-law flags must match the paper's.
    flags = {r["name"]: r["power law"] for r in rows}
    for name in dataset_names(power_law=True):
        assert flags[name] == "yes", f"{name} must be power-law"
    for name in dataset_names(power_law=False):
        assert flags[name] == "no", f"{name} must not be power-law"
    # Connectivity ordering tracks the paper (most- vs least-skewed).
    by_name = {r["name"]: r["in-degree con."] for r in rows}
    assert by_name["ic"] > by_name["orkut"]
    assert by_name["rmat"] > by_name["rCA"]
