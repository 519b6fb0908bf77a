"""OMEGA reproduction: heterogeneous cache/scratchpad memory subsystem
for natural graph analytics (Addisie, Kassa, Matthews, Bertacco —
IISWC 2018).

Quickstart::

    from repro import RunRequest, compare_systems, load_dataset

    graph, spec = load_dataset("lj")
    cmp = compare_systems(graph, RunRequest("pagerank", dataset="lj"))
    print(f"OMEGA speedup: {cmp.speedup:.2f}x")

Package layout:

- :mod:`repro.graph` — CSR graphs, generators, reordering, datasets.
- :mod:`repro.ligra` — the vertex-centric framework substrate.
- :mod:`repro.algorithms` — the eight Table II workloads.
- :mod:`repro.memsim` — the trace-driven memory-hierarchy simulator.
- :mod:`repro.core` — full-system drivers, offload compiler, models.
"""

from repro.config import SimConfig
from repro.core import (
    Comparison,
    RunContext,
    RunRequest,
    SimReport,
    compare_systems,
    run_system,
)
from repro.errors import ReproError
from repro.graph import CSRGraph, dataset_names, load_dataset

__version__ = "1.0.0"

__all__ = [
    "SimConfig",
    "Comparison",
    "RunContext",
    "RunRequest",
    "SimReport",
    "compare_systems",
    "run_system",
    "ReproError",
    "CSRGraph",
    "dataset_names",
    "load_dataset",
    "__version__",
]
