"""Algorithm registry and Table II metadata.

Each entry records the paper's Table II characterization — atomic
operation type, qualitative atomic/random access fractions, vtxProp
entry size and count, active-list usage, and whether the source
vertex's vtxProp is read (source-buffer eligibility) — plus a uniform
runner so the benchmark harness can sweep algorithms by name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.ligra.trace import TraceBuilder

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.algorithms.bc import run_bc
from repro.algorithms.bfs import run_bfs
from repro.algorithms.cc import run_cc
from repro.algorithms.common import AlgorithmResult
from repro.algorithms.kcore import run_kcore
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.radii import run_radii
from repro.algorithms.sssp import run_sssp
from repro.algorithms.tc import run_tc
from repro.ligra.atomics import AtomicOp
from repro.obs import get_tracer

__all__ = [
    "AlgorithmInfo",
    "ALGORITHMS",
    "algorithm_names",
    "run_algorithm",
    "runner_kwargs",
]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Static characterization of one algorithm (one Table II column)."""

    name: str
    display_name: str
    atomic_ops: Tuple[AtomicOp, ...]
    pct_atomic: str  # 'high' | 'medium' | 'low'
    pct_random: str
    vtxprop_entry_bytes: int
    num_vtxprops: int
    uses_active_list: bool
    reads_src_vtxprop: bool
    requires_undirected: bool
    requires_weights: bool

    def as_row(self) -> dict:
        """Dictionary form matching the paper's Table II rows."""
        return {
            "algorithm": self.display_name,
            "atomic operation type": " & ".join(
                op.paper_label for op in self.atomic_ops
            ),
            "%atomic operation": self.pct_atomic,
            "%random access": self.pct_random,
            "vtxProp entry size": self.vtxprop_entry_bytes,
            "#vtxProp": self.num_vtxprops,
            "active-list": "yes" if self.uses_active_list else "no",
            "read src vtx's vtxProp": "yes" if self.reads_src_vtxprop else "no",
        }


_RUNNERS: Dict[str, Callable[..., AlgorithmResult]] = {
    "pagerank": run_pagerank,
    "bfs": run_bfs,
    "sssp": run_sssp,
    "bc": run_bc,
    "radii": run_radii,
    "cc": run_cc,
    "tc": run_tc,
    "kc": run_kcore,
}

ALGORITHMS: Dict[str, AlgorithmInfo] = {
    info.name: info
    for info in [
        AlgorithmInfo(
            name="pagerank", display_name="PageRank",
            atomic_ops=(AtomicOp.FP_ADD,),
            pct_atomic="high", pct_random="high",
            vtxprop_entry_bytes=8, num_vtxprops=1,
            uses_active_list=False, reads_src_vtxprop=False,
            requires_undirected=False, requires_weights=False,
        ),
        AlgorithmInfo(
            name="bfs", display_name="BFS",
            atomic_ops=(AtomicOp.UINT_CAS,),
            pct_atomic="low", pct_random="high",
            vtxprop_entry_bytes=4, num_vtxprops=1,
            uses_active_list=True, reads_src_vtxprop=False,
            requires_undirected=False, requires_weights=False,
        ),
        AlgorithmInfo(
            name="sssp", display_name="SSSP",
            atomic_ops=(AtomicOp.SINT_MIN,),
            pct_atomic="high", pct_random="high",
            vtxprop_entry_bytes=8, num_vtxprops=2,
            uses_active_list=True, reads_src_vtxprop=True,
            requires_undirected=False, requires_weights=True,
        ),
        AlgorithmInfo(
            name="bc", display_name="BC",
            atomic_ops=(AtomicOp.FP_ADD_DEP,),
            pct_atomic="medium", pct_random="high",
            vtxprop_entry_bytes=8, num_vtxprops=1,
            uses_active_list=True, reads_src_vtxprop=True,
            requires_undirected=False, requires_weights=False,
        ),
        AlgorithmInfo(
            name="radii", display_name="Radii",
            atomic_ops=(AtomicOp.OR, AtomicOp.SINT_MIN),
            pct_atomic="high", pct_random="high",
            vtxprop_entry_bytes=12, num_vtxprops=3,
            uses_active_list=True, reads_src_vtxprop=True,
            requires_undirected=False, requires_weights=False,
        ),
        AlgorithmInfo(
            name="cc", display_name="CC",
            atomic_ops=(AtomicOp.UINT_MIN,),
            pct_atomic="high", pct_random="high",
            vtxprop_entry_bytes=8, num_vtxprops=2,
            uses_active_list=True, reads_src_vtxprop=True,
            requires_undirected=True, requires_weights=False,
        ),
        AlgorithmInfo(
            name="tc", display_name="TC",
            atomic_ops=(AtomicOp.SINT_ADD,),
            pct_atomic="low", pct_random="low",
            vtxprop_entry_bytes=8, num_vtxprops=1,
            uses_active_list=False, reads_src_vtxprop=False,
            requires_undirected=True, requires_weights=False,
        ),
        AlgorithmInfo(
            name="kc", display_name="KC",
            atomic_ops=(AtomicOp.SINT_ADD,),
            pct_atomic="low", pct_random="low",
            vtxprop_entry_bytes=4, num_vtxprops=1,
            uses_active_list=False, reads_src_vtxprop=False,
            requires_undirected=True, requires_weights=False,
        ),
    ]
}


def algorithm_names() -> Tuple[str, ...]:
    """All algorithm keys in Table II order."""
    return tuple(ALGORITHMS)


#: Arguments :func:`run_algorithm` passes to every runner itself.
_UNIFORM_ARGS = ("graph", "num_cores", "chunk_size", "trace")


def runner_kwargs(name: str) -> Tuple[str, ...]:
    """A registered runner's algorithm-specific keyword arguments.

    E.g. ``("source",)`` for BFS, in signature order.
    """
    params = inspect.signature(_RUNNERS[name]).parameters
    return tuple(p for p in params if p not in _UNIFORM_ARGS)


def run_algorithm(
    name: str,
    graph: CSRGraph,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: Union[bool, "TraceBuilder"] = True,
    **kwargs,
) -> AlgorithmResult:
    """Run a registered algorithm by name with uniform arguments.

    ``trace`` may be a :class:`~repro.ligra.trace.TraceBuilder`
    instance (e.g. a spooling builder) to append into instead of a
    bool.

    Graph requirements (symmetry, weights) are checked up front with a
    clear error instead of failing mid-run.
    """
    info = ALGORITHMS.get(name)
    if info is None:
        raise SimulationError(
            f"unknown algorithm {name!r}; available: {', '.join(ALGORITHMS)}"
        )
    if info.requires_undirected and graph.directed:
        raise SimulationError(
            f"{info.display_name} requires an undirected graph"
        )
    if info.requires_weights and not graph.weighted:
        raise SimulationError(f"{info.display_name} requires edge weights")
    runner = _RUNNERS[name]
    with get_tracer().span(
        "algorithm", cat="ligra", algorithm=name,
        vertices=graph.num_vertices, edges=graph.num_edges,
    ) as span:
        result = runner(
            graph, num_cores=num_cores, chunk_size=chunk_size, trace=trace,
            **kwargs,
        )
        span.annotate(iterations=result.iterations)
    return result
