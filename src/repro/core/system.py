"""Full-system drivers: run an algorithm on a graph through a hierarchy.

This is the library's main entry point. :func:`run_system` executes one
(algorithm, graph, configuration, backend) tuple end-to-end:

1. optionally reorder the graph by popularity (OMEGA's offline
   preprocessing, Section VI — nth-element in-degree by default),
2. run the algorithm over the Ligra engine, collecting the memory
   trace — or fetch the identical trace from the persistent
   content-addressed store (:mod:`repro.store`) when a prior run
   already generated it,
3. size the scratchpad mapping from the algorithm's vtxProp footprint
   (Section V-A: one line holds all of a vertex's entries plus the
   active bit) and compile the algorithm's update function to PISC
   microcode (Section V-F),
4. replay the trace through the selected memory-hierarchy backend
   (any name in :func:`repro.memsim.backends.backend_names`), and
5. fold the counters into timing and energy.

Every driver takes the same two values: a
:class:`~repro.core.context.RunRequest` (what to run) and a
:class:`~repro.core.context.RunContext` (with which surroundings).
Every hierarchy variant — baseline CMP, OMEGA, the Section IX locked
cache, GraphPIM, the dynamic scratchpad — runs through the same driver
via ``RunRequest(..., backend=...)``.

Because the trace depends only on ``(graph, algorithm, kwargs, cores,
chunk, reorder)`` — never on the hierarchy replaying it —
:func:`run_backends` generates (or loads) each *distinct* trace once
and replays every requested backend against it. :func:`compare_systems`
is a thin wrapper over it that returns the paper's headline ratios
(speedup, traffic reduction, DRAM bandwidth improvement, energy
saving).
"""

from __future__ import annotations

import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.degree import degree_classes
from repro.graph.reorder import nth_element_order, reorder_nth_element
from repro.algorithms.common import AlgorithmResult, default_source
from repro.algorithms.registry import run_algorithm
from repro.core.offload import microcode_for_algorithm
from repro.core.report import Comparison, SimReport
from repro.ligra.segments import SegmentedTrace, SpoolingTraceBuilder
from repro.ligra.trace import Trace
from repro.memsim.core_model import compute_timing
from repro.memsim.energy import EnergyModel
from repro.memsim.estimate import ReplayEstimate, estimate_replay
from repro.memsim.backends import (
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    LockedCacheBackend,
    OmegaBackend,
    get_backend,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.obs import (
    AttributionAccumulator,
    AttributionSpec,
    ReplaySampler,
    SpanTracer,
    append_entry,
    get_registry,
    get_tracer,
    make_entry,
    use_registry,
    use_tracer,
)
from repro.obs.attribution import FIELDS as ATTRIBUTION_FIELDS
from repro.store import TraceStore, trace_key

__all__ = [
    "run_system",
    "estimate_system",
    "run_backends",
    "compare_systems",
    "default_backend_config",
    "DEFAULT_CHUNK_SIZE",
]

_LOG = logging.getLogger("repro.core.system")

#: Default OpenMP-schedule chunk (and matching scratchpad-mapping chunk).
DEFAULT_CHUNK_SIZE = 32

#: Report labels for backends whose name differs from the config name.
_BACKEND_LABELS = {
    "locked": "locked-cache",
    "graphpim": "graphpim",
    "dynamic": "dynamic-scratchpad",
}

#: Whether each backend's required preprocessing includes the offline
#: popularity reordering (Section VI). GraphPIM and the dynamic
#: scratchpad are explicitly "no preprocessing" designs; the baseline
#: runs the paper's original ordering.
_REORDER_DEFAULT = {
    "baseline": False,
    "omega": True,
    "locked": True,
    "graphpim": False,
    "dynamic": False,
}

#: The reorder recipe run_system applies (the trace-store key names it).
_REORDER_RECIPE = "nth-element/in"

#: Backends whose on-chip hot-vertex structure must be sized from the
#: algorithm's vtxProp footprint.
_HOT_SET_BACKENDS = ("omega", "locked", "dynamic")


def default_backend_config(backend: str, num_cores: int = 16) -> SimConfig:
    """The conventional scaled configuration for a named backend.

    Mirrors the paper's same-total-storage comparisons: baseline and
    GraphPIM keep the full cache hierarchy, the locked cache repurposes
    half the L2 without PISCs, OMEGA and the dynamic scratchpad run the
    full Table III OMEGA design. Used by the CLI and by
    :func:`run_backends` when no explicit config is given.
    """
    if backend in ("baseline", "graphpim"):
        return SimConfig.scaled_baseline(num_cores=num_cores)
    if backend == "locked":
        return SimConfig.scaled_omega(
            num_cores=num_cores, use_pisc=False, use_source_buffer=False
        )
    return SimConfig.scaled_omega(num_cores=num_cores)


@dataclass
class _TraceBundle:
    """Everything the replay stage needs from trace generation.

    Exactly this bundle is what the trace store persists: the columnar
    trace in the ``.npz`` plus the remaining fields in the JSON sidecar
    — so a warm hit can skip reorder and algorithm execution entirely.

    Exactly one of ``trace`` (whole-trace in-core) and ``segments``
    (out-of-core streaming: a bounded-memory
    :class:`~repro.ligra.segments.SegmentedTrace` handle) is set.
    """

    trace: Optional[Trace]
    #: vtxProp (start, end) address ranges — the spatially-random
    #: regions the hybrid DRAM page policy serves close-page
    #: (Section IX direction 3).
    vtx_ranges: List[Tuple[int, int]]
    bytes_per_vertex: int
    num_vertices: int
    num_edges: int
    cache_enabled: bool = False
    cache_hit: bool = False
    cache_key: Optional[str] = None
    segments: Optional[SegmentedTrace] = None
    #: Resolved streaming segment size (``None`` for in-core runs).
    segment_events: Optional[int] = None
    #: Spool file this bundle owns and must delete on cleanup (only
    #: when the unlink-while-open trick was unavailable).
    spool_path: Optional[str] = None

    @property
    def num_events(self) -> int:
        source = self.trace if self.trace is not None else self.segments
        return source.num_events

    @property
    def nbytes(self) -> int:
        source = self.trace if self.trace is not None else self.segments
        return source.nbytes

    def cache_info(self) -> Dict:
        """Manifest ``trace_cache`` block."""
        return {
            "enabled": self.cache_enabled,
            "hit": self.cache_hit,
            "key": self.cache_key,
        }

    def cleanup(self) -> None:
        """Release the streaming handle and any owned spool file."""
        if self.segments is not None:
            self.segments.close()
        if self.spool_path is not None:
            try:
                os.unlink(self.spool_path)
            except OSError:
                pass
            self.spool_path = None


def _attribution_spec(
    graph: CSRGraph, bundle: "_TraceBundle", reorder: bool
) -> AttributionSpec:
    """Build the run's attribution spec from the graph and its trace.

    The degree strata are computed on the *original* graph and, when
    the run reordered, permuted into trace id space with the same
    nth-element order the reorder applied — recomputed here from the
    degree vector, so warm store hits (which skip the reorder entirely)
    classify identically to cold runs.
    """
    source = bundle.trace if bundle.trace is not None else bundle.segments
    regions = tuple(getattr(source, "regions", ()) or ())
    deg = graph.in_degrees()
    vclass = degree_classes(deg)
    if reorder and len(vclass):
        vclass = vclass[nth_element_order(deg)]
    counts = [int((vclass == c).sum()) for c in range(3)]
    return AttributionSpec(
        regions=regions,
        vertex_classes=vclass,
        meta={
            "degree_key": "in",
            "hub_fraction": 0.20,
            "torso_fraction": 0.30,
            "reorder": _REORDER_RECIPE if reorder else None,
            "hub_vertices": counts[0],
            "torso_vertices": counts[1],
            "tail_vertices": counts[2],
        },
    )


def _peak_rss_bytes() -> Optional[int]:
    """Process peak RSS in bytes, or ``None`` when unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def _make_spool(store: Optional[TraceStore], key: Optional[str]) -> str:
    """Create the spool file a streaming generation writes into.

    With a store destination the spool lives *inside the store root*
    (dot-prefixed, ``.tmp``-suffixed) so :meth:`TraceStore.adopt` is a
    same-filesystem rename and a crashed run's leftover matches the
    store's orphan-collection pattern. Without one it goes to the
    system temp directory.
    """
    if store is not None and key is not None:
        store.root.mkdir(parents=True, exist_ok=True)
        fd, spool = tempfile.mkstemp(
            dir=store.root, prefix=f".{key}.", suffix=".tmp.npz"
        )
    else:
        fd, spool = tempfile.mkstemp(prefix="repro-spool.", suffix=".npz")
    os.close(fd)
    return spool


def _generate_bundle(
    graph: CSRGraph,
    algorithm: str,
    num_cores: int,
    chunk_size: Optional[int],
    reorder: bool,
    tracer,
    alg_kwargs: Dict,
    segment_events: Optional[int] = None,
    store: Optional[TraceStore] = None,
    key: Optional[str] = None,
) -> _TraceBundle:
    """Cold path: reorder (optionally) and execute the algorithm.

    With ``segment_events`` set the engine appends into a
    :class:`~repro.ligra.segments.SpoolingTraceBuilder`, so the trace
    is never whole in memory: completed barrier spans stream to a
    segmented archive on disk and the bundle carries the open
    :class:`~repro.ligra.segments.SegmentedTrace` handle instead of an
    in-core trace. The spool file is created by :func:`_make_spool`;
    ownership of it stays on ``bundle.spool_path`` until the caller
    adopts it into the store or it is unlinked here (POSIX keeps the
    open archive handle readable after the unlink).
    """
    work_graph = graph
    if reorder:
        with tracer.span("reorder", cat="run", key="in"):
            work_graph, new_ids = reorder_nth_element(graph, key="in")
        if alg_kwargs.get("source") is not None:
            alg_kwargs = dict(alg_kwargs)
            alg_kwargs["source"] = int(new_ids[alg_kwargs["source"]])

    builder: Union[bool, SpoolingTraceBuilder] = True
    spool = None
    if segment_events is not None:
        spool = _make_spool(store, key)
        builder = SpoolingTraceBuilder(spool, segment_events=segment_events)
    try:
        with tracer.span("trace_generation", cat="run",
                         streamed=spool is not None) as gen_span:
            result: AlgorithmResult = run_algorithm(
                algorithm,
                work_graph,
                num_cores=num_cores,
                chunk_size=chunk_size,
                trace=builder,
                **alg_kwargs,
            )
            trace = None
            segments = None
            if isinstance(builder, SpoolingTraceBuilder):
                segments = builder.finalize(
                    regions=tuple(result.engine.space.regions)
                )
            else:
                trace = result.trace
            source = trace if trace is not None else segments
            gen_span.annotate(
                events=source.num_events, trace_bytes=source.nbytes
            )
    except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: abort the spool on any failure, then propagate it unchanged
        if isinstance(builder, SpoolingTraceBuilder):
            builder.abort()
        if spool is not None:
            try:
                os.unlink(spool)
            except OSError:
                pass
        raise
    _LOG.info(
        "trace generated%s: %d events, %.2f MiB",
        " (streamed)" if segments is not None else "",
        source.num_events, source.nbytes / (1024 * 1024),
    )
    vtx_ranges = [
        (p.start_addr, p.region.end) for p in result.engine.vtx_props
    ]
    return _TraceBundle(
        trace=trace,
        vtx_ranges=vtx_ranges,
        bytes_per_vertex=result.engine.vtxprop_bytes_per_vertex(),
        num_vertices=work_graph.num_vertices,
        num_edges=work_graph.num_edges,
        segments=segments,
        segment_events=segment_events,
        spool_path=spool,
    )


def _bundle_meta(
    graph: CSRGraph,
    algorithm: str,
    num_cores: int,
    chunk_size: Optional[int],
    reorder: bool,
    bundle: _TraceBundle,
) -> Dict:
    """The JSON sidecar a stored trace carries next to its archive."""
    return {
        "algorithm": algorithm,
        "graph_fingerprint": graph.fingerprint(),
        "num_cores": int(num_cores),
        "chunk_size": (
            None if chunk_size is None else int(chunk_size)
        ),
        "reorder": _REORDER_RECIPE if reorder else None,
        "num_events": bundle.num_events,
        "trace_nbytes": bundle.nbytes,
        "vtx_ranges": [list(r) for r in bundle.vtx_ranges],
        "bytes_per_vertex": bundle.bytes_per_vertex,
        "num_vertices": bundle.num_vertices,
        "num_edges": bundle.num_edges,
    }


def _prepare_trace(
    graph: CSRGraph,
    algorithm: str,
    num_cores: int,
    chunk_size: Optional[int],
    reorder: bool,
    store: Optional[TraceStore],
    tracer,
    alg_kwargs: Dict,
    segment_events: Optional[int] = None,
) -> _TraceBundle:
    """Load the trace bundle from the store, or generate and cache it.

    With ``segment_events`` set every path stays out-of-core: a warm
    hit opens the stored segmented archive for streaming
    (:meth:`TraceStore.open_segments`) instead of rehydrating it, and
    a cold run spools through
    :class:`~repro.ligra.segments.SpoolingTraceBuilder` and donates the
    finished archive to the store via :meth:`TraceStore.adopt` — the
    whole trace is never resident.
    """
    key = None
    if store is not None:
        key = trace_key(
            graph,
            algorithm,
            num_cores=num_cores,
            chunk_size=chunk_size,
            reorder=_REORDER_RECIPE if reorder else None,
            alg_kwargs=alg_kwargs,
        )
        if key is None:
            _LOG.debug(
                "trace store: kwargs not canonicalizable; bypassing cache"
            )
    if key is not None:
        with tracer.span("trace_store.load", cat="run", key=key,
                         streamed=segment_events is not None):
            entry = (
                store.open_segments(key) if segment_events is not None
                else store.load(key)
            )
        if entry is not None:
            source, meta = entry
            _LOG.info(
                "trace store hit: %s (%d events%s)", key, source.num_events,
                ", streamed" if segment_events is not None else "",
            )
            return _TraceBundle(
                trace=None if segment_events is not None else source,
                vtx_ranges=[
                    (int(lo), int(hi)) for lo, hi in meta["vtx_ranges"]
                ],
                bytes_per_vertex=int(meta["bytes_per_vertex"]),
                num_vertices=int(meta["num_vertices"]),
                num_edges=int(meta["num_edges"]),
                cache_enabled=True,
                cache_hit=True,
                cache_key=key,
                segments=source if segment_events is not None else None,
                segment_events=segment_events,
            )
        _LOG.info("trace store miss: %s", key)
    bundle = _generate_bundle(
        graph, algorithm, num_cores, chunk_size, reorder, tracer,
        alg_kwargs, segment_events=segment_events, store=store, key=key,
    )
    if key is not None:
        meta = _bundle_meta(
            graph, algorithm, num_cores, chunk_size, reorder, bundle
        )
        with tracer.span("trace_store.store", cat="run", key=key,
                         streamed=bundle.segments is not None):
            if bundle.segments is not None:
                # The archive is already on disk next to the store:
                # rename it into place. The bundle's open handle keeps
                # reading the same inode after the rename.
                store.adopt(key, bundle.spool_path, meta)
                bundle.spool_path = None
            else:
                store.store(key, bundle.trace, meta)
        bundle.cache_enabled = True
        bundle.cache_key = key
    elif bundle.spool_path is not None:
        # No store destination: drop the directory entry now and keep
        # streaming from the open handle (the inode lives until the
        # bundle's cleanup closes it).
        try:
            os.unlink(bundle.spool_path)
        except OSError:  # pragma: no cover - non-POSIX semantics
            pass
        else:
            bundle.spool_path = None
    return bundle


def _make_hierarchy(
    bundle: _TraceBundle,
    algorithm: str,
    config: SimConfig,
    backend_name: str,
    backend_cls,
    chunk_size: Optional[int],
    sp_chunk_size: Optional[int],
    pim,
):
    """Construct the hierarchy backend for one prepared trace.

    Sizes the scratchpad mapping from the trace's vtxProp footprint and
    compiles PISC microcode where the backend uses it. Shared between
    the real replay (:func:`_replay_bundle`) and the analytic
    estimator (:func:`estimate_system`) so both see the exact same
    machine. Returns ``(hierarchy, hot_capacity)``.
    """
    hot_capacity = 0
    mapping = None
    if backend_name in _HOT_SET_BACKENDS:
        sp_bytes = config.scratchpad_total_bytes
        if backend_name == "locked" and not sp_bytes:
            # The locked region repurposes half the on-chip
            # storage, exactly like OMEGA's scratchpads.
            sp_bytes = config.total_onchip_bytes // 2
        hot_capacity = hot_capacity_for(
            sp_bytes,
            bundle.bytes_per_vertex,
            bundle.num_vertices,
        )
        if backend_name != "dynamic":
            mapping = ScratchpadMapping(
                num_cores=config.core.num_cores,
                hot_capacity=hot_capacity,
                chunk_size=(
                    sp_chunk_size if sp_chunk_size is not None
                    else chunk_size
                ),
            )

    microcode = None
    if backend_name in ("omega", "dynamic") and config.use_pisc:
        microcode = microcode_for_algorithm(algorithm)

    if backend_name == "baseline":
        hierarchy = BaselineBackend(
            config, dram_random_ranges=bundle.vtx_ranges
        )
    elif backend_name == "omega":
        hierarchy = OmegaBackend(
            config, mapping, microcode,
            dram_random_ranges=bundle.vtx_ranges,
        )
    elif backend_name == "locked":
        hierarchy = LockedCacheBackend(config, mapping)
    elif backend_name == "graphpim":
        hierarchy = GraphPimBackend(config, pim)
    elif backend_name == "dynamic":
        hierarchy = DynamicScratchpadBackend(
            config, hot_capacity, microcode
        )
    else:
        # Extension backends take just the config.
        hierarchy = backend_cls(config)
    return hierarchy, hot_capacity


def _replay_bundle(
    bundle: _TraceBundle,
    algorithm: str,
    config: SimConfig,
    backend_name: str,
    backend_cls,
    dataset: str,
    chunk_size: Optional[int],
    sp_chunk_size: Optional[int],
    energy_model: Optional[EnergyModel],
    pim,
    sampler: Optional[ReplaySampler],
    tracer,
    attribution_acc: Optional[AttributionAccumulator] = None,
    scalar_cache: bool = False,
) -> SimReport:
    """Replay a prepared trace through one backend and build the report."""
    with tracer.span("prepare_backend", cat="run", backend=backend_name):
        hierarchy, hot_capacity = _make_hierarchy(
            bundle, algorithm, config, backend_name, backend_cls,
            chunk_size, sp_chunk_size, pim,
        )
    hierarchy.scalar_cache = scalar_cache

    replay_start = time.perf_counter()
    if bundle.segments is not None:
        output = hierarchy.replay_segments(
            bundle.segments, sampler=sampler, attribution=attribution_acc
        )
    else:
        output = hierarchy.replay(
            bundle.trace, sampler=sampler, attribution=attribution_acc
        )
    replay_seconds = time.perf_counter() - replay_start
    attribution_block = None
    if attribution_acc is not None:
        # The conservation invariant is load-bearing: a mismatch means
        # the attribution (or the accounting it mirrors) miscounted.
        attribution_acc.verify(output.stats, bundle.num_events)
        attribution_block = attribution_acc.result()
        if tracer.enabled:
            per_class = attribution_acc.per_class()
            for fld in ATTRIBUTION_FIELDS:
                tracer.counter(
                    f"attribution.{fld}",
                    {name: per_class[name][fld] for name in per_class},
                )
    with tracer.span("timing_energy", cat="run"):
        timing = compute_timing(output, config)
        model = energy_model or EnergyModel()
        energy = model.breakdown(output.stats)

    n = bundle.num_vertices
    report = SimReport(
        system=_BACKEND_LABELS.get(backend_name, config.name),
        algorithm=algorithm,
        dataset=dataset,
        config=config,
        stats=output.stats,
        timing=timing,
        energy=energy,
        replay=output,
        hot_capacity=hot_capacity,
        hot_fraction=hot_capacity / n if n else 0.0,
        num_vertices=n,
        num_edges=bundle.num_edges,
        trace_events=bundle.num_events,
        trace_bytes=bundle.nbytes,
        backend=backend_name,
        replay_seconds=replay_seconds,
        trace_cache=bundle.cache_info(),
        segment_events=bundle.segment_events,
        num_segments=output.num_segments,
        streamed=bundle.segments is not None,
        peak_rss_bytes=_peak_rss_bytes(),
        attribution=attribution_block,
    )
    _LOG.info(
        "run complete: %.0f cycles, bottleneck=%s, replay %.3fs",
        timing.total_cycles, timing.bottleneck, replay_seconds,
    )
    return report


def _pinned_kwargs(graph: CSRGraph, request: RunRequest) -> Dict:
    """The request's algorithm kwargs, with traversal roots pinned to a
    *logical* vertex before any relabeling, so runs with and without
    reordering traverse the same workload."""
    alg_kwargs = dict(request.alg_kwargs)
    if request.algorithm in ("bfs", "sssp", "bc") \
            and alg_kwargs.get("source") is None:
        alg_kwargs["source"] = default_source(graph)
    return alg_kwargs


def _check_args(graph, request) -> None:
    """Reject a non-graph ``graph`` or non-request ``request``."""
    if not isinstance(graph, CSRGraph):
        hint = (
            " (load_dataset returns a (graph, spec) pair; pass its"
            " first element)" if isinstance(graph, tuple) else ""
        )
        raise SimulationError(
            f"graph must be a CSRGraph, got {type(graph).__name__}{hint}"
        )
    if not isinstance(request, RunRequest):
        raise SimulationError(
            f"request must be a RunRequest, got {request!r}"
        )


def _backend_and_config(
    request: RunRequest, config: Optional[SimConfig]
) -> Tuple[str, SimConfig, bool]:
    """Resolve ``(backend name, config, reorder)`` for one run.

    Without a config the backend defaults to OMEGA and the config to
    :func:`default_backend_config`; with one, an unset backend is
    inferred from ``config.use_scratchpad``. ``reorder`` defaults per
    backend.
    """
    if config is None:
        name = request.backend or "omega"
        config = default_backend_config(name, num_cores=request.num_cores)
    else:
        name = request.backend or (
            "omega" if config.use_scratchpad else "baseline"
        )
    reorder = request.reorder
    if reorder is None:
        reorder = _REORDER_DEFAULT.get(name, config.use_scratchpad)
    return name, config, bool(reorder)


def run_system(
    graph: CSRGraph,
    request: RunRequest,
    config: Optional[SimConfig] = None,
    context: Optional[RunContext] = None,
    *,
    energy_model: Optional[EnergyModel] = None,
    pim=None,
) -> SimReport:
    """Run one algorithm on one graph through one system configuration.

    ``request`` describes *what* to run and ``context`` *with which
    surroundings* (field docs on :class:`~repro.core.context.RunRequest`
    and :class:`~repro.core.context.RunContext`). ``context=None``
    builds one with :meth:`RunContext.from_env` (a request's
    ``attribution_path`` then turns attribution on); a given context is
    authoritative and no environment variable is read in the run.

    ``graph`` is the input graph in its original vertex order.
    ``config`` is the system description; without one it is
    :func:`default_backend_config` for the request's backend (default
    OMEGA). ``energy_model`` defaults to :class:`EnergyModel`; ``pim``
    is an optional :class:`~repro.memsim.backends.PimConfig` for the
    ``graphpim`` backend.
    """
    _check_args(graph, request)
    algorithm, dataset = request.algorithm, request.dataset
    backend_name, config, reorder = _backend_and_config(request, config)
    backend_cls = get_backend(backend_name)
    alg_kwargs = _pinned_kwargs(graph, request)
    if context is None:
        context = RunContext.from_env(
            attribution_path=request.attribution_path
        )
    chunk_size = request.chunk_size
    trace_path = request.trace_path
    timeline_path = request.timeline_path
    attribution_path = request.attribution_path

    # Observability setup: use the context's sink, else the thread's
    # installed tracer, or spin up a private one when a trace file was
    # requested; sample the replay when a timeline file or an explicit
    # window was requested.
    tracer = context.tracer if context.tracer is not None else get_tracer()
    if trace_path is not None and not tracer.enabled:
        tracer = SpanTracer()
    registry = (
        context.metrics if context.metrics is not None else get_registry()
    )
    sampler = None
    if timeline_path is not None or request.obs_window is not None:
        sampler = ReplaySampler(request.obs_window or 0)
    _LOG.info(
        "run_system: algorithm=%s dataset=%s backend=%s cores=%d",
        algorithm, dataset or "?", backend_name, config.core.num_cores,
    )

    with use_tracer(tracer), use_registry(registry), tracer.span(
        "run_system", cat="run", algorithm=algorithm, dataset=dataset,
        backend=backend_name,
    ):
        bundle = _prepare_trace(
            graph, algorithm, config.core.num_cores, chunk_size, reorder,
            context.store, tracer, alg_kwargs,
            segment_events=context.segment_events,
        )
        try:
            attribution_acc = None
            if context.attribution:
                with tracer.span("attribution_spec", cat="run"):
                    attribution_acc = AttributionAccumulator(
                        _attribution_spec(graph, bundle, reorder)
                    )
            report = _replay_bundle(
                bundle, algorithm, config, backend_name, backend_cls,
                dataset, chunk_size, request.sp_chunk_size, energy_model,
                pim, sampler, tracer, attribution_acc=attribution_acc,
                scalar_cache=context.scalar_cache,
            )
        finally:
            bundle.cleanup()

    if sampler is not None:
        report.timeline = sampler.timeline()
        if registry.enabled:
            report.timeline.metrics = registry.snapshot()

    if trace_path is not None:
        tracer.export_chrome(trace_path)
        _LOG.info("wrote Chrome trace to %s", trace_path)
    if timeline_path is not None and report.timeline is not None:
        report.timeline.save(timeline_path)
        _LOG.info(
            "wrote %d-window timeline to %s",
            report.timeline.num_windows, timeline_path,
        )
    if attribution_path is not None and report.attribution is not None:
        import json

        parent = os.path.dirname(os.fspath(attribution_path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(attribution_path, "w") as f:
            json.dump(report.attribution, f, indent=2, sort_keys=True)
        _LOG.info("wrote attribution breakdown to %s", attribution_path)
    if request.manifest_path is not None:
        report.save_manifest(request.manifest_path)
    if context.ledger_path is not None:
        append_entry(
            context.ledger_path, make_entry(report.manifest(), kind="run")
        )
        _LOG.info("appended run-ledger entry to %s", context.ledger_path)
    return report


def estimate_system(
    graph: CSRGraph,
    request: RunRequest,
    config: Optional[SimConfig] = None,
    context: Optional[RunContext] = None,
    *,
    pim=None,
) -> "ReplayEstimate":
    """Predict a run's headline counters without replaying it.

    Takes the same arguments as :func:`run_system`, and the
    trace-preparation stages are identical (same store keys, same
    reorder defaults, same hierarchy sizing), but the replay is
    replaced by the closed-form model of
    :func:`repro.memsim.estimate.estimate_replay`: exact route shares,
    reuse-gap cache predictions, no stateful kernel. Used by
    ``repro sweep --estimate-prune`` to skip configurations whose
    predicted metrics fall outside the band of interest.

    Always runs in-core (the estimator needs the whole interleaved
    trace resident); the context's streaming segment size does not
    apply here. Returns the
    :class:`~repro.memsim.estimate.ReplayEstimate`.
    """
    _check_args(graph, request)
    algorithm = request.algorithm
    backend_name, config, reorder = _backend_and_config(request, config)
    backend_cls = get_backend(backend_name)
    alg_kwargs = _pinned_kwargs(graph, request)
    if context is None:
        context = RunContext.from_env()
    tracer = context.tracer if context.tracer is not None else get_tracer()
    _LOG.info(
        "estimate_system: algorithm=%s dataset=%s backend=%s cores=%d",
        algorithm, request.dataset or "?", backend_name,
        config.core.num_cores,
    )
    bundle = _prepare_trace(
        graph, algorithm, config.core.num_cores, request.chunk_size,
        reorder, context.store, tracer, alg_kwargs,
    )
    try:
        hierarchy, _ = _make_hierarchy(
            bundle, algorithm, config, backend_name, backend_cls,
            request.chunk_size, request.sp_chunk_size, pim,
        )
        hierarchy.scalar_cache = context.scalar_cache
        with tracer.span("estimate", cat="run", backend=backend_name,
                         events=bundle.num_events):
            return estimate_replay(hierarchy, bundle.trace)
    finally:
        bundle.cleanup()


def run_backends(
    graph: CSRGraph,
    request: RunRequest,
    backends: Sequence[str],
    configs: Optional[Dict[str, SimConfig]] = None,
    context: Optional[RunContext] = None,
    *,
    energy_model: Optional[EnergyModel] = None,
    pim=None,
) -> Dict[str, SimReport]:
    """Replay one workload through several backends, sharing traces.

    The memory trace depends on the graph, algorithm, kwargs, core
    count, chunk size and reorder recipe — *not* on the hierarchy that
    replays it — so each distinct trace is generated (or loaded from
    the trace store) exactly once and every backend that needs it
    replays the same in-memory arrays. With the paper's defaults that
    means two generations (original order for baseline/GraphPIM/
    dynamic, reordered for OMEGA/locked) regardless of how many
    backends run.

    Arguments mirror :func:`run_system`; ``request.backend`` is ignored
    — ``backends`` names the set to sweep — and ``configs`` optionally
    maps a backend name to its :class:`SimConfig` (defaults per backend
    via :func:`default_backend_config` with ``request.num_cores``).
    Returns an ordered ``{backend name: SimReport}`` in the order
    requested.
    """
    _check_args(graph, request)
    if not backends:
        raise SimulationError("run_backends needs at least one backend name")
    for name in backends:
        get_backend(name)  # fail fast on an unknown name
    algorithm = request.algorithm
    configs = dict(configs or {})
    alg_kwargs = _pinned_kwargs(graph, request)
    if context is None:
        context = RunContext.from_env()
    tracer = context.tracer if context.tracer is not None else get_tracer()

    bundles: Dict[Tuple, _TraceBundle] = {}
    reports: Dict[str, SimReport] = {}
    with tracer.span(
        "run_backends", cat="run", algorithm=algorithm,
        dataset=request.dataset, backends=",".join(backends),
    ):
        for name in backends:
            _, config, reorder = _backend_and_config(
                replace(request, backend=name), configs.get(name)
            )
            signature = (reorder, config.core.num_cores, request.chunk_size)
            bundle = bundles.get(signature)
            if bundle is None:
                bundle = _prepare_trace(
                    graph, algorithm, config.core.num_cores,
                    request.chunk_size, reorder, context.store, tracer,
                    alg_kwargs,
                )
                bundles[signature] = bundle
            reports[name] = _replay_bundle(
                bundle, algorithm, config, name, get_backend(name),
                request.dataset, request.chunk_size, request.sp_chunk_size,
                energy_model, pim, None, tracer,
                scalar_cache=context.scalar_cache,
            )
    return reports


def compare_systems(
    graph: CSRGraph,
    request: RunRequest,
    baseline_config: Optional[SimConfig] = None,
    omega_config: Optional[SimConfig] = None,
    context: Optional[RunContext] = None,
) -> Comparison:
    """Run baseline and OMEGA on the same workload; return the ratios.

    Defaults to the scaled Table III configurations with equal total
    on-chip storage (the paper's "same-sized" comparison). A thin
    wrapper over :func:`run_backends`, so the two runs share the trace
    store.
    """
    baseline_config = baseline_config or SimConfig.scaled_baseline()
    omega_config = omega_config or SimConfig.scaled_omega()
    if baseline_config.use_scratchpad:
        raise SimulationError("baseline_config must not use scratchpads")
    if not omega_config.use_scratchpad:
        raise SimulationError("omega_config must use scratchpads")
    reports = run_backends(
        graph, request, ("baseline", "omega"),
        configs={"baseline": baseline_config, "omega": omega_config},
        context=context,
    )
    return Comparison(baseline=reports["baseline"], omega=reports["omega"])
