"""Simulation reports: the structured output of a full-system run."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.memsim.core_model import TimingResult
from repro.memsim.energy import EnergyBreakdown
from repro.memsim.replay import ReplayOutput
from repro.memsim.stats import MemStats
from repro.obs.timeline import Timeline

__all__ = ["SimReport", "Comparison", "MANIFEST_SCHEMA"]

#: Current manifest schema tag. v2 added the ``telemetry`` block
#: (windowed-timeline summary percentiles; ``None`` when the run was
#: not sampled). v3 added ``workload.trace_bytes`` and the
#: ``trace_cache`` block (whether the persistent trace store was
#: consulted and whether it hit). v4 added the ``segmentation``
#: block (out-of-core streaming provenance) and
#: ``replay.peak_rss_bytes`` (host RSS high-water mark). v5 added the
#: ``attribution`` block (per graph-entity/degree-class counter
#: breakdown; ``None`` when attribution was not requested). v6 added
#: ``replay.kernel`` (batch-kernel screening telemetry: screened /
#: grouped / serialized event counts, per-generation screening, and
#: the execution mode; ``None`` when the run predates the kernel
#: block). v7 shrank ``replay.kernel`` to ``mode``/``batches``/
#: ``events`` when the compiled kernel replaced screening and
#: grouping; readers of v6 files keep finding the old fields there.
MANIFEST_SCHEMA = "omega-repro/run-manifest/v7"


@dataclass
class SimReport:
    """Everything measured from one (system, algorithm, graph) run."""

    system: str
    algorithm: str
    dataset: str
    config: SimConfig
    stats: MemStats
    timing: TimingResult
    energy: EnergyBreakdown
    replay: ReplayOutput = field(repr=False, default=None)
    #: Scratchpad coverage of this run (0 for the baseline).
    hot_capacity: int = 0
    hot_fraction: float = 0.0
    num_vertices: int = 0
    num_edges: int = 0
    trace_events: int = 0
    #: In-memory footprint of the trace's event columns, in bytes.
    trace_bytes: int = 0
    #: Registered backend name the trace was replayed through.
    backend: str = ""
    #: Replay wall-clock time (host seconds, not simulated time).
    replay_seconds: float = 0.0
    #: Windowed replay timeline, when the run was sampled.
    timeline: Optional[Timeline] = field(repr=False, default=None)
    #: Trace-store outcome for this run (``enabled``/``hit``/``key``),
    #: or ``None`` when the driver predates the store.
    trace_cache: Optional[Dict] = None
    #: Resolved segment size when the trace was streamed (``None``
    #: for whole-trace in-core replay).
    segment_events: Optional[int] = None
    #: Number of segments the replay consumed (1 for in-core).
    num_segments: int = 1
    #: Whether the replay consumed a segment stream instead of a
    #: resident trace.
    streamed: bool = False
    #: Host peak RSS (bytes) observed after the replay stage, or
    #: ``None`` when :mod:`resource` is unavailable.
    peak_rss_bytes: Optional[int] = None
    #: Per-class attribution block (see
    #: :meth:`repro.obs.attribution.AttributionAccumulator.result`),
    #: or ``None`` when attribution was not requested.
    attribution: Optional[Dict] = field(repr=False, default=None)

    @property
    def cycles(self) -> float:
        """Total simulated cycles."""
        return self.timing.total_cycles

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time."""
        return self.timing.seconds(self.config.core.freq_ghz)

    @property
    def dram_bandwidth_gbps(self) -> float:
        """Achieved DRAM bandwidth (the Fig 16 metric)."""
        return self.replay.dram.utilization_gbps(
            self.timing.total_cycles, self.config.core.freq_ghz
        )

    def summary(self) -> Dict[str, float]:
        """Headline numbers for table printers."""
        return {
            "system": self.system,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "cycles": round(self.cycles),
            "l2_hit_rate": round(self.stats.l2_hit_rate, 4),
            "last_level_hit_rate": round(self.stats.last_level_hit_rate, 4),
            "onchip_traffic_bytes": self.stats.onchip_traffic_bytes,
            "dram_bytes": self.stats.dram_bytes,
            "dram_bw_gbps": round(self.dram_bandwidth_gbps, 3),
            "energy_nj": round(self.energy.total_nj, 1),
            "hot_fraction": round(self.hot_fraction, 4),
            "bottleneck": self.timing.bottleneck,
        }

    def to_dict(self) -> Dict:
        """Full machine-readable form (for JSON export / archiving)."""
        return {
            "summary": self.summary(),
            "workload": {
                "num_vertices": self.num_vertices,
                "num_edges": self.num_edges,
                "trace_events": self.trace_events,
                "hot_capacity": self.hot_capacity,
            },
            "stats": self.stats.as_dict(),
            "timing": {
                "total_cycles": self.timing.total_cycles,
                "bottleneck": self.timing.bottleneck,
                "bounds": dict(self.timing.bounds),
                "memory_bound_fraction": self.timing.memory_bound_fraction,
            },
            "energy_nj": self.energy.as_dict(),
        }

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` as pretty-printed JSON."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    def telemetry(self) -> Optional[Dict]:
        """Manifest telemetry block: timeline summary, or ``None``.

        Summarizes the windowed time series as percentiles — compact
        enough to diff across runs without shipping every window.
        """
        if self.timeline is None:
            return None
        return {
            "window_events": self.timeline.window_events,
            "num_windows": self.timeline.num_windows,
            "summary": self.timeline.summary(),
        }

    def manifest(self) -> Dict:
        """Per-run manifest: what ran, on what machine description.

        A compact, stable record meant to sit next to result files
        (see ``docs/trace-format.md`` for the schema): configuration
        hash, workload identity, event counts, the timing/energy
        breakdown, and the replay wall-time.
        """
        events = self.trace_events
        return {
            "schema": MANIFEST_SCHEMA,
            "system": self.system,
            "backend": self.backend,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "config": {
                "name": self.config.name,
                "hash": self.config.config_hash(),
                "num_cores": self.config.core.num_cores,
                "total_onchip_bytes": self.config.total_onchip_bytes,
            },
            "workload": {
                "num_vertices": self.num_vertices,
                "num_edges": self.num_edges,
                "trace_events": events,
                "trace_bytes": self.trace_bytes,
                "hot_capacity": self.hot_capacity,
                "hot_fraction": self.hot_fraction,
            },
            "trace_cache": self.trace_cache,
            "replay": {
                "seconds": self.replay_seconds,
                "events_per_second": (
                    events / self.replay_seconds
                    if self.replay_seconds > 0 else 0.0
                ),
                "peak_rss_bytes": self.peak_rss_bytes,
                "kernel": (
                    self.replay.kernel if self.replay is not None else None
                ),
            },
            "segmentation": {
                "streamed": self.streamed,
                "segment_events": self.segment_events,
                "num_segments": self.num_segments,
            },
            "timing": {
                "total_cycles": self.timing.total_cycles,
                "bottleneck": self.timing.bottleneck,
                "bounds": dict(self.timing.bounds),
            },
            "energy_nj": self.energy.as_dict(),
            "event_counts": self.stats.as_dict(),
            "telemetry": self.telemetry(),
            "attribution": self.attribution,
        }

    def save_manifest(self, path) -> None:
        """Write :meth:`manifest` as pretty-printed JSON.

        Parent directories are created on demand so ``--manifest
        results/manifests/run.json`` works on a fresh checkout.
        """
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.manifest(), f, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Comparison:
    """Baseline-vs-OMEGA comparison for one workload (one Fig 14 bar)."""

    baseline: SimReport
    omega: SimReport

    def __post_init__(self) -> None:
        if self.baseline.algorithm != self.omega.algorithm:
            raise SimulationError(
                "comparison mixes algorithms:"
                f" {self.baseline.algorithm} vs {self.omega.algorithm}"
            )

    @property
    def speedup(self) -> float:
        """Baseline cycles over OMEGA cycles (>1 means OMEGA wins)."""
        if self.omega.cycles <= 0:
            raise SimulationError("omega run has zero cycles")
        return self.baseline.cycles / self.omega.cycles

    @property
    def traffic_reduction(self) -> float:
        """On-chip traffic ratio, baseline over OMEGA (Fig 17)."""
        omega_bytes = self.omega.stats.onchip_traffic_bytes
        return (
            self.baseline.stats.onchip_traffic_bytes / omega_bytes
            if omega_bytes
            else float("inf")
        )

    @property
    def dram_bw_improvement(self) -> float:
        """DRAM bandwidth-utilization ratio, OMEGA over baseline (Fig 16)."""
        base = self.baseline.dram_bandwidth_gbps
        return self.omega.dram_bandwidth_gbps / base if base else float("inf")

    @property
    def energy_saving(self) -> float:
        """Memory-system energy ratio, baseline over OMEGA (Fig 21)."""
        omega_nj = self.omega.energy.total_nj
        return self.baseline.energy.total_nj / omega_nj if omega_nj else float("inf")

    def summary(self) -> Dict[str, float]:
        """Headline ratios for table printers."""
        return {
            "algorithm": self.baseline.algorithm,
            "dataset": self.baseline.dataset,
            "speedup": round(self.speedup, 3),
            "traffic_reduction": round(self.traffic_reduction, 3),
            "dram_bw_improvement": round(self.dram_bw_improvement, 3),
            "energy_saving": round(self.energy_saving, 3),
            "baseline_llc_hit": round(self.baseline.stats.l2_hit_rate, 4),
            "omega_ll_hit": round(self.omega.stats.last_level_hit_rate, 4),
        }
