"""Analytic core timing model.

Replaces gem5's cycle-accurate OoO cores with the standard analytic
decomposition used by memory-subsystem studies: each core's runtime is

``compute + serialized stalls + (memory latency / MLP)``

where MLP is the effective memory-level parallelism the OoO window
extracts, serialized stalls are the cycles the pipeline *cannot* hide
(core-executed atomics on the baseline; offload issue slots on OMEGA),
and the chip-level run length is the slowest core bounded below by the
structural throughput limits: DRAM channel bandwidth, crossbar
throughput, and per-PISC occupancy.

The decomposition also yields the Fig 3 TMAM-style breakdown — the
fraction of the critical core's time spent waiting on memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import SimConfig
from repro.memsim.replay import ReplayOutput

__all__ = ["TimingResult", "compute_timing"]


@dataclass(frozen=True)
class TimingResult:
    """Cycle-level outcome of one replay."""

    total_cycles: float
    critical_core: int
    core_cycles: tuple
    #: Structural bounds considered: the winner is the bottleneck.
    bounds: Dict[str, float]
    bottleneck: str
    compute_cycles: float
    serial_cycles: float
    memory_cycles: float

    @property
    def memory_bound_fraction(self) -> float:
        """Share of the critical core's time stalled on memory (Fig 3)."""
        total = self.compute_cycles + self.serial_cycles + self.memory_cycles
        return (self.memory_cycles + self.serial_cycles) / total if total else 0.0

    def seconds(self, freq_ghz: float) -> float:
        """Wall-clock seconds at the given core frequency."""
        return self.total_cycles / (freq_ghz * 1e9)


def compute_timing(output: ReplayOutput, config: SimConfig) -> TimingResult:
    """Fold replay counters into a chip-level cycle count.

    Per-core costs are aggregated with a work-stealing model: Ligra's
    scheduler (the paper tuned OpenMP scheduling explicitly) spreads
    the work, so the chip-level bound is the mean per-core cost times a
    small residual ``imbalance_factor`` — not the worst static
    partition, which would overcharge whichever core happened to own
    the cold-vertex atomics.
    """
    core_cfg = config.core
    stats = output.stats
    mlp = core_cfg.mlp
    cpa = core_cfg.compute_cycles_per_access
    ncores = core_cfg.num_cores

    core_cycles = []
    for c in range(ncores):
        compute = stats.core_accesses[c] * cpa
        serial = stats.core_serial_cycles[c]
        memory = stats.core_mem_latency[c] / mlp
        core_cycles.append(compute + serial + memory)

    critical = max(range(ncores), key=lambda c: core_cycles[c])
    total_compute = sum(stats.core_accesses) * cpa
    total_serial = sum(stats.core_serial_cycles)
    total_memory = sum(stats.core_mem_latency) / mlp
    balanced = (
        (total_compute + total_serial + total_memory)
        / ncores
        * core_cfg.imbalance_factor
    )
    bounds = {
        "cores": balanced,
        "dram_bandwidth": output.dram.min_cycles_for_bandwidth(),
        "crossbar": output.crossbar.min_cycles_for_bandwidth(),
        "pisc": float(max(stats.pisc_occupancy) if stats.pisc_occupancy else 0),
    }
    bottleneck = max(bounds, key=bounds.get)
    total = bounds[bottleneck]

    return TimingResult(
        total_cycles=total,
        critical_core=critical,
        core_cycles=tuple(core_cycles),
        bounds=bounds,
        bottleneck=bottleneck,
        compute_cycles=total_compute / ncores,
        serial_cycles=total_serial / ncores,
        memory_cycles=total_memory / ncores,
    )
