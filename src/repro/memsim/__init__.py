"""Trace-driven memory-subsystem simulator.

The gem5 substitute: set-associative caches with a MESI-style
directory, a banked shared L2, a crossbar, DRAM bandwidth/latency
accounting, OMEGA's scratchpads + PISC engines + source buffers, an
analytic core timing model, and energy/area models.

All hierarchy variants are routing policies over one batch-vectorized
replay engine (:mod:`repro.memsim.replay`); pick one by name via
:func:`get_backend` / ``RunRequest(..., backend=...)``.
"""

from repro.memsim.area import area_power_table
from repro.memsim.cache import Cache
from repro.memsim.coherence import Directory
from repro.memsim.core_model import TimingResult, compute_timing
from repro.memsim.dram import DramModel
from repro.memsim.energy import EnergyBreakdown, EnergyModel
from repro.memsim.backends import (
    BACKENDS,
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    HierarchyBackend,
    LockedCacheBackend,
    OmegaBackend,
    PimConfig,
    backend_names,
    get_backend,
    register_backend,
)
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import MicroOp, Microcode, PiscEngine
from repro.memsim.prepass import StreamDetector, TracePrepass, precompute
from repro.memsim.replay import ReplayOutput
from repro.memsim.scratchpad import (
    MonitorRegister,
    ScratchpadController,
    hot_capacity_for,
)
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.memsim.stats import MemStats

__all__ = [
    "BACKENDS",
    "BaselineBackend",
    "DynamicScratchpadBackend",
    "GraphPimBackend",
    "HierarchyBackend",
    "LockedCacheBackend",
    "OmegaBackend",
    "PimConfig",
    "backend_names",
    "get_backend",
    "register_backend",
    "BankGeometry",
    "StreamDetector",
    "TracePrepass",
    "precompute",
    "area_power_table",
    "Cache",
    "Directory",
    "TimingResult",
    "compute_timing",
    "DramModel",
    "EnergyBreakdown",
    "EnergyModel",
    "ReplayOutput",
    "Crossbar",
    "ScratchpadMapping",
    "MicroOp",
    "Microcode",
    "PiscEngine",
    "MonitorRegister",
    "ScratchpadController",
    "hot_capacity_for",
    "SourceVertexBuffer",
    "MemStats",
]
