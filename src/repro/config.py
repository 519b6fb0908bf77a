"""System configuration dataclasses (paper Table III).

Two configuration families are provided:

- :meth:`SimConfig.paper_baseline` / :meth:`SimConfig.paper_omega` —
  the paper's exact Table III parameters (16 OoO cores, 2 GHz, 64 B
  lines, 2 MB vs 1 MB+1 MB L2/scratchpad per core, crossbar with
  average 17-cycle remote latency, 4x DDR3-1600 channels).
- :meth:`SimConfig.scaled_baseline` / :meth:`SimConfig.scaled_omega` —
  the same *ratios* scaled down ~500x to match the synthetic dataset
  stand-ins, so that cache-capacity pressure (the phenomenon the paper
  measures) is preserved at tractable trace sizes.

The invariant the paper insists on — **equal total on-chip storage**:
baseline L2-per-core equals OMEGA's (halved L2 + scratchpad) — is
enforced by the constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = ["CacheConfig", "ScratchpadConfig", "DramConfig", "InterconnectConfig",
           "CoreConfig", "SimConfig", "MAX_CORES"]

#: Most cores a configuration may have: the coherence directory keeps
#: each line's sharers in one 64-bit mask.
MAX_CORES = 64


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry and latency."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"invalid cache geometry: {self}")
        num_lines = self.size_bytes // self.line_bytes
        if num_lines == 0 or num_lines % self.ways:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into"
                f" {self.ways}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // self.line_bytes // self.ways


@dataclass(frozen=True)
class ScratchpadConfig:
    """Per-core scratchpad parameters (Table III: 1 MB, direct, 3 cycles)."""

    size_bytes: int
    latency_cycles: int = 3
    #: Scratchpad accesses are word-granularity, 1-8 bytes.
    max_access_bytes: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ConfigError(f"scratchpad size must be >= 0, got {self.size_bytes}")


@dataclass(frozen=True)
class DramConfig:
    """Off-chip memory: latency plus aggregate bandwidth.

    Table III: 4x DDR3-1600 at 12 GB/s per channel; the paper's
    high-level model charges 100 cycles per DRAM access.

    ``page_policy`` implements the paper's Section IX direction 3:

    - ``"closed"`` — every access pays ``latency_cycles`` (the paper's
      evaluated model; the default).
    - ``"open"`` — row-buffer tracking: hits pay ``row_hit_cycles``,
      conflicts pay ``row_miss_cycles``.
    - ``"hybrid"`` — open-page for the sequential structures
      (edgeList & friends), closed-page for the spatially-random
      vtxProp region, as the paper proposes for the least-connected
      vertices.
    """

    latency_cycles: int = 100
    channels: int = 4
    bytes_per_cycle_per_channel: float = 6.0  # 12 GB/s at 2 GHz
    page_policy: str = "closed"
    row_hit_cycles: int = 60
    row_miss_cycles: int = 120
    row_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.page_policy not in ("closed", "open", "hybrid"):
            raise ConfigError(
                f"page_policy must be closed/open/hybrid,"
                f" got {self.page_policy!r}"
            )

    @property
    def total_bytes_per_cycle(self) -> float:
        """Peak aggregate DRAM bandwidth in bytes per core cycle."""
        return self.channels * self.bytes_per_cycle_per_channel


@dataclass(frozen=True)
class InterconnectConfig:
    """On-chip interconnect (Table III: crossbar, 128-bit bus).

    ``remote_latency_cycles`` is the paper's measured average latency
    for a remote scratchpad/L2-bank hop (17 cycles) under the
    ``"crossbar"`` topology. The ``"mesh"`` topology instead charges
    ``mesh_hop_cycles`` per Manhattan hop on a square tile grid — the
    scalable alternative the paper's kilo-core citation points at,
    useful for core-count sensitivity studies.
    """

    remote_latency_cycles: int = 17
    bus_bytes: int = 16  # 128 bits
    #: Header bytes accompanying every packet (request/command).
    header_bytes: int = 8
    topology: str = "crossbar"
    mesh_hop_cycles: int = 3
    #: Router pipeline cycles added to every mesh transfer.
    mesh_router_cycles: int = 2

    def __post_init__(self) -> None:
        if self.topology not in ("crossbar", "mesh"):
            raise ConfigError(
                f"topology must be 'crossbar' or 'mesh', got {self.topology!r}"
            )


@dataclass(frozen=True)
class CoreConfig:
    """Core timing knobs for the analytic model.

    ``mlp`` is the effective memory-level parallelism an 8-wide,
    192-entry-ROB OoO core extracts from a pointer-chasing graph
    workload; ``atomic_stall_cycles`` is the pipeline hold the paper
    attributes to core-executed atomics (their motivation experiment
    measured up to 50% slowdown from atomics alone).
    """

    num_cores: int = 16
    freq_ghz: float = 2.0
    mlp: float = 4.0
    #: Residual serialization of a core-executed atomic beyond its
    #: memory round trip.
    atomic_stall_cycles: int = 4
    #: Fraction of a core atomic's memory latency that serializes the
    #: pipeline (the rest overlaps with atomics to independent lines).
    atomic_serialization: float = 0.3
    compute_cycles_per_access: float = 1.0
    #: Cycles for a core to issue a PISC offload packet (fire-and-forget).
    offload_issue_cycles: int = 1
    #: Work-stealing residual imbalance: Ligra's scheduler balances
    #: per-core work, leaving a small tail (the paper tuned OpenMP
    #: scheduling for the same reason).
    imbalance_factor: float = 1.1

    def __post_init__(self) -> None:
        if not 0 < self.num_cores <= MAX_CORES:
            # The directory's sharer mask is one 64-bit word.
            raise ConfigError(
                f"num_cores must be in 1..{MAX_CORES}, got {self.num_cores}"
            )
        if self.mlp <= 0:
            raise ConfigError(f"mlp must be > 0, got {self.mlp}")


@dataclass(frozen=True)
class SimConfig:
    """Complete system description for one simulation run."""

    name: str
    core: CoreConfig
    l1: CacheConfig
    l2_per_core: CacheConfig
    scratchpad: ScratchpadConfig
    dram: DramConfig
    interconnect: InterconnectConfig
    #: OMEGA feature switches (all False = baseline CMP).
    use_scratchpad: bool = False
    use_pisc: bool = False
    use_source_buffer: bool = False
    source_buffer_entries: int = 64
    #: PISC per-op latency (simple ALU + SP read/write).
    pisc_op_cycles: int = 4

    def __post_init__(self) -> None:
        if self.source_buffer_entries < 1:
            raise ConfigError(
                "source_buffer_entries must be >= 1,"
                f" got {self.source_buffer_entries}"
            )

    @property
    def total_onchip_bytes(self) -> int:
        """Total L2 + scratchpad storage across the chip (the paper's
        'same-sized' comparison invariant)."""
        return self.core.num_cores * (
            self.l2_per_core.size_bytes + self.scratchpad.size_bytes
        )

    @property
    def scratchpad_total_bytes(self) -> int:
        """Aggregate scratchpad capacity across all cores."""
        return self.core.num_cores * self.scratchpad.size_bytes

    def as_dict(self) -> dict:
        """Nested plain-dict form of the full configuration."""
        from dataclasses import asdict

        return asdict(self)

    def config_hash(self) -> str:
        """Stable short hash of every configuration parameter.

        Two runs with the same hash simulated the same machine; the
        hash goes into run manifests so result files are traceable to
        their configuration without storing it wholesale.
        """
        import hashlib
        import json

        blob = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def with_scratchpad_bytes(self, per_core_bytes: int) -> "SimConfig":
        """Return a copy with a different scratchpad size (Fig 19 sweep).

        Only the scratchpad changes; L2 stays fixed, matching the
        paper's sensitivity study ("we kept the size of the L2 cache
        the same ... for all configurations").
        """
        return replace(
            self, scratchpad=replace(self.scratchpad, size_bytes=per_core_bytes)
        )

    # ------------------------------------------------------------------
    # Paper-scale configurations (Table III)
    # ------------------------------------------------------------------
    @classmethod
    def paper_baseline(cls) -> "SimConfig":
        """Table III baseline: 16 cores, 2 MB shared L2 per core."""
        return cls(
            name="baseline-cmp",
            core=CoreConfig(),
            l1=CacheConfig(size_bytes=16 * 1024, ways=4, latency_cycles=2),
            l2_per_core=CacheConfig(size_bytes=2 * 1024 * 1024, ways=8,
                                    latency_cycles=12),
            scratchpad=ScratchpadConfig(size_bytes=0),
            dram=DramConfig(),
            interconnect=InterconnectConfig(),
        )

    @classmethod
    def paper_omega(cls) -> "SimConfig":
        """Table III OMEGA: half the L2 repurposed as scratchpad + PISC."""
        return cls(
            name="omega",
            core=CoreConfig(),
            l1=CacheConfig(size_bytes=16 * 1024, ways=4, latency_cycles=2),
            l2_per_core=CacheConfig(size_bytes=1024 * 1024, ways=8,
                                    latency_cycles=12),
            scratchpad=ScratchpadConfig(size_bytes=1024 * 1024),
            dram=DramConfig(),
            interconnect=InterconnectConfig(),
            use_scratchpad=True,
            use_pisc=True,
            use_source_buffer=True,
        )

    # ------------------------------------------------------------------
    # Scaled configurations for the synthetic stand-ins
    # ------------------------------------------------------------------
    @classmethod
    def scaled_baseline(cls, num_cores: int = 16,
                        l2_per_core_bytes: int = 2048) -> "SimConfig":
        """Baseline CMP scaled ~500x down alongside the datasets.

        Total on-chip L2 is 32 KB at the defaults — the same ratio to
        the stand-in datasets' vtxProp footprints that the paper's
        32 MB has to its real datasets (e.g. lj's 42 MB).
        """
        return cls(
            name="baseline-cmp-scaled",
            core=CoreConfig(num_cores=num_cores),
            l1=CacheConfig(size_bytes=1024, ways=4, latency_cycles=2),
            l2_per_core=CacheConfig(size_bytes=l2_per_core_bytes, ways=8,
                                    latency_cycles=12),
            scratchpad=ScratchpadConfig(size_bytes=0),
            dram=DramConfig(),
            interconnect=InterconnectConfig(),
        )

    @classmethod
    def scaled_omega(cls, num_cores: int = 16,
                     l2_per_core_bytes: int = 1024,
                     scratchpad_per_core_bytes: int = 1024,
                     use_pisc: bool = True,
                     use_source_buffer: bool = True) -> "SimConfig":
        """OMEGA scaled to match :meth:`scaled_baseline` total storage."""
        return cls(
            name="omega-scaled",
            core=CoreConfig(num_cores=num_cores),
            l1=CacheConfig(size_bytes=1024, ways=4, latency_cycles=2),
            l2_per_core=CacheConfig(size_bytes=l2_per_core_bytes, ways=8,
                                    latency_cycles=12),
            scratchpad=ScratchpadConfig(size_bytes=scratchpad_per_core_bytes),
            dram=DramConfig(),
            interconnect=InterconnectConfig(),
            use_scratchpad=True,
            use_pisc=use_pisc,
            use_source_buffer=use_source_buffer,
        )
