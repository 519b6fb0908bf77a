"""Tests for the timing, energy and area models."""

import pytest

from repro.config import SimConfig
from repro.memsim.area import (
    BASELINE_COMPONENTS,
    OMEGA_COMPONENTS,
    area_power_table,
    node_budget,
)
from repro.memsim.core_model import compute_timing
from repro.memsim.dram import DramModel
from repro.memsim.energy import EnergyModel
from repro.memsim.replay import ReplayOutput
from repro.memsim.interconnect import Crossbar
from repro.memsim.stats import MemStats


def make_output(cfg, stats):
    return ReplayOutput(
        stats=stats,
        dram=DramModel(cfg.dram),
        crossbar=Crossbar(cfg.interconnect, cfg.core.num_cores),
        l1s=[],
        l2_banks=[],
        directory=None,
    )


class TestCoreModel:
    def test_balanced_aggregation(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        stats = MemStats(num_cores=4)
        stats.core_accesses = [100, 100, 100, 100]
        stats.core_mem_latency = [400.0, 400.0, 400.0, 400.0]
        stats.core_serial_cycles = [0.0, 0.0, 0.0, 0.0]
        timing = compute_timing(make_output(cfg, stats), cfg)
        expected = (100 + 400 / cfg.core.mlp) * cfg.core.imbalance_factor
        assert timing.total_cycles == pytest.approx(expected)
        assert timing.bottleneck == "cores"

    def test_imbalance_spread_by_work_stealing(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        skew = MemStats(num_cores=4)
        skew.core_accesses = [400, 0, 0, 0]
        skew.core_mem_latency = [1600.0, 0, 0, 0]
        skew.core_serial_cycles = [0.0] * 4
        even = MemStats(num_cores=4)
        even.core_accesses = [100] * 4
        even.core_mem_latency = [400.0] * 4
        even.core_serial_cycles = [0.0] * 4
        t_skew = compute_timing(make_output(cfg, skew), cfg)
        t_even = compute_timing(make_output(cfg, even), cfg)
        assert t_skew.total_cycles == pytest.approx(t_even.total_cycles)

    def test_dram_bandwidth_bound(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        stats = MemStats(num_cores=4)
        out = make_output(cfg, stats)
        out.dram.read(10**7)
        timing = compute_timing(out, cfg)
        assert timing.bottleneck == "dram_bandwidth"

    def test_pisc_bound(self):
        cfg = SimConfig.scaled_omega(num_cores=4)
        stats = MemStats(num_cores=4)
        stats.pisc_occupancy = [10**6, 0, 0, 0]
        timing = compute_timing(make_output(cfg, stats), cfg)
        assert timing.bottleneck == "pisc"

    def test_memory_bound_fraction(self):
        cfg = SimConfig.scaled_baseline(num_cores=2)
        stats = MemStats(num_cores=2)
        stats.core_accesses = [10, 10]
        stats.core_mem_latency = [400.0, 400.0]
        stats.core_serial_cycles = [20.0, 20.0]
        timing = compute_timing(make_output(cfg, stats), cfg)
        assert 0.9 < timing.memory_bound_fraction < 1.0

    def test_seconds(self):
        cfg = SimConfig.scaled_baseline(num_cores=2)
        stats = MemStats(num_cores=2)
        stats.core_accesses = [1, 1]
        timing = compute_timing(make_output(cfg, stats), cfg)
        assert timing.seconds(2.0) == pytest.approx(
            timing.total_cycles / 2e9
        )


class TestEnergyModel:
    def test_breakdown_components(self):
        stats = MemStats(num_cores=2)
        stats.l1_hits = 100
        stats.l2_hits = 10
        stats.sp_local_accesses = 50
        stats.pisc_ops = 20
        stats.atomics_on_cores = 5
        stats.dram_read_bytes = 1000
        stats.onchip_line_bytes = 640
        bd = EnergyModel().breakdown(stats)
        assert bd.cache_nj > 0
        assert bd.scratchpad_nj > 0
        assert bd.dram_nj == pytest.approx(1000 * 0.35)
        assert bd.total_nj == pytest.approx(
            bd.cache_nj + bd.scratchpad_nj + bd.core_atomic_nj + bd.dram_nj
            + bd.noc_nj
        )

    def test_scratchpad_cheaper_than_cache_per_access(self):
        m = EnergyModel()
        assert m.sp_access_nj < m.l2_access_nj

    def test_as_dict_keys(self):
        bd = EnergyModel().breakdown(MemStats(num_cores=1))
        assert set(bd.as_dict()) == {
            "cache", "scratchpad", "core_atomics", "dram", "noc", "total"
        }

    def test_zero_stats_zero_energy(self):
        assert EnergyModel().breakdown(MemStats(num_cores=1)).total_nj == 0.0


class TestAreaModel:
    def test_table_iv_node_totals(self):
        base = node_budget(BASELINE_COMPONENTS)
        omega = node_budget(OMEGA_COMPONENTS)
        assert base.power_w == pytest.approx(6.17)
        assert base.area_mm2 == pytest.approx(32.91)
        assert omega.power_w == pytest.approx(6.214)
        assert omega.area_mm2 == pytest.approx(32.15)

    def test_paper_deltas(self):
        table = area_power_table()
        # Paper: -2.31% area, +0.65% peak power.
        assert table["delta"]["area_pct"] == pytest.approx(-2.31, abs=0.05)
        assert table["delta"]["power_pct"] == pytest.approx(0.65, abs=0.1)

    def test_pisc_is_tiny(self):
        pisc = next(c for c in OMEGA_COMPONENTS if c.name == "PISC")
        base = node_budget(BASELINE_COMPONENTS)
        assert pisc.area_mm2 / base.area_mm2 < 0.01


class TestStats:
    def test_last_level_hit_rate_counts_scratchpads(self):
        s = MemStats(num_cores=2)
        s.l2_hits = 10
        s.l2_misses = 10
        s.sp_local_accesses = 20
        assert s.last_level_hit_rate == pytest.approx(30 / 40)

    def test_l2_hit_rate_empty(self):
        assert MemStats(num_cores=1).l2_hit_rate == 0.0

    def test_traffic_totals(self):
        s = MemStats(num_cores=1)
        s.onchip_line_bytes = 100
        s.onchip_word_bytes = 28
        assert s.onchip_traffic_bytes == 128

    def test_as_dict_complete(self):
        d = MemStats(num_cores=1).as_dict()
        assert "l1_hit_rate" in d
        assert "l2_hit_rate" in d
        assert "atomics_offloaded" in d

    def test_ratios_safe_on_zero_access_run(self):
        s = MemStats(num_cores=1)
        assert s.l1_hit_rate == 0.0
        assert s.l2_hit_rate == 0.0
        assert s.last_level_hit_rate == 0.0
        assert s.sp_plain_remote_share == 0.0
        assert s.atomics_offload_share == 0.0
        # as_dict must also be total-function on an empty run.
        assert s.as_dict()["l1_hit_rate"] == 0.0

    def test_l1_hit_rate(self):
        s = MemStats(num_cores=1)
        s.l1_hits, s.l1_misses = 75, 25
        assert s.l1_hit_rate == pytest.approx(0.75)

    def test_atomics_offload_share(self):
        s = MemStats(num_cores=1)
        s.atomics_total = 10
        s.atomics_offloaded = 4
        assert s.atomics_offload_share == pytest.approx(0.4)


class TestEnergyScaling:
    def test_paper_config_matches_defaults(self):
        from repro.config import SimConfig

        m = EnergyModel.for_config(SimConfig.paper_omega())
        assert m.l1_access_nj == pytest.approx(EnergyModel().l1_access_nj)
        assert m.sp_access_nj == pytest.approx(EnergyModel().sp_access_nj)

    def test_scaled_config_is_cheaper(self):
        from repro.config import SimConfig

        scaled = EnergyModel.for_config(SimConfig.scaled_omega())
        paper = EnergyModel()
        assert scaled.l2_access_nj < paper.l2_access_nj
        assert scaled.sp_access_nj < paper.sp_access_nj

    def test_sqrt_scaling(self):
        from repro.config import SimConfig

        quarter = SimConfig.paper_omega().with_scratchpad_bytes(256 * 1024)
        m = EnergyModel.for_config(quarter)
        assert m.sp_access_nj == pytest.approx(
            EnergyModel().sp_access_nj / 2
        )

    def test_zero_scratchpad_keeps_reference(self):
        from repro.config import SimConfig

        m = EnergyModel.for_config(SimConfig.paper_baseline())
        assert m.sp_access_nj == EnergyModel().sp_access_nj

    def test_dram_constants_size_independent(self):
        from repro.config import SimConfig

        m = EnergyModel.for_config(SimConfig.scaled_baseline())
        assert m.dram_nj_per_byte == EnergyModel().dram_nj_per_byte
