"""Tests for system configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    InterconnectConfig,
    ScratchpadConfig,
    SimConfig,
)
from repro.errors import ConfigError


class TestCoreConfig:
    def test_defaults_match_table3(self):
        c = CoreConfig()
        assert c.num_cores == 16
        assert c.freq_ghz == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            CoreConfig(num_cores=0)
        with pytest.raises(ConfigError):
            CoreConfig(mlp=0)

    def test_num_cores_capped_at_sharer_mask_width(self):
        assert CoreConfig(num_cores=64).num_cores == 64
        with pytest.raises(ConfigError, match="num_cores"):
            CoreConfig(num_cores=65)


class TestScratchpadConfig:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            ScratchpadConfig(size_bytes=-1)

    def test_table3_latency(self):
        assert ScratchpadConfig(size_bytes=1024).latency_cycles == 3


class TestDramConfig:
    def test_aggregate_bandwidth(self):
        d = DramConfig(channels=4, bytes_per_cycle_per_channel=6.0)
        assert d.total_bytes_per_cycle == 24.0


class TestInterconnect:
    def test_table3_values(self):
        ic = InterconnectConfig()
        assert ic.remote_latency_cycles == 17
        assert ic.bus_bytes == 16


class TestSimConfig:
    def test_source_buffer_entries_checked_at_construction(self):
        cfg = SimConfig.scaled_omega()
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="source_buffer_entries"):
                dataclasses.replace(cfg, source_buffer_entries=bad)
        assert dataclasses.replace(
            cfg, source_buffer_entries=1
        ).source_buffer_entries == 1

    def test_paper_baseline_matches_table3(self):
        cfg = SimConfig.paper_baseline()
        assert cfg.l2_per_core.size_bytes == 2 * 1024 * 1024
        assert cfg.scratchpad.size_bytes == 0
        assert not cfg.use_scratchpad

    def test_paper_omega_matches_table3(self):
        cfg = SimConfig.paper_omega()
        assert cfg.l2_per_core.size_bytes == 1024 * 1024
        assert cfg.scratchpad.size_bytes == 1024 * 1024
        assert cfg.use_scratchpad and cfg.use_pisc and cfg.use_source_buffer

    def test_equal_storage_invariant(self):
        assert (
            SimConfig.paper_baseline().total_onchip_bytes
            == SimConfig.paper_omega().total_onchip_bytes
        )
        assert (
            SimConfig.scaled_baseline().total_onchip_bytes
            == SimConfig.scaled_omega().total_onchip_bytes
        )

    def test_scratchpad_total(self):
        cfg = SimConfig.scaled_omega(num_cores=8, scratchpad_per_core_bytes=1024)
        assert cfg.scratchpad_total_bytes == 8 * 1024

    def test_with_scratchpad_bytes_only_changes_sp(self):
        cfg = SimConfig.scaled_omega()
        new = cfg.with_scratchpad_bytes(4096)
        assert new.scratchpad.size_bytes == 4096
        assert new.l2_per_core == cfg.l2_per_core
        assert new.use_pisc == cfg.use_pisc

    def test_feature_switches(self):
        cfg = SimConfig.scaled_omega(use_pisc=False, use_source_buffer=False)
        assert cfg.use_scratchpad
        assert not cfg.use_pisc
        assert not cfg.use_source_buffer
