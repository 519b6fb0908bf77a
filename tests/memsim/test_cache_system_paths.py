"""Targeted tests for the shared cache path's corner cases."""

import numpy as np

from repro.config import SimConfig
from repro.ligra.trace import AccessClass, FLAG_WRITE, Trace
from repro.memsim.backends import BaselineBackend


def make_trace(cores, addrs, flags):
    n = len(addrs)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.full(n, int(AccessClass.NGRAPH), dtype=np.int8),
        flags=np.asarray(flags, dtype=np.int8),
        vertex=np.full(n, -1, dtype=np.int64),
    )


def replay(trace, cores=4):
    return BaselineBackend(SimConfig.scaled_baseline(num_cores=cores)).replay(trace)


class TestL2Banking:
    def test_local_bank_no_crossbar_traffic(self):
        # Core 1 accessing a line whose low bits select bank 1.
        addr = (1 << 6) | 0x100000  # line % 4 == 1
        out = replay(make_trace([1], [addr], [0]))
        assert out.stats.onchip_line_bytes == 0

    def test_remote_bank_moves_line(self):
        addr = (2 << 6) | 0x100000  # bank 2, requested by core 0
        out = replay(make_trace([0], [addr], [0]))
        assert out.stats.onchip_line_bytes == 64 + 8

    def test_bank_spread(self):
        # Four consecutive lines land on four different banks.
        addrs = [0x100000 + 64 * i for i in range(4)]
        out = replay(make_trace([0] * 4, addrs, [0] * 4))
        # Three of the four banks are remote to core 0.
        assert out.stats.onchip_line_bytes == 3 * (64 + 8)


class TestWritebackPaths:
    def test_dirty_l1_victim_reaches_l2(self):
        # L1 is 1 KB = 16 lines, 4-way -> 4 sets. Write 5 lines in the
        # same set: one dirty victim must be written back to its bank.
        cfg = SimConfig.scaled_baseline(num_cores=4)
        set_stride = 4 * 64  # same-set lines are num_sets(=4) lines apart
        addrs = [0x100000 + i * set_stride for i in range(5)]
        out = BaselineBackend(cfg).replay(
            make_trace([0] * 5, addrs, [FLAG_WRITE] * 5)
        )
        # All misses; the victim write-back hits L2 (no DRAM write yet).
        assert out.stats.l1_misses == 5
        assert out.l2_banks  # structural sanity

    def test_l2_dirty_eviction_reaches_dram(self):
        # Stream enough distinct dirty lines through the tiny scaled L2
        # (4x2KB banks) to force DRAM write-backs.
        n = 4096
        addrs = [0x100000 + 64 * i for i in range(n)]
        out = replay(make_trace([0] * n, addrs, [FLAG_WRITE] * n))
        assert out.stats.dram_write_bytes > 0
        # Write-backs are whole lines.
        assert out.stats.dram_write_bytes % 64 == 0

    def test_total_dram_reads_match_l2_misses(self):
        n = 512
        addrs = [0x100000 + 64 * i * 3 for i in range(n)]
        out = replay(make_trace([0] * n, addrs, [0] * n))
        assert out.stats.dram_read_bytes == out.stats.l2_misses * 64


class TestCacheToCacheTransfer:
    def test_read_of_remote_modified_line(self):
        # Core 0 writes, core 1 reads the same line: the read must
        # trigger a modified-line fetch (extra on-chip line transfer).
        addr = 0x100000
        just_write = replay(make_trace([0], [addr], [FLAG_WRITE]))
        write_then_read = replay(
            make_trace([0, 1], [addr, addr], [FLAG_WRITE, 0])
        )
        extra = (
            write_then_read.stats.onchip_line_bytes
            - just_write.stats.onchip_line_bytes
        )
        # The reader's own fill plus the writeback transfer.
        assert extra >= 64 + 8
        assert write_then_read.directory.writebacks == 1


class TestPrefetcherInterplay:
    def test_prefetch_hides_latency_not_traffic(self):
        n = 64
        addrs = [0x200000 + 64 * i for i in range(n)]
        out = replay(make_trace([0] * n, addrs, [0] * n))
        assert out.stats.prefetch_hits >= n - 2
        # Traffic still counted in full.
        assert out.stats.dram_read_bytes == out.stats.l2_misses * 64
        # Latency mostly hidden: far below n * dram latency.
        assert sum(out.stats.core_mem_latency) < n * 50

    def test_interleaved_streams_tracked_separately(self):
        # Two interleaved sequential streams from one core.
        a = [0x300000 + 64 * i for i in range(32)]
        b = [0x500000 + 64 * i for i in range(32)]
        mixed = [x for pair in zip(a, b) for x in pair]
        out = replay(make_trace([0] * 64, mixed, [0] * 64))
        assert out.stats.prefetch_hits >= 60
