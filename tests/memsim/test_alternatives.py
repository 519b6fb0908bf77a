"""Tests for the locked-cache and GraphPIM alternative hierarchies."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import AccessClass, FLAG_ATOMIC, FLAG_WRITE, Trace
from repro.memsim.backends import LockedCacheBackend, PimConfig, GraphPimBackend
from repro.memsim.mapping import ScratchpadMapping
from repro.core.context import RunRequest


def make_trace(cores, addrs, flags, access_class, vertices=None):
    n = len(addrs)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.full(n, int(access_class), dtype=np.int8),
        flags=np.asarray(flags, dtype=np.int8),
        vertex=(
            np.asarray(vertices, dtype=np.int64)
            if vertices is not None
            else np.full(n, -1, dtype=np.int64)
        ),
    )


@pytest.fixture()
def locked_cfg():
    return SimConfig.scaled_omega(num_cores=4, use_pisc=False,
                                  use_source_buffer=False)


class TestLockedCache:
    def test_rejects_pisc_config(self):
        with pytest.raises(SimulationError, match="no PISC"):
            LockedCacheBackend(
                SimConfig.scaled_omega(num_cores=4),
                ScratchpadMapping(4, 16),
            )

    def test_hot_access_always_l2_hit(self, locked_cfg):
        tr = make_trace([0], [0x1000], [0], AccessClass.VTXPROP, vertices=[5])
        out = LockedCacheBackend(
            locked_cfg, ScratchpadMapping(4, 64, 2)
        ).replay(tr)
        assert out.stats.l2_hits == 1
        assert out.stats.l2_misses == 0
        assert out.stats.dram_bytes == 0

    def test_remote_bank_moves_full_line(self, locked_cfg):
        # vertex 2 with chunk 2 homes on bank 1; requester is core 0.
        tr = make_trace([0], [0x1000], [0], AccessClass.VTXPROP, vertices=[2])
        out = LockedCacheBackend(
            locked_cfg, ScratchpadMapping(4, 64, 2)
        ).replay(tr)
        assert out.stats.onchip_line_bytes >= 64

    def test_local_bank_no_traffic(self, locked_cfg):
        tr = make_trace([0], [0x1000], [0], AccessClass.VTXPROP, vertices=[0])
        out = LockedCacheBackend(
            locked_cfg, ScratchpadMapping(4, 64, 2)
        ).replay(tr)
        assert out.stats.onchip_traffic_bytes == 0

    def test_atomics_stay_on_cores(self, locked_cfg):
        tr = make_trace(
            [0], [0x1000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.VTXPROP,
            vertices=[0],
        )
        out = LockedCacheBackend(
            locked_cfg, ScratchpadMapping(4, 64, 2)
        ).replay(tr)
        assert out.stats.atomics_on_cores == 1
        assert out.stats.atomics_offloaded == 0

    def test_cold_access_uses_cache_path(self, locked_cfg):
        tr = make_trace([0], [0x1000], [0], AccessClass.VTXPROP,
                        vertices=[999])
        out = LockedCacheBackend(
            locked_cfg, ScratchpadMapping(4, 64, 2)
        ).replay(tr)
        assert out.stats.l1_misses == 1


class TestPim:
    def test_rejects_scratchpad_config(self):
        with pytest.raises(SimulationError):
            GraphPimBackend(SimConfig.scaled_omega(num_cores=4))

    def test_atomics_offloaded_off_chip(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        tr = make_trace(
            [0] * 3, [0x1000] * 3, [FLAG_WRITE | FLAG_ATOMIC] * 3,
            AccessClass.VTXPROP, vertices=[1, 2, 3],
        )
        out = GraphPimBackend(cfg).replay(tr)
        assert out.stats.atomics_offloaded == 3
        assert out.stats.atomics_on_cores == 0
        # Each op costs off-chip bytes instead of cache lines.
        assert out.stats.dram_bytes == 3 * 16
        assert out.stats.l1_accesses == 0

    def test_pim_occupancy_bounds_run(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        pim = PimConfig(op_cycles=1000, units=2)
        tr = make_trace(
            [0] * 10, [0x1000] * 10, [FLAG_WRITE | FLAG_ATOMIC] * 10,
            AccessClass.VTXPROP, vertices=[0] * 10,
        )
        out = GraphPimBackend(cfg, pim).replay(tr)
        assert max(out.stats.pisc_occupancy) >= 10 * 1000

    def test_non_atomic_traffic_uses_caches(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        tr = make_trace([0, 0], [0x9000, 0x9000], [0, 0], AccessClass.EDGELIST)
        out = GraphPimBackend(cfg).replay(tr)
        assert out.stats.l1_accesses == 2

    def test_ngraph_atomics_stay_on_core(self):
        """Only vtxProp atomics are PIM-eligible (GraphPIM's host-side
        instrumentation targets the vertex property region)."""
        cfg = SimConfig.scaled_baseline(num_cores=4)
        tr = make_trace(
            [0], [0x9000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.NGRAPH
        )
        out = GraphPimBackend(cfg).replay(tr)
        assert out.stats.atomics_on_cores == 1

    def test_pim_config_validation(self):
        with pytest.raises(SimulationError):
            PimConfig(units=0)


class TestEndToEnd:
    def test_design_ordering_on_powerlaw(self):
        """OMEGA > {locked cache, GraphPIM} > baseline (PageRank)."""
        from repro.core.system import run_system
        from repro.graph.generators import rmat_graph

        g = rmat_graph(9, edge_factor=8, seed=3)
        base = run_system(g, RunRequest("pagerank"), SimConfig.scaled_baseline())
        omega = run_system(g, RunRequest("pagerank"), SimConfig.scaled_omega())
        locked = run_system(g, RunRequest("pagerank", backend="locked"))
        pim = run_system(g, RunRequest("pagerank", backend="graphpim"))
        assert omega.cycles < locked.cycles < base.cycles
        # OMEGA also beats PIM offloading; PIM itself can even lose to
        # the baseline on extremely hub-concentrated graphs (hot-vault
        # serialization), so no baseline ordering is asserted for it.
        assert omega.cycles < pim.cycles
