"""Input checks of the compiled kernel's entry points.

The C functions index per-core state with the core ids, use -1 as
their empty mark, and read whole columns in place over an event
range, so their Python wrappers reject what the C side would misread,
with a :class:`SimulationError`, before any call.
"""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.memsim.cachestate import CacheRecord
from repro.memsim.ckernel import (
    FlatCacheState,
    FlatDynamicPads,
    FlatSourceBuffers,
    estimate_batch,
    load_kernel,
)
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.routes import ROUTE_CACHE, ROUTE_SP_PLAIN

NCORES = 4
GEOMETRY = BankGeometry(num_banks=NCORES, line_bytes=64)


@pytest.fixture(scope="module")
def lib():
    lib = load_kernel()
    assert lib is not None
    return lib


def _estimate(lib, cores, lines, n=None):
    n = len(cores) if n is None else n
    return estimate_batch(
        lib, np.full(n, ROUTE_CACHE, dtype=np.int8),
        np.asarray(cores, dtype=np.int64),
        np.asarray(lines, dtype=np.int64) * 64,
        np.zeros(n, dtype=bool), GEOMETRY, (2, 4), (4, 8),
    )


def _walk(lib, cores, keys, positions=None):
    positions = np.arange(len(cores)) if positions is None else positions
    return FlatSourceBuffers(lib, NCORES, 4).walk(
        np.asarray(positions), np.asarray(cores), np.asarray(keys),
        np.zeros(0, dtype=np.int64),
    )


class TestEstimateBatchInputs:
    def test_accepts_valid_columns(self, lib):
        assert _estimate(lib, [0, 0, 3], [5, 5, 9]) == (1, 0, 0)

    def test_mismatched_column_lengths(self, lib):
        with pytest.raises(SimulationError, match="differ in length"):
            _estimate(lib, [0, 1, 2], [5, 6], n=3)

    def test_core_out_of_range(self, lib):
        for bad in (NCORES, -1):
            with pytest.raises(SimulationError, match="core outside"):
                _estimate(lib, [0, bad], [5, 6])

    def test_negative_line_id(self, lib):
        with pytest.raises(SimulationError, match="negative address"):
            _estimate(lib, [0, 1], [5, -6])


class TestSourceBufferWalkInputs:
    def test_accepts_valid_columns(self, lib):
        assert _walk(lib, [1, 1], [80, 80]).tolist() == [1]

    def test_mismatched_column_lengths(self, lib):
        with pytest.raises(SimulationError, match="differ in length"):
            _walk(lib, [0, 1], [8, 16], positions=[0, 1, 2])

    def test_core_out_of_range(self, lib):
        for bad in (NCORES, -1):
            with pytest.raises(SimulationError, match="core outside"):
                _walk(lib, [0, bad], [8, 16])

    def test_negative_key(self, lib):
        with pytest.raises(SimulationError, match="negative key"):
            _walk(lib, [0, 1], [8, -16])

    def test_empty_buffer_rejected(self, lib):
        with pytest.raises(SimulationError, match=">= 1 entry"):
            FlatSourceBuffers(lib, NCORES, 0)


class _Calls:
    """A kernel library stand-in that records every C call it passes on."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            self.calls.append(name)
            return fn(*args)

        return call


def _columns(cores, addrs, routes=None):
    n = len(cores)
    return {
        "core": np.asarray(cores, dtype=np.int16),
        "addr": np.asarray(addrs, dtype=np.int64),
        "flags": np.zeros(n, dtype=np.int8),
        "routes": (np.full(n, ROUTE_CACHE, dtype=np.int8) if routes is None
                   else np.asarray(routes, dtype=np.int8)),
    }


class TestReplayBatchInputs:
    CFG = SimConfig.scaled_baseline(num_cores=NCORES)

    def _replay(self, lib, cols, start=0, end=None, record=None):
        state = FlatCacheState(lib, self.CFG,
                               Crossbar(self.CFG.interconnect, NCORES), 16)
        end = len(cols["core"]) if end is None else end
        return state.replay(
            cols["core"], cols["addr"], cols["flags"], cols["routes"],
            start, end, [0.0] * NCORES, [0.0] * NCORES,
            [-1] * self.CFG.dram.channels, (), record,
        )

    def _rejects(self, lib, match, cols, **kw):
        calls = _Calls(lib)
        with pytest.raises(SimulationError, match=match):
            self._replay(calls, cols, **kw)
        assert calls.calls == []

    def test_accepts_valid_columns(self, lib):
        cols = _columns([0, 1, 1, 3], [64, 128, 128, 192],
                        routes=[ROUTE_CACHE, ROUTE_CACHE, ROUTE_SP_PLAIN,
                                ROUTE_CACHE])
        counts = self._replay(lib, cols, start=1)
        # Every event of [1, 4) counts per core; two take the cache path.
        assert counts["events"] == [0, 2, 0, 1]
        assert counts["cache_events"] == 2
        assert counts["l1_misses"] == [0, 1, 0, 1]

    def test_mismatched_column_lengths(self, lib):
        cols = _columns([0, 1, 2], [64, 128, 192])
        cols["flags"] = cols["flags"][:2]
        self._rejects(lib, "differ in length", cols, end=2)

    def test_core_out_of_range(self, lib):
        for bad in (NCORES, -1):
            self._rejects(lib, "core outside", _columns([0, bad], [64, 128]))

    def test_negative_address(self, lib):
        self._rejects(lib, "negative address", _columns([0, 1], [64, -128]))

    def test_wrong_dtypes(self, lib):
        for name, dtype in (("routes", np.int64), ("core", np.int64),
                            ("flags", bool), ("addr", np.int32)):
            cols = _columns([0, 1], [64, 128])
            cols[name] = cols[name].astype(dtype)
            self._rejects(lib, f"column {name}", cols)

    def test_non_contiguous_column(self, lib):
        cols = _columns([0, 1, 2, 3], [64, 128, 192, 256])
        cols["addr"] = np.repeat(cols["addr"], 2)[::2]
        self._rejects(lib, "column addr", cols)

    def test_range_outside_the_columns(self, lib):
        cols = _columns([0, 1], [64, 128])
        for start, end in ((-1, 2), (0, 3), (2, 1)):
            self._rejects(lib, "outside", cols, start=start, end=end)

    def test_record_must_match_the_cache_events(self, lib):
        cols = _columns([0, 1, 2], [64, 128, 192],
                        routes=[ROUTE_CACHE, ROUTE_SP_PLAIN, ROUTE_CACHE])
        self._rejects(lib, "CacheRecord", cols, record=CacheRecord(3))
        record = CacheRecord(2)
        self._replay(lib, cols, record=record)
        assert record.l1_hit.tolist() == [False, False]


class TestDynamicPadInputs:
    def test_accepts_valid_columns(self, lib):
        pads = FlatDynamicPads(lib, 2, 2)
        resident = pads.train(np.ones(3, dtype=bool),
                              np.array([1, 1, -1], dtype=np.int64))
        assert resident.tolist() == [True, True, False]

    def test_mismatched_column_lengths(self, lib):
        calls = _Calls(lib)
        with pytest.raises(SimulationError, match="differ in length"):
            FlatDynamicPads(calls, 2, 2).train(
                np.ones(2, dtype=bool), np.arange(3, dtype=np.int64)
            )
        assert calls.calls == []

    def test_wrong_dtypes(self, lib):
        calls = _Calls(lib)
        for vtxprop, vertex, name in (
            (np.ones(2, dtype=np.int8), np.arange(2), "vtxprop"),
            (np.ones(2, dtype=bool), np.arange(2, dtype=np.int32), "vertex"),
        ):
            with pytest.raises(SimulationError, match=f"column {name}"):
                FlatDynamicPads(calls, 2, 2).train(vtxprop, vertex)
        assert calls.calls == []

    def test_empty_pads_rejected(self, lib):
        for sets, slots in ((0, 4), (4, 0)):
            with pytest.raises(SimulationError, match=">= 1 set and slot"):
                FlatDynamicPads(lib, sets, slots)
