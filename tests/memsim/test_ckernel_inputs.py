"""Input checks of the compiled estimator and source-buffer entry points.

The C functions index per-core state with the core ids and use -1 as
their empty mark, so their Python wrappers reject what the C side
would misread, with a :class:`SimulationError`, before any call.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim.ckernel import FlatSourceBuffers, estimate_batch, load_kernel
from repro.memsim.geometry import BankGeometry
from repro.memsim.routes import ROUTE_CACHE

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
        np.asarray(cores, dtype=np.int64), np.asarray(lines, dtype=np.int64),
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
        with pytest.raises(SimulationError, match="negative line id"):
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
