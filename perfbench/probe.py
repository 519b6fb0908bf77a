"""Host-speed probe, timed between ops to normalize op times.

The shared host this benchmark was defined on changes speed by 25-50 %
over minutes; a fixed pure-Python loop slows down with the program, so
dividing each op's time by the probe's slowdown measured just before it
removes most of that drift. The probe exercises neither the program nor
its data: a dictionary loop like the residual cache loop and a numpy
sort like the prepass and estimator.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe times on the reference host (``README.md``); a slowdown of
#: 1.0 means this host runs the probe as fast as that one did.
PYTHON_REF_S = 0.0079
NUMPY_REF_S = 0.0061

_KEYS = np.random.default_rng(2018).integers(0, 1 << 40, 50_000)


def _python_kernel() -> float:
    table = {}
    x = 12345
    t0 = time.perf_counter()
    for i in range(20_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFF
        k = x & 1023
        table[k] = table.get(k, 0) + i
    return time.perf_counter() - t0


def _numpy_kernel() -> float:
    t0 = time.perf_counter()
    np.argsort(_KEYS, kind="stable")
    return time.perf_counter() - t0


def slowdown() -> float:
    """Seconds this host needs now per reference-host second."""
    return 0.5 * (_python_kernel() / PYTHON_REF_S
                  + _numpy_kernel() / NUMPY_REF_S)
