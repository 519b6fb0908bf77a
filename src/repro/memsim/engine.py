"""Backend lookup under its historical module path.

The replay engine lives in the layer modules (:mod:`repro.memsim.backends`,
:mod:`repro.memsim.replay`, :mod:`repro.memsim.cachestate`, ...); import
from those. This module survives only because the performance harness
(``perfbench/harness.py``) imports ``backend_names`` and ``get_backend``
from here to find every backend's ``route``/``account`` to time.
"""

from repro.memsim.backends import backend_names, get_backend

__all__ = ["backend_names", "get_backend"]
