"""The paper's baseline CMP: caches only, atomics on the cores."""

from __future__ import annotations

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend

__all__ = ["BaselineBackend"]


@register_backend("baseline")
class BaselineBackend(HierarchyBackend):
    """The paper's baseline CMP: caches only, atomics on the cores."""

    def __init__(self, config: SimConfig, dram_random_ranges=()) -> None:
        if config.use_scratchpad:
            raise SimulationError(
                "BaselineBackend requires a config without scratchpads"
            )
        super().__init__(config)
        #: (start, end) address ranges served close-page under the
        #: "hybrid" DRAM policy (the vtxProp regions).
        self.dram_random_ranges = tuple(dram_random_ranges)
