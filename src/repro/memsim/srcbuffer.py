"""Per-core source vertex buffer (paper Section V-C, Figure 11).

A small read-only buffer in front of the remote scratchpads: when a
core reads a *source* vertex's vtxProp (SSSP-style algorithms read it
once per outgoing edge), the first read pays the remote-scratchpad
latency and fills the buffer; subsequent reads of the same vertex hit
locally. Because source properties are stable within an algorithm
iteration, the buffer needs no coherence — it is simply invalidated
wholesale at every iteration boundary.

Replays walk the buffers in C (``srcbuf_walk`` in ``ckernel.c``, over
:class:`repro.memsim.ckernel.FlatSourceBuffers`) whenever the cache
path runs compiled. This class is the reference those walks are held
to at tolerance 0, and the buffer the walk uses under the scalar
oracle (``REPRO_SCALAR_CACHE``, ``force_scalar_cache``, no compiler).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.errors import ConfigError

__all__ = ["SourceVertexBuffer"]


class SourceVertexBuffer:
    """LRU buffer of recently read (prop, vertex) source entries."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ConfigError(f"buffer needs >= 1 entry, got {num_entries}")
        self.num_entries = num_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, key: int) -> bool:
        """Check for ``key``; on miss, allocate it (read-allocate)."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return True
        self.misses += 1
        if len(self._entries) >= self.num_entries:
            self._entries.popitem(last=False)
        self._entries[key] = None
        return False

    def invalidate_all(self) -> None:
        """End-of-iteration wholesale invalidation."""
        self.invalidations += 1
        self._entries.clear()

    def contents(self) -> List[int]:
        """The buffered keys, least recently used first."""
        return list(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hit rate over all lookups."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)
