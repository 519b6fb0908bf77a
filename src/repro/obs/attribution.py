"""Per-class traffic attribution: explain *where* the counters come from.

Aggregate :class:`~repro.memsim.stats.MemStats` counters answer "how
much DRAM traffic" but not "whose": the paper's central claim (Section
IV, Figs 4-5) is that a small set of high-degree vertices dominates
on-chip traffic in natural graphs and that OMEGA's scratchpads capture
exactly that hot set. This module makes the claim queryable: every
replayed memory event is resolved to an *attribution class* — its graph
entity (vertex-property pages, CSR offsets, CSR edge arrays, frontier
structures) refined by degree stratum (hub / torso / tail, the GRASP
style split from :func:`repro.graph.degree.degree_classes`) — and the
replay engine folds per-class counters with the same ``bincount``
machinery the batch accounting uses.

The contract is an **exact conservation invariant**: for every backend,
in-core or streamed, the per-class counters sum bit-identically to the
aggregate ``MemStats`` totals (tolerance 0). Folds are pure integer
``np.bincount``/``np.add.at`` reductions per segment, so segment order
cannot change the totals — streamed replay attribution equals in-core
attribution exactly, the same argument that makes the
:class:`~repro.memsim.accounting.LatencyLedger` order-invariant.

Wiring: :func:`repro.memsim.replay.run_replay` (and
``run_replay_segments``) accept an :class:`AttributionAccumulator`;
the cache stage fills a :class:`~repro.memsim.cachestate.CacheRecord`
with per-event outcomes and every non-cache route family is folded
directly from the route codes, mirroring
:mod:`repro.memsim.accounting` increment-for-increment.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "ATTRIBUTED_FIELDS",
    "FIELDS",
    "CLASS_NAMES",
    "NUM_CLASSES",
    "AttributionSpec",
    "AttributionAccumulator",
    "explain_lines",
]

#: Schema tag of the standalone attribution JSON document (the manifest
#: embeds the same payload under the ``attribution`` block).
ATTRIBUTION_SCHEMA = "omega-repro/attribution/v1"

#: Attribution classes, ordered by class code. The first three refine
#: vertex-property accesses by the degree stratum of the touched
#: vertex; the rest partition by graph entity (region name).
CLASS_NAMES = (
    "vtxprop-hub",
    "vtxprop-torso",
    "vtxprop-tail",
    "csr-offsets",
    "csr-edges",
    "frontier",
    "other",
)
NUM_CLASSES = len(CLASS_NAMES)

_CLS_HUB = 0
_CLS_TORSO = 1
_CLS_TAIL = 2
_CLS_OFFSETS = 3
_CLS_EDGES = 4
_CLS_FRONTIER = 5
_CLS_OTHER = 6
#: Internal sentinel: a vtxProp region awaiting degree refinement.
_CLS_VTXPROP_PENDING = 7

#: Region names generated by the Ligra engine, by entity.
OFFSET_REGION_NAMES = frozenset({"out_offsets", "in_offsets"})
EDGE_REGION_NAMES = frozenset({"out_targets", "in_sources", "edge_weights"})
FRONTIER_REGION_NAMES = frozenset(
    {"dense_frontier", "sparse_active_list", "active_bits"}
)

#: Per-class counters that must conserve against the aggregate
#: ``MemStats`` — every name here is a MemStats integer counter, which
#: the CNT001 lint rule enforces (the per-class twin of the timeline's
#: ``_STAT_FIELDS`` check).
ATTRIBUTED_FIELDS = (
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "prefetch_hits",
    "dram_read_bytes",
    "dram_write_bytes",
    "sp_local_accesses",
    "sp_remote_accesses",
    "srcbuf_hits",
    "pisc_ops",
    "atomics_total",
    "atomics_on_cores",
    "atomics_offloaded",
)

#: All folded columns: event population plus the conserved counters.
FIELDS = ("events",) + ATTRIBUTED_FIELDS


def _region_class(region) -> int:
    """Attribution class of a trace region (vtxProp left pending)."""
    # Local import: repro.memsim imports repro.obs, so the memsim
    # dependency stays out of module-import time to avoid a cycle.
    from repro.ligra.trace import AccessClass

    if region.name in FRONTIER_REGION_NAMES:
        return _CLS_FRONTIER
    if region.name in OFFSET_REGION_NAMES:
        return _CLS_OFFSETS
    if region.name in EDGE_REGION_NAMES:
        return _CLS_EDGES
    if int(region.access_class) == int(AccessClass.VTXPROP):
        return _CLS_VTXPROP_PENDING
    return _CLS_OTHER


class AttributionSpec:
    """What a run's events attribute *to*: regions + degree strata.

    ``regions`` is the trace's address-space table (the format v2/v3
    Region tuple); ``vertex_classes`` maps each vertex id **in trace id
    space** to its degree stratum (0 hub / 1 torso / 2 tail, from
    :func:`repro.graph.degree.degree_classes`, permuted by the reorder
    recipe when one was applied). Both are optional: without regions
    the entity falls back to the event's coarse access class, without
    vertex classes every vtxProp event lands in ``other``.

    The spec is stateless, so classifying one segment at a time during
    streamed replay yields exactly the per-event classes of the whole
    trace.
    """

    def __init__(
        self,
        regions: Sequence = (),
        vertex_classes: Optional[np.ndarray] = None,
        meta: Optional[Dict] = None,
    ) -> None:
        self.regions = tuple(regions)
        self.vertex_classes = (
            None if vertex_classes is None
            else np.asarray(vertex_classes, dtype=np.int8)
        )
        #: Free-form provenance recorded into the result document
        #: (degree split fractions, hub vertex counts, ...).
        self.meta = dict(meta or {})

    def classify(self, trace) -> np.ndarray:
        """Per-event attribution class (int8) for ``trace``.

        Works on whole traces and on stream segments alike — the
        classification of an event depends only on its own columns.
        """
        from repro.ligra.trace import AccessClass

        addrs = np.asarray(trace.addr, dtype=np.int64)
        n = len(addrs)
        out = np.full(n, _CLS_OTHER, dtype=np.int8)
        if self.regions:
            # Reverse region walk: first allocated region wins ties,
            # matching AddressSpace.classify / classify_regions.
            for region in reversed(self.regions):
                inside = (addrs >= region.base) & (addrs < region.end)
                out[inside] = _region_class(region)
        else:
            # No region table (bare synthetic traces): degrade to the
            # trace's coarse three-way access class.
            acc = np.asarray(trace.access_class, dtype=np.int8)
            out[acc == np.int8(int(AccessClass.EDGELIST))] = _CLS_EDGES
            out[acc == np.int8(int(AccessClass.VTXPROP))] = (
                _CLS_VTXPROP_PENDING
            )
        pending = out == _CLS_VTXPROP_PENDING
        if pending.any():
            if self.vertex_classes is None:
                out[pending] = _CLS_OTHER
            else:
                verts = np.asarray(trace.vertex, dtype=np.int64)[pending]
                valid = (verts >= 0) & (verts < len(self.vertex_classes))
                sub = np.full(len(verts), _CLS_OTHER, dtype=np.int8)
                # Degree strata 0/1/2 coincide with the hub/torso/tail
                # class codes by construction.
                sub[valid] = self.vertex_classes[verts[valid]]
                out[pending] = sub
        return out


class AttributionAccumulator:
    """Streaming per-class counter folds (the attribution LatencyLedger).

    The replay engine drives it: :meth:`begin` once with the model
    parameters, then per segment :meth:`classify` + :meth:`fold_routes`
    on the backend's route codes, and :meth:`fold_cache` once per cache
    batch with the kernel's :class:`~repro.memsim.cachestate.CacheRecord`.
    All folds are integer reductions, so the final matrix is invariant
    to how the trace was cut into segments or windows.
    """

    def __init__(self, spec: AttributionSpec) -> None:
        self.spec = spec
        self.counts = np.zeros((NUM_CLASSES, len(FIELDS)), dtype=np.int64)
        self._col = {name: j for j, name in enumerate(FIELDS)}
        self._line_bytes = 0
        self._pim_half = 0

    def begin(self, line_bytes: int, pim_bytes_per_op: int = 0) -> None:
        """Record the model constants the byte folds depend on."""
        self._line_bytes = int(line_bytes)
        # GraphPIM charges half the per-op DRAM bytes to each
        # direction (account: dram_read/write += n * (bytes_per_op // 2)).
        self._pim_half = int(pim_bytes_per_op) // 2

    def classify(self, trace) -> np.ndarray:
        """Per-event classes for one trace segment (see the spec)."""
        return self.spec.classify(trace)

    # -- folds ----------------------------------------------------------
    def _add(self, field: str, mask: np.ndarray, classes: np.ndarray,
             scale: int = 1) -> None:
        col = self._col[field]
        hits = np.bincount(
            classes[mask].astype(np.int64), minlength=NUM_CLASSES
        )
        self.counts[:, col] += hits * scale

    def fold_routes(self, classes: np.ndarray, routes: np.ndarray,
                    atomic: np.ndarray, local: np.ndarray) -> None:
        """Fold every non-cache route family of one segment.

        Mirrors :mod:`repro.memsim.accounting` exactly: scratchpad
        plain/RMW/offload by the effective locality mask, source-buffer
        hits, the locked region's L2 charging, and GraphPIM's in-memory
        atomics. ``routes`` must be the full (unmasked) per-event route
        codes — each event is folded exactly once per replay even when
        the accounting itself runs windowed.
        """
        from repro.memsim.routes import (
            ROUTE_LOCKED,
            ROUTE_PIM,
            ROUTE_SP_OFFLOAD,
            ROUTE_SP_PLAIN,
            ROUTE_SP_RMW,
            ROUTE_SRCBUF_HIT,
        )

        classes = np.asarray(classes, dtype=np.int8)
        self.counts[:, self._col["events"]] += np.bincount(
            classes.astype(np.int64), minlength=NUM_CLASSES
        )
        is_plain = routes == ROUTE_SP_PLAIN
        is_rmw = routes == ROUTE_SP_RMW
        is_off = routes == ROUTE_SP_OFFLOAD
        is_srcbuf = routes == ROUTE_SRCBUF_HIT
        is_locked = routes == ROUTE_LOCKED
        is_pim = routes == ROUTE_PIM

        sp_any = is_plain | is_rmw | is_off
        if sp_any.any():
            self._add("sp_local_accesses", sp_any & local, classes)
            self._add("sp_remote_accesses", sp_any & ~local, classes)
        if is_srcbuf.any():
            self._add("srcbuf_hits", is_srcbuf, classes)
        if is_off.any():
            self._add("pisc_ops", is_off, classes)
        if is_locked.any():
            # The locked region is carved out of the L2: every locked
            # access counts as an L2 hit (LockedCacheBackend.account).
            self._add("l2_hits", is_locked, classes)
        # Atomic placement: plain/locked scratchpad atomics and *all*
        # RMW-routed events execute on cores; offloaded atomics and all
        # PIM-routed events execute in the memory system.
        on_core = (is_plain & atomic) | is_rmw | (is_locked & atomic)
        off_sp = is_off & atomic
        if on_core.any():
            self._add("atomics_on_cores", on_core, classes)
        if off_sp.any() or is_pim.any():
            self._add("atomics_offloaded", off_sp | is_pim, classes)
        total = on_core | off_sp | is_pim
        if total.any():
            self._add("atomics_total", total, classes)
        if is_pim.any() and self._pim_half:
            self._add("dram_read_bytes", is_pim, classes, self._pim_half)
            self._add("dram_write_bytes", is_pim, classes, self._pim_half)

    def fold_cache(self, classes: np.ndarray, atomic: np.ndarray,
                   record) -> None:
        """Fold one cache batch from its per-event outcome record.

        ``record`` is the :class:`~repro.memsim.cachestate.CacheRecord`
        the kernel (or the scalar oracle) filled for exactly these
        events; ``classes``/``atomic`` are subset-sliced to the same
        batch.
        """
        classes = np.asarray(classes, dtype=np.int8)
        l1_hit = record.l1_hit
        self._add("l1_hits", l1_hit, classes)
        self._add("l1_misses", ~l1_hit, classes)
        self._add("l2_hits", record.l2_hit, classes)
        self._add("l2_misses", record.l2_miss, classes)
        self._add("prefetch_hits", record.prefetch, classes)
        self._add("dram_read_bytes", record.l2_miss, classes,
                  self._line_bytes)
        wb = np.zeros(NUM_CLASSES, dtype=np.int64)
        np.add.at(wb, classes.astype(np.int64),
                  record.writebacks.astype(np.int64))
        self.counts[:, self._col["dram_write_bytes"]] += (
            wb * self._line_bytes
        )
        at = np.asarray(atomic, dtype=bool)
        if at.any():
            self._add("atomics_total", at, classes)
            self._add("atomics_on_cores", at, classes)

    # -- results --------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Cross-class sums, field name → total."""
        sums = self.counts.sum(axis=0)
        return {name: int(sums[j]) for j, name in enumerate(FIELDS)}

    def per_class(self) -> Dict[str, Dict[str, int]]:
        """Class name → {field: count} for every class."""
        return {
            CLASS_NAMES[c]: {
                name: int(self.counts[c, j])
                for j, name in enumerate(FIELDS)
            }
            for c in range(NUM_CLASSES)
        }

    def verify(self, stats, total_events: int) -> None:
        """Enforce the conservation invariant against ``stats``.

        Raises :class:`~repro.errors.SimulationError` when any per-class
        column fails to sum bit-identically to the aggregate counter —
        a divergence is an attribution (or accounting) bug, never noise.
        """
        sums = self.counts.sum(axis=0)
        bad = []
        if int(sums[self._col["events"]]) != int(total_events):
            bad.append(
                ("events", int(sums[self._col["events"]]),
                 int(total_events))
            )
        for name in ATTRIBUTED_FIELDS:
            got = int(sums[self._col[name]])
            want = int(getattr(stats, name))
            if got != want:
                bad.append((name, got, want))
        if bad:
            detail = ", ".join(
                f"{name}: classes sum to {got}, aggregate is {want}"
                for name, got, want in bad
            )
            raise SimulationError(
                f"attribution conservation violated ({detail})"
            )

    def result(self) -> Dict:
        """The manifest/JSON ``attribution`` block (raw integer counts)."""
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "fields": list(FIELDS),
            "classes": self.per_class(),
            "totals": self.totals(),
            "degree_split": dict(self.spec.meta),
        }


def _rate(num: int, den: int) -> float:
    return num / den if den else 0.0


def explain_lines(block: Dict, top: int = 0,
                  sort_by: str = "dram") -> list:
    """Render an attribution block as the ``repro explain`` report.

    Returns the report's lines: a per-class table (events, DRAM bytes,
    scratchpad capture rate, L1/L2 hit rates, offloads) sorted by
    ``sort_by`` (``dram`` | ``events`` | ``capture``), plus the
    headline callouts — top class by DRAM traffic and the class with
    the highest scratchpad capture rate.
    """
    classes = block.get("classes", {})
    rows = []
    for name, c in classes.items():
        events = int(c.get("events", 0))
        dram = int(c.get("dram_read_bytes", 0)) + int(
            c.get("dram_write_bytes", 0)
        )
        sp = int(c.get("sp_local_accesses", 0)) + int(
            c.get("sp_remote_accesses", 0)
        ) + int(c.get("srcbuf_hits", 0))
        l1a = int(c.get("l1_hits", 0)) + int(c.get("l1_misses", 0))
        l2a = int(c.get("l2_hits", 0)) + int(c.get("l2_misses", 0))
        rows.append(
            {
                "class": name,
                "events": events,
                "dram_bytes": dram,
                "capture_rate": _rate(sp, events),
                "l1_hit_rate": _rate(int(c.get("l1_hits", 0)), l1a),
                "l2_hit_rate": _rate(int(c.get("l2_hits", 0)), l2a),
                "offloaded": int(c.get("atomics_offloaded", 0)),
            }
        )
    key = {
        "dram": lambda r: r["dram_bytes"],
        "events": lambda r: r["events"],
        "capture": lambda r: r["capture_rate"],
    }.get(sort_by)
    if key is None:
        raise SimulationError(
            f"unknown sort key {sort_by!r}; expected dram|events|capture"
        )
    rows.sort(key=key, reverse=True)
    shown = rows[: top] if top else rows
    header = (
        f"{'class':14} {'events':>12} {'dram_bytes':>14} {'capture':>9}"
        f" {'l1_hit':>8} {'l2_hit':>8} {'offloaded':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in shown:
        lines.append(
            f"{r['class']:14} {r['events']:>12} {r['dram_bytes']:>14}"
            f" {r['capture_rate']:>8.1%} {r['l1_hit_rate']:>7.1%}"
            f" {r['l2_hit_rate']:>7.1%} {r['offloaded']:>10}"
        )
    busy = [r for r in rows if r["events"]]
    if busy:
        top_dram = max(busy, key=lambda r: r["dram_bytes"])
        top_cap = max(busy, key=lambda r: r["capture_rate"])
        lines.append(
            f"top class by DRAM traffic: {top_dram['class']}"
            f" ({top_dram['dram_bytes']} bytes)"
        )
        lines.append(
            f"highest scratchpad capture rate: {top_cap['class']}"
            f" ({top_cap['capture_rate']:.1%} of"
            f" {top_cap['events']} events)"
        )
    return lines
