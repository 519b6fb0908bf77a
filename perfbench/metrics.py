"""Metric catalogue and the folds that compute it.

End-to-end metrics come from the untraced loop; per-layer metrics from
the traced run (see ``README.md`` for what each one means and which
end-to-end metric it should move).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

from harness import SpanRecorder, by_layer, fold, layer_targets

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Self seconds per op (per computed job on serve-mix) of these spans.
SECONDS = {
    "graph.load_s": "graph.load",
    "graph.reorder_s": "graph.reorder",
    "ligra.generate_s": "ligra.generate",
    "store.key_s": "store.key",
    "store.load_s": "store.load",
    "store.write_s": "store.write",
    "memsim.prepass_s": "memsim.prepass",
    "memsim.route_s": "memsim.route",
    "memsim.screen_s": "memsim.screen",
    "memsim.residual_s": "memsim.cache_path",
    "memsim.account_s": "memsim.account",
    "memsim.estimate_s": "memsim.estimate",
    "obs.attribution_s": "obs.attribution",
    "core.timing_energy_s": "core.timing_energy",
    "core.manifest_s": "core.manifest",
    "core.self_s": "core.run",
}

#: Counter totals per op: metric -> (counter, scale, unit, feeding span).
COUNTS = {
    "ligra.events": ("ligra.events", 1.0, "count", "ligra.generate"),
    "ligra.trace_mb": ("ligra.trace_bytes", 1e-6, "MB", "ligra.generate"),
    "store.load_mb": ("store.load_bytes", 1e-6, "MB", "store.load"),
    "store.write_mb": ("store.write_bytes", 1e-6, "MB", "store.write"),
    "memsim.cache_events": ("memsim.cache_events", 1.0, "count",
                            "memsim.cache_path"),
    "memsim.segments": ("memsim.segments", 1.0, "count", "memsim.prepass"),
}

#: Cells whose screen+residual share the ROADMAP quotes.
LOOP_SHARE_CELLS = {
    "memsim.loop_share.lj-pagerank-baseline": "lj@1/pagerank/baseline plain",
    "memsim.loop_share.lj-pagerank-omega": "lj@1/pagerank/omega plain",
}

SHARE_LAYERS = ("graph", "ligra", "store", "memsim", "obs", "core", "serve",
                "bench")
SETUP_LAYERS = ("graph", "ligra", "store", "memsim", "core")

OTHER_PER_LAYER = {
    "store.hit_ratio": "ratio",
    "memsim.residual_ns_per_event": "ns",
    "memsim.screen_ratio": "ratio",
    "memsim.loop_share": "ratio",
    **{name: "ratio" for name in LOOP_SHARE_CELLS},
    **{f"share.{layer}": "ratio" for layer in SHARE_LAYERS},
    **{f"setup.{layer}_s": "s" for layer in SETUP_LAYERS},
    "serve.warm_share": "ratio",
    "serve.coalesced_share": "ratio",
    "serve.warm_ms_p50": "ms",
    "serve.response_kb": "KB",
    "serve.cold_s_p50": "s",
    "serve.compute_s": "s",
    "serve.queue_wait_s": "s",
    "serve.rejected": "count",
    "trace.overhead_s": "s",
    "trace.spans_per_op": "count",
}

#: name -> unit for every per-layer metric, in print order.
PER_LAYER = {
    **{name: "s" for name in SECONDS},
    **{name: spec[2] for name, spec in COUNTS.items()},
    **OTHER_PER_LAYER,
}

#: The span each derived metric needs (for reporting ``absent``).
_DERIVED_SPANS = {
    "store.hit_ratio": "store.load",
    "memsim.residual_ns_per_event": "memsim.cache_path",
    "memsim.screen_ratio": "memsim.screen",
    "memsim.loop_share": "memsim.cache_path",
    **{name: "memsim.cache_path" for name in LOOP_SHARE_CELLS},
    "serve.compute_s": "serve.compute",
    "serve.queue_wait_s": "serve.submit",
}

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it:
    ``(value, percentile, samples beyond)``."""
    n = len(values)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            pct = p
    beyond = int(n * (1.0 - pct / 100.0))
    return percentile(values, pct), pct, beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(seconds: List[float], busy: float, events: int,
               attempted: int, failed: int, setup_s: float,
               peak_rss_mb: float) -> Tuple[Dict[str, float], Dict]:
    """End-to-end values plus the facts printed beside them.

    ``seconds`` are the host-normalized latencies of the successful ops
    and ``busy`` the host-normalized time they took together.
    """
    tail_s, tail_pct, beyond = tail(seconds)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(seconds) / busy if busy > 0 else 0.0,
        "op_s_p50": median(seconds),
        "op_s_tail": tail_s,
        "sim_events_per_s": events / busy if busy > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted if attempted else 0.0,
    }
    facts = {
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples_beyond": beyond,
        "op_samples": len(seconds),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    return values, facts


def layer_values(rec: SpanRecorder, roots: Iterable[int], per: float,
                 setup_roots: Iterable[int] = ()) -> Dict[str, float]:
    """Per-layer values from a traced phase.

    ``roots`` are the requests of the phase (their spans are folded),
    ``per`` the count that time and counter totals are divided by, and
    ``setup_roots`` the traced set-up's root span, if any.
    """
    roots = list(roots)
    keep = set(roots)
    spans = [s for s in rec.spans if s.root in keep]
    names = fold(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    per = per or 1.0
    out: Dict[str, float] = {}
    for metric, span in SECONDS.items():
        out[metric] = names.get(span, 0.0) / per
    counts = rec.counts
    for metric, (counter, scale, _unit, _span) in COUNTS.items():
        out[metric] = counts.get(counter, 0.0) * scale / per
    lookups = counts.get("store.hits", 0.0) + counts.get("store.misses", 0.0)
    out["store.hit_ratio"] = (
        counts.get("store.hits", 0.0) / lookups if lookups else 0.0
    )
    cache_events = counts.get("memsim.cache_events", 0.0)
    screened = counts.get("memsim.screened", 0.0)
    residual_events = cache_events - screened
    residual = names.get("memsim.cache_path", 0.0)
    out["memsim.residual_ns_per_event"] = (
        residual / residual_events * 1e9 if residual_events else 0.0
    )
    out["memsim.screen_ratio"] = screened / cache_events if cache_events else 0.0
    loop = residual + names.get("memsim.screen", 0.0)
    out["memsim.loop_share"] = loop / wall if wall else 0.0
    for metric, label in LOOP_SHARE_CELLS.items():
        out[metric] = _loop_share(
            rec, [r for r in roots if rec.labels.get(r) == label]
        )
    layers = by_layer(names)
    for layer in SHARE_LAYERS:
        out[f"share.{layer}"] = layers.get(layer, 0.0) / wall if wall else 0.0
    setup_keep = set(setup_roots)
    setup = by_layer(fold(s for s in rec.spans if s.root in setup_keep))
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}_s"] = setup.get(layer, 0.0)
    out["serve.compute_s"] = counts.get("serve.compute_s", 0.0) / per
    out["serve.queue_wait_s"] = counts.get("serve.queue_wait_s", 0.0) / per
    out["trace.spans_per_op"] = len(spans) / per
    return out


def _loop_share(rec: SpanRecorder, roots: List[int]) -> float:
    if not roots:
        return 0.0
    keep = set(roots)
    spans = [s for s in rec.spans if s.root in keep]
    names = fold(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    loop = names.get("memsim.cache_path", 0.0) + names.get("memsim.screen", 0.0)
    return loop / wall if wall else 0.0


def absent_metrics(absent: Sequence[str]) -> List[str]:
    """Per-layer metrics whose every feeding target is in ``absent``."""
    feeding: Dict[str, List[str]] = {}
    for target in layer_targets():
        feeding.setdefault(target.span, []).append(target.where)
    spans = dict(SECONDS)
    spans.update({metric: spec[3] for metric, spec in COUNTS.items()})
    spans.update(_DERIVED_SPANS)
    return sorted(
        metric for metric, span in spans.items()
        if all(where in absent for where in feeding.get(span, ()))
    )
