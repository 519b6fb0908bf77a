"""Out-of-core streaming on a large-graph workload: RSS and throughput.

The streaming pipeline exists for traces that dwarf memory, and this
bench gates its two claims on a multi-million-event workload (PageRank
on an RMAT-14 graph, ~3.5M events / ~73 MiB of trace columns):

1. **Bounded residency.** A streamed ``run_system`` must hold its
   incremental peak RSS (above the graph-only baseline) at or below
   50% of the whole-trace resident size — where in-core replay pays
   the full trace (plus its interleaved copy), streaming pays one
   segment at a time.
2. **Throughput.** Bounded memory may not cost the pipeline: streamed
   end-to-end events/sec must stay within 0.8x of in-core.

Counters are asserted bit-identical between the two runs (the parity
contract of ``tests/property/test_streaming_parity.py``, here on a
workload two orders of magnitude larger). Each measurement runs in a
fresh ``spawn`` process (see ``_mem.py``) because peak RSS is a
per-process high-water mark. The CI ``streaming-smoke`` job runs this
file and uploads the measured numbers as a JSON artifact.
"""

import json
import pathlib
import time

from repro.bench import format_table
from repro.core.context import RunContext, RunRequest

from conftest import emit
from _mem import peak_rss_bytes, run_measured

#: Workload: RMAT scale/edge-factor, PageRank iterations, cores.
SCALE = 14
EDGE_FACTOR = 16
MAX_ITERS = 4
NUM_CORES = 8
SEED = 1

#: Streaming segment size under test (the library default).
SEGMENT_EVENTS = 262144

#: Acceptance bars (docs/performance.md).
MAX_RSS_FRACTION = 0.5
MIN_THROUGHPUT_X = 0.8

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _run_workload(segment_events):
    """Worker: generate + replay the workload; report RSS-delta & rate.

    Runs in a fresh spawn child. The RSS baseline snapshot lands after
    imports and graph construction, so the reported delta isolates the
    trace pipeline (generation, storage, replay) from the fixed
    interpreter + graph footprint shared by both variants.
    """
    from repro.config import SimConfig
    from repro.core.system import run_system
    from repro.graph import rmat_graph

    graph = rmat_graph(SCALE, edge_factor=EDGE_FACTOR, seed=SEED)
    config = SimConfig.scaled_baseline(num_cores=NUM_CORES)
    baseline_rss = peak_rss_bytes()
    start = time.perf_counter()
    report = run_system(
        graph,
        RunRequest("pagerank", backend="baseline", dataset=f"rmat{SCALE}",
                   alg_kwargs={"max_iters": MAX_ITERS}),
        config, context=RunContext(segment_events=segment_events),
    )
    wall = time.perf_counter() - start
    return {
        "events": report.trace_events,
        "trace_bytes": report.trace_bytes,
        "num_segments": report.num_segments,
        "wall_seconds": wall,
        "events_per_sec": report.trace_events / wall,
        "baseline_rss": baseline_rss,
        "stats": report.stats.as_dict(),
        "cycles": report.timing.total_cycles,
    }


def test_streaming_bounds_rss_at_speed(benchmark):
    (incore, incore_rss), (streamed, streamed_rss) = benchmark.pedantic(
        lambda: (
            run_measured(_run_workload, None),
            run_measured(_run_workload, SEGMENT_EVENTS),
        ),
        rounds=1, iterations=1,
    )
    # Same workload, same counters — streaming must be invisible in
    # the simulation before its footprint is worth discussing.
    assert streamed["stats"] == incore["stats"]
    assert streamed["cycles"] == incore["cycles"]
    assert streamed["num_segments"] > 1
    assert incore["num_segments"] == 1

    incore_delta = incore_rss - incore["baseline_rss"]
    streamed_delta = streamed_rss - streamed["baseline_rss"]
    trace_bytes = incore["trace_bytes"]
    # "Whole-trace resident size": what the in-core pipeline actually
    # held beyond the fixed baseline, floored by the column footprint
    # itself in case the allocator hid some of it.
    whole_trace_resident = max(incore_delta, trace_bytes)
    rss_fraction = streamed_delta / whole_trace_resident
    throughput_x = streamed["events_per_sec"] / incore["events_per_sec"]

    rows = [
        {
            "pipeline": "in-core",
            "events": incore["events"],
            "segments": incore["num_segments"],
            "wall s": round(incore["wall_seconds"], 2),
            "Mev/s": round(incore["events_per_sec"] / 1e6, 2),
            "peak RSS delta MiB": round(incore_delta / 2**20, 1),
        },
        {
            "pipeline": f"streamed ({SEGMENT_EVENTS} ev/seg)",
            "events": streamed["events"],
            "segments": streamed["num_segments"],
            "wall s": round(streamed["wall_seconds"], 2),
            "Mev/s": round(streamed["events_per_sec"] / 1e6, 2),
            "peak RSS delta MiB": round(streamed_delta / 2**20, 1),
        },
    ]
    text = format_table(
        rows,
        f"Out-of-core streaming — PageRank/RMAT-{SCALE}"
        f" ({incore['events']} events, trace"
        f" {round(trace_bytes / 2**20, 1)} MiB)",
    )
    text += (
        f"\nstreamed peak RSS delta = {rss_fraction:.0%} of whole-trace"
        f" resident size (bar: <={MAX_RSS_FRACTION:.0%})\n"
        f"streamed throughput = {throughput_x:.2f}x in-core"
        f" (bar: >={MIN_THROUGHPUT_X:.1f}x)\n"
        "counters bit-identical between the two pipelines.\n"
    )
    emit("large_graphs", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "large_graphs.json").write_text(json.dumps({
        "schema": "omega-repro/streaming-bench/v1",
        "workload": {
            "scale": SCALE, "edge_factor": EDGE_FACTOR,
            "max_iters": MAX_ITERS, "num_cores": NUM_CORES,
            "segment_events": SEGMENT_EVENTS,
        },
        "events": incore["events"],
        "trace_bytes": trace_bytes,
        "incore": {
            "wall_seconds": incore["wall_seconds"],
            "events_per_sec": incore["events_per_sec"],
            "peak_rss_delta_bytes": incore_delta,
        },
        "streamed": {
            "wall_seconds": streamed["wall_seconds"],
            "events_per_sec": streamed["events_per_sec"],
            "peak_rss_delta_bytes": streamed_delta,
            "num_segments": streamed["num_segments"],
        },
        "rss_fraction": rss_fraction,
        "throughput_x": throughput_x,
    }, indent=2))

    assert rss_fraction <= MAX_RSS_FRACTION, (
        f"streamed run held {rss_fraction:.0%} of the whole-trace"
        f" resident size (delta {streamed_delta / 2**20:.1f} MiB vs"
        f" {whole_trace_resident / 2**20:.1f} MiB)"
    )
    assert throughput_x >= MIN_THROUGHPUT_X, (
        f"streamed throughput only {throughput_x:.2f}x of in-core"
    )
