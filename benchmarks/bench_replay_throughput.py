"""Replay-engine throughput: events/second through the layered engine.

The compiled cache kernel (``CacheSystem._replay_compiled``: one C
call per batch over flat array state, ``src/repro/memsim/ckernel.c``)
replaced the per-event cache stage. This bench measures
replay throughput on the paper's headline workload (PageRank on the lj
stand-in) for the baseline and OMEGA backends and compares against two
references:

- the **pre-refactor** throughput of the seed tree's scalar loop on
  this workload (events decoded, classified, and routed one at a
  time), read from the first entry of the ``BENCH_replay_throughput``
  trajectory (the built-in constants only seed a fresh ledger), and
- the engine's own scalar cache oracle (a backend's ``scalar_cache``,
  the ``REPRO_SCALAR_CACHE=1`` path), which still pays per-event cache
  simulation but benefits from the vectorized pre-pass/routing — an
  in-process lower bound on the kernel's win.

Host normalization: raw events/second swings double-digit percentages
between runs of this suite on shared hardware, which made a fixed
"after / seed-constant" gate flaky. The oracle is measured *in the
same run* as the kernel, so the kernel/oracle ratio is host-stable;
multiplying it by the anchor ratio (oracle throughput recorded on the
same host and commit as the seed constants) recovers a seed-relative
speedup that does not move with machine load:

    normalized = (after / oracle_now) * (anchor_oracle / seed)

The acceptance bar is >=20x normalized on both backends: the lowest
of several runs measured ~30x on each, and the bar leaves a third of
that as headroom for the oracle's run-to-run noise (the normalization
divides by it). Earlier Python kernels cleared 3.5x (baseline) and
5.6x (OMEGA); docs/performance.md keeps the arithmetic.

The estimator row times ``estimate_replay`` on lj/PageRank (baseline)
and lj@0.5/SSSP (OMEGA, where the source buffers fire) both ways in
the same run: compiled (``estimate_batch`` and ``srcbuf_walk``) and
through its fallback (``scalar_cache``: numpy reuse gaps and the
Python buffer walk). The fallback/compiled ratio is host-stable, and
:data:`ESTIMATE_BARS` gates it.
"""

import time

from repro.bench import bench_graph, format_table
from repro.bench.record import bench_baseline_context
from repro.config import SimConfig
from repro.algorithms.registry import run_algorithm
from repro.core.offload import microcode_for_algorithm
from repro.graph.reorder import reorder_nth_element
from repro.memsim.backends import BaselineBackend, OmegaBackend
from repro.memsim.estimate import estimate_replay
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for

from conftest import REPO_ROOT, emit, record

#: Fallback seed-tree replay throughput on PageRank/lj (events/second):
#: the pre-refactor per-event loop at commit 296ad4d, best of 3. Used
#: only when the ``BENCH_replay_throughput`` trajectory is empty; an
#: existing ledger's first entry is authoritative.
SEED_EVENTS_PER_SEC = {"baseline": 234_000, "omega": 319_748}

#: Scalar-oracle throughput measured on the same host (and at the same
#: time) as the seed constants above. The anchor ties the in-run
#: kernel/oracle ratio back to the seed loop: on the seed host, the
#: oracle ran at these rates while the seed loop ran at
#: SEED_EVENTS_PER_SEC.
ANCHOR_ORACLE_EVENTS_PER_SEC = {"baseline": 457_030, "omega": 904_463}

#: Normalized-speedup acceptance bars (see the module docstring).
SPEEDUP_BARS = {"baseline": 20.0, "omega": 20.0}

#: Estimator fallback/compiled time ratio bars: the lowest of eight
#: runs measured 6.6x (baseline) and 4.2x (OMEGA); the bars leave a
#: third of that as headroom.
ESTIMATE_BARS = {"baseline": 4.0, "omega": 2.5}

ROUNDS = 3


def _seed_floor():
    """The pre-refactor reference, from the ledger when it has one."""
    recorded = bench_baseline_context(
        "replay_throughput", REPO_ROOT, "seed_events_per_sec"
    )
    if isinstance(recorded, dict) and all(
        k in recorded for k in SEED_EVENTS_PER_SEC
    ):
        return {k: float(recorded[k]) for k in SEED_EVENTS_PER_SEC}
    return dict(SEED_EVENTS_PER_SEC)


def _best_seconds(make_hierarchy, trace, rounds=ROUNDS, scalar=False):
    best = float("inf")
    for _ in range(rounds):
        hierarchy = make_hierarchy()
        if scalar:
            hierarchy.scalar_cache = True
        start = time.perf_counter()
        hierarchy.replay(trace)
        best = min(best, time.perf_counter() - start)
    return best


def _estimator_cases():
    """(make_backend, trace) for the estimator row's two workloads."""
    bcfg = SimConfig.scaled_baseline()
    ocfg = SimConfig.scaled_omega()
    cores = bcfg.core.num_cores
    graph, _ = bench_graph("lj")
    plain = run_algorithm("pagerank", graph, num_cores=cores,
                          chunk_size=32, trace=True)
    wgraph, _ = bench_graph("lj", scale=0.5, weighted=True)
    wgraph, _ = reorder_nth_element(wgraph, key="in")
    sssp = run_algorithm("sssp", wgraph, num_cores=cores, chunk_size=32,
                         trace=True)
    hot = hot_capacity_for(
        ocfg.scratchpad_total_bytes,
        sssp.engine.vtxprop_bytes_per_vertex(),
        wgraph.num_vertices,
    )
    mapping = ScratchpadMapping(cores, hot, chunk_size=32)
    microcode = microcode_for_algorithm("sssp")
    return {
        "baseline": (lambda: BaselineBackend(bcfg), plain.trace),
        "omega": (lambda: OmegaBackend(ocfg, mapping, microcode),
                  sssp.trace),
    }


def _measure_estimator():
    """Best-of-ROUNDS estimate time, compiled and through the fallback."""
    rows = []
    results = {}
    for name, (make, trace) in _estimator_cases().items():
        seconds = {}
        for fallback in (False, True):
            best = float("inf")
            for _ in range(ROUNDS + 1):  # the first round warms up
                backend = make()
                backend.scalar_cache = fallback
                start = time.perf_counter()
                est = estimate_replay(backend, trace)
                best = min(best, time.perf_counter() - start)
            seconds[fallback] = best
        ratio = seconds[True] / seconds[False]
        results[name] = {
            "estimate_ms": seconds[False] * 1e3,
            "fallback_ms": seconds[True] * 1e3,
            "speedup": ratio,
        }
        rows.append({
            "backend": name,
            "events": trace.num_events,
            "srcbuf hits": est.srcbuf_hits,
            "compiled ms": round(seconds[False] * 1e3, 2),
            "fallback ms": round(seconds[True] * 1e3, 2),
            "fallback/compiled": round(ratio, 2),
            "bar": ESTIMATE_BARS[name],
        })
    return rows, results


def _measure():
    graph, _ = bench_graph("lj")
    bcfg = SimConfig.scaled_baseline()
    ocfg = SimConfig.scaled_omega()
    cores = bcfg.core.num_cores
    seed = _seed_floor()

    plain = run_algorithm("pagerank", graph, num_cores=cores,
                          chunk_size=32, trace=True)
    wgraph, _ = reorder_nth_element(graph, key="in")
    reord = run_algorithm("pagerank", wgraph, num_cores=cores,
                          chunk_size=32, trace=True)
    microcode = microcode_for_algorithm("pagerank")
    hot = hot_capacity_for(
        ocfg.scratchpad_total_bytes,
        reord.engine.vtxprop_bytes_per_vertex(),
        wgraph.num_vertices,
    )
    mapping = ScratchpadMapping(cores, hot, chunk_size=32)
    ranges_plain = [(p.start_addr, p.region.end)
                    for p in plain.engine.vtx_props]
    ranges_reord = [(p.start_addr, p.region.end)
                    for p in reord.engine.vtx_props]

    cases = {
        "baseline": (
            lambda: BaselineBackend(bcfg, dram_random_ranges=ranges_plain),
            plain.trace,
        ),
        "omega": (
            lambda: OmegaBackend(ocfg, mapping, microcode,
                                 dram_random_ranges=ranges_reord),
            reord.trace,
        ),
    }
    rows = []
    results = {}
    for name, (make, trace) in cases.items():
        make(), make().replay(trace)  # warm-up
        batch = _best_seconds(make, trace)
        scalar = _best_seconds(make, trace, scalar=True)
        events = trace.num_events
        after = events / batch
        oracle = events / scalar
        raw = after / seed[name]
        normalized = (
            (after / oracle) * (ANCHOR_ORACLE_EVENTS_PER_SEC[name] / seed[name])
        )
        results[name] = {
            "events_per_sec": after,
            "oracle_events_per_sec": oracle,
            "speedup_raw": raw,
            "speedup_normalized": normalized,
        }
        rows.append(
            {
                "backend": name,
                "events": events,
                "seed ev/s": f"{seed[name]:,.0f}",
                "after ev/s": f"{after:,.0f}",
                "oracle ev/s": f"{oracle:,.0f}",
                "kernel/oracle": round(after / oracle, 2),
                "speedup raw": round(raw, 2),
                "speedup norm": round(normalized, 2),
                "bar": SPEEDUP_BARS[name],
            }
        )
    return rows, results, seed


def test_replay_throughput(benchmark):
    rows, results, seed = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = format_table(
        rows, "Replay throughput — PageRank/lj, batch engine vs seed loop"
    )
    text += (
        "\nseed = pre-refactor per-event loop (ledger floor; constants"
        " recorded at seed commit 296ad4d); after = compiled cache"
        " kernel;\noracle = the REPRO_SCALAR_CACHE=1 reference path"
        " measured in the same run;\nspeedup norm = (after/oracle) *"
        " (anchor oracle/seed) — host-load-invariant (the gated"
        " metric)\n"
    )
    est_rows, est = _measure_estimator()
    text += "\n" + format_table(
        est_rows, "Estimator — lj/PageRank baseline, lj@0.5/SSSP OMEGA,"
        " compiled vs fallback"
    )
    emit("replay_throughput", text)
    record(
        "replay_throughput",
        {
            "events_per_sec": {
                name: round(r["events_per_sec"], 1)
                for name, r in results.items()
            },
            "scalar_oracle_events_per_sec": {
                name: round(r["oracle_events_per_sec"], 1)
                for name, r in results.items()
            },
            "speedup_vs_seed": {
                name: round(r["speedup_raw"], 3)
                for name, r in results.items()
            },
            "speedup_normalized": {
                name: round(r["speedup_normalized"], 3)
                for name, r in results.items()
            },
            "estimate_ms": {
                name: round(r["estimate_ms"], 3) for name, r in est.items()
            },
            "estimate_fallback_ms": {
                name: round(r["fallback_ms"], 3) for name, r in est.items()
            },
            "estimate_speedup": {
                name: round(r["speedup"], 3) for name, r in est.items()
            },
        },
        context={
            "workload": "pagerank/lj",
            "seed_events_per_sec": seed,
            "anchor_oracle_events_per_sec": ANCHOR_ORACLE_EVENTS_PER_SEC,
            "speedup_bars": SPEEDUP_BARS,
            "estimate_workloads": {
                "baseline": "pagerank/lj", "omega": "sssp/lj@0.5",
            },
            "estimate_bars": ESTIMATE_BARS,
            "rounds": ROUNDS,
        },
    )

    # The acceptance bars, on the host-normalized metric.
    for name, bar in SPEEDUP_BARS.items():
        assert results[name]["speedup_normalized"] > bar, (name, results)
    for name, bar in ESTIMATE_BARS.items():
        assert est[name]["speedup"] > bar, (name, est)
