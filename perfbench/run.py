"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics. ``--trace 1`` runs it twice, untraced and then with the layer
harness installed, and prints the per-layer metrics and the tracing
overhead. Every metric is printed as ``name = value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record (seed, host
facts, tail percentile, absent targets, errors) is written under
``.perfbench-out/``. The exit code is 1 when an output check failed
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("replay-warm", "estimate-cold", "serve-mix")
#: Set-ups per run; ``setup_s`` is the median of these.
SETUPS = {"replay-warm": 3, "estimate-cold": 5, "serve-mix": 5}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        revision = done.stdout.strip() or "unknown"
    # The checkout the benchmark runs in may not be a git repository:
    # a digest of the program's sources identifies the code either way.
    sources = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "source_digest": sources.hexdigest(),
    }


def in_process(args, work: Path, reference: dict, rng: random.Random):
    """replay-warm / estimate-cold: returns (record, attempted, failed)."""
    import metrics
    import probe
    import workloads
    from harness import Harness, SpanRecorder, layer_targets

    cls = {"replay-warm": workloads.ReplayWarm,
           "estimate-cold": workloads.EstimateCold}[args.workload]
    workload = cls(work, reference, rng)

    def loop(seconds, recorder=None, min_ops=workload.min_ops):
        return workloads.run_loop(workload.deck, workload.op, workload.label,
                                  seconds, recorder, min_ops)

    def times(phase):
        return [op.seconds / op.slowdown for op in phase.ops if op.ok]

    record = {}
    if not args.trace:
        import_s = time.perf_counter() - _START
        setups = []
        for _ in range(SETUPS[args.workload]):
            slow = probe.slowdown()
            t0 = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - t0, slow))
        phase = loop(args.seconds)
        ok = [op for op in phase.ops if op.ok]
        normalized = [op.seconds / op.slowdown for op in ok]
        values, facts = metrics.end_to_end(
            normalized, sum(normalized), sum(op.events for op in ok),
            phase.attempted, phase.failed,
            setup_seconds(import_s, setups),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        facts.update(raw_facts([op.seconds for op in ok], setups,
                               [op.slowdown for op in phase.ops]))
        facts.update(import_s=import_s, loop_wall_s=phase.wall)
        record.update(metrics=values, facts=facts, errors=phase.errors,
                      ops=[[op.label, op.seconds, op.slowdown, op.ok]
                           for op in phase.ops])
        return record, phase.attempted, phase.failed

    recorder = SpanRecorder()
    with Harness(recorder, layer_targets()) as harness:
        with recorder.span("bench.setup") as setup_span:
            workload.setup()
    recorder.counts.clear()
    untraced = loop(args.seconds / 2, min_ops=0)
    with Harness(recorder, layer_targets()):
        traced = loop(args.seconds / 2, recorder, min_ops=0)
    values = metrics.layer_values(recorder, traced.roots, len(traced.ops),
                                  setup_roots=[setup_span.id])
    values["trace.overhead_s"] = (
        metrics.median(times(traced)) - metrics.median(times(untraced))
    )
    values.update({name: 0.0 for name in metrics.PER_LAYER
                   if name.startswith("serve.")})
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    recorder.dump(str(spans_path), absent=harness.absent)
    record.update(
        metrics=values,
        facts={"untraced_op_s_p50": metrics.median(times(untraced)),
               "traced_op_s_p50": metrics.median(times(traced)),
               "traced_ops": len(traced.ops), "spans": str(spans_path)},
        absent_targets=harness.absent,
        absent_metrics=metrics.absent_metrics(harness.absent),
        errors=untraced.errors + traced.errors,
    )
    attempted = untraced.attempted + traced.attempted
    return record, attempted, untraced.failed + traced.failed


def serve(args, work: Path, reference: dict, rng: random.Random):
    """serve-mix: returns (record, attempted, failed)."""
    import metrics
    import probe
    import serve_mix
    from harness import SpanRecorder

    servers = []

    def start(tag, spans=None):
        server = serve_mix.Server(ROOT, work, tag, spans)
        servers.append(server)
        return server, server.start()

    try:
        if not args.trace:
            import_s = time.perf_counter() - _START
            setups = []
            for k in range(SETUPS[args.workload]):
                if servers:
                    servers[-1].stop()
                slow = probe.slowdown()
                server, seconds = start(str(k))
                setups.append((seconds, slow))
            phase = serve_mix.run_clients(server, reference, rng, args.seconds)
            ok = [r for r in phase.replies if r.ok]
            slowdowns = [r.slowdown for r in phase.replies]
            values, facts = metrics.end_to_end(
                [r.seconds / r.slowdown for r in ok],
                phase.wall / statistics.median(slowdowns),
                sum(r.events for r in ok), phase.attempted, phase.failed,
                setup_seconds(import_s, setups), phase.peak_rss_mb,
            )
            facts.update(raw_facts([r.seconds for r in ok], setups,
                                   slowdowns))
            facts.update(import_s=import_s, loop_wall_s=phase.wall,
                         server_stats=phase.server_stats,
                         **client_facts(phase))
            record = {"metrics": values, "facts": facts,
                      "errors": phase.errors,
                      "ops": [[r.label, r.state, r.seconds, r.slowdown, r.ok]
                              for r in phase.replies]}
            return record, phase.attempted, phase.failed

        server, _ = start("untraced")
        untraced = serve_mix.run_clients(server, reference, rng,
                                         args.seconds / 2, min_replies=0)
        server.stop()
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        server, _ = start("traced", spans_path)
        traced = serve_mix.run_clients(server, reference, rng,
                                       args.seconds / 2, min_replies=0)
        server.stop()
    finally:
        for server in servers:
            server.stop()

    recorder = SpanRecorder.load(str(spans_path))
    absent = recorder.extra.get("absent", [])
    roots = sorted({s.root for s in recorder.spans})
    values = metrics.layer_values(recorder, roots,
                                  recorder.counts.get("serve.jobs", 0.0))
    values.update(client_facts(traced))
    values["trace.overhead_s"] = (
        metrics.median([r.seconds / r.slowdown
                        for r in traced.replies if r.ok])
        - metrics.median([r.seconds / r.slowdown
                          for r in untraced.replies if r.ok])
    )
    record = {
        "metrics": values,
        "facts": {"server_stats": traced.server_stats,
                  "jobs": recorder.counts.get("serve.jobs", 0.0),
                  "spans": str(spans_path)},
        "absent_targets": absent,
        "absent_metrics": metrics.absent_metrics(absent),
        "errors": untraced.errors + traced.errors,
    }
    attempted = untraced.attempted + traced.attempted
    return record, attempted, untraced.failed + traced.failed


def setup_seconds(import_s: float, setups) -> float:
    """Host-normalized ``setup_s``: the imports plus the median set-up.

    ``setups`` holds ``(seconds, slowdown)``; the imports are normalized
    by the first set-up's probe, the nearest one.
    """
    return (import_s / setups[0][1]
            + statistics.median(sec / slow for sec, slow in setups))


def raw_facts(seconds, setups, slowdowns) -> dict:
    """The unnormalized figures, recorded beside the metrics."""
    import metrics

    return {
        "raw_op_s_p50": metrics.median(seconds),
        "raw_setup_runs_s": [sec for sec, _ in setups],
        "slowdown_p50": metrics.median(slowdowns),
        "slowdown_min": min(slowdowns),
        "slowdown_max": max(slowdowns),
    }


def client_facts(phase) -> dict:
    """Per-layer serve metrics seen from the client side."""
    import metrics

    ok = [r for r in phase.replies if r.ok]
    warm = [r.seconds for r in ok if r.state == "warm"]
    cold = [r.seconds for r in ok if r.state == "cold"]
    n = len(ok) or 1
    return {
        "serve.warm_share": len(warm) / n,
        "serve.coalesced_share": sum(r.state == "coalesced" for r in ok) / n,
        "serve.warm_ms_p50": metrics.median(warm) * 1000.0,
        "serve.response_kb": sum(r.nbytes for r in ok) / n / 1024.0,
        "serve.cold_s_p50": metrics.median(cold),
        "serve.rejected": float(sum(r.status == 429 for r in phase.replies)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the server child is stopped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cells
    import metrics

    nproc = len(os.sched_getaffinity(0))
    # One CPU for the benchmark, the program and the server it spawns:
    # the host probe then measures the CPU the work runs on. The
    # server's compute holds the GIL, so it is one CPU's work anyway.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if args.workload != "serve-mix":
        import repro.core  # noqa: F401  (import time is part of set-up)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    reference = cells.load_reference()[args.workload]
    rng = random.Random(args.seed)
    try:
        if args.workload == "serve-mix":
            record, attempted, failed = serve(args, work, reference, rng)
        else:
            record, attempted, failed = in_process(args, work, reference, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = record["metrics"]
    printed = {name: {"value": values[name], "unit": unit}
               for name, unit in catalogue.items()}
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, host=dict(host_facts(), nproc=nproc, cpu=cpu),
        attempted=attempted, failed=failed,
    )
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(detail, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"trace: {args.trace}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    for name, fact in sorted(record.get("facts", {}).items()):
        if not isinstance(fact, (dict, list)):
            print(f"  {name}: {fact}")
    for name in record.get("absent_metrics", []):
        print(f"  absent: {name}")
    for error in record.get("errors", [])[:10]:
        print(f"  error: {error}")
    for name, metric in printed.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"detail: {detail}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
