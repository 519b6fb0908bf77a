"""The two in-process workloads: replay-warm and estimate-cold.

Each workload is a closed loop with one client: the next op starts
when the previous one returns. An op is one public-API request; its
output is checked against the pinned reference before the next op.
Calls go through module attributes (``system.run_system``,
``datasets.load_dataset``) so a traced run sees them.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import cells
import probe
from harness import SpanRecorder

#: Trace-store capacity for the benchmark's stores: large enough that
#: nothing is evicted, and explicit so no environment variable is read.
STORE_CAPACITY = 8 << 30


@dataclass
class OpResult:
    seconds: float
    ok: bool
    events: int = 0
    error: str = ""
    label: str = ""
    #: Host slowdown probed just before the op (see ``probe.py``).
    slowdown: float = 1.0


@dataclass
class Phase:
    """The ops of one timed loop."""

    ops: List[OpResult] = field(default_factory=list)
    wall: float = 0.0
    #: Root span ids of the ops (traced phases only).
    roots: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def errors(self) -> List[str]:
        return [op.error for op in self.ops if op.error]


def run_loop(deck: Callable[[], List[Any]], op: Callable[[Any], OpResult],
             label: Callable[[Any], str], seconds: float,
             recorder: Optional[SpanRecorder] = None,
             min_ops: int = 0) -> Phase:
    """Run whole passes over ``deck()`` until ``seconds`` have elapsed
    and at least ``min_ops`` ops have run.

    Only whole passes run, so every run times the same mix of cells
    whatever its length. An op that raises counts as failed.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        for item in deck():
            name = label(item)
            slow = probe.slowdown()
            if recorder is None:
                result = _guarded(op, item)
            else:
                with recorder.span("bench.op", label=name) as scope:
                    result = _guarded(op, item)
                phase.roots.append(scope.id)
            result.label, result.slowdown = name, slow
            phase.ops.append(result)
        phase.wall = time.perf_counter() - start
        if phase.wall >= seconds and len(phase.ops) >= min_ops:
            return phase


def _guarded(op, item) -> OpResult:
    try:
        return op(item)
    except Exception as exc:  # an op failure is a measured outcome
        return OpResult(0.0, False, error=f"{type(exc).__name__}: {exc}")


class Workload:
    """Set-up plus a deck of ops; subclasses fill in the specifics."""

    #: A timed loop runs at least this many ops: at least 100, so that
    #: its tail is always the 90th percentile (ten samples beyond it).
    min_ops = 100

    def __init__(self, work: Path, reference: Dict[str, str],
                 rng: random.Random) -> None:
        self.work = work
        self.reference = reference
        self.rng = rng
        self._dirs = 0

    def graphs_for(self, cell_list) -> Dict[Tuple, Any]:
        from repro.graph import datasets

        graphs: Dict[Tuple, Any] = {}
        for cell in cell_list:
            if cell.graph_key not in graphs:
                graphs[cell.graph_key] = cells.load_graph(datasets, cell)
        return graphs

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check(self, cell, got: str) -> Tuple[bool, str]:
        want = self.reference.get(cell.id)
        if got != want:
            return False, f"{cell.id}: digest {got} != reference {want}"
        return True, ""


class ReplayWarm(Workload):
    """``run_system`` over a trace store primed during set-up."""

    def setup(self) -> None:
        from repro.core import RunContext, RunRequest, system
        from repro.store import TraceStore

        if getattr(self, "store", None) is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = TraceStore(self.fresh_dir("replay-store"),
                                capacity_bytes=STORE_CAPACITY)
        self.graphs = self.graphs_for(cells.replay_cells())
        # Baseline replays the original vertex order and omega the
        # reordered one; together they store every trace a cell reads.
        context = RunContext(store=self.store)
        for ds, sc, alg in cells.REPLAY_SPEC:
            for backend in ("baseline", "omega"):
                cell = cells.Cell(ds, sc, alg, backend)
                system.estimate_system(
                    self.graphs[cell.graph_key],
                    request=RunRequest(algorithm=alg, backend=backend,
                                       dataset=ds),
                    context=context,
                )

    def __init__(self, work: Path, reference: Dict[str, str],
                 rng: random.Random) -> None:
        super().__init__(work, reference, rng)
        self.ops = cells.replay_ops()

    def deck(self) -> List[Tuple[cells.Cell, str]]:
        deck = list(self.ops)
        self.rng.shuffle(deck)
        return deck

    @staticmethod
    def label(item) -> str:
        cell, mode = item
        return f"{cell.id} {mode}"

    def op(self, item) -> OpResult:
        from repro.core import RunContext, RunRequest, system

        cell, mode = item
        graph = self.graphs[cell.graph_key]
        request = RunRequest(algorithm=cell.algorithm, backend=cell.backend,
                             dataset=cell.dataset)
        context = RunContext(
            store=self.store,
            attribution=mode == "attributed",
            segment_events=(
                cells.SEGMENT_EVENTS if mode == "streamed" else None
            ),
        )
        t0 = time.perf_counter()
        report = system.run_system(graph, request=request, context=context)
        report.manifest()
        seconds = time.perf_counter() - t0
        ok, error = self.check(cell, cells.report_digest(report))
        if ok and not report.trace_cache.get("hit"):
            ok, error = False, f"{cell.id}: trace store miss"
        if ok and (mode == "streamed") != bool(report.streamed):
            ok, error = False, f"{cell.id}: streamed={report.streamed}"
        if ok and (mode == "attributed") != (report.attribution is not None):
            ok, error = False, f"{cell.id}: attribution missing or extra"
        return OpResult(seconds, ok, report.trace_events, error)


class EstimateCold(Workload):
    """``estimate_system`` where every op misses the trace store."""

    #: Ten copies of each cell: the median op is the middle cell's
    #: median, and these ops vary more (each writes the store).
    min_ops = 200

    def setup(self) -> None:
        self.graphs = self.graphs_for(cells.estimate_cells())

    def deck(self) -> List[cells.Cell]:
        return cells.estimate_deck(self.rng)

    @staticmethod
    def label(cell) -> str:
        return cell.id

    def op(self, cell) -> OpResult:
        from repro.core import RunContext, RunRequest, system
        from repro.store import TraceStore

        store = TraceStore(self.fresh_dir("estimate-store"),
                           capacity_bytes=STORE_CAPACITY)
        request = RunRequest(algorithm=cell.algorithm, backend=cell.backend,
                             dataset=cell.dataset)
        context = RunContext(store=store)
        graph = self.graphs[cell.graph_key]
        try:
            t0 = time.perf_counter()
            estimate = system.estimate_system(graph, request=request,
                                              context=context)
            seconds = time.perf_counter() - t0
            ok, error = self.check(cell, cells.estimate_digest(estimate))
            if ok and len(store) != 1:
                ok, error = False, f"{cell.id}: {len(store)} store entries"
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        return OpResult(seconds, ok, estimate.events, error)
