"""Traced-run harness: spans around the calls into each layer.

The program is not edited. :class:`Harness` is a context manager that
replaces a fixed list of public callables -- module functions at the
place the caller looks them up, and methods on their classes -- with
wrappers that open a span in a :class:`SpanRecorder` and record counts
at the same boundary. Every replaced attribute is put back on exit,
also when the body raises. A target that no longer exists is listed in
``Harness.absent`` instead of failing the run.

Span names are ``<layer>.<boundary>``; the layer is the part before the
first dot and is named after the module (``graph``, ``ligra``,
``store``, ``memsim``, ``obs``, ``core``, ``serve``). Spans stay in
memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

@dataclass(frozen=True)
class Span:
    """One finished span. ``root`` is the id of the request it serves."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans and counters; safe to share between threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Root span id -> the label the benchmark gave that request.
        self.labels: Dict[int, str] = {}
        #: Scratch timestamps shared between wrappers (not dumped).
        self.marks: Dict[str, float] = {}
        #: The ``extra`` fields of a loaded dump.
        self.extra: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, label: Optional[str] = None) -> "_SpanScope":
        """Open a span; nested calls on the same thread become children."""
        return _SpanScope(self, name, label)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: str, **extra: Any) -> None:
        """Write spans, counts, labels and ``extra`` as one JSON document."""
        doc = {
            **extra,
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, s.root, s.thread]
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "labels": {str(k): v for k, v in self.labels.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        with open(path) as f:
            doc = json.load(f)
        rec = cls()
        rec.spans = [Span(*row) for row in doc.pop("spans")]
        rec.counts.update(doc.pop("counts"))
        rec.labels = {int(k): v for k, v in doc.pop("labels").items()}
        rec.extra = doc
        return rec


class _SpanScope:
    __slots__ = ("_rec", "_name", "_label", "id", "_parent", "_root",
                 "_start")

    def __init__(self, rec: SpanRecorder, name: str,
                 label: Optional[str]) -> None:
        self._rec = rec
        self._name = name
        self._label = label

    def __enter__(self) -> "_SpanScope":
        stack = self._rec._stack()
        self.id = next(self._rec._ids)
        if stack:
            self._parent, self._root = stack[-1]
        else:
            self._parent, self._root = None, self.id
        stack.append((self.id, self._root))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        rec = self._rec
        rec._stack().pop()
        rec.spans.append(Span(
            self.id, self._name, self._start, end, self._parent,
            self._root, threading.get_ident(),
        ))
        if self._label is not None:
            rec.labels[self.id] = self._label
        return False


# ----------------------------------------------------------------------
# Folding spans into self times
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children (threads) are not subtracted twice.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def fold(spans: Iterable[Span],
         roots: Optional[Iterable[int]] = None) -> Dict[str, float]:
    """Self seconds summed per span name, over the requests in ``roots``.

    ``roots=None`` folds every span.
    """
    spans = list(spans)
    if roots is not None:
        keep = set(roots)
        spans = [s for s in spans if s.root in keep]
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


def by_layer(totals: Dict[str, float]) -> Dict[str, float]:
    """Fold per-name self seconds into per-layer self seconds."""
    out: Dict[str, float] = defaultdict(float)
    for name, seconds in totals.items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
Counter = Callable[[SpanRecorder, tuple, dict, Any], None]
Wrapper = Callable[[SpanRecorder, Callable], Callable]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is ``"package.module"`` or ``"package.module:Class"``;
    ``count`` records counters from ``(args, kwargs, result)`` after the
    call; ``wrap`` replaces the default span wrapper altogether.
    """

    span: str
    owner: str
    attr: str
    count: Optional[Counter] = None
    wrap: Optional[Wrapper] = None

    @property
    def where(self) -> str:
        return f"{self.owner}.{self.attr}"


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    if cls_name:
        obj = getattr(obj, cls_name, None)
    return obj


def _span_wrapper(rec: SpanRecorder, target: Target, fn: Callable):
    name, count = target.span, target.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    return wrapper


class Harness:
    """Install span wrappers on enter; restore every attribute on exit."""

    def __init__(self, recorder: SpanRecorder,
                 targets: Iterable[Target]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        #: ``owner.attr`` of each target that could not be found.
        self.absent: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Harness":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _install(self, target: Target) -> None:
        owner = _resolve(target.owner)
        fn = getattr(owner, target.attr, None) if owner is not None else None
        if fn is None or not callable(fn):
            self.absent.append(target.where)
            return
        if inspect.isclass(owner):
            raw = owner.__dict__.get(target.attr, _MISSING)
            if isinstance(raw, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap descriptor {target.where}")
        else:
            raw = fn
        if target.wrap is not None:
            wrapper = target.wrap(self.recorder, fn)
        else:
            wrapper = _span_wrapper(self.recorder, target, fn)
        setattr(owner, target.attr, wrapper)
        self._saved.append((owner, target.attr, raw))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# The layer boundaries this benchmark times
# ----------------------------------------------------------------------
def _count_trace(rec, args, kwargs, trace) -> None:
    rec.count("ligra.events", trace.num_events)
    rec.count("ligra.trace_bytes", trace.nbytes)


def _count_load(rec, args, kwargs, entry) -> None:
    if entry is None:
        rec.count("store.misses")
        return
    rec.count("store.hits")
    rec.count("store.load_bytes", entry[0].nbytes)


def _count_store(rec, args, kwargs, _result) -> None:
    trace = args[2] if len(args) > 2 else kwargs["trace"]
    rec.count("store.write_bytes", trace.nbytes)


def _count_adopt(rec, args, kwargs, _result) -> None:
    key = args[1] if len(args) > 1 else kwargs["key"]
    rec.count("store.write_bytes", os.path.getsize(args[0].trace_path(key)))


def _count_segment(rec, args, kwargs, _result) -> None:
    rec.count("memsim.segments")


def _count_screen(rec, args, kwargs, result) -> None:
    rec.count("memsim.screened", int(result[0].sum()))


def _count_cache_path(rec, args, kwargs, _result) -> None:
    cores = args[1] if len(args) > 1 else kwargs["cores"]
    rec.count("memsim.cache_events", len(cores))


def _wrap_runner_factory(rec: SpanRecorder, make_runner: Callable):
    """Wrap ``make_system_runner`` so every job it runs is one span.

    The queue wait of a job is the time from the ``submit`` call that
    queued it (see :func:`_wrap_submit`) to the runner starting.
    """
    from repro.serve.jobs import job_key

    @functools.wraps(make_runner)
    def factory(*args, **kwargs):
        runner = make_runner(*args, **kwargs)

        @functools.wraps(runner)
        def traced_runner(spec, progress):
            started = time.perf_counter()
            queued = rec.marks.pop(job_key(spec), None)
            if queued is not None:
                rec.count("serve.queue_wait_s", started - queued)
            with rec.span("serve.compute"):
                manifest = runner(spec, progress)
            rec.count("serve.jobs")
            rec.count("serve.compute_s", time.perf_counter() - started)
            return manifest

        return traced_runner

    return factory


def _wrap_submit(rec: SpanRecorder, submit: Callable):
    @functools.wraps(submit)
    def wrapper(self, spec):
        with rec.span("serve.submit"):
            state, job, manifest = submit(self, spec)
        if state == "cold":
            rec.marks[job.key] = time.perf_counter()
        return state, job, manifest

    return wrapper


def backend_targets() -> List[Target]:
    """``route``/``account`` on every registered backend class that
    defines its own, so an override and its base are both timed."""
    try:
        from repro.memsim.engine import backend_names, get_backend
    except ImportError:
        return [Target("memsim.route", "repro.memsim.engine", "get_backend")]
    targets = []
    seen = set()
    for name in backend_names():
        for cls in get_backend(name).__mro__:
            for attr, span in (("route", "memsim.route"),
                               ("account", "memsim.account")):
                if attr in cls.__dict__ and (cls, attr) not in seen:
                    seen.add((cls, attr))
                    targets.append(Target(
                        span, f"{cls.__module__}:{cls.__qualname__}", attr
                    ))
    return targets


def layer_targets() -> List[Target]:
    """Every boundary the traced run wraps, in install order."""
    attribution = "repro.obs.attribution:AttributionAccumulator"
    return [
        Target("graph.load", "repro.graph.datasets", "load_dataset"),
        Target("graph.reorder", "repro.core.system", "reorder_nth_element"),
        Target("ligra.generate", "repro.core.system", "run_algorithm"),
        Target("ligra.generate", "repro.ligra.framework:LigraEngine",
               "build_trace", count=_count_trace),
        Target("store.key", "repro.core.system", "trace_key"),
        Target("store.load", "repro.store.store:TraceStore", "load",
               count=_count_load),
        Target("store.load", "repro.store.store:TraceStore",
               "open_segments", count=_count_load),
        Target("store.write", "repro.store.store:TraceStore", "store",
               count=_count_store),
        Target("store.write", "repro.store.store:TraceStore", "adopt",
               count=_count_adopt),
        Target("memsim.prepass", "repro.memsim.replay", "precompute",
               count=_count_segment),
        Target("memsim.prepass", "repro.memsim.estimate", "precompute"),
        *backend_targets(),
        Target("memsim.screen", "repro.memsim.cachestate", "screen_fixpoint",
               count=_count_screen),
        Target("memsim.cache_path", "repro.memsim.cachestate:CacheSystem",
               "replay_cache_path", count=_count_cache_path),
        Target("memsim.estimate", "repro.core.system", "estimate_replay"),
        Target("obs.attribution", "repro.obs.attribution:AttributionSpec",
               "__init__"),
        *(Target("obs.attribution", attribution, m) for m in (
            "begin", "classify", "fold_routes", "fold_cache", "verify",
            "result",
        )),
        Target("core.timing_energy", "repro.core.system", "compute_timing"),
        Target("core.timing_energy", "repro.memsim.energy:EnergyModel",
               "breakdown"),
        Target("core.manifest", "repro.core.report:SimReport", "manifest"),
        Target("core.run", "repro.core.system", "run_system"),
        Target("core.run", "repro.core.system", "estimate_system"),
        Target("serve.submit", "repro.serve.jobs:JobManager", "submit",
               wrap=_wrap_submit),
        Target("serve.compute", "repro.serve.server", "make_system_runner",
               wrap=_wrap_runner_factory),
    ]
