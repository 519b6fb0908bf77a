"""Explicit run configuration: :class:`RunContext` and :class:`RunRequest`.

The drivers in :mod:`repro.core.system` take exactly these two values:

- :class:`RunRequest` says *what* to run — algorithm, backend,
  dataset label, scheduling, output paths, algorithm kwargs — as one
  serializable value, so a sweep worker or a ``repro serve`` job can
  carry the complete run description across a process or socket
  boundary.
- :class:`RunContext` says *with which surroundings* — store handle,
  segment size, attribution flag, ledger path, scalar-oracle flag, obs
  sinks. It is a frozen snapshot: threads can each carry their own
  context, and nothing a concurrent run does can change it.

:meth:`RunContext.from_env` is the **only** place in ``src/repro``
that reads ``REPRO_*`` environment variables (machine-enforced by the
ENV001 lint rule) and the only code that resolves the trace store and
the scalar-oracle flag. Both values check their fields on
construction and reject a bad one with a
:class:`~repro.errors.SimulationError` naming the field.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, NoReturn, Optional, Sequence, Union

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.obs.ledger import ENV_LEDGER
from repro.store import TraceStore
from repro.store.store import ENV_CACHE_CAPACITY_MB, ENV_CACHE_DIR

__all__ = [
    "DEFAULT_NUM_CORES",
    "ENV_SEGMENT_EVENTS",
    "ENV_ATTRIBUTION",
    "ENV_SCALAR_CACHE",
    "RunContext",
    "RunRequest",
    "attribution_from_env",
    "cache_capacity_from_env",
    "ledger_path_from_env",
    "scalar_cache_from_env",
    "segment_events_from_env",
    "store_from_env",
]

#: Environment fallback for the out-of-core streaming segment size: a
#: positive integer turns on streaming for every run in the process.
ENV_SEGMENT_EVENTS = "REPRO_SEGMENT_EVENTS"

#: Environment fallback for per-class traffic attribution: a truthy
#: value ("1", "true", "on", "yes") turns it on for every run.
ENV_ATTRIBUTION = "REPRO_ATTRIBUTION"

#: Environment escape hatch forcing the scalar reference cache oracle
#: (``"1"`` forces it; anything else keeps the batch kernel).
ENV_SCALAR_CACHE = "REPRO_SCALAR_CACHE"

#: Core count of a config the drivers derive (Table III's 16 cores).
DEFAULT_NUM_CORES = 16

#: Values of :data:`ENV_ATTRIBUTION` that mean "on".
_TRUTHY = ("1", "true", "on", "yes")

#: :class:`RunRequest` fields that name an output file.
_PATH_FIELDS = (
    "manifest_path", "trace_path", "timeline_path", "attribution_path",
)


def _environ(environ: Optional[Mapping[str, str]]) -> Mapping[str, str]:
    return os.environ if environ is None else environ


def _reject(name: str, value: Any, expected: str) -> NoReturn:
    raise SimulationError(f"{name} must be {expected}, got {value!r}")


def _check_int(name: str, value: Any, minimum: int,
               optional: bool = True) -> None:
    if value is None and optional:
        return
    if not isinstance(value, numbers.Integral) or value < minimum:
        _reject(name, value, f"an integer >= {minimum}"
                + (" or None" if optional else ""))


def _check_flag(name: str, value: Any) -> None:
    if value not in (True, False):
        _reject(name, value, "a bool")


def _check_choice(name: str, value: Any, known: Sequence[str]) -> None:
    if value not in known:
        raise SimulationError(
            f"unknown {name} {value!r}; available: {', '.join(known)}"
        )


def cache_capacity_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """``REPRO_CACHE_CAPACITY_MB`` as bytes, or ``None`` when unset."""
    env_mb = _environ(environ).get(ENV_CACHE_CAPACITY_MB)
    if not env_mb:
        return None
    return int(float(env_mb) * 1024 * 1024)


def store_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[TraceStore]:
    """The store ``REPRO_CACHE_DIR`` names, or ``None`` (caching off).

    Its capacity is ``REPRO_CACHE_CAPACITY_MB`` when that is set.
    """
    root = _environ(environ).get(ENV_CACHE_DIR)
    if not root:
        return None
    return TraceStore(root, capacity_bytes=cache_capacity_from_env(environ))


def segment_events_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """``REPRO_SEGMENT_EVENTS`` as a positive int, or ``None`` (off).

    Raises :class:`~repro.errors.SimulationError` on a non-integer
    value; 0 and negative values mean off, like an explicit argument.
    """
    env = _environ(environ).get(ENV_SEGMENT_EVENTS)
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise SimulationError(
            f"{ENV_SEGMENT_EVENTS}={env!r} is not an integer"
        )
    return value if value > 0 else None


def attribution_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> bool:
    """Whether ``REPRO_ATTRIBUTION`` holds a truthy value."""
    env = _environ(environ).get(ENV_ATTRIBUTION, "").strip().lower()
    return env in _TRUTHY


def ledger_path_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """The ledger file ``REPRO_LEDGER`` names ('' and unset mean off)."""
    env = _environ(environ).get(ENV_LEDGER, "")
    return env or None


def scalar_cache_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> bool:
    """Whether ``REPRO_SCALAR_CACHE=1`` forces the scalar oracle."""
    return _environ(environ).get(ENV_SCALAR_CACHE, "") == "1"


@dataclass(frozen=True)
class RunContext:
    """Immutable snapshot of a run's surroundings.

    Construct one per logical run (or per worker thread) and pass it
    to a driver's ``context=``. A context is never mutated after
    construction — derive variants with :meth:`with_options` — so
    concurrent runs in one process cannot observe each other's
    configuration, which is exactly the property ``repro serve``'s
    worker threads rely on. A given context is authoritative: no
    environment variable is read anywhere in a run that carries one.
    """

    #: Trace store handle, or ``None`` for caching off. A warm hit
    #: skips reorder and algorithm execution and yields bit-identical
    #: simulated counters. Build one from a path with
    #: ``TraceStore(path)`` or ``RunContext.from_env(cache=path)``.
    store: Optional[TraceStore] = None
    #: Out-of-core streaming segment size in trace events (``None`` =
    #: whole-trace in-core). When set the whole pipeline runs with
    #: bounded resident memory: generation spools completed barrier
    #: spans to a segmented archive, a warm store hit streams segments
    #: without rehydrating the trace, and replay consumes one segment
    #: at a time. Simulated counters are bit-identical to the in-core
    #: run.
    segment_events: Optional[int] = None
    #: Fold per-class traffic attribution during the replay: every
    #: event resolves to its graph entity (vertex properties by degree
    #: stratum, CSR offsets/edges, frontier) and the per-class counters
    #: — conserved bit-identically against the aggregate ``MemStats`` —
    #: land in the manifest's ``attribution`` block and (when tracing)
    #: as Perfetto counter tracks.
    attribution: bool = False
    #: Run-ledger JSONL file: after the run, append one entry — the
    #: manifest keyed by trace-store key, config hash and git revision
    #: (see :mod:`repro.obs.ledger` and ``repro history``). ``None`` =
    #: off.
    ledger_path: Optional[Union[str, os.PathLike]] = None
    #: Replay the cache path through the scalar reference oracle
    #: instead of the compiled kernel (``REPRO_SCALAR_CACHE=1``).
    scalar_cache: bool = False
    #: Obs sinks: a :class:`repro.obs.SpanTracer` and a
    #: :class:`repro.obs.MetricsRegistry`. ``None`` falls back to the
    #: thread's installed sink (no-op by default).
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.store is not None and not isinstance(self.store, TraceStore):
            _reject("store", self.store, "a TraceStore or None (for a path,"
                    " use RunContext.from_env(cache=path))")
        _check_int("segment_events", self.segment_events, 1)
        _check_flag("attribution", self.attribution)
        _check_flag("scalar_cache", self.scalar_cache)
        if self.ledger_path is not None and not isinstance(
            self.ledger_path, (str, os.PathLike)
        ):
            _reject("ledger_path", self.ledger_path, "a path or None")

    @classmethod
    def from_env(
        cls,
        *,
        cache: Union[None, bool, str, os.PathLike, TraceStore] = None,
        segment_events: Optional[int] = None,
        attribution: Optional[bool] = None,
        attribution_path: Optional[Union[str, os.PathLike]] = None,
        ledger_path: Optional[Union[str, os.PathLike]] = None,
        scalar_cache: Optional[bool] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        environ: Optional[Mapping[str, str]] = None,
    ) -> "RunContext":
        """Build a context from explicit overrides plus the environment.

        This classmethod is the single sanctioned reader of ``REPRO_*``
        environment variables in ``src/repro`` (rule ENV001). Every
        parameter is an explicit override that wins over the
        environment; ``None`` means "consult the environment":

        - ``cache``: ``False`` disables caching, a path selects a
          :class:`~repro.store.TraceStore` there (capped at
          ``REPRO_CACHE_CAPACITY_MB`` when set), a store is used as is,
          and ``None``/``True`` resolve ``REPRO_CACHE_DIR``.
        - ``segment_events``: 0 and negative values mean off.
        - ``attribution_path`` implies ``attribution=True`` unless
          ``attribution`` explicitly disables it.
        - ``environ`` substitutes a mapping for ``os.environ`` (tests).
        """
        store: Optional[TraceStore]
        if cache is False:
            store = None
        elif isinstance(cache, TraceStore):
            store = cache
        elif isinstance(cache, (str, os.PathLike)):
            store = TraceStore(
                cache, capacity_bytes=cache_capacity_from_env(environ)
            )
        else:
            store = store_from_env(environ)

        if segment_events is None:
            segment_events = segment_events_from_env(environ)
        elif isinstance(segment_events, numbers.Integral) \
                and segment_events <= 0:
            segment_events = None

        if attribution is None:
            attribution = (
                attribution_path is not None or attribution_from_env(environ)
            )

        if ledger_path is None:
            ledger_path = ledger_path_from_env(environ)
        else:
            ledger_path = os.fspath(ledger_path)

        if scalar_cache is None:
            scalar_cache = scalar_cache_from_env(environ)

        return cls(
            store=store,
            segment_events=segment_events,
            attribution=attribution,
            ledger_path=ledger_path,
            scalar_cache=scalar_cache,
            tracer=tracer,
            metrics=metrics,
        )

    def with_options(self, **changes: Any) -> "RunContext":
        """A copy with the given fields replaced (contexts are frozen)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Cross-process serialization (sweep workers, serve jobs)
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """JSON-able description of this context (obs sinks excluded).

        The store handle is flattened to its root path and capacity;
        :meth:`from_spec` rebuilds an equivalent context on the other
        side of a process boundary. Tracer/metrics sinks do not cross
        — the receiving side installs its own.
        """
        return {
            "cache_dir": None if self.store is None else str(self.store.root),
            "cache_capacity_bytes": (
                None if self.store is None else int(self.store.capacity_bytes)
            ),
            "segment_events": self.segment_events,
            "attribution": self.attribution,
            "ledger_path": (
                None if self.ledger_path is None
                else os.fspath(self.ledger_path)
            ),
            "scalar_cache": self.scalar_cache,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "RunContext":
        """Rebuild a context from :meth:`to_spec` output.

        Never consults the environment: a worker that receives a spec
        runs with exactly the configuration its parent resolved.
        """
        cache_dir = spec.get("cache_dir")
        store = None
        if cache_dir:
            store = TraceStore(
                cache_dir,
                capacity_bytes=spec.get("cache_capacity_bytes"),
            )
        segment_events = spec.get("segment_events")
        return cls(
            store=store,
            segment_events=(
                int(segment_events) if segment_events else None
            ),
            attribution=bool(spec.get("attribution", False)),
            ledger_path=spec.get("ledger_path"),
            scalar_cache=bool(spec.get("scalar_cache", False)),
        )


@dataclass(frozen=True)
class RunRequest:
    """One run's workload description, as a serializable value.

    A request says *what* to run and a :class:`RunContext` *with which
    surroundings*. ``config`` stays a separate driver argument (it is
    a rich object); when omitted, the driver derives it from
    ``backend`` and ``num_cores`` via
    :func:`repro.core.system.default_backend_config`.
    """

    #: Registered algorithm name (see :mod:`repro.algorithms.registry`).
    algorithm: str
    #: Registered hierarchy-backend name (``baseline``, ``omega``,
    #: ``locked``, ``graphpim``, ``dynamic``, or an extension registered
    #: via :func:`repro.memsim.backends.register_backend`). ``None``
    #: infers it from the config: ``config.use_scratchpad`` selects
    #: OMEGA, otherwise the baseline CMP (OMEGA without a config).
    backend: Optional[str] = None
    #: Label recorded in the report.
    dataset: str = ""
    #: OpenMP static-schedule chunk for the engine (mirrors
    #: ``DEFAULT_CHUNK_SIZE``).
    chunk_size: Optional[int] = 32
    #: Scratchpad-mapping chunk; ``None`` uses ``chunk_size`` (the
    #: matched configuration of Section V-D). A different value
    #: reproduces the mismatch experiment.
    sp_chunk_size: Optional[int] = None
    #: Apply nth-element in-degree reordering before running. ``None``
    #: defaults per backend: on for OMEGA and the locked cache (their
    #: required preprocessing), off for the baseline, GraphPIM and the
    #: dynamic scratchpad (which run the original ordering).
    reorder: Optional[bool] = None
    #: Core count. ``None`` means the config's own count when the driver
    #: is given a config, and :data:`DEFAULT_NUM_CORES` when it derives
    #: one; a count that disagrees with a given config is rejected (see
    #: :meth:`core_count`).
    num_cores: Optional[int] = None
    #: Write the run manifest
    #: (:meth:`~repro.core.report.SimReport.manifest`) as JSON here.
    manifest_path: Optional[str] = None
    #: Record nested phase spans (graph reorder → trace generation →
    #: per-edgeMap sweeps → replay windows) and write them as Chrome
    #: trace-event JSON here (viewable in Perfetto). A tracer already
    #: installed via :func:`repro.obs.use_tracer` is reused instead.
    trace_path: Optional[str] = None
    #: Sample the replay every ``obs_window`` events and write the
    #: windowed metrics timeline here (columnar JSON, or CSV when the
    #: path ends in ``.csv``).
    timeline_path: Optional[str] = None
    #: Replay sampling window in trace events. ``None`` disables
    #: sampling unless ``timeline_path`` is given; 0 auto-sizes for
    #: about 64 windows.
    obs_window: Optional[int] = None
    #: Write the attribution block as standalone JSON here (a context
    #: built by the driver then turns attribution on).
    attribution_path: Optional[str] = None
    #: Extra arguments for the algorithm runner (source vertex, etc.);
    #: each name must be a parameter of the registered runner.
    alg_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.algorithms.registry import ALGORITHMS, runner_kwargs
        from repro.memsim.backends import backend_names

        _check_choice("algorithm", self.algorithm, list(ALGORITHMS))
        if self.backend is not None:
            _check_choice("backend", self.backend, backend_names())
        _check_int("chunk_size", self.chunk_size, 1)
        _check_int("sp_chunk_size", self.sp_chunk_size, 1)
        if self.reorder is not None:
            _check_flag("reorder", self.reorder)
        _check_int("num_cores", self.num_cores, 1)
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str, os.PathLike)):
                _reject(name, value, "a path or None")
        _check_int("obs_window", self.obs_window, 0)
        if not isinstance(self.alg_kwargs, Mapping):
            _reject("alg_kwargs", self.alg_kwargs, "a mapping")
        accepted = runner_kwargs(self.algorithm)
        unknown = sorted(set(self.alg_kwargs) - set(accepted))
        if unknown:
            raise SimulationError(
                f"alg_kwargs: {self.algorithm} takes no argument"
                f" {', '.join(map(repr, unknown))};"
                f" accepted: {', '.join(accepted) or 'none'}"
            )
        object.__setattr__(self, "alg_kwargs", dict(self.alg_kwargs))

    def core_count(self, config: Optional[SimConfig] = None) -> int:
        """The run's core count under ``config`` (``None``: derived).

        With a config, its own count; a ``num_cores`` that disagrees
        raises a :class:`SimulationError` naming the field rather than
        being ignored. Without one, ``num_cores``, else
        :data:`DEFAULT_NUM_CORES`.
        """
        if config is None:
            return (DEFAULT_NUM_CORES if self.num_cores is None
                    else int(self.num_cores))
        cores = config.core.num_cores
        if self.num_cores is not None and self.num_cores != cores:
            raise SimulationError(
                f"num_cores: the request asks for {self.num_cores} cores"
                f" but the config has {cores}; leave num_cores unset to"
                " use the config's"
            )
        return cores

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (for sweep payloads and serve job specs)."""
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "dataset": self.dataset,
            "chunk_size": self.chunk_size,
            "sp_chunk_size": self.sp_chunk_size,
            "reorder": self.reorder,
            "num_cores": self.num_cores,
            "manifest_path": self.manifest_path,
            "trace_path": self.trace_path,
            "timeline_path": self.timeline_path,
            "obs_window": self.obs_window,
            "attribution_path": self.attribution_path,
            "alg_kwargs": dict(self.alg_kwargs),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        known = {
            "algorithm", "backend", "dataset", "chunk_size",
            "sp_chunk_size", "reorder", "num_cores", "manifest_path",
            "trace_path", "timeline_path", "obs_window",
            "attribution_path", "alg_kwargs",
        }
        fields = {k: doc[k] for k in known if k in doc}
        if "algorithm" not in fields:
            raise SimulationError("RunRequest needs an 'algorithm'")
        if fields.get("alg_kwargs") is None:
            fields["alg_kwargs"] = {}
        return cls(**fields)
