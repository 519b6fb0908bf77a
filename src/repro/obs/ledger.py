"""Append-only run ledger: the perf trajectory across runs and PRs.

Every instrumented run produces a manifest — but manifests are
files-next-to-results, so the *trajectory* (did throughput regress
since last week? which config produced that number?) is lost unless
something keeps them. The ledger is that something: an append-only
JSONL file where ``run_system`` and the bench harness append one entry
per run, keyed by the trace-store content key, the configuration
fingerprint, and (best-effort) the git revision. ``repro history``
lists, filters, and regression-diffs entries through the same
:func:`~repro.obs.manifest_diff.diff_manifests` gate CI uses.

JSONL was chosen over a database on purpose: appends are atomic enough
for one writer per line, the file diffs and greps, and a reader that
hits a torn or foreign line skips it instead of failing — the ledger
must never take a run down with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = [
    "LEDGER_SCHEMA",
    "ENV_LEDGER",
    "git_rev",
    "make_entry",
    "append_entry",
    "read_entries",
    "filter_entries",
    "format_history",
]

#: Schema tag stamped on every ledger line.
LEDGER_SCHEMA = "omega-repro/run-ledger/v1"

#: Environment variable naming the ledger file; when set,
#: :meth:`repro.core.context.RunContext.from_env` picks it up as the
#: run's ``ledger_path``.
ENV_LEDGER = "REPRO_LEDGER"


def git_rev() -> Optional[str]:
    """Best-effort git revision of the working tree, or ``None``.

    Never raises: a missing git binary, a non-repo working directory,
    or a timeout all degrade to ``None`` — provenance is optional.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def make_entry(manifest: Dict, kind: str = "run",
               trace_key: Optional[str] = None,
               timestamp: Optional[float] = None,
               rev: Optional[str] = None) -> Dict:
    """Build one ledger entry around a run (or bench) manifest.

    ``kind`` distinguishes full-system runs (``"run"``) from bench
    harness entries (``"bench"``). The identity key combines the
    trace-store content key (when the run went through the store), the
    config fingerprint from the manifest, and the git revision — enough
    to answer "same workload, same config, different code?" across the
    whole trajectory.
    """
    if kind not in ("run", "bench"):
        raise ReproError(f"ledger kind must be 'run' or 'bench', got {kind!r}")
    cache = manifest.get("trace_cache") or {}
    config = manifest.get("config") or {}
    return {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "timestamp": float(time.time() if timestamp is None else timestamp),
        "key": {
            "trace": trace_key or cache.get("key"),
            "config": config.get("hash"),
            "git": git_rev() if rev is None else rev,
        },
        "manifest": manifest,
    }


def append_entry(path, entry: Dict) -> None:
    """Append one entry to the ledger file (parents created on demand)."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def read_entries(path) -> List[Dict]:
    """Read every well-formed ledger entry from ``path``.

    Torn, malformed, or foreign-schema lines are silently skipped — a
    half-written tail must not block reading the history before it.
    Raises :class:`~repro.errors.ReproError` only when the file itself
    cannot be read.
    """
    try:
        with open(path) as f:
            raw = f.read()
    except OSError as exc:
        raise ReproError(f"cannot read ledger {path}: {exc}") from exc
    entries = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and doc.get("schema") == LEDGER_SCHEMA:
            entries.append(doc)
    return entries


def filter_entries(entries: List[Dict], kind: Optional[str] = None,
                   dataset: Optional[str] = None,
                   algorithm: Optional[str] = None,
                   backend: Optional[str] = None) -> List[Dict]:
    """Subset of ``entries`` matching every given identity filter."""
    out = []
    for e in entries:
        manifest = e.get("manifest") or {}
        if kind is not None and e.get("kind") != kind:
            continue
        if dataset is not None and manifest.get("dataset") != dataset:
            continue
        if algorithm is not None and manifest.get("algorithm") != algorithm:
            continue
        if backend is not None and manifest.get("backend") != backend:
            continue
        out.append(e)
    return out


def format_history(entries: List[Dict]) -> str:
    """Human-readable one-line-per-entry history table."""
    header = (
        f"{'when':19} {'kind':5} {'dataset':12} {'algorithm':10}"
        f" {'backend':9} {'cycles':>14} {'git':9} trace"
    )
    lines = [header, "-" * len(header)]
    for e in entries:
        manifest = e.get("manifest") or {}
        key = e.get("key") or {}
        timing = manifest.get("timing") or {}
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(e.get("timestamp", 0))
        )
        cycles = timing.get("total_cycles")
        rev = key.get("git") or "-"
        trace = key.get("trace") or "-"
        lines.append(
            f"{when:19} {e.get('kind', '?'):5}"
            f" {str(manifest.get('dataset', '?')):12}"
            f" {str(manifest.get('algorithm', '?')):10}"
            f" {str(manifest.get('backend', '?')):9}"
            f" {(f'{cycles:.6g}' if cycles is not None else '-'):>14}"
            f" {str(rev)[:8]:9} {str(trace)[:16]}"
        )
    return "\n".join(lines) + "\n"
