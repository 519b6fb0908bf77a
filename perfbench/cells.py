"""The cells each workload draws from, and their pinned reference outputs.

A cell is one (dataset, scale, algorithm, backend) request. Cells come
from the dataset registry with fixed generator seeds, so the reference
table in ``reference.json`` holds for every benchmark seed: the seed
only orders the cells and, on serve-mix, ranks their popularity.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

BACKENDS = ("baseline", "omega", "locked", "graphpim", "dynamic")

#: replay-warm: two power-law graphs and the road-network control, as
#: (dataset, scale, algorithm). lj/PageRank runs at full scale (the
#: ROADMAP's reference cell); the rest are scaled down so that one pass
#: over every cell stays short.
#: ``sd`` adds a mildly skewed graph between road and ``lj``.
REPLAY_SPEC = (
    ("lj", 1.0, "pagerank"), ("lj", 0.5, "bfs"),
    ("ic", 0.25, "pagerank"), ("ic", 0.25, "bfs"),
    ("sd", 1.0, "pagerank"),
    ("rCA", 1.0, "pagerank"), ("rCA", 1.0, "bfs"),
)
#: Streamed cells replay in segments of this many events.
SEGMENT_EVENTS = 1 << 16

#: estimate-cold: four algorithms on the power-law graphs and two on the
#: road control, on the two backends a pruned sweep compares, plus
#: generation-heavy triangle counting once. Scales as in replay-warm.
ESTIMATE_SPEC = (
    [("lj", 1.0, "pagerank")]
    + [("lj", 0.5, alg) for alg in ("bfs", "sssp", "radii")]
    + [("ic", 0.25, alg) for alg in ("pagerank", "bfs", "sssp", "radii")]
    + [("rCA", 1.0, alg) for alg in ("pagerank", "bfs")]
)
ESTIMATE_BACKENDS = ("baseline", "omega")

#: serve-mix: 50 small specs, more than the server's 32-entry warm LRU.
SERVE_DATASETS = (("sd", 1.0), ("ap", 1.0), ("rPA", 1.0), ("rCA", 1.0),
                  ("lj", 0.125))
SERVE_ALGORITHMS = ("pagerank", "bfs")


@dataclass(frozen=True)
class Cell:
    dataset: str
    scale: float
    algorithm: str
    backend: str

    @property
    def id(self) -> str:
        return f"{self.dataset}@{self.scale:g}/{self.algorithm}/{self.backend}"

    @property
    def graph_key(self) -> Tuple[str, float, bool, bool]:
        """Cells with equal keys take the same input graph."""
        from repro.algorithms.registry import ALGORITHMS

        info = ALGORITHMS[self.algorithm]
        return (self.dataset, self.scale, info.requires_weights,
                info.requires_undirected)

    def job_spec(self) -> Dict[str, Any]:
        """The ``POST /v1/jobs`` body for this cell."""
        return {
            "dataset": self.dataset, "algorithm": self.algorithm,
            "backend": self.backend, "scale": self.scale, "wait": True,
        }


def replay_cells() -> List[Cell]:
    return [Cell(ds, sc, alg, be) for ds, sc, alg in REPLAY_SPEC
            for be in BACKENDS]


def estimate_cells() -> List[Cell]:
    return [Cell("ap", 1.0, "tc", "baseline")] + [
        Cell(ds, sc, alg, be) for ds, sc, alg in ESTIMATE_SPEC
        for be in ESTIMATE_BACKENDS
    ]


def serve_cells() -> List[Cell]:
    return [Cell(ds, sc, alg, be) for ds, sc in SERVE_DATASETS
            for alg in SERVE_ALGORITHMS for be in BACKENDS]


# ----------------------------------------------------------------------
# Decks: what one pass runs, in seeded order
#
# Both decks hold an odd number of ops (49 and 21), so the median op of
# a run is the middle cell's median over its repetitions, not the
# boundary between two cells of different cost.
# ----------------------------------------------------------------------
#: replay-warm backends that also run attributed / streamed. Fixed, so
#: every seed times the same mix and only the order changes.
ATTRIBUTED_BACKEND = "omega"
STREAMED_BACKEND = "baseline"


def replay_ops() -> List[Tuple[Cell, str]]:
    """The ops of every replay-warm pass: each cell once in-core and
    plain, plus, per (graph, algorithm), the omega cell attributed and
    the baseline cell streamed -- a fixed share of 1 in 7 ops each."""
    ops = [(cell, "plain") for cell in replay_cells()]
    for ds, sc, alg in REPLAY_SPEC:
        ops.append((Cell(ds, sc, alg, ATTRIBUTED_BACKEND), "attributed"))
        ops.append((Cell(ds, sc, alg, STREAMED_BACKEND), "streamed"))
    return ops


def estimate_deck(rng: random.Random) -> List[Cell]:
    deck = estimate_cells()
    rng.shuffle(deck)
    return deck


def serve_ranking() -> List[Cell]:
    """The serve-mix specs, most popular first. Fixed, so every seed
    sends the same mix; a constant shuffle spreads datasets over ranks."""
    ranks = serve_cells()
    random.Random(2018).shuffle(ranks)
    return ranks


def serve_round(rng: random.Random) -> List[Cell]:
    """One serve-mix round in seeded order: ~100 requests with Zipf(1)
    counts over :func:`serve_ranking`, every spec at least once."""
    ranks = serve_ranking()
    weights = [1.0 / (r + 1) for r in range(len(ranks))]
    total = sum(weights)
    counts = [max(1, round(100 * w / total)) for w in weights]
    requests = [cell for cell, n in zip(ranks, counts) for _ in range(n)]
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def load_graph(datasets, cell: Cell):
    """The input ``repro serve`` would build for this cell.

    ``datasets`` is the :mod:`repro.graph.datasets` module, passed in so
    the call goes through whatever the traced run installed there.
    """
    from repro.algorithms.registry import ALGORITHMS

    info = ALGORITHMS[cell.algorithm]
    graph, _ = datasets.load_dataset(
        cell.dataset, scale=cell.scale, weighted=info.requires_weights
    )
    if info.requires_undirected and graph.directed:
        graph = graph.as_undirected()
    return graph


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def report_digest(report) -> str:
    """Simulated counters of a ``run_system`` report."""
    return digest({
        "stats": report.stats.as_dict(),
        "total_cycles": report.timing.total_cycles,
    })


def estimate_digest(estimate) -> str:
    return digest(estimate.as_dict())


#: Manifest blocks that hold simulated results (the rest is host time,
#: cache state and provenance).
SIMULATED_BLOCKS = ("workload", "timing", "energy_nj", "event_counts")


def manifest_digest(manifest: Mapping[str, Any]) -> str:
    return digest({k: manifest.get(k) for k in SIMULATED_BLOCKS})


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE_PATH) as f:
        return json.load(f)["digests"]
