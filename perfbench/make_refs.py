"""Regenerate ``reference.json`` with the scalar reference cache oracle.

Run from the repository root::

    python3 perfbench/make_refs.py

Every cell of every workload is simulated once with
``RunContext(scalar_cache=True)`` (no trace store), and the digests of
its simulated outputs are written next to this file. The timed runs
compare each output against this table, so regenerate it only when
the simulated results are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402


def main() -> int:
    from repro.core import RunContext, RunRequest
    from repro.core import system
    from repro.graph import datasets

    context = RunContext(scalar_cache=True)
    graphs = {}

    def graph_for(cell):
        if cell.graph_key not in graphs:
            graphs[cell.graph_key] = cells.load_graph(datasets, cell)
        return graphs[cell.graph_key]

    def request(cell):
        return RunRequest(algorithm=cell.algorithm, backend=cell.backend,
                          dataset=cell.dataset)

    digests = {"replay-warm": {}, "estimate-cold": {}, "serve-mix": {}}
    for cell in cells.replay_cells():
        report = system.run_system(graph_for(cell), request=request(cell),
                                   context=context)
        digests["replay-warm"][cell.id] = cells.report_digest(report)
        print(cell.id, digests["replay-warm"][cell.id], flush=True)
    for cell in cells.estimate_cells():
        est = system.estimate_system(graph_for(cell), request=request(cell),
                                     context=context)
        digests["estimate-cold"][cell.id] = cells.estimate_digest(est)
        print(cell.id, digests["estimate-cold"][cell.id], flush=True)
    for cell in cells.serve_cells():
        report = system.run_system(graph_for(cell), request=request(cell),
                                   context=context)
        digests["serve-mix"][cell.id] = cells.manifest_digest(
            json.loads(json.dumps(report.manifest()))
        )
        print(cell.id, digests["serve-mix"][cell.id], flush=True)
    doc = {
        "generated_with": "RunContext(scalar_cache=True), no trace store",
        "digests": digests,
    }
    with open(cells.REFERENCE_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
