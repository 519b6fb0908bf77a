"""Section V-D — reconfigurable scratchpad mapping (chunk matching).

The paper's Fig 12 scenario: when the scratchpad-mapping chunk size
differs from the OpenMP schedule's chunk size, sequential vtxProp
scans hit *remote* scratchpads; matching the chunks makes them local.
We sweep matched and mismatched configurations and report the remote
access share and the speedup cost of the mismatch.
"""

from repro.bench import format_table

from conftest import emit

CASES = [
    ("matched (32/32)", 32, 32),
    ("mismatched (32/1)", 32, 1),
    ("mismatched (32/8)", 32, 8),
]


def _rows(sims):
    rows = []
    for label, omp_chunk, sp_chunk in CASES:
        cmp = sims.compare(
            "pagerank", "lj", chunk_size=omp_chunk, sp_chunk_size=sp_chunk
        )
        stats = cmp.omega.stats
        rows.append(
            {
                "configuration": label,
                "plain remote SP share": round(stats.sp_plain_remote_share, 3),
                "speedup": round(cmp.speedup, 2),
            }
        )
    return rows


def test_vd_chunk_matching(benchmark, sims):
    rows = benchmark.pedantic(lambda: _rows(sims), rounds=1, iterations=1)
    text = format_table(
        rows, "Section V-D — scratchpad-mapping chunk matching (PageRank, lj)"
    )
    text += "\npaper Fig 12: mismatched chunks turn local scans remote\n"
    emit("vd_chunk_matching", text)
    by_cfg = {r["configuration"]: r for r in rows}
    matched = by_cfg["matched (32/32)"]
    # Matched chunks keep sequential vtxProp scans local (Fig 12).
    assert matched["plain remote SP share"] < 0.2
    for label in ("mismatched (32/1)", "mismatched (32/8)"):
        assert (
            by_cfg[label]["plain remote SP share"]
            > matched["plain remote SP share"] + 0.3
        )
    assert matched["speedup"] >= max(
        by_cfg["mismatched (32/1)"]["speedup"],
        by_cfg["mismatched (32/8)"]["speedup"],
    ) - 0.05
