"""Unit tests for the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from harness import Harness, Span, SpanRecorder, Target  # noqa: E402


def _span(sid, name, start, end, parent=None, root=None):
    return Span(sid, name, start, end, parent, root or sid, 0)


# ----------------------------------------------------------------------
# Self-time fold
# ----------------------------------------------------------------------
def test_self_time_subtracts_merged_children():
    spans = [
        _span(1, "bench.op", 0.0, 10.0),
        _span(2, "memsim.cache_path", 1.0, 4.0, parent=1, root=1),
        # Overlaps its sibling (another thread): covered time is the
        # union [1, 6], not the sum.
        _span(3, "store.load", 3.0, 6.0, parent=1, root=1),
        _span(4, "memsim.screen", 2.0, 3.0, parent=2, root=1),
        # Sticks out of its parent: only the clipped part counts.
        _span(5, "core.manifest", 9.0, 12.0, parent=1, root=1),
    ]
    own = harness.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_fold_sums_names_and_layers_per_root():
    spans = [
        _span(1, "bench.op", 0.0, 4.0),
        _span(2, "memsim.cache_path", 0.0, 3.0, parent=1, root=1),
        _span(3, "memsim.screen", 0.0, 1.0, parent=2, root=1),
        _span(4, "bench.op", 10.0, 12.0),
        _span(5, "memsim.screen", 10.0, 11.0, parent=4, root=4),
    ]
    names = harness.fold(spans)
    assert names == pytest.approx(
        {"bench.op": 2.0, "memsim.cache_path": 2.0, "memsim.screen": 2.0}
    )
    assert harness.by_layer(names) == pytest.approx(
        {"bench": 2.0, "memsim": 4.0}
    )
    assert harness.fold(spans, roots=[4]) == pytest.approx(
        {"bench.op": 1.0, "memsim.screen": 1.0}
    )


def test_recorder_nests_spans_and_round_trips(tmp_path):
    rec = SpanRecorder()
    with rec.span("bench.op", label="cell") as outer:
        with rec.span("memsim.route") as inner:
            pass
    rec.count("memsim.segments", 2)
    by_id = {s.id: s for s in rec.spans}
    assert by_id[inner.id].parent == outer.id
    assert by_id[inner.id].root == outer.id
    assert by_id[outer.id].parent is None
    path = tmp_path / "spans.json"
    rec.dump(str(path), absent=["x.y"])
    back = SpanRecorder.load(str(path))
    assert back.spans == rec.spans
    assert back.counts == {"memsim.segments": 2}
    assert back.labels == {outer.id: "cell"}
    assert back.extra == {"absent": ["x.y"]}


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def work(x):
        return x + 1

    class Base:
        def step(self, x):
            return x * 2

    class Sub(Base):
        pass

    mod.work, mod.Base, mod.Sub = work, Base, Sub
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_harness_wraps_counts_and_restores(fake_module):
    original = fake_module.work
    rec = SpanRecorder()
    seen = []
    targets = [
        Target("graph.work", "perfbench_fake", "work",
               count=lambda r, args, kw, result: seen.append(result)),
        Target("core.step", "perfbench_fake:Sub", "step"),
    ]
    with Harness(rec, targets) as h:
        assert fake_module.work(1) == 2
        assert fake_module.Sub().step(3) == 6
        assert h.absent == []
    assert fake_module.work is original
    assert "step" not in fake_module.Sub.__dict__
    assert [s.name for s in rec.spans] == ["graph.work", "core.step"]
    assert seen == [2]


def test_harness_restores_on_error(fake_module):
    original = fake_module.work
    with pytest.raises(RuntimeError):
        with Harness(SpanRecorder(),
                     [Target("graph.work", "perfbench_fake", "work")]):
            assert fake_module.work is not original
            raise RuntimeError("boom")
    assert fake_module.work is original


def test_missing_targets_are_absent_not_fatal(fake_module):
    targets = [
        Target("memsim.screen", "perfbench_fake", "gone"),
        Target("memsim.screen", "perfbench_fake:Nope", "step"),
        Target("memsim.screen", "no_such_module_anywhere", "f"),
        Target("graph.work", "perfbench_fake", "work"),
    ]
    with Harness(SpanRecorder(), targets) as h:
        assert fake_module.work(0) == 1
    assert h.absent == [
        "perfbench_fake.gone",
        "perfbench_fake:Nope.step",
        "no_such_module_anywhere.f",
    ]


def test_absent_metrics_follow_their_spans():
    absent = [t.where for t in harness.layer_targets()
              if t.span == "memsim.screen"]
    assert metrics.absent_metrics(absent) == ["memsim.screen_ratio",
                                              "memsim.screen_s"]
    assert metrics.absent_metrics([]) == []


# ----------------------------------------------------------------------
# Metrics and the declared catalogue
# ----------------------------------------------------------------------
def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert metrics.tail(list(range(99)))[1] == 50.0
    value, pct, beyond = metrics.tail([float(i) for i in range(101)])
    assert (pct, beyond) == (90.0, 10)
    assert value == pytest.approx(90.0)
    assert metrics.tail(list(range(1000)))[1] == 99.0


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == [
        "replay-warm", "estimate-cold", "serve-mix"
    ]


def test_reference_covers_every_cell():
    ref = cells.load_reference()
    assert set(ref["replay-warm"]) == {c.id for c in cells.replay_cells()}
    assert set(ref["estimate-cold"]) == {c.id for c in cells.estimate_cells()}
    assert set(ref["serve-mix"]) == {c.id for c in cells.serve_cells()}
    assert len(ref["serve-mix"]) > 32  # more than the warm LRU holds


def test_decks_have_fixed_shares_and_odd_sizes():
    modes = [mode for _, mode in cells.replay_ops()]
    assert modes.count("plain") == len(cells.replay_cells())
    assert modes.count("attributed") == modes.count("streamed") == 7
    assert len(modes) % 2 == 1
    assert len(cells.estimate_cells()) % 2 == 1


# ----------------------------------------------------------------------
# Tamper check: a corrupted reference digest must fail the op
# ----------------------------------------------------------------------
def _estimate_phase(tmp_path, tamper):
    cell = cells.Cell("rCA", 1.0, "pagerank", "baseline")
    reference = dict(cells.load_reference()["estimate-cold"])
    if tamper:
        reference[cell.id] = "0" * 32
    workload = workloads.EstimateCold(tmp_path, reference, random.Random(0))
    workload.graphs = workload.graphs_for([cell])
    return workloads.run_loop(lambda: [cell], workload.op, workload.label,
                              seconds=0.0, min_ops=1)


def test_reference_check_passes_and_tamper_fails(tmp_path):
    good = _estimate_phase(tmp_path, tamper=False)
    assert (good.attempted, good.failed) == (1, 0)
    bad = _estimate_phase(tmp_path, tamper=True)
    assert bad.failed == 1
    _, facts = metrics.end_to_end([], 1.0, 0, bad.attempted, bad.failed,
                                  1.0, 1.0)
    assert facts["error_rate"] > 0
