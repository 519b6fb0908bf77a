"""Tests for trace persistence and the GraphMat execution mode."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError, TraceError
from repro.ligra.trace import (
    READABLE_TRACE_VERSIONS,
    TRACE_FORMAT_VERSION,
    AccessClass,
    FLAG_UPDATE,
    Region,
    Trace,
    TraceBuilder,
)
from repro.algorithms.pagerank import pagerank_reference, run_pagerank
from repro.core.context import RunRequest


class TestTraceSaveLoad:
    def _trace(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1, 2, 3]), 8, AccessClass.VTXPROP,
                  write=True, atomic=True, vertex=np.array([0, 1, 2]))
        tb.mark_barrier()
        tb.append(1, np.array([4]), 4, AccessClass.EDGELIST)
        return tb.build()

    def test_roundtrip(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.npz"
        tr.save(path)
        loaded = Trace.load(path)
        np.testing.assert_array_equal(loaded.addr, tr.addr)
        np.testing.assert_array_equal(loaded.flags, tr.flags)
        np.testing.assert_array_equal(loaded.barriers, tr.barriers)

    def test_roundtrip_preserves_replay(self, tmp_path, small_powerlaw):
        from repro.config import SimConfig
        from repro.memsim.backends import BaselineBackend

        tr = run_pagerank(small_powerlaw, num_cores=4).trace
        path = tmp_path / "pr.npz"
        tr.save(path)
        loaded = Trace.load(path)
        cfg = SimConfig.scaled_baseline(num_cores=4)
        a = BaselineBackend(cfg).replay(tr)
        b = BaselineBackend(cfg).replay(loaded)
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(TraceError, match="not a trace"):
            Trace.load(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        tr = TraceBuilder().build()
        path = tmp_path / "empty.npz"
        tr.save(path)
        assert Trace.load(path).num_events == 0


class TestTraceFormat:
    def _trace(self):
        tb = TraceBuilder()
        tb.append(0, np.array([0, 64, 128]), 8, AccessClass.VTXPROP,
                  write=True, vertex=np.array([0, 1, 2]))
        return tb.build()

    def test_save_stamps_format_version(self, tmp_path):
        path = tmp_path / "t.npz"
        self._trace().save(path)
        with np.load(path) as data:
            assert int(data["format_version"]) == TRACE_FORMAT_VERSION

    def test_load_rejects_future_format(self, tmp_path):
        path = tmp_path / "t.npz"
        self._trace().save(path)
        with np.load(path) as data:
            columns = {name: data[name] for name in data.files}
        columns["format_version"] = np.int64(TRACE_FORMAT_VERSION + 1)
        np.savez(path, **columns)
        with pytest.raises(TraceError, match="format version"):
            Trace.load(path)

    def test_load_accepts_legacy_unversioned(self, tmp_path):
        # Archives written before versioning carry no format_version
        # scalar; they must still load.
        path = tmp_path / "t.npz"
        self._trace().save(path)
        with np.load(path) as data:
            columns = {
                name: data[name] for name in data.files
                if name != "format_version"
            }
        np.savez(path, **columns)
        assert Trace.load(path).num_events == 3

    def test_load_accepts_every_readable_version(self, tmp_path):
        # Version-1 archives are column-compatible with version 2 and
        # must keep loading across the bump.
        path = tmp_path / "t.npz"
        self._trace().save(path)
        with np.load(path) as data:
            columns = {name: data[name] for name in data.files}
        for version in sorted(READABLE_TRACE_VERSIONS):
            columns["format_version"] = np.int64(version)
            np.savez(path, **columns)
            assert Trace.load(path).num_events == 3

    def test_current_version_is_readable(self):
        assert TRACE_FORMAT_VERSION in READABLE_TRACE_VERSIONS

    def test_legacy_monolithic_archives_replay_unchanged(
        self, tmp_path, small_powerlaw
    ):
        # v1/v2 archives are monolithic ``.npz`` files (no segment
        # index). They must not just load — they must replay to the
        # same counters as the live trace across the v3 bump.
        from repro.config import SimConfig
        from repro.memsim.backends import BaselineBackend

        tr = run_pagerank(small_powerlaw, num_cores=4).trace
        cfg = SimConfig.scaled_baseline(num_cores=4)
        want = BaselineBackend(cfg).replay(tr).stats.as_dict()
        path = tmp_path / "legacy.npz"
        tr.save(path)
        with np.load(path) as data:
            columns = {name: data[name] for name in data.files}
        assert "segment_bounds" not in columns  # monolithic layout
        for version in (1, 2):
            assert version in READABLE_TRACE_VERSIONS
            columns["format_version"] = np.int64(version)
            np.savez(path, **columns)
            loaded = Trace.load(path)
            got = BaselineBackend(cfg).replay(loaded).stats.as_dict()
            assert got == want

    def test_docs_match_constant(self):
        # docs/trace-format.md states the current version inline; the
        # analyzer's doc-sync rule is the single source of truth for
        # that cross-check, so drive it directly instead of re-rolling
        # the regexes here.
        from repro.analyze import ProjectIndex
        from repro.analyze.rules.docsync import (
            check_docs_sync,
            check_version_sync,
        )

        project = ProjectIndex(Path(__file__).resolve().parents[2])
        findings = list(
            check_version_sync(project, check_docs_sync.info)
        )
        assert findings == [], "\n".join(f.format() for f in findings)
        # And the doc really does state something (the rule is silent
        # when the page disappears entirely — that would be a DOC001
        # finding about the missing statements, covered above only if
        # the page exists).
        assert project.doc_text("docs/trace-format.md") is not None

    def test_regions_roundtrip(self, tmp_path):
        tr = self._trace()
        tr.regions = (
            Region(name="vtxprop:rank", base=0, size=4096,
                   access_class=AccessClass.VTXPROP),
            Region(name="edgelist", base=4096, size=1 << 16,
                   access_class=AccessClass.EDGELIST),
        )
        path = tmp_path / "t.npz"
        tr.save(path)
        loaded = Trace.load(path)
        assert loaded.regions == tr.regions

    def test_no_regions_loads_empty_tuple(self, tmp_path):
        path = tmp_path / "t.npz"
        self._trace().save(path)
        assert Trace.load(path).regions == ()

    def test_engine_traces_carry_regions(self, small_powerlaw):
        tr = run_pagerank(small_powerlaw, num_cores=4).trace
        assert tr.regions
        assert any(
            r.access_class == AccessClass.VTXPROP for r in tr.regions
        )

    def test_nbytes_counts_all_columns(self):
        tr = self._trace()
        assert tr.nbytes == (
            tr.addr.nbytes + tr.core.nbytes + tr.size.nbytes
            + tr.access_class.nbytes + tr.flags.nbytes
            + tr.vertex.nbytes + tr.barriers.nbytes
        )
        assert tr.nbytes > 0


class TestUpdateFlag:
    def test_sparse_atomics_carry_update_flag(self, small_powerlaw):
        tr = run_pagerank(small_powerlaw, num_cores=4).trace
        atomics = (tr.flags & 2) != 0
        assert ((tr.flags[atomics] & FLAG_UPDATE) != 0).all()

    def test_graphmat_updates_not_atomic(self, small_powerlaw):
        tr = run_pagerank(
            small_powerlaw, num_cores=4, framework="graphmat"
        ).trace
        assert tr.count(atomic=True) == 0
        updates = (tr.flags & FLAG_UPDATE) != 0
        assert int(updates.sum()) > 0


class TestGraphmatMode:
    def test_matches_reference(self, small_powerlaw):
        res = run_pagerank(small_powerlaw, trace=False, framework="graphmat")
        np.testing.assert_allclose(
            res.value("rank"), pagerank_reference(small_powerlaw, 1)
        )

    def test_matches_ligra_mode(self, small_powerlaw):
        ligra = run_pagerank(small_powerlaw, trace=False)
        graphmat = run_pagerank(small_powerlaw, trace=False,
                                framework="graphmat")
        np.testing.assert_allclose(
            ligra.value("rank"), graphmat.value("rank")
        )

    def test_bad_framework_rejected(self, small_powerlaw):
        with pytest.raises(SimulationError, match="framework"):
            run_pagerank(small_powerlaw, framework="gunrock")

    def test_local_updates_stay_on_owner_core(self, small_powerlaw):
        """With matched chunks every owner-write is local, and a local
        plain update is cheaper on the core than on the PISC."""
        from repro.config import SimConfig
        from repro.core.system import run_system

        rep = run_system(
            small_powerlaw,
            RunRequest("pagerank", alg_kwargs={"framework": "graphmat"}),
            SimConfig.scaled_omega(num_cores=4),
        )
        assert rep.stats.atomics_total == 0
        assert rep.stats.pisc_ops == 0
        assert rep.stats.sp_plain_local > 0

    def test_remote_updates_offload_to_pisc(self, small_powerlaw):
        """A mismatched mapping makes owner-writes remote; the PISC
        absorbs them even though they are not atomic."""
        from repro.config import SimConfig
        from repro.core.system import run_system

        rep = run_system(
            small_powerlaw,
            RunRequest("pagerank", chunk_size=32, sp_chunk_size=1,
                       alg_kwargs={"framework": "graphmat"}),
            SimConfig.scaled_omega(num_cores=4),
        )
        assert rep.stats.atomics_total == 0
        assert rep.stats.pisc_ops > 0
