"""End-to-end `repro serve` tests over a real ephemeral-port server.

One workload (the sd stand-in at half scale) is submitted three ways —
cold, coalesced while the cold run is in flight, and warm after it
finishes — and the served manifest is checked bit-identical (in all
simulated fields) to a direct ``run_system`` call on the same spec.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.context import RunContext, RunRequest
from repro.errors import SimulationError
from repro.serve import JobManager, make_server, make_system_runner
from repro.serve import server as server_module
from repro.serve.server import MAX_BODY_BYTES, _Handler
from repro.store import TraceStore

DATASET = "sd"
SCALE = 0.5


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("serve-store"))
    context = RunContext(store=store)
    manager = JobManager(
        make_system_runner(context), workers=2, queue_depth=4
    )
    srv = make_server(port=0, manager=manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=60) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, body, timeout=300):
    req = urllib.request.Request(
        _url(server, "/v1/jobs"),
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _strip_host_fields(manifest):
    doc = {
        k: v for k, v in manifest.items()
        if k not in ("telemetry", "trace_cache")
    }
    replay = dict(doc.get("replay") or {})
    for key in ("seconds", "events_per_second", "peak_rss_bytes"):
        replay.pop(key, None)
    doc["replay"] = replay
    return doc


def test_health_and_unknown_routes(server):
    assert _get(server, "/healthz") == (200, {"ok": True})
    status, _ = _get(server, "/nope")
    assert status == 404
    status, _ = _get(server, "/v1/jobs/doesnotexist")
    assert status == 404


def test_bad_specs_get_400(server):
    assert _post(server, {"dataset": DATASET})[0] == 400  # no algorithm
    assert _post(server, {"dataset": DATASET, "algorithm": "pagerank",
                          "bogus": 1})[0] == 400
    assert _post(server, {"dataset": DATASET, "algorithm": "pagerank",
                          "alg_kwargs": {"bad": [1]}})[0] == 400


def test_cold_coalesced_warm_lifecycle(server):
    spec = {"dataset": DATASET, "algorithm": "pagerank", "scale": SCALE,
            "num_cores": 4}

    # Cold: accepted asynchronously.
    status, doc = _post(server, spec)
    assert status == 202
    assert doc["state"] == "cold"
    job_id = doc["job_id"]

    # Identical request while the first is in flight: coalesced, and
    # waiting on it yields the manifest of the one shared computation.
    status, joined = _post(server, {**spec, "wait": True})
    assert status == 200
    assert joined["state"] == "coalesced"
    assert joined["status"] == "done"
    assert joined["job_id"] == job_id
    assert joined["clients"] == 2
    manifest = joined["manifest"]
    assert manifest["algorithm"] == "pagerank"
    # Progress streamed from the run's tracer spans.
    assert "load_dataset" in joined["progress"]
    assert any("replay" in p for p in joined["progress"])

    # Third request after completion: warm, no new job.
    status, warm = _post(server, spec)
    assert status == 200
    assert warm["state"] == "warm"
    assert warm["manifest"] == manifest

    # Status poll agrees.
    status, polled = _get(server, f"/v1/jobs/{job_id}")
    assert status == 200
    assert polled["status"] == "done"
    assert polled["manifest"] == manifest

    # Counters: exactly one computation for three requests.
    status, stats = _get(server, "/v1/stats")
    assert status == 200
    assert stats["computed"] == 1
    assert stats["coalesced"] == 1
    assert stats["warm"] == 1

    # The served manifest is bit-identical (simulated fields) to a
    # direct run_system call on the same spec.
    from repro.algorithms.registry import ALGORITHMS
    from repro.core.system import run_system
    from repro.graph.datasets import load_dataset

    info = ALGORITHMS["pagerank"]
    graph, _ = load_dataset(
        DATASET, scale=SCALE, weighted=info.requires_weights
    )
    direct = run_system(
        graph,
        request=RunRequest(
            algorithm="pagerank", dataset=DATASET, num_cores=4
        ),
        context=RunContext(),
    ).manifest()
    assert _strip_host_fields(manifest) == _strip_host_fields(direct)


def _raw_post(server, content_length, body=b""):
    """POST with a hand-written Content-Length header."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_non_integer_content_length_gets_400(server):
    status, doc = _raw_post(server, "abc")
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_negative_content_length_gets_400(server):
    status, doc = _raw_post(server, "-5")
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_oversized_content_length_gets_413(server):
    status, doc = _raw_post(server, str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert "limit" in doc["error"]


class _CountingWriter:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))


def test_reply_is_one_write():
    handler = _Handler.__new__(_Handler)
    handler.wfile = _CountingWriter()
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /healthz HTTP/1.1"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    handler._reply(200, {"ok": True})
    assert len(handler.wfile.writes) == 1
    head, _, body = handler.wfile.writes[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    assert json.loads(body) == {"ok": True}


@pytest.fixture()
def fake_server():
    """Start a server around an injected runner; stop it afterwards."""
    servers = []

    def start(runner):
        srv = make_server(port=0, manager=JobManager(runner, workers=1))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        servers.append((srv, thread))
        return srv

    yield start
    for srv, thread in servers:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


def test_wait_on_failed_job_is_200_with_its_error(fake_server):
    def runner(spec, progress):
        raise SimulationError("replay exploded")

    srv = fake_server(runner)
    status, doc = _post(
        srv, {"dataset": DATASET, "algorithm": "pagerank", "wait": True}
    )
    assert status == 200
    assert doc["status"] == "failed"
    assert "replay exploded" in doc["error"]
    # The same snapshot a status poll returns.
    status, polled = _get(srv, f"/v1/jobs/{doc['job_id']}")
    assert status == 200
    assert polled == {k: v for k, v in doc.items() if k != "state"}


def test_wait_timeout_is_202_with_job_id(fake_server, monkeypatch):
    release = threading.Event()

    def runner(spec, progress):
        release.wait(timeout=30)
        return {"algorithm": spec.algorithm}

    monkeypatch.setattr(server_module, "WAIT_TIMEOUT_SECONDS", 0.2)
    srv = fake_server(runner)
    try:
        status, doc = _post(
            srv, {"dataset": DATASET, "algorithm": "pagerank", "wait": True}
        )
        assert status == 202
        assert doc["state"] == "cold"
        status, polled = _get(srv, f"/v1/jobs/{doc['job_id']}")
        assert polled["status"] == "running"
    finally:
        release.set()


def test_unknown_alg_kwarg_is_400_at_submit(fake_server):
    def runner(spec, progress):  # pragma: no cover - never reached
        raise AssertionError("a bad spec must not become a job")

    srv = fake_server(runner)
    status, doc = _post(srv, {"dataset": DATASET, "algorithm": "pagerank",
                              "alg_kwargs": {"bogus": 1}, "wait": True})
    assert status == 400
    assert "alg_kwargs" in doc["error"] and "bogus" in doc["error"]
