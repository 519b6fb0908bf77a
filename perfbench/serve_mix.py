"""The serve-mix workload: HTTP clients against a ``repro serve`` process.

The server runs as a child process (``serve_child.py``) with two
workers, an empty warm cache and an empty trace store. Two client
threads, one per CPU of the reference host, each send ``POST /v1/jobs``
with ``wait: true`` and send the next request when the answer arrives
(a closed loop). Requests follow seeded rounds with Zipf-like
popularity over 50 specs, more than the server's 32-entry warm cache,
so answers mix warm hits, coalesced attachments and cold computes.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import cells
import probe

CLIENTS = 2
WORKERS = 2
#: A timed loop collects at least this many replies, so that its tail
#: is always the 99th percentile (at least ten samples beyond it).
MIN_TIMED_REPLIES = 1000
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 120.0


@dataclass
class Reply:
    seconds: float
    ok: bool
    state: str = ""
    status: int = 0
    nbytes: int = 0
    events: int = 0
    error: str = ""
    label: str = ""
    slowdown: float = 1.0


@dataclass
class ServePhase:
    replies: List[Reply] = field(default_factory=list)
    wall: float = 0.0
    server_stats: Dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.replies)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.replies if not r.ok)

    @property
    def errors(self) -> List[str]:
        return [r.error for r in self.replies if r.error]


class Server:
    """One ``repro serve`` child process; ``start`` times its start-up."""

    def __init__(self, root: Path, work: Path, tag: str,
                 spans: Optional[Path] = None) -> None:
        self.root = root
        self.log = work / f"serve-{tag}.log"
        self.store = work / f"serve-store-{tag}"
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; return seconds until ``/healthz`` answers."""
        argv = [sys.executable, str(self.root / "perfbench" / "serve_child.py")]
        if self.spans is not None:
            argv += ["--spans", str(self.spans)]
        argv += ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--workers", str(WORKERS), "--cache-dir", str(self.store)]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        marker = b"repro serve listening on http://"
        while True:
            text = self.log.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                line = text[at + len(marker):].split(b"\n", 1)[0]
                self.port = int(line.rsplit(b":", 1)[1])
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {text[-2000:]!r}")
            if time.perf_counter() - t0 > START_TIMEOUT:
                raise RuntimeError("server did not start in time")
            time.sleep(0.002)
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return time.perf_counter() - t0

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGINT (a clean shutdown), then kill if it hangs; always reap."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def run_clients(server: Server, reference: Dict[str, str],
                rng: random.Random, seconds: float,
                min_replies: int = MIN_TIMED_REPLIES) -> ServePhase:
    """Send whole rounds until ``seconds`` have passed and at least
    ``min_replies`` replies have arrived.

    The seed orders each round; only whole rounds are sent, so every
    run has the same popularity mix. Before and after each round, with no
    request in flight, the host is probed; the round's replies carry the
    median slowdown.
    """
    phase = ServePhase()
    lock = threading.Lock()
    start = time.perf_counter()
    while True:
        probes = [probe.slowdown() for _ in range(3)]
        requests = iter(cells.serve_round(rng))
        replies: List[Reply] = []

        def client() -> None:
            while True:
                with lock:
                    cell = next(requests, None)
                if cell is None:
                    return
                reply = _post(server.port, cell, reference)
                reply.label = cell.id
                with lock:
                    replies.append(reply)

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.wall = time.perf_counter() - start
        probes += [probe.slowdown() for _ in range(3)]
        for reply in replies:
            reply.slowdown = statistics.median(probes)
        phase.replies += replies
        if phase.wall >= seconds and len(phase.replies) >= min_replies:
            break
    _, phase.server_stats = server.get("/v1/stats")
    phase.peak_rss_mb = server.peak_rss_mb()
    return phase


def _post(port: int, cell: cells.Cell, reference: Dict[str, str]) -> Reply:
    """One request on its own connection, as ``curl`` would send it."""
    body = json.dumps(cell.job_spec()).encode()
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        conn.request("POST", "/v1/jobs", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        return Reply(time.perf_counter() - t0, False,
                     error=f"{cell.id}: {type(exc).__name__}: {exc}")
    finally:
        conn.close()
    seconds = time.perf_counter() - t0
    reply = Reply(seconds, False, status=resp.status, nbytes=len(data))
    try:
        doc = json.loads(data)
    except ValueError:
        reply.error = f"{cell.id}: HTTP {resp.status}, body is not JSON"
        return reply
    reply.state = doc.get("state", "")
    if resp.status != 200 or doc.get("manifest") is None:
        reply.error = f"{cell.id}: HTTP {resp.status} {doc.get('error', '')}"
        return reply
    manifest = doc["manifest"]
    got = cells.manifest_digest(manifest)
    want = reference.get(cell.id)
    if got != want:
        reply.error = f"{cell.id}: digest {got} != reference {want}"
        return reply
    reply.ok = True
    if reply.state == "cold":
        reply.events = int(manifest["workload"]["trace_events"])
    return reply
