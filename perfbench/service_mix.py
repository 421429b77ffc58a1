"""The ``service_mix`` workload: a closed loop against a live service.

A ``python -m repro.service`` subprocess (2 worker threads, a fresh
cache directory, quotas too high to refuse anything) serves the seeded
request sequence of :mod:`mix`. Two client threads each send their next
request only when the previous reply has arrived, one connection each.
Every 200 response's fingerprints are checked against the table of
direct library solves.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import mix
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "service.json"
CLIENTS = 2
SETUP_SPAWNS = 5
STARTUP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    start: float = 0.0
    end: float = 0.0
    trace_id: str = ""
    cached: bool = False
    errors: list = field(default_factory=list)


class Server:
    """One service subprocess, from spawn until ``/healthz`` answers."""

    def __init__(self, root: Path, work: Path, name: str, env: dict, trace_out: Path | None):
        self.log = work / f"{name}.log"
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service"]
        else:
            command = [sys.executable, str(HERE / "service_launcher.py"), "--trace-out", str(trace_out)]
        command += [
            "--port", "0", "--workers", "2", "--cache", str(work / f"{name}-cache"),
            "--quota-rate", "1e9", "--quota-burst", "1e9",
        ]
        spawned = time.monotonic()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.port = self._wait_for_port(spawned + STARTUP_TIMEOUT_S)
            self._wait_for_health(spawned + STARTUP_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _wait_for_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            found = re.search(r"listening on http://[^:]+:(\d+)\n", self.log.read_text())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited: {self.log.read_text()[-2000:]}")
            time.sleep(0.002)
        raise RuntimeError("service did not start")

    def _wait_for_health(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("service never answered /healthz")

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def _send(port: int, request: mix.Request, table: dict) -> Outcome:
    outcome = Outcome(start=time.monotonic())
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request(
            "POST", "/v1/jobs", body=request.body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        outcome.end = time.monotonic()
        outcome.trace_id = response.getheader("X-Trace-Id", "")
        body = json.loads(raw) if response.status == 200 else None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        outcome.end = time.monotonic()
        outcome.errors = [f"{type(exc).__name__}: {exc}"]
        return outcome
    finally:
        connection.close()
    outcome.errors = checks.response_errors(response.status, body, request.members, table)
    outcome.cached = body is not None and all(r.get("cached") for r in body["results"])
    return outcome


def drive(port: int, sequence: list[mix.Request], table: dict) -> list[Outcome]:
    """Serve ``sequence`` through a closed loop of ``CLIENTS`` clients."""
    outcomes: list[Outcome | None] = [None] * len(sequence)
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcomes[index] = _send(port, sequence[index], table)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _phase(root: Path, work: Path, name: str, env: dict, sequence, table, trace_out=None) -> dict:
    server = Server(root, work, name, env, trace_out)
    try:
        outcomes = drive(server.port, sequence, table)
        counters = server.get("/stats")[1].get("counters", {})
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    latencies = [o.end - o.start for o in outcomes]
    wall_s = max(o.end for o in outcomes) - min(o.start for o in outcomes)
    return {
        "setup_s": server.setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "throughput_rps": len(outcomes) / wall_s,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * statistics.quantiles(latencies, n=20)[-1],
        "hit_latency_p50_ms": 1e3 * statistics.median([o.end - o.start for o in outcomes if o.cached] or [0.0]),
        "miss_latency_p50_ms": 1e3 * statistics.median([o.end - o.start for o in outcomes if not o.cached] or [0.0]),
        "outcomes": outcomes,
        "attempted": len(outcomes),
        "errors": {i: o.errors for i, o in enumerate(outcomes) if o.errors},
        "counters": counters,
    }


def _solve_spans(records: list[dict]) -> list[dict]:
    return [r for r in records if r["name"].startswith("service.") and "start" in r]


def wait_s(outcomes: list[Outcome], records: list[dict]) -> float:
    """Client latency not spent inside a server-side solve for the request."""
    solving: dict[str, float] = {}
    for record in _solve_spans(records):
        for trace_id in set(record["traces"]):
            solving[trace_id] = solving.get(trace_id, 0.0) + record["end"] - record["start"]
    return sum(max(0.0, (o.end - o.start) - solving.get(o.trace_id, 0.0)) for o in outcomes)


def solve_shares(
    sequence: list[mix.Request], outcomes: list[Outcome], records: list[dict]
) -> dict[str, float]:
    """Each request kind's share of the server's solve time.

    A solve span lists one trace id per member job, so a coalesced group
    solve is split evenly over its members, each counted for the kind
    of the request that submitted it.
    """
    kind_of = {o.trace_id: r.kind for r, o in zip(sequence, outcomes)}
    seconds = {kind: 0.0 for kind in mix.KINDS}
    for record in _solve_spans(records):
        share = (record["end"] - record["start"]) / len(record["traces"])
        for trace_id in record["traces"]:
            if trace_id in kind_of:
                seconds[kind_of[trace_id]] += share
    total = sum(seconds.values())
    return {kind: value / total if total else 0.0 for kind, value in seconds.items()}


def run(
    root: Path, work: Path, seed: int, env: dict, traced_env: dict, trace_dir: Path | None
) -> dict:
    sequence = mix.generate(seed)
    table = json.loads(REFERENCE.read_text())
    setups = []
    for index in range(SETUP_SPAWNS - 1):
        server = Server(root, work, f"setup{index}", env, None)
        setups.append(server.setup_s)
        server.stop()
    result = {"mix": mix.describe(sequence)}
    result["untraced"] = _phase(root, work, "measured", env, sequence, table)
    setups.append(result["untraced"]["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    if trace_dir is not None:
        spans = trace_dir / "service_mix-server.spans"
        traced = _phase(root, work, "traced", traced_env, sequence, table, trace_out=spans)
        traced["records"] = tracing.load(str(spans)) if spans.exists() else []
        traced["wait_s"] = wait_s(traced["outcomes"], traced["records"])
        traced["solve_shares"] = solve_shares(sequence, traced["outcomes"], traced["records"])
        result["traced"] = traced
    return result
