"""Workload ``serve-mix``: small parameterized queries over HTTP against
the real server in its own process (``server_launcher.py``).

The load is closed-loop over two persistent keep-alive connections:
each sends its next query only after the previous one's last page
arrived. Pages are 16 rows. Every response is compared byte for byte
with the canonical result of an untimed serial in-process run on the
same seed.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import Outcome

HERE = Path(__file__).resolve().parent
REQUESTS = 240
CONNECTIONS = 2
PAGE_SIZE = 16
#: server processes per run; each is set up, warmed and measured
SESSIONS = 3
#: closed-loop chunk between calibrations, and kernels per calibration
CHUNK_S = 2.0
CALIBRATIONS_PER_CHUNK = 3
#: passes over each connection's share of the requests in a traced run
TRACE_PASSES = 2
#: one label per template of repro.bench.openloop.OPEN_LOOP_TEMPLATES
LABELS = ("gram_k", "sum_w", "count_k", "join_k", "scan_outcomes_k", "scan_points_k")


def make_requests(seed: int) -> List[Tuple[int, str, Dict[str, object]]]:
    """The same work for every seed: each template equally often, its
    ``:k`` values evenly spread over the table; the seed draws the
    order, the assignment of ``:k`` values and the ``:w`` weights."""
    from repro.bench.openloop import OPEN_LOOP_TEMPLATES
    from repro.bench.serve import ServeConfig

    rows = ServeConfig().rows
    per_template = REQUESTS // len(OPEN_LOOP_TEMPLATES)
    spread_k = [1 + (j * (rows - 1)) // per_template for j in range(per_template)]
    rng = np.random.default_rng(seed + 17)
    requests = []
    for index, sql in enumerate(OPEN_LOOP_TEMPLATES):
        ks = rng.permutation(spread_k)
        for j in range(per_template):
            params: Dict[str, object] = {}
            if ":k" in sql:
                params["k"] = int(ks[j])
            if ":w" in sql:
                params["w"] = float(rng.normal())
            requests.append((index, sql, params))
    return [requests[i] for i in rng.permutation(len(requests))]


def expected_results(seed: int, requests) -> List[str]:
    """Canonical results of the requests, run serially in-process."""
    from repro.bench.serve import ServeConfig, build_database
    from repro.server import canonical_result
    from repro.service import QueryService

    db = build_database(ServeConfig(seed=seed))
    service = QueryService(db)
    with service.session("oracle") as session:
        results = [session.execute(sql, params) for _, sql, params in requests]
    db.close()
    return [canonical_result(r.columns, r.rows) for r in results]


class Connection:
    """A minimal HTTP/1.1 keep-alive JSON client."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def post(self, path: str, payload: Dict[str, object]) -> Tuple[int, Dict]:
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        raw_head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        raw, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, json.loads(raw) if raw else {}

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """The server launcher as a child process."""

    def __init__(self, seed: int, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_launcher.py"),
             "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "listening":
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = (line[1], int(line[2]))

    def command(self, text: str) -> str:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def stop(self) -> Dict[str, object]:
        """Stop the server; returns its final report."""
        report = json.loads(self.command("stop"))
        self.proc.wait(timeout=60)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


class Record:
    __slots__ = ("index", "ms", "status", "pages", "answer")

    def __init__(self, index, ms, status, pages, answer):
        self.index, self.ms, self.status = index, ms, status
        self.pages, self.answer = pages, answer


def query(conn: Connection, index: int, request, tenant: str) -> Record:
    """One query, all pages; latency from first byte sent to last page.
    The answer is kept as received and checked after the timed loop."""
    _, sql, params = request
    start = time.perf_counter()
    payload = {"sql": sql, "params": params, "tenant": tenant, "page_size": PAGE_SIZE}
    status, body = conn.post("/query", payload)
    pages = 1
    rows = list(body.get("rows", ()))
    while status == 200 and not body["done"]:
        status, body = conn.post("/fetch", {"cursor": body["cursor"]})
        rows.extend(body.get("rows", ()))
        pages += 1
    ms = (time.perf_counter() - start) * 1e3
    if status != 200:
        return Record(index, ms, status, pages, None)
    return Record(index, ms, status, pages, {"columns": body["columns"], "rows": rows})


def drive(address, requests, shares: List[List[int]], deadline: Optional[float]):
    """Closed loop: one thread per share, each on its own connection.
    With a deadline a thread cycles through its share until it passes;
    without one it runs its share once. Returns (records, window s)."""
    records: List[List[Record]] = [[] for _ in shares]
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(shares) + 1)

    def worker(n: int) -> None:
        conn = None
        try:
            conn = Connection(*address)
            barrier.wait()
            share = shares[n]
            position = 0
            while position < len(share) or deadline is not None:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                index = share[position % len(share)]
                records[n].append(query(conn, index, requests[index], f"tenant{n}"))
                position += 1
        except Exception as exc:  # re-raised by the caller after the join
            errors.append(exc)
            barrier.abort()
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(len(shares))]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [r for per in records for r in per], window


def check(outcome: Outcome, requests, records: List[Record], expected: List[str], keep: bool) -> None:
    from repro.server import canonical_json

    for record in records:
        outcome.attempted += 1
        if record.status != 200:
            outcome.fail(f"request {record.index}: HTTP {record.status}")
        elif canonical_json(record.answer) != expected[record.index]:
            outcome.fail(f"request {record.index}: response differs from the serial run")
        elif keep:
            outcome.latencies[LABELS[requests[record.index][0]]].append(record.ms)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    requests = make_requests(seed)
    expected = expected_results(seed, requests)
    outcome = Outcome(classes=list(LABELS))
    everything = [list(range(REQUESTS))]
    halves = [list(range(n, REQUESTS, CONNECTIONS)) for n in range(CONNECTIONS)]

    def session(traced: bool, measure):
        """Launch a server, warm it with one serial pass, measure, stop.
        Returns (measure's result, server report, launch seconds)."""
        start = time.perf_counter()
        server = ServerProcess(seed, traced)
        launched = time.perf_counter() - start
        try:
            warm, _ = drive(server.address, requests, everything, None)
            check(outcome, requests, warm, expected, keep=False)
            if traced:
                server.command("reset")
            result = measure(server)
            report = server.stop()
        finally:
            server.kill()
        return result, report, launched

    if not trace:
        # the time is split over several server processes and the
        # samples pooled: a process's own speed varies from launch to
        # launch by more than the run-to-run noise within one
        outcome.window_s = 0.0

        def timed_session(server):
            """Closed loop in short chunks, the calibration kernel
            between them while the connections are idle."""
            records, window = [], 0.0
            end = time.perf_counter() + seconds / SESSIONS
            while time.perf_counter() < end:
                for _ in range(CALIBRATIONS_PER_CHUNK):
                    outcome.calibrate()
                chunk = min(end, time.perf_counter() + CHUNK_S)
                more, elapsed = drive(server.address, requests, halves, chunk)
                records += more
                window += elapsed
            return records, window

        for _ in range(SESSIONS):
            (records, window), _, launched = session(False, timed_session)
            outcome.setup_s.append(launched)
            check(outcome, requests, records, expected, keep=True)
            outcome.window_s += window
        return outcome

    def fixed_pass(server):
        records = []
        for _ in range(TRACE_PASSES):
            records.extend(drive(server.address, requests, halves, None)[0])
        return records

    untraced_records, _, _ = session(False, fixed_pass)
    check(outcome, requests, untraced_records, expected, keep=True)
    untraced = {k: list(v) for k, v in outcome.latencies.items()}
    for values in outcome.latencies.values():
        values.clear()
    traced_records, report, _ = session(True, fixed_pass)
    check(outcome, requests, traced_records, expected, keep=True)

    import layers

    ctx = outcome.trace_context(untraced)
    ctx.update(
        queries=len(traced_records),
        reads=len(traced_records),
        client_ms=sum(r.ms for r in traced_records),
        pages=sum(r.pages for r in traced_records),
        shed=report["shed"],
        plan_cache_hits=report["plan_cache_hits"],
        plan_cache_misses=report["plan_cache_misses"],
    )
    outcome.layers = layers.layer_metrics(report["summary"], ctx)
    return outcome
