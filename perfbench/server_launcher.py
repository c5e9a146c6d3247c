"""Runs the HTTP server in its own process for the ``serve-mix`` workload.

    python3 perfbench/server_launcher.py --seed 1 --trace 0

Builds the serving database with ``repro.bench.serve.build_database``
(80 points x 6 dims on a 2x2 cluster), starts ``repro.server.Server``
on an ephemeral port and prints ``listening <host> <port>``. It then
reads commands from standard input, one per line:

* ``reset`` — forget what the tracer recorded so far (after warm-up);
* ``stop`` — stop the server, print one JSON line with the span summary
  (traced) and the server's counters since the last reset, and exit.

It does not use ``python -m repro.server``: that entry point's
``--slots`` flag passes ``slots=`` to ``ClusterConfig``, which has no
such field (``TypeError``), so the benchmark starts the server through
the public API instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.bench.serve import ServeConfig, build_database  # noqa: E402
from repro.server import Server, ServerConfig  # noqa: E402


def _counters(server: Server) -> dict:
    stats = server.stats()
    cache = stats["plan_cache"]
    return {
        "plan_cache_hits": cache["hits"],
        "plan_cache_misses": cache["misses"],
        "shed": stats["server"]["shed_total"] + stats["server"]["rate_limited_total"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    db = build_database(ServeConfig(seed=args.seed))
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        layers.install_server(tracer)
    server = Server(db, config=ServerConfig(port=0))
    server.start()
    host, port = server.address
    print(f"listening {host} {port}", flush=True)

    base = _counters(server)
    for line in sys.stdin:
        command = line.strip()
        if command == "reset":
            if tracer is not None:
                tracer.reset()
            base = _counters(server)
            print("ok", flush=True)
        elif command == "stop":
            break
    server.stop()
    now = _counters(server)
    report = {key: now[key] - base[key] for key in now}
    if tracer is not None:
        tracer.uninstall()
        report["summary"] = tracer.summary()
    db.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
