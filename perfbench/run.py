"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload la-paper --seed 1 --seconds 30 --trace 0

Run from the repository root: the program under test is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` runs a fixed, seed-determined amount of work with
span wrappers installed and reports the per-layer metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Any answer that differs from its oracle makes
the run exit 1. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import CALIBRATION_NOMINAL_MS, END_TO_END  # noqa: E402
from layers import DETERMINISTIC_COUNTS, PER_LAYER  # noqa: E402

WORKLOADS = ("la-paper", "serve-mix", "ingest-views")
#: where count digests of traced runs are kept, to flag drift
STATE_DIR = Path(".perfbench")


def _workload_module(name: str):
    if name == "la-paper":
        import la_paper as module
    elif name == "serve-mix":
        import serve_mix as module
    else:
        import ingest_views as module
    return module


def code_digest() -> str:
    """Digest of the program and benchmark sources: counts are compared
    only between runs of the same code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def count_drift(workload: str, seed: int, layers_out) -> int:
    """Compare this run's deterministic counts with an earlier traced run
    of the same code and seed; print and return how many differ."""
    counts = {name: layers_out[name] for name in DETERMINISTIC_COUNTS}
    path = STATE_DIR / f"counts-{workload}-{seed}-{code_digest()}.json"
    if not path.exists():
        STATE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return 0
    earlier = json.loads(path.read_text())
    drifted = [name for name in counts if earlier.get(name) != counts[name]]
    for name in drifted:
        print(f"COUNT DRIFT {name}: {earlier.get(name)!r} -> {counts[name]!r}")
    return len(drifted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = _workload_module(args.workload)
    # one CPU for everything the run starts (the server process inherits
    # the mask): on a shared host, work spread over two CPUs meets far
    # more stolen time, and its timings swing with it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # temporary files (disk-mode segments, the WAL data directory) stay
    # inside the checkout, and go when the run ends
    work = STATE_DIR / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work.resolve())
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"attempted {outcome.attempted} failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")
    correct = outcome.failed == 0
    metrics = {}
    if args.trace:
        drift = count_drift(args.workload, args.seed, outcome.layers)
        outcome.layers["bench.count_drift"] = drift
        for name, unit, *_ in PER_LAYER:
            metrics[name] = {"value": outcome.layers[name], "unit": unit}
            print(f"  {name:<40} {outcome.layers[name]:14.6g} {unit}")
    else:
        print("per operation class (raw wall time):")
        for line in outcome.class_lines():
            print(line)
        factor = outcome.host_factor()
        print(
            f"calibration kernel: mean {CALIBRATION_NOMINAL_MS / factor:.3f} ms "
            f"(nominal {CALIBRATION_NOMINAL_MS} ms), n={len(outcome.calibration_ms)}"
        )
        raw = outcome.end_to_end()
        values = outcome.end_to_end(scale=factor)
        samples = len(outcome.samples())
        print(f"  {'metric':<20} {'scaled':>14} {'raw':>14}")
        for name, unit in END_TO_END:
            n = len(outcome.setup_s) if name == "setup_s" else samples
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<20} {values[name]:14.6g} {raw[name]:14.6g} {unit}  n={n}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
