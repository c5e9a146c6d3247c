"""What every workload returns, and the end-to-end metrics made from it.

The host's speed drifts: on the shared machine this benchmark was sized
on, a fixed pure-Python loop ran up to 15 % slower for minutes at a
time, and every class of operation slowed with it. So each workload
interleaves a fixed calibration kernel with its operations, and the
end-to-end times are scaled by the kernel's nominal time over its mean
time in the run: they read as milliseconds on a host running the kernel
in :data:`CALIBRATION_NOMINAL_MS`. The report prints the raw times too.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from spans import geomean, percentile, tail_percentile

#: the calibration kernel's time on the host the benchmark was sized on
CALIBRATION_NOMINAL_MS = 15.0

#: the end-to-end metrics, reported by every workload: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("mix_ms_geomean", "ms"),
)


def timed(fn: Callable, *args):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def calibration_kernel() -> float:
    """Fixed work of the kinds the engine does: small NumPy tensor ops,
    dict updates and a sort of Python objects."""
    acc = np.zeros((8, 8))
    counts: Dict[int, int] = {}
    for i in range(2000):
        v = np.full(8, float(i))
        acc += np.outer(v, v)
        counts[i % 97] = counts.get(i % 97, 0) + 1
    rows = sorted((i * 7919) % 10007 for i in range(20000))
    return float(acc[0, 0]) + rows[-1] + len(counts)


def median_ms(fn: Callable, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        elapsed, _ = timed(fn)
        samples.append(elapsed * 1e3)
    return statistics.median(samples)


class Outcome:
    """Latencies per operation class, set-up times, outcome counts and,
    for a traced run, the per-layer metrics."""

    def __init__(self, classes: List[str]):
        self.latencies: Dict[str, List[float]] = {name: [] for name in classes}
        self.setup_s: List[float] = []
        self.calibration_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: wall seconds of the timed window when callers overlap (else
        #: the sum of operation latencies is the busy time)
        self.window_s: Optional[float] = None
        self.layers: Dict[str, float] = {}
        self.tracer = None

    def calibrate(self) -> None:
        elapsed, _ = timed(calibration_kernel)
        self.calibration_ms.append(elapsed * 1e3)

    def host_factor(self) -> float:
        """Nominal over mean calibration time: >1 on a fast host. The
        mean, not the median: time the host takes away in bursts slows
        the kernel in proportion, as it slows the workload."""
        return CALIBRATION_NOMINAL_MS / statistics.fmean(self.calibration_ms)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    # -- tracing -------------------------------------------------------------

    def start_trace(self):
        import layers
        from spans import Tracer

        self.tracer = Tracer()
        layers.install(self.tracer)
        return self.tracer

    def stop_trace(self) -> None:
        self.tracer.uninstall()

    def trace_context(self, untraced: Dict[str, List[float]]) -> Dict[str, float]:
        """Operation count of the traced pass and its overhead against
        the same work untraced."""
        traced_ms = sum(sum(v) for v in self.latencies.values())
        untraced_ms = sum(sum(v) for v in untraced.values())
        return {
            "ops": sum(len(v) for v in self.latencies.values()),
            "trace_overhead": traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0,
        }

    # -- end-to-end ------------------------------------------------------------

    def samples(self) -> List[float]:
        return [ms for values in self.latencies.values() for ms in values]

    def end_to_end(self, scale: float = 1.0) -> Dict[str, float]:
        """The metrics, with times multiplied by ``scale``."""
        samples = self.samples()
        busy_s = self.window_s if self.window_s is not None else sum(samples) / 1e3
        return {
            "setup_s": statistics.median(self.setup_s) * scale,
            "ops_per_s": len(samples) / busy_s / scale,
            "op_ms_p50": percentile(samples, 50.0) * scale,
            "op_ms_p90": percentile(samples, 90.0) * scale,
            "mix_ms_geomean": geomean(
                [statistics.median(v) for v in self.latencies.values()]
            ) * scale,
        }

    def class_lines(self) -> List[str]:
        """Per operation class: median, the highest percentile with at
        least ten samples beyond it, and the sample count."""
        lines = []
        for name, values in self.latencies.items():
            if not values:
                lines.append(f"  {name + '_ms':<24} no samples")
                continue
            line = f"  {name + '_ms':<24} p50 {statistics.median(values):10.3f} ms"
            tail = tail_percentile(len(values))
            if tail is not None and tail > 50.0:
                line += f"  p{tail:g} {percentile(values, tail):10.3f} ms"
            lines.append(line + f"  n={len(values)}")
        return lines
