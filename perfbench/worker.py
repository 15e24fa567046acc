"""One repetition of one workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py ROOT WORKLOAD SAMPLE_SEED MODE TINY [SPANS_PATH]

MODE is ``setup`` (build the inputs and stop), ``run`` (also run the task
list under the speed probe) or ``trace`` (run it with the span recorder
installed before the inputs are built).  TINY is 1 to run only the
self-test's task subset.  The last line of stdout is one JSON object: the
monotonic time at which the inputs were ready and the speed just then,
per-task raw and reference-speed seconds, outcomes, peak RSS and, when
traced, the per-layer metrics.  The library's own output never reaches
stdout; the acceptance task captures it.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_INTERVAL_S = 0.025
REFERENCE_PROBE_S = 5e-4
"""Time of one probe loop at the reference interpreter speed."""


def _probe_time() -> float:
    """Seconds taken by a fixed pure-Python loop that never calls the library."""
    start = time.perf_counter()
    table = {}
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003
        table[(i & 63, x & 7)] = x
    return time.perf_counter() - start


class SpeedProbe:
    """Converts the tasks' wall time to time at a fixed reference speed.

    The speed of one single-threaded process on a host shared with other
    tenants drifts by up to 2x within seconds, so raw wall times of the
    same code spread by 15-30% between runs.  Every PROBE_INTERVAL_S a
    timer signal runs a fixed pure-Python loop that does not touch the
    library.  Each interval between two probes is scaled by
    REFERENCE_PROBE_S over the median of the last three probe times, and
    the scaled intervals add up to ``reference``.  Probe time itself is
    counted in ``spent`` and left out of both clocks.  Inactive, the probe
    does nothing.
    """

    def __init__(self, active: bool):
        self.active = active
        self.recent: list[float] = []
        self.spent = 0.0
        self.reference = 0.0
        self._last = time.perf_counter()

    def mark(self, *_signal_args) -> None:
        """Probe now and close the interval since the previous probe."""
        if not self.active:
            return
        start = time.perf_counter()
        elapsed = _probe_time()
        self.recent = (self.recent + [elapsed])[-3:]
        self.spent += elapsed
        self.reference += (start - self._last) * REFERENCE_PROBE_S / statistics.median(self.recent)
        self._last = start + elapsed

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self.mark)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
            self.mark()
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cache_counts(fn) -> tuple[int, int]:
    """(hits, misses) of an lru_cache-wrapped library function, or zeros
    once the library no longer caches it."""
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def main(argv: list[str]) -> int:
    root, name, seed, mode, tiny = Path(argv[1]), argv[2], int(argv[3]), argv[4], argv[5] == "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import workloads
    from tracer import Tracer

    mods = workloads.load_modules()
    if Path(mods.poly.__file__).resolve().parent.parent != src:
        print(f"imported {mods.poly.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    inputs, built = workload.setup(mods, seed)
    ready = time.monotonic()
    setup_probe = statistics.median(_probe_time() for _ in range(5))
    result = {"ready": ready, "setup_speed": REFERENCE_PROBE_S / setup_probe,
              "outcomes": {k: dataclasses.asdict(v) for k, v in built.items()},
              "times": {}, "reference_times": {}}
    tasks = [t for t in workload.tasks if t.tiny or not tiny] if mode != "setup" else []
    with SpeedProbe(active=mode == "run") as probe:
        for task in tasks:
            probe.mark()
            start, spent, reference = time.perf_counter(), probe.spent, probe.reference
            try:
                outcome = task.run(mods, inputs)
            except Exception as exc:  # a crash is recorded as a failed operation
                traceback.print_exc()
                outcome = workloads.Outcome(f"raises:{type(exc).__name__}")
            probe.mark()
            result["times"][task.name] = time.perf_counter() - start - (probe.spent - spent)
            result["reference_times"][task.name] = probe.reference - reference
            result["outcomes"][task.name] = dataclasses.asdict(outcome)
    if tracer is not None:
        layers = tracer.metrics()
        hits, misses = _cache_counts(getattr(mods.brackets, "_generator_bracket_cached", None))
        layers.update({
            "brackets.gen_cache.hits": hits,
            "brackets.gen_cache.misses": misses,
            "brackets.gen_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "brackets.bracket_basis.misses":
                _cache_counts(getattr(mods.brackets, "bracket_basis", None))[1],
            "report.bytes": inputs.get("report_bytes", 0),
        })
        result["layers"] = layers
        if len(argv) > 6:
            Path(argv[6]).parent.mkdir(parents=True, exist_ok=True)
            Path(argv[6]).write_text(json.dumps({"workload": name, "seed": seed,
                                                 "spans": tracer.spans}))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
