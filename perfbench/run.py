"""Benchmark of the elliptic-poisson verifier, timed from outside the library.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Workloads are defined in
``workloads.py``; the benchmark seed picks one of the recorded sample seeds
(``workloads.sample_seed``).  Each repetition runs in a fresh interpreter
(``worker.py``), so the library's ``lru_cache``s start empty every time, as
they do for a user of the CLI.  Repetitions continue until ``--seconds``
have passed (at least three).  Every output is checked against the digests
and verdicts in ``expected.json``, recorded from the seed package by
``record.py``; a mismatch, an unexpected exception or a crashed worker
counts as a failed operation and makes the run exit with code 1.

End-to-end metrics (``--trace 0``), medians over the run:

* ``wall_s``: the task list's wall time, scaled to a fixed reference
  interpreter speed by the speed probe in ``worker.py``;
* ``setup_s``: interpreter start, import and input construction, scaled the
  same way, from every repetition plus set-up-only workers (at least seven);
* ``peak_rss_mb``: peak resident memory of a repetition's process.

``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics of ``tracer.py``.  Lines before the final JSON line are a
human-readable summary: raw and scaled times per repetition, per-task
times, ``failed_frac`` with its base and the numeric checks' ``margin_max``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_SETUPS = 7
DEADLINE_S = 170.0  # a run must end well within 180 s

sys.path.insert(0, str(HERE))
from workloads import BASE_SEED, KNOWN_DEFECT, WORKLOADS, sample_seed  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, tiny: bool, timeout: float,
          spans_path: Path | None = None) -> dict:
    """Run one worker; return its result with the spawn-to-ready time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), mode,
           "1" if tiny else "0"]
    if spans_path is not None:
        cmd.append(str(spans_path))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - start
    result["wall_raw_s"] = sum(result["times"].values())
    result["wall_s"] = sum(result["reference_times"].values())
    result["speed"] = result["wall_s"] / result["wall_raw_s"] if result["wall_raw_s"] else 1.0
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def gate(workload: str, seed: int, outcomes: dict, expected: dict) -> list[str]:
    """Mismatches between one repetition's outcomes and the recorded ones."""
    recorded = expected["workloads"][workload]
    problems = []
    for task, out in outcomes.items():
        want = recorded.get(task)
        if want is None:
            problems.append(f"{task}: nothing recorded")
            continue
        if want["verdict"] == KNOWN_DEFECT:
            # A fixed defect may pass; its self-test must then pass too.
            if out["verdict"] not in (KNOWN_DEFECT, "pass"):
                problems.append(f"{task}: verdict {out['verdict']}")
            continue
        if out["verdict"] != want["verdict"]:
            problems.append(f"{task}: verdict {out['verdict']}, expected {want['verdict']}")
        digests = want["digests_by_seed"][str(seed)] if "digests_by_seed" in want \
            else want["digests"]
        if out["digests"] != digests:
            bad = sorted(k for k in set(digests) | set(out["digests"])
                         if digests.get(k) != out["digests"].get(k))
            problems.append(f"{task}: {', '.join(bad)} digest differs from the recorded one")
    return problems


def expected_count(workload: str, tiny: bool) -> int:
    return sum(1 for t in WORKLOADS[workload].tasks if t.tiny or not tiny)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test only: run each workload's cheap task subset once")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elliptic_poisson" / "__init__.py").is_file():
        print(f"error: no elliptic_poisson source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    seed = sample_seed(args.seed)
    name = args.workload
    started = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    reps, traced, setups, problems = [], None, [], []
    attempted = failed = known = 0
    try:
        spawn(name, seed, "setup", args.tiny, left())  # compiles bytecode; not timed
        min_reps = 1 if args.tiny or args.trace else MIN_REPS
        while True:
            rep = spawn(name, seed, "run", args.tiny, left())
            reps.append(rep)
            elapsed = time.monotonic() - started
            if len(reps) >= min_reps and (args.trace or elapsed + rep["wall_raw_s"] > args.seconds
                                          or left() < 2 * rep["wall_raw_s"] + 5):
                break
        if args.trace:
            spans_path = ROOT / ".perfbench" / f"spans-{name}-{seed}.json"
            traced = spawn(name, seed, "trace", args.tiny, left(), spans_path)
        else:
            setups = [r["setup_s"] for r in reps]
            while len(setups) < MIN_SETUPS:
                setups.append(spawn(name, seed, "setup", args.tiny, left())["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        problems.append(str(exc))
        attempted += expected_count(name, args.tiny)
        failed += expected_count(name, args.tiny)

    for rep in reps + ([traced] if traced else []):
        attempted += len(rep["outcomes"])
        known += sum(1 for o in rep["outcomes"].values() if o["verdict"] == KNOWN_DEFECT)
        bad = gate(name, seed, rep["outcomes"], expected)
        failed += len(bad)
        problems.extend(bad)

    margins = [o["margin"] for r in reps for o in r["outcomes"].values()
               if o["margin"] is not None]
    margin_max = max(margins) if margins else 0.0
    failed_frac = (failed + known) / attempted if attempted else 1.0
    walls = [r["wall_s"] for r in reps]

    print(f"workload {name}: seed {args.seed} (sample seed {seed}), "
          f"{len(reps)} repetition(s) in fresh interpreters, trace {args.trace}")
    for key in ("wall_raw_s", "speed", "wall_s", "setup_raw_s"):
        print(f"  {key:12s} per repetition: " + " ".join(f"{r[key]:.4f}" for r in reps))
    print("  setup_s      per sample:     " + " ".join(f"{s:.4f}" for s in setups))
    for task in (reps[0]["times"] if reps else {}):
        times = [r["times"][task] for r in reps]
        print(f"  {task:32s} median {median(times):8.3f} s  min {min(times):8.3f} s")
    print(f"  failed_frac {failed + known}/{attempted} = {failed_frac:.4f} "
          f"(base: {known} known-defect probe hits, {failed} gate failures)")
    print(f"  margin_max {margin_max:.4g}" if margins else "  margin_max n/a (no numeric checks)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")

    if args.trace:
        values = dict(traced["layers"]) if traced else {}
        values["trace.overhead_s"] = (traced["wall_raw_s"] - reps[0]["wall_raw_s"]
                                      if traced and reps else 0.0)
        values["margin_max"] = margin_max
        values["failed_frac"] = failed_frac
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": median(walls), "setup_s": median(setups),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in reps])}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
