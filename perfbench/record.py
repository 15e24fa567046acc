"""Record the reference outputs that run.py checks every repetition against.

    python3 perfbench/record.py

Runs every workload once per sample seed (``BASE_SEED + k`` for k below
``SEED_SLOTS``) in fresh interpreters and writes ``expected.json``: each
task's verdict and output digests, per sample seed for seeded tasks.  Tasks
that do not depend on the seed must give identical outcomes under every
seed, or recording stops.  Run it only on a commit whose outputs are the
reference (the benchmark was recorded from the seed package); a change that
alters outputs must not re-record to make the gate pass.
"""

from __future__ import annotations

import json
import sys

from run import HERE, spawn
from workloads import BASE_SEED, SEED_SLOTS, WORKLOADS


def main() -> int:
    recorded = {}
    for name, workload in WORKLOADS.items():
        seeded = {t.name for t in workload.tasks if t.seeded}
        tasks: dict[str, dict] = {}
        for k in range(SEED_SLOTS):
            seed = BASE_SEED + k
            outcomes = spawn(name, seed, "run", False, 600.0)["outcomes"]
            for task, out in outcomes.items():
                entry = tasks.setdefault(task, {"verdict": out["verdict"]})
                if entry["verdict"] != out["verdict"]:
                    raise SystemExit(f"{name}/{task}: verdict changes with the seed")
                if task in seeded:
                    entry.setdefault("digests_by_seed", {})[str(seed)] = out["digests"]
                elif entry.setdefault("digests", out["digests"]) != out["digests"]:
                    raise SystemExit(f"{name}/{task}: unseeded output changes with the seed")
            print(f"{name} seed {seed}: " + ", ".join(
                f"{t}={o['verdict']}" for t, o in outcomes.items()), file=sys.stderr)
        recorded[name] = tasks
    doc = {"base_seed": BASE_SEED, "seed_slots": SEED_SLOTS, "workloads": recorded}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
