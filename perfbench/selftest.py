"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs a tiny version of every workload (``run.py --tiny``) untraced and
   traced, and checks that the last line has exactly the result keys, that
   the run is correct, that every metric named in BENCHMARK.json is
   printed with its unit, and that the traced run sees calls made through
   every kind of binding.
2. Checks that the correctness gate reports a changed ``all`` digest, a
   perturbed Casimir, and a bracket kernel that returns zero.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

from run import HERE, ROOT, gate
import workloads

# Per-layer counts that stay 0 if the tracer misses a binding: names imported
# by another module (cli, casimirs, leaves) and class-attribute aliases.
WIRED = {
    "acceptance": ("cli.calls", "casimirs.verify_central.calls", "weierstrass.sym_eval.calls",
                   "leaves.diagonal_vanish_check.calls", "brackets.bracket_poly.calls"),
    "exact-reach": ("casimirs.involution_family.calls", "brackets.bracket_poly.calls",
                    "poly.parampoly_mul.calls", "poly.epoly_mul.calls"),
    "formal-window": ("brackets.verify_closure.calls", "brackets.generator_bracket.calls"),
    "numeric-sweep": ("weierstrass.weier_eval.calls", "leaves.xp_eval.calls",
                      "weierstrass.lattice_init.failed", "casimirs.sym_det.calls"),
}


def check_tiny_runs(spec: dict) -> list[str]:
    errors = []
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
            label = f"{name} trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                errors.append(f"{label}: not correct (exit {proc.returncode})\n{proc.stdout}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want))}")
            unwired = [m for m in WIRED[name] if trace and not result["metrics"][m]["value"]]
            if unwired:
                errors.append(f"{label}: no calls recorded for {unwired}")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}")
    return errors


def check_gate() -> list[str]:
    errors = []
    expected = json.loads((HERE / "expected.json").read_text())
    seed = workloads.BASE_SEED
    recorded_all = expected["workloads"]["acceptance"]["all"]
    genuine = {"all": {"verdict": "pass",
                       "digests": recorded_all["digests_by_seed"][str(seed)], "margin": None}}
    if gate("acceptance", seed, genuine, expected):
        errors.append("gate rejects the recorded `all` digest")
    changed = {"all": dict(genuine["all"], digests={"stdout": "0" * 64})}
    if not gate("acceptance", seed, changed, expected):
        errors.append("gate accepts a changed `all` digest")

    sys.path.insert(0, str(ROOT / "src"))
    mods = workloads.load_modules()
    inputs, built = workloads.NUMERIC_SWEEP.setup(mods, seed)
    outcomes = {k: dataclasses.asdict(v) for k, v in built.items()}
    if gate("numeric-sweep", seed, outcomes, expected):
        errors.append("gate rejects the Casimirs built in numeric-sweep set-up")
    cs = inputs["cs7"]
    bumped = cs.elements[0] + mods.poly.EPoly.monomial((0, 2, 3, 4, 5, 6, 7), 1)
    perturbed = dataclasses.replace(cs, elements=(bumped,))
    outcomes["casimir-n7"]["digests"] = {
        "casimir": workloads.sha256(workloads.casimir_text(perturbed))}
    if not gate("numeric-sweep", seed, outcomes, expected):
        errors.append("gate accepts a perturbed Casimir")

    # A kernel that drops every term makes the perturbed control look central.
    exact_inputs, _ = workloads.EXACT_REACH.setup(mods, seed)
    control = next(t for t in workloads.EXACT_REACH.tasks
                   if t.name == "centrality-perturbed-control")
    original = mods.casimirs.bracket_poly
    mods.casimirs.bracket_poly = lambda P, Q, spec, n_value=None: mods.poly.EPoly.zero()
    try:
        outcome = dataclasses.asdict(control.run(mods, exact_inputs))
    finally:
        mods.casimirs.bracket_poly = original
    if not gate("exact-reach", seed, {control.name: outcome}, expected):
        errors.append("gate accepts a zero bracket kernel")
    print(f"gate checks: {'ok' if not errors else 'FAILED'}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_gate() + check_tiny_runs(spec)
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
