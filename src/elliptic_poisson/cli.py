"""Command-line driver: configuration, sweeps, golden files, and reports.

A subcommand takes the flags it reads, as ``_COMMANDS`` lists them, and
``--config``, ``--out`` and ``--format``; only the subcommand being parsed
gets its flags.  Its help is the docstring of its function, and each flag
shows its default.  Each ``key=value`` line of a ``--config`` file is read
as the flag it names (``--key=value``, or the bare switch), placed before
the flags of the command line, so argparse checks a config value exactly
like the flag and a flag on the line wins.

Reports stream as JSON lines (one object per check plus a summary object);
``--format text`` renders the same data as a table; ``--out`` is emptied
only once the command has returned, and a file that the run created is
removed if the command does not return.  Exit codes: 0 all checks passed, 1 at
least one failure (a lattice that fails its own certification and a
residual past the float range included), 2 usage or configuration error
(an unwritable ``--out`` and an ``--n`` no float holds included), 3
internal error (a crash, not a failed check).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from importlib import resources
from random import Random

from .brackets import BracketSpec, generator_bracket, verify_closure, verify_jacobi_window
from .casimirs import (
    CasimirSet,
    build_matrix,
    casimirs,
    involution_family,
    rank1_identity_check,
    verify_central,
)
from .leaves import (
    CONVENTION_PRINTED,
    LeafConfig,
    diagonal_vanish_check,
    draw_leaf_sample,
    kernel_check,
    nondegeneracy_check,
    prop3_check,
)
from .poly import IndexSet
from .report import Report, Tally, make_report, render_table, summary
from .weierstrass import (
    CertificationError,
    SamplePlan,
    identity5_sweep,
    lattice_init,
    verify_functional,
    weierstrass_selftest,
)

SEED_ENV = "ELLIPTIC_POISSON_SEED"
DEFAULT_SEED = 20240915
TRIPLE_GUARDRAIL = 10_000

CORE_WINDOW = (0, 2, 3, 4, 5, 6, 7, 8, 9, 10)
ACCEPTANCE_TAUS = ("i", "0.3+1.1i")
ACCEPTANCE_FUNCTIONAL_N = tuple(map(Fraction, (2, 3, 5, 8)))
ACCEPTANCE_CENTRAL_N = (3, 4, 5, 6, 7, 8)
ACCEPTANCE_PROP3 = ((1, 4), (2, 5), (2, 6), (3, 7))
ACCEPTANCE_KERNEL = ((4, 1), (6, 2), (3, 1), (5, 2), (7, 3))
ACCEPTANCE_INVOLUTION_N = (4, 5, 6)
CLOSURE_BRACKETS = (("elliptic", BracketSpec.elliptic()), ("1", BracketSpec.basis(1)),
                    ("2", BracketSpec.basis(2)), ("3", BracketSpec.basis(3)))


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def parse_tau(text: str) -> complex:
    """Parse 'a+bi' style complex numbers ('i', '1.1i', '0.3+1.1i', ...)."""
    s = text.strip().replace(" ", "").replace("i", "j")
    if not s:
        raise UsageError("empty tau")
    try:
        return complex(s)
    except ValueError:
        raise UsageError(f"malformed tau {text!r} (expected a+bi)") from None


def parse_window(text: str) -> list[int]:
    """Window syntax: 'a..b' (inclusive range), 'FN' (the {0} u {2..N}
    subalgebra window), or a comma list of integers."""
    s = text.strip()
    m = re.fullmatch(r"[Ff](\d+)", s)
    if m:
        if int(m.group(1)) < 1:
            raise UsageError(f"empty window {text!r}")
        return IndexSet.fn(int(m.group(1))).members()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", s)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise UsageError(f"empty window {text!r}")
        return list(range(lo, hi + 1))
    try:
        return sorted({int(p) for p in s.split(",")})
    except ValueError:
        raise UsageError(f"malformed window {text!r}") from None


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {text!r}") from None


def parse_degree(text: str, minimum: int, what: str) -> int:
    """An integer degree parameter of at least ``minimum``; a fractional or
    smaller value is a usage error, never truncated."""
    value = parse_rational(text)
    if value.denominator != 1:
        raise UsageError(f"{what} needs an integer n, got {text!r}")
    if value < minimum:
        raise UsageError(f"{what} needs n >= {minimum}, got {value}")
    return int(value)


def _load_config(path: str, command: str) -> list[str]:
    """The flags that the ``key=value`` lines of a config file name: a
    switch of ``command`` is given bare when its value is true, and every
    other flag it takes but --config becomes ``--key=value``."""
    keys = {flag.partition("=")[0] for flag in ("out", "format", *_COMMANDS[command][1].split())}
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("_", "-")
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                flag = "--" + key
                if "action" not in _FLAGS[key]:
                    flags.append(f"{flag}={value}")
                elif value.lower() in ("1", "true", "yes"):
                    flags.append(flag)
                elif value.lower() not in ("0", "false", "no"):
                    raise UsageError(f"{path}:{lineno}: {key} is a switch, "
                                     f"expected true or false, got {value!r}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return flags


def _resolve_bracket(name: str) -> BracketSpec:
    if name == "elliptic":
        return BracketSpec.elliptic()
    if name in ("1", "2", "3"):
        return BracketSpec.basis(int(name))
    if name == "lambda":
        return BracketSpec.custom()
    m = re.fullmatch(r"custom:([^,]+),([^,]+),([^,]+)", name)
    if m:
        return BracketSpec.custom(*(parse_rational(g) for g in m.groups()))
    raise UsageError(f"unknown bracket {name!r}")


def casimir_lines(cs: CasimirSet) -> list[str]:
    label = {"even-pair": ("C0", "C1"), "odd-single": ("C",)}[cs.kind]
    return [f"{name} = {elem.to_text()}" for name, elem in zip(label, cs.elements)]


def golden_casimir_check(n: int) -> Report:
    """Compare the built central elements with the shipped golden file."""
    tally = Tally()
    built = "\n".join(casimir_lines(casimirs(n))) + "\n"
    golden = resources.files("elliptic_poisson").joinpath(f"golden/v1/casimir_n{n}.txt")
    frozen = golden.read_text(encoding="utf-8")
    if built != frozen:
        tally.fail(f"casimir n={n}", f"built:\n{built}\ngolden:\n{frozen}")
    return tally.report(f"casimir-golden-n{n}", {"n": n})


def bracket_table(window: list[int], n_value: Fraction | None) -> tuple[Report, list[str]]:
    """Render every generator bracket over a window, for the three basis
    brackets and the elliptic combination."""
    lines = []
    specs = [("1", BracketSpec.basis(1)), ("2", BracketSpec.basis(2)),
             ("3", BracketSpec.basis(3)), ("elliptic", BracketSpec.elliptic())]
    for i, alpha in enumerate(window):
        for beta in window[i:]:
            for name, spec in specs:
                value = generator_bracket(alpha, beta, spec, n_value=n_value)
                lines.append(f"{{e[{alpha}], e[{beta}]}}_{name} = {value.to_text()}")
    rep = make_report("bracket-table", {
        "window": window,
        "n": "formal" if n_value is None else str(n_value),
        "rows": len(lines),
    }, [])
    return rep, lines


# -- acceptance blocks shared by `all` and the subcommands ---------------------


def closure_reports(ns, specs) -> list[Report]:
    """Closure of F_n under each named bracket, for each n."""
    return [verify_closure(n, spec, check_name=f"closure-n{n}-b{name}")
            for n in ns for name, spec in specs]


def elliptic_reports(L, plan: SamplePlan, ns, suffix: str = "") -> list[Report]:
    """Weierstrass self-test, Z-identities, and the functional cross-check at
    each n on the window {0} u {2..min(8, n)}; ``suffix`` ends each check
    name."""
    reports = [
        weierstrass_selftest(L, SamplePlan(plan.seed, plan.count, tolerance=1e-9),
                             check_name=f"weierstrass-selftest{suffix}"),
        identity5_sweep(L, SamplePlan(plan.seed, plan.count, tolerance=1e-8),
                        check_name=f"identity5{suffix}"),
    ]
    for n in ns:
        hi = min(8, int(n)) if n == int(n) else 8
        reports.append(verify_functional(L, n, [0, *range(2, hi + 1)], plan,
                                         check_name=f"functional{suffix}-n{n}"))
    return reports


def kernel_reports(cfg: LeafConfig, seed: int, count: int, vanish_count: int) -> list[Report]:
    """Kernel membership of the central elements of degree n (``count``
    samples), then the collision check of each (``vanish_count``)."""
    n = int(cfg.n_value)
    cs = casimirs(n)
    reports = [kernel_check(cfg, cs, SamplePlan(seed, count, tolerance=1e-8))]
    for ci, elem in enumerate(cs.elements):
        reports.append(diagonal_vanish_check(
            cfg, elem, SamplePlan(seed, vanish_count, tolerance=1e-8),
            check_name=f"diagonal-vanish-n{n}-p{cfg.p}-c{ci}"))
    return reports


def nondegeneracy_report(cfg: LeafConfig, seed: int) -> Report:
    """Nondegeneracy at the leaf sample drawn from ``Random(seed)``."""
    return nondegeneracy_check(cfg, draw_leaf_sample(cfg, Random(seed)))


# -- command implementations --------------------------------------------------


def _cmd_bracket_table(args):
    """Print every generator bracket over --window, under the three basis
    brackets and the elliptic one."""
    window = parse_window(args.window)
    rep, lines = bracket_table(window, None if args.n == "formal" else parse_rational(args.n))
    return [rep], lines


def _cmd_verify_jacobi(args):
    """Check the Jacobi identity on every increasing triple of --window."""
    window = parse_window(args.window)
    triples = len(window) * (len(window) - 1) * (len(window) - 2) // 6
    if triples > TRIPLE_GUARDRAIL and not args.force:
        raise UsageError(
            f"window yields {triples} triples (> {TRIPLE_GUARDRAIL}); pass --force to proceed")
    n_value = None if args.n == "formal" else parse_rational(args.n)
    return [verify_jacobi_window(window, _resolve_bracket(args.bracket), n_value=n_value)], []


def _cmd_verify_closure(args):
    """Check that F_n is closed under --bracket, for each n of --n."""
    m = re.fullmatch(r"(\d+)\.\.(\d+)", args.n)
    if m:
        ns = list(range(parse_degree(m.group(1), 2, "closure check"), int(m.group(2)) + 1))
        if not ns:
            raise UsageError(f"empty range {args.n!r}")
    else:
        ns = [parse_degree(args.n, 2, "closure check")]
    specs = (CLOSURE_BRACKETS if args.bracket == "all"
             else [(args.bracket, _resolve_bracket(args.bracket))])
    return closure_reports(ns, specs), []


def _make_lattice(args):
    """The lattice of --tau, or a failing lattice-certification report when
    the lattice fails its own self-checks; degenerate periods are a usage
    error."""
    tau = parse_tau(args.tau)
    try:
        return lattice_init(1, tau)
    except CertificationError as exc:
        tally = Tally()
        tally.fail(f"tau={args.tau}", str(exc))
        return tally.report("lattice-certification", {"tau": args.tau})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _sample_plan(seed: int, count: int, tolerance: float) -> SamplePlan:
    """A sample plan from the flags; a value it rejects is a usage error."""
    try:
        return SamplePlan(seed, count, tolerance)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_verify_elliptic(args):
    """Check the Weierstrass functions and the functional realization of
    the bracket at the period ratio --tau."""
    plan = _sample_plan(args.seed, args.samples, args.tol)
    ns = ACCEPTANCE_FUNCTIONAL_N
    if args.n is not None:
        ns = [parse_rational(args.n)]
        try:
            float(ns[0])  # the numerics take n as a float
        except OverflowError:
            raise UsageError(f"n {args.n!r} is beyond the float range") from None
    L = _make_lattice(args)
    return ([L] if isinstance(L, Report) else elliptic_reports(L, plan, ns)), []


def _cmd_casimir_build(args):
    """Print the central elements of degree --n."""
    if args.n is None:
        raise UsageError("casimir-build needs --n")
    n = parse_degree(args.n, 3, "casimir construction")
    cs = casimirs(n)
    return [make_report(f"casimir-build-n{n}", {
        "n": n, "kind": cs.kind,
        "degrees": [c.homogeneous_degree() for c in cs.elements],
    }, [])], casimir_lines(cs)


def _degrees(args, what: str, default) -> list[int]:
    """The degree of --n (at least 3), or the acceptance degrees."""
    return [parse_degree(args.n, 3, what)] if args.n is not None else list(default)


def _cmd_casimir_verify(args):
    """Check that the central elements of degree --n are central, with the
    rank-one identities at even n."""
    reports = []
    for n in _degrees(args, "casimir construction", ACCEPTANCE_CENTRAL_N):
        reports.append(verify_central(casimirs(n)))
        if n % 2 == 0:
            reports.append(rank1_identity_check(build_matrix("g", n), check_name=f"rank1-g-n{n}"))
            reports.append(rank1_identity_check(build_matrix("g2m", n), check_name=f"rank1-g2m-n{n}"))
    return reports, []


def _cmd_involution(args):
    """Check the Lenard chains of the pencil family of degree --n."""
    return [involution_family(n)
            for n in _degrees(args, "involution check", ACCEPTANCE_INVOLUTION_N)], []


def _cmd_leaves_verify(args):
    """Check the leaves of --p points at degree --n: the homomorphism onto
    the leaf bracket, the kernel when 2p < n, and nondegeneracy."""
    plan = _sample_plan(args.seed, args.samples, args.tol)
    if (args.n is None) != (args.p is None):
        raise UsageError("leaves-verify needs both --n and --p, or neither")
    cases = list(ACCEPTANCE_PROP3)
    if args.n is not None:
        cases = [(args.p, parse_degree(args.n, 1, "leaves-verify"))]
        if args.p < 1:
            raise UsageError("p must be a positive integer")
    L = _make_lattice(args)
    if isinstance(L, Report):
        return [L], []
    reports = []
    for p, n in cases:
        cfg = LeafConfig(p=p, n_value=Fraction(n), lattice=L)
        reports.append(prop3_check(cfg, IndexSet.fn(n).members(), plan))
        if 2 * p < n:
            reports += kernel_reports(cfg, plan.seed, plan.count, max(2, plan.count // 3))
        reports.append(nondegeneracy_report(cfg, plan.seed))
    return reports, []


def _cmd_all(args):
    """Run the acceptance suite: every check at its acceptance sizes."""
    seed = args.seed
    functional_plan = _sample_plan(seed, args.samples, 1e-6)
    reports = [verify_jacobi_window(list(CORE_WINDOW), BracketSpec.custom(),
                                    check_name="jacobi-core")]
    reports += closure_reports(range(2, 11), CLOSURE_BRACKETS)
    reports += [golden_casimir_check(n) for n in (4, 6)]
    reports += [verify_central(casimirs(n)) for n in ACCEPTANCE_CENTRAL_N]
    lattices = [lattice_init(1, parse_tau(tau_text)) for tau_text in ACCEPTANCE_TAUS]
    for tau_text, L in zip(ACCEPTANCE_TAUS, lattices):
        reports += elliptic_reports(L, functional_plan, ACCEPTANCE_FUNCTIONAL_N,
                                    f"-tau{tau_text.replace('+', 'p')}")
    # the tau = i lattice, whose memos the functional checks filled
    L = lattices[0]
    plan = SamplePlan(seed, 10, tolerance=1e-6)
    for p, n in ACCEPTANCE_PROP3:
        cfg = LeafConfig(p=p, n_value=Fraction(n), lattice=L)
        reports.append(prop3_check(cfg, IndexSet.fn(n).members(), plan))
    neg = prop3_check(LeafConfig(p=2, n_value=Fraction(5), lattice=L), IndexSet.fn(5).members(),
                      SamplePlan(seed, 5, tolerance=1e-2), convention=CONVENTION_PRINTED,
                      check_name="homomorphism-printed-control")
    # the control must FAIL; invert its status for aggregation
    reports.append(make_report(
        "homomorphism-printed-control-expectfail", neg.parameters,
        [] if not neg.passed else [{"witness": "printed convention passed"}],
        max_residual=neg.max_residual))
    for n, p in ACCEPTANCE_KERNEL:
        reports += kernel_reports(LeafConfig(p=p, n_value=Fraction(n), lattice=L), seed, 5, 3)
    reports += [involution_family(n) for n in ACCEPTANCE_INVOLUTION_N]
    for p, n in ((1, 4), (2, 6), (2, 4)):
        reports.append(nondegeneracy_report(LeafConfig(p=p, n_value=Fraction(n), lattice=L), seed))
    return reports, []


# Every flag, as the keywords of its add_argument.  --formal-n and
# --formal-lambda spell --n=formal and --bracket=lambda on the same dest, so
# the last of the two flags given wins.
_FLAGS = {
    "config": {"help": "flat key=value configuration file; flags win"},
    "out": {"help": "write reports to this path (default: stdout)"},
    "format": {"choices": ("json", "text"), "default": "json",
               "help": "json lines or a text table (default: %(default)s)"},
    "n": {},  # its help is the command's, in _N_HELP
    "formal-n": {"dest": "n", "action": "store_const", "const": "formal",
                 "default": argparse.SUPPRESS, "help": "same as --n=formal"},
    "p": {"type": int, "help": "number of leaf points, given with --n "
                               "(default: the acceptance cases)"},
    "window": {"help": "index window: 'a..b', 'FN', or comma list (default: %(default)s)"},
    "tau": {"default": "i", "help": "period ratio a+bi; negative real part as "
                                    "--tau=-0.4+1.2i (default: %(default)s)"},
    "seed": {"type": int, "help": f"sample seed (default: ${SEED_ENV}, else {DEFAULT_SEED})"},
    "samples": {"type": int, "default": 20, "help": "samples per check (default: %(default)s)"},
    "tol": {"type": float, "default": 1e-6, "help": "residual tolerance (default: %(default)s)"},
    "bracket": {},  # its help is the command's, in _BRACKET_HELP
    "formal-lambda": {"dest": "bracket", "action": "store_const", "const": "lambda",
                      "default": argparse.SUPPRESS, "help": "same as --bracket=lambda"},
    "force": {"action": "store_true", "help": "override the sweep-size guardrail"},
}

# What --n takes, per command.
_N_HELP = {
    "bracket-table": "rational n, or 'formal' (default: %(default)s)",
    "verify-jacobi": "rational n, or 'formal' (default: %(default)s)",
    "verify-closure": "integer n >= 2, or a range a..b (default: %(default)s)",
    "verify-elliptic": f"rational n (default: {', '.join(map(str, ACCEPTANCE_FUNCTIONAL_N))})",
    "casimir-build": "integer n >= 3 (required)",
    "casimir-verify": f"integer n >= 3 (default: {', '.join(map(str, ACCEPTANCE_CENTRAL_N))})",
    "involution": f"integer n >= 3 (default: {', '.join(map(str, ACCEPTANCE_INVOLUTION_N))})",
    "leaves-verify": "integer n >= 1, given with --p (default: the acceptance cases)",
}

# What --bracket takes, per command.
_BRACKET_HELP = {
    "verify-jacobi": "elliptic | 1 | 2 | 3 | lambda | custom:a,b,c (default: %(default)s)",
    "verify-closure": "all (elliptic, 1, 2 and 3) | elliptic | 1 | 2 | 3 | lambda | "
                      "custom:a,b,c (default: %(default)s)",
}

# Each command: its function, and the flags it reads, with ``=value`` where
# the command's default differs from the flag's.  Every command also takes
# --config, --out and --format.
_COMMANDS = {
    "bracket-table": (_cmd_bracket_table, "window=0..6 n=formal"),
    "verify-jacobi": (_cmd_verify_jacobi,
                      "window=F10 n=formal formal-n bracket=elliptic formal-lambda force"),
    "verify-closure": (_cmd_verify_closure, "n=2..10 bracket=all"),
    "verify-elliptic": (_cmd_verify_elliptic, "n tau seed samples tol"),
    "casimir-build": (_cmd_casimir_build, "n"),
    "casimir-verify": (_cmd_casimir_verify, "n"),
    "involution": (_cmd_involution, "n"),
    "leaves-verify": (_cmd_leaves_verify, "n p tau seed samples=10 tol"),
    "all": (_cmd_all, "seed samples"),
}


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"bad {SEED_ENV} value {env!r}") from None
    return DEFAULT_SEED


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; only the subparser of ``command``
    gets its flags, since one command line parses one subcommand."""
    # Every flag follows the subcommand: `elliptic-poisson all --format text`.
    parser = argparse.ArgumentParser(
        prog="elliptic-poisson",
        description="Exact verification suite for the compatible quadratic "
                    "bracket family and its elliptic realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (function, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=function.__doc__, description=function.__doc__)
        if name != command:
            continue
        for flag in ("config", "out", "format", *flags.split()):
            key, has_default, default = flag.partition("=")
            keywords = dict(_FLAGS[key])
            if has_default:  # argparse converts a string default by the flag's type
                keywords["default"] = default
            if key == "n":
                keywords["help"] = _N_HELP[name]
            elif key == "bracket":
                keywords["help"] = _BRACKET_HELP[name]
            command_parser.add_argument("--" + key, **keywords)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line.  The flags that the --config lines name go
    between the subcommand and the flags of the line, so that a flag of the
    line wins.  Raises SystemExit on a flag argparse rejects and UsageError
    on a bad config file or seed."""
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args([args.command, *_load_config(args.config, args.command),
                                  *argv[argv.index(args.command) + 1:]])
    if "seed" in args and args.seed is None:
        args.seed = _default_seed()
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        # opened before the checks run, emptied only after they return, and
        # removed if this run created it and the command did not return
        created = args.out and not os.path.lexists(args.out)
        try:
            sink = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
        except OSError as exc:
            raise UsageError(f"cannot write report file: {exc}") from None
        reports = None
        try:
            reports, lines = _COMMANDS[args.command][0](args)
            reports.append(summary(reports))
            if args.out and os.path.isfile(args.out):
                sink.truncate(0)  # a pipe or a device such as /dev/null has no length
            sink.writelines(line + "\n" for line in lines)
            if args.format == "json":
                for rep in reports:
                    sink.write(rep.to_json() + "\n")
            else:
                sink.write(render_table(reports) + "\n")
        finally:
            if args.out:
                sink.close()
                if created and reports is None:
                    os.remove(args.out)
        return 0 if all(r.passed for r in reports) else 1
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
