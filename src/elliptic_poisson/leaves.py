"""Numeric model of the leaf algebra: the point-evaluation homomorphism,
its bracket, and the kernel / nondegeneracy checks for central elements.

The leaf generators are p position values u_alpha and p weights psi_alpha.
Their bracket follows the convention under which the point-evaluation map
intertwines the two-point bracket (see ``leaf_bracket_xp``); the printed
alternative, which flips the sign of every derivative term, is kept behind
a toggle as a negative control.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .casimirs import CasimirSet
from .poly import EPoly, IndexSet
from .report import Report, make_report
from .weierstrass import (
    DEFAULT_EXCLUSION,
    Lattice,
    SamplePlan,
    e_func_and_deriv,
    numeric_params,
    sample_points,
    sym_eval,
    zeta_combination,
)

__all__ = [
    "LeafConfig",
    "LeafSample",
    "CONVENTION_FLIPPED",
    "CONVENTION_PRINTED",
    "draw_leaf_sample",
    "xp_eval",
    "leaf_bracket_xp",
    "prop3_check",
    "kernel_check",
    "diagonal_vanish_check",
    "nondegeneracy_check",
]

# Derivative-term sign conventions for {u_alpha, psi_beta}:
#   flipped: {u_a, psi_b} = -psi_b (a != b),  {u_a, psi_a} = +(n-2)/2 psi_a
#   printed: {u_a, psi_b} = +psi_b (a != b),  {u_a, psi_a} = -(n-2)/2 psi_a
CONVENTION_FLIPPED = "flipped"
CONVENTION_PRINTED = "printed"


@dataclass(frozen=True)
class LeafConfig:
    """Number of points, degree parameter, and the ambient lattice."""

    p: int
    n_value: Fraction
    lattice: Lattice

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")


@dataclass(frozen=True)
class LeafSample:
    """One admissible point of the leaf: positions off the lattice and
    pairwise non-congruent, weights nonzero."""

    u: tuple[complex, ...]
    psi: tuple[complex, ...]


def draw_leaf_sample(cfg: LeafConfig, rng: Random,
                     exclusion: float = DEFAULT_EXCLUSION) -> LeafSample:
    u = sample_points(cfg.lattice, rng, cfg.p, exclusion, pairwise_distinct=True)
    psi = []
    for _ in range(cfg.p):
        radius = rng.uniform(0.5, 1.5)
        angle = rng.uniform(0.0, 2 * math.pi)
        psi.append(radius * complex(math.cos(angle), math.sin(angle)))
    return LeafSample(u=tuple(u), psi=tuple(psi))


def _e_values(cfg: LeafConfig, indices, s: LeafSample,
              exclusion: float) -> dict[int, list[tuple[complex, complex]]]:
    cache: dict[int, list[tuple[complex, complex]]] = {}
    for alpha in indices:
        cache[alpha] = [
            e_func_and_deriv(cfg.lattice, alpha, z, exclusion) for z in s.u
        ]
    return cache


def xp_eval(cfg: LeafConfig, P: EPoly, params: dict[str, complex],
            s: LeafSample, exclusion: float = DEFAULT_EXCLUSION,
            with_scale: bool = False):
    """Point-evaluation homomorphism: each generator e[a] is replaced by the
    linear form sum_alpha e[a](u_alpha) psi_alpha and monomials multiply."""
    values = _e_values(cfg, sorted(P.support()), s, exclusion)
    linear: dict[int, complex] = {
        a: sum(v * psi for (v, _), psi in zip(vals, s.psi))
        for a, vals in values.items()
    }
    total = 0j
    peak = 0.0
    for mono, term in P.coefficient_values(params):
        for a in mono:
            term *= linear[a]
        total += term
        peak = max(peak, abs(term))
    if with_scale:
        return total, 1.0 + peak
    return total


def leaf_bracket_xp(cfg: LeafConfig, f_index: int, g_index: int, s: LeafSample,
                    convention: str = CONVENTION_FLIPPED,
                    exclusion: float = DEFAULT_EXCLUSION,
                    with_scale: bool = False):
    """Bracket of the images of two generators, expanded by Leibniz over the
    leaf generator brackets.

    The weight-weight bracket is n * Z(u_a, u_b) psi_a psi_b off the
    diagonal; the position-weight brackets carry the convention sign.  With
    ``with_scale`` the peak magnitude of the accumulated terms is returned
    alongside the value (the conditioning scale of the cancellation).
    """
    if convention not in (CONVENTION_FLIPPED, CONVENTION_PRINTED):
        raise ValueError(f"unknown convention {convention!r}")
    flip = convention == CONVENTION_FLIPPED
    n = complex(cfg.n_value)
    p = cfg.p
    L = cfg.lattice
    diag = (n - 2) / 2 if flip else -(n - 2) / 2
    off = -1.0 if flip else 1.0

    fvals = [e_func_and_deriv(L, f_index, z, exclusion) for z in s.u]
    gvals = [e_func_and_deriv(L, g_index, z, exclusion) for z in s.u]

    total = 0j
    peak = 0.0
    for a in range(p):
        f_a, df_a = fvals[a]
        for b in range(p):
            g_b, dg_b = gvals[b]
            pp = s.psi[a] * s.psi[b]
            if a != b:
                Z = zeta_combination(L, s.u[a], s.u[b], exclusion)
                terms = (n * Z * f_a * g_b * pp,
                         df_a * g_b * off * pp,
                         -f_a * dg_b * off * pp)
            else:
                terms = (df_a * g_b * diag * pp, -f_a * dg_b * diag * pp)
            for term in terms:
                total += term
                peak = max(peak, abs(term))
    if with_scale:
        return total, 1.0 + peak
    return total


def prop3_check(cfg: LeafConfig, window, plan: SamplePlan,
                convention: str = CONVENTION_FLIPPED,
                check_name: str | None = None) -> Report:
    """Residual between the leaf bracket of two generator images and the
    image of their symbolic bracket, over seeded samples."""
    from .brackets import BracketSpec, generator_bracket

    start = time.monotonic()
    members = sorted(window.members() if isinstance(window, IndexSet) else window)
    rng = Random(plan.seed)
    samples = [draw_leaf_sample(cfg, rng, plan.exclusion_radius)
               for _ in range(plan.count)]
    params = numeric_params(cfg.lattice, cfg.n_value)
    spec = BracketSpec.elliptic()
    failures = []
    worst = 0.0
    for i, f_index in enumerate(members):
        for g_index in members[i:]:
            br = generator_bracket(f_index, g_index, spec, n_value=cfg.n_value)
            for k, s in enumerate(samples):
                lhs, lhs_scale = leaf_bracket_xp(cfg, f_index, g_index, s,
                                                 convention,
                                                 plan.exclusion_radius,
                                                 with_scale=True)
                if br:
                    rhs, rhs_scale = xp_eval(cfg, br, params, s,
                                             plan.exclusion_radius,
                                             with_scale=True)
                else:
                    rhs, rhs_scale = 0j, 1.0
                rel = abs(lhs - rhs) / max(lhs_scale, rhs_scale)
                worst = max(worst, rel)
                if rel >= plan.tolerance:
                    failures.append({
                        "witness": f"pair=({f_index},{g_index}) sample={k}",
                        "residual-text": f"{rel:.3e}",
                    })
    params_out = {"p": cfg.p, "n": str(cfg.n_value), "window": members,
                  "samples": plan.count, "seed": plan.seed,
                  "tol": plan.tolerance, "convention": convention}
    return make_report(check_name or f"homomorphism-p{cfg.p}-n{cfg.n_value}",
                       params_out, failures, max_residual=worst,
                       duration=time.monotonic() - start)


def kernel_check(cfg: LeafConfig, cs: CasimirSet, plan: SamplePlan,
                 check_name: str | None = None) -> Report:
    """Central elements must evaluate to zero under the point map whenever
    2p < n."""
    if 2 * cfg.p >= cs.n:
        raise ValueError(f"kernel membership needs 2p < n, got p={cfg.p}, n={cs.n}")
    start = time.monotonic()
    rng = Random(plan.seed)
    params = numeric_params(cfg.lattice, cfg.n_value)
    failures = []
    worst = 0.0
    for k in range(plan.count):
        s = draw_leaf_sample(cfg, rng, plan.exclusion_radius)
        for ci, elem in enumerate(cs.elements):
            value, scale = xp_eval(cfg, elem, params, s,
                                   plan.exclusion_radius, with_scale=True)
            rel = abs(value) / scale
            worst = max(worst, rel)
            if rel >= plan.tolerance:
                failures.append({
                    "witness": f"element {ci}, sample {k}",
                    "residual-text": f"{rel:.3e}",
                })
    params_out = {"p": cfg.p, "n": cs.n, "samples": plan.count,
                  "seed": plan.seed, "tol": plan.tolerance}
    return make_report(check_name or f"kernel-n{cs.n}-p{cfg.p}", params_out,
                       failures, max_residual=worst,
                       duration=time.monotonic() - start)


def _collision_patterns(degree: int, p: int) -> list[tuple[int, ...]]:
    """Multiplicity patterns distributing ``degree`` points over exactly
    ``p`` distinct values (partitions of degree into p positive parts)."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, parts: int, minimum: int, acc: list[int]):
        if parts == 1:
            if remaining >= minimum:
                out.append(tuple(acc + [remaining]))
            return
        for first in range(minimum, remaining - (parts - 1) * minimum + 1):
            rec(remaining - first, parts - 1, first, acc + [first])

    rec(degree, p, 1, [])
    return [tuple(sorted(pat, reverse=True)) for pat in out]


def diagonal_vanish_check(cfg: LeafConfig, C: EPoly, plan: SamplePlan,
                          check_name: str = "diagonal-vanish") -> Report:
    """Kernel elements vanish as symmetric functions whenever the evaluation
    points collapse to at most p distinct values.

    For a degree p+1 element this is the single-collision divisor test
    (z1 = z2, rest generic); higher-degree elements are tested on every
    multiplicity pattern with exactly p distinct values.
    """
    degree = C.homogeneous_degree()
    if degree is None:
        raise ValueError("diagonal check needs a homogeneous element")
    if degree < cfg.p + 1:
        raise ValueError("degree must exceed the number of distinct points")
    start = time.monotonic()
    rng = Random(plan.seed)
    params = numeric_params(cfg.lattice, cfg.n_value)
    patterns = _collision_patterns(degree, cfg.p)
    failures = []
    worst = 0.0
    for k in range(plan.count):
        base = sample_points(cfg.lattice, rng, cfg.p, plan.exclusion_radius,
                             pairwise_distinct=True)
        for pattern in patterns:
            points: list[complex] = []
            for z, mult in zip(base, pattern):
                points.extend([z] * mult)
            value, scale = sym_eval(cfg.lattice, C, params, points,
                                    plan.exclusion_radius, with_scale=True)
            rel = abs(value) / scale
            worst = max(worst, rel)
            if rel >= plan.tolerance:
                failures.append({
                    "witness": f"sample {k}, multiplicities {pattern}",
                    "residual-text": f"{rel:.3e}",
                })
    params_out = {"p": cfg.p, "n": str(cfg.n_value), "degree": degree,
                  "patterns": [list(pt) for pt in patterns],
                  "samples": plan.count, "seed": plan.seed, "tol": plan.tolerance}
    return make_report(check_name, params_out, failures, max_residual=worst,
                       duration=time.monotonic() - start)


def _det(matrix: list[list[complex]]) -> complex:
    size = len(matrix)
    if size == 0:
        return 1 + 0j
    if size == 1:
        return matrix[0][0]
    total = 0j
    for j in range(size):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cofactor = matrix[0][j] * _det(minor)
        total += cofactor if j % 2 == 0 else -cofactor
    return total


def nondegeneracy_check(cfg: LeafConfig, s: LeafSample,
                        convention: str = CONVENTION_FLIPPED,
                        tol: float = 1e-8,
                        exclusion: float = DEFAULT_EXCLUSION,
                        check_name: str | None = None) -> Report:
    """Assembled 2p x 2p leaf Poisson matrix versus the closed form.

    The determinant of the full matrix equals det(M)^2 where M is the
    position-weight block, and |det M| must match
    |(n/2)^(p-1) (p - n/2) prod(psi)|; it vanishes exactly at 2p = n and is
    nonzero for 2p < n.
    """
    start = time.monotonic()
    flip = convention == CONVENTION_FLIPPED
    n = complex(cfg.n_value)
    p = cfg.p
    L = cfg.lattice
    diag = (n - 2) / 2 if flip else -(n - 2) / 2
    off = -1.0 if flip else 1.0

    M = [[(diag if a == b else off) * s.psi[b] for b in range(p)] for a in range(p)]
    W = [[0j] * p for _ in range(p)]
    for a in range(p):
        for b in range(p):
            if a != b:
                Z = zeta_combination(L, s.u[a], s.u[b], exclusion)
                W[a][b] = n * Z * s.psi[a] * s.psi[b]
    full = [[0j] * (2 * p) for _ in range(2 * p)]
    for a in range(p):
        for b in range(p):
            full[a][p + b] = M[a][b]
            full[p + a][b] = -M[b][a]
            full[p + a][p + b] = W[a][b]

    det_m = _det(M)
    det_full = _det(full)
    psi_prod = 1 + 0j
    for psi in s.psi:
        psi_prod *= psi
    closed_factor = Fraction(cfg.n_value, 2) ** (p - 1) * (p - Fraction(cfg.n_value, 2))
    closed = complex(closed_factor) * psi_prod
    degenerate = closed_factor == 0

    scale = 1 + max(abs(det_m), abs(closed))
    failures = []
    resid_block = abs(abs(det_m) - abs(closed)) / scale
    if resid_block >= tol:
        failures.append({"witness": "position-weight block determinant",
                         "residual-text": f"{resid_block:.3e}"})
    resid_square = abs(det_full - det_m * det_m) / (1 + abs(det_full))
    if resid_square >= tol:
        failures.append({"witness": "full determinant vs block square",
                         "residual-text": f"{resid_square:.3e}"})
    if not degenerate and abs(det_m) <= tol * scale:
        failures.append({"witness": "unexpected degeneracy",
                         "residual-text": f"|det M| = {abs(det_m):.3e}"})
    params = {"p": p, "n": str(cfg.n_value), "degenerate": degenerate,
              "closed_form": str(closed_factor), "tol": tol,
              "convention": convention}
    return make_report(check_name or f"nondegeneracy-n{cfg.n_value}-p{p}",
                       params, failures,
                       max_residual=max(resid_block, resid_square),
                       duration=time.monotonic() - start)
