"""Numeric model of the leaf algebra: the point-evaluation homomorphism,
its bracket, and the kernel / nondegeneracy checks for central elements.

The leaf generators are p position values u_alpha and p weights psi_alpha.
Their bracket follows the convention under which the point-evaluation map
intertwines the two-point bracket (see ``leaf_bracket_xp``); the printed
alternative, which flips the sign of every derivative term, is kept behind
a toggle on ``prop3_check`` only, as a negative control.

Positions stay ``DEFAULT_EXCLUSION`` * r_min clear of the lattice and of
each other.  ``xp_eval`` and ``leaf_bracket_xp`` return (value, scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .brackets import BracketSpec, generator_bracket
from .casimirs import CasimirSet, _det
from .poly import EPoly
from .report import Report, Tally
from .weierstrass import (
    Lattice,
    SamplePlan,
    _e_from_values,
    _point_values,
    _zeta_matrix,
    numeric_params,
    sample_points,
    sym_eval,
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


def draw_leaf_sample(cfg: LeafConfig, rng: Random) -> LeafSample:
    u = sample_points(cfg.lattice, rng, cfg.p, pairwise_distinct=True)
    psi = []
    for _ in range(cfg.p):
        radius = rng.uniform(0.5, 1.5)
        angle = rng.uniform(0.0, 2 * math.pi)
        psi.append(radius * complex(math.cos(angle), math.sin(angle)))
    return LeafSample(u=tuple(u), psi=tuple(psi))


def _convention_signs(n: complex, convention: str) -> tuple[complex, float]:
    """Coefficients of {u_a, psi_a} and {u_a, psi_b} (a != b) per weight."""
    if convention not in (CONVENTION_FLIPPED, CONVENTION_PRINTED):
        raise ValueError(f"unknown convention {convention!r}")
    if convention == CONVENTION_FLIPPED:
        return (n - 2) / 2, -1.0
    return -(n - 2) / 2, 1.0


def xp_eval(cfg: LeafConfig, P: EPoly, params: dict[str, complex],
            s: LeafSample) -> tuple[complex, float]:
    """Point-evaluation homomorphism: each generator e[a] is replaced by the
    linear form sum_alpha e[a](u_alpha) psi_alpha and monomials multiply."""
    support = sorted(P.support())
    values = _point_values(cfg.lattice, s.u) if support else []
    return _xp_core(cfg.lattice, P, support, params, values, s.psi)


def _xp_core(L: Lattice, P: EPoly, support: list[int],
             params: dict[str, complex], values,
             psi: tuple[complex, ...]) -> tuple[complex, float]:
    """xp_eval from the sorted support of ``P`` and the (p, p', zeta) values
    at the positions."""
    linear: dict[int, complex] = {}
    for a in support:
        vals = [_e_from_values(L, a, p, dp) for p, dp, _ in values]
        linear[a] = sum(v * w for (v, _), w in zip(vals, psi))
    total = 0j
    peak = 0.0
    for mono, term in P.coefficient_values(params):
        for a in mono:
            term *= linear[a]
        total += term
        size = abs(term)
        if size > peak:  # as max(peak, size): a NaN size keeps the peak
            peak = size
    return total, 1.0 + peak


def _leaf_values(cfg: LeafConfig, s: LeafSample):
    """Values at the positions of one sample and its Z(u_a, u_b) matrix."""
    values = _point_values(cfg.lattice, s.u)
    return values, _zeta_matrix(cfg.lattice, s.u, values)


def leaf_bracket_xp(cfg: LeafConfig, f_index: int, g_index: int,
                    s: LeafSample) -> tuple[complex, float]:
    """Bracket of the images of two generators, expanded by Leibniz over the
    leaf generator brackets, and its scale.

    The weight-weight bracket is n * Z(u_a, u_b) psi_a psi_b off the
    diagonal; the position-weight brackets carry the signs of the flipped
    convention.  The scale is one plus the peak magnitude of the accumulated
    terms (the conditioning scale of the cancellation).
    """
    signs = _convention_signs(complex(cfg.n_value), CONVENTION_FLIPPED)
    values, Z = _leaf_values(cfg, s)
    return _leaf_bracket_core(cfg, f_index, g_index, s.psi, values, Z, signs)


def _leaf_bracket_core(cfg: LeafConfig, f_index: int, g_index: int,
                       psi: tuple[complex, ...], values, Z,
                       signs) -> tuple[complex, float]:
    """leaf_bracket_xp from the values and Z matrix of ``_leaf_values`` and
    the ``_convention_signs``."""
    n = complex(cfg.n_value)
    diag, off = signs
    L = cfg.lattice
    fvals = [_e_from_values(L, f_index, p, dp) for p, dp, _ in values]
    gvals = [_e_from_values(L, g_index, p, dp) for p, dp, _ in values]

    total = 0j
    peak = 0.0
    for a in range(cfg.p):
        f_a, df_a = fvals[a]
        for b in range(cfg.p):
            g_b, dg_b = gvals[b]
            pp = psi[a] * psi[b]
            if a != b:
                terms = (n * Z[a][b] * f_a * g_b * pp,
                         df_a * g_b * off * pp,
                         -f_a * dg_b * off * pp)
            else:
                terms = (df_a * g_b * diag * pp, -f_a * dg_b * diag * pp)
            for term in terms:
                total += term
                size = abs(term)
                if size > peak:
                    peak = size
    return total, 1.0 + peak


def prop3_check(cfg: LeafConfig, window, plan: SamplePlan,
                convention: str = CONVENTION_FLIPPED,
                check_name: str | None = None) -> Report:
    """Residual between the leaf bracket of two generator images and the
    image of their symbolic bracket, over seeded samples."""
    tally = Tally(plan.tolerance)
    members = sorted(window)
    rng = Random(plan.seed)
    samples = [draw_leaf_sample(cfg, rng) for _ in range(plan.count)]
    signs = _convention_signs(complex(cfg.n_value), convention)
    sample_values = [_leaf_values(cfg, s) for s in samples]
    params = numeric_params(cfg.lattice, cfg.n_value)
    spec = BracketSpec.elliptic()
    for i, f_index in enumerate(members):
        for g_index in members[i:]:
            br = generator_bracket(f_index, g_index, spec, n_value=cfg.n_value)
            support = sorted(br.support())
            for k, (s, (values, Z)) in enumerate(zip(samples, sample_values)):
                lhs, lhs_scale = _leaf_bracket_core(cfg, f_index, g_index, s.psi,
                                                    values, Z, signs)
                if br:
                    rhs, rhs_scale = _xp_core(cfg.lattice, br, support, params,
                                              values, s.psi)
                else:
                    rhs, rhs_scale = 0j, 1.0
                tally.residual(abs(lhs - rhs) / max(lhs_scale, rhs_scale),
                               "pair=({},{}) sample={}", f_index, g_index, k)
    params_out = {"p": cfg.p, "n": str(cfg.n_value), "window": members,
                  "samples": plan.count, "seed": plan.seed,
                  "tol": plan.tolerance, "convention": convention}
    return tally.report(check_name or f"homomorphism-p{cfg.p}-n{cfg.n_value}",
                        params_out)


def kernel_check(cfg: LeafConfig, cs: CasimirSet, plan: SamplePlan) -> Report:
    """Central elements must evaluate to zero under the point map whenever
    2p < n."""
    if 2 * cfg.p >= cs.n:
        raise ValueError(f"kernel membership needs 2p < n, got p={cfg.p}, n={cs.n}")
    tally = Tally(plan.tolerance)
    rng = Random(plan.seed)
    params = numeric_params(cfg.lattice, cfg.n_value)
    for k in range(plan.count):
        s = draw_leaf_sample(cfg, rng)
        for ci, elem in enumerate(cs.elements):
            value, scale = xp_eval(cfg, elem, params, s)
            tally.residual(abs(value) / scale, "element {}, sample {}", ci, k)
    params_out = {"p": cfg.p, "n": cs.n, "samples": plan.count,
                  "seed": plan.seed, "tol": plan.tolerance}
    return tally.report(f"kernel-n{cs.n}-p{cfg.p}", params_out)


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
    tally = Tally(plan.tolerance)
    rng = Random(plan.seed)
    params = numeric_params(cfg.lattice, cfg.n_value)
    patterns = _collision_patterns(degree, cfg.p)
    for k in range(plan.count):
        base = sample_points(cfg.lattice, rng, cfg.p, pairwise_distinct=True)
        for pattern in patterns:
            points: list[complex] = []
            for z, mult in zip(base, pattern):
                points.extend([z] * mult)
            value, scale = sym_eval(cfg.lattice, C, params, points)
            tally.residual(abs(value) / scale, "sample {}, multiplicities {}", k, pattern)
    params_out = {"p": cfg.p, "n": str(cfg.n_value), "degree": degree,
                  "patterns": [list(pt) for pt in patterns],
                  "samples": plan.count, "seed": plan.seed, "tol": plan.tolerance}
    return tally.report(check_name, params_out)


def nondegeneracy_check(cfg: LeafConfig, s: LeafSample) -> Report:
    """Assembled 2p x 2p leaf Poisson matrix versus the closed form.

    The determinant of the full matrix equals det(M)^2 where M is the
    position-weight block, and |det M| must match
    |(n/2)^(p-1) (p - n/2) prod(psi)|; it vanishes exactly at 2p = n and is
    nonzero for 2p < n.  Relative residuals must stay below 1e-8.
    """
    tol = 1e-8
    tally = Tally(tol)
    n = complex(cfg.n_value)
    diag, off = _convention_signs(n, CONVENTION_FLIPPED)
    p = cfg.p

    M = [[(diag if a == b else off) * s.psi[b] for b in range(p)] for a in range(p)]
    _, Z = _leaf_values(cfg, s)
    W = [[0j if a == b else n * Z[a][b] * s.psi[a] * s.psi[b] for b in range(p)]
         for a in range(p)]
    full = [[0j] * (2 * p) for _ in range(2 * p)]
    for a in range(p):
        for b in range(p):
            full[a][p + b] = M[a][b]
            full[p + a][b] = -M[b][a]
            full[p + a][p + b] = W[a][b]

    det_m = _det(M, 0j)
    det_full = _det(full, 0j)
    psi_prod = 1 + 0j
    for psi in s.psi:
        psi_prod *= psi
    closed_factor = Fraction(cfg.n_value, 2) ** (p - 1) * (p - Fraction(cfg.n_value, 2))
    closed = complex(closed_factor) * psi_prod
    degenerate = closed_factor == 0

    scale = 1 + max(abs(det_m), abs(closed))
    tally.residual(abs(abs(det_m) - abs(closed)) / scale,
                   "position-weight block determinant")
    tally.residual(abs(det_full - det_m * det_m) / (1 + abs(det_full)),
                   "full determinant vs block square")
    if not degenerate and abs(det_m) <= tol * scale:
        tally.fail("unexpected degeneracy", f"|det M| = {abs(det_m):.3e}")
    params = {"p": p, "n": str(cfg.n_value), "degenerate": degenerate,
              "closed_form": str(closed_factor), "tol": tol,
              "convention": CONVENTION_FLIPPED}
    return tally.report(f"nondegeneracy-n{cfg.n_value}-p{p}", params)
