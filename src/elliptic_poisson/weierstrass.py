"""Numeric Weierstrass machinery and the functional form of the bracket.

Evaluation strategy: reduce the argument to the centered fundamental cell,
evaluate p, p', zeta by the Laurent series with recursively generated
coefficients inside the disc |z| <= 0.3 * r_min, and otherwise apply
argument halving through the duplication identities until the series disc
is reached.  The lattice invariants are seeded from the geometrically
convergent Fourier expansions of the weight-4 and weight-6 Eisenstein
series; every lattice is certified at construction time by the
differential-equation, periodicity, quasi-periodicity and Legendre checks.

All tolerances are relative to a scale factor 1 + max(|operand values|):
values near poles grow, so absolute tolerances would be meaningless.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .poly import EPoly, IndexSet
from .report import Report, make_report

__all__ = [
    "Lattice",
    "SamplePlan",
    "PoleProximityError",
    "NearSingularError",
    "lattice_init",
    "weier_eval",
    "e_func",
    "e_func_and_deriv",
    "func_bracket",
    "func_bracket_diagonal",
    "identity5_residual",
    "numeric_params",
    "sym_eval",
    "verify_functional",
    "weierstrass_selftest",
    "identity5_sweep",
    "sample_points",
    "sample_pairs",
]

_SERIES_FRACTION = 0.3  # series disc radius as a fraction of r_min
DEFAULT_EXCLUSION = 0.05  # pole exclusion radius as a fraction of r_min


class PoleProximityError(ValueError):
    """Argument too close to a lattice point."""


class NearSingularError(ValueError):
    """x - y close to the lattice while x != y; caller should resample."""


@dataclass(frozen=True)
class Lattice:
    """Periods, derived invariants and evaluation data for one lattice.

    laurent_c[k] is the coefficient of z^(2k-2) in the expansion of p
    around 0, for k >= 2 (entries 0 and 1 are unused placeholders).
    """

    omega1: complex
    omega2: complex
    g2: complex
    g3: complex
    laurent_c: tuple[complex, ...]
    eta1: complex
    eta2: complex
    r_min: float


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling parameters for numeric sweeps."""

    seed: int
    count: int
    exclusion_radius: float = DEFAULT_EXCLUSION
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.exclusion_radius < 0.5:
            raise ValueError("exclusion_radius must lie in (0, 0.5)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.count < 1:
            raise ValueError("count must be positive")


def _sigma_power_sums(kmax: int, power: int) -> list[int]:
    sums = [0] * (kmax + 1)
    for d in range(1, kmax + 1):
        pd = d ** power
        for m in range(d, kmax + 1, d):
            sums[m] += pd
    return sums


def _invariants(omega1: complex, omega2: complex) -> tuple[complex, complex]:
    """g2, g3 from the Eisenstein q-expansions, scaled to the periods."""
    tau = omega2 / omega1
    q = cmath.exp(2j * cmath.pi * tau)
    aq = abs(q)
    if aq >= 0.995:
        raise ValueError("period ratio too close to the real axis")
    kmax = max(8, min(4000, int(-41.5 / math.log(aq)) + 1))  # |q|^kmax < 1e-18
    s3 = _sigma_power_sums(kmax, 3)
    s5 = _sigma_power_sums(kmax, 5)
    qk = 1 + 0j
    e4 = 1 + 0j
    e6 = 1 + 0j
    for k in range(1, kmax + 1):
        qk *= q
        e4 += 240 * s3[k] * qk
        e6 -= 504 * s5[k] * qk
    pi = math.pi
    g2 = (4 * pi ** 4 / 3) * e4 / omega1 ** 4
    g3 = (8 * pi ** 6 / 27) * e6 / omega1 ** 6
    return g2, g3


def _laurent_coeffs(g2: complex, g3: complex, order: int) -> tuple[complex, ...]:
    c = [0j] * (order + 1)
    c[2] = g2 / 20
    c[3] = g3 / 28
    for k in range(4, order + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3 * s / ((2 * k + 1) * (k - 3))
    return tuple(c)


def _cell_coordinates(L: Lattice, z: complex) -> tuple[float, float]:
    # Real solution of z = a*omega1 + b*omega2.
    a = (z * L.omega2.conjugate()).imag / (L.omega1 * L.omega2.conjugate()).imag
    b = (z * L.omega1.conjugate()).imag / (L.omega2 * L.omega1.conjugate()).imag
    return a, b


def _reduce(L: Lattice, z: complex) -> tuple[complex, int, int]:
    """z = z0 + m*omega1 + k*omega2 with z0 in the centered cell."""
    a, b = _cell_coordinates(L, z)
    m = round(a)
    k = round(b)
    return z - m * L.omega1 - k * L.omega2, m, k


def lattice_distance(L: Lattice, z: complex) -> float:
    """Distance from z to the nearest lattice point."""
    z0, _, _ = _reduce(L, z)
    best = abs(z0)
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            if m or k:
                best = min(best, abs(z0 - m * L.omega1 - k * L.omega2))
    return best


def _series_eval(L: Lattice, z: complex) -> tuple[complex, complex, complex]:
    # Horner in w = z^2 for the three tail sums, highest order first.
    w = z * z
    tail_p = 0j
    tail_dp = 0j
    tail_zt = 0j
    order = len(L.laurent_c) - 1
    for k in range(order, 1, -1):
        ck = L.laurent_c[k]
        tail_p = tail_p * w + ck
        tail_dp = tail_dp * w + (2 * k - 2) * ck
        tail_zt = tail_zt * w + ck / (2 * k - 1)
    p = 1 / w + w * tail_p
    dp = -2 / (z * w) + z * tail_dp
    zt = 1 / z - z * w * tail_zt
    return p, dp, zt


def _eval_reduced(L: Lattice, z: complex) -> tuple[complex, complex, complex]:
    if abs(z) <= _SERIES_FRACTION * L.r_min:
        return _series_eval(L, z)
    p1, dp1, zt1 = _eval_reduced(L, z / 2)
    ddp1 = 6 * p1 * p1 - L.g2 / 2
    lam = ddp1 / dp1
    p2 = lam * lam / 4 - 2 * p1
    dp2 = -(dp1 + lam * (p2 - p1))
    zt2 = 2 * zt1 + lam / 2
    return p2, dp2, zt2


def weier_eval(L: Lattice, z: complex,
               exclusion: float = DEFAULT_EXCLUSION) -> tuple[complex, complex, complex]:
    """Values (p, p', zeta) at z; z must stay clear of the lattice."""
    z0, m, k = _reduce(L, z)
    if lattice_distance(L, z0) < exclusion * L.r_min:
        raise PoleProximityError(f"z = {z} is within {exclusion} * r_min of a lattice point")
    p, dp, zt = _eval_reduced(L, z0)
    return p, dp, zt + m * L.eta1 + k * L.eta2


def lattice_init(omega1: complex, omega2: complex, series_order: int = 26) -> Lattice:
    """Build a lattice from its periods and certify the evaluation data.

    Requires Im(omega2/omega1) > 0 and series_order >= 10.  Raises when the
    self-checks (differential equation, periodicity, quasi-periodicity,
    Legendre relation) fail at 1e-9 relative tolerance.
    """
    omega1 = complex(omega1)
    omega2 = complex(omega2)
    if series_order < 10:
        raise ValueError("series_order must be at least 10")
    tau_im = (omega2 / omega1).imag
    if not tau_im > 0:
        raise ValueError("degenerate periods: Im(omega2/omega1) must be positive")
    g2, g3 = _invariants(omega1, omega2)
    coeffs = _laurent_coeffs(g2, g3, series_order)
    r_min = min(
        abs(m * omega1 + k * omega2)
        for m in range(-3, 4)
        for k in range(-3, 4)
        if m or k
    )
    partial = Lattice(omega1, omega2, g2, g3, coeffs, 0j, 0j, r_min)
    eta1 = 2 * _eval_reduced(partial, omega1 / 2)[2]
    eta2 = 2 * _eval_reduced(partial, omega2 / 2)[2]
    L = Lattice(omega1, omega2, g2, g3, coeffs, eta1, eta2, r_min)
    _certify(L)
    return L


def _certify(L: Lattice, tol: float = 1e-9) -> None:
    legendre = L.eta1 * L.omega2 - L.eta2 * L.omega1 - 2j * math.pi
    if abs(legendre) > tol * (1 + abs(L.eta1 * L.omega2)):
        raise ValueError(f"Legendre relation residual {abs(legendre):.2e}")
    rng = Random(0x5EED)
    for _ in range(8):
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        z = a * L.omega1 + b * L.omega2
        if lattice_distance(L, z) < 0.1 * L.r_min:
            continue
        p, dp, zt = weier_eval(L, z)
        ode = dp * dp - (4 * p ** 3 - L.g2 * p - L.g3)
        if abs(ode) > tol * (1 + abs(p) ** 3):
            raise ValueError(f"differential equation residual {abs(ode):.2e} at {z}")
        for omega, eta in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
            p2, dp2, zt2 = weier_eval(L, z + omega)
            scale = 1 + abs(p)
            if abs(p2 - p) > tol * scale or abs(dp2 - dp) > tol * scale:
                raise ValueError(f"periodicity residual at {z} + {omega}")
            if abs(zt2 - zt - eta) > tol * (1 + abs(zt)):
                raise ValueError(f"quasi-periodicity residual at {z} + {omega}")


# -- the e-basis -----------------------------------------------------------


def _decode_index(alpha: int) -> tuple[int, bool]:
    """Power of p and whether a -p'/2 factor is present, for e[alpha]."""
    if alpha % 2 == 0:
        return alpha // 2, False
    return (alpha - 3) // 2, True


def e_func(L: Lattice, alpha: int, z: complex,
           exclusion: float = DEFAULT_EXCLUSION) -> complex:
    """e[2a] = p^a, e[2a+3] = -p^a * p'/2, valid for any integer index."""
    p, dp, _ = weier_eval(L, z, exclusion)
    a, odd = _decode_index(alpha)
    value = p ** a
    if odd:
        value *= -dp / 2
    return value


def e_func_and_deriv(L: Lattice, alpha: int, z: complex,
                     exclusion: float = DEFAULT_EXCLUSION) -> tuple[complex, complex]:
    """Value and z-derivative of e[alpha] at z."""
    p, dp, _ = weier_eval(L, z, exclusion)
    return _e_from_values(L, alpha, p, dp)


def _e_from_values(L: Lattice, alpha: int, p: complex, dp: complex) -> tuple[complex, complex]:
    a, odd = _decode_index(alpha)
    pa = p ** a
    pam1 = p ** (a - 1)
    if not odd:
        return pa, a * pam1 * dp
    ddp = 6 * p * p - L.g2 / 2
    value = -pa * dp / 2
    deriv = -(a * pam1 * dp * dp + pa * ddp) / 2
    return value, deriv


# -- the functional bracket -------------------------------------------------


def zeta_combination(L: Lattice, x: complex, y: complex,
                     exclusion: float = DEFAULT_EXCLUSION) -> complex:
    """zeta(x-y) - zeta(x) + zeta(y); elliptic in both variables."""
    if lattice_distance(L, x - y) < exclusion * L.r_min:
        raise NearSingularError("x - y too close to the lattice")
    zx = weier_eval(L, x, exclusion)[2]
    zy = weier_eval(L, y, exclusion)[2]
    zxy = weier_eval(L, x - y, exclusion)[2]
    return zxy - zx + zy


def func_bracket_diagonal(L: Lattice, n_value: complex, f_index: int,
                          g_index: int, x: complex,
                          exclusion: float = DEFAULT_EXCLUSION) -> complex:
    """Coincident-point limit (n-2) * (f'(x) g(x) - f(x) g'(x))."""
    p, dp, _ = weier_eval(L, x, exclusion)
    f, df = _e_from_values(L, f_index, p, dp)
    g, dg = _e_from_values(L, g_index, p, dp)
    return (complex(n_value) - 2) * (df * g - f * dg)


def func_bracket(L: Lattice, n_value: complex, f_index: int, g_index: int,
                 x: complex, y: complex,
                 exclusion: float = DEFAULT_EXCLUSION,
                 with_scale: bool = False):
    """Two-point bracket value of a generator pair.

    Off the diagonal this is
    n * Z * (f(x) g(y) - f(y) g(x)) - f'(x) g(y) - f'(y) g(x)
    + f(x) g'(y) + f(y) g'(x) with Z = zeta(x-y) - zeta(x) + zeta(y);
    at x == y (exact equality) the limit value is used.  With
    ``with_scale`` the peak magnitude of the accumulated terms is returned
    alongside the value.
    """
    if x == y:
        value = func_bracket_diagonal(L, n_value, f_index, g_index, x, exclusion)
        if with_scale:
            return value, 1.0 + abs(value)
        return value
    Z = zeta_combination(L, x, y, exclusion)
    px, dpx, _ = weier_eval(L, x, exclusion)
    py, dpy, _ = weier_eval(L, y, exclusion)
    f_x, df_x = _e_from_values(L, f_index, px, dpx)
    f_y, df_y = _e_from_values(L, f_index, py, dpy)
    g_x, dg_x = _e_from_values(L, g_index, px, dpx)
    g_y, dg_y = _e_from_values(L, g_index, py, dpy)
    n = complex(n_value)
    terms = (
        n * Z * f_x * g_y,
        -n * Z * f_y * g_x,
        -df_x * g_y,
        -df_y * g_x,
        f_x * dg_y,
        f_y * dg_x,
    )
    value = sum(terms)
    if with_scale:
        return value, 1.0 + max(abs(t) for t in terms)
    return value


def identity5_residual(L: Lattice, x: complex, y: complex,
                       exclusion: float = DEFAULT_EXCLUSION) -> tuple[float, float]:
    """Absolute residuals of the two Z-identities relating p, p' at x, y."""
    Z = zeta_combination(L, x, y, exclusion)
    px, dpx, _ = weier_eval(L, x, exclusion)
    py, dpy, _ = weier_eval(L, y, exclusion)
    r1 = abs(Z * (px - py) - (dpx + dpy) / 2)
    r2 = abs(Z * (dpx - dpy) - (2 * px * px + 2 * px * py + 2 * py * py - L.g2 / 2))
    return r1, r2


# -- symmetric evaluation ----------------------------------------------------


def _permanent(rows: list[list[complex]]) -> tuple[complex, float]:
    """Permanent by Ryser's inclusion-exclusion formula.

    Also returns the largest product magnitude entering the alternating
    sum, which measures the conditioning of the cancellation.
    """
    m = len(rows)
    if m == 0:
        return 1 + 0j, 1.0
    total = 0j
    peak = 0.0
    for mask in range(1, 1 << m):
        col_sums = [0j] * m
        bit = mask
        j = 0
        while bit:
            if bit & 1:
                for i in range(m):
                    col_sums[i] += rows[i][j]
            bit >>= 1
            j += 1
        prod = 1 + 0j
        for s in col_sums:
            prod *= s
        peak = max(peak, abs(prod))
        if (m - bin(mask).count("1")) % 2:
            total -= prod
        else:
            total += prod
    return total, peak


def numeric_params(L: Lattice, n_value) -> dict[str, complex]:
    """Standard numeric assignment for n, g2, g3."""
    return {"n": complex(n_value), "g2": L.g2, "g3": L.g3}


def sym_eval(L: Lattice, P: EPoly, params: dict[str, complex],
             points: list[complex],
             exclusion: float = DEFAULT_EXCLUSION,
             with_scale: bool = False):
    """Evaluate a degree-m element as a symmetric function of m variables.

    A monomial e[a_1]...e[a_m] contributes the sum over all m!
    assignments of points to factors (repeated indices included, so
    e[a]^2 at (x, y) evaluates to 2 e[a](x) e[a](y)).
    """
    m = len(points)
    deg = P.homogeneous_degree()
    if deg is None:
        if not P:
            return (0j, 1.0) if with_scale else 0j
        raise ValueError("sym_eval needs a homogeneous element")
    if deg != m:
        raise ValueError(f"degree {deg} does not match {m} points")
    values: dict[int, list[complex]] = {}
    for alpha in sorted(P.support()):
        values[alpha] = [e_func(L, alpha, z, exclusion) for z in points]
    total = 0j
    peak = 0.0
    for mono, c in P.coefficient_values(params):
        perm, perm_peak = _permanent([values[a] for a in mono])
        total += c * perm
        peak = max(peak, abs(c) * perm_peak)
    if with_scale:
        return total, 1.0 + peak
    return total


# -- sampling ----------------------------------------------------------------


def sample_points(L: Lattice, rng: Random, count: int,
                  exclusion: float = DEFAULT_EXCLUSION,
                  pairwise_distinct: bool = False) -> list[complex]:
    """Seeded points in the fundamental cell, clear of the lattice."""
    out: list[complex] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10000 * count:
            raise RuntimeError("sampling failed; exclusion radius too large?")
        z = rng.uniform(-0.5, 0.5) * L.omega1 + rng.uniform(-0.5, 0.5) * L.omega2
        if lattice_distance(L, z) < exclusion * L.r_min:
            continue
        if pairwise_distinct and any(
            lattice_distance(L, z - w) < exclusion * L.r_min for w in out
        ):
            continue
        out.append(z)
    return out


def sample_pairs(L: Lattice, rng: Random, count: int,
                 exclusion: float = DEFAULT_EXCLUSION,
                 diagonal_every: int = 0) -> list[tuple[complex, complex]]:
    """Admissible (x, y) pairs; every diagonal_every-th pair has x == y."""
    out: list[tuple[complex, complex]] = []
    while len(out) < count:
        if diagonal_every and (len(out) + 1) % diagonal_every == 0:
            x = sample_points(L, rng, 1, exclusion)[0]
            out.append((x, x))
            continue
        x, y = sample_points(L, rng, 2, exclusion, pairwise_distinct=True)
        out.append((x, y))
    return out


# -- sweeps -------------------------------------------------------------------


def weierstrass_selftest(L: Lattice, plan: SamplePlan, tol: float = 1e-9,
                         check_name: str = "weierstrass-selftest") -> Report:
    """Differential equation, periodicity, quasi-periodicity, parity, and
    the leading Laurent coefficients against g2/20 and g3/28."""
    start = time.monotonic()
    rng = Random(plan.seed)
    failures = []
    worst = 0.0

    def note(kind, z, resid, bound):
        nonlocal worst
        worst = max(worst, resid)
        if resid >= bound:
            failures.append({"witness": f"{kind} at z={z!r}", "residual-text": f"{resid:.3e}"})

    c2 = L.laurent_c[2]
    c3 = L.laurent_c[3]
    note("laurent-c2", 0, abs(c2 - L.g2 / 20) / (1 + abs(c2)), tol)
    note("laurent-c3", 0, abs(c3 - L.g3 / 28) / (1 + abs(c3)), tol)
    legendre = L.eta1 * L.omega2 - L.eta2 * L.omega1 - 2j * math.pi
    note("legendre", 0, abs(legendre) / (1 + abs(L.eta1 * L.omega2)), tol)

    for z in sample_points(L, rng, plan.count, plan.exclusion_radius):
        p, dp, zt = weier_eval(L, z, plan.exclusion_radius)
        ode = abs(dp * dp - (4 * p ** 3 - L.g2 * p - L.g3))
        note("ode", z, ode / (1 + abs(p) ** 3), tol)
        pm, dpm, ztm = weier_eval(L, -z, plan.exclusion_radius)
        scale = 1 + max(abs(p), abs(dp), abs(zt))
        note("parity", z, max(abs(pm - p), abs(dpm + dp), abs(ztm + zt)) / scale, tol)
        for omega, eta in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
            p2, dp2, zt2 = weier_eval(L, z + omega, plan.exclusion_radius)
            note("periodicity", z, max(abs(p2 - p), abs(dp2 - dp)) / (1 + abs(p) + abs(dp)), tol)
            note("quasi-periodicity", z, abs(zt2 - zt - eta) / (1 + abs(zt)), tol)

    params = {"omega1": repr(L.omega1), "omega2": repr(L.omega2),
              "samples": plan.count, "seed": plan.seed, "tol": tol}
    return make_report(check_name, params, failures, max_residual=worst,
                       duration=time.monotonic() - start)


def identity5_sweep(L: Lattice, plan: SamplePlan, tol: float = 1e-8,
                    check_name: str = "identity5") -> Report:
    """Relative residuals of the two Z-identities over sampled pairs."""
    start = time.monotonic()
    rng = Random(plan.seed)
    failures = []
    worst = 0.0
    for x, y in sample_pairs(L, rng, plan.count, plan.exclusion_radius):
        r1, r2 = identity5_residual(L, x, y, plan.exclusion_radius)
        px, dpx, _ = weier_eval(L, x, plan.exclusion_radius)
        py, dpy, _ = weier_eval(L, y, plan.exclusion_radius)
        scale = 1 + max(abs(px), abs(py)) ** 2 + max(abs(dpx), abs(dpy))
        rel = max(r1, r2) / scale
        worst = max(worst, rel)
        if rel >= tol:
            failures.append({"witness": f"x={x!r}, y={y!r}",
                             "residual-text": f"r1={r1:.3e} r2={r2:.3e}"})
    params = {"omega1": repr(L.omega1), "omega2": repr(L.omega2),
              "samples": plan.count, "seed": plan.seed, "tol": tol}
    return make_report(check_name, params, failures, max_residual=worst,
                       duration=time.monotonic() - start)


def verify_functional(L: Lattice, n_value, window, plan: SamplePlan,
                      check_name: str | None = None) -> Report:
    """Cross-check the two-point bracket against the symbolic bracket.

    For every generator pair in the window and every sampled (x, y) the
    relative residual between the direct two-point value and the
    symmetric evaluation of the symbolic bracket must stay below the plan
    tolerance.  Diagonal samples are included.
    """
    from .brackets import BracketSpec, generator_bracket

    start = time.monotonic()
    members = sorted(window.members() if isinstance(window, IndexSet) else window)
    rng = Random(plan.seed)
    pairs = sample_pairs(L, rng, plan.count, plan.exclusion_radius, diagonal_every=5)
    params_num = numeric_params(L, n_value)
    spec = BracketSpec.elliptic()
    nv = Fraction(n_value) if not isinstance(n_value, float) else None
    failures = []
    worst = 0.0
    for i, alpha in enumerate(members):
        for beta in members[i:]:
            br = generator_bracket(alpha, beta, spec, n_value=nv)
            for x, y in pairs:
                lhs, lhs_scale = func_bracket(L, complex(n_value), alpha, beta,
                                              x, y, plan.exclusion_radius,
                                              with_scale=True)
                if br:
                    rhs, rhs_scale = sym_eval(L, br, params_num, [x, y],
                                              plan.exclusion_radius,
                                              with_scale=True)
                else:
                    rhs, rhs_scale = 0j, 1.0
                rel = abs(lhs - rhs) / max(lhs_scale, rhs_scale)
                worst = max(worst, rel)
                if rel >= plan.tolerance:
                    failures.append({
                        "witness": f"pair=({alpha},{beta}) x={x!r} y={y!r}",
                        "residual-text": f"{rel:.3e}",
                    })
    params = {"n": str(n_value), "window": members, "samples": plan.count,
              "seed": plan.seed, "tol": plan.tolerance,
              "omega1": repr(L.omega1), "omega2": repr(L.omega2)}
    return make_report(check_name or f"functional-n{n_value}", params, failures,
                       max_residual=worst, duration=time.monotonic() - start)
