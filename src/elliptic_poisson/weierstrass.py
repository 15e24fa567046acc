"""Numeric Weierstrass machinery and the functional form of the bracket.

Evaluation strategy: reduce the argument to the centered fundamental cell,
evaluate p, p', zeta by the Laurent series with recursively generated
coefficients inside the disc |z| <= 0.3 * r_min, and otherwise apply
argument halving through the duplication identities until the series disc
is reached.  The series stops at c_20: at the disc edge the rows
c_21..c_26 would move p' by at most 5.4e-19 relative (p and zeta by
less), below 2^-60, the hexagonal lattice being the worst case at any scale.
At c_19 or c_18 the square lattice's tail is 3.6e-18: of the 280,105
evaluations of the benchmark's numeric sweep (five period ratios, eight
seeds), 729 or 3,380 then differ from c_26 by ``repr``, and c_18 changes
the ``all`` output at two of those seeds; at c_20, 62 differ and no report
byte does.

The three tail sums are a pure function of the series argument w = z^2, and
each lattice keeps those of the last w it evaluated (``Lattice._tails``).
A w equal to that one with both parts nonzero has the same bits, since +-0
are the only equal but different floats, and reuses them: the self-test
evaluates -z right after z, which squares to the same w.  A reduction, a
guard or a series is skipped only where its result is known to the bit
(``weier_eval``), so every value keeps its bits.

Everything these steps need that depends on the lattice alone (the
cell-coordinate conjugates and denominators, the Horner rows of the three
series, the series radius and g2/2) is computed once, into the evaluation
tables of ``Lattice``; each call performs the same floating-point
operations on the same operands as if it computed them itself.  The
lattice invariants are seeded from the geometrically convergent Fourier
expansions of the weight-4 and weight-6 Eisenstein series; every lattice
is certified at construction time by the differential-equation,
periodicity, quasi-periodicity and Legendre checks, and a lattice that
fails them raises CertificationError.

``weier_eval`` is a pure function of (L, z, exclusion), and at the default
radius each lattice keeps the values it returned at cell points, those that
reduce to themselves (m = k = 0), in ``Lattice._points``.  Only points with
both parts nonzero are kept, for which == means the same bits, and only at
the default radius: a smaller one admits points the default rejects, and a
larger one rejects points it admits.  A point that raised is never kept.
A point that reduces to the bits of a kept one with m or k nonzero, as the
self-test's z + omega rows often do, reads its values and adds its own eta
shift; ``identity5_sweep`` reads the self-test's points again.  The memo
holds at most ``_POINT_MEMO_SIZE`` entries and is cleared when full.

Points stay DEFAULT_EXCLUSION * r_min clear of the lattice, as does x - y
in the two-point functions; only ``weier_eval`` takes the radius as an
argument.  Every such guard is ``lattice_distance(L, z) < radius``, decided
by ``_near_reduced`` from the modulus of the reduced point where that
settles it and by the nine-point scan otherwise, so each verdict is the
scan's.  Each point is reduced and guarded at most once: ``weier_eval``
guards the point it has reduced, reduces no cell point under half the
smaller cell height (``_near``) and guards no point the memo serves; the
two-point functions evaluate x - y first and raise its PoleProximityError
as NearSingularError; the sampling and the certification, which guard
before they evaluate, call ``_near``.  Evaluators return (value, scale):
tolerances are relative to a scale 1 + max(|operand values|), since values
near poles grow and absolute tolerances would be meaningless.  The checks
read e[a] and e[a]' from one ``_e_table`` per point set; symmetric
evaluation takes equal points in a row as one run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import mul
from random import Random

from .brackets import BracketSpec, generator_bracket
from .poly import EPoly
from .report import Report, Tally

__all__ = [
    "Lattice",
    "SamplePlan",
    "CertificationError",
    "PoleProximityError",
    "NearSingularError",
    "lattice_init",
    "weier_eval",
    "e_func",
    "e_func_and_deriv",
    "func_bracket",
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
_SERIES_ORDER = 20  # highest Laurent coefficient index: tail below 2^-60 (module docstring)
DEFAULT_EXCLUSION = 0.05  # pole exclusion radius as a fraction of r_min
_GUARD_SLACK = 2.0 ** -44  # clear-bound slack per unit of |omega1| + |omega2| + r_min
_POINT_MEMO_SIZE = 4096  # cell points per lattice: a 1,000-sample sweep task stores at most 3,598
# Radii at or above this admit no point whose values overflow: there |p'| is
# about 2 / d^3 < 2e270 at distance d from the lattice.
_FINITE_RADIUS = 1e-90
# Consecutive rejected candidates after which sampling gives up.  Random
# sequential placement jams far below the area of the cell (about 55% of
# it), so no bound by area decides in advance whether a draw can finish.
_MAX_REJECTED = 1000


class CertificationError(ValueError):
    """A lattice failed its own self-checks at construction."""


class PoleProximityError(ValueError):
    """Argument too close to a lattice point."""


class NearSingularError(ValueError):
    """x - y close to the lattice while x != y; caller should resample."""


@dataclass(frozen=True)
class Lattice:
    """Periods, derived invariants and evaluation data for one lattice.

    laurent_c[k] is the coefficient of z^(2k-2) in the expansion of p
    around 0, for k >= 2 (entries 0 and 1 are unused placeholders).

    The evaluation tables are filled from these fields at construction and
    take no part in ==, hash or repr:

    * ``_cell``: conj(omega2), Im(omega1 conj(omega2)), conj(omega1),
      Im(omega2 conj(omega1)), the terms of the cell coordinates;
    * ``_horner``: (c_k, (2k-2) c_k, c_k / (2k-1)) for k from the top
      Laurent order 20 down to 2, the 19 rows of the p, p' and zeta
      series;
    * ``_series_radius``: 0.3 * r_min, the disc the series is used in;
    * ``_half_g2``: g2 / 2, in p'' = 6 p^2 - g2/2 and the second
      Z-identity;
    * ``_guard``: half the smaller cell height times (1 - 1e-9), under which
      z reduces to itself, and r_min - 2^-44 (|omega1| + |omega2| + r_min);
    * ``_tails``: the one-entry memo of ``_series_eval``, a list that holds
      one (w, (tail_p, tail_dp, tail_zt)) tuple, the last series argument
      and its three Horner sums (w NaN before the first).  One item store
      replaces the tuple, so a lattice shared between threads never pairs
      one w with another's sums;
    * ``_points``: the point memo of ``weier_eval``, a dict from a cell
      point z with both parts nonzero to the (p, p', zeta) tuple returned at
      the default radius, read for z and for points reducing to z's bits.
      It holds at most 4,096 entries (``clear()`` when full; threads writing
      at once can each add one more), and each value is stored whole, so a
      thread sees a point's values or none.

    ``_tails`` and ``_points`` are the only tables that change after
    construction.
    """

    omega1: complex
    omega2: complex
    g2: complex
    g3: complex
    laurent_c: tuple[complex, ...]
    eta1: complex
    eta2: complex
    r_min: float
    _cell: tuple[complex, float, complex, float] = field(
        init=False, compare=False, repr=False)
    _horner: tuple[tuple[complex, complex, complex], ...] = field(
        init=False, compare=False, repr=False)
    _series_radius: float = field(init=False, compare=False, repr=False)
    _half_g2: complex = field(init=False, compare=False, repr=False)
    _guard: tuple[float, float] = field(init=False, compare=False, repr=False)
    _tails: list[tuple[complex, tuple[complex, ...]]] = field(
        init=False, compare=False, repr=False)
    _points: dict[complex, tuple[complex, complex, complex]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        o1, o2, c = self.omega1, self.omega2, self.laurent_c
        den1, den2 = (o1 * o2.conjugate()).imag, (o2 * o1.conjugate()).imag
        tables = {
            "_cell": (o2.conjugate(), den1, o1.conjugate(), den2),
            "_horner": tuple((c[k], (2 * k - 2) * c[k], c[k] / (2 * k - 1))
                             for k in range(len(c) - 1, 1, -1)),
            "_series_radius": _SERIES_FRACTION * self.r_min,
            "_half_g2": self.g2 / 2,
            "_guard": (0.5 * min(abs(den1) / abs(o2), abs(den2) / abs(o1)) * (1 - 1e-9),
                       self.r_min - _GUARD_SLACK * (abs(o1) + abs(o2) + self.r_min)),
            "_tails": [(math.nan, ())],
            "_points": {},
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling parameters for numeric sweeps."""

    seed: int
    count: int
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
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
    if aq == 0:
        raise CertificationError("nome q = exp(2 pi i tau) underflows to 0")
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
    try:
        g2 = (4 * pi ** 4 / 3) * e4 / omega1 ** 4
        g3 = (8 * pi ** 6 / 27) * e6 / omega1 ** 6
    except (OverflowError, ZeroDivisionError):
        g2 = g3 = cmath.nan
    if not (cmath.isfinite(g2) and cmath.isfinite(g3)):
        raise CertificationError(f"g2, g3 leave the float range at |omega1| = {abs(omega1):.3g}")
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
    conj2, den1, conj1, den2 = L._cell
    return (z * conj2).imag / den1, (z * conj1).imag / den2


def _reduce(L: Lattice, z: complex) -> tuple[complex, int, int]:
    """z = z0 + m*omega1 + k*omega2 with z0 in the centered cell."""
    a, b = _cell_coordinates(L, z)
    m = round(a)
    k = round(b)
    return z - m * L.omega1 - k * L.omega2, m, k


def lattice_distance(L: Lattice, z: complex) -> float:
    """Distance from z to the nearest lattice point."""
    z1 = _reduce(L, z)[0]
    return _nearest(L, z1, abs(z1))


def _nearest(L: Lattice, z1: complex, best: float) -> float:
    """The least of ``best`` (abs(z1)) and the distances from the reduced
    point z1 to its eight neighbours m*omega1 + k*omega2, m, k in {-1, 0, 1}
    not both zero: the nine-point scan."""
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            if m or k:
                d = abs(z1 - m * L.omega1 - k * L.omega2)
                if d < best:
                    best = d
    return best


def _near(L: Lattice, z: complex, radius: float) -> bool:
    """``lattice_distance(L, z) < radius`` for a cell point z or the
    difference of two (abs(z) cannot overflow), as the sampling and the
    certification guard a point before they evaluate it.  Under half the
    smaller cell height h (``Lattice._guard``) z is its own reduced point:
    each cell coordinate is at most |z| / h up to a few units of u = 2^-53,
    so both round to 0, and z - 0*omega1 - 0*omega2 differs from z at most
    in the signs of zeros, which no ``abs`` and no neighbour difference sees
    (``weier_eval`` skips the reduction there too, if both parts are nonzero).
    """
    if not abs(z) < L._guard[0]:
        z = _reduce(L, z)[0]
    return _near_reduced(L, z, radius)


def _near_reduced(L: Lattice, z1: complex, radius: float) -> bool:
    """``lattice_distance(L, z) < radius`` for z whose reduced point is z1,
    decided from d = abs(z1) wherever d settles it, else by the scan itself:
    d < radius is near, as d is the scan's first candidate.  A scanned
    neighbour v = m omega1 + k omega2 (|m|, |k| <= 1) lies in the search
    that defines r_min, so |v| >= r_min (1 - 3u); z1 - v is formed by two
    roundings per component and its ``abs`` rounds once more, so the
    scanned distance is at least r_min - d - 10u (r_min + |omega1| +
    |omega2|) for d <= r_min, and the two roundings of the clear bound add
    2u r_min.  The slack 2^-44 (|omega1| + |omega2| + r_min) exceeds that
    12u bound whatever the radius, so d <= (r_min - slack) - radius is
    clear.  Any other d, NaN among them, runs the scan.
    """
    d = abs(z1)
    if d < radius:
        return True
    if d <= L._guard[1] - radius:
        return False
    return _nearest(L, z1, d) < radius


def _series_eval(L: Lattice, z: complex) -> tuple[complex, complex, complex]:
    # Horner in w = z^2 for the three tail sums, highest order first; a w
    # with the bits of the lattice's last one reuses its sums (module docstring).
    w = z * z
    memo = L._tails
    w_last, tails = memo[0]
    if w == w_last and w.real and w.imag:
        tail_p, tail_dp, tail_zt = tails
    else:
        tail_p = 0j
        tail_dp = 0j
        tail_zt = 0j
        for ck, dk, zk in L._horner:
            tail_p = tail_p * w + ck
            tail_dp = tail_dp * w + dk
            tail_zt = tail_zt * w + zk
        memo[0] = (w, (tail_p, tail_dp, tail_zt))  # one store (``Lattice``)
    p = 1 / w + w * tail_p
    dp = -2 / (z * w) + z * tail_dp
    zt = 1 / z - z * w * tail_zt
    return p, dp, zt


def _eval_reduced(L: Lattice, z: complex) -> tuple[complex, complex, complex]:
    if abs(z) <= L._series_radius:
        return _series_eval(L, z)
    p1, dp1, zt1 = _eval_reduced(L, z / 2)
    ddp1 = 6 * p1 * p1 - L._half_g2
    lam = ddp1 / dp1
    p2 = lam * lam / 4 - 2 * p1
    dp2 = -(dp1 + lam * (p2 - p1))
    zt2 = 2 * zt1 + lam / 2
    return p2, dp2, zt2


def weier_eval(L: Lattice, z: complex,
               exclusion: float = DEFAULT_EXCLUSION) -> tuple[complex, complex, complex]:
    """Values (p, p', zeta) at z; z must stay clear of the lattice.

    ``exclusion`` must be positive (ValueError otherwise, NaN included).
    PoleProximityError when z lies within exclusion * r_min of a lattice
    point, or when a radius that small admits a point whose values cannot
    be formed: a division by zero (z^3 underflows to 0 where |z| is below
    about 1e-108) or a value that overflows (p' where |z| is below about
    2.2e-103).  At the default radius a cell point with both parts nonzero
    is kept in ``Lattice._points`` (the module docstring), and is not
    reduced under half the smaller cell height (``_near``).  A point
    reducing to a kept z0 with m or k nonzero gets z0's kept values, guarded
    at this radius on z0's bits, plus its own eta shift: the kept zeta,
    zeta(z0) + 0 eta1 + 0 eta2, has zeta(z0)'s bits if both its parts are
    nonzero (x + -0.0 is x for x != 0), the only case served."""
    memo = L._points
    default = exclusion == DEFAULT_EXCLUSION
    keep = default and z.real and z.imag
    if keep:
        values = memo.get(z)
        if values is not None:
            return values
    elif not exclusion > 0:
        raise ValueError(f"exclusion must be positive, not {exclusion!r}")
    radius = exclusion * L.r_min
    # hypot, unlike abs, gives inf past the float range instead of raising
    z0, m, k = (z, 0, 0) if keep and math.hypot(z.real, z.imag) < L._guard[0] else _reduce(L, z)
    reduced = memo.get(z0) if default and (m or k) and z0.real and z0.imag else None
    if not (reduced and reduced[2].real and reduced[2].imag):
        if _near_reduced(L, z0, radius):
            raise PoleProximityError(f"z = {z} is within {exclusion} * r_min of a lattice point")
        try:
            reduced = _eval_reduced(L, z0)
        except ZeroDivisionError:
            raise PoleProximityError(f"z = {z} is too close to a lattice point to evaluate") from None
    p, dp, zt = reduced
    values = p, dp, zt + m * L.eta1 + k * L.eta2
    if radius < _FINITE_RADIUS and not all(map(cmath.isfinite, values)):
        raise PoleProximityError(f"z = {z} is too close to a lattice point to evaluate")
    if keep and not (m or k):
        if len(memo) >= _POINT_MEMO_SIZE:
            memo.clear()
        memo[z] = values
    return values


def lattice_init(omega1: complex, omega2: complex) -> Lattice:
    """Build a lattice from its periods and certify the evaluation data.

    Requires nonzero finite periods whose ratio omega2/omega1 is finite with
    a positive imaginary part (ValueError naming the fault otherwise).  Raises
    CertificationError when the self-checks (differential equation,
    periodicity, quasi-periodicity, Legendre relation) fail at 1e-9
    relative tolerance, or when g2, g3 leave the float range.
    """
    omega1 = complex(omega1)
    omega2 = complex(omega2)
    for name, omega in (("omega1", omega1), ("omega2", omega2)):
        if not (omega and cmath.isfinite(omega)):
            raise ValueError(f"degenerate periods: {name} = {omega!r} must be nonzero and finite")
    tau = omega2 / omega1
    if not cmath.isfinite(tau):
        raise ValueError(f"degenerate periods: omega2/omega1 = {tau!r} is not finite")
    if not tau.imag > 0:
        raise ValueError("degenerate periods: Im(omega2/omega1) must be positive")
    g2, g3 = _invariants(omega1, omega2)
    coeffs = _laurent_coeffs(g2, g3, _SERIES_ORDER)
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


def _certify(L: Lattice) -> None:
    """The Legendre relation, then at up to eight seeded cell points the
    differential equation, periodicity and quasi-periodicity, at 1e-9.  The
    last two compare zeta with L's own eta, so they test the reduction and
    the eta shift; Legendre and the ODE test the numbers, and every eta_i
    moved by one c * omega_i still passes them all."""
    tol = 1e-9
    legendre = L.eta1 * L.omega2 - L.eta2 * L.omega1 - 2j * math.pi
    if abs(legendre) > tol * (1 + abs(L.eta1 * L.omega2)):
        raise CertificationError(f"Legendre relation residual {abs(legendre):.2e}")
    rng = Random(0x5EED)
    for _ in range(8):
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        z = a * L.omega1 + b * L.omega2
        if _near(L, z, 0.1 * L.r_min):
            continue
        p, dp, zt = weier_eval(L, z)
        ode = dp * dp - (4 * p ** 3 - L.g2 * p - L.g3)
        # against the terms that cancel: |p'|^2 is the larger where |p| is small
        if abs(ode) > tol * (1 + abs(p) ** 3 + abs(dp) ** 2):
            raise CertificationError(f"differential equation residual {abs(ode):.2e} at {z}")
        for omega, eta in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
            p2, dp2, zt2 = weier_eval(L, z + omega)
            scale = 1 + abs(p)
            if abs(p2 - p) > tol * scale or abs(dp2 - dp) > tol * scale:
                raise CertificationError(f"periodicity residual at {z} + {omega}")
            if abs(zt2 - zt - eta) > tol * (1 + abs(zt)):
                raise CertificationError(f"quasi-periodicity residual at {z} + {omega}")


# -- the e-basis -----------------------------------------------------------


def e_func(L: Lattice, alpha: int, z: complex) -> complex:
    """e[2a] = p^a, e[2a+3] = -p^a * p'/2, valid for any integer index."""
    p, dp, _ = weier_eval(L, z)
    return _e_from_values(L, alpha, p, dp)[0]


def e_func_and_deriv(L: Lattice, alpha: int, z: complex) -> tuple[complex, complex]:
    """Value and z-derivative of e[alpha] at z."""
    p, dp, _ = weier_eval(L, z)
    return _e_from_values(L, alpha, p, dp)


def _e_from_values(L: Lattice, alpha: int, p: complex, dp: complex) -> tuple[complex, complex]:
    """(e[alpha], e[alpha]') from p and p' at a point: the one formula."""
    odd = alpha % 2
    a = (alpha - 3 * odd) // 2
    pa = p ** a
    pam1 = p ** (a - 1)
    if not odd:
        return pa, a * pam1 * dp
    ddp = 6 * p * p - L._half_g2
    value = pa * (-dp / 2)  # halved first: finite wherever e[alpha] is
    deriv = -(a * pam1 * dp * dp + pa * ddp) / 2
    return value, deriv


# -- the functional bracket -------------------------------------------------
#
# The public two-point functions evaluate their points and pass the values
# to a core; the sweeps evaluate each sampled point once and pass the same
# values to the core for every generator pair.


def _point_values(L: Lattice, points) -> list:
    """(p, p', zeta) at each point, in order."""
    return [weier_eval(L, z) for z in points]


def _difference_values(L: Lattice, x: complex, y: complex):
    """(p, p', zeta) at x - y, evaluated before x and y: the
    PoleProximityError of its guard is raised as NearSingularError."""
    try:
        return weier_eval(L, x - y)
    except PoleProximityError:
        raise NearSingularError("x - y too close to the lattice") from None


def _two_point_values(L: Lattice, x: complex, y: complex):
    """(p, p', zeta) at x, y and x - y; x - y must stay clear of the lattice."""
    vxy = _difference_values(L, x, y)
    return weier_eval(L, x), weier_eval(L, y), vxy


def _bracket_values(L: Lattice, x: complex, y: complex):
    """Point values a two-point bracket needs: at x alone when x == y."""
    if x == y:
        return (weier_eval(L, x),)
    return _two_point_values(L, x, y)


def _zeta_values(vx, vy, vxy) -> complex:
    return vxy[2] - vx[2] + vy[2]


def _zeta_matrix(L: Lattice, points, values) -> list[list]:
    """Z(z_a, z_b) = zeta(z_a - z_b) - zeta(z_a) + zeta(z_b) for every
    ordered pair a != b of points, row-major, from the values at the
    points; the diagonal holds None."""
    out = []
    for a, (x, vx) in enumerate(zip(points, values)):
        row = []
        for b, (y, vy) in enumerate(zip(points, values)):
            row.append(None if a == b else
                       _zeta_values(vx, vy, _difference_values(L, x, y)))
        out.append(row)
    return out


def _e_table(L: Lattice, indices, values) -> dict[int, list[tuple[complex, complex]]]:
    """{a: [(e[a], e[a]') at each point]} for each index a, from the (p, p',
    zeta) values at the points: every e-value a check reads comes from one."""
    return {a: [_e_from_values(L, a, p, dp) for p, dp, _ in values] for a in indices}


def _func_bracket_core(n_value, values, f_at, g_at) -> tuple[complex, float]:
    """func_bracket from the point values of ``_bracket_values`` and the
    generators' rows of the ``_e_table`` at x and y (at x on the diagonal)."""
    if len(values) == 1:
        (f, df), = f_at
        (g, dg), = g_at
        value = (complex(n_value) - 2) * (df * g - f * dg)
        return value, 1.0 + abs(value)
    Z = _zeta_values(*values)
    (f_x, df_x), (f_y, df_y) = f_at
    (g_x, dg_x), (g_y, dg_y) = g_at
    n = complex(n_value)
    terms = (
        n * Z * f_x * g_y,
        -n * Z * f_y * g_x,
        -df_x * g_y,
        -df_y * g_x,
        f_x * dg_y,
        f_y * dg_x,
    )
    return sum(terms), 1.0 + max(abs(t) for t in terms)


def func_bracket(L: Lattice, n_value: complex, f_index: int, g_index: int,
                 x: complex, y: complex) -> tuple[complex, float]:
    """Two-point bracket value of a generator pair, and its scale.

    Off the diagonal this is
    n * Z * (f(x) g(y) - f(y) g(x)) - f'(x) g(y) - f'(y) g(x)
    + f(x) g'(y) + f(y) g'(x) with Z = zeta(x-y) - zeta(x) + zeta(y);
    at x == y (exact equality) the limit value is used.  The scale is one
    plus the peak magnitude of the accumulated terms.
    """
    values = _bracket_values(L, x, y)
    table = _e_table(L, (f_index, g_index), values[:2])
    return _func_bracket_core(n_value, values, table[f_index], table[g_index])


def _identity5_core(L: Lattice, vx, vy, vxy) -> tuple[float, float]:
    Z = _zeta_values(vx, vy, vxy)
    px, dpx, _ = vx
    py, dpy, _ = vy
    r1 = abs(Z * (px - py) - (dpx + dpy) / 2)
    r2 = abs(Z * (dpx - dpy) - (2 * px * px + 2 * px * py + 2 * py * py - L._half_g2))
    return r1, r2


def identity5_residual(L: Lattice, x: complex, y: complex) -> tuple[float, float]:
    """Absolute residuals of the two Z-identities relating p, p' at x, y."""
    return _identity5_core(L, *_two_point_values(L, x, y))


# -- symmetric evaluation ----------------------------------------------------


def numeric_params(L: Lattice, n_value) -> dict[str, complex]:
    """Standard numeric assignment for n, g2, g3."""
    return {"n": complex(n_value), "g2": L.g2, "g3": L.g3}


def sym_eval(L: Lattice, P: EPoly, params: dict[str, complex],
             points: list[complex]) -> tuple[complex, float]:
    """Evaluate a degree-m element as a symmetric function of m variables.

    A monomial e[a_1]...e[a_m] contributes the sum over all m!
    assignments of points to factors (repeated indices included, so
    e[a]^2 at (x, y) evaluates to 2 e[a](x) e[a](y)), which is the
    permanent of the matrix e[a_i](z_j), taken by Ryser's formula.  The
    column sums over each point subset are built once per generator and
    shared by every monomial.  Returns (value, scale): the scale is one
    plus the largest product magnitude entering the alternating sums
    (times |coefficient|), the conditioning scale of the cancellation.
    Equal points in a row are one run, evaluated once; ``_PointSet`` and
    ``_sym_eval_core`` say how the sums are formed.
    """
    m = len(points)
    deg = P.homogeneous_degree()
    if deg is None:
        if not P:
            return 0j, 1.0
        raise ValueError("sym_eval needs a homogeneous element")
    if deg != m:
        raise ValueError(f"degree {deg} does not match {m} points")
    runs = [(z, len(list(group))) for z, group in groupby(points)]
    table = _e_table(L, P.support(), _point_values(L, [z for z, _ in runs]))
    return _sym_eval_core(P, params, [_PointSet([k for _, k in runs], table)])[0]


_PEAK_SLACK = 1 + 1e-9  # relative slack of the product magnitude bounds
_PEAK_FLOOR = 2.0 ** -960  # smallest bound trusted to hold with that slack


class _PointSet:
    """Ryser columns of the e-basis at m points, per generator, and the
    folded sums of Ryser's formula, per monomial, each built on first use:
    a point set evaluated for several elements builds each column and
    folds each distinct monomial once.

    The points come in runs of equal points, ``lengths`` holding the length
    of each run and each row of ``table`` (an ``_e_table``) one entry per
    run.  The column sum of a nonempty point subset (a mask) adds e[alpha]
    at its points in ascending point order, starting from 0j; two masks
    that take as many points from every run add the same operands in the
    same order, so their sums, and every product made from them, are equal.
    Such masks form one class and everything is kept per class: ``index``
    maps the masks 1, 2, ..., 2^m - 1 to their classes, and
    ``column(alpha)`` gives per class the sum, the sum with Ryser's sign
    (-1)^(m - |mask|) folded in, and the bound max |sum| * (1 + 1e-9).

    ``sums`` maps each monomial folded here to [its signed sum over masks,
    the bound on its products, the largest |product| or None until some
    element needs it]; ``_sym_eval_core`` fills it.  None of the three
    depends on the coefficient, so every element that holds the monomial
    reads the same entry.
    """

    __slots__ = ("m", "index", "ones", "sums", "_lengths", "_table", "_reps",
                 "_negative", "_columns")

    def __init__(self, lengths, table):
        self.m = sum(lengths)
        self._lengths = lengths
        self._table = table
        keys = [0]  # per mask: its counts per run, as one mixed-radix number
        radix = 1
        for length in lengths:
            for _ in range(length):
                keys += [key + radix for key in keys]
            radix *= length + 1
        position: dict[int, int] = {}  # class key -> class number
        self._reps: list[int] = []  # per class: its first mask
        self.index: list[int] = []
        for mask in range(1, len(keys)):
            if keys[mask] not in position:
                position[keys[mask]] = len(self._reps)
                self._reps.append(mask)
            self.index.append(position[keys[mask]])
        self._negative = [(self.m - bin(mask).count("1")) % 2 for mask in self._reps]
        self.ones = [1 + 0j] * len(self._reps)  # the empty product, per class
        self._columns: dict[int, tuple[list[complex], list[complex], float]] = {}
        self.sums: dict[tuple[int, ...], list] = {}

    def column(self, alpha: int) -> tuple[list[complex], list[complex], float]:
        """Per class: the column sums of e[alpha], the same with the Ryser
        sign folded in, and a bound on their magnitudes."""
        got = self._columns.get(alpha)
        if got is None:
            sums = [0j]
            for (e, _), length in zip(self._table[alpha], self._lengths):
                for _ in range(length):
                    sums += [s + e for s in sums]
            col = [sums[mask] for mask in self._reps]
            signed = [-s if neg else s for s, neg in zip(col, self._negative)]
            got = self._columns[alpha] = (col, signed,
                                          max(map(abs, col)) * _PEAK_SLACK)
        return got


def _magnitude(prods: list[complex]) -> float:
    """The largest |product| (0.0 if none); ``max`` passes over NaN."""
    return max(0.0, *map(abs, prods))


def _sym_eval_core(P: EPoly, params: dict[str, complex],
                   point_sets: list[_PointSet]) -> list[tuple[complex, float]]:
    """sym_eval of a homogeneous P of degree m at each of ``point_sets``
    (``_PointSet`` of m points each): one (value, scale) per set.

    Ryser's sign is folded into the last factor of each monomial: under
    round-to-nearest s * (-t) equals -(s * t) up to the sign of a zero,
    and the sum over masks starts from 0j, which no signed zero changes.
    The products of the leading factors are shared by consecutive
    monomials, and each class of masks with equal column sums is
    multiplied once; the fold then adds the class products mask by mask
    in a plain loop, the additions of the one-permanent-per-monomial
    formula in its order.

    The scale needs max |c * product| over masks, one ``abs`` per class.
    A monomial's products are bounded by the product of its factors'
    bounds and one more (1 + 1e-9): complex products and ``abs`` err by a
    few units in the last place, far below that slack.  Rounding is
    monotone, so when |c| * bound <= peak no class can raise the peak and
    the magnitudes are not taken.  A bound below 2^-960 anywhere along
    the prefix (there underflow errs by more than a relative amount) or a
    NaN bound never skips; a NaN magnitude is passed over by ``max`` on
    both paths.

    Each set keeps per monomial its fold, its bound and, once taken, its
    magnitude (``_PointSet.sums``), so a monomial already folded at a set
    costs no product there; only one whose magnitude is first needed by
    this element walks its products again, through the shared prefixes.
    The coefficients and each monomial's shared prefix length are computed
    once for all sets; each set then runs the walk alone, so its result
    does not depend on the other sets.
    """
    m = point_sets[0].m
    terms = P.coefficient_values(params)
    if m == 0:  # the empty product: one permanent of value 1
        total = 0j
        peak = 0.0
        for _, c in terms:
            total += c * (1 + 0j)
            peak = max(peak, abs(c) * 1.0)
        return [(total, 1.0 + peak)] * len(point_sets)
    # Per monomial: itself, the prefix length it shares with the previous
    # one, c and |c|.
    walk = []
    previous = (None,) * m
    for mono, c in terms:
        k = 0
        while k < m - 1 and mono[k] == previous[k]:
            k += 1
        walk.append((mono, k, c, abs(c)))
        previous = mono
    support = P.support()
    out = []
    for points in point_sets:
        columns = {alpha: points.column(alpha) for alpha in support}
        index = points.index
        sums = points.sums
        prefix = [points.ones]
        prefix_bound = [_PEAK_SLACK]
        built = 0  # leading factors the prefix shares with this monomial
        total = 0j
        peak = 0.0
        for mono, k, c, size in walk:
            if k < built:
                built = k
            got = sums.get(mono)
            if got is None or got[2] is None and not (
                    got[1] >= _PEAK_FLOOR and size * got[1] <= peak):
                del prefix[built + 1:], prefix_bound[built + 1:]
                for alpha in mono[built:m - 1]:
                    col, _, bound = columns[alpha]
                    prefix.append(list(map(mul, prefix[-1], col)))
                    limit = prefix_bound[-1] * bound
                    prefix_bound.append(limit if limit >= _PEAK_FLOOR else math.inf)
                built = m - 1
                _, signed, bound = columns[mono[-1]]
                prods = list(map(mul, prefix[-1], signed))
                if got is None:
                    s = 0j
                    for j in index:
                        s += prods[j]
                    got = sums[mono] = [s, prefix_bound[-1] * bound, None]
            s, limit, magnitude = got
            total += c * s
            if not (limit >= _PEAK_FLOOR and size * limit <= peak):
                if magnitude is None:
                    magnitude = got[2] = _magnitude(prods)
                peak = max(peak, size * magnitude)
        out.append((total, 1.0 + peak))
    return out


# -- sampling ----------------------------------------------------------------


def sample_points(L: Lattice, rng: Random, count: int,
                  pairwise_distinct: bool = False) -> list[complex]:
    """Seeded points in the fundamental cell, clear of the lattice; gives up
    after ``_MAX_REJECTED`` rejected candidates in a row."""
    out: list[complex] = []
    rejected = 0
    while len(out) < count:
        z = rng.uniform(-0.5, 0.5) * L.omega1 + rng.uniform(-0.5, 0.5) * L.omega2
        if _near(L, z, DEFAULT_EXCLUSION * L.r_min) or pairwise_distinct and any(
            _near(L, z - w, DEFAULT_EXCLUSION * L.r_min) for w in out
        ):
            rejected += 1
            if rejected == _MAX_REJECTED:
                raise RuntimeError("sampling failed: too few admissible points in the cell")
            continue
        rejected = 0
        out.append(z)
    return out


def sample_pairs(L: Lattice, rng: Random, count: int,
                 diagonal_every: int = 0) -> list[tuple[complex, complex]]:
    """Admissible (x, y) pairs; every diagonal_every-th pair has x == y."""
    out: list[tuple[complex, complex]] = []
    while len(out) < count:
        if diagonal_every and (len(out) + 1) % diagonal_every == 0:
            x = sample_points(L, rng, 1)[0]
            out.append((x, x))
            continue
        x, y = sample_points(L, rng, 2, pairwise_distinct=True)
        out.append((x, y))
    return out


# -- sweeps -------------------------------------------------------------------


def _plan_tolerance(plan: SamplePlan, tol: float | None) -> float:
    """The plan's tolerance; a ``tol`` given as well must equal it."""
    if tol is not None and tol != plan.tolerance:
        raise ValueError(f"tol {tol!r} differs from the plan's tolerance {plan.tolerance!r}")
    return plan.tolerance


def weierstrass_selftest(L: Lattice, plan: SamplePlan, tol: float | None = None,
                         check_name: str = "weierstrass-selftest") -> Report:
    """Differential equation, periodicity, quasi-periodicity, parity, and
    the leading Laurent coefficients against g2/20 and g3/28, at the plan's
    tolerance (``tol``, if given, must equal it).

    The parity row guards the evaluator's symmetry, not its accuracy: the
    round-half-even reduction and the series commute with negation, so on
    cell points it reads exactly 0.  For the same reason -z squares to the
    series argument of z and reuses its tail sums (the module docstring);
    its guard, halving and assembly still run.  As in ``_certify``, the
    periodicity rows test the reduction and the eta shift, and the Legendre
    and ODE rows the numbers: a z + omega that reduces to z's bits gets z's
    kept p and p', so its periodicity row reads 0.  The values at z and -z
    stay in the point memo for ``identity5_sweep``."""
    tol = _plan_tolerance(plan, tol)
    tally = Tally(tol)
    rng = Random(plan.seed)
    c2 = L.laurent_c[2]
    c3 = L.laurent_c[3]
    tally.residual(abs(c2 - L.g2 / 20) / (1 + abs(c2)), "laurent-c2 at z=0")
    tally.residual(abs(c3 - L.g3 / 28) / (1 + abs(c3)), "laurent-c3 at z=0")
    legendre = L.eta1 * L.omega2 - L.eta2 * L.omega1 - 2j * math.pi
    tally.residual(abs(legendre) / (1 + abs(L.eta1 * L.omega2)), "legendre at z=0")

    for z in sample_points(L, rng, plan.count):
        p, dp, zt = weier_eval(L, z)
        ode = abs(dp * dp - (4 * p ** 3 - L.g2 * p - L.g3))
        tally.residual(ode / (1 + abs(p) ** 3), "ode at z={!r}", z)
        pm, dpm, ztm = weier_eval(L, -z)
        scale = 1 + max(abs(p), abs(dp), abs(zt))
        tally.residual(max(abs(pm - p), abs(dpm + dp), abs(ztm + zt)) / scale,
                       "parity at z={!r}", z)
        for omega, eta in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
            p2, dp2, zt2 = weier_eval(L, z + omega)
            tally.residual(max(abs(p2 - p), abs(dp2 - dp)) / (1 + abs(p) + abs(dp)),
                           "periodicity at z={!r}", z)
            tally.residual(abs(zt2 - zt - eta) / (1 + abs(zt)),
                           "quasi-periodicity at z={!r}", z)

    params = {"omega1": repr(L.omega1), "omega2": repr(L.omega2),
              "samples": plan.count, "seed": plan.seed, "tol": tol}
    return tally.report(check_name, params)


def identity5_sweep(L: Lattice, plan: SamplePlan, tol: float | None = None,
                    check_name: str = "identity5") -> Report:
    """Relative residuals of the two Z-identities over sampled pairs, at the
    plan's tolerance (``tol``, if given, must equal it).

    Its pairs come from ``Random(plan.seed)`` as the self-test's samples do,
    so after the self-test with that seed on that lattice the point memo
    holds 994-1,000 of 2,000 points x and y at 1,000 samples on the
    benchmark's sweeps; each x - y is a new point."""
    tol = _plan_tolerance(plan, tol)
    tally = Tally(tol)
    rng = Random(plan.seed)
    for x, y in sample_pairs(L, rng, plan.count):
        vx, vy, vxy = _two_point_values(L, x, y)
        r1, r2 = _identity5_core(L, vx, vy, vxy)
        px, dpx, _ = vx
        py, dpy, _ = vy
        scale = 1 + max(abs(px), abs(py)) ** 2 + max(abs(dpx), abs(dpy))
        tally.residual(max(r1, r2) / scale, "x={!r}, y={!r}", x, y,
                       text="r1={:.3e} r2={:.3e}", text_args=(r1, r2))
    params = {"omega1": repr(L.omega1), "omega2": repr(L.omega2),
              "samples": plan.count, "seed": plan.seed, "tol": tol}
    return tally.report(check_name, params)


def verify_functional(L: Lattice, n_value, window, plan: SamplePlan,
                      check_name: str | None = None) -> Report:
    """Cross-check the two-point bracket against the symbolic bracket.

    For every generator pair in the window and every sampled (x, y) the
    relative residual between the direct two-point value and the
    symmetric evaluation of the symbolic bracket must stay below the plan
    tolerance.  Diagonal samples are included; n_value is taken exactly.
    Both sides read one ``_e_table`` per sampled pair, over the window and
    the brackets' supports, and every bracket is evaluated at the same
    point sets, one per pair, so each set folds a monomial once, however
    many brackets hold it (``_PointSet``).
    """
    tally = Tally(plan.tolerance)
    members = sorted(window)
    rng = Random(plan.seed)
    pairs = sample_pairs(L, rng, plan.count, diagonal_every=5)
    params_num = numeric_params(L, n_value)
    spec = BracketSpec.elliptic()
    nv = Fraction(n_value)
    n = params_num["n"]
    brackets = [(alpha, beta, generator_bracket(alpha, beta, spec, n_value=nv))
                for i, alpha in enumerate(members) for beta in members[i:]]
    indices = set(members).union(*(br.support() for _, _, br in brackets))
    values = [_bracket_values(L, x, y) for x, y in pairs]  # at x alone if x == y
    tables = [_e_table(L, indices, vals[:2]) for vals in values]
    point_sets = [_PointSet((2,) if len(vals) == 1 else (1, 1), table)
                  for vals, table in zip(values, tables)]
    for alpha, beta, br in brackets:
        # one evaluation of the symbolic bracket at every pair
        rhs_all = (_sym_eval_core(br, params_num, point_sets) if br
                   else [(0j, 1.0)] * len(pairs))
        for (x, y), vals, table, (rhs, rhs_scale) in zip(pairs, values, tables, rhs_all):
            try:
                lhs, lhs_scale = _func_bracket_core(n, vals, table[alpha], table[beta])
                rel = abs(lhs - rhs) / max(lhs_scale, rhs_scale)
            except OverflowError:  # a magnitude past the float range fails
                rel = math.inf
            tally.residual(rel, "pair=({},{}) x={!r} y={!r}", alpha, beta, x, y)
    params = {"n": str(n_value), "window": members, "samples": plan.count,
              "seed": plan.seed, "tol": plan.tolerance,
              "omega1": repr(L.omega1), "omega2": repr(L.omega2)}
    return tally.report(check_name or f"functional-n{n_value}", params)
