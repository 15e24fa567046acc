"""Lattice numerics: self-certification, the e-basis, the two identities
tying the zeta combination to p and p', the two-point bracket, and the
symmetric-evaluation cross-check."""

import cmath
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import elliptic_poisson.weierstrass as weierstrass
from elliptic_poisson.brackets import BracketSpec, generator_bracket
from elliptic_poisson.poly import EPoly, IndexSet
from elliptic_poisson.report import Tally
from elliptic_poisson.weierstrass import (
    _SERIES_FRACTION,
    _SERIES_ORDER,
    CertificationError,
    NearSingularError,
    PoleProximityError,
    SamplePlan,
    _e_table,
    _e_value,
    _func_bracket_core,
    _laurent_coeffs,
    e_func,
    e_func_and_deriv,
    func_bracket,
    identity5_residual,
    identity5_sweep,
    lattice_init,
    numeric_params,
    sample_pairs,
    sample_points,
    sym_eval,
    verify_functional,
    weier_eval,
    weierstrass_selftest,
)

SQUARE = lattice_init(1, 1j)
SKEW = lattice_init(1, 0.3 + 1.1j)
HEX = lattice_init(1, cmath.exp(1j * math.pi / 3))
LATTICES = (SQUARE, SKEW)


def test_square_lattice_g3_vanishes():
    assert abs(SQUARE.g3) < 1e-9


def test_hexagonal_lattice_g2_vanishes():
    assert abs(HEX.g2) < 1e-9


def test_laurent_seeds_match_invariants():
    for L in LATTICES + (HEX,):
        assert abs(L.laurent_c[2] - L.g2 / 20) <= 1e-9 * (1 + abs(L.g2))
        assert abs(L.laurent_c[3] - L.g3 / 28) <= 1e-9 * (1 + abs(L.g3))


# Period ratios of the CLI (i) and of the acceptance and benchmark sweeps,
# and the hexagonal lattice, where the dropped tail is largest.
NAMED_TAUS = (1j, 0.3 + 1.1j, 2j, 0.5 + 0.9j, -0.4 + 1.2j, cmath.exp(1j * math.pi / 3))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(NAMED_TAUS),
                 st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.5, 3))),
       st.floats(0.25, 4), st.floats(0, 2 * math.pi))
def test_series_tail_below_last_bit(tau, scale, angle):
    """The Laurent rows past ``_SERIES_ORDER`` (up to 26) move no result
    of the series disc by 2^-60 relative.  At |z| = rho, the disc edge,
    row k is c_k z^(2k-2) against 1/z^2 in p, (2k-2) c_k z^(2k-3) against
    -2/z^3 in p', and c_k z^(2k-1) / (2k-1) against 1/z in zeta: relative
    weights 1, k-1 and 1/(2k-1) times |c_k| rho^(2k).  The sum is taken
    with the largest, k-1.  It does not change with the scale or the
    rotation of omega1; the series runs only on lattices that lattice_init
    certifies, and it certifies every lattice of this domain."""
    omega1 = cmath.rect(scale, angle)
    L = lattice_init(omega1, tau * omega1)
    c = _laurent_coeffs(L.g2, L.g3, 26)
    rho = _SERIES_FRACTION * L.r_min
    tail = sum((k - 1) * abs(c[k]) * rho ** (2 * k) for k in range(_SERIES_ORDER + 1, 27))
    assert tail <= 2.0 ** -60


@pytest.mark.parametrize("scale", [0.25, 0.5, 1, 2, 4])
def test_small_lattice_certifies(scale):
    # the differential-equation residual is measured against the terms that
    # cancel in p'^2 = 4 p^3 - g2 p - g3; against 1 + |p|^3 alone, where
    # |p'|^2 is the larger, this lattice was refused at scale 0.25 and 0.5
    lattice_init(scale, (-0.45 + 0.5j) * scale)


CONTROL_TAUS = (1j, 0.3 + 1.1j, -0.45 + 0.5j, 2j)
CONTROL_SCALES = (0.25, 0.5, 1, 2, 4)


@pytest.mark.parametrize("tau", CONTROL_TAUS)
@pytest.mark.parametrize("scale", CONTROL_SCALES)
def test_certification_refuses_a_wrong_series(monkeypatch, tau, scale):
    # c_4 off by 1e-6 relative: the lattice must not certify
    real = weierstrass._laurent_coeffs

    def bent(g2, g3, order):
        c = list(real(g2, g3, order))
        c[4] *= 1 + 1e-6
        return tuple(c)

    monkeypatch.setattr(weierstrass, "_laurent_coeffs", bent)
    with pytest.raises(CertificationError):
        lattice_init(scale, tau * scale)


@pytest.mark.parametrize("tau", CONTROL_TAUS)
@pytest.mark.parametrize("scale", CONTROL_SCALES)
def test_differential_equation_refuses_a_wrong_series(tau, scale):
    # the same bent c_4 beside the true eta1 and eta2, which pass the
    # Legendre check: the differential equation alone must refuse it
    L = lattice_init(scale, tau * scale)
    c = list(L.laurent_c)
    c[4] *= 1 + 1e-6
    bent = weierstrass.Lattice(L.omega1, L.omega2, L.g2, L.g3, tuple(c),
                               L.eta1, L.eta2, L.r_min)
    with pytest.raises(CertificationError, match="differential equation"):
        weierstrass._certify(bent)


def test_period_ratio_near_the_real_axis_rejected():
    # |q| = exp(-2 pi Im tau) is about 0.997 here, past the 0.995 limit of
    # the Eisenstein q-expansions
    with pytest.raises(ValueError, match="period ratio too close to the real axis") as exc:
        lattice_init(1, 0.5 + 0.0005j)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("scale", [1e52, 1e-60, 1e300])
def test_period_scale_outside_the_float_range_rejected(scale):
    # omega1 ** 6 overflows at 1e52 and underflows to 0 at 1e-60, and at
    # 1e300 g2 and g3 come out nan: each is a certification failure that
    # names the scale, not an arithmetic error
    message = re.escape(f"g2, g3 leave the float range at |omega1| = {scale:.3g}")
    with pytest.raises(CertificationError, match=message):
        lattice_init(scale, scale * 1j)


def _eisenstein_e2(tau):
    """E2(tau) = 1 - 24 * sum of sigma_1(k) q^k, summed until |q^k| < 1e-20."""
    q = cmath.exp(2j * math.pi * tau)
    total, qk, k = 0j, 1, 0
    while abs(qk) >= 1e-20:
        k += 1
        qk *= q
        total += sum(d for d in range(1, k + 1) if k % d == 0) * qk
    return 1 - 24 * total


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 2j, 0.5 + 0.9j, -0.4 + 1.2j, 0.1 + 0.3j,
                                 0.45 + 0.9j, 3j])
def test_eta1_matches_the_eisenstein_series_e2(tau):
    # for the periods (1, tau), eta1 = zeta(z + 1) - zeta(z) is pi^2 E2(tau) / 3,
    # a formula independent of the lattice's own series.  The certification
    # cannot tell eta_i moved by c * omega_i (Legendre keeps its value), so
    # this comparison is the check that refuses such a shift
    L = lattice_init(1, tau)
    expected = math.pi ** 2 * _eisenstein_e2(tau) / 3
    assert abs(L.eta1 - expected) <= 1e-9 * abs(expected)
    shifted = replace(L, eta1=L.eta1 + 1e-6 * L.omega1, eta2=L.eta2 + 1e-6 * L.omega2)
    weierstrass._certify(shifted)
    assert abs(shifted.eta1 - expected) > 1e-9 * abs(expected)


def test_certification_refuses_a_wrong_period_shift(monkeypatch):
    # a reduction that reports m + 1 off the cell shifts zeta by one eta1 too
    # many and leaves p, p' alone: the quasi-periodicity row refuses it,
    # with an empty point memo and with one that already holds the sample
    # points, where z and z + omega1 are read from the memo and this call's
    # shift is what the row sees
    empty, kept = replace(SQUARE), replace(SQUARE)
    weierstrass._certify(kept)
    assert kept._points and not empty._points
    real_reduce, real_eval = weierstrass._reduce, weierstrass._eval_reduced
    evaluated = []

    def off_by_one(L, z):
        z0, m, k = real_reduce(L, z)
        return (z0, m + 1, k) if m or k else (z0, m, k)

    monkeypatch.setattr(weierstrass, "_reduce", off_by_one)
    monkeypatch.setattr(weierstrass, "_eval_reduced",
                        lambda L, z: evaluated.append(z) or real_eval(L, z))
    for L in (empty, kept):
        evaluated.clear()
        with pytest.raises(CertificationError, match=r"quasi-periodicity residual at .* \+ \(1\+0j\)"):
            weierstrass._certify(L)
    assert evaluated == []


def test_certification_refuses_a_wrong_period_reduction(monkeypatch):
    # a reduction that leaves z + omega a little off the cell point z0 gives
    # p and p' at another point: the periodicity row refuses it before the
    # quasi-periodicity row is read (an empty point memo, so z + omega is
    # evaluated, not read back)
    empty = replace(SQUARE)
    real_reduce = weierstrass._reduce

    def off_cell(L, z):
        z0, m, k = real_reduce(L, z)
        return (z0 + 1e-6, m, k) if m or k else (z0, m, k)

    monkeypatch.setattr(weierstrass, "_reduce", off_cell)
    with pytest.raises(CertificationError, match=r"^periodicity residual at .* \+ \(1\+0j\)$"):
        weierstrass._certify(empty)


@pytest.mark.parametrize("omega1, omega2, message", [
    (0, 1j, "omega1 = 0j must be nonzero and finite"),
    (1, 0, "omega2 = 0j must be nonzero and finite"),
    (complex(math.nan), 1j, r"omega1 = \(nan\+0j\) must be nonzero and finite"),
    (1, complex(0, math.inf), "omega2 = infj must be nonzero and finite"),
    (1e-300, 1e300 + 1e300j, r"omega2/omega1 = \(inf\+infj\) is not finite"),
])
def test_zero_or_non_finite_periods_rejected(omega1, omega2, message):
    # these raised ZeroDivisionError, or ValueError("cannot convert float NaN
    # to integer") from the nome's series length; each is a degenerate period
    with pytest.raises(ValueError, match="^degenerate periods: " + message) as exc:
        lattice_init(omega1, omega2)
    assert type(exc.value) is ValueError


def test_degenerate_periods_rejected():
    with pytest.raises(ValueError):
        lattice_init(1, 2.5)
    with pytest.raises(ValueError):
        lattice_init(1, -1j)  # wrong orientation


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_sample_plan_needs_positive_finite_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        SamplePlan(seed=1, count=5, tolerance=tol)


def test_pole_proximity_raises():
    with pytest.raises(PoleProximityError):
        weier_eval(SQUARE, 0.001 + 0.001j)
    with pytest.raises(PoleProximityError):
        weier_eval(SQUARE, 1.0 + 1.0j + 0.002)


@pytest.mark.parametrize("exclusion", [0, 0.0, -0.05, -math.inf, math.nan])
def test_exclusion_must_be_positive(exclusion):
    # with such a radius the guard never fired, and weier_eval(L, 0j,
    # exclusion=0) raised ZeroDivisionError
    for z in (0j, 0.3 + 0.2j):
        with pytest.raises(ValueError, match="exclusion must be positive") as got:
            weier_eval(SQUARE, z, exclusion=exclusion)
        assert type(got.value) is ValueError


@pytest.mark.parametrize("z", [1e-200j, 1e-120 + 1e-120j, -3e-109])
def test_division_by_zero_near_a_pole_is_pole_proximity(z):
    # a radius below |z| passes the guard; z^3 then underflows to 0, and
    # this raised ZeroDivisionError
    with pytest.raises(PoleProximityError, match="too close to a lattice point"):
        weier_eval(SQUARE, z, exclusion=1e-300)


@pytest.mark.parametrize("z", [2e-108j, 1e-107j, 3e-106j, 1e-105 + 1e-105j, 4e-105j,
                               -5e-104, 1e-103j, 1.5e-103 - 1e-103j, 2e-103j])
def test_overflow_near_a_pole_is_pole_proximity(z):
    # a radius below |z| passes the guard; z^3 is then subnormal and
    # p' = -2/z^3 + ... overflows, which returned p' = -inf*j at 2e-108j
    with pytest.raises(PoleProximityError, match="too close to a lattice point"):
        weier_eval(SQUARE, z, exclusion=1e-300)


class DrawCapReached(Exception):
    pass


class CappedRandom(Random):
    """A Random that raises ``DrawCapReached`` after ``cap`` draws."""

    def __init__(self, seed, cap):
        super().__init__(seed)
        self.left = cap

    def random(self):
        if self.left == 0:
            raise DrawCapReached
        self.left -= 1
        return super().random()


def test_sampling_more_points_than_fit_fails_fast():
    # 300 points kept 0.05 r_min apart do not fit by random sequential
    # sampling in this cell: sampling must give up well within 100,000 draws
    with pytest.raises(RuntimeError, match="sampling failed"):
        sample_points(SKEW, CappedRandom(2, 100_000), 300, pairwise_distinct=True)


def test_differential_equation_and_periodicity():
    rng = Random(101)
    for L in LATTICES:
        for z in sample_points(L, rng, 12):
            p, dp, zt = weier_eval(L, z)
            assert abs(dp * dp - (4 * p ** 3 - L.g2 * p - L.g3)) < 1e-9 * (1 + abs(p) ** 3)
            for omega, eta in ((L.omega1, L.eta1), (L.omega2, L.eta2)):
                p2, dp2, zt2 = weier_eval(L, z + omega)
                assert abs(p2 - p) < 1e-9 * (1 + abs(p))
                assert abs(dp2 - dp) < 1e-9 * (1 + abs(dp))
                assert abs(zt2 - zt - eta) < 1e-9 * (1 + abs(zt))


def test_parity():
    rng = Random(55)
    for z in sample_points(SKEW, rng, 8):
        p, dp, zt = weier_eval(SKEW, z)
        pm, dpm, ztm = weier_eval(SKEW, -z)
        scale = 1 + max(abs(p), abs(dp), abs(zt))
        assert abs(pm - p) < 1e-9 * scale
        assert abs(dpm + dp) < 1e-9 * scale
        assert abs(ztm + zt) < 1e-9 * scale


# the five period ratios of the benchmark's numeric sweep
SWEEP_LATTICES = tuple(lattice_init(1, tau)
                       for tau in (1j, 0.3 + 1.1j, 2j, 0.5 + 0.9j, -0.4 + 1.2j))


@pytest.mark.parametrize("L", SWEEP_LATTICES, ids=lambda L: repr(L.omega2))
def test_weier_eval_is_odd_to_the_bit(L):
    # the round-half-even reduction and the three series commute with
    # negation, so the parity row of weierstrass_selftest reads exactly 0
    # on cell points: it guards this symmetry, not the accuracy of p
    for z in sample_points(L, Random(20240915), 1000):
        p, dp, zt = weier_eval(L, z)
        assert weier_eval(L, -z) == (p, -dp, -zt)


def test_small_z_expansion():
    for L in LATTICES:
        z = 0.01 + 0.004j
        p = weier_eval(L, z, exclusion=1e-4)[0]
        approx = 1 / z ** 2 + L.g2 / 20 * z ** 2 + L.g3 / 28 * z ** 4
        assert abs(p - approx) < 1e-9 * abs(p)


def test_zeta_derivative_is_minus_p():
    h = 1e-5
    z = 0.31 + 0.22j
    for L in LATTICES:
        num = (weier_eval(L, z + h)[2] - weier_eval(L, z - h)[2]) / (2 * h)
        assert abs(num + weier_eval(L, z)[0]) < 1e-6 * (1 + abs(num))


def test_e_func_basics():
    z = 0.23 + 0.11j
    for L in LATTICES:
        assert e_func(L, 0, z) == 1
        p, dp, _ = weier_eval(L, z)
        assert abs(e_func(L, 2, z) - p) < 1e-12 * (1 + abs(p))
        assert abs(e_func(L, 3, z) + dp / 2) < 1e-12 * (1 + abs(dp))
        assert abs(e_func(L, -2, z) - 1 / p) < 1e-12


def test_odd_odd_product_identity():
    z = 0.21 + 0.17j
    for L in LATTICES:
        lhs = e_func(L, 3, z) ** 2
        rhs = e_func(L, 6, z) - L.g2 / 4 * e_func(L, 2, z) - L.g3 / 4
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_pole_order_and_residue():
    for L in LATTICES:
        z = 1e-3 * L.r_min * cmath.exp(0.7j)
        for alpha in (2, 3, 4, 5, 6, 7):
            p, dp, _ = weier_eval(L, z, exclusion=1e-4)
            val = z ** alpha * _e_value(alpha, p, dp)
            assert abs(val - 1) < 1e-3


def test_e_func_derivative_consistency():
    h = 1e-6
    z = 0.27 + 0.31j
    for alpha in (2, 3, 4, 5, -2):
        val, deriv = e_func_and_deriv(SQUARE, alpha, z)
        num = (e_func(SQUARE, alpha, z + h) - e_func(SQUARE, alpha, z - h)) / (2 * h)
        assert abs(deriv - num) < 1e-5 * (1 + abs(deriv))


# -- the two Z-identities -----------------------------------------------------

def test_identity5_random_samples():
    rng = Random(7)
    for L in LATTICES:
        for x, y in sample_pairs(L, rng, 20):
            r1, r2 = identity5_residual(L, x, y)
            px = weier_eval(L, x)[0]
            py = weier_eval(L, y)[0]
            scale = 1 + max(abs(px), abs(py)) ** 2
            assert r1 < 1e-8 * scale
            assert r2 < 1e-8 * scale


def test_identity5_swap_symmetric():
    x, y = 0.21 + 0.13j, -0.17 + 0.29j
    r1, r2 = identity5_residual(SQUARE, x, y)
    s1, s2 = identity5_residual(SQUARE, y, x)
    assert abs(r1 - s1) < 1e-9 * (1 + r1)
    assert abs(r2 - s2) < 1e-9 * (1 + r2)


def test_identity5_sweep_reports():
    for L in LATTICES:
        rep = identity5_sweep(L, SamplePlan(seed=3, count=20, tolerance=1e-8))
        assert rep.passed
        assert rep.max_residual < 1e-8


def test_weierstrass_selftest_report():
    for L in LATTICES:
        rep = weierstrass_selftest(L, SamplePlan(seed=4, count=10, tolerance=1e-9))
        assert rep.passed


# -- the two-point bracket ----------------------------------------------------

def test_func_bracket_same_index_vanishes():
    x, y = 0.21 + 0.13j, -0.17 + 0.29j
    for alpha in (0, 2, 3):
        v, _ = func_bracket(SQUARE, 5, alpha, alpha, x, y)
        assert abs(v) < 1e-9 * (1 + abs(v))


def test_func_bracket_symmetry_and_antisymmetry():
    x, y = 0.21 + 0.13j, -0.17 + 0.29j
    v_xy, _ = func_bracket(SKEW, 5, 2, 3, x, y)
    v_yx, _ = func_bracket(SKEW, 5, 2, 3, y, x)
    assert abs(v_xy - v_yx) < 1e-9 * (1 + abs(v_xy))  # symmetric in points
    w, _ = func_bracket(SKEW, 5, 3, 2, x, y)
    assert abs(v_xy + w) < 1e-9 * (1 + abs(v_xy))  # antisymmetric in entries


def test_func_bracket_closed_form_pair23():
    rng = Random(12)
    n = 5
    for L in LATTICES:
        (x, y), = sample_pairs(L, rng, 1)
        A, Ap, _ = weier_eval(L, x)
        B, Bp, _ = weier_eval(L, y)
        closed = ((n - 3) * (A * A * B + A * B * B) + (1 - n / 4) * Ap * Bp
                  + L.g2 / 4 * (A + B) + n / 4 * L.g3)
        direct, _ = func_bracket(L, n, 2, 3, x, y)
        assert abs(closed - direct) < 1e-9 * (1 + abs(direct))


def test_func_bracket_diagonal_limit():
    x = 0.23 + 0.19j
    v0, _ = func_bracket(SQUARE, 5, 0, 2, x, x)
    errors = []
    for eps in (1e-3, 1e-4):
        # x - y lies inside the default exclusion radius: evaluate directly
        y = x + eps
        values = [weier_eval(SQUARE, z, exclusion=1e-5) for z in (x, y, x - y)]
        table = _e_table(SQUARE, (0, 2), values[:2])
        v, _ = _func_bracket_core(5, values, table[0], table[2])
        errors.append(abs(v - v0) / (1 + abs(v0)))
    assert errors[1] < errors[0] / 5  # shrinks with the offset
    assert errors[1] < 1e-3


def test_func_bracket_diagonal_value():
    # diagonal of the (e0, e2) bracket: -(n-2) p'(x) = 2 (n-2) e3(x)
    x = 0.23 + 0.19j
    n = 7
    v, _ = func_bracket(SQUARE, n, 0, 2, x, x)
    expect = 2 * (n - 2) * e_func(SQUARE, 3, x)
    assert abs(v - expect) < 1e-9 * (1 + abs(v))


def test_func_bracket_near_singular():
    x = 0.21 + 0.13j
    with pytest.raises(NearSingularError):
        func_bracket(SQUARE, 5, 0, 2, x, x + 1e-9)


@pytest.mark.parametrize("two_point", [
    lambda L, x, y: func_bracket(L, 5, 0, 2, x, y),
    identity5_residual,
], ids=["func_bracket", "identity5_residual"])
def test_near_singular_difference_stops_before_x_and_y(two_point, weier_eval_points):
    # x - y within 0.05 r_min of the lattice, x and y clear of it: the
    # two-point functions raise before x or y reaches weier_eval
    x = 0.21 + 0.13j
    y = x + 0.03 - 0.02j
    with pytest.raises(NearSingularError, match=r"^x - y too close to the lattice$"):
        two_point(SQUARE, x, y)
    assert x not in weier_eval_points and y not in weier_eval_points


def test_two_point_errors_keep_their_order():
    near_pole = 0.001 + 0.002j  # within 0.05 r_min of the lattice point 0
    with pytest.raises(NearSingularError):  # x - y is tested first
        identity5_residual(SQUARE, near_pole, near_pole + 0.01j)
    with pytest.raises(PoleProximityError, match=r"^z = \(0\.001\+0\.002j\) is within"):
        identity5_residual(SQUARE, near_pole, 0.3 + 0.2j)
    with pytest.raises(PoleProximityError, match=r"^z = \(0\.001\+0\.002j\) is within"):
        identity5_residual(SQUARE, 0.3 + 0.2j, near_pole)


# -- symmetric evaluation ----------------------------------------------------

def test_sym_eval_constants():
    pts = [0.21 + 0.13j, -0.17 + 0.29j]
    got, _ = sym_eval(SQUARE, EPoly.monomial((0, 0)), {}, pts)
    assert abs(got - 2) < 1e-12


def test_sym_eval_difference_square():
    pts = [0.21 + 0.13j, -0.17 + 0.29j]
    P = EPoly.monomial((0, 4)) - EPoly.monomial((2, 2))
    got, _ = sym_eval(SQUARE, P, {}, pts)
    px = weier_eval(SQUARE, pts[0])[0]
    py = weier_eval(SQUARE, pts[1])[0]
    assert abs(got - (px - py) ** 2) < 1e-9 * (1 + abs(got))


def test_sym_eval_repeated_index_multiplicity():
    pts = [0.21 + 0.13j, -0.17 + 0.29j]
    got, _ = sym_eval(SQUARE, EPoly.monomial((2, 2)), {}, pts)
    px = weier_eval(SQUARE, pts[0])[0]
    py = weier_eval(SQUARE, pts[1])[0]
    assert abs(got - 2 * px * py) < 1e-10 * (1 + abs(got))


def test_sym_eval_degree_mismatch():
    with pytest.raises(ValueError):
        sym_eval(SQUARE, EPoly.gen(2), {}, [0.2 + 0.1j, 0.3 + 0.2j])


def test_sym_eval_mixed_degree():
    with pytest.raises(ValueError, match="needs a homogeneous element"):
        sym_eval(SQUARE, EPoly.gen(2) * EPoly.gen(3) + EPoly.gen(4), {}, [0.2 + 0.1j, 0.3 + 0.2j])


def test_sym_eval_matches_func_bracket():
    rng = Random(40)
    spec = BracketSpec.elliptic()
    for L in LATTICES:
        (x, y), = sample_pairs(L, rng, 1)
        for (alpha, beta) in ((0, 2), (2, 3), (3, 4), (0, 5)):
            br = generator_bracket(alpha, beta, spec, n_value=Fraction(5))
            lhs, _ = func_bracket(L, 5, alpha, beta, x, y)
            rhs, _ = sym_eval(L, br, numeric_params(L, 5), [x, y])
            assert abs(lhs - rhs) < 1e-6 * (1 + abs(lhs))


def test_verify_functional_acceptance_windows():
    for L in LATTICES:
        for n in (2, 3, 5, 8):
            window = [0] + list(range(2, min(8, n) + 1))
            rep = verify_functional(L, Fraction(n), window,
                                    SamplePlan(seed=42, count=20, tolerance=1e-6))
            assert rep.passed, rep.failures[:2]
            assert rep.max_residual < 1e-6


@pytest.mark.parametrize("sweep", [weierstrass_selftest, identity5_sweep])
def test_sweeps_read_the_plan_tolerance(sweep):
    plan = SamplePlan(seed=3, count=4, tolerance=1e-7)
    rep = sweep(SQUARE, plan)
    assert rep.parameters["tol"] == 1e-7
    assert sweep(SQUARE, plan, tol=1e-7).to_json() == rep.to_json()
    with pytest.raises(ValueError, match="differs from the plan's tolerance"):
        sweep(SQUARE, plan, tol=1e-9)


@pytest.mark.parametrize("L", [SQUARE, SKEW, HEX])
def test_identity5_failure_records_unchanged(L):
    # every pair fails at the smallest tolerance; the records must be those
    # of the loop that formatted the residual text for every pair
    plan = SamplePlan(seed=5, count=40, tolerance=5e-324)
    tally = Tally(plan.tolerance)
    for x, y in sample_pairs(L, Random(plan.seed), plan.count):
        vx, vy, vxy = weierstrass._two_point_values(L, x, y)
        r1, r2 = weierstrass._identity5_core(L, vx, vy, vxy)
        scale = 1 + max(abs(vx[0]), abs(vy[0])) ** 2 + max(abs(vx[1]), abs(vy[1]))
        tally.residual(max(r1, r2) / scale, "x={!r}, y={!r}", x, y,
                       text=f"r1={r1:.3e} r2={r2:.3e}")
    want = tally.report("identity5", {"omega1": repr(L.omega1), "omega2": repr(L.omega2),
                                      "samples": plan.count, "seed": plan.seed,
                                      "tol": plan.tolerance})
    got = identity5_sweep(L, plan)
    assert len(got.failures) == plan.count
    assert got.to_json() == want.to_json()


# -- evaluation counts ----------------------------------------------------------

def test_weier_eval_points_counts_every_binding(weier_eval_points):
    # a caller that reads weier_eval from another module, such as the
    # package re-export, is counted too
    import elliptic_poisson
    elliptic_poisson.weier_eval(SQUARE, 0.21 + 0.13j)
    weierstrass.weier_eval(SQUARE, 0.17 - 0.29j)
    assert weier_eval_points == [0.21 + 0.13j, 0.17 - 0.29j]


def test_identity5_sweep_evaluates_each_point_once(weier_eval_points):
    rep = identity5_sweep(SQUARE, SamplePlan(seed=3, count=25, tolerance=1e-8))
    assert rep.passed
    assert len(weier_eval_points) == 3 * 25  # x, y and x - y per pair


def test_verify_functional_matches_one_sym_eval_per_pair():
    # verify_functional evaluates each bracket once at all its pairs; the
    # report must be the one a call of the public sym_eval per pair gives.
    n = Fraction(5)
    window = IndexSet.fn(5).members()
    plan = SamplePlan(seed=9, count=20, tolerance=1e-6)
    pairs = sample_pairs(SQUARE, Random(plan.seed), plan.count, diagonal_every=5)
    params = numeric_params(SQUARE, n)
    spec = BracketSpec.elliptic()
    tally = Tally(plan.tolerance)
    for i, alpha in enumerate(window):
        for beta in window[i:]:
            br = generator_bracket(alpha, beta, spec, n_value=n)
            for x, y in pairs:
                lhs, lhs_scale = func_bracket(SQUARE, n, alpha, beta, x, y)
                rhs, rhs_scale = sym_eval(SQUARE, br, params, [x, y]) if br else (0j, 1.0)
                tally.residual(abs(lhs - rhs) / max(lhs_scale, rhs_scale),
                               "pair=({},{}) x={!r} y={!r}", alpha, beta, x, y)
    want = tally.report("functional-n5", {
        "n": "5", "window": window, "samples": plan.count, "seed": plan.seed,
        "tol": plan.tolerance, "omega1": repr(SQUARE.omega1),
        "omega2": repr(SQUARE.omega2)})
    got = verify_functional(SQUARE, n, window, plan)
    assert got.to_json() == want.to_json()


def test_verify_functional_takes_n_exactly():
    # a float n is the rational it holds: the symbolic bracket is built at
    # Fraction(5.0) == 5, not kept formal and evaluated at the float
    plan = SamplePlan(seed=9, count=10, tolerance=1e-6)
    window = IndexSet.fn(6).members()
    at_float = verify_functional(SKEW, 5.0, window, plan)
    exact = verify_functional(SKEW, Fraction(5), window, plan)
    assert at_float.max_residual == exact.max_residual
    assert at_float.failures == exact.failures and exact.passed


def test_verify_functional_evaluations_do_not_grow_with_pairs(weier_eval_points):
    plan = SamplePlan(seed=4, count=10, tolerance=1e-6)
    counts = []
    for window in ([0, 2], [0, 2, 3, 4, 5, 6]):  # 3 and 21 generator pairs
        weier_eval_points.clear()
        assert verify_functional(SQUARE, Fraction(6), window, plan).passed
        counts.append(len(weier_eval_points))
    # every fifth pair is diagonal and needs only x
    assert counts == [3 * 8 + 2] * 2


def test_verify_functional_evaluates_each_generator_once_per_point(monkeypatch):
    calls = []
    real = weierstrass._e_from_values

    def counting(L, alpha, p, dp):
        calls.append(alpha)
        return real(L, alpha, p, dp)

    monkeypatch.setattr(weierstrass, "_e_from_values", counting)
    window = [0, 2, 3, 4, 5, 6]  # 21 generator pairs
    plan = SamplePlan(seed=4, count=10, tolerance=1e-6)
    assert verify_functional(SQUARE, Fraction(6), window, plan).passed
    # every fifth pair is diagonal and needs only x: 8 * 2 + 2 points
    assert Counter(calls) == {alpha: 18 for alpha in window}
