"""The numeric layer against the plain algorithms it replaced: Ryser's
formula run once per monomial for ``sym_eval``, the unmemoized Laplace
expansion for the leaf determinant, and Weierstrass evaluation that
computes every per-lattice constant on each call.  The library paths
perform the same floating-point operations in the same order, so results
must be equal to the last bit, not merely close."""

import cmath
import math
import sys
import threading
from dataclasses import fields, replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import elliptic_poisson.weierstrass as weierstrass
from elliptic_poisson.casimirs import _det, casimirs
from elliptic_poisson.leaves import LeafConfig, LeafSample, _collision_patterns, draw_leaf_sample
from elliptic_poisson.poly import EPoly, ParamPoly
from elliptic_poisson.weierstrass import (
    _SERIES_FRACTION,
    DEFAULT_EXCLUSION,
    Lattice,
    PoleProximityError,
    SamplePlan,
    _PointSet,
    _cell_coordinates,
    _eval_reduced,
    _near,
    _near_reduced,
    _reduce,
    _series_eval,
    _sym_eval_core,
    identity5_residual,
    identity5_sweep,
    lattice_distance,
    lattice_init,
    numeric_params,
    sample_pairs,
    sample_points,
    sym_eval,
    weier_eval,
    weierstrass_selftest,
)

SQUARE = lattice_init(1, 1j)
SKEW = lattice_init(1, 0.3 + 1.1j)
HEX = lattice_init(1, cmath.exp(1j * math.pi / 3))
# The certifying lattices of test_weierstrass.py and the five period
# ratios of the benchmark's numeric sweep.
TABLE_LATTICES = (SQUARE, SKEW, HEX) + tuple(
    lattice_init(1, tau) for tau in (2j, 0.5 + 0.9j, -0.4 + 1.2j))


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0


# -- reference implementations ----------------------------------------------

def ref_e_value(alpha, p, dp):
    a, odd = (alpha // 2, False) if alpha % 2 == 0 else ((alpha - 3) // 2, True)
    value = p ** a
    if odd:
        value *= -dp / 2
    return value


def ref_e_func(L, alpha, z, exclusion=DEFAULT_EXCLUSION):
    p, dp, _ = weier_eval(L, z, exclusion)
    return ref_e_value(alpha, p, dp)


def ref_permanent(rows):
    """Ryser's formula with the column sums rebuilt for every subset."""
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


def ref_sym_eval(L, P, params, points):
    """sym_eval with one permanent per monomial, evaluated point by point
    for every generator; returns (value, scale)."""
    return ref_sym_eval_values(P, params, [weier_eval(L, z) for z in points])


def ref_sym_eval_values(P, params, point_values):
    """ref_sym_eval from the (p, p', zeta) values at the points."""
    if not P:
        return 0j, 1.0
    values = {alpha: [ref_e_value(alpha, p, dp) for p, dp, _ in point_values]
              for alpha in sorted(P.support())}
    total = 0j
    peak = 0.0
    for mono, c in P.coefficient_values(params):
        perm, perm_peak = ref_permanent([values[a] for a in mono])
        total += c * perm
        peak = max(peak, abs(c) * perm_peak)
    return total, 1.0 + peak


def ref_det(matrix):
    """Laplace expansion along the first row, skipping zero entries."""
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
        cofactor = matrix[0][j] * ref_det(minor)
        total += cofactor if j % 2 == 0 else -cofactor
    return total


def ref_cell_coordinates(L, z):
    a = (z * L.omega2.conjugate()).imag / (L.omega1 * L.omega2.conjugate()).imag
    b = (z * L.omega1.conjugate()).imag / (L.omega2 * L.omega1.conjugate()).imag
    return a, b


def ref_reduce(L, z):
    a, b = ref_cell_coordinates(L, z)
    m = round(a)
    k = round(b)
    return z - m * L.omega1 - k * L.omega2, m, k


def ref_lattice_distance(L, z):
    z0, _, _ = ref_reduce(L, z)
    best = abs(z0)
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            if m or k:
                best = min(best, abs(z0 - m * L.omega1 - k * L.omega2))
    return best


def ref_series_eval(L, z):
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


def ref_eval_reduced(L, z):
    if abs(z) <= _SERIES_FRACTION * L.r_min:
        return ref_series_eval(L, z)
    p1, dp1, zt1 = ref_eval_reduced(L, z / 2)
    ddp1 = 6 * p1 * p1 - L.g2 / 2
    lam = ddp1 / dp1
    p2 = lam * lam / 4 - 2 * p1
    dp2 = -(dp1 + lam * (p2 - p1))
    zt2 = 2 * zt1 + lam / 2
    return p2, dp2, zt2


def ref_weier_eval(L, z, exclusion=DEFAULT_EXCLUSION):
    z0, m, k = ref_reduce(L, z)
    if ref_lattice_distance(L, z) < exclusion * L.r_min:
        raise PoleProximityError(f"z = {z} is within {exclusion} * r_min of a lattice point")
    p, dp, zt = ref_eval_reduced(L, z0)
    return p, dp, zt + m * L.eta1 + k * L.eta2


# -- Weierstrass evaluation from the lattice tables -----------------------------

lattices = st.sampled_from(TABLE_LATTICES)
# Cell coordinates, the cell edges +-0.5 among them, shifted by lattice vectors.
cell_coords = st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-0.5, 0.5]))
shifts = st.integers(-2, 2)
exclusions = st.sampled_from([DEFAULT_EXCLUSION, 0.01, 0.2])


def assert_same_eval(L, z, exclusion):
    """weier_eval and the per-call constants give the same values, or the
    same PoleProximityError."""
    try:
        want = ref_weier_eval(L, z, exclusion)
    except PoleProximityError as exc:
        with pytest.raises(PoleProximityError) as got:
            weier_eval(L, z, exclusion)
        assert str(got.value) == str(exc)
        return False
    assert repr(weier_eval(L, z, exclusion)) == repr(want)
    return True


@settings(max_examples=300, deadline=None)
@given(lattices, cell_coords, cell_coords, shifts, shifts, exclusions)
def test_weier_eval_matches_per_call_constants(L, a, b, m, k, exclusion):
    z = a * L.omega1 + b * L.omega2 + m * L.omega1 + k * L.omega2
    assert repr(_cell_coordinates(L, z)) == repr(ref_cell_coordinates(L, z))
    assert repr(_reduce(L, z)) == repr(ref_reduce(L, z))
    assert repr(lattice_distance(L, z)) == repr(ref_lattice_distance(L, z))
    if assert_same_eval(L, z, exclusion):
        z0 = _reduce(L, z)[0]
        assert repr(_eval_reduced(L, z0)) == repr(ref_eval_reduced(L, z0))


@settings(max_examples=300, deadline=None)
@given(lattices, st.floats(0, 0.12), st.floats(0, 2 * math.pi), shifts, shifts,
       exclusions)
def test_weier_eval_near_lattice_points(L, r, theta, m, k, exclusion):
    # Inside the exclusion radius both raise; just outside both evaluate.
    z = m * L.omega1 + k * L.omega2 + r * L.r_min * cmath.exp(1j * theta)
    assert repr(lattice_distance(L, z)) == repr(ref_lattice_distance(L, z))
    assert_same_eval(L, z, exclusion)


@settings(max_examples=200, deadline=None)
@given(lattices, st.floats(1e-3, 1), st.floats(0, 2 * math.pi))
def test_series_eval_matches_per_call_constants(L, r, theta):
    z = r * _SERIES_FRACTION * L.r_min * cmath.exp(1j * theta)
    assert repr(_series_eval(L, z)) == repr(ref_series_eval(L, z))


def test_lattice_tables_ignored_by_eq_hash_repr():
    tables = [f.name for f in fields(SKEW) if not f.init]
    assert tables == ["_cell", "_neighbours", "_horner", "_series_radius", "_half_g2",
                      "_guard", "_tails", "_points"]
    twin = lattice_init(1, 0.3 + 1.1j)
    for name in tables:
        object.__setattr__(twin, name, None)
    assert twin == SKEW
    assert hash(twin) == hash(SKEW)
    assert repr(twin) == repr(SKEW)
    assert all(name not in repr(SKEW) for name in tables)
    # a lattice whose tails memo holds a w and whose point memo holds points
    # compares, hashes and prints as a fresh one whose memos are empty
    fresh = replace(SKEW)
    weier_eval(SKEW, 0.1 + 0.2j)
    assert fresh._tails != SKEW._tails
    assert not fresh._points and 0.1 + 0.2j in SKEW._points
    assert fresh == SKEW
    assert hash(fresh) == hash(SKEW)
    assert repr(fresh) == repr(SKEW)


# -- the Laurent tails memo ------------------------------------------------------

def assert_same_as_reference(L, points):
    """weier_eval at each point in turn, on one lattice whose tails memo
    carries over from point to point, equals ref_weier_eval by ``repr``;
    returns how many calls reused the tails."""
    reused = 0
    for z in points:
        memo = L._tails[0]
        assert repr(weier_eval(L, z)) == repr(ref_weier_eval(L, z)), z
        reused += L._tails[0] is memo and memo[1] != ()
    return reused


@pytest.mark.parametrize("L", TABLE_LATTICES, ids=lambda L: repr(L.omega2))
def test_tails_reuse_matches_reference(L):
    # weierstrass_selftest's order: -z always squares to the bits of w,
    # and z + omega often reduces back to z
    points = sample_points(L, Random(20241020), 2000)
    order = [u for z in points for u in (z, -z, z + L.omega1, z + L.omega2, z)]
    assert assert_same_as_reference(L, order) >= len(points)


def signed_zero_twins(z):
    """z, then z with each zero part negated in turn, then -z."""
    twins = [z]
    if z.real == 0:
        twins.append(complex(-z.real, z.imag))
    if z.imag == 0:
        twins.append(complex(z.real, -z.imag))
    return twins + [-z]


# SQUARE's record with its Laurent coefficients conjugated: the same real
# values, with imaginary parts -0.0.  There the tails at w = -t^2 + 0j and
# -t^2 - 0j differ in the sign of a zero that reaches p: after 0.3j,
# reusing the tails at complex(-0.0, 0.3) gives p = -11.98...+0j, not -0j.
# No lattice from lattice_init tried so far has such tails.
CONJUGATE_SQUARE = replace(SQUARE, laurent_c=tuple(c.conjugate() for c in SQUARE.laurent_c))


@pytest.mark.parametrize("L", [*(pytest.param(L, id=repr(L.omega2)) for L in TABLE_LATTICES),
                               pytest.param(CONJUGATE_SQUARE, id="conjugate-square")])
def test_tails_reuse_tells_signed_zeros_apart(L):
    # on an axis w = z*z has a zero part, so w == w_last does not mean the
    # same bits; on the diagonal its real part is +0.0
    for t in (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, -0.3):
        for z in (complex(t, 0.0), complex(0.0, t), complex(t, t)):
            assert_same_as_reference(L, signed_zero_twins(z * L.r_min))


def assert_threads_agree(L, points, repeats, exclusion):
    """Four threads sharing L, each evaluating ``points`` ``repeats`` times in
    order with a 1 us switch interval, all get the reference values."""
    want = [repr(ref_weier_eval(L, u, exclusion)) for u in points] * repeats
    points = points * repeats
    got = [None] * 4

    def run(i):
        got[i] = [repr(weier_eval(L, u, exclusion)) for u in points]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * len(got)


def test_tails_memo_shared_between_threads():
    # one item store replaces the memo's (w, sums) tuple, so threads that
    # share a lattice never pair one w with another's sums; the threads
    # evaluate the same points in the same order, so their w meet (a memo
    # that stored w before its sums failed here).  The radius is not the
    # default one, so the point memo serves none of the repeats.
    L = replace(SKEW)
    points = [u for z in sample_points(L, Random(3), 100) for u in (z, -z)]
    assert_threads_agree(L, points, 50, 0.01)


def test_tails_memo_is_per_lattice():
    # two lattices in alternation at the same points each match their own
    # reference: a memo shared by lattices would hand one the other's tails
    rng = Random(7)
    points = [cmath.rect(rng.uniform(0.06, 0.45), rng.uniform(0, 2 * math.pi))
              for _ in range(200)]
    pair = (SQUARE, HEX)
    for z in points:
        for u in (z, -z):
            for L in pair:
                assert repr(weier_eval(L, u)) == repr(ref_weier_eval(L, u))


# -- the point memo --------------------------------------------------------------

@pytest.mark.parametrize("L", TABLE_LATTICES, ids=lambda L: repr(L.omega2))
def test_point_memo_keeps_sweep_reports(L):
    # the benchmark's sweep task: identity5_sweep after weierstrass_selftest
    # on one lattice reads most of its points from the memo, and both reports
    # are those of runs on fresh lattices
    L = replace(L)
    selftest = SamplePlan(20240915, 1000, tolerance=1e-9)
    identity5 = SamplePlan(20240915, 1000, tolerance=1e-8)
    shared = [weierstrass_selftest(L, selftest).to_json()]
    pairs = sample_pairs(L, Random(identity5.seed), identity5.count)
    assert sum(u in L._points for pair in pairs for u in pair) >= 990
    assert all(_reduce(L, u)[1:] == (0, 0) for u in L._points)  # cell points only
    shared.append(identity5_sweep(L, identity5).to_json())
    alone = [weierstrass_selftest(replace(L), selftest).to_json(),
             identity5_sweep(replace(L), identity5).to_json()]
    assert shared == alone


@pytest.mark.parametrize("L", [*(pytest.param(L, id=repr(L.omega2)) for L in TABLE_LATTICES),
                               pytest.param(CONJUGATE_SQUARE, id="conjugate-square")])
def test_point_memo_tells_signed_zeros_apart(L):
    # complex(t, 0.0) == complex(t, -0.0), and they hash alike; a point with
    # a zero part is never kept, so each twin gets its own values
    L = replace(L)
    for t in (0.1, 0.3, -0.3):
        for z in (complex(t, 0.0), complex(0.0, t), complex(t, t)):
            for u in signed_zero_twins(z * L.r_min) * 2:
                assert repr(weier_eval(L, u)) == repr(ref_weier_eval(L, u)), u
    assert all(u.real and u.imag for u in L._points)


def test_point_memo_keeps_each_radius_verdict():
    # a point admitted at a smaller radius still raises at the default one,
    # and a point kept at the default radius still raises at a larger one
    L = replace(SKEW)
    for theta in (0.4, 2.0, 4.1):
        inner = cmath.rect(0.03 * L.r_min, theta)
        assert repr(weier_eval(L, inner, 0.01)) == repr(ref_weier_eval(L, inner, 0.01))
        with pytest.raises(PoleProximityError):
            weier_eval(L, inner)
        outer = cmath.rect(0.1 * L.r_min, theta)
        assert repr(weier_eval(L, outer)) == repr(ref_weier_eval(L, outer))
        assert outer in L._points and inner not in L._points
        with pytest.raises(PoleProximityError):
            weier_eval(L, outer, 0.2)
        assert repr(weier_eval(L, outer, 0.01)) == repr(ref_weier_eval(L, outer, 0.01))


def test_point_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(weierstrass, "_POINT_MEMO_SIZE", 8)
    L = replace(HEX)
    points = sample_points(L, Random(11), 30)
    # each point again at once, after a few others, and after a clear
    order = [u for i, z in enumerate(points) for u in (z, -z, points[i // 2], z)]
    sizes = set()
    for u in order:
        assert repr(weier_eval(L, u)) == repr(ref_weier_eval(L, u)), u
        assert len(L._points) <= 8
        sizes.add(len(L._points))
    assert sizes == set(range(1, 9))


def test_point_memo_shared_between_threads(monkeypatch):
    # threads on one lattice store, read and clear one memo (cap 16 so the
    # clears come often); each value is stored whole, so every thread gets
    # the reference values
    monkeypatch.setattr(weierstrass, "_POINT_MEMO_SIZE", 16)
    L = replace(SKEW)
    points = [u for z in sample_points(L, Random(5), 40) for u in (z, -z, z)]
    assert_threads_agree(L, points, 20, DEFAULT_EXCLUSION)


# -- the exclusion guard ---------------------------------------------------------

def raw_lattice(omega1, omega2):
    """An uncertified ``Lattice`` record with lattice_init's r_min rule; the
    guard reads only the periods and r_min, so the rest are placeholders."""
    omega1, omega2 = complex(omega1), complex(omega2)
    r_min = min(abs(m * omega1 + k * omega2)
                for m in range(-3, 4) for k in range(-3, 4) if m or k)
    return Lattice(omega1, omega2, 0j, 0j, (0j, 0j, 0j), 0j, 0j, r_min)


# Skinny period ratios that fail certification: the reduced points reach
# far past r_min, so the guard falls back to the scan.
SKINNY_LATTICES = tuple(raw_lattice(1, tau) for tau in (5j, 8j, 0.5 + 0.05j, 0.49 + 0.02j))
# The same shapes turned and scaled, so that neighbour differences round.
TURNED_LATTICES = tuple(raw_lattice(c * L.omega1, c * L.omega2)
                        for c in (cmath.rect(0.7, 1.0), cmath.exp(0.25j))
                        for L in TABLE_LATTICES + SKINNY_LATTICES)
# A short neighbour between two long periods: its differences round at the
# scale of the periods, far above r_min, which a slack scaled by the radius
# does not cover.
NEEDLE_LATTICES = tuple(raw_lattice(c, c * tau) for c, tau in (
    (cmath.rect(0.7, 1.0), 1 + 0.001j), (cmath.rect(1.9, -2.0), 1 + 0.0001j)))
GUARD_LATTICES = TABLE_LATTICES + SKINNY_LATTICES + TURNED_LATTICES + NEEDLE_LATTICES
GUARD_EXCLUSIONS = (1e-12, 0.01, 0.05, 0.2, 0.5)


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same_guard(L, z, radius):
    """_near agrees with the scan, result or exception, both on z and on
    the reduced point, and so does _near_reduced on the reduced point, as
    weier_eval calls it."""
    want = outcome(lambda: ref_lattice_distance(L, z) < radius)
    assert outcome(_near, L, z, radius) == want
    reduced = outcome(_reduce, L, z)
    if isinstance(reduced[0], complex):
        z0 = reduced[0]
        assert outcome(_near_reduced, L, z0, radius) == want
        assert outcome(_near, L, z0, radius) == outcome(
            lambda: ref_lattice_distance(L, z0) < radius)


def ulps(x, count):
    """x and the ``count`` floats on either side of it."""
    out = [x]
    down = up = x
    for _ in range(count):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return out


@pytest.mark.parametrize("L", GUARD_LATTICES, ids=lambda L: f"{L.omega1:.3g}:{L.omega2 / L.omega1:.4g}")
def test_guard_matches_scan_at_its_bounds(L):
    half_height, clear = L._guard
    for exclusion in GUARD_EXCLUSIONS:
        radius = exclusion * L.r_min
        for mo, ko in L._neighbours:
            v = mo + ko
            for x in ulps(v.real / 2, 2):
                for y in ulps(v.imag / 2, 2):
                    assert_same_guard(L, complex(x, y), radius)
            # along each neighbour direction, the moduli where a decision
            # changes: the radius, the clear bound, r_min - radius (the
            # clear bound without slack) and half the cell height
            unit = v / abs(v)
            for bound in (radius, clear - radius, L.r_min - radius, half_height):
                for t in ulps(bound, 2):
                    for shift in (0, v, L.omega1 - 2 * L.omega2):
                        assert_same_guard(L, t * unit + shift, radius)
        for bad in (complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
                    complex(-math.inf, math.inf), complex(math.inf, math.nan)):
            assert_same_guard(L, bad, radius)
    # The clear bound is tight only where the radius is r_min / 2 or just
    # under it: at the midpoint of a shortest neighbour, r_min / 2 from both
    # ends.  Nudged sideways, the midpoint's differences round either way.
    step = math.ulp(abs(L.omega1) + abs(L.omega2)) / 16
    for k in (0, 1, 3, 10, 30, 100, 300):
        radius = L.r_min / 2 - k * math.ulp(L.r_min)
        for mo, ko in L._neighbours:
            v = mo + ko
            if abs(v) < 1.5 * L.r_min:
                across = 1j * v / abs(v)
                for j in range(-30, 31):
                    assert_same_guard(L, v / 2 + j * step * across, radius)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GUARD_LATTICES), cell_coords, cell_coords, shifts, shifts,
       st.sampled_from(GUARD_EXCLUSIONS))
def test_guard_matches_scan(L, a, b, m, k, exclusion):
    assert_same_guard(L, (a + m) * L.omega1 + (b + k) * L.omega2, exclusion * L.r_min)


@pytest.mark.parametrize("L, scans", [(SQUARE, False), (SKINNY_LATTICES[1], True)])
def test_guard_scans_only_between_its_bounds(monkeypatch, L, scans):
    # in the square cell every point and difference is decided by its
    # modulus; the 1 x 8 cell reaches far past r_min, where the scan decides
    calls = []
    real = weierstrass._nearest
    monkeypatch.setattr(weierstrass, "_nearest",
                        lambda *args: calls.append(args) or real(*args))
    assert len(sample_points(L, Random(0), 100, pairwise_distinct=True)) == 100
    assert bool(calls) == scans


def test_sampling_reduces_only_past_half_the_cell_height(monkeypatch):
    # a candidate under half the smaller cell height is its own reduced
    # point, so the guard decides it without reducing it
    L = lattice_init(1, 1j)
    reduced = []
    real = weierstrass._reduce
    monkeypatch.setattr(weierstrass, "_reduce",
                        lambda L, z: reduced.append(z) or real(L, z))
    half_height = L._guard[0]
    assert len(sample_points(L, Random(0), 100)) == 100
    assert reduced and all(abs(z) >= half_height for z in reduced)


def test_each_point_is_reduced_and_guarded_once(monkeypatch):
    # weier_eval reduces a point at most once and guards it at most once: a
    # cell point under half the smaller cell height is its own reduced point
    # and is not reduced, a point past that bound is reduced and guarded
    # once, and a point that reduces to the bits of a kept one reads the
    # point memo, so it is neither guarded nor evaluated; the two-point
    # functions leave the guard of x - y to weier_eval
    L = lattice_init(1, 1j)  # a point memo that holds none of these points
    reduced, guarded, evaluated = [], [], []
    real_reduce, real_guard = weierstrass._reduce, weierstrass._near_reduced
    real_eval = weierstrass._eval_reduced
    monkeypatch.setattr(weierstrass, "_reduce",
                        lambda L, z: reduced.append(z) or real_reduce(L, z))
    monkeypatch.setattr(weierstrass, "_near_reduced",
                        lambda L, z, r: guarded.append(z) or real_guard(L, z, r))
    monkeypatch.setattr(weierstrass, "_eval_reduced",
                        lambda L, z: evaluated.append(z) or real_eval(L, z))

    def calls(z):
        for spy in (reduced, guarded, evaluated):
            spy.clear()
        values = weier_eval(L, z)
        assert repr(values) == repr(ref_weier_eval(L, z))
        return reduced[:], guarded[:], bool(evaluated)

    inner = 0.25 + 0.375j  # dyadic: z + 1 and z + 1j reduce to its bits
    assert abs(inner) < L._guard[0]
    assert calls(inner) == ([], [inner], True)
    outer = 0.45 + 0.4j
    assert abs(outer) >= L._guard[0]
    assert calls(outer) == ([outer], [outer], True)
    shifted = outer + 1 - 2j  # reduces near outer, not to its bits
    assert real_reduce(L, shifted)[0] != outer
    assert calls(shifted) == ([shifted], [real_reduce(L, shifted)[0]], True)
    for u in (inner + 1, inner + 1j, inner - 2 + 1j):
        assert real_reduce(L, u)[0] == inner
        assert calls(u) == ([u], [], False)
    x, y = 0.25 + 0.3j, -0.2 - 0.15j
    for spy in (reduced, guarded):
        spy.clear()
    identity5_residual(L, x, y)
    assert abs(x - y) >= L._guard[0] > max(abs(x), abs(y))
    assert reduced == [x - y]
    assert guarded == [x - y, x, y]
    assert calls(outer) == ([], [], False)  # a repeated cell point reads the point memo


# Cell coordinates that are also multiples of 1/64: on rectangular lattices
# a shift by periods then reduces back to the bits of the point.
memo_coords = st.one_of(cell_coords, st.integers(-32, 32).map(lambda i: i / 64))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GUARD_LATTICES), memo_coords, memo_coords, shifts, shifts,
       st.sampled_from(GUARD_EXCLUSIONS))
def test_shifted_point_matches_a_fresh_lattice(L, a, b, m, k, exclusion):
    # z + m omega1 + k omega2 on a lattice whose point memo holds z gives
    # what a lattice with empty memos gives, values or error, at every
    # radius: a point that reduces to z's bits reads z's kept values and
    # adds its own eta shift, and only at the default radius
    L = replace(L)
    z = a * L.omega1 + b * L.omega2
    outcome(weier_eval, L, z)
    u = z + m * L.omega1 + k * L.omega2
    assert repr(outcome(weier_eval, L, u, exclusion)) == repr(
        outcome(weier_eval, replace(L), u, exclusion))


@pytest.mark.parametrize("L", TABLE_LATTICES, ids=lambda L: repr(L.omega2))
def test_shifted_points_read_the_point_memo(L, monkeypatch):
    # the self-test's rows z + omega1 and z + omega2 and further shifts:
    # those that reduce to the bits of a kept z are served from the memo
    # with their own shift, and equal the reference by repr
    L = replace(L)
    guarded = []
    real_guard = weierstrass._near_reduced
    monkeypatch.setattr(weierstrass, "_near_reduced",
                        lambda L, z, r: guarded.append(z) or real_guard(L, z, r))
    served = 0
    for z in sample_points(replace(L), Random(20241021), 300):
        weier_eval(L, z)
        for m, k in ((1, 0), (0, 1), (-1, 2), (2, -2)):
            u = z + m * L.omega1 + k * L.omega2
            guarded.clear()
            assert repr(weier_eval(L, u)) == repr(ref_weier_eval(L, u)), u
            hit = z in L._points and _reduce(L, u)[0] == z
            assert guarded == ([] if hit else [_reduce(L, u)[0]])
            served += hit
    assert served >= 20


def test_point_with_a_zero_part_is_reduced():
    # on this lattice 0*omega1 has parts -0.0, so z - 0*omega1 - 0*omega2
    # turns a -0.0 part of z into +0.0: only a point with both parts nonzero
    # may skip the reduction under half the smaller cell height
    L = lattice_init(-1, -1j)
    for t in (0.1, 0.3, -0.3):
        for z in (complex(t, 0.0), complex(0.0, t), complex(t, t)):
            for u in signed_zero_twins(z):
                for exclusion in (DEFAULT_EXCLUSION, 0.01):
                    assert repr(weier_eval(L, u, exclusion)) == repr(
                        ref_weier_eval(L, u, exclusion)), (u, exclusion)


# -- the sampling stream, as the scan decided it -----------------------------------

def ref_sample_points(L, rng, count, pairwise_distinct=False):
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10000 * count:
            raise RuntimeError("sampling failed: too few admissible points in the cell")
        z = rng.uniform(-0.5, 0.5) * L.omega1 + rng.uniform(-0.5, 0.5) * L.omega2
        if ref_lattice_distance(L, z) < DEFAULT_EXCLUSION * L.r_min:
            continue
        if pairwise_distinct and any(
            ref_lattice_distance(L, z - w) < DEFAULT_EXCLUSION * L.r_min for w in out
        ):
            continue
        out.append(z)
    return out


def ref_sample_pairs(L, rng, count, diagonal_every=0):
    out = []
    while len(out) < count:
        if diagonal_every and (len(out) + 1) % diagonal_every == 0:
            x = ref_sample_points(L, rng, 1)[0]
            out.append((x, x))
            continue
        x, y = ref_sample_points(L, rng, 2, pairwise_distinct=True)
        out.append((x, y))
    return out


def ref_draw_leaf_sample(L, p, rng):
    u = ref_sample_points(L, rng, p, pairwise_distinct=True)
    psi = []
    for _ in range(p):
        radius = rng.uniform(0.5, 1.5)
        angle = rng.uniform(0.0, 2 * math.pi)
        psi.append(radius * complex(math.cos(angle), math.sin(angle)))
    return LeafSample(u=tuple(u), psi=tuple(psi))


@pytest.mark.parametrize("L", TABLE_LATTICES, ids=lambda L: repr(L.omega2))
def test_sampling_stream_unchanged(L):
    def same(draw, ref):
        got_rng, want_rng = Random(seed), Random(seed)
        assert draw(got_rng) == ref(want_rng)
        assert got_rng.getstate() == want_rng.getstate()

    for seed in range(10):
        for distinct in (False, True):
            same(lambda rng: sample_points(L, rng, 12, distinct),
                 lambda rng: ref_sample_points(L, rng, 12, distinct))
        for every in (0, 3, 5):
            same(lambda rng: sample_pairs(L, rng, 10, every),
                 lambda rng: ref_sample_pairs(L, rng, 10, every))
        cfg = LeafConfig(p=4, n_value=Fraction(9), lattice=L)
        same(lambda rng: draw_leaf_sample(cfg, rng),
             lambda rng: ref_draw_leaf_sample(L, 4, rng))


# -- the leaf determinant -------------------------------------------------------

def random_matrix(rows, cols, seed, zero_share):
    """Entries with full-width mantissas, so any change in the order of the
    operations shows in the last bits; a share of them exact zeros."""
    rng = Random(seed)
    return [[0j if rng.random() < zero_share
             else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
             for _ in range(cols)] for _ in range(rows)]


seeds = st.integers(0, 2 ** 32)
zero_shares = st.sampled_from([0.0, 0.2, 0.5, 0.8])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), seeds, zero_shares)
def test_det_matches_plain_expansion(size, seed, zero_share):
    matrix = random_matrix(size, size, seed, zero_share)
    assert_same(_det(matrix, 0j), ref_det(matrix))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), seeds, zero_shares)
def test_det_matches_on_leaf_block_shape(p, seed, zero_share):
    # [[0, M], [-M^T, W]] with a zero diagonal in W, as nondegeneracy_check builds
    M = random_matrix(p, p, seed, zero_share)
    W = random_matrix(p, p, seed + 1, zero_share)
    full = [[0j] * (2 * p) for _ in range(2 * p)]
    for a in range(p):
        for b in range(p):
            full[a][p + b] = M[a][b]
            full[p + a][b] = -M[b][a]
            full[p + a][p + b] = W[a][b] if a != b else 0j
    assert_same(_det(full, 0j), ref_det(full))


# -- symmetric evaluation -------------------------------------------------------

def test_sym_eval_casimir_n7_on_every_collision_pattern():
    C = casimirs(7).elements[0]
    params = numeric_params(SQUARE, Fraction(7))
    base = sample_points(SQUARE, Random(7), 3, pairwise_distinct=True)
    for pattern in _collision_patterns(7, 3):
        points = [z for z, mult in zip(base, pattern) for _ in range(mult)]
        assert_same(sym_eval(SQUARE, C, params, points),
                    ref_sym_eval(SQUARE, C, params, points))


coefficients = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
    st.sampled_from([ParamPoly.symbol("n"), ParamPoly.symbol("g2"),
                     ParamPoly.symbol("g3") * 3 - 1]))


# A homogeneous element of degree m and, per point, which of m distinct
# points it takes (repeats are collisions, adjacent or not).
elements_and_picks = st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.dictionaries(st.lists(st.integers(-2, 9), min_size=m, max_size=m)
                    .map(lambda mono: tuple(sorted(mono))),
                    coefficients, max_size=6),
    st.lists(st.integers(0, m - 1) if m else st.just(0), min_size=m, max_size=m)))


@settings(max_examples=80, deadline=None)
@given(elements_and_picks, st.integers(0, 2 ** 16), st.sampled_from([SQUARE, SKEW]))
def test_sym_eval_matches_per_monomial_ryser(element, seed, L):
    terms, picks = element
    P = EPoly({mono: c for mono, c in terms.items()})
    # Points drawn distinct, then some of them repeated (collisions).
    distinct = sample_points(L, Random(seed), len(picks), pairwise_distinct=True)
    points = [distinct[i] for i in picks]
    params = numeric_params(L, Fraction(5))
    assert_same(sym_eval(L, P, params, points),
                ref_sym_eval(L, P, params, points))


@settings(max_examples=60, deadline=None)
@given(elements_and_picks, st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4),
       st.sampled_from([SQUARE, SKEW]))
def test_sym_eval_batch_matches_per_set_ryser(element, seeds, L):
    # One kernel call on several point sets; a point taken twice is one
    # value object, as sym_eval passes it.
    terms, picks = element
    P = EPoly({mono: c for mono, c in terms.items()})
    params = numeric_params(L, Fraction(5))
    value_sets = []
    for seed in seeds:
        distinct = sample_points(L, Random(seed), len(picks), pairwise_distinct=True)
        values = [weier_eval(L, z) for z in distinct]
        value_sets.append([values[i] for i in picks])
    sets = [_PointSet(values) for values in value_sets]
    got = _sym_eval_core(P, params, sets)
    assert len(got) == len(sets)
    for result, values in zip(got, value_sets):
        assert_same(result, ref_sym_eval_values(P, params, values))
    # the columns the sets now hold serve the next element unchanged
    twice = P * 2
    for result, values in zip(_sym_eval_core(twice, params, sets), value_sets):
        assert_same(result, ref_sym_eval_values(twice, params, values))


def spread_coefficients(monos, ascending):
    """Coefficients 10^-12 .. 10^12 along the canonical monomial order."""
    steps = max(len(monos) - 1, 1)
    exponents = [round(-12 + 24 * i / steps) for i in range(len(monos))]
    if not ascending:
        exponents.reverse()
    return {mono: Fraction(10) ** e for mono, e in zip(sorted(monos), exponents)}


def test_sym_eval_peak_bound_takes_both_branches(monkeypatch):
    # The magnitudes of a monomial's products are taken only when its bound
    # could raise the peak.  Coefficients falling along the walk let the
    # bound skip; rising ones make every monomial take them.
    full = []
    real = weierstrass._magnitude
    monkeypatch.setattr(weierstrass, "_magnitude",
                        lambda prods: full.append(1) or real(prods))
    walked = []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.sets(
               st.lists(st.integers(-2, 9), min_size=m, max_size=m)
               .map(lambda mono: tuple(sorted(mono))), min_size=2, max_size=10)),
           st.booleans(), st.booleans(), st.integers(0, 2 ** 16),
           st.sampled_from([SQUARE, SKEW]))
    def sweep(monos, ascending, collide, seed, L):
        P = EPoly(spread_coefficients(monos, ascending))
        m = P.homogeneous_degree()
        points = sample_points(L, Random(seed), m, pairwise_distinct=True)
        if collide:
            points[-1] = points[0]
        params = numeric_params(L, Fraction(5))
        assert_same(sym_eval(L, P, params, points), ref_sym_eval(L, P, params, points))
        walked.append(len(monos))

    sweep()
    skipped = sum(walked) - len(full)
    assert len(full) > 0 and skipped > 0, (len(full), skipped)


# p' values that are not finite; p' enters the odd generators by a product
# (a non-finite p would overflow p ** a).
NON_FINITE = [complex(math.nan, 0.5), complex(0.5, math.nan), complex(math.nan, math.nan),
              complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(-math.inf, math.inf)]


@pytest.mark.parametrize("p, dp", [(0.3 + 0.1j, bad) for bad in NON_FINITE]
                         + [(1e200 + 0j, -2e200 + 0j)], ids=repr)
@pytest.mark.parametrize("alpha", [0, 3, 5])
def test_sym_eval_single_factor_non_finite(p, dp, alpha):
    # One factor: the product with the leading 1 + 0j is not the plain
    # column sum when that sum is not finite: e[5] = p * (-p'/2) overflows
    # to inf + 0j at p = 1e200, p' = -2e200, and (1 + 0j) * (inf + 0j) is
    # inf + nanj.
    values = [(p, dp, 0j)]
    P = EPoly({(alpha,): Fraction(-3, 2)})
    params = numeric_params(SQUARE, Fraction(5))
    got = _sym_eval_core(P, params, [_PointSet(values)])[0]
    assert repr(got) == repr(ref_sym_eval_values(P, params, values))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("collide", [False, True])
def test_sym_eval_non_finite_point_value(bad, where, collide):
    # A NaN or infinite p' at one point: NaN magnitudes are passed over on
    # both paths of the peak, and an infinite bound never skips.
    values = [weier_eval(SQUARE, z)
              for z in sample_points(SQUARE, Random(3), 3, pairwise_distinct=True)]
    p, _, zeta = values[where]
    values[where] = (p, bad, zeta)
    if collide:  # the first two points one value object
        values[1] = values[0]
    # the products of the odd generators, which the bad p' reaches, set the peak
    P = EPoly({(0, 2, 4): 1, (2, 2, 3): Fraction(-3, 2), (2, 3, 5): Fraction(10 ** 9, 7),
               (3, 5, 5): ParamPoly.symbol("g2") * 10 ** 6, (0, 0, 0): 7, (4, 6, 8): 2})
    params = numeric_params(SQUARE, Fraction(5))
    got = _sym_eval_core(P, params, [_PointSet(values)])[0]
    assert repr(got) == repr(ref_sym_eval_values(P, params, values))
