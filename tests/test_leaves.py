"""Point-evaluation homomorphism and the leaf-side checks: bracket
intertwining under both sign conventions, kernel membership, collision
vanishing, and the closed-form Poisson determinant."""

from fractions import Fraction
from random import Random

import pytest

import elliptic_poisson.poly as poly
from elliptic_poisson.casimirs import casimir_even, casimirs
from elliptic_poisson.leaves import (
    CONVENTION_PRINTED,
    LeafConfig,
    LeafSample,
    diagonal_vanish_check,
    draw_leaf_sample,
    kernel_check,
    leaf_bracket_xp,
    nondegeneracy_check,
    prop3_check,
    xp_eval,
)
from elliptic_poisson.poly import EPoly, IndexSet
from elliptic_poisson.weierstrass import (
    NearSingularError,
    SamplePlan,
    e_func_and_deriv,
    lattice_init,
    numeric_params,
)

L = lattice_init(1, 1j)
SKEW = lattice_init(1, 0.3 + 1.1j)


def config(p, n, lattice=L):
    return LeafConfig(p=p, n_value=Fraction(n), lattice=lattice)


def test_xp_of_unit_sums_weights():
    cfg = config(3, 7)
    s = draw_leaf_sample(cfg, Random(1))
    got, _ = xp_eval(cfg, EPoly.gen(0), {}, s)
    assert abs(got - sum(s.psi)) < 1e-12 * (1 + abs(got))


def test_xp_rank1_collapse_at_p1():
    cfg = config(1, 4)
    s = draw_leaf_sample(cfg, Random(2))
    c0 = casimirs(4).elements[0]
    value, _ = xp_eval(cfg, c0, numeric_params(L, 4), s)
    assert abs(value) < 1e-10


def test_xp_multiplicative():
    cfg = config(2, 5)
    s = draw_leaf_sample(cfg, Random(3))
    params = numeric_params(L, 5)
    P = EPoly.gen(2) * EPoly.gen(3) - 2 * EPoly.gen(0)
    Q = EPoly.gen(4) + EPoly.gen(2)
    lhs, _ = xp_eval(cfg, P * Q, params, s)
    rhs = xp_eval(cfg, P, params, s)[0] * xp_eval(cfg, Q, params, s)[0]
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_leaf_bracket_same_index_vanishes():
    cfg = config(3, 6)
    s = draw_leaf_sample(cfg, Random(4))
    value, scale = leaf_bracket_xp(cfg, 4, 4, s)
    assert abs(value) < 1e-10 * scale


def test_leaf_bracket_p1_closed_form():
    cfg = config(1, 5)
    s = draw_leaf_sample(cfg, Random(5))
    u, psi = s.u[0], s.psi[0]
    for f_idx, g_idx in ((0, 2), (2, 3), (3, 4)):
        f, df = e_func_and_deriv(L, f_idx, u)
        g, dg = e_func_and_deriv(L, g_idx, u)
        expect = (5 - 2) / 2 * (df * g - f * dg) * psi * psi
        got, _ = leaf_bracket_xp(cfg, f_idx, g_idx, s)
        assert abs(got - expect) < 1e-9 * (1 + abs(expect))


def test_leaf_bracket_matches_two_point_kernel():
    # the image bracket equals half the double sum of two-point values
    from elliptic_poisson.weierstrass import func_bracket
    cfg = config(2, 5)
    s = draw_leaf_sample(cfg, Random(6))
    lhs, _ = leaf_bracket_xp(cfg, 0, 2, s)
    total = 0j
    for a in range(2):
        for b in range(2):
            total += func_bracket(L, 5, 0, 2, s.u[a], s.u[b])[0] * s.psi[a] * s.psi[b]
    assert abs(lhs - total / 2) < 1e-6 * (1 + abs(lhs))


@pytest.mark.parametrize("p,n", [(1, 4), (2, 5), (2, 6), (3, 7)])
def test_prop3_acceptance_cases(p, n):
    cfg = config(p, n)
    rep = prop3_check(cfg, IndexSet.fn(n).members(),
                      SamplePlan(seed=11, count=10, tolerance=1e-6))
    assert rep.passed, rep.failures[:2]
    assert rep.max_residual < 1e-6


def test_prop3_printed_convention_fails():
    cfg = config(2, 5)
    rep = prop3_check(cfg, IndexSet.fn(5).members(),
                      SamplePlan(seed=11, count=10, tolerance=1e-2),
                      convention=CONVENTION_PRINTED)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_prop3_rejects_unknown_convention():
    cfg = config(2, 6)
    with pytest.raises(ValueError, match="unknown convention 'flip'"):
        prop3_check(cfg, IndexSet.fn(6).members(),
                    SamplePlan(seed=21, count=1, tolerance=1e-6), convention="flip")


def test_prop3_n2_trivial():
    cfg = config(1, 2)
    rep = prop3_check(cfg, IndexSet.fn(2).members(),
                      SamplePlan(seed=11, count=5, tolerance=1e-6))
    assert rep.passed


@pytest.mark.parametrize("n,p", [(4, 1), (6, 2), (3, 1), (5, 2), (7, 3)])
def test_kernel_membership(n, p):
    cfg = config(p, n)
    rep = kernel_check(cfg, casimirs(n), SamplePlan(seed=5, count=5, tolerance=1e-8))
    assert rep.passed, rep.failures[:2]


def test_kernel_needs_small_p():
    cfg = config(2, 4)
    with pytest.raises(ValueError):
        kernel_check(cfg, casimirs(4), SamplePlan(seed=5, count=2, tolerance=1e-8))


@pytest.mark.parametrize("n,p", [(4, 1), (6, 2), (3, 1), (5, 2)])
def test_diagonal_vanishing(n, p):
    cfg = config(p, n)
    for elem in casimirs(n).elements:
        rep = diagonal_vanish_check(cfg, elem,
                                    SamplePlan(seed=6, count=3, tolerance=1e-8))
        assert rep.passed, rep.failures[:2]


def test_leaf_config_needs_positive_p():
    with pytest.raises(ValueError, match="p must be a positive integer"):
        config(0, 4)


@pytest.mark.parametrize("element, message", [
    (EPoly.gen(2) * EPoly.gen(3) + EPoly.gen(4), "needs a homogeneous element"),
    (EPoly.gen(2) * EPoly.gen(3), "degree must exceed the number of distinct points"),
    (EPoly.gen(2), "degree must exceed the number of distinct points"),
])
def test_diagonal_check_refuses_its_element(element, message):
    # a mixed-degree element, and elements of degree p and below (p = 2)
    with pytest.raises(ValueError, match=message):
        diagonal_vanish_check(config(2, 6), element, SamplePlan(seed=6, count=2, tolerance=1e-8))


def test_diagonal_patterns_even_case_single_collision():
    cfg = config(2, 6)
    rep = diagonal_vanish_check(cfg, casimirs(6).elements[0],
                                SamplePlan(seed=6, count=2, tolerance=1e-8))
    assert rep.parameters["patterns"] == [[2, 1]]


def test_diagonal_negative_control():
    cfg = config(1, 4)
    rep = diagonal_vanish_check(cfg, EPoly.gen(2) * EPoly.gen(2),
                                SamplePlan(seed=6, count=2, tolerance=1e-8))
    assert not rep.passed


def test_nondegeneracy_p1():
    cfg = config(1, 4)
    s = draw_leaf_sample(cfg, Random(17))
    rep = nondegeneracy_check(cfg, s)
    assert rep.passed
    assert rep.parameters["degenerate"] is False
    # closed form for p = 1: |(n-2)/2| |psi| = |psi| (sign not pinned)
    assert rep.parameters["closed_form"] in ("1", "-1")


def test_nondegeneracy_open_case():
    cfg = config(2, 6, SKEW)
    s = draw_leaf_sample(cfg, Random(18))
    rep = nondegeneracy_check(cfg, s)
    assert rep.passed
    assert rep.parameters["degenerate"] is False


def test_nondegeneracy_boundary_degenerate():
    cfg = config(2, 4)
    s = draw_leaf_sample(cfg, Random(19))
    rep = nondegeneracy_check(cfg, s)
    assert rep.passed
    assert rep.parameters["degenerate"] is True
    assert rep.parameters["closed_form"] == "0"


def test_leaf_sample_admissibility():
    cfg = config(3, 7)
    s = draw_leaf_sample(cfg, Random(20))
    assert len(s.u) == len(s.psi) == 3
    assert all(abs(psi) > 0.4 for psi in s.psi)
    from elliptic_poisson.weierstrass import lattice_distance
    for i in range(3):
        assert lattice_distance(L, s.u[i]) >= 0.05 * L.r_min
        for j in range(i + 1, 3):
            assert lattice_distance(L, s.u[i] - s.u[j]) >= 0.05 * L.r_min


def test_prop3_evaluations_do_not_grow_with_pairs(weier_eval_points):
    cfg = config(3, 8)
    plan = SamplePlan(seed=11, count=4, tolerance=1e-6)
    counts = []
    for n in (3, 8):  # 6 and 28 generator pairs
        weier_eval_points.clear()
        assert prop3_check(cfg, IndexSet.fn(n).members(), plan).passed
        counts.append(len(weier_eval_points))
    # per sample: the p positions and the p(p-1) differences u_a - u_b
    assert counts == [4 * (3 + 3 * 2)] * 2


def test_kernel_check_evaluates_coefficients_once(monkeypatch):
    calls = []
    real = poly._coefficient_value

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(poly, "_coefficient_value", counting)
    cs = casimir_even(6)  # a fresh value (casimirs is memoized): nothing evaluated yet
    plan = SamplePlan(seed=12, count=5, tolerance=1e-8)
    assert kernel_check(config(2, 6), cs, plan).passed
    assert len(calls) == sum(elem.num_terms() for elem in cs.elements)


def test_nondegeneracy_evaluates_each_point_once(weier_eval_points):
    cfg = config(3, 7)
    assert nondegeneracy_check(cfg, draw_leaf_sample(cfg, Random(23))).passed
    # the p positions, then the p(p-1) differences u_a - u_b
    assert len(weier_eval_points) == 3 + 3 * 2


def test_nondegeneracy_near_singular_positions_raise():
    # two positions 0.036 r_min apart: the Z matrix needs x - y clear of
    # the lattice
    cfg = config(3, 7)
    s = LeafSample(u=(0.21 + 0.13j, 0.24 + 0.11j, -0.3 + 0.35j), psi=(1 + 0j,) * 3)
    assert abs(s.u[1] - s.u[0]) < 0.05 * L.r_min
    with pytest.raises(NearSingularError, match=r"^x - y too close to the lattice$"):
        nondegeneracy_check(cfg, s)


def test_nondegeneracy_tiny_weights_are_an_unexpected_degeneracy():
    # at 2p < n the block determinant is nonzero, but weights near 1e-30
    # shrink it to about 1e-90, below the tolerance
    cfg = config(3, 7)
    s = draw_leaf_sample(cfg, Random(23))
    rep = nondegeneracy_check(cfg, LeafSample(u=s.u, psi=(1e-30, -1e-30j, 2e-30)))
    assert rep.status == "fail"
    assert rep.parameters["degenerate"] is False
    assert [f["witness"] for f in rep.failures] == ["unexpected degeneracy"]
    assert rep.failures[0]["residual-text"].startswith("|det M| = ")


def test_nondegeneracy_overflow_fails():
    # weights of 1e120 overflow the determinants to inf and then NaN
    cfg = config(3, 7)
    s = draw_leaf_sample(cfg, Random(1))
    rep = nondegeneracy_check(cfg, LeafSample(u=s.u, psi=(1e120,) * 3))
    assert rep.status == "fail"
    assert {f["residual-text"] for f in rep.failures} == {"nan"}


@pytest.mark.parametrize("p", [8, 10])
def test_nondegeneracy_reach(p):
    # a 2p x 2p determinant; the factorial expansion could not reach p = 8
    cfg = config(p, 2 * p + 1)
    rep = nondegeneracy_check(cfg, draw_leaf_sample(cfg, Random(22)))
    assert rep.passed, rep.failures
    assert rep.parameters["degenerate"] is False
