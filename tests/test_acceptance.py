"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Exact claims are checked exactly (zero polynomials, golden files); analytic
claims are checked at the stated relative tolerances on seeded samples.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from elliptic_poisson.brackets import (
    BracketSpec,
    verify_closure,
    verify_jacobi_window,
)
from elliptic_poisson.casimirs import casimirs, involution_family, verify_central
from elliptic_poisson.cli import golden_casimir_check, main
from elliptic_poisson.leaves import (
    CONVENTION_PRINTED,
    LeafConfig,
    diagonal_vanish_check,
    draw_leaf_sample,
    kernel_check,
    nondegeneracy_check,
    prop3_check,
)
from elliptic_poisson.poly import IndexSet
from elliptic_poisson.weierstrass import (
    SamplePlan,
    identity5_sweep,
    lattice_init,
    verify_functional,
    weierstrass_selftest,
)

CORE_WINDOW = [0] + list(range(2, 11))
TAUS = (1j, 0.3 + 1.1j)
SEED = 20240915


def outcome(number: int, ok: bool, description: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def lattices():
    return tuple(lattice_init(1, tau) for tau in TAUS)


def test_criterion_1_jacobi_compatibility():
    start = time.monotonic()
    rep = verify_jacobi_window(CORE_WINDOW, BracketSpec.custom(), n_value=None)
    elapsed = time.monotonic() - start
    ok = rep.passed and rep.max_residual == "exact-zero" and elapsed < 300
    outcome(1, ok, f"jacobiator exactly zero on {rep.parameters['triples']} "
                   f"formal-parameter triples in {elapsed:.1f}s")


def test_criterion_2_closure():
    ok = True
    for n in range(2, 11):
        for spec in (BracketSpec.elliptic(), BracketSpec.basis(1),
                     BracketSpec.basis(2), BracketSpec.basis(3)):
            ok = ok and verify_closure(n, spec).passed
    outcome(2, ok, "bracket support stays in {0} u {2..n} for n = 2..10; "
                   "n = 2 commutative")


def test_criterion_3_golden_examples():
    ok = all(golden_casimir_check(n).passed for n in (4, 6))
    outcome(3, ok, "n = 4 and n = 6 central pairs match the golden files "
                   "term for term")


def test_criterion_4_centrality():
    start = time.monotonic()
    ok = True
    for n in (3, 4, 5, 6, 7, 8):
        rep = verify_central(casimirs(n))
        ok = ok and rep.passed and rep.max_residual == "exact-zero"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    outcome(4, ok, f"exact centrality for n = 3..8 in {elapsed:.1f}s")


def test_criterion_5_functional_realization(lattices):
    ok = True
    worst = 0.0
    for L in lattices:
        for n in (2, 3, 5, 8):
            window = [0] + list(range(2, min(8, n) + 1))
            rep = verify_functional(L, Fraction(n), window,
                                    SamplePlan(seed=SEED, count=20, tolerance=1e-6))
            ok = ok and rep.passed
            worst = max(worst, rep.max_residual)
    ok = ok and worst < 1e-6
    outcome(5, ok, f"two-point bracket matches the symbolic bracket on both "
                   f"lattices, max rel residual {worst:.2e} < 1e-6")


def test_criterion_6_z_identities(lattices):
    ok = True
    worst = 0.0
    for L in lattices:
        rep = identity5_sweep(L, SamplePlan(seed=SEED, count=20, tolerance=1e-8))
        ok = ok and rep.passed
        worst = max(worst, rep.max_residual)
    outcome(6, ok, f"zeta-combination identities below 1e-8 relative on "
                   f"both lattices (max {worst:.2e})")


def test_criterion_7_weierstrass_selftests(lattices):
    ok = True
    for L in lattices:
        rep = weierstrass_selftest(L, SamplePlan(seed=SEED, count=20, tolerance=1e-9))
        ok = ok and rep.passed
        ok = ok and abs(L.laurent_c[2] - L.g2 / 20) < 1e-9 * (1 + abs(L.g2))
        ok = ok and abs(L.laurent_c[3] - L.g3 / 28) < 1e-9 * (1 + abs(L.g3))
    outcome(7, ok, "differential equation, periodicity, quasi-periodicity "
                   "and Laurent seeds within 1e-9")


def test_criterion_8_homomorphism(lattices):
    L = lattices[0]
    ok = True
    worst = 0.0
    for p, n in ((1, 4), (2, 5), (2, 6), (3, 7)):
        cfg = LeafConfig(p=p, n_value=Fraction(n), lattice=L)
        rep = prop3_check(cfg, IndexSet.fn(n).members(),
                          SamplePlan(seed=SEED, count=10, tolerance=1e-6))
        ok = ok and rep.passed
        worst = max(worst, rep.max_residual)
    cfg = LeafConfig(p=2, n_value=Fraction(5), lattice=L)
    control = prop3_check(cfg, IndexSet.fn(5).members(),
                          SamplePlan(seed=SEED, count=10, tolerance=1e-2),
                          convention=CONVENTION_PRINTED)
    ok = ok and (not control.passed) and control.max_residual > 1e-2
    outcome(8, ok, f"point-map intertwines the brackets (max {worst:.2e} "
                   f"< 1e-6); printed-sign control fails at "
                   f"{control.max_residual:.2e} > 1e-2")


def test_criterion_9_kernel_membership(lattices):
    L = lattices[0]
    ok = True
    worst = 0.0
    for n, p in ((4, 1), (6, 2), (3, 1), (5, 2), (7, 3)):
        cfg = LeafConfig(p=p, n_value=Fraction(n), lattice=L)
        cs = casimirs(n)
        rep = kernel_check(cfg, cs, SamplePlan(seed=SEED, count=5, tolerance=1e-8))
        ok = ok and rep.passed
        worst = max(worst, rep.max_residual)
        for elem in cs.elements:
            drep = diagonal_vanish_check(cfg, elem,
                                         SamplePlan(seed=SEED, count=3, tolerance=1e-8))
            ok = ok and drep.passed
            worst = max(worst, drep.max_residual)
    outcome(9, ok, f"central elements vanish under the point map and on "
                   f"collision divisors (max {worst:.2e} < 1e-8)")


def test_criterion_10_involution(pairwise_involution):
    ok = True
    for n in (4, 5, 6):
        rep = involution_family(n)
        ok = ok and rep.passed and rep.max_residual == "exact-zero"
        # the guarantee is pairwise: check it pair by pair as well
        ok = ok and pairwise_involution(n).to_json() == rep.to_json()
    outcome(10, ok, "pencil-family coefficients commute exactly under both "
                    "brackets for n = 4, 5, 6")


def test_criterion_11_nondegeneracy(lattices):
    L = lattices[0]
    ok = True
    for p, n, expect_degenerate in ((1, 4, False), (2, 6, False), (2, 4, True)):
        cfg = LeafConfig(p=p, n_value=Fraction(n), lattice=L)
        rep = nondegeneracy_check(cfg, draw_leaf_sample(cfg, Random(SEED)))
        ok = ok and rep.passed
        ok = ok and rep.parameters["degenerate"] is expect_degenerate
    outcome(11, ok, "leaf Poisson determinant matches the closed form; "
                    "nonzero for 2p < n, exactly zero at 2p = n")


def test_criterion_12_determinism(tmp_path):
    first = tmp_path / "suite1.jsonl"
    second = tmp_path / "suite2.jsonl"
    code1 = main(["all", "--seed", str(SEED), "--samples", "20", "--out", str(first)])
    code2 = main(["all", "--seed", str(SEED), "--samples", "20", "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    outcome(12, ok, "full suite reruns byte-identical with a fixed seed")
