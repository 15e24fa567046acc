"""Central-element constructions against independently transcribed
expected values, the exact centrality oracle, rank-1 identities, and the
pencil involution families."""

import hashlib
from fractions import Fraction
from importlib import resources
from random import Random

import pytest

from elliptic_poisson.brackets import BracketSpec, bracket_poly
from elliptic_poisson.casimirs import (
    CasimirSet,
    FMatrix,
    build_matrix,
    casimir_even,
    casimir_odd,
    casimirs,
    fdiv_wp,
    fmul,
    fmul_poly,
    involution_family,
    pencil_family,
    rank1_identity_check,
    substituted_casimirs,
    sym_det,
    verify_central,
    wp_shift,
)
from elliptic_poisson.poly import EPoly, IndexSet, ParamPoly
from elliptic_poisson.weierstrass import e_func, lattice_init, sample_points

G2 = ParamPoly.symbol("g2")
G3 = ParamPoly.symbol("g3")
Q = Fraction(1, 4)


def gen(*indices):
    return EPoly.monomial(indices)


# -- function products --------------------------------------------------------

def test_fmul_examples():
    assert fmul(2, 2) == gen(4)
    assert fmul(3, 3) == gen(6) - Q * G2 * gen(2) - Q * G3 * gen(0)
    assert fmul(0, 7) == gen(7)
    assert fmul(2, 3) == gen(5)


def test_fmul_commutative():
    rng = Random(2)
    for _ in range(20):
        a, b = rng.randint(-4, 8), rng.randint(-4, 8)
        assert fmul(a, b) == fmul(b, a)


def test_fmul_associative_randomized():
    rng = Random(3)
    for _ in range(20):
        a, b, c = (rng.randint(-4, 8) for _ in range(3))
        lhs = fmul_poly(fmul(a, b), EPoly.gen(c))
        rhs = fmul_poly(EPoly.gen(a), fmul(b, c))
        assert lhs == rhs


def test_fmul_matches_numerics():
    L = lattice_init(1, 0.3 + 1.1j)
    rng = Random(9)
    params = {"g2": L.g2, "g3": L.g3}
    for z in sample_points(L, rng, 5):
        for (a, b) in ((2, 2), (3, 3), (3, 5), (2, 5), (-2, 3)):
            direct = e_func(L, a, z) * e_func(L, b, z)
            expanded = sum(
                coeff.evaluate(params) * e_func(L, m[0], z)
                for m, coeff in fmul(a, b).terms()
            )
            scale = 1 + abs(direct)
            assert abs(direct - expanded) < 1e-8 * scale


def test_fdiv_examples():
    assert fdiv_wp(fmul(3, 3)) == gen(4) - Q * G2 * gen(0) - Q * G3 * gen(-2)
    assert fdiv_wp(EPoly.gen(2)) == gen(0)
    assert fdiv_wp(EPoly.gen(5)) == gen(3)
    assert wp_shift(EPoly.gen(0), 1) == gen(2)


def test_fdiv_requires_degree_one():
    with pytest.raises(ValueError):
        fdiv_wp(EPoly.monomial((2, 2)))


# -- matrices -----------------------------------------------------------------

def test_build_matrix_g_n6_corner():
    m = build_matrix("g", 6)
    assert m.entries[0][0] == gen(0)
    assert m.entries[0][2] == gen(3)
    assert m.entries[2][2] == gen(6) - Q * G2 * gen(2) - Q * G3 * gen(0)


def test_build_matrix_g1_n4():
    m = build_matrix("g1", 4)
    assert m.entries[0][0] == gen(2)
    assert m.entries[0][1] == m.entries[1][0] == gen(3)
    assert m.entries[1][1] == gen(4) - Q * G2 * gen(0) - Q * G3 * gen(-2)


def test_build_matrix_g2m_n4():
    m = build_matrix("g2m", 4)
    assert m.entries == ((gen(-2), gen(0)), (gen(0), gen(2)))


def test_build_matrix_preconditions():
    for bad in (3, 2, 5):
        with pytest.raises(ValueError):
            build_matrix("g", bad)
    with pytest.raises(ValueError):
        build_matrix("nope", 4)


def test_sym_det_examples():
    assert sym_det(build_matrix("g", 4)) == gen(0, 4) - gen(2, 2)
    assert sym_det(FMatrix(((EPoly.gen(0),),))) == gen(0)


def test_sym_det_is_symmetric_algebra_det():
    # determinant entries multiply in the symmetric algebra: the 2x2
    # rank-1 function matrix has a nonzero symmetric determinant
    m = build_matrix("g2m", 4)
    assert sym_det(m) == gen(-2, 2) - gen(0, 0)


# -- central elements ---------------------------------------------------------

def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m):
    return (m[0][0] * det2([[m[1][1], m[1][2]], [m[2][1], m[2][2]]])
            - m[0][1] * det2([[m[1][0], m[1][2]], [m[2][0], m[2][2]]])
            + m[0][2] * det2([[m[1][0], m[1][1]], [m[2][0], m[2][1]]]))


E0, E2, E3, E4, E5, E6 = (EPoly.gen(a) for a in (0, 2, 3, 4, 5, 6))


def test_casimir_even_4_matches_display():
    # transcribed 2x2 determinants; the final sign of the g3 term follows
    # the rank-1 rewriting (the inline display carries a sign slip, which
    # the exact centrality check below resolves)
    c0_expect = det2([[E0, E2], [E2, E4]])
    c1_expect = det2([[E2, E3], [E3, E4 - Q * G2 * E0]]) - Q * G3 * E0 * E0
    cs = casimir_even(4)
    assert cs.elements == (c0_expect, c1_expect)
    assert cs.kind == "even-pair"


def test_casimir_even_4_sign_decided_by_centrality():
    cs = casimir_even(4)
    wrong = cs.elements[1] + 2 * Q * G3 * E0 * E0  # flip -1/4 -> +1/4
    spec = BracketSpec.elliptic()
    good_residual = bracket_poly(cs.elements[1], E2, spec, n_value=4)
    bad_residual = bracket_poly(wrong, E2, spec, n_value=4)
    assert good_residual == EPoly.zero()
    assert bad_residual != EPoly.zero()


def test_casimir_even_6_matches_display():
    c0_expect = det3([
        [E0, E2, E3],
        [E2, E4, E5],
        [E3, E5, E6 - Q * G2 * E2 - Q * G3 * E0],
    ])
    c1_expect = det3([
        [E2, E3, E4],
        [E3, E4 - Q * G2 * E0, E5],
        [E4, E5, E6],
    ]) + Q * G3 * det3([
        [EPoly.zero(), E0, E2],
        [E0, E2, E4],
        [E2, E4, E6],
    ])
    cs = casimir_even(6)
    assert cs.elements == (c0_expect, c1_expect)


def test_casimir_even_6_alternate_display_agrees():
    # the rank-1 rewriting of the same element
    Em2 = EPoly.gen(-2)
    c1_alt = det3([
        [E2, E3, E4],
        [E3, E4 - Q * G2 * E0 - Q * G3 * Em2, E5],
        [E4, E5, E6],
    ]) + Q * G3 * det3([
        [Em2, E0, E2],
        [E0, E2, E4],
        [E2, E4, E6],
    ])
    assert casimir_even(6).elements[1] == c1_alt


def test_casimir_odd_3():
    cs = casimir_odd(3)
    expect = (E2 ** 3 - E0 * E3 * E3
              - Q * G2 * E0 * E0 * E2 - Q * G3 * E0 ** 3)
    assert cs.elements == (expect,)
    assert cs.kind == "odd-single"


def test_casimir_odd_3_elimination_parts():
    pair = casimir_even(4)
    a0, b0 = pair.elements[0].split_linear(4)
    a1, b1 = pair.elements[1].split_linear(4)
    assert b0 == E0
    assert b1 == E2


def test_casimir_supports_and_degrees():
    for n in range(3, 9):
        cs = casimirs(n)
        allowed = set(IndexSet.fn(n).members())
        for elem in cs.elements:
            assert elem.support() <= allowed
            expected_degree = n // 2 if n % 2 == 0 else n
            assert elem.homogeneous_degree() == expected_degree


def test_casimir_preconditions():
    with pytest.raises(ValueError):
        casimir_even(3)
    with pytest.raises(ValueError):
        casimir_even(2)
    with pytest.raises(ValueError):
        casimir_odd(4)
    with pytest.raises(ValueError):
        casimir_odd(1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
def test_centrality_small(n):
    rep = verify_central(casimirs(n))
    assert rep.passed
    assert rep.max_residual == "exact-zero"


def _golden_digests():
    text = (resources.files("elliptic_poisson")
            .joinpath("golden/v1/casimir_sha256.txt").read_text(encoding="utf-8"))
    rows = (line.split() for line in text.splitlines() if line and not line.startswith("#"))
    return {int(n): digest for n, digest in rows}


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
def test_casimir_matches_golden_digest(n):
    text = "\n".join(elem.to_text() for elem in casimirs(n).elements)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _golden_digests()[n]


def test_centrality_detects_noncentral():
    fake = CasimirSet(n=4, elements=(EPoly.gen(2) * EPoly.gen(2),), kind="even-pair")
    rep = verify_central(fake)
    assert not rep.passed


def test_substituted_casimirs_central_under_custom_bracket():
    lam = (Fraction(2), Fraction(3), Fraction(-1, 2))
    cs = substituted_casimirs(4, *lam)
    spec = BracketSpec.custom(*lam)
    for elem in cs.elements:
        for gamma in IndexSet.fn(4).members():
            assert bracket_poly(elem, EPoly.gen(gamma), spec, n_value=4) == EPoly.zero()
    with pytest.raises(ValueError):
        substituted_casimirs(4, Fraction(0), Fraction(1), Fraction(1))


# -- rank-1 identities --------------------------------------------------------

def test_rank1_constructed_matrices():
    assert rank1_identity_check(build_matrix("g", 6)).passed
    assert rank1_identity_check(build_matrix("g2m", 4)).passed
    assert rank1_identity_check(build_matrix("g1", 6)).passed


def test_rank1_negative_control():
    bad = FMatrix(((EPoly.gen(0), EPoly.gen(2)), (EPoly.gen(2), EPoly.gen(2))))
    rep = rank1_identity_check(bad)
    assert not rep.passed
    assert rep.failures[0]["witness"] == [1, 1, 2, 2]


# -- involution ---------------------------------------------------------------

def test_pencil_family_n4_structure():
    family = pencil_family(4)
    assert family[0] == gen(0, 4) - gen(2, 2)  # parameter-free element
    S2 = ParamPoly.symbol("s2")
    S3 = ParamPoly.symbol("s3")
    # linear coefficient of the second element
    assert family[2] == -Q * S2 * E0 * E2 - Q * S3 * E0 * E0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_involution_families(n):
    rep = involution_family(n)
    assert rep.passed
    assert rep.max_residual == "exact-zero"


def test_involution_singleton_trivial():
    fam = pencil_family(4)[:1]
    spec_a = BracketSpec.elliptic()
    assert bracket_poly(fam[0], fam[0], spec_a, n_value=4) == EPoly.zero()
