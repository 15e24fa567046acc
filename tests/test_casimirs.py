"""Central-element constructions against independently transcribed
expected values, the exact centrality oracle, rank-1 identities, and the
pencil involution families."""

import gc
import hashlib
import importlib
from fractions import Fraction
from importlib import resources
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from elliptic_poisson.brackets import BracketSpec, bracket_poly
from elliptic_poisson.casimirs import (
    _det,
    _family_size,
    CasimirSet,
    FMatrix,
    IntegrityError,
    build_matrix,
    casimir_even,
    casimir_odd,
    casimirs,
    fmul,
    involution_family,
    pencil_family,
    rank1_identity_check,
    sym_det,
    verify_central,
)
from elliptic_poisson.poly import EPoly, IndexSet, ParamPoly
from elliptic_poisson.weierstrass import e_func, lattice_init, sample_points

G2 = ParamPoly.symbol("g2")
G3 = ParamPoly.symbol("g3")
N = ParamPoly.symbol("n")
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


def fmul_poly(P, Q):
    """Bilinear extension of ``fmul`` to degree-1 elements."""
    out = EPoly.zero()
    for (a,), ca in P.terms():
        for (b,), cb in Q.terms():
            out = out + fmul(a, b) * ca * cb
    return out


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
    # dividing by p lowers one factor's index by two; p^s is fmul(2s, .)
    assert fmul(1, 3) == gen(4) - Q * G2 * gen(0) - Q * G3 * gen(-2)
    assert fmul(-2, 2) == gen(0)
    assert fmul(-2, 5) == gen(3)
    assert fmul(2, 0) == gen(2)


def test_fdiv_requires_degree_one():
    with pytest.raises(ValueError, match="matrix entries must have degree 1"):
        FMatrix(((gen(0), gen(2)), (gen(2), EPoly.monomial((2, 2)))))


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


def ref_sym_det(M):
    """Permutation expansion with the sign from the inversion count."""
    size = M.size
    out = EPoly.zero()
    for perm in permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        prod = EPoly.one()
        for i in range(size):
            prod = prod * M.entries[i][perm[i]]
        out = out + (prod if inversions % 2 == 0 else -prod)
    return out


coefficients = st.builds(
    lambda num, den, sym: Fraction(num, den) * sym,
    st.integers(-5, 5).filter(bool), st.integers(1, 4),
    st.sampled_from([ParamPoly.one(), G2, G3, N]),
)
entries = st.one_of(
    st.just(EPoly.zero()),
    st.dictionaries(st.integers(-4, 8).map(lambda a: (a,)), coefficients,
                    min_size=1, max_size=2).map(EPoly),
)
matrices = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(entries, min_size=k, max_size=k).map(tuple),
                       min_size=k, max_size=k).map(lambda rows: FMatrix(tuple(rows))))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_sym_det_matches_permutation_expansion(M):
    assert sym_det(M) == ref_sym_det(M)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
@pytest.mark.parametrize("kind", ["g", "g1", "g2m"])
def test_sym_det_matches_permutation_expansion_on_construction(kind, n):
    M = build_matrix(kind, n)
    assert sym_det(M) == ref_sym_det(M)


def per_cofactor_det(matrix, zero):
    """``_det`` with every cofactor its own product, added to a running total
    one at a time: the memoized expansion before minors were summed by
    their ring."""
    size = len(matrix)
    if size == 0:
        return zero + 1
    if size == 1:
        return matrix[0][0]
    memo = {1 << col: matrix[-1][col] for col in range(size)}
    nonzero = [[(col, entry) for col, entry in enumerate(row) if entry]
               for row in matrix]

    def minor_det(cols):
        total = zero
        for col, entry in nonzero[size - cols.bit_count()]:
            bit = 1 << col
            if not cols & bit:
                continue
            rest = cols ^ bit
            sub = memo.get(rest)
            if sub is None:
                sub = minor_det(rest)
            cofactor = entry * sub
            total += -cofactor if (cols & (bit - 1)).bit_count() % 2 else cofactor
        memo[cols] = total
        return total

    return minor_det((1 << size) - 1)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
@pytest.mark.parametrize("kind", ["g", "g1", "g2m"])
def test_sym_det_matches_per_cofactor_oracle(kind, n):
    M = build_matrix(kind, n)
    assert sym_det(M) == per_cofactor_det(M.entries, EPoly.zero())


# entries drawn from a small pool and scaled, so rows and columns repeat up
# to a fraction and whole groups of cofactors cancel
scales = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3), 3])
cancelling_matrices = st.tuples(st.integers(1, 5), st.lists(entries, min_size=1, max_size=3)) \
    .flatmap(lambda kp: st.lists(
        st.lists(st.builds(lambda e, c: e * c, st.sampled_from(kp[1]), scales),
                 min_size=kp[0], max_size=kp[0]).map(tuple),
        min_size=kp[0], max_size=kp[0]).map(lambda rows: FMatrix(tuple(rows))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices, cancelling_matrices))
def test_sym_det_matches_per_cofactor_oracle_randomized(M):
    assert sym_det(M) == per_cofactor_det(M.entries, EPoly.zero())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.3, 0.6]))
def test_complex_det_keeps_its_rounding(size, seed, zero_share):
    # full-width mantissas: any change in the order of the operations shows
    rng = Random(seed)
    matrix = [[0j if rng.random() < zero_share
               else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(size)] for _ in range(size)]
    assert repr(_det(matrix, 0j)) == repr(per_cofactor_det(matrix, 0j))


def test_sym_det_frees_its_minors_on_return():
    M = build_matrix("g", 10)
    gc.collect()
    gc.disable()
    try:
        det = sym_det(M)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0
    assert det == casimirs(10).elements[0]


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


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_casimir_odd_matches_operator_elimination(n):
    (a0, b0), (a1, b1) = (elem.split_linear(n + 1) for elem in casimirs(n + 1).elements)
    assert casimir_odd(n).elements == (b0 * a1 - b1 * a0,)


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


@pytest.mark.parametrize("build, message", [
    (lambda: FMatrix(((gen(0), gen(2)), (gen(2),))), "matrix must be square"),
    (lambda: involution_family(2), "involution check needs n >= 3"),
], ids=["non-square", "involution-n2"])
def test_casimir_input_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_casimir_preconditions():
    with pytest.raises(ValueError):
        casimir_even(3)
    with pytest.raises(ValueError):
        casimir_even(2)
    with pytest.raises(ValueError):
        casimir_odd(4)
    with pytest.raises(ValueError):
        casimir_odd(1)


def _escaping_g(n):
    """The g matrix with its corner e[0] replaced by e[n+2]."""
    rows = [list(row) for row in build_matrix("g", n).entries]
    rows[0][0] = EPoly.gen(n + 2)
    return FMatrix(tuple(map(tuple, rows)))


def _short_g(n):
    """The g matrix without its last row and column."""
    return FMatrix(tuple(row[:-1] for row in build_matrix("g", n).entries[:-1]))


@pytest.mark.parametrize("faulty, message", [
    (_escaping_g, r"even n=6, first element: indices \[8\] escaped \{0\} u \{2\.\.6\}"),
    (_short_g, r"even n=6, first element: degree != 3"),
], ids=["support", "degree"])
def test_casimir_even_integrity_checks_fire(monkeypatch, faulty, message):
    # casimir_even is called directly, so the casimirs cache never holds the fault
    module = importlib.import_module("elliptic_poisson.casimirs")
    monkeypatch.setattr(module, "build_matrix",
                        lambda kind, n: faulty(n) if kind == "g" else build_matrix(kind, n))
    with pytest.raises(IntegrityError, match=message):
        casimir_even(6)


@pytest.mark.parametrize("pair, message", [
    (lambda real: (gen(6, 6), real[1]), r"odd n=5: degree in e\[6\] exceeds 1"),
    (lambda real: (real[0], real[0]), r"odd n=5: degree != 5"),
], ids=["quadratic", "zero-eliminant"])
def test_casimir_odd_integrity_checks_fire(monkeypatch, pair, message):
    # a pair with an element quadratic in e[6], and a pair of equal elements,
    # whose eliminant is 0; the module's casimirs is replaced, not its cache
    module = importlib.import_module("elliptic_poisson.casimirs")
    faulty = CasimirSet(n=6, elements=pair(casimirs(6).elements), kind="even-pair")
    monkeypatch.setattr(module, "casimirs", lambda k: faulty if k == 6 else casimirs(k))
    with pytest.raises(IntegrityError, match=message):
        casimir_odd(5)


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


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12, 14, 16])
def test_casimir_matches_golden_digest(n):
    text = "\n".join(elem.to_text() for elem in casimirs(n).elements)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _golden_digests()[n]


UNSET = object()


def slot_state(elem):
    """Every ``__slots__`` entry along the element's classes, ``UNSET`` where
    unset, so that a slot added later is covered too."""
    return [(name, getattr(elem, name, UNSET))
            for cls in type(elem).__mro__ for name in getattr(cls, "__slots__", ())]


def assert_slots_unchanged(elements, before):
    for elem, state in zip(elements, before, strict=True):
        for (name, old), (_, new) in zip(state, slot_state(elem), strict=True):
            assert new is old, name


def test_centrality_keeps_no_partials_on_the_memoized_elements():
    cs = casimirs(6)
    # the walk must see the slots, or the comparison below is empty
    assert {"_terms", "_den", "_hash", "_view", "_or", "_values"} <= {
        name for name, _ in slot_state(cs.elements[0])}
    before = [slot_state(elem) for elem in cs.elements]
    assert verify_central(cs).passed
    assert_slots_unchanged(cs.elements, before)
    assert involution_family(6).passed
    assert_slots_unchanged(cs.elements, before)


def test_odd_certificate_keeps_nothing_on_the_memoized_element():
    # odd n goes through the Pfaffian certificate, which reads the
    # element's partial derivatives one at a time and stores none
    cs = casimirs(5)
    before = [slot_state(elem) for elem in cs.elements]
    assert verify_central(cs).passed
    assert involution_family(5).passed
    assert_slots_unchanged(cs.elements, before)


def test_centrality_detects_noncentral():
    fake = CasimirSet(n=4, elements=(EPoly.gen(2) * EPoly.gen(2),), kind="even-pair")
    rep = verify_central(fake)
    assert not rep.passed


def substituted_casimirs(n, l1, l2, l3):
    """Central elements for a custom combination with nonzero first entry.

    Scaling a bracket preserves its central elements, so the combination
    (l1, l2, l3) shares them with (1, l2/l1, l3/l1): the construction with
    g2 -> l2/l1, g3 -> l3/l1."""
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    if l1 == 0:
        raise ValueError("degenerate pencils (first coefficient 0) are unsupported")
    cs = casimirs(n)
    assignment = {"g2": l2 / l1, "g3": l3 / l1}
    return CasimirSet(n=n, kind=cs.kind,
                      elements=tuple(c.substitute_params(assignment) for c in cs.elements))


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


@pytest.mark.parametrize("n", range(3, 13))
def test_family_size_counts_pencil_family(n):
    assert _family_size(casimirs(n).elements) == len(pencil_family(n))


def test_family_size_of_coefficient_free_and_zero_elements():
    shift = {"g2": G2 + ParamPoly.symbol("t") * ParamPoly.symbol("s2"),
             "g3": G3 + ParamPoly.symbol("t") * ParamPoly.symbol("s3")}
    free = gen(0, 4) - gen(2, 2)
    assert _family_size([free]) == len(free.compose_params(shift).collect_symbol("t")) == 1
    assert _family_size([EPoly.zero(), free, EPoly.zero()]) == 1
    assert _family_size([]) == 0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_involution_families(n):
    rep = involution_family(n)
    assert rep.passed
    assert rep.max_residual == "exact-zero"


def test_involution_matches_pairwise_oracle(pairwise_involution):
    for n in range(3, 9):
        rep = involution_family(n)
        assert rep.passed
        assert rep.to_json() == pairwise_involution(n).to_json()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_involution_matches_chain_oracle(n, chain_involution):
    assert involution_family(n).to_json() == chain_involution(n).to_json()


@pytest.mark.parametrize("n", [9, 12, 14])
def test_involution_reach(n):
    rep = involution_family(n)
    assert rep.passed
    assert rep.max_residual == "exact-zero"
    assert rep.parameters["family_size"] == len(pencil_family(n))


@pytest.mark.parametrize("coeff", [1, G2, G3, G2 * G3], ids=["1", "g2", "g3", "g2g3"])
@pytest.mark.parametrize("n, which", [(5, 0), (6, 0), (6, 1)])
def test_involution_perturbed_family_fails_both_checks(n, which, coeff, monkeypatch,
                                                      pairwise_involution, chain_involution):
    # bump the coefficient of the first monomial of one central element
    module = importlib.import_module("elliptic_poisson.casimirs")
    real = casimirs(n)
    elements = list(real.elements)
    mono = min(m for m, _ in elements[which].terms())
    elements[which] = elements[which] + EPoly.monomial(mono, coeff)
    bumped = CasimirSet(n=n, elements=tuple(elements), kind=real.kind)
    monkeypatch.setattr(module, "casimirs", lambda k: bumped if k == n else casimirs(k))
    rep = involution_family(n)
    assert not rep.passed
    assert rep.failures[0]["witness"].startswith(f"element {which}, generator e[")
    assert rep.to_json() == chain_involution(n).to_json()
    assert not pairwise_involution(n).passed


def test_involution_singleton_trivial():
    fam = pencil_family(4)[:1]
    spec_a = BracketSpec.elliptic()
    assert bracket_poly(fam[0], fam[0], spec_a, n_value=4) == EPoly.zero()
