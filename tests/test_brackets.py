"""Generator brackets: tail-difference oracle, frozen expansions, the
antisymmetry / grading / closure invariants, and the Jacobi sweeps."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from elliptic_poisson import brackets
from elliptic_poisson.cli import CLOSURE_BRACKETS
from elliptic_poisson.poly import EPoly, IndexSet, ParamPoly, _pack_mono, _reduce
from elliptic_poisson.report import Tally
from elliptic_poisson.brackets import (
    BracketSpec,
    SDiffSpec,
    bracket_basis,
    bracket_poly,
    generator_bracket,
    jacobiator,
    s_diff,
    verify_closure,
    verify_jacobi_window,
)

N = ParamPoly.symbol("n")
N_KEY = next(iter(N._terms))  # packed key of the symbol n
HALF = Fraction(1, 2)


def truncated_tail_sum(k, a, b, r_max=200):
    """Oracle: S_k(e_a, e_b) summed for r = 0..r_max, no closed form."""
    total = EPoly.zero()
    for r in range(r_max + 1):
        total = total + EPoly.monomial((a + k * r, b - k * r))
    return total


def sdiff_oracle(k, first, second, bound=64):
    """Expand both tail sums to a fixed cutoff, cancel, and drop the
    truncation garbage beyond the index bound."""
    raw = truncated_tail_sum(k, *first) - truncated_tail_sum(k, *second)
    kept = {m: c for m, c in raw.terms() if all(abs(i) <= bound for i in m)}
    return EPoly(kept)


def test_sdiff_examples():
    assert s_diff(SDiffSpec(1, (3, 3), (4, 2))) == EPoly.monomial((3, 3))
    assert s_diff(SDiffSpec(2, (0, 2), (4, -2))) == 2 * EPoly.monomial((0, 2))
    assert s_diff(SDiffSpec(2, (5, 1), (5, 1))) == EPoly.zero()


def test_sdiff_spec_invariants():
    with pytest.raises(ValueError):
        SDiffSpec(1, (0, 2), (1, 2))  # totals differ
    with pytest.raises(ValueError):
        SDiffSpec(2, (0, 2), (1, 1))  # residues differ


@pytest.mark.parametrize("build, message", [
    (lambda: SDiffSpec(0, (1, 2), (1, 2)), "k must be a positive integer"),
    (lambda: bracket_basis(4, 1, 2), "bracket index must be 1, 2 or 3, got 4"),
    (lambda: BracketSpec.basis(4), "basis bracket index must be 1, 2 or 3, got 4"),
    (lambda: verify_closure(1, BracketSpec.basis(1)), "closure check needs n >= 2"),
], ids=["sdiff-k0", "basis-i4", "spec-basis-i4", "closure-n1"])
def test_bracket_input_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_custom_spec_keeps_a_parampoly_coefficient():
    g2 = ParamPoly.symbol("g2")
    spec = BracketSpec.custom(g2, 2)
    assert spec.c1 is g2
    assert spec.describe() == "(g2, 2, l3)"


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-6, max_value=6),
)
def test_sdiff_matches_oracle(k, a, b, shift):
    c, d = a + k * shift, b - k * shift
    spec = SDiffSpec(k, (a, b), (c, d))
    assert s_diff(spec) == sdiff_oracle(k, (a, b), (c, d))


# -- frozen generator bracket expansions -------------------------------------

def test_bracket_even_even_vanishes():
    assert bracket_basis(2, 4, 6) == EPoly.zero()
    assert bracket_basis(3, 4, 6) == EPoly.zero()
    assert bracket_basis(2, 0, 2) == EPoly.zero()


def test_bracket_frozen_values():
    assert bracket_basis(1, 2, 3) == (
        EPoly.monomial((3, 3), 2 - N * HALF) + EPoly.monomial((2, 4), N - 3)
    )
    assert bracket_basis(2, 2, 3) == EPoly.monomial((0, 2), Fraction(1, 4))
    assert bracket_basis(3, 2, 3) == EPoly.monomial((0, 0), N * Fraction(1, 8))
    assert bracket_basis(1, 0, 2) == EPoly.monomial((0, 3), N - 2)


def test_bracket_diagonal_vanishes():
    for i in (1, 2, 3):
        for alpha in (-2, 0, 3, 7):
            assert bracket_basis(i, alpha, alpha) == EPoly.zero()


WINDOW = list(range(-4, 11))


def test_antisymmetry_window():
    for i in (1, 2, 3):
        for a in WINDOW:
            for b in WINDOW:
                assert bracket_basis(i, a, b) == -bracket_basis(i, b, a)


def test_weight_grading_window(weight_profile):
    offsets = {1: 1, 2: -3, 3: -5}
    for i in (1, 2, 3):
        for a in WINDOW:
            for b in WINDOW:
                w = weight_profile(bracket_basis(i, a, b))
                assert w in ("zero", a + b + offsets[i])


def test_quadraticity_window():
    for i in (1, 2, 3):
        for a in WINDOW:
            for b in WINDOW:
                br = bracket_basis(i, a, b)
                assert br.homogeneous_degree() in (None, 2)
                if br:
                    assert br.homogeneous_degree() == 2


def test_e1_cancellation():
    for n in range(2, 11):
        members = IndexSet.fn(n).members()
        for i in (1, 2, 3):
            for a in members:
                for b in members:
                    assert 1 not in bracket_basis(i, a, b).support()


# -- Leibniz extension --------------------------------------------------------

def test_bracket_poly_elliptic_example():
    got = bracket_poly(EPoly.gen(0), EPoly.gen(2), BracketSpec.elliptic())
    assert got == EPoly.monomial((0, 3), N - 2)


def test_bracket_poly_even_even_component():
    got = bracket_poly(EPoly.gen(2) * EPoly.gen(2), EPoly.gen(0), BracketSpec.basis(2))
    assert got == EPoly.zero()


def test_bracket_poly_antisymmetry_and_leibniz():
    spec = BracketSpec.elliptic()
    P = EPoly.gen(2) * EPoly.gen(3) + EPoly.gen(0)
    Q = EPoly.gen(4) - 2 * EPoly.gen(2)
    R = EPoly.gen(3)
    assert bracket_poly(P, P, spec) == EPoly.zero()
    assert bracket_poly(P, Q, spec) == -bracket_poly(Q, P, spec)
    lhs = bracket_poly(P, Q * R, spec)
    rhs = bracket_poly(P, Q, spec) * R + Q * bracket_poly(P, R, spec)
    assert lhs == rhs


def test_bracket_poly_bilinear():
    spec = BracketSpec.basis(1)
    P, Q, R = EPoly.gen(2), EPoly.gen(3), EPoly.gen(4)
    lhs = bracket_poly(P + Q, R, spec)
    assert lhs == bracket_poly(P, R, spec) + bracket_poly(Q, R, spec)


def test_custom_bracket_combination():
    lam = (Fraction(2), Fraction(-1, 3), Fraction(5))
    spec = BracketSpec.custom(*lam)
    got = generator_bracket(2, 3, spec)
    expect = (lam[0] * bracket_basis(1, 2, 3)
              + lam[1] * bracket_basis(2, 2, 3)
              + lam[2] * bracket_basis(3, 2, 3))
    assert got == expect


# -- generator brackets against the product-sum construction ------------------

def product_sum_bracket(alpha, beta, spec, n_value):
    """The generator bracket built term by term: three ``ParamPoly * EPoly``
    products added with ``+``, then n substituted."""
    out = (spec.c1 * bracket_basis(1, alpha, beta) + spec.c2 * bracket_basis(2, alpha, beta)
           + spec.c3 * bracket_basis(3, alpha, beta))
    return out if n_value is None else out.substitute_params({"n": n_value})


def tuple_from_integers(items, den):
    """``EPoly.from_integers`` on (index tuple, degree in n, numerator)
    items, each tuple packed by ``_pack_mono``."""
    acc = {}
    for mono, d, num in items:
        key = _pack_mono(mono) + d * N_KEY
        acc[key] = acc.get(key, 0) + num
    return EPoly._wrap(*_reduce({k: v for k, v in acc.items() if v}, den))


def tuple_bracket_basis(i, alpha, beta):
    """``bracket_basis`` from index tuples: the same formulas, every monomial
    packed by ``_pack_mono``."""
    def terms(k, first, second, *rest):
        (a, b), (c, d) = first, second
        sign, base_a, base_b, m = ((1, a, b, (c - a) // k) if a < c
                                   else (-1, c, d, (a - c) // k))
        return [((base_a + k * r, base_b - k * r), 1, sign) for r in range(m)] + list(rest)

    if i == 1:
        return tuple_from_integers(terms(
            1, (alpha + 1, beta), (beta + 1, alpha),
            ((alpha + 1, beta), 0, 2 * alpha), ((alpha + 1, beta), 1, -2),
            ((alpha, beta + 1), 0, -2 * beta), ((alpha, beta + 1), 1, 2)), 2)
    if alpha % 2 == 0 and beta % 2 == 0:
        return EPoly.zero()
    if alpha % 2 and beta % 2 == 0:
        return -tuple_bracket_basis(i, beta, alpha)
    if alpha % 2 == 0:
        a, b = alpha // 2, (beta - 3) // 2
        if i == 2:
            return tuple_from_integers(terms(
                2, (2 * b + 2, 2 * a - 2), (2 * a, 2 * b),
                ((2 * a, 2 * b), 0, 2 * (2 * b + 1))), 8)
        return tuple_from_integers(terms(
            2, (2 * b, 2 * a - 2), (2 * a, 2 * b - 2), ((2 * a, 2 * b - 2), 0, 4 * b)), 8)
    a, b = (alpha - 3) // 2, (beta - 3) // 2
    if i == 2:
        return tuple_from_integers(terms(
            2, (2 * b + 2, 2 * a + 1), (2 * a + 2, 2 * b + 1),
            ((2 * a, 2 * b + 3), 0, -(2 * a + 1)), ((2 * a + 3, 2 * b), 0, 2 * b + 1)), 4)
    return tuple_from_integers(terms(
        2, (2 * b, 2 * a + 1), (2 * a, 2 * b + 1),
        ((2 * a - 2, 2 * b + 3), 0, -2 * a), ((2 * a + 3, 2 * b - 2), 0, 2 * b)), 4)


# multi-term coefficients with fractions and formal symbols, n among them
coefficients = st.one_of(
    st.just(ParamPoly.zero()),
    st.builds(lambda terms: sum((ParamPoly.symbol(s) ** e * c for s, e, c in terms),
                                ParamPoly.zero()),
              st.lists(st.tuples(st.sampled_from(["n", "g2", "g3", "l1"]),
                                 st.integers(0, 2),
                                 st.fractions(-5, 5, max_denominator=6)),
                       min_size=1, max_size=4)),
)
bracket_specs = st.builds(BracketSpec, coefficients, coefficients, coefficients)
indices = st.integers(-4, 14)
n_values = st.one_of(st.none(), st.integers(-3, 16), st.fractions(-7, 7, max_denominator=9))


ZERO_SPEC = BracketSpec(ParamPoly.zero(), ParamPoly.zero(), ParamPoly.zero())
HALF_SPEC = BracketSpec(N * HALF - 1, ParamPoly.zero(), ParamPoly.symbol("g3") * Fraction(2, 3))


@settings(max_examples=300, deadline=None)
@given(bracket_specs, indices, indices, st.booleans(), n_values)
@example(ZERO_SPEC, -4, 14, False, None)
@example(ZERO_SPEC, 5, 5, True, Fraction(3, 2))
@example(HALF_SPEC, -3, 14, False, None)
@example(HALF_SPEC, 7, -4, False, 4)
@example(HALF_SPEC, -2, -2, True, Fraction(-5, 3))
def test_generator_bracket_matches_product_sum(spec, alpha, beta, equal, n_value):
    if equal:
        beta = alpha
    got = generator_bracket(alpha, beta, spec, n_value)
    expect = product_sum_bracket(alpha, beta, spec, n_value)
    assert got == expect
    assert got.to_text() == expect.to_text()
    assert got.support() == expect.support()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3]), indices, indices, st.booleans())
def test_bracket_basis_matches_tuple_keys(i, alpha, beta, equal):
    if equal:
        beta = alpha
    got = bracket_basis(i, alpha, beta)
    expect = tuple_bracket_basis(i, alpha, beta)
    assert got == expect
    assert got.support() == expect.support()


# -- Jacobi -------------------------------------------------------------------

def test_jacobiator_examples():
    spec = BracketSpec.custom()
    assert jacobiator(EPoly.gen(0), EPoly.gen(2), EPoly.gen(3), spec) == EPoly.zero()
    assert jacobiator(EPoly.gen(2), EPoly.gen(2), EPoly.gen(3), spec) == EPoly.zero()
    assert jacobiator(EPoly.gen(2), EPoly.gen(3), EPoly.gen(4),
                      BracketSpec.elliptic()) == EPoly.zero()


def test_jacobi_core_window_formal():
    rep = verify_jacobi_window([0] + list(range(2, 8)), BracketSpec.custom())
    assert rep.passed
    assert rep.max_residual == "exact-zero"


def test_jacobi_tiny_window_trivial():
    rep = verify_jacobi_window([0, 2], BracketSpec.elliptic())
    assert rep.passed
    assert rep.parameters["triples"] == 0


def test_jacobi_negative_window_report_only():
    # exploratory sweep outside the function-basis range; record the outcome
    rep = verify_jacobi_window(range(-4, 4), BracketSpec.custom())
    assert rep.status in ("pass", "fail")
    assert isinstance(rep.failures, list)


# -- closure ------------------------------------------------------------------

def test_closure_small_n():
    for n in (2, 3, 4, 5):
        for spec in (BracketSpec.elliptic(), BracketSpec.basis(1),
                     BracketSpec.basis(2), BracketSpec.basis(3)):
            assert verify_closure(n, spec).passed


def test_closure_n2_commutative():
    members = IndexSet.fn(2).members()
    for i in (1, 2, 3):
        for a in members:
            for b in members:
                br = bracket_basis(i, a, b).substitute_params({"n": 2})
                assert br == EPoly.zero()


def test_closure_boundary_coefficient():
    # the top-index coefficient kills the out-of-range monomial
    br = generator_bracket(2, 4, BracketSpec.basis(1), n_value=4)
    assert br.support() <= set(IndexSet.fn(4).members())
    formal = bracket_basis(1, 2, 4)
    assert (5 in formal.support())  # present formally, killed at n = 4


def test_closure_support_example():
    br = generator_bracket(0, 5, BracketSpec.elliptic(), n_value=5)
    assert br.support() <= {0, 2, 3, 4, 5}


# -- closure: the formal-support certificate against the all-numeric loop -----

def closure_oracle(n, spec):
    """verify_closure without the formal certificate: the bracket at this n
    of every pair decides it."""
    tally = Tally()
    allowed = IndexSet.fn(n)
    members = allowed.members()
    for idx, alpha in enumerate(members):
        for beta in members[idx:]:
            br = generator_bracket(alpha, beta, spec, n_value=Fraction(n))
            bad = sorted(a for a in br.support() if a not in allowed)
            if bad:
                tally.fail([alpha, beta], br.to_text(), escaped_indices=bad)
            elif n == 2 and br:
                tally.fail([alpha, beta], br.to_text(),
                           reason="nonzero bracket in the commutative case")
    params = {"n": n, "bracket": spec.describe(), "pairs": len(members) * (len(members) + 1) // 2}
    return tally.report(f"closure-n{n}", params)


def undecided_pairs(n, spec):
    """Pairs whose bracket with n formal leaves F_n (n > 2) or is nonzero (n = 2)."""
    members = IndexSet.fn(n).members()
    out = []
    for idx, alpha in enumerate(members):
        for beta in members[idx:]:
            formal = generator_bracket(alpha, beta, spec)
            if any(a not in IndexSet.fn(n) for a in formal.support()) or (n == 2 and formal):
                out.append((alpha, beta))
    return out


@pytest.fixture
def numeric_brackets(monkeypatch):
    """(alpha, beta) of every bracket verify_closure builds at a numeric n."""
    seen = []
    real = brackets.generator_bracket

    def counting(alpha, beta, spec, n_value=None):
        if n_value is not None:
            seen.append((alpha, beta))
        return real(alpha, beta, spec, n_value)

    monkeypatch.setattr(brackets, "generator_bracket", counting)
    return seen


@pytest.fixture
def fresh_brackets():
    """Empty generator-bracket memo before and after a test that patches
    ``bracket_basis``."""
    brackets._generator_bracket_cached.cache_clear()
    yield
    brackets._generator_bracket_cached.cache_clear()


def assert_closure_matches_oracle(specs, ns, numeric_brackets):
    for spec in specs:
        for n in ns:
            del numeric_brackets[:]
            assert verify_closure(n, spec).to_json() == closure_oracle(n, spec).to_json()
            assert numeric_brackets == undecided_pairs(n, spec)


def test_closure_certificate_matches_numeric_oracle(numeric_brackets):
    specs = [spec for _, spec in CLOSURE_BRACKETS] + [BracketSpec.custom(1, 2, 3)]
    assert_closure_matches_oracle(specs, range(2, 21), numeric_brackets)


def test_closure_certificate_builds_few_numeric_brackets(numeric_brackets):
    cases = 0
    for n in range(2, 15):
        for _, spec in CLOSURE_BRACKETS:
            cases += verify_closure(n, spec).parameters["pairs"]
    assert (cases, len(numeric_brackets)) == (2236, 182)


def test_closure_certificate_spec_mentions_n(numeric_brackets):
    # bracket 1 carries the factor n - 4, so every pair's bracket 1 part
    # vanishes at n = 4 only
    spec = BracketSpec(N - 4, ParamPoly.symbol("g2"), 2 * N)
    assert_closure_matches_oracle([spec], range(2, 16), numeric_brackets)


def perturbed_basis(monkeypatch, pair, extra):
    """bracket_basis with ``extra`` added to bracket 1 of ``pair`` (and
    subtracted from the reversed pair)."""
    real = brackets.bracket_basis

    def patched(i, alpha, beta):
        out = real(i, alpha, beta)
        if i == 1 and (alpha, beta) == pair:
            return out + extra
        if i == 1 and (beta, alpha) == pair:
            return out - extra
        return out

    monkeypatch.setattr(brackets, "bracket_basis", patched)


def test_closure_certificate_falls_back_where_a_coefficient_vanishes(
        monkeypatch, fresh_brackets, numeric_brackets):
    # e[0] e[40] escapes F_n for every n <= 20 formally, but its
    # coefficient n - 5 vanishes at n = 5
    perturbed_basis(monkeypatch, (2, 3), EPoly.monomial((0, 40), N - 5))
    spec = BracketSpec.basis(1)
    assert_closure_matches_oracle([spec], range(2, 21), numeric_brackets)
    assert verify_closure(5, spec).passed
    for n in (3, 4, 6, 20):
        report = verify_closure(n, spec)
        assert not report.passed
        assert report.failures[0]["witness"] == [2, 3]
        assert report.failures[0]["escaped_indices"] == [40]


def test_closure_certificate_keeps_n2_commutative_reason(
        monkeypatch, fresh_brackets, numeric_brackets):
    perturbed_basis(monkeypatch, (0, 2), EPoly.monomial((0, 2), N - 3))
    spec = BracketSpec.basis(1)
    report = verify_closure(2, spec)
    assert report.to_json() == closure_oracle(2, spec).to_json()
    assert [f["witness"] for f in report.failures] == [[0, 2]]
    assert report.failures[0]["reason"] == "nonzero bracket in the commutative case"
    assert report.failures[0]["residual-text"] == "(-1)*e[0]*e[2]"
    assert verify_closure(3, spec).to_json() == closure_oracle(3, spec).to_json()
