"""The packed polynomial kernel against a reference built on sorted index
tuples and Fraction dicts: sums, products, Leibniz brackets, and the slot guard
that must raise instead of carrying into the next slot.  The Leibniz
bracket, which builds one partial derivative at a time, against the route
that builds them all up front.  The Jacobi window kernel against the
general ``jacobiator``, and the packed basis brackets against their
constructor-based definition."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from elliptic_poisson import brackets
from elliptic_poisson.brackets import (
    BracketSpec,
    SDiffSpec,
    bracket_basis,
    bracket_poly,
    generator_bracket,
    jacobiator,
    s_diff,
    verify_jacobi_window,
)
from elliptic_poisson.casimirs import casimirs
from elliptic_poisson.poly import (
    SYMBOLS,
    EPoly,
    IndexSet,
    ParamPoly,
    _signed_products,
    generator_bracket_sum,
    signed_products,
)
from elliptic_poisson.report import Tally

SLOT_MAX = 127  # largest multiplicity or exponent a slot holds


# -- reference implementation -------------------------------------------------
# An element is {sorted index tuple: {exponent tuple: Fraction}}, with no
# zero coefficients and no empty coefficient dicts.

def ref_coeff_add(acc, coeff):
    for exp, c in coeff.items():
        s = acc.get(exp, 0) + c
        if s:
            acc[exp] = s
        else:
            acc.pop(exp, None)


def ref_coeff_mul(c1, c2):
    out = {}
    for e1, a in c1.items():
        for e2, b in c2.items():
            ref_coeff_add(out, {tuple(x + y for x, y in zip(e1, e2)): a * b})
    return out


def ref_add_term(acc, mono, coeff):
    cur = acc.setdefault(mono, {})
    ref_coeff_add(cur, coeff)
    if not cur:
        del acc[mono]


def ref_mul(P, Q):
    acc = {}
    for m1, c1 in P.items():
        for m2, c2 in Q.items():
            ref_add_term(acc, tuple(sorted(m1 + m2)), ref_coeff_mul(c1, c2))
    return acc


def ref_bracket(P, Q, rule):
    """Leibniz rule term by term: every e[a] of a P monomial against every
    e[b] of a Q monomial, repeated indices counted once per occurrence."""
    acc = {}
    for m1, c1 in P.items():
        for m2, c2 in Q.items():
            c12 = ref_coeff_mul(c1, c2)
            for i, a in enumerate(m1):
                for j, b in enumerate(m2):
                    rest = m1[:i] + m1[i + 1:] + m2[:j] + m2[j + 1:]
                    for mg, cg in rule(a, b).items():
                        ref_add_term(acc, tuple(sorted(rest + mg)), ref_coeff_mul(c12, cg))
    return acc


def to_ref(p: EPoly):
    return {mono: dict(coeff.terms()) for mono, coeff in p.terms()}


def from_ref(P):
    return EPoly({mono: ParamPoly(coeff) for mono, coeff in P.items()})


# -- strategies ---------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


# every formal symbol may occur
exponent_vectors = st.lists(st.integers(0, 2), min_size=len(SYMBOLS),
                            max_size=len(SYMBOLS)).map(tuple)
coefficients = st.dictionaries(exponent_vectors, rationals, min_size=1, max_size=3) \
    .map(lambda c: {e: v for e, v in c.items() if v}).filter(bool)
# indices cover negative generators and e[1]
monomials = st.lists(st.integers(-4, 8), max_size=3).map(lambda m: tuple(sorted(m)))
elements = st.dictionaries(monomials, coefficients, max_size=4)

SPECS = (BracketSpec.custom(), BracketSpec.elliptic())


def spec_rule(spec, n_value):
    return lambda a, b: to_ref(generator_bracket(a, b, spec, n_value))


# -- products and brackets ----------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(elements, elements)
def test_product_matches_reference(P, Q):
    assert to_ref(from_ref(P) * from_ref(Q)) == ref_mul(P, Q)


@settings(max_examples=60, deadline=None)
@given(elements, elements, st.sampled_from(SPECS), st.sampled_from([None, Fraction(7)]))
def test_bracket_matches_reference(P, Q, spec, n_value):
    kernel = from_ref(P).bracket(
        from_ref(Q), lambda a, b: generator_bracket(a, b, spec, n_value))
    assert to_ref(kernel) == ref_bracket(P, Q, spec_rule(spec, n_value))


# g2 -> g2 + t*s2, g3 -> g3 + t*s3: an injective ring map of the coefficients
PENCIL_SHIFT = {"g2": ParamPoly.symbol("g2") + ParamPoly.symbol("t") * ParamPoly.symbol("s2"),
                "g3": ParamPoly.symbol("g3") + ParamPoly.symbol("t") * ParamPoly.symbol("s3")}


@settings(max_examples=60, deadline=None)
@given(elements, elements, st.sampled_from([None, Fraction(7)]))
def test_bracket_commutes_with_pencil_shift(P, Q, n_value):
    # phi({P, Q}_elliptic) == {phi(P), phi(Q)}_phi(elliptic), with t, s2, s3
    # (and every other symbol) free to occur in P and Q already
    p, q = from_ref(P), from_ref(Q)
    shifted = BracketSpec(ParamPoly.one(), PENCIL_SHIFT["g2"], PENCIL_SHIFT["g3"])
    direct = bracket_poly(p, q, BracketSpec.elliptic(), n_value).compose_params(PENCIL_SHIFT)
    assert direct == bracket_poly(p.compose_params(PENCIL_SHIFT), q.compose_params(PENCIL_SHIFT),
                                  shifted, n_value)


def ref_signed_products(items):
    acc = {}
    for sign, P, Q in items:
        for mono, coeff in ref_mul(P, Q).items():
            ref_add_term(acc, mono, {e: sign * c for e, c in coeff.items()})
    return acc


signed_items = st.lists(st.tuples(st.sampled_from([1, -1, 3]), elements, elements), max_size=4)


@settings(max_examples=40, deadline=None)
@given(signed_items)
def test_signed_products_match_reference(items):
    got = signed_products([(sign, from_ref(P), from_ref(Q)) for sign, P, Q in items])
    assert to_ref(got) == ref_signed_products(items)


@settings(max_examples=40, deadline=None)
@given(elements, elements)
def test_signed_products_cancel_to_canonical_zero(P, Q):
    p, q = from_ref(P), from_ref(Q)
    assert signed_products([(1, p, q), (-1, q, p)]) == EPoly.zero()
    assert signed_products([]) == EPoly.zero()
    assert signed_products([(-1, p, q)]) == -(p * q)


def ref_sum(P, Q, sign):
    acc = {}
    for mono, coeff in P.items():
        ref_add_term(acc, mono, coeff)
    for mono, coeff in Q.items():
        ref_add_term(acc, mono, {e: sign * c for e, c in coeff.items()})
    return acc


def ref_scalar(c):
    """A scalar as an element: a coefficient of the empty monomial."""
    if isinstance(c, ParamPoly):
        coeff = dict(c.terms())
    else:
        coeff = {(0,) * len(SYMBOLS): Fraction(c)}
    return {(): coeff} if c else {}


scalars = st.one_of(st.integers(-5, 5), rationals, coefficients.map(ParamPoly))


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_sum_and_difference_match_reference(P, Q):
    p, q = from_ref(P), from_ref(Q)
    assert to_ref(p + q) == ref_sum(P, Q, 1)
    assert to_ref(p - q) == ref_sum(P, Q, -1)
    assert p - p == EPoly.zero()


@settings(max_examples=60, deadline=None)
@given(elements, scalars)
def test_sum_with_scalar_matches_reference(P, c):
    p, C = from_ref(P), ref_scalar(c)
    assert to_ref(p + c) == to_ref(c + p) == ref_sum(P, C, 1)
    assert to_ref(p - c) == ref_sum(P, C, -1)
    assert to_ref(c - p) == ref_sum(C, P, -1)


# -- the Leibniz bracket against the route that takes all partials at once ----

SYM_BITS = 8 * len(SYMBOLS)


def all_partials(terms):
    """{alpha: [(key / e[alpha], numerator * multiplicity)]} for every
    generator at once, read off each term's generator bytes (slot 2*alpha
    for alpha >= 0, -2*alpha - 1 below)."""
    out = {}
    for k, v in terms.items():
        g = k >> SYM_BITS
        for slot, mult in enumerate(g.to_bytes((g.bit_length() + 7) // 8, "little")):
            if mult:
                alpha = slot // 2 if slot % 2 == 0 else -(slot + 1) // 2
                out.setdefault(alpha, []).append((k - (1 << SYM_BITS + 8 * slot), v * mult))
    return out


def bracket_all_partials(p, q, rule):
    """{P, Q} from every dP/de[a] and dQ/de[b] built up front, one
    {e[a], Q} * dP/de[a] product per generator of P, summed in one kernel
    call."""
    dq = (all_partials(q._terms), q._den)
    rows = []
    for a, pa in all_partials(p._terms).items():
        h = generator_bracket_sum(((a, dq),), rule)
        if h:
            rows.append((1, h._terms.items(), h._den, pa, p._den))
    return EPoly._keep(*_signed_products(rows))


@settings(max_examples=60, deadline=None)
@given(elements, elements, st.integers(-4, 8), st.sampled_from(SPECS),
       st.sampled_from([None, Fraction(7), Fraction(-3, 2)]))
def test_bracket_matches_all_partials_route(P, Q, r, spec, n_value):
    # a squared generator with a fractional coefficient rides along on both
    p = from_ref(P) + EPoly.monomial((r, r), Fraction(-5, 6))
    q = from_ref(Q) + EPoly.monomial((r - 1, r + 2, r + 2),
                                     ParamPoly.symbol("g2") * Fraction(1, 3))

    def rule(a, b):
        return generator_bracket(a, b, spec, n_value)
    assert p.partials() == (all_partials(p._terms), p._den)
    assert q.partials() == (all_partials(q._terms), q._den)
    got = p.bracket(q, rule)
    assert got == bracket_all_partials(p, q, rule)
    assert p.bracket(q, rule) == got
    assert q.bracket(p, rule) == bracket_all_partials(q, p, rule)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_casimir_brackets_match_all_partials_route(n):
    def rule(a, b):
        return generator_bracket(a, b, BracketSpec.elliptic(), Fraction(n))
    # a perturbation with a fractional g2 coefficient and a squared generator
    bump = EPoly.monomial((0, 2, n), ParamPoly.symbol("g2") * Fraction(2, 7)) \
        + EPoly.monomial((3, 3), Fraction(1, 5))
    for elem in casimirs(n).elements:
        perturbed = elem + bump
        assert perturbed.partials() == (all_partials(perturbed._terms), perturbed._den)
        results = {}
        for p in (elem, perturbed):
            for gamma in IndexSet.fn(n).members():
                got = results[p is elem, gamma] = p.bracket(EPoly.gen(gamma), rule)
                assert got == bracket_all_partials(p, EPoly.gen(gamma), rule)
        assert not any(v for (central, _), v in results.items() if central)
        assert any(v for (central, _), v in results.items() if not central)


@settings(max_examples=40, deadline=None)
@given(elements)
def test_round_trip_through_reference(P):
    p = from_ref(P)
    assert to_ref(p) == P
    assert p.num_terms() == len(P)


# -- slot width ---------------------------------------------------------------

def power(alpha, k):
    return {(alpha,) * k: {(0,) * len(SYMBOLS): Fraction(1)}}


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(0, SLOT_MAX), st.integers(0, SLOT_MAX))
def test_multiplicity_at_slot_width(alpha, j, k):
    # another generator rides along and must come out untouched
    P = ref_mul(power(alpha, j), power(alpha + 1, 1))
    Q = power(alpha, k)
    if j + k <= SLOT_MAX:
        assert to_ref(from_ref(P) * from_ref(Q)) == ref_mul(P, Q)
    else:
        with pytest.raises(OverflowError):
            from_ref(P) * from_ref(Q)


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(0, SLOT_MAX), st.integers(0, SLOT_MAX))
def test_signed_products_guard_the_slot(alpha, j, k):
    # the wide product is the second of two; the first stays far below the slot
    items = [(1, power(alpha + 1, 2), power(alpha, 1)), (-1, power(alpha, j), power(alpha, k))]
    packed = [(sign, from_ref(P), from_ref(Q)) for sign, P, Q in items]
    if j + k <= SLOT_MAX:
        assert to_ref(signed_products(packed)) == ref_signed_products(items)
    else:
        with pytest.raises(OverflowError):
            signed_products(packed)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SYMBOLS), st.integers(0, SLOT_MAX), st.integers(0, SLOT_MAX))
def test_exponent_at_slot_width(name, j, k):
    sym = ParamPoly.symbol(name)
    if j + k <= SLOT_MAX:
        exp = tuple(j + k if s == name else 0 for s in SYMBOLS)
        assert sym ** j * sym ** k == ParamPoly({exp: 1})
        assert EPoly.gen(0) * sym ** j * sym ** k == EPoly.monomial((0,), ParamPoly({exp: 1}))
    else:
        with pytest.raises(OverflowError):
            sym ** j * sym ** k


def test_constructors_reject_values_beyond_the_slot():
    with pytest.raises(OverflowError):
        EPoly.monomial((2,) * (SLOT_MAX + 1))
    with pytest.raises(OverflowError):
        EPoly.monomial((2,) * 256)  # a silent carry would leave the slot at 0
    with pytest.raises(OverflowError):
        ParamPoly({(SLOT_MAX + 1,) + (0,) * (len(SYMBOLS) - 1): 1})
    assert EPoly.monomial((2,) * SLOT_MAX).degree() == SLOT_MAX


def test_bracket_guards_the_slot():
    # {e[0]^127, e[1]} removes one e[0] and the rule adds two back
    P = EPoly.monomial((0,) * SLOT_MAX)
    with pytest.raises(OverflowError):
        P.bracket(EPoly.gen(1), lambda a, b: EPoly.monomial((0, 0)))
    ok = EPoly.monomial((0,) * (SLOT_MAX - 1)).bracket(
        EPoly.gen(1), lambda a, b: EPoly.monomial((0, 0)))
    assert ok == EPoly.monomial((0,) * SLOT_MAX, SLOT_MAX - 1)


# -- the Jacobi window kernel -------------------------------------------------

ORACLE_SPECS = (BracketSpec.custom(), BracketSpec.elliptic(), BracketSpec.basis(1),
                BracketSpec.basis(2), BracketSpec.basis(3))
windows = st.lists(st.integers(-5, 9), min_size=3, max_size=6, unique=True).map(sorted)


def window_jacobiators(window, spec, n_value):
    nv = None if n_value is None else Fraction(n_value)
    return dict(brackets._generator_jacobiators(window, spec, nv))


def oracle_jacobiators(window, spec, n_value):
    return {(a, b, c): jacobiator(EPoly.gen(a), EPoly.gen(b), EPoly.gen(c), spec, n_value)
            for a, b, c in combinations(window, 3)}


def oracle_report(window, spec, n_value, check_name):
    """verify_jacobi_window's report, with every triple run through jacobiator."""
    tally = Tally()
    for (a, b, c), jac in oracle_jacobiators(window, spec, n_value).items():
        tally.exact(jac, [a, b, c])
    n = len(window)
    return tally.report(check_name, {
        "window": window, "bracket": spec.describe(),
        "n": "formal" if n_value is None else str(Fraction(n_value)),
        "triples": n * (n - 1) * (n - 2) // 6})


@settings(max_examples=25, deadline=None)
@given(elements, st.integers(-4, 8), st.sampled_from(ORACLE_SPECS),
       st.sampled_from([None, Fraction(7), Fraction(-3, 2)]))
def test_generator_bracket_sum_is_the_leibniz_bracket(Q, alpha, spec, n_value):
    rule = lambda a, b: generator_bracket(a, b, spec, n_value)  # noqa: E731
    q = from_ref(Q)
    assert generator_bracket_sum([(alpha, q.partials())], rule) == \
        bracket_poly(EPoly.gen(alpha), q, spec, n_value)
    # two items accumulate to the sum of their brackets
    p = q * EPoly.gen(alpha + 1) + EPoly.gen(-2)
    assert generator_bracket_sum([(alpha, q.partials()), (alpha - 1, p.partials())], rule) == \
        bracket_poly(EPoly.gen(alpha), q, spec, n_value) \
        + bracket_poly(EPoly.gen(alpha - 1), p, spec, n_value)


def perturbed(pair, extra, antisymmetric):
    """A generator rule that is no longer Poisson: ``extra`` is added to the
    bracket of one ordered pair (and subtracted from the reversed pair when
    ``antisymmetric``)."""
    original = brackets._generator_bracket_cached

    def rule(alpha, beta, spec, n_value):
        value = original(alpha, beta, spec, n_value)
        if (alpha, beta) == pair:
            return value + extra
        if antisymmetric and (beta, alpha) == pair:
            return value - extra
        return value
    return rule


@settings(max_examples=30, deadline=None)
@given(windows, st.sampled_from(ORACLE_SPECS), st.sampled_from([None, 5, Fraction(7, 3)]),
       st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()))
def test_window_kernel_matches_jacobiator(window, spec, n_value, perturb):
    with pytest.MonkeyPatch.context() as mp:
        if perturb is not None:
            i, j, antisymmetric = perturb
            pair = (window[i % len(window)], window[j % len(window)])
            extra = EPoly.monomial((pair[0] - 1, 3), Fraction(2, 3)) + EPoly.gen(-1)
            mp.setattr(brackets, "_generator_bracket_cached",
                       perturbed(pair, extra, antisymmetric))
        assert window_jacobiators(window, spec, n_value) == \
            oracle_jacobiators(window, spec, n_value)


@pytest.mark.parametrize("antisymmetric", [True, False])
@pytest.mark.parametrize("pair", [(2, 3), (5, -2)])  # (5, -2) is read as {e[c], e[a]}
@pytest.mark.parametrize("n_value", [None, 6])
def test_perturbed_rule_fails_alike(monkeypatch, antisymmetric, pair, n_value):
    window = [-2, 0, 2, 3, 4, 5, 7]
    spec = BracketSpec.custom()
    extra = EPoly.monomial((0, 5), ParamPoly.symbol("l1") * Fraction(1, 3))
    monkeypatch.setattr(brackets, "_generator_bracket_cached",
                        perturbed(pair, extra, antisymmetric))
    kernel = window_jacobiators(window, spec, n_value)
    assert kernel == oracle_jacobiators(window, spec, n_value)
    assert any(kernel.values())
    rep = verify_jacobi_window(window, spec, n_value, check_name="jacobi-perturbed")
    assert not rep.passed
    assert rep.to_json() == oracle_report(window, spec, n_value, "jacobi-perturbed").to_json()


# -- packed basis brackets ----------------------------------------------------
# The basis brackets and s_diff as they were first written: ParamPoly and
# Fraction arithmetic through the EPoly constructor.

def ref_s_diff(spec):
    k, (a, b), (c, d) = spec.k, spec.first, spec.second
    if a == c:
        return EPoly.zero()
    if a < c:
        sign, base_a, base_b, m = 1, a, b, (c - a) // k
    else:
        sign, base_a, base_b, m = -1, c, d, (a - c) // k
    terms = {}
    for r in range(m):
        mono = tuple(sorted((base_a + k * r, base_b - k * r)))
        terms[mono] = terms.get(mono, 0) + sign
    return EPoly(terms)


def ref_bracket_basis(i, alpha, beta):
    N = ParamPoly.symbol("n")

    def sd(k, first, second):
        return ref_s_diff(SDiffSpec(k, first, second))

    def mono2(a, b, coeff):
        return EPoly.monomial((a, b), coeff)

    if i == 1:
        return (N * Fraction(1, 2)) * sd(1, (alpha + 1, beta), (beta + 1, alpha)) \
            + mono2(alpha + 1, beta, ParamPoly.const(alpha) - N) \
            - mono2(alpha, beta + 1, ParamPoly.const(beta) - N)
    if alpha % 2 == 0 and beta % 2 == 0:
        return EPoly.zero()
    if alpha % 2 and beta % 2 == 0:
        return -ref_bracket_basis(i, beta, alpha)
    if alpha % 2 == 0:
        a, b = alpha // 2, (beta - 3) // 2
        if i == 2:
            return (N * Fraction(1, 8)) * sd(2, (2 * b + 2, 2 * a - 2), (2 * a, 2 * b)) \
                + mono2(2 * a, 2 * b, Fraction(2 * b + 1, 4))
        return (N * Fraction(1, 8)) * sd(2, (2 * b, 2 * a - 2), (2 * a, 2 * b - 2)) \
            + mono2(2 * a, 2 * b - 2, Fraction(b, 2))
    a, b = (alpha - 3) // 2, (beta - 3) // 2
    if i == 2:
        return (N * Fraction(1, 4)) * sd(2, (2 * b + 2, 2 * a + 1), (2 * a + 2, 2 * b + 1)) \
            - mono2(2 * a, 2 * b + 3, Fraction(2 * a + 1, 4)) \
            + mono2(2 * a + 3, 2 * b, Fraction(2 * b + 1, 4))
    return (N * Fraction(1, 4)) * sd(2, (2 * b, 2 * a + 1), (2 * a, 2 * b + 1)) \
        - mono2(2 * a - 2, 2 * b + 3, Fraction(a, 2)) \
        + mono2(2 * a + 3, 2 * b - 2, Fraction(b, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(-12, 16), st.integers(-12, 16))
def test_packed_bracket_basis_matches_constructor(i, alpha, beta):
    assert bracket_basis(i, alpha, beta) == ref_bracket_basis(i, alpha, beta)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(-8, 8), st.integers(-8, 8), st.integers(-3, 3))
def test_packed_s_diff_matches_constructor(k, a, b, steps):
    spec = SDiffSpec(k, (a, b), (a + k * steps, b - k * steps))
    assert s_diff(spec) == ref_s_diff(spec)


@pytest.mark.parametrize("k, first, second", [
    (1, (0, 4), (4, 0)),    # e[1]e[3] twice, e[2]^2 once
    (2, (-3, 5), (5, -3)),  # e[-1]e[3] twice, e[1]^2 once
    (1, (5, 1), (1, 5)),    # reversed orientation: e[2]e[4] twice, e[3]^2 once
    (2, (2, 2), (2, 2)),    # equal first entries: zero
])
def test_s_diff_coinciding_indices(k, first, second):
    spec = SDiffSpec(k, first, second)
    assert s_diff(spec) == ref_s_diff(spec)
