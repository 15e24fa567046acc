"""The packed polynomial kernel against a reference built on sorted index
tuples and Fraction dicts: products, Leibniz brackets, and the slot guard
that must raise instead of carrying into the next slot."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from elliptic_poisson.brackets import BracketSpec, generator_bracket
from elliptic_poisson.poly import SYMBOLS, EPoly, ParamPoly

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
