"""Coefficient ring and generator algebra: canonical forms, ring laws,
grading, substitution, and the text round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from elliptic_poisson.poly import (
    SYMBOLS,
    EPoly,
    IndexSet,
    ParamPoly,
    parse_epoly,
    parse_parampoly,
)

N = ParamPoly.symbol("n")
G2 = ParamPoly.symbol("g2")
G3 = ParamPoly.symbol("g3")


# -- strategies ---------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def exponent_vectors():
    # sparse: at most two symbols with small powers
    def build(positions, powers):
        exp = [0] * len(SYMBOLS)
        for pos, power in zip(positions, powers):
            exp[pos] = power
        return tuple(exp)
    return st.builds(
        build,
        st.lists(st.integers(min_value=0, max_value=len(SYMBOLS) - 1),
                 max_size=2, unique=True),
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2),
    )


param_polys = st.builds(
    ParamPoly,
    st.dictionaries(exponent_vectors(), rationals, max_size=3),
)

monomials = st.lists(
    st.integers(min_value=-4, max_value=8), min_size=0, max_size=3
).map(tuple)

e_polys = st.builds(
    EPoly,
    st.dictionaries(monomials, param_polys, max_size=4),
)


# -- ParamPoly ----------------------------------------------------------------

def test_parampoly_basic_arithmetic():
    p = N * N - 3 * N + Fraction(1, 2)
    q = 2 * N + G2
    assert p + q - q == p
    assert p * ParamPoly.one() == p
    assert p * ParamPoly.zero() == ParamPoly.zero()
    assert (N - 2) * (N + 2) == N * N - 4


def test_parampoly_pow():
    assert (N + 1) ** 2 == N * N + 2 * N + 1
    assert (N + 1) ** 0 == ParamPoly.one()


def test_parampoly_rejects_floats():
    with pytest.raises(TypeError):
        ParamPoly.const(0.5)


def test_parampoly_substitute():
    p = (N - 2) * G2
    assert p.substitute({"n": 2}) == ParamPoly.zero()
    assert p.substitute({"n": 3}) == G2
    assert p.substitute({}) == p


def test_parampoly_compose_pencil():
    t = ParamPoly.symbol("t")
    s2 = ParamPoly.symbol("s2")
    p = G2 * G2
    shifted = p.compose({"g2": G2 + t * s2})
    assert shifted == G2 * G2 + 2 * G2 * t * s2 + t * t * s2 * s2


def test_parampoly_collect():
    t = ParamPoly.symbol("t")
    p = G2 + 2 * t * G3 + t * t
    parts = p.collect("t")
    assert parts[0] == G2
    assert parts[1] == 2 * G3
    assert parts[2] == ParamPoly.one()


def test_parampoly_evaluate():
    p = N * G2 - 4
    v = p.evaluate({"n": 2 + 0j, "g2": 3 + 1j})
    assert v == (2 + 0j) * (3 + 1j) - 4
    with pytest.raises(KeyError):
        p.evaluate({"n": 1 + 0j})


def test_parampoly_evaluate_ignores_construction_order():
    big = 10 ** 16
    a = (big + G2) - big * G3
    b = (big - big * G3) + G2
    assert a == b
    values = {"g2": 1, "g3": 1}
    assert a.evaluate(values) == b.evaluate(values)


@settings(max_examples=60, deadline=None)
@given(param_polys, param_polys, param_polys)
def test_parampoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(param_polys)
def test_parampoly_text_roundtrip(p):
    assert parse_parampoly(p.to_text()) == p


# -- EPoly --------------------------------------------------------------------

def test_add_commutes_to_zero():
    lhs = EPoly.monomial((2, 0))
    rhs = -EPoly.monomial((0, 2))
    assert lhs + rhs == EPoly.zero()


def test_mul_merges_multisets():
    assert EPoly.gen(2) * EPoly.gen(2) == EPoly.monomial((2, 2))


def test_scalar_mul():
    p = EPoly.monomial((0, 2), Fraction(1, 4))
    assert G2 * p == EPoly.monomial((0, 2), G2 * Fraction(1, 4))


def test_canonical_idempotent():
    raw = {(4, 0): ParamPoly.one(), (0, 4): ParamPoly.const(-1)}
    p = EPoly(raw)
    assert p == EPoly(dict(p.terms()))
    assert p == EPoly.zero()


def test_support_examples():
    p = EPoly.monomial((2, 4), N - 3) + EPoly.monomial((3, 3), 2 - N * Fraction(1, 2))
    assert p.support() == {2, 3, 4}
    assert EPoly.zero().support() == set()
    assert EPoly.monomial((0, 0), G3 * Fraction(1, 4)).support() == {0}


def test_weight_profile_examples():
    assert (EPoly.monomial((0, 4)) - EPoly.monomial((2, 2))).weight_profile() == 4
    assert EPoly.monomial((0, 0), G3 * Fraction(1, 4)).weight_profile() == 6
    assert (EPoly.gen(2) + EPoly.gen(3)).weight_profile() == "inhomogeneous"
    assert EPoly.zero().weight_profile() == "zero"


@settings(max_examples=60, deadline=None)
@given(e_polys, e_polys, e_polys)
def test_epoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(e_polys, e_polys)
def test_substitute_commutes_with_arithmetic(a, b):
    assignment = {"n": Fraction(5), "g2": Fraction(-2, 3)}
    lhs = (a * b).substitute_params(assignment)
    rhs = a.substitute_params(assignment) * b.substitute_params(assignment)
    assert lhs == rhs
    lhs = (a + b).substitute_params(assignment)
    rhs = a.substitute_params(assignment) + b.substitute_params(assignment)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(e_polys, e_polys)
def test_weight_additivity(a, b):
    wa, wb = a.weight_profile(), b.weight_profile()
    if isinstance(wa, int) and isinstance(wb, int):
        wab = (a * b).weight_profile()
        assert wab in (wa + wb, "zero")


def test_substitute_params_examples():
    p = EPoly.monomial((0, 3), N - 2)
    assert p.substitute_params({"n": 2}) == EPoly.zero()
    assert p.substitute_params({}) == p
    # parameters zeroed in the degree-4 second central element
    c1 = (EPoly.monomial((2, 4)) - EPoly.monomial((3, 3))
          - EPoly.monomial((0, 2), G2 * Fraction(1, 4))
          - EPoly.monomial((0, 0), G3 * Fraction(1, 4)))
    reduced = c1.substitute_params({"g2": 0, "g3": 0})
    assert reduced == EPoly.monomial((2, 4)) - EPoly.monomial((3, 3))


def test_split_linear():
    p = EPoly.monomial((0, 5)) + EPoly.monomial((2, 3)) - EPoly.monomial((2, 5), G2)
    a, b = p.split_linear(5)
    assert a == EPoly.monomial((2, 3))
    assert b == EPoly.gen(0) - EPoly.monomial((2,), G2)
    with pytest.raises(ValueError):
        (EPoly.monomial((5, 5))).split_linear(5)


def test_collect_symbol():
    t = ParamPoly.symbol("t")
    p = EPoly.gen(2) * (ParamPoly.one() + t) + EPoly.gen(3) * (t * t)
    parts = p.collect_symbol("t")
    assert parts[0] == EPoly.gen(2)
    assert parts[1] == EPoly.gen(2)
    assert parts[2] == EPoly.gen(3)


@settings(max_examples=60, deadline=None)
@given(e_polys)
def test_epoly_text_roundtrip(p):
    assert parse_epoly(p.to_text()) == p


def test_epoly_text_canonical_order():
    p = EPoly.monomial((2, 4), N - 3) + EPoly.monomial((3, 3), 2 - N * Fraction(1, 2))
    assert p.to_text() == "(n - 3)*e[2]*e[4] + (-1/2*n + 2)*e[3]*e[3]"
    assert EPoly.zero().to_text() == "0"
    assert EPoly.one().to_text() == "(1)*1"


# -- IndexSet -----------------------------------------------------------------

def test_index_sets():
    fn = IndexSet.fn(5)
    assert fn.members() == [0, 2, 3, 4, 5]
    assert 1 not in fn and 0 in fn and 5 in fn and 6 not in fn
    win = IndexSet.window(-2, 3)
    assert win.members() == [-2, -1, 0, 1, 2, 3]
    full = IndexSet.full_z()
    assert -100 in full
    with pytest.raises(ValueError):
        full.members()
