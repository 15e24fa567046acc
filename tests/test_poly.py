"""Coefficient ring and generator algebra: canonical forms, ring laws,
grading, substitution, and the text round trip."""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from elliptic_poisson.casimirs import casimirs
from elliptic_poisson.poly import (
    SYMBOLS,
    EPoly,
    IndexSet,
    ParamPoly,
    generator_bracket_sum,
    parse_epoly,
    parse_parampoly,
    signed_products,
)
from elliptic_poisson.poly import (
    _SYM_BITS, _SYM_MASK, _compose, _gen_bytes, _group, _pack_mono, _reduce, _substitute)

N = ParamPoly.symbol("n")
G2 = ParamPoly.symbol("g2")
G3 = ParamPoly.symbol("g3")


def substitute(p, assignment):
    return ParamPoly._wrap(*_substitute(p._terms, p._den, assignment))


def compose(p, assignment):
    return ParamPoly._wrap(*_compose(p._terms, p._den, assignment))


def collect(p, name):
    return {d: ParamPoly._wrap(*_reduce(group, p._den))
            for (d,), group in _group(p._terms, (name,)).items()}


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
    assert substitute(p, {"n": 2}) == ParamPoly.zero()
    assert substitute(p, {"n": 3}) == G2
    assert substitute(p, {}) == p


def test_parampoly_compose_pencil():
    t = ParamPoly.symbol("t")
    s2 = ParamPoly.symbol("s2")
    p = G2 * G2
    shifted = compose(p, {"g2": G2 + t * s2})
    assert shifted == G2 * G2 + 2 * G2 * t * s2 + t * t * s2 * s2


def test_parampoly_collect():
    t = ParamPoly.symbol("t")
    p = G2 + 2 * t * G3 + t * t
    parts = collect(p, "t")
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


def test_weight_profile_examples(weight_profile):
    assert weight_profile(EPoly.monomial((0, 4)) - EPoly.monomial((2, 2))) == 4
    assert weight_profile(EPoly.monomial((0, 0), G3 * Fraction(1, 4))) == 6
    assert weight_profile(EPoly.gen(2) + EPoly.gen(3)) == "inhomogeneous"
    assert weight_profile(EPoly.zero()) == "zero"


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
def test_weight_additivity(weight_profile, a, b):
    wa, wb = weight_profile(a), weight_profile(b)
    if isinstance(wa, int) and isinstance(wb, int):
        wab = weight_profile(a * b)
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


# Test-local copy of the tuple-sorted decoded view that the integer-keyed
# graded-lex order replaced: one index tuple per monomial, sorted by
# (size, tuple).
def _old_mono(key):
    g = key >> _SYM_BITS
    slots = g.to_bytes((g.bit_length() + 7) // 8, "little")
    out = []
    neg = slots[1::2]
    for s in range(len(neg) - 1, -1, -1):
        out += [~s] * neg[s]
    for alpha, mult in enumerate(slots[::2]):
        out += [alpha] * mult
    return tuple(out)


def _old_groups(p):
    groups = {}
    for k, v in p._terms.items():
        groups.setdefault(k >> _SYM_BITS, []).append((k & _SYM_MASK, v))
    out = sorted((len(mono), mono, items)
                 for mono, items in ((_old_mono(g << _SYM_BITS), items)
                                     for g, items in groups.items()))
    return tuple((mono, items) for _, mono, items in out)


def _old_coefficient_text(items, den):
    chunks = []
    for sym_key, num in sorted(items, reverse=True):
        mag = abs(num)
        g = gcd(mag, den)
        mag_text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        exps = sym_key.to_bytes(len(SYMBOLS), "big")
        mono = "*".join(s if e == 1 else f"{s}^{e}" for s, e in zip(SYMBOLS, exps) if e)
        body = mag_text if not mono else mono if mag == den else f"{mag_text}*{mono}"
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(chunks) or "0"


def _old_text(p):
    if not p._terms:
        return "0"
    return " + ".join(
        f"({_old_coefficient_text(items, p._den)})*"
        + ("*".join(f"e[{a}]" for a in mono) if mono else "1")
        for mono, items in _old_groups(p))


# indices from -200..300 reach slot 600, far past 64 bytes; the narrow range
# gives repeated indices
wide_monomials = st.lists(
    st.one_of(st.integers(min_value=-3, max_value=4),
              st.integers(min_value=-200, max_value=300)),
    min_size=0, max_size=5,
).map(tuple)

# up to 127 copies of up to four indices: sizes on both sides of 255, below
# which a size is its own residue mod 255
big_monomials = st.dictionaries(
    st.integers(min_value=-6, max_value=8), st.integers(min_value=1, max_value=127),
    max_size=4,
).map(lambda powers: tuple(a for a, mult in powers.items() for _ in range(mult)))

# a few fixed multi-term coefficients, so that equal coefficients repeat
repeated_coefficients = st.sampled_from(
    [G2 - 1, N * N + G3 * Fraction(3, 2), 2 * N - Fraction(1, 3)])

wide_e_polys = st.builds(
    EPoly,
    st.dictionaries(st.one_of(wide_monomials, big_monomials),
                    st.one_of(param_polys, rationals, repeated_coefficients), max_size=8),
)


def _power(*powers):
    """e[a]^m * ... over (a, m) pairs."""
    return EPoly.monomial(tuple(a for a, mult in powers for _ in range(mult)))


# slot sums 254, 255 and 260: only the first is its own residue mod 255
P254 = _power((0, 127), (2, 127))
P255 = _power((0, 127), (2, 127), (4, 1))
P260 = _power((0, 100), (2, 100), (4, 60))


@settings(max_examples=150, deadline=None)
@given(wide_e_polys)
def test_graded_lex_matches_tuple_sort(p):
    old = _old_groups(p)
    # the decoded view lists each coefficient's items in descending
    # symbol-key order (the tuple view sorted them at every use)
    assert p._groups() == tuple((mono, sorted(items, reverse=True)) for mono, items in old)
    assert p.to_text() == _old_text(p)
    assert parse_epoly(p.to_text()) == p
    old_terms = [(mono, ParamPoly({tuple(k.to_bytes(len(SYMBOLS), "big")): Fraction(v, p._den)
                                   for k, v in items}))
                 for mono, items in old]
    assert list(p.terms()) == old_terms
    values = {s: complex(i + 1, -i) / 3 for i, s in enumerate(SYMBOLS)}
    assert p.coefficient_values(values) == tuple((m, c.evaluate(values)) for m, c in old_terms)


def test_graded_lex_examples():
    # mixed sizes and signs, the empty monomial and multiplicities
    p = (EPoly.monomial((-3, 5)) + EPoly.monomial((-3, -3)) + EPoly.monomial((2,), N)
         + EPoly.monomial((-1, 0, 0)) + EPoly.one() * 7 + EPoly.monomial((40, -40))
         + EPoly.monomial((0, 0, 0), G2 - 1))
    assert [m for m, _ in p.terms()] == [
        (), (2,), (-40, 40), (-3, -3), (-3, 5), (-1, 0, 0), (0, 0, 0)]
    assert p.to_text() == _old_text(p)
    assert EPoly.zero()._groups() == ()
    # sizes at and past the residue bound sort after smaller ones
    q = P255 + P260 * N + P254 + EPoly.gen(3) + EPoly.one() + _power((-2, 127), (5, 128 - 1))
    assert [len(m) for m, _ in q.terms()] == [0, 1, 254, 254, 255, 260]
    assert q.to_text() == _old_text(q)
    # the slots of the OR sum to 255 and one size is 255, whose residue is 0
    r = P255 + EPoly.gen(2) + EPoly.one()
    assert [len(m) for m, _ in r.terms()] == [0, 1, 255]
    assert r.to_text() == _old_text(r)


@pytest.mark.parametrize("n", range(3, 13))
def test_casimir_text_matches_tuple_sort(n):
    for elem in casimirs(n).elements:
        # a fresh value, so that the memoized element keeps no decoded view
        p = EPoly._keep(elem._terms, elem._den, elem._merged())
        assert p._groups() == tuple((mono, sorted(items, reverse=True))
                                    for mono, items in _old_groups(p))
        assert p.to_text() == _old_text(p)


def _slot_sums(p):
    return {sum(_gen_bytes(k)) for k in p._terms}


@settings(max_examples=100, deadline=None)
@given(st.builds(EPoly, st.dictionaries(st.one_of(big_monomials, monomials),
                                        st.one_of(param_polys, rationals), max_size=4)))
def test_degrees_match_slot_sums(p):
    sizes = _slot_sums(p)
    assert p.degree() == max(sizes, default=0)
    assert p.homogeneous_degree() == (min(sizes) if len(sizes) == 1 else None)
    assert p.is_linear() == (sizes == {1})


def test_degrees_at_the_residue_bound():
    assert (P254.degree(), P255.degree(), P260.degree()) == (254, 255, 260)
    assert P255.homogeneous_degree() == 255
    assert P260.homogeneous_degree() == 260
    # 255 and 0, 260 and 5 share their residues
    assert (P255 + EPoly.one()).homogeneous_degree() is None
    assert (P260 + _power((3, 5))).homogeneous_degree() is None
    assert (P260 + _power((3, 5))).degree() == 260
    assert EPoly.zero().degree() == 0
    assert EPoly.zero().homogeneous_degree() is None
    assert EPoly.one().homogeneous_degree() == 0
    assert not EPoly.zero().is_linear() and not EPoly.one().is_linear()
    assert (EPoly.gen(-3) + EPoly.gen(7) * N).is_linear()
    assert not (EPoly.gen(-3) + P255).is_linear()


def _has_exact_or(p):
    merged = reduce(or_, p._terms, 0)
    return getattr(p, "_or", None) in (None, merged) and p._merged() == merged


# (packed monomial key, degree in n, numerator) items of EPoly.from_integers
integer_items = st.lists(st.tuples(monomials.map(_pack_mono),
                                   st.integers(min_value=0, max_value=4),
                                   st.integers(min_value=-9, max_value=9)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(e_polys, e_polys, integer_items, st.integers(min_value=1, max_value=12))
def test_kept_or_matches_the_keys(a, b, items, den):
    assert _has_exact_or(a)  # from __init__, computed here and kept
    # the kernel and the integer constructor keep the OR of their guard check
    kept = [
        signed_products([(1, a, b), (-1, b, b)]),
        a.bracket(b, lambda x, y: EPoly.monomial((x, y), N)),
        generator_bracket_sum([(2, b.partials())], lambda x, y: EPoly.gen(x - y)),
        EPoly.from_integers(items, den),
    ]
    assert all(v._or is not None for v in kept)
    others = [-a, a * b, a * G2, a + b, a - b,
              a.substitute_params({"n": Fraction(3, 2), "g2": 0}),
              *a.collect_symbol("g2").values()]
    if all(mono.count(2) < 2 for mono, _ in a.terms()):
        others += a.split_linear(2)
    for v in kept + others:
        assert _has_exact_or(v)


def test_coefficient_values_kept_per_parameters():
    P = EPoly.monomial((2, 4), N - 3) + EPoly.monomial((3,), N * N)
    at2 = P.coefficient_values({"n": 2})
    assert at2 == (((3,), 4 + 0j), ((2, 4), -1 + 0j))
    assert P.coefficient_values({"n": 2}) is at2
    assert P.coefficient_values({"n": 5}) == (((3,), 25 + 0j), ((2, 4), 2 + 0j))


@settings(max_examples=80, deadline=None)
@given(e_polys, st.integers(1, 9))
def test_supported_in_matches_support(p, n):
    allowed = IndexSet.fn(n)
    assert p.supported_in(allowed) == (p.support() <= set(allowed.members()))


def test_supported_in_examples():
    p = EPoly.monomial((0, 4), N) + EPoly.monomial((2, 2), G2)
    assert p.supported_in(IndexSet.fn(4))
    assert not p.supported_in(IndexSet.fn(3))
    assert not EPoly.gen(1).supported_in(IndexSet.fn(9))
    assert not EPoly.gen(-1).supported_in(IndexSet.fn(9))
    assert EPoly.zero().supported_in(IndexSet.fn(1))
    assert EPoly.monomial((), ParamPoly.symbol("s3")).supported_in(IndexSet.fn(1))


# -- IndexSet -----------------------------------------------------------------

def test_index_sets():
    fn = IndexSet.fn(5)
    assert fn.members() == [0, 2, 3, 4, 5]
    assert 1 not in fn and 0 in fn and 5 in fn and 6 not in fn
    assert list(fn) == [0, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        IndexSet.fn(0)
