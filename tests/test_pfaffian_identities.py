"""The Pfaffian identities of the Poisson matrix Pi = ({e[a], e[b]}) on F_n
under the elliptic bracket at numeric n, against a textbook Pfaffian, and
the odd centrality certificate that rests on them: it must hold for the
constructed elements, refuse a perturbed element or a wrong Pi, and then
leave the reports to the Leibniz brackets."""

import importlib
from fractions import Fraction
from functools import lru_cache

import pytest

from elliptic_poisson.brackets import BracketSpec, generator_bracket
from elliptic_poisson.casimirs import CasimirSet, casimirs, involution_family, verify_central
from elliptic_poisson.poly import EPoly, IndexSet, ParamPoly

casimirs_module = importlib.import_module("elliptic_poisson.casimirs")

# c_n of v_u = c_n dC/de[u], -n^((n-3)/2) / 2^((n-1)/2)
ODD_SCALE = {3: Fraction(-1, 2), 5: Fraction(-5, 4), 7: Fraction(-49, 8),
             9: Fraction(-729, 16)}
# the bordered Pfaffian over C, -(n/2)^((n-1)/2)
BORDERED_SCALE = {3: Fraction(-3, 2), 5: Fraction(-25, 4), 7: Fraction(-343, 8),
                  9: Fraction(-6561, 16), 11: Fraction(-161051, 32)}
# k^(k-2) with k = n/2
EVEN_SCALE = {4: 1, 6: 3, 8: 16, 10: 125}


def pfaffian(matrix):
    """Pfaffian of an antisymmetric matrix by expansion along the first row,
    memoized on the rows left; zero at odd size."""
    @lru_cache(maxsize=None)
    def pf(rows):
        if not rows:
            return EPoly.one()
        first, rest = rows[0], rows[1:]
        total = EPoly.zero()
        for place, j in enumerate(rest):
            if matrix[first][j]:
                term = matrix[first][j] * pf(rest[:place] + rest[place + 1:])
                total = total - term if place % 2 else total + term
        return total
    return pf(tuple(range(len(matrix))))


def without(matrix, positions):
    keep = [i for i in range(len(matrix)) if i not in positions]
    return [[matrix[i][j] for j in keep] for i in keep]


def derivative(P, alpha):
    out = {}
    for mono, coeff in P.terms():
        if alpha in mono:
            rest = list(mono)
            rest.remove(alpha)
            out[tuple(rest)] = coeff * mono.count(alpha)
    return EPoly(out)


def poisson_matrix(n, at=None):
    """Pi on F_n with the bracket taken at numeric ``at`` (default n)."""
    members = IndexSet.fn(n).members()
    return [[generator_bracket(a, b, BracketSpec.elliptic(), n_value=at or n) for b in members]
            for a in members]


def odd_identity_holds(pi, elem, n):
    members = IndexSet.fn(n).members()
    return all((-1) ** i * pfaffian(without(pi, {i})) == ODD_SCALE[n] * derivative(elem, u)
               for i, u in enumerate(members))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_principal_pfaffians_are_the_odd_gradient(n):
    assert ODD_SCALE[n] == Fraction(-n ** ((n - 3) // 2), 2 ** ((n - 1) // 2))
    assert odd_identity_holds(poisson_matrix(n), casimirs(n).elements[0], n)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_bordered_pfaffian_is_the_odd_element(n):
    assert BORDERED_SCALE[n] == -Fraction(n, 2) ** ((n - 1) // 2)
    members = IndexSet.fn(n).members()
    bordered = [row + [EPoly.gen(u)] for row, u in zip(poisson_matrix(n), members)]
    bordered.append([-EPoly.gen(u) for u in members] + [EPoly.zero()])
    assert pfaffian(bordered) == BORDERED_SCALE[n] * casimirs(n).elements[0]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_even_pfaffians_are_the_gradient_wedge(n):
    assert EVEN_SCALE[n] == (n // 2) ** (n // 2 - 2)
    pi = poisson_matrix(n)
    members = IndexSet.fn(n).members()
    c0, c1 = casimirs(n).elements
    assert pfaffian(pi) == EPoly.zero()
    for i, u in enumerate(members):
        for j in range(i + 1, len(members)):
            v = members[j]
            wedge = derivative(c0, u) * derivative(c1, v) - derivative(c0, v) * derivative(c1, u)
            assert (-1) ** (i + j + 1) * pfaffian(without(pi, {i, j})) == EVEN_SCALE[n] * wedge


@pytest.mark.parametrize("n", [5, 7])
def test_odd_identity_fails_for_the_bracket_at_n_plus_1(n):
    assert not odd_identity_holds(poisson_matrix(n, at=n + 1), casimirs(n).elements[0], n)


def bump(n, coeff):
    """casimirs(n) with the coefficient of its element's first monomial
    raised by ``coeff``, or with that monomial dropped (``coeff`` None)."""
    elem = casimirs(n).elements[0]
    mono, first = next(elem.terms())
    bumped = elem + EPoly.monomial(mono, -first if coeff is None else coeff)
    return CasimirSet(n=n, elements=(bumped,), kind="odd-single")


def test_odd_identity_fails_for_a_perturbed_element():
    assert not odd_identity_holds(poisson_matrix(5), bump(5, 1).elements[0], 5)


# -- the certificate in the centrality route ----------------------------------

@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_certificate_proves_the_odd_element(n):
    assert casimirs_module._odd_central(casimirs(n).elements[0], n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_only_even_centrality_brackets_the_element(n, monkeypatch):
    calls = []
    real = casimirs_module.bracket_poly
    monkeypatch.setattr(casimirs_module, "bracket_poly",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    cs = casimirs(n)
    assert verify_central(cs).passed
    assert len(calls) == (0 if n % 2 else len(cs.elements) * len(IndexSet.fn(n).members()))


def leibniz_only(monkeypatch, run):
    """``run()`` with the certificate turned off, so every element is
    bracketed with every generator."""
    with monkeypatch.context() as patch:
        patch.setattr(casimirs_module, "_odd_central", lambda elem, n: False)
        return run()


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("coeff", [1, ParamPoly.symbol("g3"), None], ids=["1", "g3", "dropped"])
def test_a_perturbed_element_falls_back_to_the_leibniz_verdict(n, coeff, monkeypatch):
    bumped = bump(n, coeff)
    assert not casimirs_module._odd_central(bumped.elements[0], n)
    rep = verify_central(bumped)
    assert not rep.passed
    assert rep.to_json() == leibniz_only(monkeypatch, lambda: verify_central(bumped)).to_json()
    monkeypatch.setattr(casimirs_module, "casimirs", lambda k: bumped if k == n else casimirs(k))
    rep = involution_family(n)
    assert not rep.passed
    assert rep.to_json() == leibniz_only(monkeypatch, lambda: involution_family(n)).to_json()


# generator_bracket replaced by a wrong Poisson matrix: the bracket at n + 1,
# or one whose entries below the diagonal are doubled (the Pfaffians read
# only the entries above it, so only the antisymmetry check can refuse it)
WRONG_MATRICES = {
    "at-n-plus-1": lambda real: lambda a, b, spec, n_value: real(a, b, spec, n_value=n_value + 1),
    "not-antisymmetric": lambda real: lambda a, b, spec, n_value: (
        real(a, b, spec, n_value=n_value) * (2 if a > b else 1)),
}


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("wrong", WRONG_MATRICES)
def test_a_wrong_poisson_matrix_falls_back_to_the_leibniz_verdict(n, wrong, monkeypatch):
    monkeypatch.setattr(casimirs_module, "generator_bracket",
                        WRONG_MATRICES[wrong](casimirs_module.generator_bracket))
    assert not casimirs_module._odd_central(casimirs(n).elements[0], n)
    for run in (lambda: verify_central(casimirs(n)), lambda: involution_family(n)):
        rep = run()
        assert rep.passed
        assert rep.to_json() == leibniz_only(monkeypatch, run).to_json()


def test_an_element_outside_f_n_falls_back_to_the_leibniz_verdict(monkeypatch):
    # e[6] has no derivative along F_5, so the Pfaffians alone would pass it
    elem = casimirs(5).elements[0] + EPoly.gen(6)
    assert not casimirs_module._odd_central(elem, 5)
    cs = CasimirSet(n=5, elements=(elem,), kind="odd-single")
    rep = verify_central(cs)
    assert not rep.passed
    assert rep.to_json() == leibniz_only(monkeypatch, lambda: verify_central(cs)).to_json()
