"""The three quadratic generator brackets, their combinations, and their verifiers.

Bracket conventions (all exact, with the degree parameter ``n`` formal):

* bracket 1 acts on any pair of generator indices and raises weight by 1;
* brackets 2 and 3 are parity-dependent (even indices are written ``2a``,
  odd indices ``2a+3``) and lower weight by 3 and 5 respectively;
* even-even pairs vanish for brackets 2 and 3.

Infinite tail sums with matching index totals and residues are reduced in
closed form to their finite difference; the truncation oracle lives in the
test suite only.

The basis brackets are built in integers from packed monomial keys.  A
generator bracket c1*{,}_1 + c2*{,}_2 + c3*{,}_3 is one ``signed_products``
accumulation of the three coefficient-times-basis products, with ``n``
formal; at a numeric ``n`` it is that memoized bracket with ``n``
substituted, so each pair is combined once for every n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .poly import (EPoly, IndexSet, ParamPoly, Partials, _unit, generator_bracket_sum,
                   signed_products)
from .report import Report, Tally

__all__ = [
    "SDiffSpec",
    "BracketSpec",
    "s_diff",
    "bracket_basis",
    "generator_bracket",
    "bracket_poly",
    "jacobiator",
    "verify_jacobi_window",
    "verify_closure",
]


@dataclass(frozen=True)
class SDiffSpec:
    """Difference of two tail sums S_k: requires equal index totals and
    first entries congruent mod k, so the difference is finite."""

    k: int
    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self):
        a, b = self.first
        c, d = self.second
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if a + b != c + d:
            raise ValueError(f"index totals differ: {a}+{b} != {c}+{d}")
        if (a - c) % self.k != 0:
            raise ValueError(f"{a} and {c} are not congruent mod {self.k}")


def _sdiff_terms(spec: SDiffSpec) -> list[tuple[int, int]]:
    """(packed monomial key, sign) terms of :func:`s_diff`; monomials may
    coincide."""
    k = spec.k
    a, b = spec.first
    c, d = spec.second
    if a < c:
        sign, base_a, base_b, m = 1, a, b, (c - a) // k
    else:
        sign, base_a, base_b, m = -1, c, d, (a - c) // k
    return [(_unit(base_a + k * r) + _unit(base_b - k * r), sign) for r in range(m)]


def s_diff(spec: SDiffSpec) -> EPoly:
    """Finite remainder of S_k(first) - S_k(second).

    With first = (a, b), second = (c, d) and a <= c this is
    sum_{r=0}^{(c-a)/k - 1} e[a+k*r] * e[b-k*r]; the orientation flips the
    sign when a > c.
    """
    return EPoly.from_integers((key, 0, sign) for key, sign in _sdiff_terms(spec))


def _basis_terms(k: int, first: tuple[int, int], second: tuple[int, int],
                 *rest: tuple[tuple[int, int], int, int]):
    """The terms n * s_diff(k, first, second) followed by the
    ((a, b), degree in n, numerator) terms ``rest``, as (packed monomial key,
    degree in n, numerator) items for ``EPoly.from_integers``."""
    for key, sign in _sdiff_terms(SDiffSpec(k, first, second)):
        yield key, 1, sign
    for (a, b), d, num in rest:
        yield _unit(a) + _unit(b), d, num


@lru_cache(maxsize=None)
def bracket_basis(i: int, alpha: int, beta: int) -> EPoly:
    """Basis bracket i of a generator pair, with ``n`` formal.

    Total on all integer index pairs; antisymmetric; homogeneous of weight
    alpha+beta+1, alpha+beta-3, alpha+beta-5 for i = 1, 2, 3 (or zero).
    Brackets 2 and 3 are one formula per parity case in the shift s = i - 2
    (comments below).  Built in integers over the denominator 2, 8 or 4 of
    its ``n`` term.
    """
    if i == 1:
        # n/2 * s_diff + (alpha - n) e[alpha+1] e[beta] - (beta - n) e[alpha] e[beta+1]
        return EPoly.from_integers(_basis_terms(
            1, (alpha + 1, beta), (beta + 1, alpha),
            ((alpha + 1, beta), 0, 2 * alpha), ((alpha + 1, beta), 1, -2),
            ((alpha, beta + 1), 0, -2 * beta), ((alpha, beta + 1), 1, 2)), 2)
    if i not in (2, 3):
        raise ValueError(f"bracket index must be 1, 2 or 3, got {i}")
    alpha_even = alpha % 2 == 0
    beta_even = beta % 2 == 0
    if alpha_even and beta_even:
        return EPoly.zero()
    if not alpha_even and beta_even:
        return -bracket_basis(i, beta, alpha)
    s = i - 2
    b = (beta - 3) // 2
    if alpha_even:
        # pair (e[2a], e[2b+3]): n/8 * s_diff + (2b+1-s)/4 e[2a] e[2b-2s]
        a = alpha // 2
        return EPoly.from_integers(_basis_terms(
            2, (2 * b + 2 - 2 * s, 2 * a - 2), (2 * a, 2 * b - 2 * s),
            ((2 * a, 2 * b - 2 * s), 0, 2 * (2 * b + 1 - s))), 8)
    # pair (e[2a+3], e[2b+3]):
    # n/4 * s_diff - (2a+1-s)/4 e[2a-2s] e[2b+3] + (2b+1-s)/4 e[2a+3] e[2b-2s]
    a = (alpha - 3) // 2
    return EPoly.from_integers(_basis_terms(
        2, (2 * b + 2 - 2 * s, 2 * a + 1), (2 * a + 2 - 2 * s, 2 * b + 1),
        ((2 * a - 2 * s, 2 * b + 3), 0, -(2 * a + 1 - s)),
        ((2 * a + 3, 2 * b - 2 * s), 0, 2 * b + 1 - s)), 4)


@dataclass(frozen=True)
class BracketSpec:
    """Which bracket to apply: c1*{,}_1 + c2*{,}_2 + c3*{,}_3."""

    c1: ParamPoly
    c2: ParamPoly
    c3: ParamPoly

    @classmethod
    def basis(cls, i: int) -> "BracketSpec":
        if i not in (1, 2, 3):
            raise ValueError(f"basis bracket index must be 1, 2 or 3, got {i}")
        coeffs = [ParamPoly.zero()] * 3
        coeffs[i - 1] = ParamPoly.one()
        return cls(*coeffs)

    @classmethod
    def elliptic(cls) -> "BracketSpec":
        """The combination {,}_1 + g2*{,}_2 + g3*{,}_3."""
        return cls(ParamPoly.one(), ParamPoly.symbol("g2"), ParamPoly.symbol("g3"))

    @classmethod
    def custom(cls, l1=None, l2=None, l3=None) -> "BracketSpec":
        """A (l1, l2, l3) combination; omitted entries stay formal."""
        def coeff(value, name):
            if value is None:
                return ParamPoly.symbol(name)
            if isinstance(value, ParamPoly):
                return value
            return ParamPoly.const(value)
        return cls(coeff(l1, "l1"), coeff(l2, "l2"), coeff(l3, "l3"))

    def describe(self) -> str:
        return f"({self.c1.to_text()}, {self.c2.to_text()}, {self.c3.to_text()})"


@lru_cache(maxsize=None)
def _generator_bracket_cached(alpha: int, beta: int, spec: BracketSpec,
                              n_value: Fraction | None) -> EPoly:
    """c1*{e_a, e_b}_1 + c2*{e_a, e_b}_2 + c3*{e_a, e_b}_3 in one accumulation
    (a ``ParamPoly`` key is an ``EPoly`` key); at a numeric n, the bracket
    with n formal, memoized too, with n substituted."""
    if n_value is not None:
        formal = _generator_bracket_cached(alpha, beta, spec, None)
        return formal.substitute_params({"n": n_value})
    return signed_products((1, c, bracket_basis(i, alpha, beta))
                           for i, c in ((1, spec.c1), (2, spec.c2), (3, spec.c3)) if c)


def generator_bracket(alpha: int, beta: int, spec: BracketSpec,
                      n_value: Fraction | int | None = None) -> EPoly:
    """Bracket of a generator pair under a combination spec."""
    nv = Fraction(n_value) if n_value is not None else None
    return _generator_bracket_cached(alpha, beta, spec, nv)


def bracket_poly(P: EPoly, Q: EPoly, spec: BracketSpec,
                 n_value: Fraction | int | None = None) -> EPoly:
    """Leibniz extension of the generator brackets to the whole algebra.

    Bilinear and antisymmetric by construction; coefficients are treated
    as central scalars.
    """
    nv = Fraction(n_value) if n_value is not None else None
    return P.bracket(Q, lambda a, b: _generator_bracket_cached(a, b, spec, nv))


def jacobiator(P: EPoly, Q: EPoly, R: EPoly, spec: BracketSpec,
               n_value: Fraction | int | None = None) -> EPoly:
    """{P,{Q,R}} + {Q,{R,P}} + {R,{P,Q}} under the given spec."""
    return (
        bracket_poly(P, bracket_poly(Q, R, spec, n_value), spec, n_value)
        + bracket_poly(Q, bracket_poly(R, P, spec, n_value), spec, n_value)
        + bracket_poly(R, bracket_poly(P, Q, spec, n_value), spec, n_value)
    )


def _generator_jacobiators(members, spec: BracketSpec, n_value: Fraction | None):
    """((a, b, c), J) for every increasing triple of ``members``, where
    J = jacobiator(e[a], e[b], e[c]) = sum over the cyclic shifts of
    {e[a], {e[b], e[c]}} = sum over beta of {e[a], e[beta]} * d{e[b], e[c]}/de[beta].

    Each ordered pair's bracket and partials are taken once per call, and
    each triple is one ``generator_bracket_sum``.
    """
    rules: dict[tuple[int, int], EPoly] = {}
    partials: dict[tuple[int, int], Partials] = {}

    def rule(a: int, b: int) -> EPoly:
        r = rules.get((a, b))
        if r is None:
            r = rules[a, b] = _generator_bracket_cached(a, b, spec, n_value)
        return r

    def partial(b: int, c: int) -> Partials:
        p = partials.get((b, c))
        if p is None:
            p = partials[b, c] = rule(b, c).partials()
        return p

    for a, b, c in combinations(members, 3):
        yield (a, b, c), generator_bracket_sum(
            ((a, partial(b, c)), (b, partial(c, a)), (c, partial(a, b))), rule)


def verify_jacobi_window(window, spec: BracketSpec,
                         n_value: Fraction | int | None = None,
                         check_name: str = "jacobi") -> Report:
    """Run the Jacobi identity on all distinct generator triples in a window.

    Triples with a repeated entry vanish identically by antisymmetry and
    bilinearity, so only strictly increasing triples are checked.  Each
    triple's Jacobiator is accumulated at once from the generator brackets
    and their partial derivatives; it equals :func:`jacobiator` on the three
    generators.
    """
    tally = Tally()
    members = sorted(window)
    nv = Fraction(n_value) if n_value is not None else None
    for triple, jac in _generator_jacobiators(members, spec, nv):
        tally.exact(jac, list(triple))
    params = {
        "window": members,
        "bracket": spec.describe(),
        "n": "formal" if n_value is None else str(Fraction(n_value)),
        "triples": len(members) * (len(members) - 1) * (len(members) - 2) // 6,
    }
    return tally.report(check_name, params)


def verify_closure(n: int, spec: BracketSpec,
                   check_name: str | None = None) -> Report:
    """Check {F_n, F_n} stays inside F_n = {0} u {2..n}, for numeric n.

    For n = 2 the subalgebra must be commutative, so any nonzero bracket is
    reported as a failure as well.

    Each pair is first certified from its bracket with ``n`` formal, which
    is built once per pair for every n.  The bracket at this n is that one
    with ``n`` substituted, and substitution maps each coefficient to a
    number without creating a monomial, so its support lies inside the
    formal support.  A formal support inside F_n (for n = 2: a zero formal
    bracket) therefore passes the pair; otherwise the bracket at this n
    decides it.
    """
    if n < 2:
        raise ValueError("closure check needs n >= 2")
    tally = Tally()
    allowed = IndexSet.fn(n)
    members = allowed.members()
    for idx, alpha in enumerate(members):
        for beta in members[idx:]:
            formal = _generator_bracket_cached(alpha, beta, spec, None)
            certified = formal.supported_in(allowed) if n > 2 else not formal
            if certified:
                continue
            br = generator_bracket(alpha, beta, spec, n_value=Fraction(n))
            bad = sorted(a for a in br.support() if a not in allowed)
            if bad:
                tally.fail([alpha, beta], br.to_text(), escaped_indices=bad)
            elif n == 2 and br:
                tally.fail([alpha, beta], br.to_text(),
                           reason="nonzero bracket in the commutative case")
    params = {"n": n, "bracket": spec.describe(), "pairs": len(members) * (len(members) + 1) // 2}
    return tally.report(check_name or f"closure-n{n}", params)
