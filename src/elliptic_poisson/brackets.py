"""The three quadratic generator brackets, pencils, and their verifiers.

Bracket conventions (all exact, with the degree parameter ``n`` formal):

* bracket 1 acts on any pair of generator indices and raises weight by 1;
* brackets 2 and 3 are parity-dependent (even indices are written ``2a``,
  odd indices ``2a+3``) and lower weight by 3 and 5 respectively;
* even-even pairs vanish for brackets 2 and 3.

Infinite tail sums with matching index totals and residues are reduced in
closed form to their finite difference; the truncation oracle lives in the
test suite only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .poly import EPoly, IndexSet, ParamPoly
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

_N = ParamPoly.symbol("n")
_HALF = Fraction(1, 2)


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


def s_diff(spec: SDiffSpec) -> EPoly:
    """Finite remainder of S_k(first) - S_k(second).

    With first = (a, b), second = (c, d) and a <= c this is
    sum_{r=0}^{(c-a)/k - 1} e[a+k*r] * e[b-k*r]; the orientation flips the
    sign when a > c.
    """
    k = spec.k
    a, b = spec.first
    c, d = spec.second
    if a == c:
        return EPoly.zero()
    if a < c:
        sign, base_a, base_b, m = 1, a, b, (c - a) // k
    else:
        sign, base_a, base_b, m = -1, c, d, (a - c) // k
    return EPoly({(base_a + k * r, base_b - k * r): sign for r in range(m)})


def _sdiff(k: int, first: tuple[int, int], second: tuple[int, int]) -> EPoly:
    return s_diff(SDiffSpec(k, first, second))


def _mono2(a: int, b: int, coeff) -> EPoly:
    return EPoly.monomial((a, b), coeff)


@lru_cache(maxsize=None)
def bracket_basis(i: int, alpha: int, beta: int) -> EPoly:
    """Basis bracket i of a generator pair, with ``n`` formal.

    Total on all integer index pairs; antisymmetric; homogeneous of weight
    alpha+beta+1, alpha+beta-3, alpha+beta-5 for i = 1, 2, 3 (or zero).
    """
    if i == 1:
        res = (_N * _HALF) * _sdiff(1, (alpha + 1, beta), (beta + 1, alpha))
        res = res + _mono2(alpha + 1, beta, ParamPoly.const(alpha) - _N)
        res = res - _mono2(alpha, beta + 1, ParamPoly.const(beta) - _N)
        return res
    if i not in (2, 3):
        raise ValueError(f"bracket index must be 1, 2 or 3, got {i}")
    alpha_even = alpha % 2 == 0
    beta_even = beta % 2 == 0
    if alpha_even and beta_even:
        return EPoly.zero()
    if not alpha_even and beta_even:
        return -bracket_basis(i, beta, alpha)
    if alpha_even:
        # pair (e[2a], e[2b+3])
        a = alpha // 2
        b = (beta - 3) // 2
        if i == 2:
            return (_N * Fraction(1, 8)) * _sdiff(2, (2 * b + 2, 2 * a - 2), (2 * a, 2 * b)) \
                + _mono2(2 * a, 2 * b, Fraction(2 * b + 1, 4))
        return (_N * Fraction(1, 8)) * _sdiff(2, (2 * b, 2 * a - 2), (2 * a, 2 * b - 2)) \
            + _mono2(2 * a, 2 * b - 2, Fraction(b, 2))
    # pair (e[2a+3], e[2b+3])
    a = (alpha - 3) // 2
    b = (beta - 3) // 2
    if i == 2:
        return (_N * Fraction(1, 4)) * _sdiff(2, (2 * b + 2, 2 * a + 1), (2 * a + 2, 2 * b + 1)) \
            - _mono2(2 * a, 2 * b + 3, Fraction(2 * a + 1, 4)) \
            + _mono2(2 * a + 3, 2 * b, Fraction(2 * b + 1, 4))
    return (_N * Fraction(1, 4)) * _sdiff(2, (2 * b, 2 * a + 1), (2 * a, 2 * b + 1)) \
        - _mono2(2 * a - 2, 2 * b + 3, Fraction(a, 2)) \
        + _mono2(2 * a + 3, 2 * b - 2, Fraction(b, 2))


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

    @classmethod
    def pencil_direction(cls) -> "BracketSpec":
        """The direction s2*{,}_2 + s3*{,}_3 of the parameter pencil."""
        return cls(ParamPoly.zero(), ParamPoly.symbol("s2"), ParamPoly.symbol("s3"))

    def describe(self) -> str:
        return f"({self.c1.to_text()}, {self.c2.to_text()}, {self.c3.to_text()})"


@lru_cache(maxsize=None)
def _generator_bracket_cached(alpha: int, beta: int, spec: BracketSpec,
                              n_value: Fraction | None) -> EPoly:
    res = EPoly.zero()
    for i, c in ((1, spec.c1), (2, spec.c2), (3, spec.c3)):
        if c:
            res = res + c * bracket_basis(i, alpha, beta)
    if n_value is not None:
        res = res.substitute_params({"n": n_value})
    return res


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


def verify_jacobi_window(window, spec: BracketSpec,
                         n_value: Fraction | int | None = None,
                         check_name: str = "jacobi") -> Report:
    """Run the Jacobi identity on all distinct generator triples in a window.

    Triples with a repeated entry vanish identically by antisymmetry and
    bilinearity, so only strictly increasing triples are checked.
    """
    tally = Tally()
    members = sorted(window)
    for a, b, c in combinations(members, 3):
        tally.exact(jacobiator(EPoly.gen(a), EPoly.gen(b), EPoly.gen(c), spec, n_value),
                    [a, b, c])
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
    """
    if n < 2:
        raise ValueError("closure check needs n >= 2")
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
    return tally.report(check_name or f"closure-n{n}", params)
