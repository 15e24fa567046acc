"""Central-element constructions: function matrices, symmetric determinants,
the even-degree pair, odd-degree elimination, and the pencil involution
families.

Two different products appear side by side here and must not be confused:

* the symmetric-algebra product (``EPoly * EPoly``), used when expanding a
  determinant whose entries live in different tensor factors, and
* the pointwise function product ``fmul``, which multiplies basis functions
  of a single variable and re-expands the result in the generator basis
  (odd * odd picks up g2/g3 corrections through the cubic relation for the
  derivative square).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .poly import EPoly, IndexSet, ParamPoly
from .report import Report, make_report
from .brackets import BracketSpec, bracket_poly

__all__ = [
    "FMatrix",
    "CasimirSet",
    "IntegrityError",
    "fmul",
    "fmul_poly",
    "fdiv_wp",
    "wp_shift",
    "build_matrix",
    "sym_det",
    "casimir_even",
    "casimir_odd",
    "casimirs",
    "substituted_casimirs",
    "verify_central",
    "rank1_identity_check",
    "involution_family",
    "pencil_family",
]

_G2 = ParamPoly.symbol("g2")
_G3 = ParamPoly.symbol("g3")
_QUARTER = Fraction(1, 4)


class IntegrityError(RuntimeError):
    """A structural cancellation promised by the construction failed."""


@dataclass(frozen=True)
class FMatrix:
    """Square matrix whose entries are single-variable functions expanded in
    the generator basis (every entry has degree 1)."""

    entries: tuple[tuple[EPoly, ...], ...]

    def __post_init__(self):
        size = len(self.entries)
        for row in self.entries:
            if len(row) != size:
                raise ValueError("matrix must be square")
            for entry in row:
                if entry and not entry.is_linear():
                    raise ValueError("matrix entries must have degree 1")

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CasimirSet:
    """Central elements for one value of n: an even-n pair or an odd-n single."""

    n: int
    elements: tuple[EPoly, ...]
    kind: str  # "even-pair" | "odd-single"


def fmul(alpha: int, beta: int) -> EPoly:
    """Pointwise product of two basis functions, re-expanded in the basis.

    even*even and even*odd multiply to the single generator of index
    alpha+beta; odd*odd additionally picks up
    -g2/4 e[alpha+beta-4] - g3/4 e[alpha+beta-6].
    """
    if alpha % 2 == 0 or beta % 2 == 0:
        return EPoly.gen(alpha + beta)
    s = alpha + beta
    return (
        EPoly.gen(s)
        - EPoly.monomial((s - 4,), _G2 * _QUARTER)
        - EPoly.monomial((s - 6,), _G3 * _QUARTER)
    )


def fmul_poly(P: EPoly, Q: EPoly) -> EPoly:
    """Bilinear extension of ``fmul`` to degree-1 elements."""
    if (P and not P.is_linear()) or (Q and not Q.is_linear()):
        raise ValueError("function products need degree-1 operands")
    out = EPoly.zero()
    for (a,), ca in P.terms():
        for (b,), cb in Q.terms():
            out = out + fmul(a, b) * ca * cb
    return out


def wp_shift(P: EPoly, steps: int) -> EPoly:
    """Multiply a degree-1 element by the weight-2 base function ``steps``
    times (negative steps divide); acts as index shift by 2*steps."""
    if P and not P.is_linear():
        raise ValueError("index shifts need degree-1 operands")
    return EPoly({(m[0] + 2 * steps,): c for m, c in P.terms()})


def fdiv_wp(P: EPoly) -> EPoly:
    """Divide a degree-1 element by the weight-2 base function."""
    return wp_shift(P, -1)


def build_matrix(kind: str, n: int) -> FMatrix:
    """The three determinant matrices of the even-n construction.

    ``g``   : (1,1) = e[0], borders e[alpha], interior pointwise products.
    ``g1``  : every entry is the pointwise product of e[alpha+1], e[beta+1]
              divided by the weight-2 function.
    ``g2m`` : border vector (e[-2], e[0], e[2], ..., e[n/2-1]); interior is
              the rank-1 completion  row * column / corner.
    """
    if n < 4 or n % 2:
        raise ValueError("matrix construction needs even n >= 4")
    size = n // 2

    if kind == "g":
        def entry(a: int, b: int) -> EPoly:
            if a == 1 and b == 1:
                return EPoly.gen(0)
            if a == 1:
                return EPoly.gen(b)
            if b == 1:
                return EPoly.gen(a)
            return fmul(a, b)
    elif kind == "g1":
        def entry(a: int, b: int) -> EPoly:
            return fdiv_wp(fmul(a + 1, b + 1))
    elif kind == "g2m":
        def border(a: int) -> int:
            return -2 if a == 1 else (0 if a == 2 else a - 1)

        def entry(a: int, b: int) -> EPoly:
            if a == 1 or b == 1:
                return EPoly.gen(border(b if a == 1 else a))
            return wp_shift(fmul(border(a), border(b)), 1)
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")

    rows = tuple(
        tuple(entry(a, b) for b in range(1, size + 1))
        for a in range(1, size + 1)
    )
    return FMatrix(rows)


def sym_det(M: FMatrix) -> EPoly:
    """Determinant by permutation expansion in the symmetric algebra."""
    size = M.size
    out = EPoly.zero()
    for perm in permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        prod = EPoly.one()
        for i in range(size):
            prod = prod * M.entries[i][perm[i]]
            if not prod:
                break
        out = out + (prod if inversions % 2 == 0 else -prod)
    return out


def _check_support(P: EPoly, n: int, what: str) -> None:
    allowed = IndexSet.fn(n)
    bad = sorted(a for a in P.support() if a not in allowed)
    if bad:
        raise IntegrityError(f"{what}: indices {bad} escaped {{0}} u {{2..{n}}}")


def casimir_even(n: int) -> CasimirSet:
    """The degree-n/2 central pair for even n >= 4.

    The auxiliary e[-2] contributions of the two determinants in the second
    element must cancel; failure to cancel is an integrity error.
    """
    if n < 4 or n % 2:
        raise ValueError("even construction needs even n >= 4")
    c0 = sym_det(build_matrix("g", n))
    c1 = sym_det(build_matrix("g1", n)) + (_G3 * _QUARTER) * sym_det(build_matrix("g2m", n))
    for label, elem in (("first element", c0), ("second element", c1)):
        _check_support(elem, n, f"even n={n}, {label}")
        if elem.homogeneous_degree() != n // 2:
            raise IntegrityError(f"even n={n}, {label}: degree != {n // 2}")
    return CasimirSet(n=n, elements=(c0, c1), kind="even-pair")


def casimir_odd(n: int) -> CasimirSet:
    """The degree-n central element for odd n >= 3.

    Built by eliminating e[n+1] between the two elements of the even pair
    one step up: with C_i = A_i + B_i e[n+1], the combination
    B_0 A_1 - B_1 A_0 is free of e[n+1].  Both elements must be affine in
    e[n+1]; anything else is an integrity error.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("odd construction needs odd n >= 3")
    pair = casimir_even(n + 1)
    split = []
    for elem in pair.elements:
        try:
            split.append(elem.split_linear(n + 1))
        except ValueError as exc:
            raise IntegrityError(f"odd n={n}: {exc}") from exc
    (a0, b0), (a1, b1) = split
    combo = b0 * a1 - b1 * a0
    _check_support(combo, n, f"odd n={n}")
    if combo.homogeneous_degree() != n:
        raise IntegrityError(f"odd n={n}: degree != {n}")
    return CasimirSet(n=n, elements=(combo,), kind="odd-single")


def casimirs(n: int) -> CasimirSet:
    """Central elements for any n >= 3 (pair for even, single for odd)."""
    return casimir_even(n) if n % 2 == 0 else casimir_odd(n)


def substituted_casimirs(n: int, l1: Fraction, l2: Fraction, l3: Fraction) -> CasimirSet:
    """Central elements for a custom combination with nonzero first entry.

    Scaling a bracket preserves its central elements, so the combination
    (l1, l2, l3) shares them with (1, l2/l1, l3/l1); the construction is
    reused with g2 -> l2/l1, g3 -> l3/l1.
    """
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    if l1 == 0:
        raise ValueError("degenerate pencils (first coefficient 0) are unsupported")
    cs = casimirs(n)
    assignment = {"g2": l2 / l1, "g3": l3 / l1}
    return CasimirSet(
        n=n,
        elements=tuple(c.substitute_params(assignment) for c in cs.elements),
        kind=cs.kind,
    )


def verify_central(cs: CasimirSet, check_name: str | None = None) -> Report:
    """Exact centrality of every element against every subalgebra generator,
    under the elliptic combination with formal g2, g3 and numeric n."""
    start = time.monotonic()
    spec = BracketSpec.elliptic()
    gens = IndexSet.fn(cs.n).members()
    failures = []
    for ci, elem in enumerate(cs.elements):
        for gamma in gens:
            res = bracket_poly(elem, EPoly.gen(gamma), spec, n_value=Fraction(cs.n))
            if res:
                failures.append({
                    "witness": f"element {ci}, generator e[{gamma}]",
                    "residual-text": res.to_text(),
                })
    params = {"n": cs.n, "kind": cs.kind, "generators": gens}
    return make_report(check_name or f"centrality-n{cs.n}", params, failures,
                       duration=time.monotonic() - start)


def rank1_identity_check(M: FMatrix, check_name: str = "rank1") -> Report:
    """Pointwise rank-1 test: entry products must satisfy
    f[a,b] f[a',b'] = f[a,b'] f[a',b] as functions, exactly."""
    start = time.monotonic()
    failures = []
    size = M.size
    for a in range(size):
        for ap in range(a + 1, size):
            for b in range(size):
                for bp in range(b + 1, size):
                    res = fmul_poly(M.entries[a][b], M.entries[ap][bp]) \
                        - fmul_poly(M.entries[a][bp], M.entries[ap][b])
                    if res:
                        failures.append({
                            "witness": [a + 1, b + 1, ap + 1, bp + 1],
                            "residual-text": res.to_text(),
                        })
    return make_report(check_name, {"size": size}, failures,
                       duration=time.monotonic() - start)


def pencil_family(n: int) -> list[EPoly]:
    """Commuting family from the parameter pencil g2 + t*s2, g3 + t*s3.

    The central elements are rebuilt with the shifted parameters and
    expanded in powers of t; all coefficients, across all elements, form
    the family.
    """
    shift = {
        "g2": _G2 + ParamPoly.symbol("t") * ParamPoly.symbol("s2"),
        "g3": _G3 + ParamPoly.symbol("t") * ParamPoly.symbol("s3"),
    }
    family: list[EPoly] = []
    for elem in casimirs(n).elements:
        shifted = elem.compose_params(shift)
        coeffs = shifted.collect_symbol("t")
        for d in sorted(coeffs):
            family.append(coeffs[d])
    return family


def involution_family(n: int, check_name: str | None = None) -> Report:
    """Exact pairwise involution of the pencil family under both the
    elliptic combination and the pencil direction, at numeric n."""
    if n < 3:
        raise ValueError("involution check needs n >= 3")
    start = time.monotonic()
    family = pencil_family(n)
    specs = (("elliptic", BracketSpec.elliptic()),
             ("direction", BracketSpec.pencil_direction()))
    failures = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            for label, spec in specs:
                res = bracket_poly(family[i], family[j], spec, n_value=Fraction(n))
                if res:
                    failures.append({
                        "witness": f"pair ({i},{j}) under {label}",
                        "residual-text": res.to_text(),
                    })
    params = {"n": n, "family_size": len(family),
              "pairs": len(family) * (len(family) - 1) // 2}
    return make_report(check_name or f"involution-n{n}", params, failures,
                       duration=time.monotonic() - start)
