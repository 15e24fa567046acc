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

Each determinant matrix is the table of ``fmul(u_a, v_b)`` over two index
vectors u, v (``build_matrix``); p^s times e[alpha] is ``fmul(2s, alpha)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .poly import _SLOT_MASK, _SYM_MASK, EPoly, IndexSet, ParamPoly, _symbol_shift, signed_products
from .report import Report, Tally
from .brackets import BracketSpec, bracket_poly

__all__ = [
    "FMatrix",
    "CasimirSet",
    "IntegrityError",
    "fmul",
    "build_matrix",
    "sym_det",
    "casimir_even",
    "casimir_odd",
    "casimirs",
    "verify_central",
    "rank1_identity_check",
    "involution_family",
    "pencil_family",
]

_G2 = ParamPoly.symbol("g2")
_G3 = ParamPoly.symbol("g3")
_QUARTER = Fraction(1, 4)
# g2 -> g2 + t*s2, g3 -> g3 + t*s3 makes the elliptic bracket elliptic + t*direction
_PENCIL_SHIFT = {"g2": _G2 + ParamPoly.symbol("t") * ParamPoly.symbol("s2"),
                 "g3": _G3 + ParamPoly.symbol("t") * ParamPoly.symbol("s3")}


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


def build_matrix(kind: str, n: int) -> FMatrix:
    """The three determinant matrices of the even-n construction: entry
    (a, b) is the pointwise product f_(u_a) * f_(v_b), with k = n/2 and

    ``g``   : u = v = (0, 2, 3, ..., k);
    ``g1``  : u = (2, ..., k+1), v = u - 2, so f_(u_a) f_(u_b) / p;
    ``g2m`` : u = (-2, 0, 2, 3, ..., k-1), v = u + 2, so f_(u_a) f_(u_b) p.
    """
    if n < 4 or n % 2:
        raise ValueError("matrix construction needs even n >= 4")
    k = n // 2
    if kind == "g":
        u = v = (0, *range(2, k + 1))
    elif kind == "g1":
        u, v = range(2, k + 2), range(k)
    elif kind == "g2m":
        u, v = (-2, 0, *range(2, k)), (0, 2, *range(4, k + 2))
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return FMatrix(tuple(tuple(fmul(a, b) for b in v) for a in u))


def _running_sum(zero, cofactors):
    """``zero`` plus each signed cofactor in turn: the sum of a minor in any
    ring, and the one that fixes the rounding of floating-point entries."""
    total = zero
    for sign, entry, sub in cofactors:
        cofactor = entry * sub
        total += -cofactor if sign < 0 else cofactor
    return total


def _det(matrix, zero):
    """Determinant over a commutative ring whose zero is ``zero``: Laplace
    expansion along the first row, skipping zero entries, with the
    determinant of every minor computed once.

    Each minor collects its signed cofactors, (sign, entry, sub-minor
    determinant) triples, and the ring sums them: over ``EPoly`` one
    ``signed_products`` accumulation per minor, otherwise ``_running_sum``.
    The minor left after the first r rows is fixed by its remaining
    columns, so the memo is keyed on that column set (a bit mask); it is
    freed when the call returns.  Each minor lists its cofactors in the
    order of the plain recursion, so floating-point entries give the same
    result to the last bit, but a dense k x k matrix costs about 2^k * k
    products instead of k!; with the zero block of the leaf Poisson matrix
    only about 2^(p+1) minors of the 2p x 2p matrix are reached.
    """
    size = len(matrix)
    if size == 0:
        return zero + 1
    if size == 1:
        return matrix[0][0]
    total = signed_products if isinstance(zero, EPoly) else partial(_running_sum, zero)
    memo = {1 << col: matrix[-1][col] for col in range(size)}
    nonzero = [[(col, entry) for col, entry in enumerate(row) if entry]
               for row in matrix]

    def minor_det(cols: int):
        cofactors = []
        for col, entry in nonzero[size - cols.bit_count()]:
            bit = 1 << col
            if not cols & bit:
                continue
            rest = cols ^ bit
            sub = memo.get(rest)
            if sub is None:
                sub = minor_det(rest)
            cofactors.append((-1 if (cols & (bit - 1)).bit_count() % 2 else 1, entry, sub))
        memo[cols] = det = total(cofactors)
        return det

    det = minor_det((1 << size) - 1)
    minor_det = None  # the closure refers to itself; without this the memo waits for gc
    return det


def sym_det(M: FMatrix) -> EPoly:
    """Determinant in the symmetric algebra."""
    return _det(M.entries, EPoly.zero())


def _check_support(P: EPoly, n: int, what: str) -> None:
    allowed = IndexSet.fn(n)
    if not P.supported_in(allowed):
        bad = sorted(a for a in P.support() if a not in allowed)
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
    pair = casimirs(n + 1)
    split = []
    for elem in pair.elements:
        try:
            split.append(elem.split_linear(n + 1))
        except ValueError as exc:
            raise IntegrityError(f"odd n={n}: {exc}") from exc
    (a0, b0), (a1, b1) = split
    combo = signed_products(((1, b0, a1), (-1, b1, a0)))
    _check_support(combo, n, f"odd n={n}")
    if combo.homogeneous_degree() != n:
        raise IntegrityError(f"odd n={n}: degree != {n}")
    return CasimirSet(n=n, elements=(combo,), kind="odd-single")


@lru_cache(maxsize=None)
def casimirs(n: int) -> CasimirSet:
    """Central elements for any n >= 3 (pair for even, single for odd).

    Built once per n and shared: a ``CasimirSet`` is frozen and its
    ``EPoly`` values are never changed in place."""
    return casimir_even(n) if n % 2 == 0 else casimir_odd(n)


def _tally_central(tally: Tally, elements, n: int, shift=None) -> list[int]:
    """Tally {element, e[gamma]} under the elliptic bracket at numeric n, gamma
    in FN(n), with ``shift`` (if any) composed into its coefficients; each
    bracket builds the element's partial derivatives anew and keeps none."""
    gens = IndexSet.fn(n).members()
    for ci, elem in enumerate(elements):
        for gamma in gens:
            br = bracket_poly(elem, EPoly.gen(gamma), BracketSpec.elliptic(), n_value=n)
            tally.exact(br.compose_params(shift or {}), "element {}, generator e[{}]", ci, gamma)
    return gens


def verify_central(cs: CasimirSet, check_name: str | None = None) -> Report:
    """Exact centrality of every element against every subalgebra generator,
    under the elliptic combination with formal g2, g3 and numeric n."""
    tally = Tally()
    gens = _tally_central(tally, cs.elements, cs.n)
    params = {"n": cs.n, "kind": cs.kind, "generators": gens}
    return tally.report(check_name or f"centrality-n{cs.n}", params)


def rank1_identity_check(M: FMatrix, check_name: str = "rank1") -> Report:
    """Pointwise rank-1 test: entry products must satisfy
    f[a,b] f[a',b'] = f[a,b'] f[a',b] as functions, exactly."""
    tally = Tally()
    size = M.size
    for a in range(size):
        for ap in range(a + 1, size):
            for b in range(size):
                for bp in range(b + 1, size):
                    # sum of sign * fmul(x, y) * cx * cy over the terms of both
                    # entry products (every entry is linear)
                    res = signed_products(
                        (sign, fmul(x, y), cx * cy)
                        for sign, P, Q in ((1, M.entries[a][b], M.entries[ap][bp]),
                                           (-1, M.entries[a][bp], M.entries[ap][b]))
                        for (x,), cx in P.terms() for (y,), cy in Q.terms())
                    tally.exact(res, [a + 1, b + 1, ap + 1, bp + 1])
    return tally.report(check_name, {"size": size})


def pencil_family(n: int) -> list[EPoly]:
    """Commuting family from the parameter pencil g2 + t*s2, g3 + t*s3.

    The central elements are rebuilt with the shifted parameters and
    expanded in powers of t; all coefficients, across all elements, form
    the family.
    """
    family: list[EPoly] = []
    for elem in casimirs(n).elements:
        coeffs = elem.compose_params(_PENCIL_SHIFT).collect_symbol("t")
        family.extend(coeffs[d] for d in sorted(coeffs))
    return family


def _family_size(elements) -> int:
    """``len(pencil_family)`` of elements free of t, s2, s3, from their keys:
    the shift sends g2^a g3^b to terms g2^(a-i) s2^i g3^(b-j) s3^j t^(i+j)
    that give back a and b, so nothing cancels across terms, and a nonzero
    element of largest total degree d in g2, g3 has the members t^0..t^d."""
    g2, g3 = _symbol_shift("g2"), _symbol_shift("g3")
    return sum(1 + max((k >> g2 & _SLOT_MASK) + (k >> g3 & _SLOT_MASK)
                       for k in {k & _SYM_MASK for k in elem._terms}) for elem in elements if elem)


def involution_family(n: int) -> Report:
    """Exact involution of the pencil family at numeric n, by Lenard chains.

    The shift phi (``_PENCIL_SHIFT``) is an injective ring map of the
    coefficients and the bracket is linear over them, so phi of each
    centrality bracket {C, e[gamma]}, tallied here, is {phi(C), e[gamma]}
    under elliptic + t*dir, dir = s2*{,}_2 + s3*{,}_3.  With phi(C) = sum
    of F_k t^k its zero is the chain {F_0, .}_ell = 0, {F_top, .}_dir = 0,
    {F_k, .}_ell + {F_(k-1), .}_dir = 0, and Magri's lemma (J. Math. Phys.
    19 (1978) 1156) gives {F_i, G_j} = 0 under both for every pair, from
    antisymmetry, Leibniz and each F_k in the algebra of FN(n).  The verdict
    rests on centrality, the ring map and Magri's lemma; it is not independent.
    """
    if n < 3:
        raise ValueError("involution check needs n >= 3")
    tally = Tally()
    elements = casimirs(n).elements
    size = _family_size(elements)
    _tally_central(tally, elements, n, _PENCIL_SHIFT)
    params = {"n": n, "family_size": size, "pairs": size * (size - 1) // 2}
    return tally.report(f"involution-n{n}", params)
