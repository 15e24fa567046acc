"""Exact sparse polynomial algebra over a formal-parameter coefficient ring.

Two public types share one representation:

* ``ParamPoly``: polynomials in the formal symbols ``n, g2, g3, l1, l2, l3,
  t, s2, s3`` with exact rational coefficients.  This is the coefficient
  ring for everything symbolic; floats never enter.
* ``EPoly``: elements of the symmetric algebra on generators ``e[alpha]``
  for arbitrary integer ``alpha``, with ``ParamPoly`` coefficients.

Representation.  A value is one sparse dict from packed int keys to nonzero
int numerators, plus one positive int denominator shared by all terms.  A
key packs exponents into 8-bit slots, least significant first:

* bytes 0..8 hold the symbol exponents, ``s3`` in byte 0 up to ``n`` in
  byte 8, so descending key order is descending lexicographic order of the
  exponent vectors (``SYMBOLS`` order);
* byte ``9 + z(alpha)`` holds the multiplicity of ``e[alpha]``, where
  ``z(alpha) = 2*alpha`` for ``alpha >= 0`` and ``-2*alpha - 1`` otherwise,
  so every integer index has a fixed slot.

A ``ParamPoly`` key has no generator bytes, so it is also the key of an
``EPoly`` term with the empty monomial and scalars need no conversion.
Multiplying two terms adds their keys; removing one ``e[alpha]`` subtracts
its slot unit; a multiplicity is a shift and a mask.  Generator monomials
are decoded to sorted index tuples only for ``terms``, text and evaluation.

Slot guard.  The top bit of every slot is a guard bit: stored slot values
stay below 128, so the sum of two stored keys never carries from one slot
into the next.  Every operation that adds keys checks its result keys and
raises ``OverflowError`` when a multiplicity or exponent reaches 128.

Canonical form.  Zero numerators are never stored and the denominator is
coprime to the numerators (1 for the zero polynomial), so two values are
equal exactly when their dicts and denominators are equal.  Values are
immutable.

Text.  ``Fraction`` appears only at the boundary: constructors accept exact
rationals, ``ParamPoly.terms`` yields them, ``to_text`` prints reduced
fractions, and the matching ``parse_*`` function reads them back
bit-exactly.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterator, Mapping, Union

__all__ = [
    "SYMBOLS",
    "ParamPoly",
    "EPoly",
    "IndexSet",
    "parse_parampoly",
    "parse_epoly",
]

SYMBOLS = ("n", "g2", "g3", "l1", "l2", "l3", "t", "s2", "s3")
_SYM_INDEX = {s: i for i, s in enumerate(SYMBOLS)}
_NSYM = len(SYMBOLS)

_SLOT_BITS = 8
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_MAX_EXP = (1 << (_SLOT_BITS - 1)) - 1
_SYM_BITS = _SLOT_BITS * _NSYM
_SYM_MASK = (1 << _SYM_BITS) - 1
# Bit offset of each symbol's slot; ``n`` is the most significant.
_SYM_SHIFT = tuple(_SLOT_BITS * (_NSYM - 1 - i) for i in range(_NSYM))

# Grading: weight(e_alpha) = alpha, weight(g2) = 4, weight(g3) = 6, all
# other symbols weight 0.
_SYMBOL_WEIGHTS = (0, 4, 6, 0, 0, 0, 0, 0, 0)

Rational = Union[Fraction, int]
Terms = dict[int, int]


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# -- key layout -----------------------------------------------------------------


def _unit(alpha: int) -> int:
    """Key of the single generator ``e[alpha]``."""
    slot = 2 * alpha if alpha >= 0 else -2 * alpha - 1
    return 1 << (_SYM_BITS + _SLOT_BITS * slot)


def _gen_bytes(key: int) -> bytes:
    """Generator slots of a key, one multiplicity per byte."""
    g = key >> _SYM_BITS
    return g.to_bytes((g.bit_length() + 7) // 8, "little")


def _gen_slots(key: int) -> Iterator[tuple[int, int, int]]:
    """(index, multiplicity, unit) of every generator in a key."""
    for slot, mult in enumerate(_gen_bytes(key)):
        if mult:
            yield ((slot >> 1) if not slot & 1 else ~(slot >> 1), mult,
                   1 << (_SYM_BITS + _SLOT_BITS * slot))


def _mono(key: int) -> tuple[int, ...]:
    """Sorted index tuple of the generator part of a key: negative indices
    sit in the odd slots (most negative last), the others in the even ones."""
    slots = _gen_bytes(key)
    out: list[int] = []
    neg = slots[1::2]
    if any(neg):
        for s in range(len(neg) - 1, -1, -1):
            if neg[s]:
                out += [~s] * neg[s]
    for alpha, mult in enumerate(slots[::2]):
        if mult:
            out += [alpha] * mult
    return tuple(out)


def _pack_mono(mono) -> int:
    if any(not isinstance(a, int) for a in mono):
        raise ValueError(f"bad monomial {mono!r}")
    if len(mono) > _MAX_EXP and max(Counter(mono).values()) > _MAX_EXP:
        raise OverflowError(f"generator multiplicity exceeds {_MAX_EXP}")
    return sum(map(_unit, mono))


@lru_cache(maxsize=None)
def _guard(nbytes: int) -> int:
    return int.from_bytes(b"\x80" * nbytes, "little")


def _check_slots(keys) -> None:
    """Raise when any key has a slot at or above 128 (its guard bit set)."""
    merged = reduce(or_, keys, 0)
    if merged & _guard((merged.bit_length() + 7) // 8):
        raise OverflowError(
            f"a generator multiplicity or symbol exponent exceeds {_MAX_EXP}")


@lru_cache(maxsize=None)
def _exponents(sym_key: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (symbol position, exponent) pairs of a symbol key."""
    return tuple((i, e) for i, e in enumerate(sym_key.to_bytes(_NSYM, "big")) if e)


@lru_cache(maxsize=None)
def _symbol_text(sym_key: int) -> str:
    return "*".join(SYMBOLS[i] if e == 1 else f"{SYMBOLS[i]}^{e}"
                    for i, e in _exponents(sym_key))


@lru_cache(maxsize=None)
def _gen_text(alpha: int) -> str:
    return f"e[{alpha}]"


def _symbol_shift(name: str) -> int:
    if name not in _SYM_INDEX:
        raise KeyError(f"unknown symbol {name!r}")
    return _SYM_SHIFT[_SYM_INDEX[name]]


# -- kernels on (terms, denominator) pairs --------------------------------------


def _reduce(terms: Terms, den: int) -> tuple[Terms, int]:
    """Divide out the common factor of the numerators and the denominator."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: v // g for k, v in terms.items()}
    return terms, den


def _from_rationals(acc: Mapping[int, Rational]) -> tuple[Terms, int]:
    den = lcm(*(v.denominator for v in acc.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in acc.items() if v}, den


def _add(a: Terms, da: int, b: Terms, db: int) -> tuple[Terms, int]:
    if len(a) < len(b):
        a, da, b, db = b, db, a, da
    g = gcd(da, db)
    fa, fb = db // g, da // g
    acc = dict(a) if fa == 1 else {k: v * fa for k, v in a.items()}
    if fb != 1:
        b = {k: v * fb for k, v in b.items()}
    for k, v in b.items():
        s = acc.get(k, 0) + v
        if s:
            acc[k] = s
        else:
            del acc[k]
    return _reduce(acc, da * fa)


def _mul(a: Terms, da: int, b: Terms, db: int) -> tuple[Terms, int]:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((k1, v1),) = a.items()
        acc = {k1 + k2: v1 * v2 for k2, v2 in b.items()}
    else:
        acc = {}
        get = acc.get
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v}
    _check_slots(acc)
    return _reduce(acc, da * db)


def _partials(terms: Terms) -> dict[int, list[tuple[int, int]]]:
    """Partial derivatives by generator: {alpha: [(key / e[alpha], numerator)]}."""
    out: dict[int, list[tuple[int, int]]] = {}
    for k, v in terms.items():
        for alpha, mult, unit in _gen_slots(k):
            part = out.get(alpha)
            if part is None:
                out[alpha] = part = []
            part.append((k - unit, v * mult))
    return out


def _substitute(terms: Terms, den: int,
                assignment: Mapping[str, Rational]) -> tuple[Terms, int]:
    """Assign exact rationals to symbols; numerators stay integral by scaling
    every term to the largest power of each value's denominator."""
    acc = dict(terms)
    for name, value in assignment.items():
        shift = _symbol_shift(name)
        value = _as_fraction(value)
        p, q = value.numerator, value.denominator
        top = max(((k >> shift) & _SLOT_MASK for k in acc), default=0)
        factors = [p ** e * q ** (top - e) for e in range(top + 1)]
        out: Terms = {}
        for k, v in acc.items():
            e = (k >> shift) & _SLOT_MASK
            k -= e << shift
            out[k] = out.get(k, 0) + v * factors[e]
        acc = {k: v for k, v in out.items() if v}
        den *= q ** top
    return _reduce(acc, den)


def _collect(terms: Terms, den: int, name: str) -> dict[int, tuple[Terms, int]]:
    """Split by degree in one symbol (the symbol is removed)."""
    shift = _symbol_shift(name)
    buckets: dict[int, Terms] = {}
    for k, v in terms.items():
        e = (k >> shift) & _SLOT_MASK
        buckets.setdefault(e, {})[k - (e << shift)] = v
    return {e: _reduce(b, den) for e, b in sorted(buckets.items())}


def _compose(terms: Terms, den: int,
             assignment: Mapping[str, "ParamPoly"]) -> tuple[Terms, int]:
    """Substitute polynomials for symbols: group terms by the exponents of
    the replaced symbols, then multiply each group by its power product."""
    shifts = [(_symbol_shift(name), poly) for name, poly in assignment.items()]
    groups: dict[tuple, Terms] = {}
    for k, v in terms.items():
        exps = tuple((k >> shift) & _SLOT_MASK for shift, _ in shifts)
        k -= sum(e << shift for e, (shift, _) in zip(exps, shifts))
        groups.setdefault(exps, {})[k] = v
    powers: dict[tuple[int, int], tuple[Terms, int]] = {}

    def power(i: int, e: int) -> tuple[Terms, int]:
        if (i, e) not in powers:
            poly = shifts[i][1]
            powers[i, e] = (({0: 1}, 1) if e == 0
                            else _mul(*power(i, e - 1), poly._terms, poly._den))
        return powers[i, e]

    acc: tuple[Terms, int] = ({}, 1)
    for exps, group in groups.items():
        part = (group, 1)
        for i, e in enumerate(exps):
            part = _mul(*part, *power(i, e))
        acc = _add(*acc, *part)
    return _reduce(acc[0], acc[1] * den)


def _coefficient_text(items, den: int) -> str:
    """Text of sum(num * symbols(sym_key)) / den over (sym_key, num) items."""
    chunks: list[str] = []
    for sym_key, num in sorted(items, reverse=True):
        mag = abs(num)
        g = gcd(mag, den)
        mag_text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        mono = _symbol_text(sym_key)
        if not mono:
            body = mag_text
        elif mag == den:
            body = mono
        else:
            body = f"{mag_text}*{mono}"
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(chunks) or "0"


def _numeric_values(values: Mapping[str, complex]) -> dict[int, complex]:
    return {_SYM_INDEX[name]: v if isinstance(v, complex) else complex(v)
            for name, v in values.items()}


def _coefficient_value(items, den: int, vals: dict[int, complex]) -> complex:
    """Numeric value of a coefficient, summed in descending lexicographic
    order of the exponent vectors so that equal values evaluate equally."""
    total = 0j
    for sym_key, num in sorted(items, reverse=True):
        term = complex(num / den)
        for i, e in _exponents(sym_key):
            if i not in vals:
                raise KeyError(f"symbol {SYMBOLS[i]!r} not assigned")
            term *= vals[i] ** e
        total += term
    return total


# -- the two public types --------------------------------------------------------


class _Packed:
    """Shared state and ring plumbing of ``ParamPoly`` and ``EPoly``.

    ``+`` and ``*`` are defined on each subclass, so that the two classes
    own distinct operator functions (``perfbench/tracer.py`` times them
    separately)."""

    __slots__ = ("_terms", "_den", "_hash", "_view")
    _OPERANDS: tuple[type, ...] = ()

    def _set(self, terms: Terms, den: int) -> None:
        self._terms = terms
        self._den = den
        self._hash = None
        self._view = None  # decoded terms, built on first use

    @classmethod
    def _wrap(cls, terms: Terms, den: int = 1):
        out = object.__new__(cls)
        out._set(terms, den)
        return out

    def _operand(self, other) -> tuple[Terms, int] | None:
        if isinstance(other, self._OPERANDS):
            return other._terms, other._den
        if isinstance(other, (int, Fraction)):
            return ({0: other.numerator} if other else {}), other.denominator
        return None

    def _sum(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._wrap(*_add(self._terms, self._den, *o))

    def _product(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._wrap(*_mul(self._terms, self._den, *o))

    def __neg__(self):
        return self._wrap({k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._wrap(*_add(self._terms, self._den,
                                {k: -v for k, v in o[0].items()}, o[1]))

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result: tuple[Terms, int] = ({0: 1}, 1)
        base = (self._terms, self._den)
        e = exponent
        while e:
            if e & 1:
                result = _mul(*result, *base)
            e >>= 1
            if e:
                base = _mul(*base, *base)
        return self._wrap(*result)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            terms, den = self._operand(other)
            return self._den == den and self._terms == terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


class ParamPoly(_Packed):
    """Polynomial in the formal symbols with exact rational coefficients.

    Built from a map of exponent vectors (tuples indexed like ``SYMBOLS``)
    to exact rationals.  Instances are immutable; all operators return new
    values.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, Rational] | None = None):
        acc: dict[int, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != _NSYM or any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            if max(exp) > _MAX_EXP:
                raise OverflowError(f"symbol exponent exceeds {_MAX_EXP}")
            key = int.from_bytes(bytes(exp), "big")
            acc[key] = acc.get(key, 0) + _as_fraction(coeff)
        self._set(*_from_rationals(acc))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return _PP_ZERO

    @classmethod
    def one(cls) -> "ParamPoly":
        return _PP_ONE

    @classmethod
    def const(cls, value: Rational) -> "ParamPoly":
        c = _as_fraction(value)
        return cls._wrap({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def symbol(cls, name: str) -> "ParamPoly":
        return cls._wrap({1 << _symbol_shift(name): 1})

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, other):
        return self._product(other)

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        """Terms in canonical order (exponent vectors, descending lex)."""
        for key in sorted(self._terms, reverse=True):
            yield tuple(key.to_bytes(_NSYM, "big")), Fraction(self._terms[key], self._den)

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, assignment: Mapping[str, Rational]) -> "ParamPoly":
        """Assign exact rational values to some symbols; keep the rest formal."""
        if not assignment:
            return self
        return self._wrap(*_substitute(self._terms, self._den, assignment))

    def compose(self, assignment: Mapping[str, "ParamPoly"]) -> "ParamPoly":
        """Substitute polynomials for symbols (e.g. g2 -> g2 + t*s2)."""
        if not assignment:
            return self
        return self._wrap(*_compose(self._terms, self._den, assignment))

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every symbol that occurs must be assigned.

        Terms are summed in the canonical order of :meth:`terms`, so equal
        values give equal results."""
        return _coefficient_value(self._terms.items(), self._den, _numeric_values(values))

    def collect(self, name: str) -> dict[int, "ParamPoly"]:
        """Coefficients by degree in ``name`` (the symbol is removed)."""
        return {d: self._wrap(*part)
                for d, part in _collect(self._terms, self._den, name).items()}

    # -- text -------------------------------------------------------------

    def to_text(self) -> str:
        return _coefficient_text(self._terms.items(), self._den)


ParamPoly._OPERANDS = (ParamPoly,)
_PP_ZERO = ParamPoly()
_PP_ONE = ParamPoly.const(1)

_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")
_SYMFACT_RE = re.compile(rf"({'|'.join(SYMBOLS)})(?:\^(\d+))?")


def parse_parampoly(text: str) -> ParamPoly:
    """Inverse of :meth:`ParamPoly.to_text` (also accepts any sum of terms)."""
    s = text.strip()
    if s == "0":
        return ParamPoly.zero()
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    pieces = re.split(r" ([+-]) ", s)
    terms: dict[tuple, Fraction] = {}
    chunk_signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    chunks = pieces[0::2]
    for sgn, chunk in zip(chunk_signs, chunks):
        coeff = Fraction(sgn)
        exp = [0] * _NSYM
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _RAT_RE.fullmatch(factor):
                coeff *= Fraction(factor)
                continue
            m = _SYMFACT_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            exp[_SYM_INDEX[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return ParamPoly(terms)


class EPoly(_Packed):
    """Element of the symmetric algebra on the generators ``e[alpha]``.

    Built from a map of integer tuples (monomials, multiset semantics) to
    ``ParamPoly`` or rational coefficients.  Immutable and canonical.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, ParamPoly | Rational] | None = None):
        acc: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            gen_key = _pack_mono(mono)
            if not isinstance(coeff, ParamPoly):
                coeff = ParamPoly.const(coeff)
            for sym_key, num in coeff._terms.items():
                key = gen_key + sym_key
                acc[key] = acc.get(key, 0) + Fraction(num, coeff._den)
        self._set(*_from_rationals(acc))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "EPoly":
        return _EP_ZERO

    @classmethod
    def one(cls) -> "EPoly":
        return _EP_ONE

    @classmethod
    def gen(cls, alpha: int) -> "EPoly":
        return cls._wrap({_pack_mono((alpha,)): 1})

    @classmethod
    def monomial(cls, indices, coeff: ParamPoly | Rational = 1) -> "EPoly":
        return cls({tuple(indices): coeff})

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, other):
        return self._product(other)

    __rmul__ = __mul__

    def bracket(self, other: "EPoly", rule: Callable[[int, int], "EPoly"]) -> "EPoly":
        """Leibniz extension of a generator bracket ``rule(alpha, beta)``.

        Returns the sum over generator pairs of
        ``rule(a, b) * dP/de[a] * dQ/de[b]``; coefficients are central
        scalars.  ``rule`` is called once per pair of occurring generators.
        """
        dp = _partials(self._terms)
        dq = _partials(other._terms)
        rules = {}
        for a in dp:
            for b in dq:
                r = rule(a, b)
                if r:
                    rules[a, b] = r
        if not rules:
            return _EP_ZERO
        common = lcm(*(r._den for r in rules.values()))
        acc: Terms = {}
        get = acc.get
        for a, pa in dp.items():
            # h = sum over b of rule(a, b) * dQ/de[b], over the common denominator
            h: Terms = {}
            for b, qb in dq.items():
                r = rules.get((a, b))
                if r is None:
                    continue
                scale = common // r._den
                for kr, vr in r._terms.items():
                    vr *= scale
                    for kq, vq in qb:
                        k = kr + kq
                        h[k] = h.get(k, 0) + vr * vq
            for kh, vh in h.items():
                if not vh:
                    continue
                for kp, vp in pa:
                    k = kp + kh
                    acc[k] = get(k, 0) + vh * vp
        acc = {k: v for k, v in acc.items() if v}
        _check_slots(acc)
        return self._wrap(*_reduce(acc, self._den * other._den * common))

    # -- queries ----------------------------------------------------------

    def _groups(self) -> tuple[tuple[tuple[int, ...], list[tuple[int, int]]], ...]:
        """(monomial, [(symbol key, numerator)]) in graded lexicographic order,
        decoded once per value: numeric checks evaluate one element many
        times."""
        if self._view is not None:
            return self._view
        groups: dict[int, list[tuple[int, int]]] = {}
        for k, v in self._terms.items():
            g = k >> _SYM_BITS
            group = groups.get(g)
            if group is None:
                groups[g] = group = []
            group.append((k & _SYM_MASK, v))
        out = []
        for g, items in groups.items():
            mono = _mono(g << _SYM_BITS)
            out.append((len(mono), mono, items))
        out.sort()
        self._view = tuple((mono, items) for _, mono, items in out)
        return self._view

    def _degrees(self) -> set[int]:
        """Sizes of the monomials that occur."""
        return {sum(_gen_bytes(k)) for k in self._terms}

    def terms(self) -> Iterator[tuple[tuple, ParamPoly]]:
        """Terms in canonical (graded lexicographic) monomial order."""
        for mono, items in self._groups():
            yield mono, ParamPoly._wrap(*_reduce(dict(items), self._den))

    def coefficient_values(self, values: Mapping[str, complex]) -> list[tuple[tuple, complex]]:
        """(monomial, numeric coefficient) in the order of :meth:`terms`,
        with each coefficient evaluated as :meth:`ParamPoly.evaluate` does."""
        vals = _numeric_values(values)
        return [(mono, _coefficient_value(items, self._den, vals))
                for mono, items in self._groups()]

    def num_terms(self) -> int:
        """Number of distinct generator monomials."""
        return len({k >> _SYM_BITS for k in self._terms})

    def support(self) -> set[int]:
        """Generator indices occurring with nonzero coefficient."""
        return {alpha for alpha, _, _ in _gen_slots(reduce(or_, self._terms, 0))}

    def degree(self) -> int:
        """Largest monomial size (0 for the zero polynomial)."""
        return max(self._degrees(), default=0)

    def homogeneous_degree(self) -> int | None:
        """Common monomial size, or None if zero or mixed."""
        sizes = self._degrees()
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def is_linear(self) -> bool:
        """True when every monomial is a single generator."""
        return self._degrees() == {1}

    def weight_profile(self) -> int | str:
        """Common weight of all terms, or "inhomogeneous" / "zero".

        The weight of a term is the sum of its generator indices plus
        4 * (g2 exponent) + 6 * (g3 exponent); all other symbols have
        weight zero.
        """
        if not self._terms:
            return "zero"
        seen: set[int] = set()
        for k in self._terms:
            seen.add(sum(_mono(k)) + sum(_SYMBOL_WEIGHTS[i] * e
                                         for i, e in _exponents(k & _SYM_MASK)))
            if len(seen) > 1:
                return "inhomogeneous"
        return seen.pop()

    # -- substitution -----------------------------------------------------

    def substitute_params(self, assignment: Mapping[str, Rational]) -> "EPoly":
        """Assign exact rationals to formal symbols in every coefficient."""
        if not assignment:
            return self
        return self._wrap(*_substitute(self._terms, self._den, assignment))

    def compose_params(self, assignment: Mapping[str, ParamPoly]) -> "EPoly":
        """Substitute polynomials for formal symbols in every coefficient."""
        if not assignment:
            return self
        return self._wrap(*_compose(self._terms, self._den, assignment))

    def collect_symbol(self, name: str) -> dict[int, "EPoly"]:
        """Split into coefficients by degree in one formal symbol."""
        return {d: self._wrap(*part)
                for d, part in _collect(self._terms, self._den, name).items()}

    def split_linear(self, index: int) -> tuple["EPoly", "EPoly"]:
        """Write ``self = A + B*e[index]`` with neither part containing e[index].

        Raises ValueError when some monomial contains e[index] with
        multiplicity greater than one.
        """
        unit = _unit(index)
        shift = unit.bit_length() - 1
        a_terms: Terms = {}
        b_terms: Terms = {}
        for k, v in self._terms.items():
            mult = (k >> shift) & _SLOT_MASK
            if mult == 0:
                a_terms[k] = v
            elif mult == 1:
                b_terms[k - unit] = v
            else:
                raise ValueError(f"degree in e[{index}] exceeds 1: monomial {_mono(k)}")
        return (self._wrap(*_reduce(a_terms, self._den)),
                self._wrap(*_reduce(b_terms, self._den)))

    # -- text -------------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, items in self._groups():
            coeff = _coefficient_text(items, self._den)
            text = "*".join(map(_gen_text, mono)) if mono else "1"
            parts.append(f"({coeff})*{text}")
        return " + ".join(parts)


EPoly._OPERANDS = (EPoly, ParamPoly)
_EP_ZERO = EPoly()
_EP_ONE = EPoly({(): 1})

_EP_TERM_RE = re.compile(r"\(([^()]*)\)\*((?:e\[-?\d+\])(?:\*e\[-?\d+\])*|1)")
_EP_IDX_RE = re.compile(r"e\[(-?\d+)\]")


def parse_epoly(text: str) -> EPoly:
    """Inverse of :meth:`EPoly.to_text` (bit-exact round trip)."""
    s = text.strip()
    if s == "0":
        return EPoly.zero()
    terms: dict[tuple, ParamPoly] = {}
    pos = 0
    first = True
    while pos < len(s):
        if not first:
            if not s.startswith(" + ", pos):
                raise ValueError(f"malformed polynomial text at {s[pos:pos+20]!r}")
            pos += 3
        m = _EP_TERM_RE.match(s, pos)
        if not m:
            raise ValueError(f"malformed term at {s[pos:pos+40]!r}")
        coeff = parse_parampoly(m.group(1))
        mono_text = m.group(2)
        mono = () if mono_text == "1" else tuple(
            sorted(int(i) for i in _EP_IDX_RE.findall(mono_text))
        )
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
        pos = m.end()
        first = False
    return EPoly(terms)


class IndexSet:
    """Generator index windows: all of Z, F_n = {0} u {2..n}, or a range."""

    __slots__ = ("kind", "lo", "hi", "n")

    def __init__(self, kind: str, lo: int | None = None, hi: int | None = None,
                 n: int | None = None):
        if kind not in ("all", "fn", "window"):
            raise ValueError(f"unknown IndexSet kind {kind!r}")
        if kind == "fn" and (n is None or n < 1):
            raise ValueError("F_n needs a positive n")
        if kind == "window" and (lo is None or hi is None or lo > hi):
            raise ValueError("window needs lo <= hi")
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.n = n

    @classmethod
    def full_z(cls) -> "IndexSet":
        return cls("all")

    @classmethod
    def fn(cls, n: int) -> "IndexSet":
        return cls("fn", n=n)

    @classmethod
    def window(cls, lo: int, hi: int) -> "IndexSet":
        return cls("window", lo=lo, hi=hi)

    def __contains__(self, alpha: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "fn":
            return alpha == 0 or 2 <= alpha <= self.n
        return self.lo <= alpha <= self.hi

    def members(self) -> list[int]:
        if self.kind == "all":
            raise ValueError("the full index set is infinite")
        if self.kind == "fn":
            return [0] + list(range(2, self.n + 1))
        return list(range(self.lo, self.hi + 1))

    def __iter__(self):
        return iter(self.members())

    def describe(self) -> str:
        if self.kind == "all":
            return "Z"
        if self.kind == "fn":
            return f"F{self.n}"
        return f"{self.lo}..{self.hi}"

    def __repr__(self) -> str:
        return f"IndexSet({self.describe()!r})"
