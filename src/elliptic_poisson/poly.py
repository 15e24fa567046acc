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

Order.  ``terms``, ``to_text`` and evaluation list monomials in graded
lexicographic order: by size, then by sorted index tuple.  ``_graded_lex``
ranks each term by one byte string and sorts them in one list, in
descending order: the size's complement to the slot sum of the OR of the
keys, the multiplicities of the indices in increasing order (from ``e[0]``
when no index is negative), the symbol bytes, ``n`` first, and a signed
numerator tail of one width, which never decides (no two terms share the
bytes before it).  Between two sorted tuples of one size, the first index
whose multiplicity differs decides, and the larger multiplicity sorts
first.  A size is the slot sum of a generator part ``g``, and ``g % 255``
is that sum mod 255 (256 = 1 mod 255): while the slots of the OR sum below
255, every size is its own residue, and past that bound the slots are
summed per term.  ``degree``, ``homogeneous_degree`` and ``is_linear``
read sizes the same way.  Each monomial's tuple or text is joined from the
decodes of the two halves of its multiplicities, each distinct half
decoded once per call; ``to_text`` also formats each distinct coefficient
once per call, keyed on the tails of its terms.

Products.  ``_signed_products`` is the one loop over term pairs: it sums
sign * a * b over products in integers over their common denominator.
``+`` and ``-`` (each operand times the unit, with sign +1 or -1), ``*``,
composition, the Leibniz bracket, generator brackets and their sums,
determinant minors and the odd elimination all go through it.  A product
with a small operand sums into one dict.  A product of two large operands
(the odd elimination's) sums by slices: the keys' bytes in a few whole
slots, which add without carries, so each output slice is summed in its
own small dict and the slices are merged once.
``_substitute`` is the one other accumulation loop, because it is faster
than composing with constants (its comment has the figures); ``_group`` is
the one grouping of terms by symbol exponents.  ``_partial`` takes one
partial derivative; the Leibniz bracket builds each dP/de[a] only when the
kernel sums its product, and no value keeps them.

Slot guard.  The top bit of every slot is a guard bit: stored slot values
stay below 128, so the sum of two stored keys never carries from one slot
into the next.  Every operation that adds keys checks its result keys and
raises ``OverflowError`` when a multiplicity or exponent reaches 128.

Kept OR.  Each ``EPoly`` keeps the OR of its keys, every slot that some
term uses, computed on first read by ``_merged``: most products are small
coefficients that never read it.  ``support``, ``supported_in``, the size
bound and the partial derivatives read it.

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
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "SYMBOLS",
    "ParamPoly",
    "EPoly",
    "IndexSet",
    "generator_bracket_sum",
    "signed_products",
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
# 256 = 1 mod 255: a generator part's residue mod 255 is its slot sum mod 255
_SIZE_MODULUS = 255
# Bit offset of each symbol's slot; ``n`` is the most significant.
_SYM_SHIFT = tuple(_SLOT_BITS * (_NSYM - 1 - i) for i in range(_NSYM))

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


def _indices(vector: bytes, first: int) -> tuple[int, ...]:
    """Sorted index tuple of multiplicities of consecutive indices from ``first``."""
    out: tuple[int, ...] = ()
    for alpha, mult in enumerate(vector, first):
        if mult:
            out += (alpha,) * mult
    return out


def _indices_text(vector: bytes, first: int) -> str:
    """Text of :func:`_indices`, each factor led by ``*``."""
    return "".join(f"*e[{alpha}]" * mult for alpha, mult in enumerate(vector, first) if mult)


def _mono(key: int) -> tuple[int, ...]:
    """Sorted index tuple of the generator part of a key."""
    return tuple(sorted(alpha for alpha, mult, _ in _gen_slots(key) for _ in range(mult)))


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
    """Raise when any key has a slot at or above 128 (its guard bit set in
    the OR of the keys)."""
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


# (key, numerator) pairs: the items of a terms dict, or a partial derivative
_Pairs = Collection[tuple[int, int]]
# the pairs of the unit: a sum is a sum of products by it
_UNIT_PAIRS = ((0, 1),)


# A product whose smaller operand has this many terms is summed by slices.
# The odd elimination's smaller operands have 27 and 55 terms at n = 9,
# whose 3.3 k-term result sums faster in one dict, and 179-1,240 terms at
# n = 11 and 13, whose 43 k and 617 k terms sum faster by slices; every
# other product of the package has a side under 20 terms.
_SLICE_MIN = 128


def _slice_mask(a: _Pairs, b: _Pairs) -> int:
    """Mask of the slots that slice the keys of a * b: the ``g2`` and ``g3``
    slots and the two middle generator slots of the operands' OR."""
    merged = reduce(or_, (k for k, _ in a), 0) | reduce(or_, (k for k, _ in b), 0)
    slots = [slot for slot, mult in enumerate(_gen_bytes(merged)) if mult]
    mid = len(slots) // 2
    return (_SLOT_MASK << _SYM_SHIFT[1] | _SLOT_MASK << _SYM_SHIFT[2]
            | sum(_SLOT_MASK << (_SYM_BITS + _SLOT_BITS * slot)
                  for slot in slots[max(mid - 1, 0):mid + 1]))


def _by_slice(pairs: _Pairs, mask: int, scale: int = 1) -> dict[int, list[tuple[int, int]]]:
    """(key, numerator * scale) pairs grouped by the key's masked slots."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, v in pairs:
        groups.setdefault(k & mask, []).append((k, v * scale))
    return groups


def _signed_products(products: Iterable[tuple[int, _Pairs, int, _Pairs, int]],
                     common: int | None = None) -> tuple[Terms, int]:
    """Sum of sign * a / da * b / db over (sign, a, da, b, db) products,
    accumulated in integers over their common denominator; the slot guard
    is checked and the result reduced once.  Returns the terms and the
    denominator.  With ``common``, a multiple of every da * db, the
    products may come lazily.

    A product with a small operand is summed at once into one dict and
    freed.  A product of two large operands is grouped by slices of its
    keys, whole slots under one mask: the slot guard rules out carries, so
    (k1 + k2) & mask = (k1 & mask) + (k2 & mask), and a block of two
    operand slices lands in one output slice.  Each output slice is then
    summed in its own small dict, which stays in cache, and its nonzero
    terms join the result."""
    if common is None:
        common = lcm(*(da * db for _, _, da, _, db in products))
    acc: Terms = {}
    get = acc.get
    mask = 0
    blocks: dict[int, list[tuple[_Pairs, _Pairs]]] = {}
    for sign, a, da, b, db in products:
        if len(a) > len(b):
            a, b = b, a
        scale = sign * (common // (da * db))
        if len(a) < _SLICE_MIN:
            for k1, v1 in a:
                v1 *= scale
                for k2, v2 in b:
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
        else:
            mask = mask or _slice_mask(a, b)
            b_slices = _by_slice(b, mask).items()
            for sa, pa in _by_slice(a, mask, scale).items():
                for sb, pb in b_slices:
                    blocks.setdefault(sa + sb, []).append((pa, pb))
        del a, b  # free this product before the next one is built
    if blocks:
        for s, pairs in _by_slice(acc.items(), mask).items():
            blocks.setdefault(s, []).append((pairs, _UNIT_PAIRS))
        acc = {}
        for pairs in blocks.values():
            part: Terms = {}
            get = part.get
            for pa, pb in pairs:
                for k1, v1 in pa:
                    for k2, v2 in pb:
                        k = k1 + k2
                        part[k] = get(k, 0) + v1 * v2
            acc.update({k: v for k, v in part.items() if v})
    elif 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    _check_slots(acc)
    return _reduce(acc, common)


def _mul(a: Terms, da: int, b: Terms, db: int) -> tuple[Terms, int]:
    return _signed_products(((1, a.items(), da, b.items(), db),))


def _partial(terms: Terms, unit: int) -> list[tuple[int, int]]:
    """Partial derivative by the generator of slot unit ``unit``:
    [(key / e[alpha], numerator * multiplicity)] over the terms with e[alpha]."""
    shift = unit.bit_length() - 1
    mask = _SLOT_MASK << shift
    return [(k - unit, v * (m >> shift)) for k, v in terms.items() if (m := k & mask)]


# ({beta: [(key / e[beta], numerator)]}, denominator), from ``EPoly.partials``
Partials = tuple[dict[int, list[tuple[int, int]]], int]


def _substitute(terms: Terms, den: int,
                assignment: Mapping[str, Rational]) -> tuple[Terms, int]:
    """Assign exact rationals to symbols; numerators stay integral by scaling
    every term to the largest power of each value's denominator."""
    # Not ``_compose`` with constant polynomials: that route took 3.3 times
    # as long over the 136 nonzero elliptic brackets of -2..14 at n = 7
    # (4.19 ms against 1.28 ms), and every bracket at numeric n is one call.
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


def _group(terms: Terms, names: Iterable[str]) -> dict[tuple[int, ...], Terms]:
    """Terms grouped by their exponents of the named symbols, in the order of
    ``names``; the symbols are removed from the keys."""
    shifts = [_symbol_shift(name) for name in names]
    groups: dict[tuple[int, ...], Terms] = {}
    for k, v in terms.items():
        exps = tuple((k >> shift) & _SLOT_MASK for shift in shifts)
        k -= sum(e << shift for e, shift in zip(exps, shifts))
        groups.setdefault(exps, {})[k] = v
    return groups


def _compose(terms: Terms, den: int,
             assignment: Mapping[str, "ParamPoly"]) -> tuple[Terms, int]:
    """Substitute polynomials for symbols: group terms by the exponents of
    the replaced symbols, then sum each group times its power product."""
    polys = list(assignment.values())
    powers: dict[tuple[int, int], tuple[Terms, int]] = {}

    def power(i: int, e: int) -> tuple[Terms, int]:
        if (i, e) not in powers:
            poly = polys[i]
            powers[i, e] = (({0: 1}, 1) if e == 0
                            else _mul(*power(i, e - 1), poly._terms, poly._den))
        return powers[i, e]

    products = []
    for exps, group in _group(terms, assignment).items():
        part: tuple[Terms, int] = ({0: 1}, 1)
        for i, e in enumerate(exps):
            part = _mul(*part, *power(i, e))
        products.append((1, group.items(), 1, part[0].items(), part[1]))
    acc, acc_den = _signed_products(products)
    return _reduce(acc, acc_den * den)


def _term_text(sym_key: int, mag: int, den: int) -> str:
    """Text of mag * symbols(sym_key) / den for a positive ``mag``."""
    g = gcd(mag, den)
    mag_text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
    mono = _symbol_text(sym_key)
    if not mono:
        return mag_text
    if mag == den:
        return mono
    return f"{mag_text}*{mono}"


def _coefficient_text(items, den: int) -> str:
    """Text of sum(num * symbols(sym_key)) / den over (sym_key, num) items
    in descending symbol-key order."""
    chunks: list[str] = []
    for sym_key, num in items:
        body = _term_text(sym_key, abs(num), den)
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(chunks) or "0"


def _numeric_values(values: Mapping[str, complex]) -> dict[int, complex]:
    return {_SYM_INDEX[name]: v if isinstance(v, complex) else complex(v)
            for name, v in values.items()}


def _coefficient_value(items, den: int, vals: dict[int, complex]) -> complex:
    """Numeric value of a coefficient over (sym_key, num) items in descending
    symbol-key order (descending lexicographic order of the exponent
    vectors), so that equal values evaluate equally."""
    total = 0j
    for sym_key, num in items:
        term = complex(num / den)
        for i, e in _exponents(sym_key):
            if i not in vals:
                raise KeyError(f"symbol {SYMBOLS[i]!r} not assigned")
            term *= vals[i] ** e
        total += term
    return total


def _tail_term(tail: bytes) -> tuple[int, int]:
    """(symbol key, numerator) of a term's tail from :func:`_graded_lex`."""
    return int.from_bytes(tail[:_NSYM], "big"), int.from_bytes(tail[_NSYM:], "big", signed=True)


def _graded_lex(terms: Terms, merged: int, decode: Callable[[bytes, int], Sequence]
                ) -> Iterator[tuple[Sequence, Sequence, list[bytes]]]:
    """Terms by generator monomial in graded lexicographic order, from the
    terms and the OR of their keys.

    Yields (low, high, tails) per monomial.  Each tail is the symbol bytes
    of a term, most significant first, then its numerator (see
    :func:`_tail_term`); the tails come in descending symbol order.  The
    monomial is ``low + high``, the decodes of the two halves of its
    multiplicities, where ``decode(multiplicities, first index)`` runs once
    per distinct half.

    Each term is one byte string in one list, sorted in descending order:
    the size's complement to the slot sum of the OR, the multiplicities in
    index order, the symbol bytes and a signed numerator of one width.
    """
    if not terms:
        return
    gens = _gen_bytes(merged)
    # an even width, so that the top odd slot holds the most negative index;
    # with no negative index the odd slots are left out
    width = len(gens) + (len(gens) & 1)
    nbytes = _NSYM + width
    negative = any(gens[1::2])
    odd = slice(-1, _NSYM, -2) if negative else slice(0)
    first = -width // 2 if negative else 0
    # no size exceeds the slot sum of the OR; below the modulus every size
    # is its own residue.  At least one size byte, so that a monomial's
    # prefix is never empty.
    top = sum(gens)
    residue = top < _SIZE_MODULUS
    nsize = top.bit_length() // 8 + 1
    nnum = max(map(abs, terms.values())).bit_length() // 8 + 1
    ranks: list[bytes] = []
    append = ranks.append
    for k, num in terms.items():
        b = k.to_bytes(nbytes, "little")
        size = (k >> _SYM_BITS) % _SIZE_MODULUS if residue else sum(b[_NSYM:])
        append((top - size).to_bytes(nsize, "big") + b[odd] + b[_NSYM::2]
               + b[_NSYM - 1::-1] + num.to_bytes(nnum, "big", signed=True))
    ranks.sort(reverse=True)
    # Split the occurring multiplicities start..stop-1 in the middle, so that
    # each half takes few distinct values; together they name the monomial.
    b = merged.to_bytes(nbytes, "little")
    mults = b[odd] + b[_NSYM::2]
    used = [i for i, mult in enumerate(mults) if mult]
    start, stop = (used[0], used[-1] + 1) if used else (0, 0)
    split = (start + stop) // 2
    low_bytes, high_bytes = slice(nsize + start, nsize + split), slice(nsize + split, nsize + stop)
    cut = nsize + len(mults)  # a rank is its monomial's prefix and a tail
    lows: dict[bytes, Sequence] = {}
    highs: dict[bytes, Sequence] = {}
    ranks.append(b"")  # starts with no prefix: ends the last monomial
    mono = ranks[0][:cut]
    tails: list[bytes] = []
    for rank in ranks:
        if rank.startswith(mono):
            tails.append(rank[cut:])
            continue
        low, high = mono[low_bytes], mono[high_bytes]
        lo = lows.get(low)
        if lo is None:
            lo = lows[low] = decode(low, first + start)
        hi = highs.get(high)
        if hi is None:
            hi = highs[high] = decode(high, first + split)
        yield lo, hi, tails
        mono = rank[:cut]
        tails = [rank[cut:]]


# -- the two public types --------------------------------------------------------


class _Packed:
    """Shared state and ring plumbing of ``ParamPoly`` and ``EPoly``.

    ``+``, ``-``, ``*`` and ``**`` sum in ``_signed_products``.  ``+`` and
    ``*`` are defined on each subclass, so that the two classes own
    distinct operator functions (``perfbench/tracer.py`` times them
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

    def _sum(self, other, sign: int = 1):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._wrap(*_signed_products(
            ((1, self._terms.items(), self._den, _UNIT_PAIRS, 1),
             (sign, o[0].items(), o[1], _UNIT_PAIRS, 1))))

    def _product(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._wrap(*_mul(self._terms, self._den, *o))

    def __neg__(self):
        return self._wrap({k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self._sum(other, -1)

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

    # -- evaluation -------------------------------------------------------

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every symbol that occurs must be assigned.

        Terms are summed in the canonical order of :meth:`terms`, so equal
        values give equal results."""
        return _coefficient_value(sorted(self._terms.items(), reverse=True), self._den,
                                  _numeric_values(values))

    # -- text -------------------------------------------------------------

    def to_text(self) -> str:
        return _coefficient_text(sorted(self._terms.items(), reverse=True), self._den)


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

    __slots__ = ("_or", "_values")

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

    @classmethod
    def from_integers(cls, terms: Iterable[tuple[int, int, int]], den: int = 1) -> "EPoly":
        """Sum of num * n^d * e[mono] / den over (key, d, num) items, where
        ``key`` is the packed generator key of ``mono``, a sum of slot units
        (``_unit(a) + _unit(b)`` for e[a] e[b]).

        The packed constructor for coefficients that are integer polynomials
        in ``n`` over one positive denominator: terms are summed in integers
        and reduced once, with no ``Fraction`` and no index tuple; the slot
        guard checks the result keys."""
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        n_unit = 1 << _SYM_SHIFT[0]
        acc: Terms = {}
        for key, d, num in terms:
            if not 0 <= d <= _MAX_EXP:
                raise OverflowError(f"symbol exponent {d} outside 0..{_MAX_EXP}")
            key += d * n_unit
            acc[key] = acc.get(key, 0) + num
        acc = {k: v for k, v in acc.items() if v}
        _check_slots(acc)
        return cls._wrap(*_reduce(acc, den))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, other):
        return self._product(other)

    __rmul__ = __mul__

    def bracket(self, other: "EPoly", rule: Callable[[int, int], "EPoly"]) -> "EPoly":
        """Leibniz extension of a generator bracket ``rule(alpha, beta)``.

        Returns the sum over generators e[a] of this element of
        ``{e[a], other} * dP/de[a]``; coefficients are central scalars.
        ``rule`` is called once per pair of occurring generators.  The small
        {e[a], other} come first, then each dP/de[a] as its product is summed.
        """
        dq = other.partials()
        rows = [(unit, h) for alpha, _, unit in _gen_slots(self._merged())
                if (h := generator_bracket_sum(((alpha, dq),), rule))]
        den = self._den
        return self._wrap(*_signed_products(
            ((1, h._terms.items(), h._den, _partial(self._terms, unit), den) for unit, h in rows),
            den * lcm(*(h._den for _, h in rows))))

    def partials(self) -> "Partials":
        """Every partial derivative dQ/de[beta] of this element, packed for
        :func:`generator_bracket_sum`."""
        return {beta: _partial(self._terms, unit)
                for beta, _, unit in _gen_slots(self._merged())}, self._den

    # -- queries ----------------------------------------------------------

    def _groups(self) -> tuple[tuple[tuple[int, ...], list[tuple[int, int]]], ...]:
        """(monomial, [(symbol key, numerator)]) in graded lexicographic order,
        symbol keys descending, decoded once per value: numeric checks
        evaluate one element many times."""
        if self._view is None:
            # _tail_term inlined: numeric checks decode every term of many
            # small elements, where one more call per term shows
            from_bytes = int.from_bytes
            self._view = tuple(
                (lo + hi, [(from_bytes(tail[:_NSYM], "big"),
                            from_bytes(tail[_NSYM:], "big", signed=True)) for tail in tails])
                for lo, hi, tails in _graded_lex(self._terms, self._merged(), _indices))
        return self._view

    def _merged(self) -> int:
        """OR of the keys, every slot that some term uses: computed on first
        use and kept."""
        merged = getattr(self, "_or", None)
        if merged is None:
            merged = self._or = reduce(or_, self._terms, 0)
        return merged

    def _degrees(self) -> set[int]:
        """Sizes of the monomials that occur: the residues of the generator
        parts when the slots of the OR of the keys sum below the modulus."""
        if sum(_gen_bytes(self._merged())) < _SIZE_MODULUS:
            return {(k >> _SYM_BITS) % _SIZE_MODULUS for k in self._terms}
        return {sum(_gen_bytes(k)) for k in self._terms}

    def terms(self) -> Iterator[tuple[tuple, ParamPoly]]:
        """Terms in canonical (graded lexicographic) monomial order."""
        for mono, items in self._groups():
            yield mono, ParamPoly._wrap(*_reduce(dict(items), self._den))

    def coefficient_values(self, values: Mapping[str, complex]) -> tuple[tuple[tuple, complex], ...]:
        """(monomial, numeric coefficient) in the order of :meth:`terms`,
        with each coefficient evaluated as :meth:`ParamPoly.evaluate` does.

        The last result is kept on the value, keyed on the exact parameter
        values: a numeric check evaluates one element at the same
        parameters for every sample."""
        vals = _numeric_values(values)
        key = repr(vals)
        memo = getattr(self, "_values", None)
        if memo is None or memo[0] != key:
            memo = self._values = (key, tuple(
                (mono, _coefficient_value(items, self._den, vals))
                for mono, items in self._groups()))
        return memo[1]

    def num_terms(self) -> int:
        """Number of distinct generator monomials."""
        return len({k >> _SYM_BITS for k in self._terms})

    def supported_in(self, allowed: "IndexSet") -> bool:
        """True when every generator that occurs is in ``allowed``: one test of
        the OR of the keys against the mask of the allowed slots."""
        return not self._merged() & ~allowed.key_mask

    def support(self) -> set[int]:
        """Generator indices occurring with nonzero coefficient."""
        return {alpha for alpha, _, _ in _gen_slots(self._merged())}

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
        return {d: self._wrap(*_reduce(group, self._den))
                for (d,), group in sorted(_group(self._terms, (name,)).items())}

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
        den = self._den
        # " + (coefficient)" by the joined tails of its terms: a repeated
        # coefficient decodes nothing
        texts: dict[bytes, str] = {}
        parts: list[str] = []
        append = parts.append
        for lo, hi, tails in _graded_lex(self._terms, self._merged(), _indices_text):
            key = b"".join(tails)
            coeff = texts.get(key)
            if coeff is None:
                body = _coefficient_text([_tail_term(tail) for tail in tails], den)
                coeff = texts[key] = f" + ({body})"
            # the halves are "*e[a]*e[b]..." or empty
            append(coeff)
            append(lo)
            append(hi)
        # the generator has ended, so its rank list is freed before the join
        parts[0] = parts[0][3:]
        # only the first monomial can be the unit monomial
        if not (parts[1] or parts[2]):
            parts[1] = "*1"
        return "".join(parts)


EPoly._OPERANDS = (EPoly, ParamPoly)
_EP_ZERO = EPoly()
_EP_ONE = EPoly({(): 1})


def generator_bracket_sum(items: Iterable[tuple[int, Partials]],
                          rule: Callable[[int, int], EPoly]) -> EPoly:
    """Sum of {e[alpha], Q} = sum over beta of rule(alpha, beta) * dQ/de[beta]
    over (alpha, Q.partials()) items.

    Equal to the sum of ``EPoly.gen(alpha).bracket(Q, rule)``, but every
    product goes into one integer dict over one common denominator, which is
    reduced once.  ``rule`` is called once per (alpha, beta) that occurs.
    """
    return EPoly._wrap(*_signed_products([
        (1, r._terms.items(), r._den, part, den)
        for alpha, (parts, den) in items for beta, part in parts.items()
        if (r := rule(alpha, beta))]))


def signed_products(products: Iterable[tuple[int, _Packed, _Packed]]) -> EPoly:
    """Sum of sign * a * b over (sign, a, b) items, each of a and b an
    ``EPoly`` or a ``ParamPoly``.

    Equal to adding up the products with ``+`` and ``-``, but every product
    goes into one integer dict, so no product or partial sum is built."""
    return EPoly._wrap(*_signed_products(
        [(sign, a._terms.items(), a._den, b._terms.items(), b._den) for sign, a, b in products]))


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
    """The generator index window F_n = {0} u {2..n}."""

    __slots__ = ("n", "key_mask")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("F_n needs a positive n")
        self.n = n
        # the symbol slots and the generator slots of the members
        self.key_mask = _SYM_MASK | _SLOT_MASK * sum(map(_unit, self.members()))

    @classmethod
    def fn(cls, n: int) -> "IndexSet":
        return cls(n)

    def __contains__(self, alpha: int) -> bool:
        return alpha == 0 or 2 <= alpha <= self.n

    def members(self) -> list[int]:
        return [0] + list(range(2, self.n + 1))

    def __iter__(self):
        return iter(self.members())

    def __repr__(self) -> str:
        return f"IndexSet.fn({self.n})"
