"""Exact square matrices with truncated exponential and logarithm.

Entries are either scalars (Fraction / Residue) or Polynomials, never mixed
within one matrix.  One reader, `_field_rows`, takes entries to field rows.
Each operator has one body over the rows `_operands` hands it: when every
entry of the operands is a Residue mod one p, the ints, and the result is
built with one Residue per output entry; when every entry is a Fraction or
a plain int, the Fractions; any other matrix (polynomial or mixed), its
entries themselves, with their own arithmetic.  The exp/log series take F_p
or Q entries only: they read their operand once into rows (`_series_rows`),
walk its powers on them (`_series_walk`, which `_is_nilpotent` counts, so no
nilpotency test forms a power past d) and build the result's entries once,
d^2 Residues over F_p.  The walk stops at the first zero power, so no division
by k! for k >= index ever happens; this is what keeps every denominator
coprime to the characteristic.  A packed right operand (`_packed`) makes each
row of a product one int sum (Kronecker substitution), reduced mod p once.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

from .arith import Residue, _inverse, _residues, coerce_scalar
from .errors import ModulusMismatchError, NotNilpotentError, SeriesTerminationError, ShapeError
from .hopf import Polynomial

__all__ = [
    "SquareMatrix",
    "nilpotency_index",
    "exp_nilpotent",
    "log_unipotent",
    "commutator",
    "scalar_matrix",
    "one_like",
]


def one_like(entry):
    if isinstance(entry, Polynomial):
        return Polynomial.one(entry.n, entry.p)
    if isinstance(entry, Residue):
        return _residues(entry.p)[1]
    return Fraction(1)


class SquareMatrix:
    """A d x d matrix over an exact commutative ring."""

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        d = len(entries)
        if any(len(row) != d for row in entries):
            raise ShapeError("matrix must be square")
        self.size = d
        self.entries = entries

    @classmethod
    def identity(cls, d, one):
        return cls(_identity_rows(d, one))

    def identity_like(self):
        return SquareMatrix.identity(self.size, one_like(self.entries[0][0]))

    def zero_like(self):
        one = one_like(self.entries[0][0])
        zero = one - one
        return SquareMatrix([[zero] * self.size for _ in range(self.size)])

    def _check(self, other):
        if self.size != other.size:
            raise ShapeError("matrix size mismatch")

    def _zip(self, other, op):
        self._check(other)
        p, (a, b), _ = _operands(self, other)
        return _wrap(_zip_rows(op, a, b), p)

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __neg__(self):
        p, (a,), _ = _operands(self)
        return _wrap([[-x for x in row] for row in a], p)

    def __matmul__(self, other):
        self._check(other)
        p, (a, b), _ = _operands(self, other)
        return _wrap(_matmul(a, b, p), p)

    __mul__ = __matmul__

    def scale(self, c):
        p, (a,), c = _operands(self, c=c)
        return _wrap([[x * c for x in row] for row in a], p)

    def __truediv__(self, k):
        p, (a,), k = _operands(self, c=k)
        return _wrap(_divided(a, k, p), p)

    def map_entries(self, fn):
        return SquareMatrix([[fn(a) for a in row] for row in self.entries])

    def transpose(self):
        return SquareMatrix([list(col) for col in zip(*self.entries)])

    def is_zero(self):
        return all(not a for row in self.entries for a in row)

    def __eq__(self, other):
        return (
            isinstance(other, SquareMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in row) for row in self.entries) + "]"

    __repr__ = __str__


_FIELDS = sorted((8 * array(code).itemsize, code) for code in "BHIQ")


def _field_code(bound):
    """The array code of the narrowest field holding 0..bound; None past 64 bits."""
    return next((code for bits, code in _FIELDS if bound >> bits == 0), None)


class _Packed(list):
    """Rows of ints >= 0, each one int with entry k in field k of the array
    type ``code``, so sums of rows times ints >= 0 add field by field."""

    __slots__ = ("code", "nbytes")


def _packed(rows, p):
    """The rows of ints mod p as _matmul's right operand: packed in the
    narrowest fields that hold len(rows) (p - 1)^2, an entry's bound in a
    product by ints mod p, else (p = 0, past 64 bits) the rows themselves."""
    code = p and _field_code(len(rows) * (p - 1) ** 2)
    if not code:
        return rows
    out = _Packed([int.from_bytes(array(code, row).tobytes(), sys.byteorder) for row in rows])
    out.code, out.nbytes = code, len(rows[0]) * array(code).itemsize
    return out


def _matmul(a, b, p=None):
    """Rows of the product of the row lists a (r x k) and b (k x c), k >= 1,
    each a new list.  Ring elements (p None) are summed left to right.  Over
    a field, ints mod p > 0 or Fractions at p = 0, each row of a takes its own
    method: an int row more than half nonzero takes the dot product with each
    column of b, any other row adds x b_k over its nonzero x = a_ik and the
    nonzero rows b_k (Gustavson, ACM TOMS 4(3), 1978); with a packed b
    (_packed), one int sum of x b_k, unpacked and reduced mod p once."""
    if p is None:
        cols = list(zip(*b))
        return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]
    if type(b) is _Packed:
        code, nbytes = b.code, b.nbytes
        return [[v % p for v in memoryview(sum(map(mul, row, b)).to_bytes(nbytes, sys.byteorder)).cast(code)]
                for row in a]
    cols = nonzero = None
    zero = 0 if p else Fraction(0)
    out = []
    for row in a:
        zeros = row.count(0)
        if p and 2 * zeros < len(row):
            cols = cols or list(zip(*b))
            out.append([sum(map(mul, row, col)) % p for col in cols])
            continue
        acc = None
        if zeros < len(row):
            nonzero = nonzero or [(k, brow) for k, brow in enumerate(b) if any(brow)]
            for k, brow in nonzero:
                x = row[k]
                if x:
                    acc = [x * y for y in brow] if acc is None else [s + x * y for s, y in zip(acc, brow)]
        out.append([zero] * len(b[0]) if acc is None else [s % p for s in acc] if p else acc)
    return out


def _zip_rows(op, a, b):
    return [list(map(op, ra, rb)) for ra, rb in zip(a, b)]


def _identity_rows(d, one):
    zero = one - one
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def _field_rows(m, p):
    """The rows of m over the field of characteristic p, read in one pass:
    the ints of its Residues mod p, or when p = 0 its Fractions, plain ints
    read as their Fractions.  Any other entry, such as a Residue mod another
    prime, raises ModulusMismatchError, so nothing is reduced mod the wrong p."""
    rows = []
    for row in m.entries:
        read = []
        for a in row:
            if type(a) is Residue and a.p == p:
                read.append(a.value)
            elif not p and type(a) is Fraction:
                read.append(a)
            elif not p and type(a) is int:
                read.append(Fraction(a))
            else:
                raise ModulusMismatchError(f"entry {a!r} is not in the field of characteristic {p}")
        rows.append(read)
    return rows


def _operands(*matrices, c=0, ring=True):
    """(p, the rows of each matrix, c) for an operator to compute on.  The
    field is the first entry's: F_p for a Residue mod p, else Q (p = 0).
    When every entry is in it and c is an int, a Residue mod p or at p = 0 a
    Fraction: p, the field rows (_field_rows) and c, a Residue as its int.
    Else p None, the entries themselves and c, so the entries' own arithmetic
    applies and mixed moduli raise there; with ring=False an entry outside
    the field raises _field_rows' ModulusMismatchError instead."""
    first = matrices[0].entries[0][0] if matrices[0].size else None
    p = first.p if type(first) is Residue else 0
    v = c.value if type(c) is Residue and c.p == p else c
    if isinstance(v, int) or not p and type(v) is Fraction:
        try:
            return p, [_field_rows(m, p) for m in matrices], v
        except ModulusMismatchError:
            if not ring:
                raise
    return None, [m.entries for m in matrices], c


def _bracket(a, b, p=None):
    """Rows of ab - ba for the square row lists a and b, reduced mod p when p
    is given."""
    ab, ba = _matmul(a, b, p), _matmul(b, a, p)
    if p:
        return [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    return _zip_rows(sub, ab, ba)


def _is_nilpotent(a, cap, p=None):
    """The least k <= cap with a^k = 0 on the rows a, else None, counted on _series_walk."""
    if cap < 1 or not a:  # the walk refuses both; a 0 x 0 matrix is zero
        return 1 if cap >= 1 else None
    try:
        return 1 + sum(1 for _ in _series_walk(a, cap, p))
    except (NotNilpotentError, SeriesTerminationError):
        return None


def _series_rows(*matrices):
    """[p, the unit, the rows of each matrix], all in the field of the first
    entry (_operands); an entry outside it raises ModulusMismatchError."""
    p, rows, _ = _operands(*matrices, ring=False)
    return [p, 1 if p else Fraction(1), *rows]


def _wrap(rows, p):
    """The matrix over square rows, with the Residue of v mod p for each entry
    v when p > 0, shared below arith.SHARED_BELOW (else the rows themselves),
    without SquareMatrix's copy and shape check."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.size = len(rows)
    if p:
        table = _residues(p)
        rows = [[table[v % p] for v in row] for row in rows]
    m.entries = rows
    return m


def nilpotency_index(m: SquareMatrix, cap: int) -> int:
    """Least k <= cap with m^k = 0 (zero meaning zero polynomial for
    polynomial entries)."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    p, (a,), _ = _operands(m)
    if (k := _is_nilpotent(a, cap, p)) is None:
        raise NotNilpotentError(f"matrix is not nilpotent within {cap} powers")
    return k


def _series_walk(x, char_bound, p):
    """The rows x, x^2, ... up to the last nonzero power, each formed once by
    _matmul(power, x, p).

    Over a domain a nilpotent d x d matrix has index <= d, so the walk is
    capped at min(char_bound, d).  A nonzero power at the cap raises before it
    is yielded, so no series term with a denominator divisible by the
    characteristic is ever formed.
    """
    d = len(x)
    cap = d if char_bound is None else min(char_bound, d)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    power = x
    for k in range(1, cap + 1):
        if not any(map(any, power)):
            return
        if k == cap:
            break
        yield power
        power = _matmul(power, x, p)
    if char_bound is not None and char_bound < d:
        raise SeriesTerminationError(f"nilpotency index exceeds the characteristic bound {char_bound}")
    raise NotNilpotentError(f"matrix is not nilpotent within {cap} powers")


def _divided(rows, k, p):
    """Rows of rows / k: times the inverse of k mod p when p > 0 (p | k
    raises ConversionError, as Residue division does), else the Fractions'
    own division."""
    if p:
        inverse = _inverse(k, p)
        return [[x * inverse % p for x in row] for row in rows]
    return [[x / k for x in row] for row in rows]


def exp_nilpotent(x: SquareMatrix, char_bound=None) -> SquareMatrix:
    """sum_{k < index} x^k / k!, requiring index <= char_bound when given.

    char_bound is p in characteristic p (the series must terminate before any
    denominator divisible by p) and None over the rationals.
    """
    p, one, a = _series_rows(x)
    result = _identity_rows(len(a), one)
    kfact = 1
    for k, power in enumerate(_series_walk(a, char_bound, p), start=1):
        kfact *= k
        result = _zip_rows(add, result, _divided(power, kfact, p))
    return _wrap(result, p)


def log_unipotent(g: SquareMatrix, char_bound=None) -> SquareMatrix:
    """Truncated alternating series sum ((-1)^(k-1)/k) (g-1)^k."""
    p, one, a = _series_rows(g)
    identity = _identity_rows(len(a), one)
    u = _zip_rows(sub, a, identity)
    result = _zip_rows(sub, identity, identity)
    for k, power in enumerate(_series_walk(u, char_bound, p), start=1):
        result = _zip_rows(add if k % 2 == 1 else sub, result, _divided(power, k, p))
    return _wrap(result, p)


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    return a @ b - b @ a


def scalar_matrix(entries, p: int) -> SquareMatrix:
    """Matrix from nested ints/Fractions, coerced into characteristic p."""
    return SquareMatrix([[coerce_scalar(v, p) for v in row] for row in entries])
