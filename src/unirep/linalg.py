"""Exact square matrices with truncated exponential and logarithm.

Entries are either scalars (Fraction / Residue) or Polynomials, never mixed
within one matrix.  One reader, `_field_rows`, takes entries to field rows.
Each operator has one body over the rows `_operands` hands it: when every
entry of the operands is a Residue mod one p, the ints, and the result is
built with one Residue per output entry; any other matrix, its entries
themselves, with their own arithmetic.  The exp/log series take F_p or Q
entries only: they read their operand once into rows (`_series_rows`), walk
its powers on them (`_series_walk`) and build the result's entries once, d^2
Residues over F_p.  The walk stops at the first
zero power, so no division by k! for k >= index ever happens; this is what
keeps every denominator coprime to the characteristic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul, sub, truediv

from .arith import Residue, _inverse, coerce_scalar
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
        return Residue(1, entry.p)
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
        op, k = (mul, _inverse(k, p)) if p else (truediv, k)
        return _wrap([[op(x, k) for x in row] for row in a], p)

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


def _matmul(a, b, p=None):
    """Rows of the product of the row lists a (r x k) and b (k x c), k >= 1,
    each a new list.  Ring elements (p None) are summed left to right.  Over
    a field, ints mod p > 0 or Fractions at p = 0, each row of a takes its own
    method: an int row more than half nonzero takes the dot product with each
    column of b, any other row adds x b_k over its nonzero x = a_ik and the
    nonzero rows b_k (Gustavson, ACM TOMS 4(3), 1978)."""
    if p is None:
        cols = list(zip(*b))
        return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]
    cols = nonzero = None
    zero = [0 if p else Fraction(0)] * len(b[0])
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
        out.append(zero[:] if acc is None else [s % p for s in acc] if p else acc)
    return out


def _zip_rows(op, a, b):
    return [list(map(op, ra, rb)) for ra, rb in zip(a, b)]


def _identity_rows(d, one):
    zero = one - one
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def _field_rows(m, p):
    """The rows of m over the field of characteristic p, read in one pass:
    the ints of its Residues mod p, or its Fractions when p = 0.  Any other
    entry, such as a Residue mod another prime, raises ModulusMismatchError,
    so nothing is reduced mod the wrong p."""
    rows = []
    for row in m.entries:
        read = []
        for a in row:
            if type(a) is Residue and a.p == p:
                read.append(a.value)
            elif not p and type(a) is Fraction:
                read.append(a)
            else:
                raise ModulusMismatchError(f"entry {a!r} is not in the field of characteristic {p}")
        rows.append(read)
    return rows


def _operands(*matrices, c=0):
    """(p, the rows of each matrix, c) for an operator to compute on: p, the
    int rows and c's int when every entry is a Residue mod one p and c is an
    int or a Residue mod p; else p None, the entries themselves and c, so the
    entries' own arithmetic applies and mixed moduli raise there."""
    first = matrices[0].entries[0][0] if matrices[0].size else None
    if type(first) is Residue:
        p = first.p
        v = c.value if type(c) is Residue and c.p == p else c
        if isinstance(v, int):
            try:
                return p, [_field_rows(m, p) for m in matrices], v
            except ModulusMismatchError:
                pass
    return None, [m.entries for m in matrices], c


def _bracket(a, b, p=None):
    """Rows of ab - ba for the square row lists a and b, reduced mod p when p
    is given."""
    ab, ba = _matmul(a, b, p), _matmul(b, a, p)
    if p:
        return [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    return _zip_rows(sub, ab, ba)


def _is_nilpotent(a, cap, p=None):
    """Whether a^k = 0 for some k <= cap, as nilpotency_index decides it."""
    power = a
    for k in range(1, cap + 1):
        if not any(map(any, power)):
            return True
        if k < cap:
            power = _matmul(power, a, p)
    return False


def _series_rows(*matrices):
    """[p, the unit, the rows of each matrix], all in the field of the first
    entry: the ints of Residues mod p, or else with p = 0 Fractions, plain
    ints read as Fractions.  An entry outside that field, a Polynomial
    included, raises ModulusMismatchError, as in _field_rows."""
    first = matrices[0].entries[0][0] if matrices[0].size else None
    p = first.p if type(first) is Residue else 0
    out = [p, 1 if p else Fraction(1)]
    for m in matrices:
        if not p and any(type(a) is int for row in m.entries for a in row):
            m = m.map_entries(lambda a: Fraction(a) if type(a) is int else a)
        out.append(_field_rows(m, p))
    return out


def _wrap(rows, p):
    """The matrix over square rows, with Residue(v, p) for each entry v when
    p > 0 (else the rows themselves), without SquareMatrix's copy and shape
    check."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.size = len(rows)
    m.entries = [[Residue(v, p) for v in row] for row in rows] if p else rows
    return m


def nilpotency_index(m: SquareMatrix, cap: int) -> int:
    """Least k <= cap with m^k = 0 (zero meaning zero polynomial for
    polynomial entries)."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    power = m
    for k in range(1, cap + 1):
        if power.is_zero():
            return k
        if k < cap:
            power = power @ m
    raise NotNilpotentError(f"matrix is not nilpotent within {cap} powers")


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
