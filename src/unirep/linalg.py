"""Exact square matrices with truncated exponential and logarithm.

Entries are either scalars (Fraction / Residue) or Polynomials, never mixed
within one matrix.  When every entry of the operands is a Residue mod one p,
products, sums and scalings run on the ints and build one Residue per output
entry; any other matrix takes the entries' own arithmetic.  The exp/log
series are truncated at the measured nilpotency index, so no division by k!
for k >= index ever happens; this is what keeps every denominator coprime to
the characteristic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

from .arith import Residue, coerce_scalar
from .errors import NotNilpotentError, SeriesTerminationError, ShapeError
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
    def from_rows(cls, rows):
        return cls(rows)

    @classmethod
    def identity(cls, d, one):
        zero = one - one
        return cls([[one if i == j else zero for j in range(d)] for i in range(d)])

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
        p = _common_modulus(self, other)
        if p:
            rows = zip(_values(self), _values(other))
            return _residues([list(map(op, ra, rb)) for ra, rb in rows], p)
        rows = zip(self.entries, other.entries)
        return SquareMatrix([list(map(op, ra, rb)) for ra, rb in rows])

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __neg__(self):
        p = _common_modulus(self)
        if p:
            return _residues([[-a for a in row] for row in _values(self)], p)
        return SquareMatrix([[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        self._check(other)
        p = _common_modulus(self, other)
        if p:
            return _residues(_matmul(_values(self), _values(other), p), p)
        return SquareMatrix(_matmul(self.entries, other.entries))

    __mul__ = __matmul__

    def scale(self, c):
        p = _common_modulus(self)
        v = _scalar_value(c, p) if p else None
        if v is not None:
            return _residues([[a * v for a in row] for row in _values(self)], p)
        return SquareMatrix([[a * c for a in row] for row in self.entries])

    def __truediv__(self, k):
        p = _common_modulus(self)
        if p and _scalar_value(k, p) is not None:
            # dividing a Residue by k raises ConversionError when p | k
            inverse = (Residue(1, p) / k).value
            return _residues([[a * inverse for a in row] for row in _values(self)], p)
        return SquareMatrix([[a / k for a in row] for row in self.entries])

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
    """Rows of the product of the row lists a (r x k) and b (k x c), k >= 1.

    With p the entries are ints and every output entry is reduced into
    [0, p).  Without it they are ring elements, and each output entry is
    a_i1 b_1j + a_i2 b_2j + ... added left to right.
    """
    cols = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def _common_modulus(*matrices):
    """p when every entry of the matrices is a Residue mod p, else None."""
    first = matrices[0].entries[0][0] if matrices[0].size else None
    if type(first) is not Residue:
        return None
    p = first.p
    for m in matrices:
        for row in m.entries:
            for a in row:
                if type(a) is not Residue or a.p != p:
                    return None
    return p


def _scalar_value(c, p):
    """The int that c stands for mod p, or None when c is neither an int nor
    a Residue mod p."""
    if type(c) is Residue:
        return c.value if c.p == p else None
    return c if isinstance(c, int) else None


def _values(m):
    return [[a.value for a in row] for row in m.entries]


def _residues(rows, p):
    """The matrix of Residue(v, p) over square int rows, without SquareMatrix's
    copy and shape check."""
    m = SquareMatrix.__new__(SquareMatrix)
    m.size = len(rows)
    m.entries = [[Residue(v, p) for v in row] for row in rows]
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


def _series_index(x: SquareMatrix, char_bound) -> int:
    """Nilpotency index of x, enforcing index <= char_bound when bounded.

    Over a domain a nilpotent d x d matrix has index <= d, so the search is
    capped at min(char_bound, d).
    """
    cap = x.size if char_bound is None else min(char_bound, x.size)
    try:
        return nilpotency_index(x, cap)
    except NotNilpotentError:
        if char_bound is not None and char_bound < x.size:
            raise SeriesTerminationError(
                f"nilpotency index exceeds the characteristic bound {char_bound}"
            ) from None
        raise


def exp_nilpotent(x: SquareMatrix, char_bound=None) -> SquareMatrix:
    """sum_{k < index} x^k / k!, requiring index <= char_bound when given.

    char_bound is p in characteristic p (the series must terminate before any
    denominator divisible by p) and None over the rationals.
    """
    index = _series_index(x, char_bound)
    result = x.identity_like()
    power = x.identity_like()
    kfact = 1
    for k in range(1, index):
        power = power @ x
        kfact *= k
        result = result + power / kfact
    return result


def log_unipotent(g: SquareMatrix, char_bound=None) -> SquareMatrix:
    """Truncated alternating series sum ((-1)^(k-1)/k) (g-1)^k."""
    u = g - g.identity_like()
    index = _series_index(u, char_bound)
    result = u.zero_like()
    power = g.identity_like()
    for k in range(1, index):
        power = power @ u
        term = power / k
        result = result + (term if k % 2 == 1 else -term)
    return result


def commutator(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    return a @ b - b @ a


def scalar_matrix(entries, p: int) -> SquareMatrix:
    """Matrix from nested ints/Fractions, coerced into characteristic p."""
    return SquareMatrix([[coerce_scalar(v, p) for v in row] for row in entries])
