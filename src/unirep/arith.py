"""Exact scalars and the base-p combinatorics used throughout.

Two coefficient domains are supported: arbitrary-precision rationals
(``fractions.Fraction``) for characteristic zero, and ``Residue`` for the
prime fields F_p.  Everything is immutable and exact.

A field of p elements has only p values, so for p below ``SHARED_BELOW`` the
kernels that turn int results into field elements share one ``Residue`` per
value (hash-consing): ``_residues(p)`` is a table of at most p entries, each
built once through the checked constructor.  Past the bound it is a mapping
that stores nothing and builds each ``Residue`` anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConversionError, CostBoundError, ModulusMismatchError, ShapeError

__all__ = [
    "Residue",
    "check_field",
    "coerce_scalar",
    "scalar_to_str",
    "scalar_from_str",
    "factorial",
    "multinomial",
    "matrix_multinomial",
    "PAryDigits",
    "p_ary_digits",
    "sum_carries",
    "gamma_factor",
]


@dataclass(frozen=True)
class Residue:
    """An element of F_p, kept reduced into [0, p)."""

    value: int
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus must be at least 2, got {self.p}")
        object.__setattr__(self, "value", self.value % self.p)

    def _match(self, other):
        if isinstance(other, Residue):
            if other.p != self.p:
                raise ModulusMismatchError(f"cannot mix residues mod {self.p} and mod {other.p}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(v - self.value, self.p)

    def __mul__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.p)

    def __truediv__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * _inverse(v, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


# Moduli below this share their residues; the tables for all of them hold at
# most 80,189 entries, the sum of the primes below 2^10.
SHARED_BELOW = 2**10

_SHARED = {}  # p -> _Shared


class _Shared(dict):
    """The shared residues mod p, each built through the constructor on its
    first lookup; a key outside [0, p) raises, so the table holds at most p."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __missing__(self, value):
        if not 0 <= value < self.p:
            raise ValueError(f"{value!r} is not reduced into [0, {self.p})")
        return self.setdefault(value, Residue(value, self.p))  # a racing thread's stays


class _Fresh:
    """The residues mod p past SHARED_BELOW: each lookup builds a new one and
    nothing is stored."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __getitem__(self, value):
        return Residue(value, self.p)


def _residues(p):
    """{int in [0, p): Residue mod p}: the shared table when p < SHARED_BELOW,
    else a _Fresh mapping that builds each Residue anew."""
    if not 2 <= p < SHARED_BELOW:
        return _Fresh(p)
    table = _SHARED.get(p)
    return _SHARED.setdefault(p, _Shared(p)) if table is None else table


def _inverse(v: int, p: int) -> int:
    """The inverse of the int v mod p; ConversionError when p divides v."""
    if v % p == 0:
        raise ConversionError(f"division by {v} is not invertible mod {p}")
    return pow(v, -1, p)


# Caps the trial division in check_field at 46341 divisors; the exp/log
# regimes need p >= max(n, 2d), far below it.
MAX_MODULUS = 2**31

# These hold a header-only file to under a second of work.  At n = 100,
# d = 512 (fresh process, 2-vCPU 2.1 GHz Xeon) construct of a one-layer file
# without images takes 0.46 s (its validate, over the images present, 0.003 s),
# verify of an empty table 0.6 s, and one sampled pair of it 0.25 s.
MAX_N = 100
MAX_D = 512


_PRIMES = set()  # the primes below MAX_MODULUS that _is_prime has accepted


def _is_prime(p: int) -> bool:
    """Whether 2 <= p < MAX_MODULUS is prime; the trial division runs once per prime."""
    if p not in _PRIMES and 2 <= p < MAX_MODULUS and all(p % q for q in range(2, math.isqrt(p) + 1)):
        _PRIMES.add(p)
    return p in _PRIMES


def check_field(n: int, p: int, d: int) -> None:
    """Refuse a ring context outside the library's domain: the field is Q
    (p = 0) or F_p with p a prime below MAX_MODULUS, and n, d >= 1.  Past
    MAX_N or MAX_D it raises CostBoundError."""
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be positive, got n = {n}, d = {d}")
    if p != 0 and not _is_prime(p):
        raise ValueError(f"p must be 0 or a prime below 2^31, got p = {p}")
    if n > MAX_N:
        raise CostBoundError(f"n = {n} is over the bound of {MAX_N}")
    if d > MAX_D:
        raise CostBoundError(f"d = {d} is over the bound of {MAX_D}")


def coerce_scalar(c, p: int):
    """Coerce ``c`` (int, Fraction or Residue) into the field of characteristic p.

    p == 0 yields a Fraction; p > 0 yields a Residue.  A rational whose reduced
    denominator is divisible by p cannot be converted and raises ConversionError;
    any other value, such as a float or a str, raises TypeError.
    """
    if not isinstance(c, (int, Fraction, Residue)):
        raise TypeError(f"{c!r} is not a field scalar (an int, Fraction or Residue)")
    if p == 0:
        if isinstance(c, Residue):
            raise ConversionError("cannot lift a residue to characteristic zero")
        return Fraction(c)
    if isinstance(c, Residue):
        if c.p != p:
            raise ModulusMismatchError(f"residue mod {c.p} used where mod {p} expected")
        return c
    if isinstance(c, int):
        return Residue(c, p)
    if c.denominator % p == 0:
        raise ConversionError(f"denominator of {c} is divisible by {p}")
    return Residue(c.numerator * pow(c.denominator, -1, p), p)


def scalar_to_str(c) -> str:
    """Canonical decimal-string form: 'a/b' for rationals, 'r' for residues."""
    if isinstance(c, Residue):
        return str(c.value)
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def scalar_from_str(text: str, p: int):
    """Inverse of scalar_to_str for the field of characteristic p: any other
    text of the value raises ValueError.  Over F_p the value's Residue is
    _residues(p)'s."""
    value = Fraction(text) if p == 0 else int(text)
    if p and not 0 <= value < p:
        raise ValueError(f"residue {value} out of range [0, {p})")
    if scalar_to_str(value) != text:
        raise ValueError(f"{text!r} is not the canonical text {scalar_to_str(value)!r}")
    return _residues(p)[value] if p else value


def factorial(k: int) -> int:
    if k < 0:
        raise ValueError("factorial of a negative integer")
    return math.factorial(k)


def multinomial(whole: int, parts) -> int:
    """(whole choose parts) with parts summing to whole; 0 on a sum mismatch."""
    parts = list(parts)
    if sum(parts) != whole or any(q < 0 for q in parts):
        return 0
    out = 1
    rest = whole
    for q in parts:
        out *= math.comb(rest, q)
        rest -= q
    return out


def _rows(m):
    return m.rows if hasattr(m, "rows") else tuple(tuple(r) for r in m)


def matrix_multinomial(whole, parts) -> int:
    """Entrywise product of multinomial coefficients (whole_ij choose parts at ij)."""
    wrows = _rows(whole)
    prows = [_rows(q) for q in parts]
    n = len(wrows)
    for q in prows:
        if len(q) != n:
            raise ShapeError("parts must have the same size as the whole matrix")
    out = 1
    for i in range(n):
        for j in range(n):
            col = [q[i][j] for q in prows]
            if sum(col) != wrows[i][j]:
                raise ShapeError("parts do not sum entrywise to the whole matrix")
            out *= multinomial(wrows[i][j], col)
    return out


@dataclass(frozen=True)
class PAryDigits:
    """Base-p digits of a non-negative integer, least significant first.

    r = 0 is represented as the single digit [0]; otherwise there is no
    trailing zero digit.
    """

    digits: tuple
    p: int

    def reconstruct(self) -> int:
        return sum(d * self.p**i for i, d in enumerate(self.digits))


def p_ary_digits(r: int, p: int) -> PAryDigits:
    if r < 0:
        raise ValueError("p-ary digits of a negative integer")
    if r == 0:
        return PAryDigits((0,), p)
    digits = []
    while r:
        r, d = divmod(r, p)
        digits.append(d)
    return PAryDigits(tuple(digits), p)


def sum_carries(r: int, s: int, p: int) -> bool:
    """True iff adding r and s in base p carries in some digit position."""
    rd = p_ary_digits(r, p).digits
    sd = p_ary_digits(s, p).digits
    if len(rd) < len(sd):
        rd, sd = sd, rd
    sd = sd + (0,) * (len(rd) - len(sd))
    return any(a + b >= p for a, b in zip(rd, sd))


def gamma_factor(r: int, p: int) -> int:
    """Product of the factorials of the base-p digits of r; always coprime to p."""
    return math.prod(math.factorial(d) for d in p_ary_digits(r, p).digits)
