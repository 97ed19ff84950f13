"""The representing Hopf algebra of U_n.

Polynomials in the N = n(n-1)/2 commuting variables x_ij (1 <= i < j <= n)
are keyed by the flat tuple of their exponents in variable_pairs(n) order:
the monomial x^M is the flat upper triangle of its strictly upper-triangular
exponent matrix M.  The tensor square is the polynomial ring in the 2N
variables of both factors, so its elements are keyed by one flat tuple of 2N
exponents, the left factor's then the right factor's; both types share one
term algebra.  The coproduct encodes matrix multiplication in U_n:

    Delta(x_ij) = 1 (x) x_ij  +  sum_{k=i+1}^{j-1} x_ik (x) x_kj  +  x_ij (x) 1
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain
from math import factorial, lcm, prod
from operator import add

from .arith import _residues, coerce_scalar, p_ary_digits
from .errors import HypothesisError, ShapeError

__all__ = [
    "ExponentMatrix",
    "Polynomial",
    "TensorElement",
    "coproduct",
    "counit",
    "tensor_of",
]


class ExponentMatrix:
    """A strictly upper-triangular n x n matrix of non-negative integers.

    It is kept as ``flat``, the tuple of its entries above the diagonal in
    the row-major order of ``variable_pairs(n)``, with its hash computed
    once; ``rows`` is the n x n view.  Instances are immutable.  Only the
    constructor and ``epsilon`` check their input: sums, non-negative
    integer scalings and ``zero`` of valid matrices are built unchecked.
    """

    __slots__ = ("n", "flat", "_hash")

    def __init__(self, n, rows):
        _set(self, "n", n)
        _set(self, "flat", rows)  # until __post_init__ checks and flattens them
        self.__post_init__()

    def __post_init__(self):
        """Check the n x n rows given to the constructor; keep their upper
        triangle, read by _upper_flat."""
        n = self.n
        rows = tuple(tuple(r) for r in self.flat)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeError(f"expected a {n}x{n} matrix")
        flat = _upper_flat(rows)
        _set(self, "flat", flat)
        _set(self, "_hash", hash(flat))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ExponentMatrix, (self.n, self.rows)

    def __eq__(self, other):
        if other.__class__ is not ExponentMatrix:
            return NotImplemented
        return self.flat == other.flat and self.n == other.n

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ExponentMatrix(n={self.n!r}, rows={self.rows!r})"

    @property
    def rows(self):
        entries = iter(self.flat)
        return tuple(
            tuple(next(entries) if j > i else 0 for j in range(self.n)) for i in range(self.n)
        )

    @classmethod
    def zero(cls, n):
        return _zero(n)

    @classmethod
    def epsilon(cls, n, i, j, mult=1):
        """mult at the (i, j) position (1-based), zeroes elsewhere."""
        if not (1 <= i < j <= n and type(mult) is int and mult >= 0):
            rows = [[0] * n for _ in range(n)]
            rows[i - 1][j - 1] = mult
            return cls(n, rows)  # raises the constructor's error
        flat = [0] * (n * (n - 1) // 2)
        flat[_index(n, i, j)] = mult
        return _key(n, tuple(flat))

    def entry(self, i, j):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"({i}, {j}) is outside a {self.n}x{self.n} matrix")
        return self.flat[_index(self.n, i, j)] if i < j else 0

    def __add__(self, other):
        if self.n != other.n:
            raise ShapeError("size mismatch")
        return _key(self.n, tuple(map(add, self.flat, other.flat)))

    def scale(self, e):
        if type(e) is int and e >= 0:
            return _key(self.n, tuple(e * v for v in self.flat))
        return ExponentMatrix(self.n, [[e * v for v in r] for r in self.rows])

    def is_zero(self):
        return not any(self.flat)

    def total_degree(self):
        return sum(self.flat)

    def positions(self):
        """Yield ((i, j), exponent) over the nonzero entries, row-major, 1-based."""
        for pair, m in zip(_pairs(self.n), self.flat):
            if m:
                yield pair, m

    def sort_key(self):
        """The flat entries: same order as the row-major n x n entries, whose
        other entries are all zero."""
        return self.flat

    def max_entry(self):
        return max(self.flat, default=0)

    def __str__(self):
        if self.is_zero():
            return "1"
        return "*".join(
            f"x{i}{j}" + (f"^{m}" if m > 1 else "") for (i, j), m in self.positions()
        )


_set = object.__setattr__


def _check_entries(rows):
    """Raise ShapeError on the first entry, row-major, that is not a
    non-negative int (bool excluded), or is nonzero on or below the diagonal."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ShapeError(f"exponents must be integers, got {v!r}")
            if v < 0:
                raise ShapeError("exponents must be non-negative")
            if j <= i and v != 0:
                raise ShapeError("exponent matrix must be strictly upper triangular")


def _upper_flat(rows):
    """The entries above the diagonal of square rows, row-major, read in one
    pass.  Rows of plain non-negative ints, zero on and below the diagonal,
    then pass two whole-matrix tests; any other rows are read entry by entry
    (_check_entries), which raises ShapeError on the first bad entry."""
    flat = []
    for i, row in enumerate(rows):
        if any(row[:i + 1]):
            _check_entries(rows)
        flat += row[i + 1:]
    if not (set(map(type, chain.from_iterable(rows))) <= {int} and min(flat, default=0) >= 0):
        _check_entries(rows)
    return tuple(flat)


def _key(n, flat):
    """The ExponentMatrix over a flat tuple of non-negative ints, unchecked."""
    m = object.__new__(ExponentMatrix)
    _set(m, "n", n)
    _set(m, "flat", flat)
    _set(m, "_hash", hash(flat))
    return m


def _index(n, i, j):
    """Position of (i, j), 1 <= i < j <= n, in variable_pairs(n)."""
    return (i - 1) * n - (i - 1) * i // 2 + j - i - 1


@cache
def _zero(n):
    return ExponentMatrix(n, [[0] * n for _ in range(n)])


@cache
def _pairs(n):
    return tuple(variable_pairs(n))


def variable_pairs(n):
    """All (i, j) with 1 <= i < j <= n, row-major."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class _Terms:
    """The term algebra that Polynomial and TensorElement share: ``terms`` maps
    each key to a nonzero element of Q (p == 0) or F_p (p prime).

    A key is one flat tuple of exponents, N = n(n-1)/2 of them for each of
    the ``_factors`` factors of the ring: N for a polynomial, 2N for the
    tensor square.  Elements of two types, or of two rings, do not mix:
    combining them raises ShapeError.
    """

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n = n
        self.p = p
        width = self._factors * n * (n - 1) // 2
        clean = {}
        for key, c in (terms or {}).items():
            c = coerce_scalar(c, p)
            if type(key) is ExponentMatrix and self._factors == 1 and key.n == n:
                key = key.flat
            elif not (type(key) is tuple and len(key) == width
                      and all(type(v) is int and v >= 0 for v in key)):
                raise ShapeError(f"term key {key!r} is not {self._key_kind} of size {n}")
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _from_flat(cls, n, p, sums, den=None):
        """The element with the nonzero sums of {flat key: int (p > 0) or
        Fraction, or int over den}, unchecked: every result of the term
        algebra is built here."""
        f = cls.__new__(cls)
        f.n, f.p, f.terms = n, p, dict(_field_sums(sums, p, den))
        return f

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def one(cls, n, p):
        return cls._from_flat(n, p, {(0,) * (cls._factors * n * (n - 1) // 2): 1}, den=1)

    def _flat_items(self):
        """(key, int) over F_p, (key, Fraction) over Q."""
        if self.p:
            return [(k, c.value) for k, c in self.terms.items()]
        return self.terms.items()

    def _check(self, other):
        if type(other) is not type(self) or self.n != other.n or self.p != other.p:
            raise ShapeError(f"{self._elements} from different rings")

    def _add(self, other):
        self._check(other)
        sums = dict(self._flat_items())
        for k, c in other._flat_items():
            sums[k] = sums[k] + c if k in sums else c
        return self._from_flat(self.n, self.p, sums)

    def __neg__(self):
        return self._mul(-1)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _Terms) else -coerce_scalar(other, self.p))

    def _mul(self, other):
        n, p = self.n, self.p
        if not isinstance(other, _Terms):
            c = coerce_scalar(other, p)
            c = c.value if p else c
            return self._from_flat(n, p, {k: x * c for k, x in self._flat_items()})
        self._check(other)
        return self._from_flat(n, p, _convolve(self._flat_items(), other._flat_items()))

    def __pow__(self, m):
        return _power(self, m, self.one(self.n, self.p))

    def scale_exponents(self, e):
        """Substitute x -> x^e in every variable.  Monomials map to monomials,
        distinct ones to distinct ones, since e is an int >= 1."""
        if type(e) is not int or e < 1:
            raise ValueError(f"substitution power must be an integer at least 1, got {e!r}")
        return self._from_flat(self.n, self.p, {tuple(e * v for v in k): c for k, c in self._flat_items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and (self.n, self.p, self.terms) == (other.n, other.p, other.terms)

    def __repr__(self):
        return self.__str__()


class Polynomial(_Terms):
    """Exact polynomial over Q (p == 0) or F_p (p prime), keyed by the flat
    tuple of its N exponents; the constructor and ``coefficient`` also take
    an ExponentMatrix of size n, read as its ``flat``."""

    __slots__ = ()
    _elements, _key_kind, _factors = "polynomials", "a flat tuple of N exponents or an exponent matrix", 1

    @classmethod
    def constant(cls, n, p, c):
        return cls(n, p, {(0,) * (n * (n - 1) // 2): c})

    @classmethod
    def variable(cls, n, p, i, j):
        return cls(n, p, {ExponentMatrix.epsilon(n, i, j): 1})

    def __add__(self, other):
        if not isinstance(other, _Terms):
            other = Polynomial.constant(self.n, self.p, other)
        return self._add(other)

    # bound in the class body, where the benchmark's tracer looks them up
    __radd__ = __add__
    __mul__ = __rmul__ = _Terms._mul

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, k):
        c = coerce_scalar(1, self.p) / k if self.p else Fraction(1, k)
        return self * c

    def constant_term(self):
        return self.coefficient((0,) * (self.n * (self.n - 1) // 2))

    def coefficient(self, key):
        if type(key) is ExponentMatrix:
            key = key.flat
        return self.terms.get(key, coerce_scalar(0, self.p))

    def evaluate_mod(self, point):
        """Evaluate at a dict (i, j) -> int, mod p.  Requires p > 0."""
        if not self.p:
            raise HypothesisError("evaluation mod p needs a positive characteristic")
        total = 0
        for key, c in self.terms.items():
            v = c.value
            for ij, m in zip(_pairs(self.n), key):
                if m:
                    v = v * pow(point[ij], m, self.p) % self.p
            total = (total + v) % self.p
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        # flat order is the row-major order of the exponent matrices
        return " + ".join(f"{self.terms[k]}*{_key(self.n, k)}" if any(k) else f"{self.terms[k]}"
                          for k in sorted(self.terms))


class TensorElement(_Terms):
    """An element of the tensor square: the polynomial ring in the 2N
    variables of both factors, keyed by one flat tuple of 2N exponents, the
    left factor's in variable_pairs(n) order, then the right factor's."""

    __slots__ = ()
    _elements, _key_kind, _factors = "tensor elements", "a flat tuple of 2N exponents", 2

    # bound in the class body, where the benchmark's tracer looks them up
    __add__ = _Terms._add
    __mul__ = __rmul__ = _Terms._mul

    def coefficient(self, left, right):
        return self.terms.get(left.flat + right.flat, coerce_scalar(0, self.p))

    def __str__(self):
        if not self.terms:
            return "0"
        n, half = self.n, self.n * (self.n - 1) // 2
        # both halves have length N, so flat order is (left, right) order
        return " + ".join(f"{self.terms[k]}*({_key(n, k[:half])})(x)({_key(n, k[half:])})"
                          for k in sorted(self.terms))


# --- the term kernel ---------------------------------------------------------
#
# The checked constructor is the one way in; _Terms._from_flat is the one way
# out: every sum, scaling, negation, product, power, one, scale_exponents,
# coproduct and tensor_of is built there.  Over F_p the kernel works on the
# residues' ints and gives each output term the shared Residue of its value
# (arith._residues), or a new one when p is past arith.SHARED_BELOW; over Q
# it works on the Fractions.  Either way the result skips coerce_scalar:
# sums and products of field elements are field elements.


def _convolve(xs, ys):
    """{fx + fy entrywise: sum of cx * cy} over (fx, cx) in xs, (fy, cy) in
    ys, keys in order of first appearance."""
    sums = {}
    get = sums.get
    for fx, cx in xs:
        for fy, cy in ys:
            key = tuple(map(add, fx, fy))
            sums[key] = get(key, 0) + cx * cy
    return sums


def _field_sums(sums, p, den=None):
    """(key, field element) over the sums that are nonzero in the field; over
    Q with den, the sums are ints over that common denominator."""
    if not p:
        if den:  # one Fraction per distinct numerator
            fraction = cache(partial(Fraction, denominator=den))
            return [(k, fraction(c)) for k, c in sums.items() if c]
        return [(k, c) for k, c in sums.items() if c]
    table = _residues(p)
    return [(k, table[r]) for k, v in sums.items() if (r := v % p)]


def _int_scalars(cs, p):
    """(ints, den): values mod p and den None, or over Q numerators over den = lcm of denominators."""
    if p:
        return [c.value for c in cs], None
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _power(base, m, one):
    """base**m, by square-and-multiply within each p-ary digit of m (m itself
    at p = 0).  Digit l raises base**(p^l), which in characteristic p is the
    key rescaling of base by p^l (the freshman's dream); this keeps term counts
    small for the large exponents p^l of Frobenius-layer calculations."""
    if m < 0:
        raise ValueError("negative power")
    result = one
    for l, digit in enumerate(_digits(m, base.p)):
        square = base.scale_exponents(base.p**l) if l else base
        while digit:
            if digit & 1:
                result = result * square
            digit >>= 1
            if digit:
                square = square * square
    return result


def _compositions(total, parts):
    """Ordered non-negative integer tuples of length ``parts`` summing to
    ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _digits(m, p):
    """The p-ary digits of m, lowest first; (m,) in characteristic 0."""
    return p_ary_digits(m, p).digits if p else (m,)


# A benchmark coproduct pass looks up 84 distinct keys about 1,400 times, on the
# misses of _monomial_coproduct (94% hits); a roundtrip pass makes no lookups.
@lru_cache(maxsize=256)
def _generator_power(n, p, ij, m):
    """Delta(x_ij)^m, x_ij the ij-th pair, as (flat key, int weight) pairs by
    the multinomial theorem; in characteristic p one p-ary digit at a time,
    digit l's exponents times p^l (the freshman's dream): weights hold mod p."""
    N = n * (n - 1) // 2
    i, j = _pairs(n)[ij]
    summands = [(ij,), (N + ij,)] + [(_index(n, i, k), N + _index(n, k, j)) for k in range(i + 1, j)]
    out = [((0,) * (2 * N), 1)]
    for l, digit in enumerate(_digits(m, p)):
        block = []
        for parts in _compositions(digit, len(summands)):
            key = [0] * (2 * N)
            for at, c in zip(summands, parts):
                for pos in at:
                    key[pos] = c * p**l
            block.append((tuple(key), factorial(digit) // prod(map(factorial, parts))))
        out = _convolve(out, block).items()
    return tuple(out)


def coproduct(poly: Polynomial) -> TensorElement:
    """Algebra-map extension of the coproduct to an arbitrary polynomial.

    Each term's image, a product of generator powers on int weights, is
    summed times its coefficient's int (over Q, its numerator over a common
    denominator) into one dict, reduced into the field once."""
    n, p = poly.n, poly.p
    cs, den = _int_scalars(poly.terms.values(), p)
    sums = {}
    get = sums.get
    for M, c in zip(poly.terms, cs):
        for k, w in _monomial_coproduct(n, p, M):
            sums[k] = get(k, 0) + w * c
    return TensorElement._from_flat(n, p, sums, den)


# The cells of one poly matrix share their monomials: a benchmark coproduct
# pass asks for 3,603 expansions, 738 of them misses (seed 1).
@lru_cache(maxsize=32)
def _monomial_coproduct(n, p, flat):
    """Delta(x^M) for flat exponents M, as a tuple of (flat 2N key, int weight)."""
    image = None
    for ij, m in enumerate(flat):
        if m:
            power = _generator_power(n, p, ij, m)
            image = power if image is None else tuple(_convolve(image, power).items())
    return image or (((0,) * (n * (n - 1)), 1),)


def counit(poly: Polynomial):
    """Evaluation at all variables = 0, i.e. the constant term."""
    return poly.constant_term()


def tensor_of(f: Polynomial, g: Polynomial) -> TensorElement:
    """The elementary tensor f (x) g, expanded into the monomial-tensor basis:
    the key of each pair of terms is left flat + right flat, so none collide."""
    f._check(g)
    gs = g._flat_items()
    return TensorElement._from_flat(f.n, f.p, {kf + kg: cf * cg for kf, cf in f._flat_items()
                                               for kg, cg in gs})
