"""Baker-Campbell-Hausdorff machinery in the free algebra on two generators.

Elements are rational linear combinations of words in the alphabet {x, y}.
Inside the series and the Dynkin projection, the words of one length L are a
dense list of 2^L entries, a word's index being its letters read as bits
(x = 0, y = 1, first letter highest), so the list is in sorted word order and
tuple words are built only for a FreeElement.  The homogeneous components P_m
of log(e^x e^y) come from a dynamic program over word prefixes that end at a
block boundary.  The Dynkin projection sends a length-n word to 1/n times its
left-nested commutator and fixes every P_m; it expands all words of one
length at once, one pass over the list per letter.  Coefficients stay
rational until a matrix evaluation, which first audits denominators against
p and then shares the matrix products of word halves across all words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import comb, factorial, lcm
from operator import add, sub
from types import MappingProxyType

from .arith import _inverse
from .errors import CostBoundError, SeriesTerminationError
from .linalg import _identity_rows, _matmul, _series_rows, _wrap, _zip_rows

GENERATORS = ("x", "y")
_BITS = str.maketrans("xy", "01")

# `bch --max-degree m` in a fresh process on 2 vCPUs of a Xeon, Python 3.11:
# m = 14 / 15 / 16 / 17 take 0.27 / 0.51 / 0.86 / 2.2 s and 28 / 44 / 63 / 138 MB,
# some 2x the time and 1.7x the memory per degree.  The bound was set when
# m = 18 would have taken about 28 s; raising it is a change of its own.
MAX_BCH_DEGREE = 17

__all__ = [
    "FreeElement",
    "word",
    "log_product_series",
    "bch_components",
    "homogeneous_component",
    "left_nested_expand",
    "dynkin_projection",
    "bracket_normalize",
    "bracket_expand",
    "denominator_audit",
    "bch_evaluate",
]


def word(letters):
    w = tuple(letters)
    if any(l not in GENERATORS for l in w):
        raise ValueError(f"letters must be from {GENERATORS}")
    return w


class FreeElement:
    """Finite rational linear combination of words in x and y."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[word(w)] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, terms):
        """Wrap {word: nonzero Fraction} built in this module, unchecked."""
        e = cls.__new__(cls)
        e._terms = terms
        return e

    @property
    def terms(self):
        """{word: nonzero Fraction}; read-only, so no caller can rebind the
        terms of a cached component."""
        return self._terms

    @classmethod
    def generator(cls, letter):
        return cls({(letter,): 1})

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return FreeElement(terms)

    def __neg__(self):
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            c = Fraction(other)
            return FreeElement({w: v * c for w, v in self.terms.items()})
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                terms[w] = terms.get(w, 0) + ca * cb
        return FreeElement(terms)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.terms == other.terms

    def max_degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{''.join(w)}" if w else str(c) for w, c in sorted(self.terms.items()))

    __repr__ = __str__


def commutator(a: FreeElement, b: FreeElement) -> FreeElement:
    return a * b - b * a


def log_product_series(max_degree: int) -> FreeElement:
    """All terms of log(e^x e^y) of total degree <= max_degree.

    log(e^x e^y) = sum_k ((-1)^(k-1)/k) Z^k with Z = e^x e^y - 1, and Z^k sums
    x^{a_1} y^{b_1} ... x^{a_k} y^{b_k} / (a_1! b_1! ... a_k! b_k!) over blocks
    with every a_i + b_i >= 1.  Words are grown one block at a time; a prefix
    w carries the vector over k of len(w)! times its coefficient in Z^k, which
    is an integer, and appending x^a y^b adds the vector shifted by one block
    and times the multinomial (len(w)+a+b)! / (len(w)! a! b!).

    A vector is packed into one integer, entry k in bits [k*width, (k+1)*width).
    An entry sums at most 2^(len(w)-1) ways to cut w into blocks, each at
    most len(w)!, so it fits in width bits and no shift or sum carries over.
    Appending x^a y^b to every prefix of length L writes the slice of level
    L + a + b that starts at index 2^b - 1 with stride 2^(a+b).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if max_degree > MAX_BCH_DEGREE:
        raise CostBoundError(f"series to degree {max_degree} is over the bound of {MAX_BCH_DEGREE}")
    width = (factorial(max_degree) << max_degree).bit_length()
    mask = (1 << width) - 1
    levels = [[1]] + [[0] * (2 << length) for length in range(max_degree)]
    out = {}
    for length, level in enumerate(levels):
        if length:
            denom = lcm(*range(1, length + 1))
            nums = [0] * len(level)
            for k in range(1, length + 1):
                c, shift = (-1) ** (k - 1) * (denom // k), k * width
                nums = [n + c * (v >> shift & mask) for n, v in zip(nums, level)]
            scale = denom * factorial(length)
            words = product(GENERATORS, repeat=length)
            out.update((w, Fraction(n, scale)) for w, n in zip(words, nums) if n)
        for total in range(1, max_degree - length + 1):
            target, step = levels[length + total], 1 << total
            for a in range(total + 1):
                block = (1 << (total - a)) - 1
                weight = comb(length + total, total) * comb(total, a) << width
                target[block::step] = [t + weight * v for t, v in zip(target[block::step], level)]
    return FreeElement._trusted(out)


_component_cache = {}


def bch_components(max_degree: int):
    """(P_1, ..., P_max_degree), the homogeneous slices of log(e^x e^y).

    The tuple is cached per max_degree, so it and each component's terms
    mapping are read-only: a caller cannot change through them what later
    calls return.
    """
    if max_degree not in _component_cache:
        slices = [{} for _ in range(max_degree)]
        for w, c in log_product_series(max_degree).terms.items():
            slices[len(w) - 1][w] = c
        _component_cache[max_degree] = tuple(FreeElement._trusted(MappingProxyType(t)) for t in slices)
    return _component_cache[max_degree]


def homogeneous_component(e: FreeElement, m: int) -> FreeElement:
    return FreeElement({w: c for w, c in e.terms.items() if len(w) == m})


def left_nested_expand(letters, coeff=1) -> FreeElement:
    """Expand the left-nested bracket l_1 o l_2 o ... o l_k into the word basis."""
    letters = word(letters)
    if not letters:
        raise ValueError("empty bracket sequence")
    acc = FreeElement.generator(letters[0])
    for l in letters[1:]:
        acc = commutator(acc, FreeElement.generator(l))
    return acc * coeff


def _left_nested_sum(v):
    """theta(v) for a dense vector v over the words of one length L, indexed
    as in log_product_series, where theta(w) is w's left-nested bracket.

    For j = L-1, ..., 0, entry q 2^j + s of T_j is the coefficient of the
    word q in the sum over u of v[u 2^j + s] theta(u), for q and u of L - j
    letters and s of j letters.  T_(L-1) = v since theta(a) = a, and T_0 =
    theta(v).  As theta(u a) = theta(u) a - a theta(u), the step to T_(j-1)
    keeps every entry in place and subtracts the entries whose bit j-1 is
    clear, followed by those whose bit j-1 is set.
    """
    n, b = len(v), len(v) // 4
    while b:
        starts = range(0, n, 2 * b)
        moved = chain(chain.from_iterable(v[i:i + b] for i in starts),
                      chain.from_iterable(v[i + b:i + 2 * b] for i in starts))
        v = list(map(sub, v, moved))
        b //= 2
    return v


def dynkin_projection(e: FreeElement) -> FreeElement:
    """c * w  ->  (c/len(w)) * (left-nested bracket of w), expanded.

    Words of one length L share a common denominator, so their brackets are
    summed over the integers, on a dense vector of 2^L entries: each length
    present costs about L 2^L steps, however few its words.  A word longer
    than MAX_BCH_DEGREE raises CostBoundError before any vector is built.
    """
    by_length = {}
    for w, c in e.terms.items():
        if len(w) == 0:
            raise ValueError("the projection is undefined on degree-0 terms")
        if len(w) > MAX_BCH_DEGREE:
            raise CostBoundError(f"projection of a word of length {len(w)} "
                                 f"is over the bound of {MAX_BCH_DEGREE}")
        by_length.setdefault(len(w), {})[w] = c
    out = {}
    for length, terms in by_length.items():
        denom = lcm(*(c.denominator for c in terms.values()))
        v = [0] * (1 << length)
        for w, c in terms.items():
            v[int("".join(w).translate(_BITS), 2)] = c.numerator * (denom // c.denominator)
        scale = denom * length
        out.update((w, Fraction(c, scale))
                   for w, c in zip(product(GENERATORS, repeat=length), _left_nested_sum(v)) if c)
    return FreeElement._trusted(out)


def _combine_left_nested(p, q, coeff):
    """Left-nested rewriting of P o Q for left-nested sequences P and Q,
    via P o (Q o x) = -(P o x) o Q + (P o Q) o x."""
    if len(q) == 1:
        return [(p + q, coeff)]
    head, last = q[:-1], q[-1]
    out = _combine_left_nested(p + (last,), head, -coeff)
    out.extend((s + (last,), c) for s, c in _combine_left_nested(p, head, coeff))
    return out


def bracket_normalize(tree, coeff=Fraction(1)):
    """Rewrite an arbitrary bracket tree into a combination of left-nested ones.

    A tree is either a generator letter or a pair (left, right) meaning
    left o right.  Returns [(letter sequence, coefficient)], each coefficient
    +-coeff.
    """
    coeff = Fraction(coeff)
    if isinstance(tree, str):
        return [(word((tree,)), coeff)]
    left, right = tree
    out = []
    for pl, cl in bracket_normalize(left, 1):
        for pr, cr in bracket_normalize(right, 1):
            out.extend(_combine_left_nested(pl, pr, coeff * cl * cr))
    return out


def bracket_expand(tree) -> FreeElement:
    """Direct word-basis expansion of a bracket tree (independent of the
    left-nested rewriting)."""
    if isinstance(tree, str):
        return FreeElement.generator(tree)
    left, right = tree
    return commutator(bracket_expand(left), bracket_expand(right))


def denominator_audit(e: FreeElement, p: int) -> bool:
    """True iff no reduced coefficient denominator is divisible by p."""
    return all(c.denominator % p != 0 for c in e.terms.values())


def bch_evaluate(components, X, Y):
    """Substitute matrices X, Y for the generators in each component and sum.

    X and Y are read once into rows of the field of X's first entry (ints
    mod p, or Fractions with plain ints read as Fractions; an entry outside
    it raises ModulusMismatchError), and the result's entries are built once,
    d^2 Residues over F_p.  In characteristic p each component must pass the
    denominator audit first.  Each word is cut into a head and a tail no
    longer than the head, and the sum is taken as
    sum_head X_head @ (sum_tail c_w X_tail).  The product of each distinct
    head or tail is formed once, from the product of its prefix, and shared
    by every word that uses it.
    """
    p, one, x, y = _series_rows(X, Y)
    if p:
        for i, comp in enumerate(components):
            if not denominator_audit(comp, p):
                raise SeriesTerminationError(
                    f"component {i + 1} has a denominator divisible by {p}"
                )
    halves = {}
    for comp in components:
        for w, c in comp.terms.items():
            cut = (len(w) + 1) // 2
            tails, tail = halves.setdefault(w[:cut], {}), w[cut:]
            tails[tail] = tails[tail] + c if tail in tails else c
    gens = {"x": x, "y": y}
    products = {(): _identity_rows(len(x), one)}

    def product(w):
        if w not in products:
            products[w] = gens[w[0]] if len(w) == 1 else _matmul(product(w[:-1]), gens[w[-1]], p)
        return products[w]

    result = zero = _zip_rows(sub, products[()], products[()])
    for head, tails in halves.items():
        inner = zero
        for tail, c in tails.items():
            if p:
                c = c.numerator * _inverse(c.denominator, p) % p
            if c:
                inner = [[s + c * t for s, t in zip(srow, trow)] for srow, trow in zip(inner, product(tail))]
        result = _zip_rows(add, result, _matmul(product(head), inner, p) if head else inner)
    return _wrap(result, p)
