"""Baker-Campbell-Hausdorff machinery in the free algebra on two generators.

Elements are rational linear combinations of words in the alphabet {x, y}.
The homogeneous components P_m of log(e^x e^y) come from a dynamic program
over word prefixes that end at a block boundary.  The Dynkin projection sends
a length-n word to 1/n times its left-nested commutator and fixes every P_m;
it expands all words of one length at once, peeling off last letters so that
words which end alike share one expansion of their prefixes.  Coefficients
stay rational until a matrix evaluation, which first audits denominators
against p and then shares the matrix products of word halves across all
words.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .arith import Residue, coerce_scalar
from .errors import SeriesTerminationError

GENERATORS = ("x", "y")

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

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[word(w)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, terms):
        """Wrap {word: nonzero Fraction} built in this module, unchecked."""
        e = cls.__new__(cls)
        e.terms = terms
        return e

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
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    width = (factorial(max_degree) << max_degree).bit_length()
    mask = (1 << width) - 1
    levels = [{(): 1}] + [{} for _ in range(max_degree)]
    out = {}
    for length, level in enumerate(levels):
        if length:
            denom = lcm(*range(1, length + 1))
            for w, vec in level.items():
                num = sum((-1) ** (k - 1) * (denom // k) * (vec >> (k * width) & mask)
                          for k in range(1, length + 1))
                if num:
                    out[w] = Fraction(num, denom * factorial(length))
        for total in range(1, max_degree - length + 1):
            target = levels[length + total]
            for a in range(total + 1):
                block = ("x",) * a + ("y",) * (total - a)
                weight = comb(length + total, total) * comb(total, a)
                for w, vec in level.items():
                    target[w + block] = target.get(w + block, 0) + (weight * vec << width)
    return FreeElement._trusted(out)


_component_cache = {}


def bch_components(max_degree: int):
    """(P_1, ..., P_max_degree), the homogeneous slices of log(e^x e^y).

    The tuple is cached per max_degree, so it is immutable: a caller cannot
    change what later calls return.
    """
    if max_degree not in _component_cache:
        slices = [{} for _ in range(max_degree)]
        for w, c in log_product_series(max_degree).terms.items():
            slices[len(w) - 1][w] = c
        _component_cache[max_degree] = tuple(FreeElement._trusted(terms) for terms in slices)
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


def _left_nested_sum(terms):
    """sum of c * (left-nested bracket of w) over {w: c} with words of one
    length, grouped by last letter: the bracket of u a is [bracket of u, a]."""
    if len(next(iter(terms))) == 1:
        return terms
    groups = {}
    for w, c in terms.items():
        groups.setdefault(w[-1], {})[w[:-1]] = c
    out = {}
    for a, group in groups.items():
        for u, c in _left_nested_sum(group).items():
            if c:
                out[u + (a,)] = out.get(u + (a,), 0) + c
                out[(a,) + u] = out.get((a,) + u, 0) - c
    return out


def dynkin_projection(e: FreeElement) -> FreeElement:
    """c * w  ->  (c/len(w)) * (left-nested bracket of w), expanded.

    Words of one length share a common denominator, so their brackets are
    summed over the integers.
    """
    by_length = {}
    for w, c in e.terms.items():
        if len(w) == 0:
            raise ValueError("the projection is undefined on degree-0 terms")
        by_length.setdefault(len(w), {})[w] = c
    out = {}
    for length, terms in by_length.items():
        denom = lcm(*(c.denominator for c in terms.values()))
        scaled = {w: c.numerator * (denom // c.denominator) for w, c in terms.items()}
        for w, v in _left_nested_sum(scaled).items():
            if v:
                out[w] = Fraction(v, denom * length)
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

    In characteristic p each component must pass the denominator audit first.
    Each word is cut into a head and a tail no longer than the head, and the
    sum is taken as sum_head X_head @ (sum_tail c_w X_tail).  The product of
    each distinct head or tail is formed once, from the product of its
    prefix, and shared by every word that uses it.
    """
    sample = X.entries[0][0]
    p = sample.p if isinstance(sample, Residue) else 0
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
            tails = halves.setdefault(w[:cut], {})
            tails[w[cut:]] = tails.get(w[cut:], 0) + c
    gens = {"x": X, "y": Y}
    products = {(): X.identity_like()}

    def product(w):
        if w not in products:
            products[w] = gens[w[0]] if len(w) == 1 else product(w[:-1]) @ gens[w[-1]]
        return products[w]

    result = X.zero_like()
    for head, tails in halves.items():
        inner = X.zero_like()
        for tail, c in tails.items():
            c = coerce_scalar(c, p)
            if c:
                inner = inner + product(tail).scale(c)
        result = result + (product(head) @ inner if head else inner)
    return result
