"""One exit for the term algebra's results.

Every Polynomial and TensorElement that the term algebra returns is built by
``_Terms._from_flat``.  The routes it replaced (sums and scalings on the field
elements, negation, ``one``, ``scale_exponents`` and the empty product wrapped
unchecked) stay in tests/oracles.py: each result has the same terms in the
same key order, with coefficients of the same types and the same str.  Below
arith.SHARED_BELOW each coefficient is the shared residue of its value.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from unirep import arith
from unirep.arith import Residue
from unirep.errors import ConversionError
from unirep.hopf import Polynomial, TensorElement

from oracles import (reference_add, reference_neg, reference_one, reference_route_power, reference_scale,
                     reference_scale_exponents)

PRIMES = [0, 2, 13, 1031, 2**31 - 1]


def same(got, want):
    assert type(got) is type(want) and (got.n, got.p) == (want.n, want.p)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [(type(c), str(c)) for c in got.terms.values()] == [(type(c), str(c)) for c in want.terms.values()]
    assert str(got) == str(want)


@st.composite
def elements(draw, cls, n, p):
    """An element built by the constructor: keys of small exponents, and
    coefficients that are unreduced ints (mod p) or Fractions (over Q)."""
    key = st.tuples(*[st.integers(0, 2)] * (cls._factors * n * (n - 1) // 2))
    coefficient = (st.fractions(min_value=-9, max_value=9, max_denominator=6) if p == 0
                   else st.integers(-2 * min(p, 50), 2 * min(p, 50)))
    return cls(n, p, draw(st.dictionaries(key, coefficient, max_size=4)))


@st.composite
def scalars(draw, p):
    """An int, a Fraction, a Residue (mod p, or mod 7 over Q) or 0."""
    kind = draw(st.sampled_from(["int", "fraction", "residue", "zero"]))
    if kind == "int":
        return draw(st.integers(-40, 40))
    if kind == "fraction":
        return draw(st.fractions(min_value=-9, max_value=9, max_denominator=6))
    if kind == "residue":
        return Residue(draw(st.integers(0, 100)), p or 7)
    return 0


def results(x, y, c, e, m):
    """(name, a thunk of the library's result, a thunk of the oracle route's)."""
    z = x * y  # a product, whose coefficients the kernel built
    cases = [("x + y", lambda: x + y, lambda: reference_add(x, y)),
             ("z + x", lambda: z + x, lambda: reference_add(z, x)),
             ("x - y", lambda: x - y, lambda: reference_add(x, reference_neg(y))),
             ("x - x", lambda: x - x, lambda: reference_add(x, reference_neg(x))),
             ("-x", lambda: -x, lambda: reference_neg(x)),
             ("-z", lambda: -z, lambda: reference_neg(z)),
             ("x * c", lambda: x * c, lambda: reference_scale(x, c)),
             ("c * z", lambda: c * z, lambda: reference_scale(z, c)),
             ("one", lambda: type(x).one(x.n, x.p), lambda: reference_one(type(x), x.n, x.p)),
             ("x.scale_exponents(e)", lambda: x.scale_exponents(e), lambda: reference_scale_exponents(x, e)),
             ("x ** m", lambda: x ** m, lambda: reference_route_power(x, m))]
    if type(x) is Polynomial:
        constant = Polynomial.constant
        cases += [("x + c", lambda: x + c, lambda: reference_add(x, constant(x.n, x.p, c))),
                  ("x - c", lambda: x - c, lambda: reference_add(x, reference_neg(constant(x.n, x.p, c)))),
                  ("c - x", lambda: c - x, lambda: reference_add(reference_neg(x), constant(x.n, x.p, c)))]
    return cases


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_results_match_the_old_routes(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    cls = data.draw(st.sampled_from([Polynomial, TensorElement]), label="cls")
    n = data.draw(st.integers(1, 3), label="n")
    x, y = data.draw(elements(cls, n, p), label="x"), data.draw(elements(cls, n, p), label="y")
    c = data.draw(scalars(p), label="c")
    e = data.draw(st.integers(1, 4), label="e")
    m = data.draw(st.integers(0, 5) | st.sampled_from([p, p + 1, 2 * p + 1]), label="m")
    for name, got, want in results(x, y, c, e, m):
        note(name)
        try:
            expected = want()
        except ConversionError:  # a Residue over Q, or a denominator p divides
            with pytest.raises(ConversionError):
                got()
            continue
        same(got(), expected)


def constructed(cls, n, p, seed):
    """A constructor-built element (its coefficients are not the shared
    residues) and one more, also constructed, with a key the first lacks."""
    rng = random.Random(seed)
    width = cls._factors * n * (n - 1) // 2
    terms = {tuple(rng.randrange(3) for _ in range(width)): rng.randrange(1, p) for _ in range(4)}
    x = cls(n, p, terms)
    y = cls(n, p, {(3,) * width: rng.randrange(1, p), next(iter(x.terms)): rng.randrange(1, p)})
    return x, y


OPERATIONS = {
    "-x": lambda x, y, p: -x,
    "one": lambda x, y, p: type(x).one(x.n, p),
    "x.scale_exponents(p)": lambda x, y, p: x.scale_exponents(p),
    "x + y": lambda x, y, p: x + y,
    "y + x": lambda x, y, p: y + x,
    "x - y": lambda x, y, p: x - y,
    "x * 3": lambda x, y, p: x * 3,
    "Residue * x": lambda x, y, p: Residue(p - 1, p) * x,
    "x * Fraction": lambda x, y, p: x * Fraction(1, 3),
    "x * y": lambda x, y, p: x * y,
    "x ** (p + 1)": lambda x, y, p: x ** (p + 1),
}


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("cls", [Polynomial, TensorElement])
@pytest.mark.parametrize("p", [2, 13, 1021])  # 1021 < SHARED_BELOW
def test_every_coefficient_is_the_shared_residue(p, cls, operation):
    x, y = constructed(cls, 3, p, p)
    assert not all(c is arith._residues(p)[c.value] for c in x.terms.values())  # the way in
    got = OPERATIONS[operation](x, y, p)
    assert got.terms and all(c is arith._residues(p)[c.value] for c in got.terms.values())

