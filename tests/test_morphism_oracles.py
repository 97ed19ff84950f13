"""The two morphism criteria and nilpotency_index against the bodies they
replaced (tests/oracles.py): the criteria read T into field rows and share
one intertwining test, nilpotency_index walks the operand's rows.

Morphism cases are drawn over F_5, F_11, F_13 and Q.  A representation V is
a layer family whose images are polynomials without constant term in one
nilpotent N, so a polynomial in N is an endomorphism of V; with a second such
family W, the inclusion V -> V + W and the projection V + W -> V, each after
a polynomial in N, are rectangular morphisms.  Random candidates of every
shape, and polynomials in N into another family on N, are mostly not."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_check_morphism, reference_layer_morphism_equivalence, reference_nilpotency_index
from unirep.arith import Residue
from unirep.errors import ConversionError, NotNilpotentError, UnirepError
from unirep.hopf import Polynomial
from unirep.linalg import SquareMatrix, nilpotency_index, scalar_matrix
from unirep import reps
from unirep.reps import LieLayerData, check_morphism, construct_from_layers, layer_morphism_equivalence
from unirep.samples import random_layer_data


def values(p):
    return st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=3)


def mul(a, b, p):
    out = [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]
    return [[x % p for x in row] for row in out] if p else out


def poly_in(nil, coeffs, p):
    """Rows of sum_k coeffs[k] N^k."""
    d = len(nil)
    power = [[int(a == b) for b in range(d)] for a in range(d)]
    acc = [[0] * d for _ in range(d)]
    for c in coeffs:
        acc = [[x + c * y for x, y in zip(r, s)] for r, s in zip(acc, power)]
        power = mul(power, nil, p)
    return [[x % p for x in row] for row in acc] if p else acc


def block_diag(a, b):
    return [list(r) + [0] * len(b) for r in a] + [[0] * len(a) + list(r) for r in b]


@st.composite
def families(draw, n, p, d, num_layers):
    """(N, layers): d x d strictly upper N, and rows of each superdiagonal
    image, a polynomial in N without constant term, per layer."""
    nil = [[draw(values(p)) if j > i else 0 for j in range(d)] for i in range(d)]
    layers = [{(i, i + 1): poly_in(nil, [0] + [draw(values(p)) for _ in range(d - 1)], p)
               for i in range(1, n)} for _ in range(num_layers)]
    return nil, layers


def representation(n, p, d, layers):
    return construct_from_layers(LieLayerData(n, p, d, [
        {ij: scalar_matrix(rows, p) for ij, rows in layer.items()} for layer in layers]))


def summed(v, w):
    return [{ij: block_diag(a[ij], b[ij]) for ij in a} for a, b in zip(v, w)]


@st.composite
def candidate_entries(draw, rows, p):
    """rows with each entry as an int or a Residue mod p (p > 0), or an int
    or a Fraction (p = 0), as a list of lists or tuples, or a SquareMatrix."""
    if p:
        forms = [lambda v: v, lambda v: v - p, lambda v: Residue(v, p)]
    else:
        forms = [lambda v: int(v) if v.denominator == 1 else v, Fraction]
    out = [[draw(st.sampled_from(forms))(v) for v in row] for row in rows]
    shape = draw(st.sampled_from(["list", "tuple", "matrix"][:3 if len(rows) == len(rows[0]) else 2]))
    return SquareMatrix(out) if shape == "matrix" else [tuple(r) for r in out] if shape == "tuple" else out


KINDS = ["end", "other", "random", "into", "onto"]


@st.composite
def morphism_cases(draw):
    """(kind, T, src, dst); T is a morphism for the kinds end, into and onto."""
    p = draw(st.sampled_from([0, 5, 11, 13]))
    n = draw(st.integers(2, 3))
    top = 3 if p == 0 else min(4, p // 2)  # the layer criterion needs p >= 2d
    num_layers = 1 if p == 0 else draw(st.integers(1, 2))
    d = draw(st.integers(1, top))
    kind = draw(st.sampled_from(KINDS if d < top else KINDS[:3]))
    nil, v_layers = draw(families(n, p, d, num_layers))
    v = representation(n, p, d, v_layers)
    q = poly_in(nil, [draw(values(p)) for _ in range(d)], p)
    if kind == "end":
        return kind, draw(candidate_entries(q, p)), v, v
    if kind == "other":
        other = [{ij: poly_in(nil, [0] + [draw(values(p)) for _ in range(d - 1)], p) for ij in layer}
                 for layer in v_layers]
        return kind, draw(candidate_entries(q, p)), v, representation(n, p, d, other)
    e = draw(st.integers(1, top - d)) if d < top else 1
    _, w_layers = draw(families(n, p, e, num_layers))
    reps = [(v, d), (representation(n, p, e, w_layers), e)]
    if d < top:
        total = representation(n, p, d + e, summed(v_layers, w_layers))
        reps.append((total, d + e))
    if kind == "random":
        (src, ds), (dst, dd) = draw(st.sampled_from(reps)), draw(st.sampled_from(reps))
        rows = [[draw(values(p)) for _ in range(ds)] for _ in range(dd)]
        return kind, draw(candidate_entries(rows, p)), src, dst
    if kind == "into":  # [Q(N); 0]
        return kind, draw(candidate_entries(q + [[0] * d for _ in range(e)], p)), v, total
    return kind, draw(candidate_entries([row + [0] * e for row in q], p)), total, v  # [Q(N), 0]


@given(morphism_cases())
@settings(max_examples=250, deadline=None)
def test_morphism_criteria_match_the_object_level_bodies(case):
    kind, t, src, dst = case
    full = check_morphism(t, src, dst)
    assert full == reference_check_morphism(t, src, dst)
    report = layer_morphism_equivalence(t, src, dst)
    assert report == reference_layer_morphism_equivalence(t, src, dst)
    assert report.ok and report.data["full"] == full
    if kind in ("end", "into", "onto"):
        assert full


class TestReadIntoTheField:
    """The three inputs the criteria now read otherwise than the object-level
    bodies did."""

    v5 = representation(2, 5, 2, [{(1, 2): [[0, 1], [0, 0]]}])
    vq = representation(2, 0, 2, [{(1, 2): [[0, 1], [0, 0]]}])

    def test_a_fraction_over_f_p_is_read_into_f_p(self):
        # 1/2 is 3 mod 5; the object-level bodies raised TypeError on Fraction * Residue
        half = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        assert check_morphism(half, self.v5, self.v5)
        assert layer_morphism_equivalence(half, self.v5, self.v5).data == {
            "full": True, "per_layer": True, "agree": True}
        assert check_morphism([[Fraction(1, 2), 1], [0, 3]], self.v5, self.v5)
        assert not check_morphism([[Fraction(1, 2), 1], [0, 2]], self.v5, self.v5)
        with pytest.raises(TypeError):
            reference_check_morphism(half, self.v5, self.v5)
        with pytest.raises(ConversionError, match="^denominator of 1/5 is divisible by 5$"):
            check_morphism([[Fraction(1, 5), 0], [0, 1]], self.v5, self.v5)

    @pytest.mark.parametrize("bad", [0.1, "1/2"])
    def test_a_float_or_str_entry_is_refused(self, bad):
        # the object-level body compared a float T over Q in floating point
        t = [[bad, 0], [0, bad]]
        for rep in (self.vq, self.v5):
            with pytest.raises(TypeError, match=f"^{bad!r} is not a field scalar"):
                check_morphism(t, rep, rep)
            with pytest.raises(TypeError, match=f"^{bad!r} is not a field scalar"):
                layer_morphism_equivalence(t, rep, rep)

    def test_a_residue_over_q_is_refused(self):
        t = [[Residue(1, 5), 0], [0, 1]]
        with pytest.raises(ConversionError, match="^cannot lift a residue to characteristic zero$"):
            check_morphism(t, self.vq, self.vq)
        with pytest.raises(ConversionError, match="^cannot lift a residue to characteristic zero$"):
            layer_morphism_equivalence(t, self.vq, self.vq)


@pytest.mark.parametrize("n, d, p, layers, seed", [(5, 6, 13, 2, 3), (3, 2, 0, 1, 1), (4, 3, 11, 3, 0)])
def test_an_endomorphism_is_decomposed_once(n, d, p, layers, seed, monkeypatch):
    src = construct_from_layers(random_layer_data(n, d, p, layers, seed))
    twin = construct_from_layers(random_layer_data(n, d, p, layers, seed))
    calls = []  # the checked decompositions; the certificate makes an unchecked one inside each
    decompose = reps.decompose_to_layers

    def spy(rep, check=True):
        if check:
            calls.append(rep)
        return decompose(rep, check)

    monkeypatch.setattr(reps, "decompose_to_layers", spy)
    identity = [[int(a == b) for b in range(d)] for a in range(d)]
    shift = [[int(b == a + 1) for b in range(d)] for a in range(d)]
    for t in (identity, shift):
        for dst, decomposed in [(src, [src]), (twin, [src, twin])]:
            calls.clear()
            report = layer_morphism_equivalence(t, src, dst)
            assert [id(rep) for rep in calls] == [id(rep) for rep in decomposed]
            assert report == reference_layer_morphism_equivalence(t, src, dst)


# --- nilpotency_index --------------------------------------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnirepError as e:
        return type(e), str(e)


@st.composite
def scalar_cases(draw):
    """(matrix, cap): a strictly upper or lower matrix (nilpotent), or any
    matrix (mostly not), over F_5, F_13 or Q, caps from 1 to d + 2."""
    p = draw(st.sampled_from([0, 5, 13]))
    d = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["upper", "lower", "any"]))
    keep = {"upper": lambda i, j: j > i, "lower": lambda i, j: j < i, "any": lambda i, j: True}[shape]
    rows = [[draw(values(p)) if keep(i, j) else 0 for j in range(d)] for i in range(d)]
    return scalar_matrix(rows, p), draw(st.integers(1, d + 2))


@given(scalar_cases())
@settings(max_examples=150, deadline=None)
def test_nilpotency_index_matches_the_power_loop_over_fields(case):
    m, cap = case
    assert outcome(nilpotency_index, m, cap) == outcome(reference_nilpotency_index, m, cap)


@st.composite
def polynomial_cases(draw):
    """(matrix, cap) with entries in F_7[x12, x13, x23] or Q[x12, x13, x23]:
    strictly upper (nilpotent), or with a nonzero diagonal entry (not)."""
    p = draw(st.sampled_from([0, 7]))
    d = draw(st.integers(1, 4))
    xs = [Polynomial.variable(3, p, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]

    def entry():
        c, x, e = draw(st.integers(0, 3)), draw(st.sampled_from(xs)), draw(st.integers(0, 2))
        return c * x**e + draw(st.integers(0, 2))

    zero = Polynomial.zero(3, p)
    rows = [[entry() if j > i else zero for j in range(d)] for i in range(d)]
    if draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        rows[k][k] = draw(st.sampled_from(xs)) + draw(st.integers(0, 2))
    return SquareMatrix(rows), draw(st.integers(1, d + 2))


@given(polynomial_cases())
@settings(max_examples=80, deadline=None)
def test_nilpotency_index_matches_the_power_loop_over_polynomials(case):
    m, cap = case
    assert outcome(nilpotency_index, m, cap) == outcome(reference_nilpotency_index, m, cap)


@pytest.mark.parametrize("p", [0, 5])
def test_index_below_at_and_above_the_cap(p):
    shift = scalar_matrix([[int(j == i + 1) for j in range(4)] for i in range(4)], p)  # index 4
    unipotent = scalar_matrix([[int(j >= i) for j in range(4)] for i in range(4)], p)  # not nilpotent
    for cap in range(1, 7):
        refused = (NotNilpotentError, f"matrix is not nilpotent within {cap} powers")
        for m, expected in ((shift, 4 if cap >= 4 else refused), (unipotent, refused)):
            assert outcome(nilpotency_index, m, cap) == expected
            assert outcome(reference_nilpotency_index, m, cap) == expected
