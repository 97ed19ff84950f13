"""The one reading of table entries into the field, at the ChiTable and
LieLayerData constructors: Residues mod p at p > 0; Fractions, or plain ints
read as their Fractions, at p = 0.  Anything else is refused when the table is
built, naming the first such entry (matrices in insertion order, entries row
by row), and what is built writes and reads back as itself in both bodies."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep.arith import Residue
from unirep.errors import ModulusMismatchError
from unirep.hopf import ExponentMatrix
from unirep.io import parse_rep_file, write_rep_file
from unirep.linalg import SquareMatrix
from unirep.reps import ChiTable, LieLayerData, Representation

N, D = 3, 2
PAIRS = [(1, 2), (1, 3), (2, 3)]

# entries outside the field of each characteristic
OUTSIDE = {
    0: [Residue(1, 7), Residue(0, 7), True, 0.5],
    7: [Residue(1, 11), Residue(0, 5), 3, 0, Fraction(1, 2), Fraction(7), True],
}


def in_field(a, p):
    return type(a) is Residue and a.p == p if p else type(a) in (int, Fraction)


def field_entries(p):
    if p:
        return st.integers(0, p - 1).map(lambda v: Residue(v, p))
    return st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=6))


def matrices(entries):
    return st.lists(st.lists(entries, min_size=D, max_size=D), min_size=D, max_size=D).map(SquareMatrix)


keys = st.tuples(*[st.integers(0, 3)] * 3).map(lambda f: ExponentMatrix(N, [[0, f[0], f[1]], [0, 0, f[2]], [0, 0, 0]]))


@pytest.mark.parametrize("p", [0, 5, 7, 11])
@pytest.mark.parametrize("body", ["chi", "poly"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_files_read_back_as_written(body, p, data):
    rep = Representation(ChiTable(N, p, D, data.draw(st.dictionaries(keys, matrices(field_entries(p)), max_size=4))))
    assert all(type(a) is (Residue if p else Fraction)
               for m in rep.chi.support.values() for row in m.entries for a in row)
    text = write_rep_file(rep, body)
    again = parse_rep_file(text)
    assert again == rep
    assert write_rep_file(again, body) == text


@pytest.mark.parametrize("p, entry", [(p, a) for p, bad in OUTSIDE.items() for a in bad],
                         ids=[f"p{p}-{a!r}" for p, bad in OUTSIDE.items() for a in bad])
def test_constructors_refuse_entries_outside_the_field(p, entry):
    one = Residue(1, p) if p else Fraction(1)
    mat = SquareMatrix([[one, entry], [one, one]])
    with pytest.raises(ModulusMismatchError) as chi:
        ChiTable(N, p, D, {ExponentMatrix.zero(N): mat})
    with pytest.raises(ModulusMismatchError) as layers:
        LieLayerData(N, p, D, [{(1, 2): mat}])
    assert str(chi.value) == str(layers.value) == f"entry {entry!r} is not in the field of characteristic {p}"


def test_plain_ints_over_q_are_their_fractions():
    ints = SquareMatrix([[0, 2], [0, 0]])
    fractions = SquareMatrix([[Fraction(0), Fraction(2)], [Fraction(0), Fraction(0)]])
    chi = ChiTable(N, 0, D, {ExponentMatrix.zero(N): ints})
    layers = LieLayerData(N, 0, D, [{(1, 2): ints}])
    assert chi.support[ExponentMatrix.zero(N)].entries == layers.layers[0][1, 2].entries == fractions.entries
    assert all(type(a) is Fraction for row in layers.layers[0][1, 2].entries for a in row)


@pytest.mark.parametrize("p", [0, 7])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_refusal_names_the_first_entry_outside_the_field(p, data):
    entries = st.one_of(field_entries(p), st.sampled_from(OUTSIDE[p]))
    mats = data.draw(st.lists(matrices(entries), min_size=1, max_size=4))
    table = dict(zip(data.draw(st.lists(keys, min_size=len(mats), max_size=len(mats), unique=True)), mats))
    layers = [dict(zip(PAIRS, mats[:2])), dict(zip(PAIRS, mats[2:]))]
    first = next((a for m in mats for row in m.entries for a in row if not in_field(a, p)), None)
    for build in (lambda: ChiTable(N, p, D, table), lambda: LieLayerData(N, p, D, layers)):
        if first is None:
            build()
            continue
        with pytest.raises(ModulusMismatchError) as refused:
            build()
        assert str(refused.value) == f"entry {first!r} is not in the field of characteristic {p}"
