"""The chi-table paths of the poly writer, the poly reader and the Frobenius
twist against the polynomial-matrix route they replaced (tests/oracles.py),
and both rep writers against the json.dumps writers they replaced:
the same bytes, the same table, or the same error, on seeded valid tables,
on tables with plain-int entries at p = 0, and on mutated poly files.  Plain
ints at p > 0, Fractions at p > 0 and residues mod another prime or at p = 0
are refused when the table is built, naming the first such entry."""

import json
from fractions import Fraction

import pytest

from unirep.arith import Residue
from unirep.errors import ModulusMismatchError, UnirepError
from unirep.hopf import ExponentMatrix
from unirep.io import parse_rep_file, write_rep_file
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import ChiTable, Representation, construct_from_layers, frobenius_twist_rep
from unirep.samples import random_chi_support, random_layer_data

from oracles import reference_parse_rep_file, reference_twist, reference_write_poly, reference_write_rep_file
from test_field_reading import in_field


def outcome(fn, *args):
    """The result, or the error's type and message."""
    try:
        return fn(*args)
    except (UnirepError, ValueError) as exc:
        return type(exc), str(exc)


def table(p, cells):
    """A rep of U_2 with d = 2, keyed by the power of x_12, entries as given;
    where the constructor refuses them, its message and the message naming
    the first entry outside the field, keys in order, each row by row."""
    try:
        return Representation(ChiTable(2, p, 2, {ExponentMatrix.epsilon(2, 1, 2, r): SquareMatrix(rows)
                                                 for r, rows in cells.items()}))
    except ModulusMismatchError as exc:
        first = next(a for rows in cells.values() for row in rows for a in row if not in_field(a, p))
        return str(exc), f"entry {first!r} is not in the field of characteristic {p}"


def built(rep):
    """Whether rep is a Representation; a refusal must name its first entry."""
    if isinstance(rep, tuple):
        got, want = rep
        assert got == want
        return False
    return True


def cases():
    """(name, rep): valid tables at p = 0, 7, 11, 13, random tables in unsorted
    key order, and tables with entries that are not the field's own."""
    shapes = [(3, 2, 7, 1), (3, 2, 7, 2), (4, 2, 11, 2), (3, 2, 13, 3), (3, 3, 11, 1),
              (3, 2, 0, 1), (2, 3, 0, 1)]
    for k, (n, d, p, layers) in enumerate(shapes):
        yield f"valid-{n}-{d}-{p}-{layers}", construct_from_layers(random_layer_data(n, d, p, layers, seed=k))
    for p in (0, 7, 11, 13):
        yield f"random-p{p}", Representation(ChiTable(3, p, 2, random_chi_support(3, 2, p, 6, seed=p)))
    one = [[1, 0], [0, 1]]
    yield "ints-p7", table(7, {0: [[1, 0], [0, 8]], 1: [[0, 7], [14, 0]], 2: [[-1, 3], [0, 21]]})
    yield "ints-p0", table(0, {0: one, 1: [[0, 5], [0, 0]], 3: [[0, -2], [0, 0]]})
    yield "fractions-p11", table(11, {0: [[1, Fraction(1, 2)], [0, 1]], 1: [[Fraction(3, 4), 0], [0, 0]]})
    yield "fraction-over-p7", table(7, {0: one, 1: [[0, Fraction(1, 7)], [0, 0]]})
    yield "mod-11-at-p7", table(7, {0: scalar_matrix(one, 7).entries,
                                    1: scalar_matrix([[0, 1], [0, 0]], 11).entries})
    # the constructor reads the keys in insertion order, so the (2, 2) entry of
    # x_12^2 is refused before the (1, 1) entry of x_12, which sorts first
    r1, r0 = Residue(1, 7), Residue(0, 7)
    yield "two-bad-cells", table(7, {2: [[r1, r0], [r0, Fraction(1, 7)]],
                                     1: [[scalar_matrix([[1]], 11).entries[0][0], r0], [r0, r0]]})
    yield "residue-at-p0", table(0, {0: scalar_matrix(one, 7).entries})
    yield "empty-p7", table(7, {})


CASES = list(cases())


def mutations(text):
    """The poly text and variants of it that each break, or keep, one rule of
    the reader: missing, duplicate and out-of-range entries, bad terms, bad
    scalars and exponent matrices, a later term of the same key, blank lines."""
    head, *body = text.splitlines()
    yield text
    yield "\n".join([head] + body[:-1])
    yield head
    yield "\n".join([head] + body + body[:1])
    yield "\n".join([head, ""] + body + ["  "])
    header = json.loads(head)
    for change in ({"format": "poly2"}, {"n": -1}, {"d": True}, {"p": 4}):
        yield "\n".join([json.dumps({**header, **change})] + body)
    first = json.loads(body[0])
    for change in ({"row": 0}, {"col": True}, {"row": 1.0}, {"terms": 5}, {"terms": [1]}, {"terms": []}):
        yield "\n".join([head, json.dumps({**first, **change})] + body[1:])
    n = header["n"]
    term = (first["terms"] or [{"M": [[0] * n for _ in range(n)], "c": "1"}])[0]
    for change in ({"c": "x"}, {"c": "99"}, {"c": "-1"}, {"c": 3}, {"c": "0"}, {"c": "2"},
                   {"c": "1/2"}, {"c": [1]}, {"M": [[0]]}, {"M": [[0, -1], [0, 0]]}, {"M": None}):
        terms = first["terms"] + [{**term, **change}]
        yield "\n".join([head, json.dumps({**first, "terms": terms})] + body[1:])


def same_outcome(got, want):
    if isinstance(want, Representation):
        assert isinstance(got, Representation)
        assert got == want
        assert write_rep_file(got) == write_rep_file(want)
    else:
        assert got == want


@pytest.mark.parametrize("name,rep", CASES, ids=[name for name, _ in CASES])
def test_writer_matches_assemble(name, rep):
    if built(rep):
        assert outcome(write_rep_file, rep, "poly") == outcome(reference_write_poly, rep)


@pytest.mark.parametrize("name,rep", CASES, ids=[name for name, _ in CASES])
def test_writers_match_json_dumps(name, rep):
    if built(rep):
        for body in ("chi", "poly"):
            assert write_rep_file(rep, body) == reference_write_rep_file(rep, body)


@pytest.mark.parametrize("name,rep", CASES, ids=[name for name, _ in CASES])
def test_twist_matches_the_substituted_matrix(name, rep):
    if built(rep):
        same_outcome(outcome(frobenius_twist_rep, rep), outcome(reference_twist, rep))


@pytest.mark.parametrize("name,rep", CASES, ids=[name for name, _ in CASES])
def test_reader_matches_extract_chi(name, rep):
    if not built(rep):
        return
    for text in mutations(write_rep_file(rep, "poly")):
        same_outcome(outcome(parse_rep_file, text), outcome(reference_parse_rep_file, text))


def test_the_corpus_reaches_every_outcome():
    refused = [name for name, rep in CASES if isinstance(rep, tuple)]
    assert refused == ["ints-p7", "fractions-p11", "fraction-over-p7", "mod-11-at-p7", "two-bad-cells",
                       "residue-at-p0"]
    parsed = [outcome(parse_rep_file, text) for _, rep in CASES if built(rep)
              for text in mutations(write_rep_file(rep, "poly"))]
    assert sum(isinstance(r, Representation) for r in parsed) > len(CASES)
    messages = [r[1] for r in parsed if isinstance(r, tuple)]
    for part in ("missing matrix entries", "and 4 more", "duplicate entry", "row/col out of range",
                 "terms must be", "bad scalar", "exponent matrix", "unknown format", "header field",
                 "duplicate exponent matrix in entry"):
        assert any(part in m for m in messages), part
