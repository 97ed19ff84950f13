"""File formats: canonical writing and validating parsing."""

import json

import pytest

from unirep.arith import Residue
from unirep.errors import ParseError
from unirep.hopf import ExponentMatrix
from unirep.io import FORMAT_VERSION, parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from unirep.linalg import SquareMatrix
from unirep.reps import ChiTable, Representation, construct_from_layers
from unirep.samples import random_layer_data

from test_cli import run_cli


def identity_rep(n=3, p=5, d=2):
    return Representation(ChiTable(n, p, d, {
        ExponentMatrix.zero(n): SquareMatrix.identity(d, Residue(1, p)),
    }))


class TestRepFiles:
    def test_identity_roundtrip_byte_identical(self):
        rep = identity_rep()
        for body in ("chi", "poly"):
            text = write_rep_file(rep, body)
            assert parse_rep_file(text) == rep
            assert write_rep_file(parse_rep_file(text), body) == text

    @pytest.mark.parametrize("body", ["chi", "poly"])
    def test_constructed_two_layer_roundtrip(self, body):
        data = random_layer_data(3, 2, 7, 2, seed=12)
        rep = construct_from_layers(data)
        text = write_rep_file(rep, body)
        again = parse_rep_file(text)
        assert again.chi == rep.chi
        assert write_rep_file(again, body) == text

    def test_canonical_order_is_lexicographic(self):
        rep = construct_from_layers(random_layer_data(3, 2, 7, 1, seed=3))
        lines = write_rep_file(rep, "chi").splitlines()[1:]
        keys = [tuple(v for row in json.loads(l)["M"] for v in row) for l in lines]
        assert keys == sorted(keys)

    def test_scalar_out_of_range(self):
        text = write_rep_file(identity_rep(p=5))
        bad = text.replace('"1"', '"7"', 1)
        with pytest.raises(ParseError, match="line 2"):
            parse_rep_file(bad)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_rep_file("not json\n")

    def test_header_body_mismatch(self):
        rep = identity_rep(n=3)
        text = write_rep_file(rep)
        header, body = text.splitlines()
        wrong = json.loads(header)
        wrong["n"] = 4
        with pytest.raises(ParseError):
            parse_rep_file(json.dumps(wrong) + "\n" + body + "\n")

    def test_additive_group_formula(self):
        # [[1, x_12], [0, 1]]: two-dimensional with chi(0) = I and chi(eps_12) = E_12
        rep = construct_from_layers(random_layer_data(2, 2, 5, 1, seed=0))
        text = write_rep_file(rep, "poly")
        assert parse_rep_file(text).poly_matrix == rep.poly_matrix


class TestLayerFiles:
    def test_roundtrip(self):
        data = random_layer_data(4, 2, 11, 3, seed=9)
        text = write_layer_file(data)
        assert parse_layer_file(text) == data
        assert write_layer_file(parse_layer_file(text)) == text

    def test_bad_pair_rejected(self):
        data = random_layer_data(3, 2, 7, 1, seed=1)
        text = write_layer_file(data)
        bad = text.replace('"i": 1, "j": 2', '"i": 2, "j": 2', 1)
        with pytest.raises(ParseError):
            parse_layer_file(bad)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_layer_file("")


class TestHeaderVersion:
    """Only the int FORMAT_VERSION is read; any other version, or none, is a
    ParseError on line 1 and exit code 2 at the command line."""

    BAD = ["x", "1", 99, 0, True, 1.0, None, [1], "missing"]

    @staticmethod
    def files():
        data = random_layer_data(3, 2, 7, 1, seed=2)
        rep = construct_from_layers(data)
        return {"layers": (write_layer_file(data), parse_layer_file, "construct"),
                "chi": (write_rep_file(rep), parse_rep_file, "verify"),
                "poly": (write_rep_file(rep, "poly"), parse_rep_file, "decompose")}

    @staticmethod
    def with_version(text, version):
        head, rest = text.split("\n", 1)
        header = json.loads(head)
        if version == "missing":
            del header["version"]
        else:
            header["version"] = version
        return json.dumps(header) + "\n" + rest

    @pytest.mark.parametrize("kind", ["layers", "chi", "poly"])
    def test_format_version_parses(self, kind):
        text, parse, _ = self.files()[kind]
        assert json.loads(text.split("\n", 1)[0])["version"] == FORMAT_VERSION
        parse(text)

    @pytest.mark.parametrize("version", BAD)
    @pytest.mark.parametrize("kind", ["layers", "chi", "poly"])
    def test_other_versions_refused(self, kind, version, tmp_path):
        text, parse, command = self.files()[kind]
        bad = self.with_version(text, version)
        shown = None if version == "missing" else version
        message = f"line 1: unsupported version {shown!r}, expected {FORMAT_VERSION}"
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert str(info.value) == message
        path = tmp_path / "in.txt"
        path.write_text(bad)
        out, err, code = run_cli([command, str(path)])
        assert (out, err, code) == ("", f"error: {message}\n", 2)
