"""File formats: canonical writing and validating parsing."""

import json
from fractions import Fraction

import pytest

from unirep import arith
from unirep.arith import Residue
from unirep.errors import HypothesisError, ParseError
from unirep.hopf import ExponentMatrix
from unirep.io import FORMAT_VERSION, parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from unirep.linalg import SquareMatrix, scalar_matrix
from unirep.reps import ChiTable, LieLayerData, Representation, construct_from_layers
from unirep.samples import random_chi_support, random_layer_data

from oracles import reference_write_layer_file, reference_write_rep_file
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

    @pytest.mark.parametrize("c", ["1", "2", "0"])
    def test_a_term_repeated_in_a_poly_cell_is_refused(self, c, tmp_path):
        """Two terms of one M in one cell would leave the table to the later
        one, so two files would parse to one table; the chi body refuses a
        repeated M in the same way."""
        head, first, *rest = write_rep_file(identity_rep(), "poly").splitlines()
        line = json.loads(first)
        line["terms"].append({**line["terms"][0], "c": c})
        bad = "\n".join([head, json.dumps(line)] + rest) + "\n"
        message = "line 2: duplicate exponent matrix in entry (1, 1)"
        with pytest.raises(ParseError) as info:
            parse_rep_file(bad)
        assert str(info.value) == message
        path = tmp_path / "in.txt"
        path.write_text(bad)
        assert run_cli(["verify", str(path)]) == ("", f"error: {message}\n", 2)

    def test_additive_group_formula(self):
        # [[1, x_12], [0, 1]]: two-dimensional with chi(0) = I and chi(eps_12) = E_12
        rep = construct_from_layers(random_layer_data(2, 2, 5, 1, seed=0))
        text = write_rep_file(rep, "poly")
        assert parse_rep_file(text).poly_matrix == rep.poly_matrix


def layer_families():
    """A full family and families with empty layers: in the middle, trailing
    (untrimmed), the only layer, and no layer at all."""
    full = random_layer_data(4, 2, 11, 3, seed=9)
    trailing = random_layer_data(3, 2, 7, 3, seed=4)
    assert all(full.layers) and trailing.layers[0] and not any(trailing.layers[1:])
    return {"full": full,
            "empty-middle": LieLayerData(4, 11, 2, [full.layers[0], {}, full.layers[2]]),
            "empty-trailing": trailing,
            "one-empty": LieLayerData(3, 7, 2, [{}]),
            "none": LieLayerData(3, 7, 2, [])}


LAYER_FAMILIES = layer_families()


class TestLayerFiles:
    def test_roundtrip(self):
        data = random_layer_data(4, 2, 11, 3, seed=9)
        text = write_layer_file(data)
        assert parse_layer_file(text) == data
        assert write_layer_file(parse_layer_file(text)) == text

    def test_bad_pair_rejected(self):
        data = random_layer_data(3, 2, 7, 1, seed=1)
        head, first, *rest = write_layer_file(data).splitlines()
        line = json.loads(first)
        line["i"] = line["j"]
        with pytest.raises(ParseError, match=r"^line 2: pair \((\d), \1\) out of range$"):
            parse_layer_file("\n".join([head, json.dumps(line)] + rest) + "\n")

    @pytest.mark.parametrize("name", LAYER_FAMILIES)
    def test_only_the_images_present_are_listed(self, name):
        data = LAYER_FAMILIES[name]
        head, *body = write_layer_file(data).splitlines()
        assert json.loads(head)["layers"] == len(data.layers)  # empty layers counted, none trimmed
        listed = [(line["layer"], line["i"], line["j"]) for line in map(json.loads, body)]
        assert listed == sorted((l, *ij) for l, layer in enumerate(data.layers) for ij in layer)
        assert write_layer_file(data) == reference_write_layer_file(data)
        assert parse_layer_file(write_layer_file(data)) == data

    @pytest.mark.parametrize("name", LAYER_FAMILIES)
    def test_a_file_listing_zero_images_reads_as_the_new_one(self, name, tmp_path):
        """A file that lists every pair of every layer, an absent image as
        the zero matrix, is the new file with more lines: it parses to the
        same family, is written back as the new file and constructs to the
        same rep file."""
        data = LAYER_FAMILIES[name]
        old, new = reference_write_layer_file(data, zeros=True), write_layer_file(data)
        zero = '"matrix": %s}' % json.dumps([["0"] * data.d] * data.d)
        assert new.splitlines() == [line for line in old.splitlines() if not line.endswith(zero)]
        assert parse_layer_file(old) == parse_layer_file(new) == data
        assert write_layer_file(parse_layer_file(old)) == new
        outputs = []
        for kind, text in (("old", old), ("new", new)):
            path = tmp_path / f"{kind}.txt"
            path.write_text(text)
            outputs.append(run_cli(["construct", str(path)]))
        assert outputs[0] == outputs[1] and outputs[0][2] == 0

    def test_one_image_at_the_size_bounds(self, tmp_path):
        """chi(eps_12) = E_12 at (n, p, d) = (100, 131, 64): decompose writes
        one image line, not the 4,950 pairs as 64 x 64 zero matrices (102 MB),
        and construct of that file gives the rep file back byte for byte."""
        e12 = [[0] * 64 for _ in range(64)]
        e12[0][1] = 1
        rep_path, layers_path = tmp_path / "rep.txt", tmp_path / "layers.txt"
        rep_path.write_text(write_rep_file(construct_from_layers(
            LieLayerData(100, 131, 64, [{(1, 2): scalar_matrix(e12, 131)}]))))
        out, err, code = run_cli(["decompose", str(rep_path), "-o", str(layers_path)])
        assert (out, code) == ("", 0) and "satisfied; 1 layers" in err
        assert len(layers_path.read_bytes()) < 64 * 1024
        assert len(layers_path.read_text().splitlines()) == 2
        assert run_cli(["construct", str(layers_path)]) == (rep_path.read_text(), "", 0)

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


class TestWritersMatchTheOracle:
    """The writers fill cached per-size texts of each line's JSON; the
    oracles are the writers they replaced, json.dumps(..., sort_keys=True)
    over each line's dict.  Every file must come out byte for byte the same."""

    @staticmethod
    def same_bytes(data, rep):
        assert write_layer_file(data) == reference_write_layer_file(data)
        for body in ("chi", "poly"):
            assert write_rep_file(rep, body) == reference_write_rep_file(rep, body)

    @pytest.mark.parametrize("p", [0, 2, 11, 13, 2**31 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_random_families_and_tables(self, n, p):
        for d, layers in ((1, 1), (2, 2), (3, 1), (3, 3)):
            data = random_layer_data(n, d, p, layers, seed=10 * n + d)
            try:
                rep = construct_from_layers(data)
            except HypothesisError:  # p = 2 below max(n, 2d), or more than one layer at p = 0
                keys = min(6, 4 ** (n * (n - 1) // 2))
                rep = Representation(ChiTable(n, p, d, random_chi_support(n, d, p, keys, seed=d)))
            self.same_bytes(data, rep)

    def test_negative_and_non_integral_fractions(self):
        q = Fraction
        a = [[q(-3, 2), q(5, 7), q(-4)], [q(0), q(1, 3), q(22, 1)], [q(-1, 1000), q(7, 3), q(2)]]
        e = [[q(0), q(-5, 2), q(0)], [q(0), q(0), q(9, 4)], [q(0), q(0), q(0)]]
        rep = Representation(ChiTable(3, 0, 3, {ExponentMatrix.zero(3): SquareMatrix(a),
                                                ExponentMatrix.epsilon(3, 1, 3, 2): SquareMatrix(e)}))
        data = LieLayerData(3, 0, 3, [{(1, 2): SquareMatrix(e)}, {}, {(2, 3): SquareMatrix(a)}])
        self.same_bytes(data, rep)
        assert '"-3/2"' in write_rep_file(rep) and '"c": "-1/1000"' in write_rep_file(rep, "poly")


class TestNonStringScalars:
    """A scalar is a JSON string.  A number, boolean, null, list or object in
    its place is refused: int() would truncate 1.9 to 1 and read true as 1."""

    @staticmethod
    def files():
        data = random_layer_data(3, 2, 5, 1, seed=2)
        rep = construct_from_layers(data)
        return {"layers": (write_layer_file(data), parse_layer_file, "construct"),
                "chi": (write_rep_file(rep), parse_rep_file, "verify"),
                "poly": (write_rep_file(rep, "poly"), parse_rep_file, "decompose")}

    @staticmethod
    def with_scalar(text, value):
        """The text with its first scalar, on line 2, replaced by value."""
        head, first, *rest = text.splitlines()
        line = json.loads(first)
        if "terms" in line:
            line["terms"][0]["c"] = value
        else:
            line["matrix"][0][0] = value
        return "\n".join([head, json.dumps(line)] + rest) + "\n"

    @pytest.mark.parametrize("value", [1.9, 2.7, 1, True, None, [1], {"c": "1"}])
    @pytest.mark.parametrize("kind", ["layers", "chi", "poly"])
    def test_refused(self, kind, value, tmp_path):
        text, parse, command = self.files()[kind]
        bad = self.with_scalar(text, value)
        message = f"line 2: bad scalar {value!r}: not a JSON string"
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert str(info.value) == message
        path = tmp_path / "in.txt"
        path.write_text(bad)
        assert run_cli([command, str(path)]) == ("", f"error: {message}\n", 2)

    @pytest.mark.parametrize("p,value", [(5, 1.9), (5, True), (0, 1.5), (0, 3)])
    def test_matrix_of_numbers_is_refused(self, p, value):
        one = Fraction(1) if p == 0 else Residue(1, p)
        rep = Representation(ChiTable(3, p, 2, {ExponentMatrix.zero(3): SquareMatrix.identity(2, one)}))
        bad = self.with_scalar(write_rep_file(rep), value)
        with pytest.raises(ParseError, match=r"^line 2: bad scalar .*: not a JSON string$"):
            parse_rep_file(bad)

    def test_string_scalars_still_read(self):
        for kind, (text, parse, _) in self.files().items():
            assert parse(self.with_scalar(text, "1")) is not None


class TestCanonicalScalars:
    """A scalar string is read only as the text the writers give its value
    (scalar_to_str), so no two files parse to one table and a file read and
    written again comes back as it was; over F_p its residue is the shared one."""

    @staticmethod
    def files(p):
        data = random_layer_data(3, 2, p, 1, seed=2)
        rep = construct_from_layers(data)
        return {"layers": (write_layer_file(data), parse_layer_file, "construct"),
                "chi": (write_rep_file(rep), parse_rep_file, "verify"),
                "poly": (write_rep_file(rep, "poly"), parse_rep_file, "decompose")}

    @pytest.mark.parametrize("p,value,canonical", [
        (7, "+1", "1"), (7, " 1", "1"), (7, "01", "1"), (7, "0_1", "1"), (7, "\uff11", "1"),
        (13, "+1", "1"), (0, "1.5", "3/2"), (0, "1e1", "10"), (0, "3/6", "1/2"),
    ])
    @pytest.mark.parametrize("kind", ["layers", "chi", "poly"])
    def test_refused(self, kind, p, value, canonical, tmp_path):
        text, parse, command = self.files(p)[kind]
        bad = TestNonStringScalars.with_scalar(text, value)
        message = f"line 2: bad scalar {value!r}: {value!r} is not the canonical text {canonical!r}"
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert str(info.value) == message
        path = tmp_path / "in.txt"
        path.write_text(bad)
        assert run_cli([command, str(path)]) == ("", f"error: {message}\n", 2)

    @pytest.mark.parametrize("p", [0, 7, 13])
    def test_a_read_file_is_written_back_as_it_was(self, p):
        files = self.files(p)
        for kind in ("chi", "poly"):
            text = files[kind][0]
            assert write_rep_file(parse_rep_file(text), kind) == text
        assert write_layer_file(parse_layer_file(files["layers"][0])) == files["layers"][0]

    @pytest.mark.parametrize("p", [7, 13])
    def test_tables_read_hold_the_shared_residues(self, p):
        files = self.files(p)
        shared = arith._residues(p)
        matrices = [m for kind in ("chi", "poly") for m in parse_rep_file(files[kind][0]).chi.support.values()]
        matrices += [m for layer in parse_layer_file(files["layers"][0]).layers for m in layer.values()]
        entries = [c for m in matrices for row in m.entries for c in row]
        assert entries and all(c is shared[c.value] for c in entries)


class TestDeepNesting:
    """A line nested past the decoder's recursion limit is invalid JSON on
    that line: exit code 2, one error line and no traceback."""

    DEEP = "[" * 200_000

    @pytest.mark.parametrize("where", ["header", "body"])
    @pytest.mark.parametrize("command", ["construct", "verify", "decompose"])
    def test_exit_code_two(self, command, where, tmp_path):
        data = random_layer_data(3, 2, 7, 1, seed=3)
        text = write_layer_file(data) if command == "construct" else write_rep_file(construct_from_layers(data))
        header = text.splitlines()[0]
        lineno, text = (1, self.DEEP) if where == "header" else (2, header + "\n" + self.DEEP)
        path = tmp_path / "in.txt"
        path.write_text(text + "\n")
        out, err, code = run_cli([command, str(path)])
        assert (out, code) == ("", 2)
        assert err.startswith(f"error: line {lineno}: invalid JSON: ") and err.count("\n") == 1
        assert "Traceback" not in err
