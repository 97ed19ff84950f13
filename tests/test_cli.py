"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from unirep.cli import main
from unirep.io import parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from unirep.reps import construct_from_layers
from unirep.samples import random_layer_data


@pytest.fixture
def layer_file(tmp_path):
    data = random_layer_data(3, 2, 7, 2, seed=1)
    path = tmp_path / "layers.txt"
    path.write_text(write_layer_file(data))
    return path, data


class TestConstruct:
    def test_construct_writes_rep(self, layer_file, tmp_path):
        path, data = layer_file
        out = tmp_path / "rep.txt"
        assert main(["construct", str(path), "-o", str(out)]) == 0
        rep = parse_rep_file(out.read_text())
        assert rep == construct_from_layers(data)

    def test_poly_format(self, layer_file, tmp_path, capsys):
        path, _ = layer_file
        assert main(["construct", str(path), "--format", "poly"]) == 0
        header = json.loads(capsys.readouterr().out.splitlines()[0])
        assert header["format"] == "poly"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["construct", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_valid_rep_exits_zero(self, layer_file, tmp_path, capsys):
        path, data = layer_file
        rep_path = tmp_path / "rep.txt"
        rep_path.write_text(write_rep_file(construct_from_layers(data)))
        code = main([
            "verify", str(rep_path), "--comodule", "--pointwise", "sampled:20",
            "--chi-relations", "--lemmas", "--seed", "3",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, tmp_path, capsys):
        # a rep file claiming x_13 appears alone violates the coproduct
        text = "\n".join([
            json.dumps({"format": "chi", "version": 1, "n": 3, "p": 7, "d": 1}),
            json.dumps({"M": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "matrix": [["1"]]}),
            json.dumps({"M": [[0, 0, 1], [0, 0, 0], [0, 0, 0]], "matrix": [["1"]]}),
        ]) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines
        finding = json.loads(lines[0])
        assert set(finding) == {"check", "location", "expected", "actual"}

    def test_bad_pointwise_flag(self, layer_file, tmp_path, capsys):
        path, data = layer_file
        rep_path = tmp_path / "rep.txt"
        rep_path.write_text(write_rep_file(construct_from_layers(data)))
        assert main(["verify", str(rep_path), "--pointwise", "everything"]) == 2

    @pytest.mark.parametrize("flag", ["sampled:0", "sampled:00"])
    def test_zero_samples_refused(self, layer_file, tmp_path, capsys, flag):
        path, data = layer_file
        rep_path = tmp_path / "rep.txt"
        rep_path.write_text(write_rep_file(construct_from_layers(data)))
        assert main(["verify", str(rep_path), "--pointwise", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N >= 1" in err
        assert "Traceback" not in err

    def test_exhaustive_over_cost_bound_refused(self, tmp_path, capsys):
        # U_4(F_5) has 5^12 pairs of points: refused before any is evaluated
        text = "\n".join([
            json.dumps({"format": "chi", "version": 1, "n": 4, "p": 5, "d": 1}),
            json.dumps({"M": [[0] * 4 for _ in range(4)], "matrix": [["1"]]}),
        ]) + "\n"
        path = tmp_path / "u4.txt"
        path.write_text(text)
        assert main(["verify", str(path), "--pointwise", "exhaustive"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "5^12 pairs" in err
        assert "Traceback" not in err


class TestDecompose:
    def test_roundtrip_through_files(self, layer_file, tmp_path):
        path, data = layer_file
        rep_path = tmp_path / "rep.txt"
        back_path = tmp_path / "back.txt"
        assert main(["construct", str(path), "-o", str(rep_path)]) == 0
        assert main(["decompose", str(rep_path), "-o", str(back_path)]) == 0
        assert parse_layer_file(back_path.read_text()) == data.trimmed()

    def test_hypothesis_regime_exit_two(self, tmp_path, capsys):
        # p = 5 < 2d = 6: the regime guard must trip with exit 2
        data = random_layer_data(3, 3, 5, 1, seed=0)
        rep = construct_from_layers(data)
        rep_path = tmp_path / "rep.txt"
        rep_path.write_text(write_rep_file(rep))
        assert main(["decompose", str(rep_path)]) == 2
        assert "p >= max(n, 2d)" in capsys.readouterr().err


class TestFieldCheck:
    """p must be 0 or prime and n, d positive; anything else exits 2 with an
    error line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["--n", "2", "--d", "2", "--p", "9"],
        ["--n", "2", "--d", "1", "--p", "4", "--layers", "2"],
        ["--n", "0", "--d", "1", "--p", "11"],
        ["--n", "2", "--d", "0", "--p", "11"],
    ])
    def test_roundtrip_refuses(self, argv, capsys):
        assert main(["roundtrip", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,header", [
        ("verify", {"format": "chi", "version": 1, "n": 3, "p": 6, "d": 1}),
        ("verify", {"format": "poly", "version": 1, "n": 3, "p": 1, "d": 1}),
        ("verify", {"format": "chi", "version": 1, "n": True, "p": 7, "d": 1}),
        ("decompose", {"format": "chi", "version": 1, "n": 0, "p": 7, "d": 1}),
        ("construct", {"format": "layers", "version": 1, "n": 3, "p": 9, "d": 2, "layers": 1}),
        ("construct", {"format": "layers", "version": 1, "n": 3, "p": 7, "d": 0, "layers": 1}),
    ])
    def test_file_header_refused(self, command, header, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text(json.dumps(header) + "\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:")
        assert "Traceback" not in err


class TestOtherCommands:
    def test_roundtrip_command(self, capsys):
        assert main(["roundtrip", "--n", "3", "--d", "2", "--p", "11",
                     "--layers", "2", "--seed", "5"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["actual"] == "exact layer recovery"

    def test_bch_command(self, capsys):
        assert main(["bch", "--max-degree", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert json.loads(lines[1])["location"] == "P_2"

    def test_audit_splittings(self, capsys):
        assert main(["audit-splittings", "--n", "3", "--bound", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
