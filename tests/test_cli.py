"""End-to-end command-line behavior and exit codes."""

import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unirep
from unirep import bch, cli, reps, splittings
from unirep.arith import MAX_D, MAX_N
from unirep.bch import MAX_BCH_DEGREE
from unirep.cli import main
from unirep.hopf import ExponentMatrix
from unirep.io import MAX_LAYERS, parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from unirep.linalg import scalar_matrix
from unirep.reps import (
    MAX_EXHAUSTIVE_PAIRS,
    MAX_SAMPLED_WORK,
    ChiTable,
    Representation,
    construct_from_layers,
    frobenius_twist_rep,
)
from unirep.samples import random_layer_data
from unirep.splittings import MAX_AUDIT_N, MAX_AUDIT_PAIRS


FIELDS = {"check", "location", "expected", "actual"}


def run_cli(argv):
    """stdout, stderr and exit code of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def zero_side_rep():
    """chi(eps_13) = chi(eps_23) = E12 with chi(eps_12) absent: the bracket
    [chi(eps_12), chi(eps_23)] is 0 but chi(eps_13) is not."""
    e12 = scalar_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 7)
    identity = scalar_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7)
    return Representation(ChiTable(3, 7, 3, {
        ExponentMatrix.zero(3): identity,
        ExponentMatrix.epsilon(3, 2, 3): e12,
        ExponentMatrix.epsilon(3, 1, 3): e12,
    }))


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

    def test_chi_relations_find_a_bracket_with_a_zero_side(self, tmp_path, capsys):
        path = tmp_path / "rep.txt"
        path.write_text(write_rep_file(zero_side_rep()))
        assert main(["verify", str(path), "--chi-relations"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "check": "chi-bracket", "location": "[chi(p^0 eps_(1, 2)), chi(p^0 eps_(2, 3))]",
            "expected": "[0, 1, 0; 0, 0, 0; 0, 0, 0]", "actual": "[0, 0, 0; 0, 0, 0; 0, 0, 0]"}

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


    @pytest.mark.parametrize("command,header,message", [
        (["verify"], {"format": "chi", "version": 1, "n": 20000, "p": 7, "d": 1},
         f"n = 20000 is over the bound of {MAX_N}"),
        (["verify", "--comodule"], {"format": "chi", "version": 1, "n": 2, "p": 7, "d": 1000},
         f"d = 1000 is over the bound of {MAX_D}"),
        (["verify", "--pointwise", "sampled:1"], {"format": "chi", "version": 1, "n": 2, "p": 7, "d": 1000},
         f"d = 1000 is over the bound of {MAX_D}"),
        (["decompose"], {"format": "poly", "version": 1, "n": MAX_N + 1, "p": 101, "d": 1},
         f"n = {MAX_N + 1} is over the bound of {MAX_N}"),
        (["construct"], {"format": "layers", "version": 1, "n": 2, "p": 7, "d": MAX_D + 1, "layers": 1},
         f"d = {MAX_D + 1} is over the bound of {MAX_D}"),
    ])
    def test_header_over_the_size_bound_refused(self, command, header, message, tmp_path, capsys):
        # refused before anything of size n^2 or d^2 is built
        path = tmp_path / "in.txt"
        path.write_text(json.dumps(header) + "\n")
        start = time.perf_counter()
        assert main([command[0], str(path), *command[1:]]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: line 1: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["--n", str(MAX_N + 1), "--d", "1", "--p", "101"], f"n = {MAX_N + 1} is over the bound of {MAX_N}"),
        (["--n", "2", "--d", str(MAX_D + 1), "--p", "1031"], f"d = {MAX_D + 1} is over the bound of {MAX_D}"),
    ])
    def test_roundtrip_over_the_size_bound_refused(self, argv, message, capsys):
        assert main(["roundtrip", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestLayerCountBound:
    @pytest.mark.parametrize("count", [MAX_LAYERS + 1, 100000000])
    def test_header_layer_count_refused(self, count, tmp_path, capsys):
        # refused before one dict per layer is allocated
        header = {"format": "layers", "version": 1, "n": 3, "p": 7, "d": 2, "layers": count}
        path = tmp_path / "in.txt"
        path.write_text(json.dumps(header) + "\n")
        assert main(["construct", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 1: {count} layers is over the bound of 64\n"
        assert captured.out == ""

    def test_largest_layer_count_parses(self):
        header = {"format": "layers", "version": 1, "n": 3, "p": 7, "d": 2, "layers": MAX_LAYERS}
        assert len(parse_layer_file(json.dumps(header) + "\n").layers) == MAX_LAYERS


class TestCostBounds:
    """Sampled pairs, the BCH degree, roundtrip layers and the audit's size and
    pairs are refused past their bounds, with exit 2 and one error line, before
    any pair is drawn, term built or layer drawn."""

    @pytest.fixture
    def rep_path(self, layer_file, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text(write_rep_file(construct_from_layers(layer_file[1])))
        return str(path)

    @staticmethod
    def assert_refused(argv, capsys, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @staticmethod
    def pair_weight(rep_path):
        """A sampled pair's weight: |S| (v + d^2) + d^3 // 4 + n^3 // 6 + 100, v = n(n-1)/2."""
        rep = parse_rep_file(Path(rep_path).read_text())
        n, d = rep.n, rep.d
        return len(rep.chi.support) * (n * (n - 1) // 2 + d * d) + d**3 // 4 + n**3 // 6 + 100

    @pytest.mark.parametrize("count", [MAX_EXHAUSTIVE_PAIRS + 1, 50000000])
    def test_sampled_pairs_over_the_bound_refused(self, count, rep_path, capsys):
        weight = self.pair_weight(rep_path)
        self.assert_refused(["verify", rep_path, "--pointwise", f"sampled:{count}"], capsys,
                            f"sampled check of {count} pairs costs {count * weight} "
                            f"({weight} a pair), over the bound of {MAX_SAMPLED_WORK}")

    def test_sampled_pairs_at_the_bound_pass(self, rep_path, capsys, monkeypatch):
        weight = self.pair_weight(rep_path)
        monkeypatch.setattr(reps, "MAX_SAMPLED_WORK", 30 * weight)
        assert main(["verify", rep_path, "--pointwise", "sampled:30"]) == 0
        assert capsys.readouterr().err == ""
        self.assert_refused(["verify", rep_path, "--pointwise", "sampled:31"], capsys,
                            f"sampled check of 31 pairs costs {31 * weight} ({weight} a pair), "
                            f"over the bound of {30 * weight}")

    @pytest.mark.parametrize("m", [MAX_BCH_DEGREE + 1, 1000])
    def test_bch_degree_over_the_bound_refused(self, m, capsys):
        self.assert_refused(["bch", "--max-degree", str(m)], capsys,
                            f"series to degree {m} is over the bound of {MAX_BCH_DEGREE}")

    def test_bch_degree_at_the_bound_passes(self, capsys, monkeypatch):
        assert MAX_BCH_DEGREE >= 14  # the README's timing table goes to 14
        monkeypatch.setattr(bch, "MAX_BCH_DEGREE", 5)
        monkeypatch.setattr(bch, "_component_cache", {})
        assert main(["bch", "--max-degree", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        self.assert_refused(["bch", "--max-degree", "6"], capsys, "series to degree 6 is over the bound of 5")

    def test_roundtrip_layers_at_the_bound_pass(self, capsys):
        assert main(["roundtrip", "--n", "3", "--d", "2", "--p", "11",
                     "--layers", str(MAX_LAYERS), "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["actual"] == "exact layer recovery"

    @pytest.mark.parametrize("count", [MAX_LAYERS + 1, 2000])
    def test_roundtrip_layers_over_the_bound_refused(self, count, capsys, monkeypatch):
        def draw(*args):
            raise AssertionError("a layer was drawn")

        monkeypatch.setattr(cli, "random_layer_data", draw)
        self.assert_refused(["roundtrip", "--n", "3", "--d", "2", "--p", "11", "--layers", str(count)],
                            capsys, f"{count} layers is over the bound of {MAX_LAYERS}")

    def test_audit_size_at_and_past_the_bound(self, capsys):
        assert main(["audit-splittings", "--n", str(MAX_AUDIT_N), "--bound", "0"]) == 0
        assert capsys.readouterr().out == ""
        # n = 17 has 952 split variables, n = 18 overflows the recursion limit
        for n in (MAX_AUDIT_N + 1, 18):
            self.assert_refused(["audit-splittings", "--n", str(n), "--bound", "0"], capsys,
                                f"audit-splittings --n {n} is over the bound of {MAX_AUDIT_N}")

    def test_audit_pairs_at_and_past_the_bound(self, capsys):
        # the benchmark's audits stay accepted
        assert 3**6 <= MAX_AUDIT_PAIRS and 2**10 <= MAX_AUDIT_PAIRS
        assert 16**3 == MAX_AUDIT_PAIRS
        assert main(["audit-splittings", "--n", "3", "--bound", "15"]) == 0
        assert capsys.readouterr().out == ""
        self.assert_refused(["audit-splittings", "--n", "3", "--bound", "16"], capsys,
                            f"audit-splittings needs 17^3 (Y, Z) pairs, over the bound of {MAX_AUDIT_PAIRS}")
        self.assert_refused(["audit-splittings", "--n", "2", "--bound", str(MAX_AUDIT_PAIRS)], capsys,
                            f"audit-splittings needs {MAX_AUDIT_PAIRS + 1}^1 (Y, Z) pairs, "
                            f"over the bound of {MAX_AUDIT_PAIRS}")
        self.assert_refused(["audit-splittings", "--n", "6", "--bound", "1"], capsys,
                            f"audit-splittings needs 2^15 (Y, Z) pairs, over the bound of {MAX_AUDIT_PAIRS}")

    def test_audit_at_the_largest_bound(self, capsys):
        # propagation solves each pair at once; a scan up to the bound took 7-8 s
        assert main(["audit-splittings", "--n", "2", "--bound", str(MAX_AUDIT_PAIRS - 1)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [["verify", "--comodule"], ["decompose"]])
    def test_comodule_check_over_the_bound_refused(self, command, rep_path, capsys, monkeypatch):
        cost = 4  # below what any chi table costs: chi(0) alone is a term of 6 + 8 exponents
        monkeypatch.setattr(reps, "MAX_COMODULE_EXPONENTS", cost)
        # a valid table is rebuilt from its layers, so the bound is never consulted
        assert main([command[0], rep_path, *command[1:]]) == 0
        assert "error" not in capsys.readouterr().err
        rep = parse_rep_file(Path(rep_path).read_text())
        rows = [list(row) for row in rep.chi.identity_matrix().entries]
        rows[0][-1] += 1  # chi(0) is not Id: the symbolic check runs, and meets the bound
        rep.chi.support[ExponentMatrix.zero(rep.n)] = scalar_matrix(rows, rep.p)
        Path(rep_path).write_text(write_rep_file(rep))
        assert main([command[0], rep_path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the comodule check costs ")
        assert captured.err.endswith(f" terms), over the bound of {cost}\n")
        assert captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("m", range(1, 13))
    def test_bch_output_pinned(self, m):
        # sha256 of stdout and the exit code, taken before the series and the
        # Dynkin check moved to dense word-indexed lists
        golden = json.loads((Path(__file__).parent / "data" / "bch_outputs.json").read_text())
        out, err, code = run_cli(["bch", "--max-degree", str(m)])
        assert err == ""
        assert {"stdout_sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": code} == golden[str(m)]

    def test_bch_projection_differs_is_computed(self, monkeypatch):
        comps = bch.bch_components(3)
        not_lie = bch.FreeElement({("x", "y"): 1})
        monkeypatch.setattr(cli, "bch_components", lambda m: (comps[0], not_lie, comps[2]))
        out, err, code = run_cli(["bch", "--max-degree", "3"])
        assert (code, err) == (1, "")
        actual = [json.loads(line)["actual"] for line in out.splitlines()]
        assert actual == [str(comps[0]), "1*xy (projection differs)", str(comps[2])]

    def test_audit_splittings(self, capsys):
        assert main(["audit-splittings", "--n", "3", "--bound", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestBoundaryChecks:
    """Malformed inputs exit 2 with one short error line, never a traceback."""

    @pytest.mark.parametrize("entry", [0.5, True, "1"])
    def test_non_integer_exponent_refused(self, entry, tmp_path, capsys):
        text = "\n".join([
            json.dumps({"format": "chi", "version": 1, "n": 2, "p": 7, "d": 1}),
            json.dumps({"M": [[0, entry], [0, 0]], "matrix": [["1"]]}),
        ]) + "\n"
        path = tmp_path / "chi.txt"
        path.write_text(text)
        assert main(["verify", str(path), "--chi-relations", "--lemmas"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and "integers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [{"matrix": [["1"]]}, {"M": [[0, 0], [0, 0]]},
                                      {"M": "00", "matrix": [["1"]]}])
    def test_missing_or_malformed_fields_refused(self, line, tmp_path, capsys):
        text = "\n".join([
            json.dumps({"format": "chi", "version": 1, "n": 2, "p": 7, "d": 1}),
            json.dumps(line),
        ]) + "\n"
        path = tmp_path / "chi.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and "Traceback" not in err

    @pytest.mark.parametrize("body,message", [
        ([{"M": [[0, 0], [0, 0]], "matrix": [["1"]]}, {"M": [[0, 0], [0, 0]], "matrix": [["2"]]}],
         "error: line 3: duplicate exponent matrix\n"),
        ([{"M": [[0, 0], [0, 0]], "matrix": [["1"]]}, [1, 2]], "error: line 3: expected a JSON object\n"),
        (["chi"], "error: line 2: expected a JSON object\n"),
    ])
    def test_chi_body_line_refused(self, body, message, tmp_path):
        lines = [{"format": "chi", "version": 1, "n": 2, "p": 7, "d": 1}, *body]
        path = tmp_path / "chi.txt"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli(["verify", str(path)]) == ("", message, 2)

    def test_header_not_an_object_refused(self, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("[1, 2]\n")
        assert run_cli(["verify", str(path)]) == ("", "error: line 1: expected a JSON object\n", 2)

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-2"], ["--n", "3", "--bound", "-1"]])
    def test_audit_splittings_bounds(self, argv, capsys):
        assert main(["audit-splittings", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: audit-splittings needs --n >= 1 and --bound >= 0")
        assert "expected a" not in captured.err and captured.out == ""

    def test_audit_splittings_smallest_n(self, capsys):
        assert main(["audit-splittings", "--n", "1", "--bound", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_poly_body_far_short_of_its_header(self, tmp_path, capsys):
        # the largest d the size bound accepts; d = 3000 is refused by that bound
        path = tmp_path / "poly.txt"
        path.write_text(json.dumps({"format": "poly", "version": 1, "n": 3, "p": 7, "d": MAX_D}) + "\n")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: line 1: missing matrix entries "
                       f"[(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)] and {MAX_D**2 - 5} more\n")

    def test_poly_body_missing_few_entries_lists_them(self, tmp_path, capsys):
        text = "\n".join([
            json.dumps({"format": "poly", "version": 1, "n": 3, "p": 7, "d": 2}),
            json.dumps({"row": 1, "col": 1, "terms": []}),
            json.dumps({"row": 2, "col": 1, "terms": []}),
        ]) + "\n"
        path = tmp_path / "poly.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: missing matrix entries [(1, 2), (2, 2)]\n"

    @pytest.mark.parametrize("header,line", [
        ({"format": "poly", "n": 2, "p": 7, "d": 1}, {"row": 1, "col": 1, "terms": [5]}),
        ({"format": "poly", "n": 2, "p": 7, "d": 1}, {"row": 1, "col": 1, "terms": 5}),
        ({"format": "poly", "n": 2, "p": 7, "d": 1},
         {"row": 1, "col": 1, "terms": [{"M": [[0, 0], [0, 0]]}]}),
        ({"format": "poly", "n": 2, "p": 7, "d": 1}, {"row": True, "col": 1, "terms": []}),
        ({"format": "chi", "n": 2, "p": 7, "d": 1}, {"M": [[0, 0], [0, 0]], "matrix": [[None]]}),
        ({"format": "layers", "n": 2, "p": 7, "d": 1, "layers": 1},
         {"layer": False, "i": 1, "j": 2, "matrix": [["0"]]}),
        ({"format": "layers", "n": 2, "p": 7, "d": 1, "layers": 1},
         {"layer": 0, "i": True, "j": 2, "matrix": [["0"]]}),
    ])
    def test_malformed_body_lines_refused(self, header, line, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text(json.dumps({"version": 1, **header}) + "\n" + json.dumps(line) + "\n")
        command = "construct" if header["format"] == "layers" else "verify"
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and "Traceback" not in err


class TestLazyPolynomialMatrix:
    """construct (with a chi or a poly body), verify, decompose and the twist
    read the chi table and never assemble the polynomial matrix.  Their
    outputs match tests/data/cli_outputs.json, written by the same commands
    while every Representation still assembled its matrix."""

    @staticmethod
    def run(argv, calls):
        before = len(calls)
        out, err, code = run_cli(argv)
        assert len(calls) == before, argv
        return [out, err, code]

    def test_outputs_and_assembly(self, tmp_path, monkeypatch):
        calls = []
        assemble = reps.assemble
        monkeypatch.setattr(reps, "assemble", lambda chi: calls.append(chi) or assemble(chi))
        verify = ["--comodule", "--pointwise", "sampled:20", "--chi-relations", "--lemmas"]
        got = {}
        for name, data in (("n3-d2-p7", random_layer_data(3, 2, 7, 2, seed=1)),
                           ("n4-d3-p11", random_layer_data(4, 3, 11, 1, seed=5))):
            layers, rep = tmp_path / f"{name}.layers", tmp_path / f"{name}.rep"
            layers.write_text(write_layer_file(data))
            got[f"{name} construct"] = self.run(["construct", str(layers), "-o", str(rep)], calls)
            got[f"{name} construct"].append(rep.read_text())
            got[f"{name} construct poly"] = self.run(["construct", str(layers), "--format", "poly"],
                                                     calls)
            got[f"{name} verify"] = self.run(["verify", str(rep), *verify], calls)
            got[f"{name} decompose"] = self.run(["decompose", str(rep)], calls)
            got[f"{name} twist"] = write_rep_file(frobenius_twist_rep(construct_from_layers(data)))
        bad = tmp_path / "bad.rep"
        bad.write_text(write_rep_file(Representation(ChiTable(3, 7, 2, {
            ExponentMatrix.zero(3): scalar_matrix([[1, 0], [0, 1]], 7),
            ExponentMatrix.epsilon(3, 1, 3): scalar_matrix([[0, 1], [0, 0]], 7),
            ExponentMatrix.epsilon(3, 1, 2, 2): scalar_matrix([[0, 3], [0, 0]], 7),
        }))))
        got["bad verify"] = self.run(["verify", str(bad), *verify], calls)
        got["bad decompose"] = self.run(["decompose", str(bad)], calls)
        golden = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())
        assert got == golden
        assert calls == []  # the twist and the writers above included

    def test_poly_matrix_is_read_only(self):
        rep = construct_from_layers(random_layer_data(3, 2, 7, 1, seed=0))
        with pytest.raises(AttributeError):
            rep.poly_matrix = None
        assert rep.poly_matrix is rep.poly_matrix  # assembled once


class TestParserOnce:
    run = staticmethod(run_cli)

    def test_calls_share_one_parser_and_match_fresh_ones(self, layer_file, tmp_path, monkeypatch):
        path, data = layer_file
        rep_path = tmp_path / "rep.txt"
        rep_path.write_text(write_rep_file(construct_from_layers(data)))
        calls = [
            ["verify", str(rep_path), "--comodule"],
            ["verify", str(rep_path)],
            ["verify", str(rep_path), "--no-such-flag"],
            ["construct", str(path)],
        ]
        assert cli.build_parser() is cli.build_parser()
        shared = [self.run(argv) for argv in calls]
        assert [code for _, _, code in shared] == [0, 0, 2, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert shared == [self.run(argv) for argv in calls]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["roundtrip", "--n", "3", "--d", "2", "--p", "5"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(unirep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "unirep", *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def reference_yz_pairs(n, bound):
    """The row-built (Y, Z) pairs that cli._yz_pairs replaced, kept as its oracle."""
    y_pos = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    z_pos = [(1, j) for j in range(2, n + 1)]
    for y_vals in itertools.product(range(bound + 1), repeat=len(y_pos)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(y_pos, y_vals):
            rows[i - 1][j - 1] = v
        y = ExponentMatrix(n, rows)
        for z_vals in itertools.product(range(bound + 1), repeat=len(z_pos)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(z_pos, z_vals):
                rows[i - 1][j - 1] = v
            yield y, ExponentMatrix(n, rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_yz_pairs_match_the_row_built_ones(n):
    for bound in range(3):
        assert list(cli._yz_pairs(n, bound)) == list(reference_yz_pairs(n, bound)), (n, bound)


class TestReportLines:
    """Every report line a command writes, and every finding printed inside an
    error line, is exactly the four fields of errors.finding, each a str."""

    @staticmethod
    def assert_finding(f):
        assert set(f) == FIELDS and all(type(v) is str for v in f.values()), f

    def count_lines(self, text):
        lines = text.splitlines()
        for line in lines:
            self.assert_finding(json.loads(line))
        return len(lines)

    def check_embedded(self, err):
        """The findings list printed inside one error line."""
        assert err.startswith("error:") and err.count("\n") == 1, err
        findings = ast.literal_eval(err[err.index(": [") + 2:])
        assert findings
        for f in findings:
            self.assert_finding(f)

    @pytest.fixture
    def files(self, layer_file, tmp_path):
        rep = construct_from_layers(layer_file[1])
        failing = "\n".join([  # x_13 alone violates the coproduct
            json.dumps({"format": "chi", "version": 1, "n": 3, "p": 7, "d": 1}),
            json.dumps({"M": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "matrix": [["1"]]}),
            json.dumps({"M": [[0, 0, 1], [0, 0, 0], [0, 0, 0]], "matrix": [["1"]]}),
        ]) + "\n"
        small = Representation(ChiTable(2, 5, 2, {  # chi(2 eps_12) breaks the group law
            ExponentMatrix.zero(2): scalar_matrix([[1, 0], [0, 1]], 5),
            ExponentMatrix.epsilon(2, 1, 2): scalar_matrix([[0, 1], [0, 0]], 5),
            ExponentMatrix.epsilon(2, 1, 2, 2): scalar_matrix([[0, 1], [0, 0]], 5),
        }))
        texts = {"valid": write_rep_file(rep), "poly": write_rep_file(rep, body="poly"),
                 "zero-side": write_rep_file(zero_side_rep()), "failing": failing,
                 "small": write_rep_file(small)}
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        return paths

    def test_verify(self, files):
        flags = [[], ["--comodule"], ["--pointwise", "sampled:5"], ["--pointwise", "exhaustive"],
                 ["--chi-relations"], ["--lemmas"],
                 ["--comodule", "--pointwise", "sampled:5", "--chi-relations", "--lemmas"]]
        written = {}
        for (name, path), flag in itertools.product(files.items(), flags):
            out, err, code = run_cli(["verify", str(path), *flag])
            if code == 2:  # a refusal: one error line and no report
                assert out == "" and err.startswith("error:") and err.count("\n") == 1
                continue
            assert err == "" and code == int(bool(out))
            written[name] = written.get(name, 0) + self.count_lines(out)
        assert written["valid"] == written["poly"] == 0
        assert min(written[name] for name in ("zero-side", "failing", "small")) > 0

    def test_construct_and_decompose(self, files, layer_file, tmp_path):
        out, err, code = run_cli(["decompose", str(files["valid"])])
        assert code == 0 and self.count_lines(err) == 1
        out, err, code = run_cli(["decompose", str(files["failing"])])
        assert code == 2 and out == ""
        self.check_embedded(err)
        bad = random_layer_data(3, 2, 7, 1, seed=1)
        bad.layers[0][(1, 2)] = scalar_matrix([[1, 0], [0, 0]], 7)  # not nilpotent
        path = tmp_path / "bad-layers.txt"
        path.write_text(write_layer_file(bad))
        out, err, code = run_cli(["construct", str(path)])
        assert code == 2 and out == ""
        self.check_embedded(err)

    def test_roundtrip_and_bch(self):
        out, err, code = run_cli(["roundtrip", "--n", "3", "--d", "2", "--p", "11", "--layers", "2"])
        assert (code, err) == (0, "") and self.count_lines(out) == 1
        out, err, code = run_cli(["bch", "--max-degree", "4"])
        assert (code, err) == (0, "") and self.count_lines(out) == 4

    def test_audit_splittings(self, monkeypatch):
        monkeypatch.setattr(splittings, "shared_variable", lambda lp, rp, n: None)
        monkeypatch.setattr(cli, "brute_solve_yz", lambda y, z, bound: [])
        out, err, code = run_cli(["audit-splittings", "--n", "3", "--bound", "1"])
        assert (code, err) == (1, "")
        assert self.count_lines(out) > 0
        assert {json.loads(line)["check"] for line in out.splitlines()} == {
            "shared-variable", "yz-uniqueness"}
