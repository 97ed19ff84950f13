"""The command line fuzzed: mutated chi, poly and layer files, and random
argument lists over valid, corrupt and missing files, keep the 0/1/2
exit-code contract without a traceback, and every file that parses is
written back byte-stably."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unirep.errors import UnirepError
from unirep.io import parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from unirep.reps import construct_from_layers
from unirep.samples import random_layer_data

from test_cli import run_cli


def seed_files():
    """Small valid files: a layer file and its chi and poly rep files, over F_7
    with two layers and over Q."""
    files = []
    for data in (random_layer_data(3, 3, 7, 2, seed=0), random_layer_data(3, 3, 0, 1, seed=0)):
        rep = construct_from_layers(data)
        files += [("layers", write_layer_file(data)), ("rep", write_rep_file(rep)),
                  ("rep", write_rep_file(rep, "poly"))]
    return files


SEEDS = seed_files()
VERIFY_ALL = ["--comodule", "--pointwise", "sampled:5", "--chi-relations", "--lemmas"]
COMMANDS = {
    "layers": (["construct"], ["construct", "--format", "poly"]),
    "rep": (["verify"], ["verify", *VERIFY_ALL], ["decompose"]),
}
VALUES = st.one_of(
    st.integers(-1, 12).map(str),  # scalars, as the files write them
    st.integers(-1, 12),
    st.sampled_from([2**31 - 1, 2**31, 10**6, 1.5, True, None, "", "1/2", "x", [], {}]),
    st.lists(st.integers(0, 3), max_size=3),
)


def replaced(data, value, top=False):
    """value with one node, the root excepted when ``top``, replaced by a drawn
    value; the walk goes down to a leaf unless a draw stops it."""
    if isinstance(value, (dict, list)) and value and (top or not data.draw(st.booleans())):
        at = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value = dict(value) if isinstance(value, dict) else list(value)
        value[at] = replaced(data, value[at])
        return value
    return data.draw(VALUES)


def mutated(data, text):
    """text after one or two drawn edits: a JSON value replaced, or a line
    dropped, repeated or cut short."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        if not lines:
            break
        k = (data.draw(st.integers(0, len(lines) - 1)) + 1) % len(lines)  # the header last
        edit = data.draw(st.sampled_from(["value", "value", "value", "drop", "repeat", "cut"]))
        if edit == "drop":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        elif edit == "cut":
            lines[k] = lines[k][:data.draw(st.integers(0, len(lines[k])))]
        else:
            try:
                obj = json.loads(lines[k])
            except ValueError:
                continue
            lines[k] = json.dumps(replaced(data, obj, top=True), sort_keys=True)
    return "\n".join(lines) + "\n"


def stable(kind, text):
    """Parse text; if it parses, write -> parse -> write gives the same bytes."""
    parse, writes = (parse_layer_file, [write_layer_file]) if kind == "layers" else (
        parse_rep_file, [write_rep_file, lambda rep: write_rep_file(rep, "poly")])
    try:
        parsed = parse(text)
    except UnirepError:
        return
    for write in writes:
        once = write(parsed)
        assert write(parse(once)) == once


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_files_through_the_command_line(tmp_path_factory, data):
    kind, text = data.draw(st.sampled_from(SEEDS))
    text = mutated(data, text)
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_text(text)
    for command in COMMANDS[kind]:
        out, err, code = run_cli([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2), (command, text)
        assert "Traceback" not in err
        if command[0] == "construct" and code == 0:
            body = "poly" if "poly" in command else "chi"
            assert write_rep_file(parse_rep_file(out), body) == out
    stable(kind, text)


# --- random argument lists ------------------------------------------------------

@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Input files named by kind: valid layer, chi and poly files over F_5 and
    Q, a chi file that parses but is no comodule, a cut one, a missing path and
    a directory.  Every request on them is cheap: n, d <= 3 and p <= 7."""
    root = tmp_path_factory.mktemp("argv-fuzz")
    files = {"missing": root / "missing.txt", "directory": root}
    for name, shape in (("f5", (2, 2, 5, 2)), ("q", (3, 2, 0, 1))):
        data = random_layer_data(*shape, seed=0)
        rep = construct_from_layers(data)
        for kind, text in (("layers", write_layer_file(data)), ("chi", write_rep_file(rep)),
                           ("poly", write_rep_file(rep, "poly"))):
            files[f"{name}-{kind}"] = root / f"{name}-{kind}.txt"
            files[f"{name}-{kind}"].write_text(text)
    chi = files["f5-chi"].read_text()
    wrong = chi.replace('"matrix": [["1", "3"]', '"matrix": [["1", "2"]')
    assert wrong != chi
    files["wrong"], files["cut"] = root / "wrong.txt", root / "cut.txt"
    files["wrong"].write_text(wrong)
    files["cut"].write_text(chi[:len(chi) // 2])
    return files


SMALL = st.integers(-1, 3).map(str)
JUNK = st.sampled_from(["", "-", "--", "--bogus", "x", "1.5", "nan", "1e3", "sampled:", "--n=x", "a\0b"])
OPTION_VALUES = {
    "--n": SMALL, "--d": SMALL, "--seed": SMALL,
    "--p": st.sampled_from(["0", "2", "3", "4", "5", "7", "-1"]),
    "--layers": st.integers(-1, 2).map(str),
    "--max-degree": st.integers(-1, 8).map(str),
    "--bound": st.integers(-1, 2).map(str),
    "--pointwise": st.sampled_from(["exhaustive", "sampled:3", "sampled:0", "sampled:x", "x"]),
    "--format": st.sampled_from(["chi", "poly", "x"]),
}
SWITCHES = ("--comodule", "--chi-relations", "--lemmas", "-h")
OPTIONS = {
    "construct": ("--output", "--format"),
    "verify": ("--comodule", "--pointwise", "--chi-relations", "--lemmas", "--seed"),
    "decompose": ("--output",),
    "roundtrip": ("--n", "--d", "--p", "--layers", "--seed"),
    "bch": ("--max-degree",),
    "audit-splittings": ("--n", "--bound"),
}


def random_argv(data, files, out):
    """A subcommand (or junk), mostly its input file and each of its own
    options, their values now and then junk, then up to two tokens of any
    kind: a known flag with a small value, a switch, a file, a small int or
    junk."""
    def option(flag):
        if flag in SWITCHES:
            return [flag]
        if flag == "--output":
            return [flag, data.draw(st.sampled_from([str(out), str(out.parent), str(out.parent / "no" / "out")]))]
        return [flag, data.draw(OPTION_VALUES[flag] if data.draw(st.integers(0, 7)) else JUNK)]

    command = data.draw(st.sampled_from(sorted(OPTIONS) + ["x", "--bogus"]))
    argv = [command]
    if command in ("construct", "verify", "decompose") and data.draw(st.integers(0, 4)):
        argv.append(str(files[data.draw(st.sampled_from(sorted(files)))]))
    for flag in OPTIONS.get(command, ()):
        if data.draw(st.integers(0, 3)):
            argv += option(flag)
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        kind = data.draw(st.sampled_from(["option", "file", "int", "junk"]))
        if kind == "option":
            argv += option(data.draw(st.sampled_from(sorted({*OPTION_VALUES, *SWITCHES, "--output"}))))
        elif kind == "file":
            argv.append(str(files[data.draw(st.sampled_from(sorted(files)))]))
        else:
            argv.append(data.draw(SMALL if kind == "int" else JUNK))
    return argv


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_argv_through_the_command_line(argv_files, data):
    argv = random_argv(data, argv_files, argv_files["directory"] / "out.txt")
    out, err, code = run_cli(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
