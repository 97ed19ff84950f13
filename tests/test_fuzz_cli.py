"""The file readers fuzzed through the command line: mutated chi, poly and
layer files keep the 0/1/2 exit-code contract without a traceback, and every
file that parses is written back byte-stably."""

import json

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
