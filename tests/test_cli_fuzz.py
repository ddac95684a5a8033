"""Every argv built from the command table, and every random custom
relation file, ends in exit 0, 1 or 2.

The strategy reads each command's positionals and options from
`cli._COMMANDS`, so a new option is fuzzed without an edit here.  Values
come from small pools of valid and edge texts; sizes stay small, so that a
run that is accepted finishes in well under a second.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from placto import cli
from placto.cli import main

# Small values that a command accepts, and edge values: integers at and
# around the bounds, texts that `int` reads or refuses, shapes that are
# empty, malformed or not partitions, words over too many letters, and
# relation files that are malformed or missing.
_INTS = ("1", "2", "3", "4")
_EDGE_INTS = ("0", "-1", "256", "99999999999999999999", "３", "1_0", "", "x")
_TEXTS = ("0", "1", "2,1", "3,2", "312", "knuth", "shifted-knuth", "custom:chinese.json")
_EDGE_TEXTS = (
    "",
    "1,2",
    ",1",
    "3,x",
    "-1",
    "10,2,11",
    "custom:malformed.json",
    "custom:missing.json",
)
_CHINESE = [
    {"left": "cba", "right": "bca", "constraints": "a<=b<=c"},
    {"left": "cba", "right": "cab", "constraints": "a<=b<=c"},
]


@pytest.fixture(scope="module", autouse=True)
def _in_a_scratch_directory(tmp_path_factory):
    """Run in a directory of its own, holding the custom relation files, so
    that `--json` writes land there."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "chinese.json").write_text(json.dumps(_CHINESE), encoding="utf-8")
    (directory / "malformed.json").write_text('[{"left": "ab"}]', encoding="utf-8")
    before = os.getcwd()
    os.chdir(directory)
    yield
    os.chdir(before)


def _texts(choices, valid, edge) -> st.SearchStrategy[str]:
    """One of the choices, or a valid value when any goes, three times as
    often as an edge value."""
    good = st.sampled_from(choices or valid)
    return st.one_of(good, good, good, st.sampled_from(edge))


def _tenths(draw, tenths: int) -> bool:
    """True with a chance of `tenths` in ten."""
    return draw(st.sampled_from(range(10))) < tenths


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, positionals, options = cli._COMMANDS[command]
    groups = []
    for _, choices in positionals:
        if _tenths(draw, 9):  # now and then the argument is missing
            groups.append([draw(_texts(choices, _TEXTS, _EDGE_TEXTS))])
    if _tenths(draw, 1):
        groups.append([draw(st.sampled_from(_TEXTS))])  # one argument too many
    for name, option in list(options.items()) + [("bogus", cli._Option())]:
        # a required option is left out now and then, and a bogus one given
        if not _tenths(draw, 9 if option.required else 1 if name == "bogus" else 5):
            continue
        if option.convert is None:
            flag = f"--{name}"
            groups.append([draw(st.sampled_from((flag, flag, flag, flag + "=x")))])
            continue
        if option.convert is int:
            value = draw(_texts(option.choices, _INTS, _EDGE_INTS))
        else:
            value = draw(_texts(option.choices, _TEXTS, _EDGE_TEXTS))
        if draw(st.booleans()):
            groups.append([f"--{name}={value}"])
        else:
            groups.append([f"--{name}", value])
        if _tenths(draw, 1):
            groups.append(groups[-1])  # a repeated option
    groups = draw(st.permutations(groups))
    argv = [command] + [token for group in groups for token in group]
    if _tenths(draw, 1):
        argv.append(f"--{draw(st.sampled_from(sorted(options)))}")  # without its value
    return argv


@given(_argv())
@settings(max_examples=200, deadline=None)
def test_every_argv_from_the_table_ends_in_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error found while parsing
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("placto: error:"), (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        lines = out.getvalue().splitlines()
        assert lines, argv
        for line in lines:
            json.loads(line)


# Random custom relation sets: patterns of 1 to 4 letters, sides that are
# permutations of each other or of another length or content, chains that
# are valid, malformed or name other variables, entries that miss a key or
# hold a value of the wrong type, and files that are no JSON list.
_VARIABLE = st.sampled_from("abcd")
_PATTERN = st.lists(_VARIABLE, min_size=1, max_size=4).map("".join)
_MALFORMED_CHAINS = ("", "a<", "<a", "a<=a", "a<b<", "a=b", "a<<b", "A<B", "a<b<c<d<e", "a>b")


def _rarely(draw, tenths: int = 1) -> bool:
    """True with a chance of `tenths` in ten; hypothesis leans to False,
    the well-formed choice."""
    return not _tenths(draw, 10 - tenths)


@st.composite
def _chain(draw, pattern: str) -> str:
    if _rarely(draw, 2):
        return draw(st.one_of(st.sampled_from(_MALFORMED_CHAINS), st.text("abcde<= ", max_size=9)))
    variables = draw(st.permutations(sorted(set(pattern))))
    if _rarely(draw):
        variables.append("e")  # a variable in neither pattern
    text = variables[0]
    for v in variables[1:]:
        text += draw(st.sampled_from(("<", "<=", " < ", "<= "))) + v
    return text


@st.composite
def _entry(draw):
    left = draw(_PATTERN)
    right = "".join(draw(st.permutations(left))) if not _rarely(draw, 2) else draw(_PATTERN)
    entry = {"left": left, "right": right, "constraints": draw(_chain(left))}
    if draw(st.booleans()):
        entry["name"] = draw(st.sampled_from(("r", "K.1", "")))
    if _rarely(draw):
        del entry[draw(st.sampled_from(sorted(entry)))]
    if _rarely(draw):
        entry[draw(st.sampled_from(sorted(entry)))] = draw(
            st.sampled_from((1, None, ["a"], {"a": "b"}))
        )
    if _rarely(draw):
        return draw(st.sampled_from(("ab", 3, None, [left, right])))
    return entry


@st.composite
def _relation_file(draw) -> bytes:
    entries = draw(st.lists(_entry(), max_size=3))
    if _rarely(draw):
        return draw(st.sampled_from((b"", b"[", b'{"left": "ab"}', b"\xff[]", b"null", b'"ab"')))
    if _rarely(draw):
        return json.dumps(entries[0] if entries else {}).encode()  # an object, not a list
    return json.dumps(entries).encode()


_WORDS = ("1", "21", "312", "1221", "2143", "3412", "", "0", "4,1,3")


@st.composite
def _custom_argv(draw) -> list[str]:
    relations = ["--relations", "custom:random.json"]
    # `verify cases` refuses every custom set before it reads the file
    command = draw(st.sampled_from(("axioms", "class", "axioms", "class", "cases")))
    if command == "axioms":
        # degree 1 is refused: axiom 2 multiplies sums of degree 1 and 2
        n, degree = draw(st.integers(1, 3)), draw(st.sampled_from((3, 4, 3, 4, 2, 1)))
        return ["verify", "axioms", *relations, "--n", str(n), "--degree", str(degree)]
    if command == "cases":
        return ["verify", "cases", *relations]
    argv = ["class", *relations, draw(st.sampled_from(_WORDS))]
    if draw(st.booleans()):
        argv += ["--n", str(draw(st.integers(1, 4)))]
    return argv


@given(_relation_file(), _custom_argv())
@settings(max_examples=250, deadline=None)
def test_every_random_relation_file_ends_in_0_1_or_2(content, argv):
    with open("random.json", "wb") as handle:
        handle.write(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (content, argv)
    if code == 2:
        assert err.getvalue().startswith("placto: error:"), (content, argv, err.getvalue())
        assert out.getvalue() == "", (content, argv)
    else:
        lines = out.getvalue().splitlines()
        assert lines, (content, argv)
        for line in lines:
            json.loads(line)
