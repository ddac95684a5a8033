"""Command-line interface: outputs, exit codes, custom relation files."""

import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from placto import algebra, cli
from placto.cli import main
from placto.rewrite import KNUTH, SHIFTED_KNUTH, RelationSet, class_dump, equiv_class
from placto.tableaux import hook_factorization_check, mixed_insert_word, strict_partitions
from placto.verify import _partition_degree, verify_axioms
from placto.words import Word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInsert:
    def test_plactic(self, capsys):
        code, out = run_cli(capsys, "insert", "--mode", "plactic", "312")
        assert code == 0
        payload = json.loads(out)
        assert payload["tableau"] == {"shape": [2, 1], "rows": [["1", "2"], ["3"]]}
        assert payload["canonical_word"] == "312"

    def test_mixed(self, capsys):
        code, out = run_cli(capsys, "insert", "--mode", "mixed", "21")
        assert code == 0
        payload = json.loads(out)
        assert payload["tableau"] == {"shape": [2], "rows": [["1", "2'"]]}
        assert payload["canonical_word"] == "21"

    def test_mixed_canonical_is_hook_member(self, capsys):
        code, out = run_cli(capsys, "insert", "--mode", "mixed", "1243")
        payload = json.loads(out)
        # the hook-factorization word of the class {1243, 1423} is 1423:
        # its tail 423 is a hook segment, while 243 is not a hook word
        assert payload["canonical_word"] == "1423"

    def test_bad_word_is_usage_error(self, capsys):
        code = main(["insert", "--mode", "plactic", "1x2"])
        assert code == 2

    def test_mixed_hook_word_equals_the_all_shapes_scan(self):
        # the hook word is looked for at the mixed tableau's shape only;
        # checking every strict partition of the length must give the same
        for degree in range(1, 7):
            shapes = list(strict_partitions(degree))
            for cls in _partition_degree(SHIFTED_KNUTH, 4, degree):
                members = [Word.from_bytes(m, 4) for m in cls]
                hits = [
                    m for m in members if any(hook_factorization_check(m, nu) for nu in shapes)
                ]
                expected = hits[0] if len(hits) == 1 else None
                w = members[0]
                assert cli._canonical_hook_word(mixed_insert_word(w), 4) == expected

    def test_mixed_near_the_class_limit(self, capsys):
        # a shifted class of 9 856 words, just under cli._MAX_CLASS
        start = time.perf_counter()
        code, out = run_cli(capsys, "insert", "--mode", "mixed", "7762845173753216")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["canonical_word"] == "7247651378753216"
        assert elapsed < 2.0


class TestClassCommand:
    def test_dump(self, capsys):
        code, out = run_cli(capsys, "class", "--relations", "shifted-knuth", "1243")
        assert code == 0
        assert json.loads(out) == {
            "word": "1243",
            "relation_set": "shifted-knuth",
            "class": ["1243", "1423"],
            "size": 2,
        }

    def test_custom_relations_file(self, capsys, tmp_path):
        path = tmp_path / "comm.json"
        path.write_text(
            json.dumps([{"left": "ab", "right": "ba", "constraints": "a<b"}]),
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "class", "--relations", f"custom:{path}", "12")
        assert code == 0
        assert json.loads(out)["class"] == ["12", "21"]


class TestSchurAndLr:
    def test_schur(self, capsys):
        code, out = run_cli(capsys, "schur", "--shape", "1,1", "--n", "3")
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"coeff": 1, "word": "21"},
            {"coeff": 1, "word": "31"},
            {"coeff": 1, "word": "32"},
        ]

    def test_shifted_schur(self, capsys):
        code, out = run_cli(capsys, "schur", "--shape", "2,1", "--shifted", "--n", "2")
        assert code == 0
        assert [t["word"] for t in json.loads(out)["terms"]] == ["121", "221"]

    def test_schur_degree_option_rejected(self, capsys):
        # the degree of a Schur sum is its shape's size; no option sets it
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--shape", "2,1", "--n", "2", "--degree", "7"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_lr(self, capsys):
        code, out = run_cli(capsys, "lr", "--nu", "1", "--mu", "1", "--n", "3")
        assert code == 0
        assert json.loads(out)["coefficients"] == {"1,1": 1, "2": 1}


class TestVerifyCommand:
    def test_tables_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "tables")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1]["check"] == "summary"
        assert lines[-1]["pass"]

    def test_cases_with_relations_filter(self, capsys):
        code, out = run_cli(capsys, "verify", "cases", "--relations", "knuth")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1]["total"] == 4 + 1 - 1  # 4 cases + summary excluded

    def test_section5(self, capsys):
        code, out = run_cli(capsys, "verify", "section5", "--n", "4")
        assert code == 0

    def test_axioms_small(self, capsys):
        code, out = run_cli(capsys, "verify", "axioms", "--n", "2", "--degree", "4")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        axioms = [l["axiom"] for l in lines if l["check"] == "axiom"]
        assert axioms == [f"Plac.{i}" for i in range(1, 5)] + [
            f"SPlac.{i}" for i in range(1, 5)
        ]

    def test_json_output_written(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        code, out = run_cli(capsys, "verify", "tables", "--json", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_failed_json_write_leaves_stdout_empty(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.jsonl"
        code = main(["verify", "tables", "--json", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("placto: error:")
        assert str(path) in captured.err
        assert not path.exists()

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "verify", "cases", "--relations", "shifted-knuth")
        _, second = run_cli(capsys, "verify", "cases", "--relations", "shifted-knuth")
        assert first == second

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonesuch"])
        assert exc.value.code == 2


def _python_m_placto(argv, *flags):
    """`python [flags] -m placto argv` run to completion in a new interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "placto", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_the_command_line_loads_no_dataclasses():
    # the value classes are plain classes, so importing the command line
    # loads neither dataclasses nor what dataclasses imports; argparse gave
    # way to the command table
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse")
    code = (
        "import sys, placto.cli; "
        f"print(placto.cli.__file__); print(sorted(set({unwanted!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    where, loaded = result.stdout.splitlines()
    assert pathlib.Path(where).resolve().is_relative_to(src)
    assert loaded == "[]"


def test_calls_share_no_parse_state(capsys):
    # the later calls differ in options and fall back on defaults, so state
    # left by an earlier parse would change their output
    commands = [
        ["class", "--relations", "shifted-knuth", "--n", "5", "1243"],
        ["class", "1243"],
        ["insert", "--mode", "mixed", "1243"],
        ["insert", "--mode", "plactic", "312"],
    ]
    fresh = []
    for argv in commands:
        result = _python_m_placto(argv)
        fresh.append((result.returncode, result.stdout))

    grammar = repr(cli._COMMANDS)
    reused = [run_cli(capsys, *commands[0])]
    with pytest.raises(SystemExit) as exc:
        main(["class", "--relations"])
    assert exc.value.code == 2
    capsys.readouterr()
    reused.extend(run_cli(capsys, *argv) for argv in commands[1:])
    assert reused == fresh
    assert repr(cli._COMMANDS) == grammar


def test_help_without_docstrings_names_the_commands():
    # `python -OO` strips the docstring that --help prints
    result = _python_m_placto(["--help"], "-OO")
    assert (result.returncode, result.stderr) == (0, "")
    assert all(command in result.stdout for command in cli._COMMANDS)


@pytest.mark.parametrize(
    "argv, token",
    [
        ([], "no command"),
        (["nonesuch", "12"], "'nonesuch'"),
        (["class", "--rel", "knuth", "12"], "--rel"),
        (["insert", "--mode", "plactic", "12", "--n"], "--n"),
        (["verify", "axioms", "--n", "x"], "'x'"),
        (["verify", "nonesuch"], "'nonesuch'"),
        (["insert", "--mode", "foo", "12"], "'foo'"),
        (["insert", "--mode", "plactic"], "word"),
        (["verify"], "tables"),
        (["class", "12", "21"], "'21'"),
        (["schur", "--shape", "2,1"], "--n"),
        (["lr", "--nu", "2,1", "--n", "3"], "--mu"),
        (["insert", "12"], "--mode"),
        (["schur", "--shape", "2,1", "--n", "2", "--shifted=1"], "--shifted=1"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "unknown-option",
        "option-without-value",
        "n-not-an-int",
        "verify-bad-family",
        "insert-bad-mode",
        "missing-word",
        "missing-family",
        "extra-positional",
        "schur-without-n",
        "lr-without-mu",
        "insert-without-mode",
        "flag-with-value",
    ],
)
def test_usage_errors_name_the_token(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("placto: error:")
    assert token in captured.err


@pytest.mark.parametrize(
    "argv, same",
    [
        ("verify axioms --n=2 --degree=4", "verify axioms --n 2 --degree 4"),
        ("insert --mode=mixed --n=5 1243", "insert --mode mixed --n 5 1243"),
        ("class --relations=shifted-knuth 1243", "class --relations shifted-knuth 1243"),
        ("insert 312 --mode plactic", "insert --mode plactic 312"),
        (
            "class --relations knuth --relations shifted-knuth 1243",
            "class --relations shifted-knuth 1243",
        ),
        ("schur --n 2 --shape 1 --shifted --n 3 --shape 2,1", "schur --shape 2,1 --shifted --n 3"),
        ("verify section5 --n -1 --n 3", "verify section5 --n 3"),
    ],
    ids=[
        "joined-ints",
        "joined-choice",
        "joined-text",
        "any-order",
        "repeated",
        "repeated-two",
        "repeated-negative",
    ],
)
def test_equivalent_spellings(capsys, argv, same):
    expected = run_cli(capsys, *same.split())
    assert expected[0] == 0
    assert run_cli(capsys, *argv.split()) == expected


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["class", "-h"], ["schur", "--shape", "2,1", "--help"]],
    ids=["long", "short", "after-command", "after-option"],
)
def test_help_names_every_command_and_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # one block per command, from its usage line to the next
    blocks = re.split(r"\n  (?=placto )", captured.out)
    for command, (_, positionals, options) in cli._COMMANDS.items():
        (block,) = [b for b in blocks if b.startswith(f"placto {command} ")]
        for name in options:
            assert f"--{name}" in block, (command, name)
        for _, choices in positionals:
            for choice in choices or ():
                assert choice in block, (command, choice)


class TestUsageErrors:
    @pytest.mark.parametrize("what", ["axioms", "section5"])
    @pytest.mark.parametrize("option", ["--n", "--degree"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_sizes_below_one_rejected(self, capsys, what, option, value):
        code = main(["verify", what, option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("placto: error:")
        assert option in captured.err

    @pytest.mark.parametrize("what", ["axioms", "section5"])
    def test_n_above_255_rejected(self, capsys, what):
        code = main(["verify", what, "--n", "256"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "placto: error: --n must be at most 255, got 256\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["schur", "--shape", "2,1", "--n", "0"], "--n must be at least 1, got 0"),
            (["lr", "--nu", "2,1", "--mu", "1", "--n", "0"], "--n must be at least 1, got 0"),
            (["schur", "--shape", "1", "--n", "256"], "--n must be at most 255, got 256"),
            (["lr", "--nu", "1", "--mu", "1", "--n", "256"], "--n must be at most 255, got 256"),
            (["schur", "--shape", "1200", "--n", "1"], "--shape must have at most 255 cells, got 1200"),
            (["schur", "--shape", "200,56", "--n", "2"], "--shape must have at most 255 cells, got 256"),
            (
                ["lr", "--nu", "600", "--mu", "1", "--n", "1"],
                "--nu plus --mu must have at most 255 cells, got 601",
            ),
        ],
        ids=["schur-n-0", "lr-n-0", "schur-n-256", "lr-n-256", "schur-1200", "schur-256", "lr-601"],
    )
    def test_schur_and_lr_sizes_rejected(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"placto: error: {message}\n"

    @pytest.mark.parametrize(
        "what, option, value",
        [
            ("tables", "--n", "3"),
            ("tables", "--degree", "4"),
            ("tables", "--relations", "knuth"),
            ("cases", "--n", "3"),
            ("cases", "--degree", "4"),
            ("section5", "--degree", "9"),
            ("section5", "--relations", "knuth"),
        ],
    )
    def test_option_a_family_ignores_is_refused(self, capsys, what, option, value):
        code = main(["verify", what, option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"placto: error: verify {what} does not take {option}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--degree", "1"], "at least 2 for the Plac axioms, got 1"),
            (["--degree", "2"], "at least 3 for the SPlac axioms, got 2"),
            (["--relations", "knuth", "--degree", "1"], "at least 2 for the Plac axioms, got 1"),
            (
                ["--relations", "shifted-knuth", "--degree", "2"],
                "at least 3 for the SPlac axioms, got 2",
            ),
        ],
        ids=["both-1", "both-2", "knuth-1", "shifted-knuth-2"],
    )
    def test_degree_below_the_axioms_least_rejected(self, capsys, argv, message):
        code = main(["verify", "axioms"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"placto: error: degree bound must be {message}\n"

    def test_shifted_degree_refused_before_the_plactic_half(self, capsys):
        """The Plac half alone takes about 1.5 s at `--n 255 --degree 2`;
        the SPlac half's least degree is refused before it, with the message
        that `verify_axioms` gives."""
        start = time.perf_counter()
        code = main("verify axioms --n 255 --degree 2".split())
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        with pytest.raises(ValueError) as refused:
            verify_axioms("shifted-plactic", 255, 2)
        assert captured.err == f"placto: error: {refused.value}\n"
        assert elapsed < 0.3

    def test_schur_of_255_cells_accepted(self, capsys):
        code, out = run_cli(capsys, "schur", "--shape", "255", "--n", "1")
        assert code == 0
        assert json.loads(out)["terms"] == [{"coeff": 1, "word": "1" * 255}]

    @pytest.mark.parametrize(
        "command, message",
        [
            ("insert --mode plactic --n 300 12", "--n must be at most 255, got 300"),
            ("insert --mode mixed --n 256 12", "--n must be at most 255, got 256"),
            ("class --n 300 12", "--n must be at most 255, got 300"),
            ("insert --mode plactic --n 0 1", "--n must be at least 1, got 0"),
            ("insert --mode plactic 1,300", "word letters must be at most 255, got 300"),
            ("insert --mode mixed 1,300", "word letters must be at most 255, got 300"),
            ("class 1,300", "word letters must be at most 255, got 300"),
            ("insert --mode plactic " + "1" * 256, "word must have at most 255 letters, got 256"),
            ("insert --mode mixed " + "1" * 256, "word must have at most 255 letters, got 256"),
            ("class " + "12" * 128, "word must have at most 255 letters, got 256"),
            ("insert --mode plactic 1,,2", "cannot parse word '1,,2'"),
            ("class 1,,2", "cannot parse word '1,,2'"),
            ("insert --mode plactic 0", "letter 0 outside alphabet 1..1"),
            ("class 00", "letter 0 outside alphabet 1..1"),
        ],
        ids=[
            "plactic-n-300",
            "mixed-n-256",
            "class-n-300",
            "plactic-n-0",
            "plactic-letter-300",
            "mixed-letter-300",
            "class-letter-300",
            "plactic-256-letters",
            "mixed-256-letters",
            "class-256-letters",
            "plactic-empty-letter",
            "class-empty-letter",
            "plactic-letter-0",
            "class-letter-0",
        ],
    )
    def test_insert_and_class_words_bounded(self, capsys, command, message):
        code = main(command.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"placto: error: {message}\n"

    @pytest.mark.parametrize("mode", ["plactic", "mixed"])
    def test_insert_of_255_letters_over_255_accepted(self, capsys, mode):
        word = ",".join(map(str, range(255, 0, -1)))
        code, out = run_cli(capsys, "insert", "--mode", mode, "--n", "255", word)
        assert code == 0
        assert json.loads(out)["word"] == word

    def test_class_of_word_over_255_letters_rejected(self, capsys):
        code = main(["class", "12" * 128])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("placto: error:")

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"left": "ab", "right": "ba"}], "entry 0 is missing key 'constraints'"),
            (["x"], "entry 0 must be a JSON object"),
            (
                [{"left": "ab", "right": "ba", "constraints": "a<b"}, {"right": "ba"}],
                "entry 1 is missing key 'left'",
            ),
        ],
        ids=["missing-constraints", "not-an-object", "second-entry"],
    )
    def test_malformed_custom_relations(self, capsys, tmp_path, entries, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        code = main(["verify", "axioms", "--relations", f"custom:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"placto: error: custom relation {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["verify", "axioms", "--relations", "{custom}"], ["class", "--relations", "{custom}", "12"]],
        ids=["axioms", "class"],
    )
    def test_deeply_nested_custom_relations(self, capsys, tmp_path, argv):
        """A file nested past the JSON parser's recursion limit is a usage
        error, not a RecursionError traceback.  From Python 3.12 the parser
        counts against a C recursion limit of its own, so the file is nested
        far past every version's limit."""
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = main([arg.format(custom=f"custom:{path}") for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "placto: error: custom relation set is nested too deeply to parse\n"


# a chain variable that neither pattern uses: c after the used ones, then a
# before them
_UNUSED_CHAIN_VARIABLES = [
    ({"left": "ab", "right": "ba", "constraints": "a<b<c"}, "'c'"),
    ({"left": "bc", "right": "cb", "constraints": "a<b<c"}, "'a'"),
]


@pytest.mark.parametrize("entry, variable", _UNUSED_CHAIN_VARIABLES, ids=["last", "first"])
@pytest.mark.parametrize(
    "argv",
    [["class", "--relations", "{custom}", "321"], ["verify", "axioms", "--relations", "{custom}"]],
    ids=["class", "axioms"],
)
def test_unused_chain_variable_rejected(capsys, tmp_path, argv, entry, variable):
    path = tmp_path / "unused.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    code = main([arg.format(custom=f"custom:{path}") for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"placto: error: custom.1: chain variable {variable} is in neither pattern\n"
    )


_ALTERNATING_255 = "12" * 127 + "1"
_PERMUTATION_255 = ",".join(map(str, random.Random(0).sample(range(1, 256), 255)))


@pytest.mark.parametrize(
    "argv, relations",
    [
        (["class", "--relations", "shifted-knuth", _ALTERNATING_255], "shifted-knuth"),
        (["class", "--relations", "knuth", _ALTERNATING_255], "knuth"),
        (["class", "--relations", "knuth", _PERMUTATION_255], "knuth"),
    ],
    ids=["class-shifted-1212", "class-knuth-1212", "class-knuth-perm"],
)
def test_class_listing_above_the_limit_rejected(capsys, argv, relations):
    """Classes too big to close are refused from the tableau shape, fast."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    size = re.fullmatch(
        rf"placto: error: the {relations} class of this word has (\d+) members, "
        rf"more than the {cli._MAX_CLASS} that are listed\n",
        captured.err,
    )
    assert size and int(size.group(1)) > cli._MAX_CLASS
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [["class", "--relations", "knuth"]])
def test_class_listing_at_the_limit_accepted(capsys, monkeypatch, argv):
    # 2143 has a Knuth class of 2 members
    monkeypatch.setattr(cli, "_MAX_CLASS", 2)
    assert main(argv + ["2143"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MAX_CLASS", 1)
    assert main(argv + ["2143"]) == 2
    assert "has 2 members" in capsys.readouterr().err


@pytest.mark.parametrize("word", [_ALTERNATING_255, _PERMUTATION_255], ids=["1212", "perm"])
def test_mixed_insert_of_255_letters_reads_the_hook_word(capsys, word):
    """`insert --mode mixed` closes no class: words whose shifted classes
    are far above `_MAX_CLASS` get their hook word read off the tableau."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "insert", "--mode", "mixed", word)
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    w = Word.parse(word)
    hook = Word.parse(payload["canonical_word"], w.n)
    tableau = mixed_insert_word(w)
    assert hook_factorization_check(hook, tableau.shape)
    assert mixed_insert_word(hook) == tableau
    assert payload["tableau"] == tableau.to_json()
    assert elapsed < 1.0


@pytest.mark.parametrize("relations", ["knuth", "shifted-knuth"])
@pytest.mark.parametrize(
    "word", ["1" * 200 + "2" * 55, ",".join(map(str, range(1, 256)))], ids=["1-2", "1-255"]
)
def test_class_of_255_letters_with_one_member(capsys, relations, word):
    """A weakly increasing word has a one-row tableau and is alone in its
    class: the listing walks 255 levels, one cell each."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "class", "--relations", relations, word)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out) == {"word": word, "relation_set": relations, "class": [word], "size": 1}
    assert elapsed < 1.0


def test_custom_class_listing_is_capped(capsys, monkeypatch, tmp_path):
    """A custom set's class size is known only by closing it, so the closure
    stops once it has more than `_MAX_CLASS` members."""
    path = tmp_path / "knuth.json"
    path.write_text(
        json.dumps(
            [
                {"left": "acb", "right": "cab", "constraints": "a<=b<c"},
                {"left": "bca", "right": "bac", "constraints": "a<b<=c"},
            ]
        ),
        encoding="utf-8",
    )
    argv = ["class", "--relations", f"custom:{path}", "2143"]
    monkeypatch.setattr(cli, "_MAX_CLASS", 2)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["size"] == 2
    monkeypatch.setattr(cli, "_MAX_CLASS", 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has at least 2 members" in captured.err


@pytest.mark.parametrize(
    "word", ["12345678", ",".join(map(str, range(1, 13))), ",".join(map(str, range(255, 0, -1)))]
)
def test_custom_class_above_the_limit_rejected(capsys, tmp_path, word):
    """Under ab ~ ba (a < b) the class of a word of k distinct letters holds
    all k! orders: 40 320 for k = 8, far more for k >= 10."""
    path = tmp_path / "commutative.json"
    path.write_text(json.dumps([{"left": "ab", "right": "ba", "constraints": "a<b"}]))
    start = time.perf_counter()
    code = main(["class", "--relations", f"custom:{path}", word])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    size = re.fullmatch(
        rf"placto: error: the class has at least (\d+) members, "
        rf"more than the limit of {cli._MAX_CLASS}\n",
        captured.err,
    )
    assert size and int(size.group(1)) > cli._MAX_CLASS
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, count",
    [
        (["verify", "axioms", "--n", "2", "--degree", "40"], "2199023255550"),
        (["verify", "axioms", "--n", "3", "--degree", "12"], "797160"),
        (["verify", "axioms", "--n", "1", "--degree", "1000000000"], "1000000000"),
        (
            ["verify", "axioms", "--n", "255", "--degree", "1000000000"],
            "more than 18446744073709551616",
        ),
        (["verify", "section5", "--n", "255"], "4244832000"),
    ],
    ids=["axioms-n2-d40", "axioms-n3-d12", "axioms-n1-huge", "axioms-n255-huge", "section5-n255"],
)
def test_sweep_above_the_limit_rejected(capsys, argv, count):
    """Sweeps too big to hold are refused from their word count, fast."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    command = " ".join(argv[:4] if argv[1] == "section5" else argv)
    assert captured.err == (
        f"placto: error: {command} would enumerate {count} words, "
        f"more than the limit of {cli._MAX_SWEEP}\n"
    )
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, words",
    [
        (["verify", "axioms", "--n", "2", "--degree", "4"], 2 + 4 + 8 + 16),
        (["verify", "section5", "--n", "2"], 8 + 16),
    ],
    ids=["axioms", "section5"],
)
def test_sweep_at_the_limit_accepted(capsys, monkeypatch, argv, words):
    monkeypatch.setattr(cli, "_MAX_SWEEP", words)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MAX_SWEEP", words - 1)
    assert main(argv) == 2
    assert f"would enumerate {words} words" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, letters",
    [
        (["verify", "axioms", "--n", "1", "--degree", "299999"], "44999850000"),
        (["verify", "axioms", "--n", "1", "--degree", "3162"], "5000703"),
    ],
    ids=["n1-d299999", "n1-d3162"],
)
def test_sweep_over_the_letter_limit_rejected(capsys, argv, letters):
    """At n = 1 a sweep of d words holds d(d + 1)/2 letters, so it is refused
    from its letter count, fast, within the word limit."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"placto: error: {' '.join(argv)} would hold {letters} letters, "
        f"more than the limit of {cli._MAX_SWEEP_LETTERS}\n"
    )
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, refused",
    [
        (
            "verify axioms --degree 99999999999999999999",
            f"verify axioms --n 3 --degree 99999999999999999999 would enumerate more than {2**64}",
        ),
        (
            "verify axioms --n 1 --degree 99999999999999999999",
            "verify axioms --n 1 --degree 99999999999999999999 would enumerate 99999999999999999999",
        ),
    ],
    ids=["n3", "n1"],
)
def test_sweep_past_the_largest_range_length_rejected(capsys, argv, refused):
    """`len` of a range longer than the largest C ssize_t raises
    OverflowError; the sweep counts its degrees from the range's ends and
    refuses the run as a usage error."""
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"placto: error: {refused} words, more than the limit of {cli._MAX_SWEEP}\n"
    )


def test_sweep_at_the_letter_limit_accepted(capsys, monkeypatch):
    argv = ["verify", "axioms", "--n", "1", "--degree", "4"]
    monkeypatch.setattr(cli, "_MAX_SWEEP_LETTERS", 1 + 2 + 3 + 4)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MAX_SWEEP_LETTERS", 9)
    assert main(argv) == 2
    assert "would hold 10 letters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options",
    ["--n 16 --degree 3", "--n 12 --degree 4", "--relations knuth --n 255 --degree 2"],
    ids=["16-3", "12-4", "knuth-255-2"],
)
def test_axioms_need_no_morphism_limit(capsys, options):
    """Axiom 3 holds by a lemma on the relation format, so no family of
    injection tables is built, and these runs pass within the sweep limits
    alone.  Checked per injection, they needed 328 256, 297 925 and
    1 048 853 250 tables; `--n 16 --degree 3` sweeps only 4 368 words."""
    assert main(["verify", "axioms", *options.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out.splitlines()[-1])["pass"]


def test_sweeps_over_two_letters_within_the_word_limit_are_within_the_letter_limit():
    # for each n the longest degree within the word limit holds the most letters
    for n in range(2, 256):
        degree = 1
        while sum(n**k for k in range(1, degree + 2)) <= cli._MAX_SWEEP:
            degree += 1
        assert sum(k * n**k for k in range(1, degree + 1)) <= cli._MAX_SWEEP_LETTERS


@pytest.mark.parametrize(
    "argv, count",
    [
        # C(16, 10) subsets of the letters times 768 x 16 standard tableaux,
        # fewer than the 101 154 816 semistandard products over 7 letters
        (["lr", "--nu", "4,3,2,1", "--mu", "3,2,1", "--n", "255"], 8008 * 768 * 16),
        # n(n^2 - 1)/3 tableaux of shape (2, 1)
        (["schur", "--shape", "2,1", "--n", "255"], 5527040),
        # 1 470 x 896 semistandard products over 6 letters, fewer than the
        # C(14, 8) x 42 x 16 = 2 018 016 standard ones
        (["lr", "--nu", "3,3,2", "--mu", "3,2,1", "--n", "9"], 1470 * 896),
    ],
    ids=["lr-n255", "schur-n255", "lr-n9"],
)
def test_products_above_the_limit_rejected(capsys, argv, count):
    """`lr` and `schur` are refused from their word count, fast."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"placto: error: {' '.join(argv)} would enumerate {count} words, "
        f"more than the limit of {cli._MAX_SWEEP}\n"
    )
    assert elapsed < 1.0


def test_lr_at_the_stretch_scale_accepted(capsys):
    # 560 standard words, fewer than the 1 680 x 168 = 282 240 semistandard
    # ones over 8 letters; every shape of the product has at most 4 rows, so
    # 8 letters give the coefficients of 4
    coefficients = {}
    for n in (8, 4):
        code, out = run_cli(capsys, "lr", "--nu", "3,2", "--mu", "2,1", "--n", str(n))
        assert code == 0
        coefficients[n] = json.loads(out)["coefficients"]
    assert coefficients[8] == coefficients[4]
    assert coefficients[4]


@pytest.mark.parametrize(
    "argv, words",
    [
        # C(4, 3) x 2 x 1 standard words, fewer than the 8 x 3 semistandard ones
        (["lr", "--nu", "2,1", "--mu", "1", "--n", "3"], 8),
        (["schur", "--shape", "2,1", "--n", "3"], 8),
    ],
    ids=["lr", "schur"],
)
def test_products_at_the_limit_accepted(capsys, monkeypatch, argv, words):
    monkeypatch.setattr(cli, "_MAX_SWEEP", words)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MAX_SWEEP", words - 1)
    assert main(argv) == 2
    assert f"would enumerate {words} words" in capsys.readouterr().err


def test_shifted_schur_above_the_limit_rejected(capsys):
    """The shifted tableaux of the shape are counted in closed form
    (`tableaux.shifted_ssyt_count`), so a listing above the limit is refused
    at once, also for shapes of many rows whose fillings could die cell by
    cell.  The two shapes of ten rows over ten letters have 2^45 tableaux
    each."""
    shapes = [
        ("20", "255", 293799828493861828192040497225164801),
        ("5,4", "10", 4798090),
        ("11,10,9,8,7,6,5,4,3,2", "10", 2**45),
        ("20,19,18,17,16,15,14,13,12,11", "10", 2**45),
    ]
    for shape, n, count in shapes:
        start = time.perf_counter()
        code = main(["schur", "--shape", shape, "--n", n, "--shifted"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"placto: error: schur --shape {shape} --n {n} --shifted would enumerate "
            f"{count} words, more than the limit of {cli._MAX_SWEEP}\n"
        )
        assert elapsed < 1.0


def test_shifted_schur_of_many_cells_is_bounded_by_letters(capsys):
    """(116, 107, 23) has 281 232 shifted tableaux over 3 letters, fewer
    than `_MAX_SWEEP`, but their hook words would hold 281 232 x 246
    letters."""
    start = time.perf_counter()
    code = main(["schur", "--shape", "116,107,23", "--n", "3", "--shifted"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "placto: error: schur --shape 116,107,23 --n 3 --shifted would hold 69183072 "
        "letters, more than the limit of 5000000\n"
    )
    assert elapsed < 1.0


def test_schur_of_many_cells_is_bounded_by_letters(capsys):
    """(120, 60) has 226 981 semistandard tableaux over 3 letters, fewer
    than `_MAX_SWEEP`, but their reading words would hold 226 981 x 180
    letters; listing them takes about 17 s and 600 MB."""
    start = time.perf_counter()
    code = main(["schur", "--shape", "120,60", "--n", "3"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "placto: error: schur --shape 120,60 --n 3 would hold 40856580 "
        "letters, more than the limit of 5000000\n"
    )
    assert elapsed < 1.0


def test_shifted_schur_at_the_limit_accepted(capsys, monkeypatch):
    # 24 shifted tableaux of shape (3, 1) over {1, 2, 3}, one hook word each;
    # the limit counts the tableaux
    argv = ["schur", "--shape", "3,1", "--shifted", "--n", "3"]
    monkeypatch.setattr(cli, "_MAX_SWEEP", 24)
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 24
    monkeypatch.setattr(cli, "_MAX_SWEEP", 23)
    assert main(argv) == 2
    assert "would enumerate 24 words" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, letters",
    [
        # 8 tableaux of shape (2, 1) over {1, 2, 3}, 3 letters each
        (["schur", "--shape", "2,1", "--n", "3"], 8 * 3),
        # 24 shifted tableaux of shape (3, 1) over {1, 2, 3}, 4 letters each
        (["schur", "--shape", "3,1", "--shifted", "--n", "3"], 24 * 4),
        # 8 standard products of 4 letters
        (["lr", "--nu", "2,1", "--mu", "1", "--n", "3"], 8 * 4),
    ],
    ids=["schur", "shifted", "lr"],
)
def test_schur_at_the_letter_limit_accepted(capsys, monkeypatch, argv, letters):
    monkeypatch.setattr(cli, "_MAX_SWEEP_LETTERS", letters)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MAX_SWEEP_LETTERS", letters - 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"would hold {letters} letters" in captured.err


def test_lr_of_many_cells_is_bounded_by_letters(capsys):
    """7 381 x 3 pairs of tableaux, within the word limit, but their 22 143
    products would hold 22 143 words of 241 letters."""
    argv = ["lr", "--nu", "120,120", "--mu", "1", "--n", "3"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "placto: error: lr --nu 120,120 --mu 1 --n 3 would hold 5336463 "
        "letters, more than the limit of 5000000\n"
    )
    assert elapsed < 1.0


def test_lr_of_one_row_shapes_over_many_letters_accepted(capsys, monkeypatch):
    """(200) and (55) have one row each, so `lr` lists the 201 x 56
    semistandard products over 2 letters at any n, where over all 255 it
    would list C(454, 200) x C(309, 55)."""
    argv = ["lr", "--nu", "200", "--mu", "55", "--n", "255"]
    assert main(argv) == 0
    coefficients = json.loads(capsys.readouterr().out)["coefficients"]
    assert coefficients == {f"{255 - k},{k}" if k else "255": 1 for k in range(56)}
    monkeypatch.setattr(cli, "_MAX_SWEEP", 201 * 56 - 1)
    assert main(argv) == 2
    assert f"would enumerate {201 * 56} words" in capsys.readouterr().err


@pytest.mark.parametrize(
    "count_name, n",
    [
        # 8 standard products, fewer than the 8 x 3 semistandard ones over 3 letters
        ("standard_count", 4),
        # 2 x 2 semistandard products over 2 letters, fewer than the 8 standard ones
        ("ssyt_count", 2),
    ],
    ids=["standard", "semistandard"],
)
def test_lr_refuses_a_shape_whose_tableaux_are_not_counted_alike(
    capsys, monkeypatch, count_name, n
):
    """With the tableaux of (2, 2) counted one too many, by the count of the
    listing that `lr` takes, the product of (2, 1) and (1) misses a tableau
    of that shape: `lr_expand` names the shape, and `lr` exits 2 with
    nothing on stdout."""
    count = getattr(algebra, count_name)
    monkeypatch.setattr(
        algebra, count_name, lambda shape, *rest: count(shape, *rest) + (shape == (2, 2))
    )
    with pytest.raises(ValueError, match=re.escape("shape (2, 2) ")):
        algebra.lr_expand((2, 1), (1,), n)
    assert main(["lr", "--nu", "2,1", "--mu", "1", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("placto: error: shape (2, 2) ")


def test_shifted_schur_with_more_rows_than_letters_is_zero(capsys):
    """A shifted tableau's diagonal 1 < 2 < ... needs a letter for each row,
    so a shape of 11 rows over 10 letters has no hook word, found at once."""
    start = time.perf_counter()
    code = main(["schur", "--shape", "11,10,9,8,7,6,5,4,3,2,1", "--n", "10", "--shifted"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["terms"] == []
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "shape, n, digest",
    [
        ("5", "12", "110f41c684154a923ea5d4a77839879a55f19bb27a7a759c607f90e988f2bc64"),
        ("4,3,2,1", "5", "e2e4d8b1d10789bcbca58b24ca751154a7b7e3ac7530776be2882d0efe0c27a1"),
        ("5,4,3", "5", "e561e6cfdc8c2e66abbfb376ba7287cf31851dde4138826d7a95f47ff0b203a1"),
    ],
    ids=["5-n12", "4321-n5", "543-n5"],
)
def test_shifted_schur_output_is_pinned(capsys, shape, n, digest):
    """Three `schur --shifted` outputs, pinned by the sha256 of stdout."""
    assert main(["schur", "--shape", shape, "--shifted", "--n", n]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["lr", "--nu", "3,2", "--mu", ",1", "--n", "4"], "mu", ",1"),
        (["lr", "--nu", "3,x", "--mu", "1", "--n", "4"], "nu", "3,x"),
        (["schur", "--shape", "2,,1", "--n", "3"], "shape", "2,,1"),
    ],
    ids=["lr-mu-empty-part", "lr-nu-letter", "schur-empty-part"],
)
def test_malformed_shape_names_its_option(capsys, argv, option, value):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"placto: error: --{option} must be comma-separated integers such as 2,1, "
        f"got {value!r}\n"
    )


def test_next_tier_sweeps_are_within_the_limit():
    # verify axioms --n 3 --degree 11, --n 5 --degree 7 and --n 6 --degree 6
    for n, degree in [(3, 11), (5, 7), (6, 6)]:
        assert sum(n**k for k in range(1, degree + 1)) <= cli._MAX_SWEEP


# sha256 of the stdout of each command, as recorded for the benchmark; a
# refactor that changes report bytes, even consistently, fails here
PINNED_DIGESTS = {
    "verify tables": "d3a149f50339364a5d81d30dd0f2702dceaf8151474fb032346e5eb12660b5f7",
    "verify cases": "80278acb1f74d427c3edca33969e37da2703200ee83d7b90ba9c4a3466fdd507",
    "verify axioms": "14b037acf4fd4e8dea814a733863fdf81431e0e29da3de86d18e18bc59a8c195",
    "verify section5": "56cb1e8e94636adff45f50a9a2bcce9f6df5a8bf4e417e80a333d660ba099920",
    "verify axioms --n 3 --degree 4": "929f70dd6414bdc4aa0950d68ab8c8302dc0bc2fd53ff17ede7a33b1dd63147c",
    "verify axioms --n 2 --degree 6": "e6a03e3b5f0b8824c043846d959a9cf52e99e9a4c4bfc0726419a9d8759a535e",
    "verify section5 --n 7": "1a8d9a7cda8d1d69923819a4843db1a88afb3719631711fc216ced8f2929d7dc",
    "lr --nu 3,2 --mu 2,1 --n 4": "1241f3db8407814b23bb5c727ef3c70752a74e7c96eb682c5fb364ecc9bd6187",
    "verify axioms --n 3 --degree 9": "f3e4a2793c4d0d0ef94c8c861dd4a3643a7774251cdb6a1ce91ebabee20e5628",
    "verify axioms --n 5 --degree 6": "df93a219526b5b98a0c7afb954fc3a1d3546797e38306726d3c4583a9d49a9e4",
    "verify axioms --n 4 --degree 5 --relations shifted-knuth": "647066a5f6e59f174497297cf1302d8523fec756194d8b813de51e73da68e3a1",
    "lr --nu 3,2 --mu 2,1 --n 6": "36d694a35cc7a77e3df10ce84c8eba66d469ef0e75a8ab586097d810b5df76d3",
    "lr --nu 2,2 --mu 2,1,1 --n 5": "6f666cef5d5c78af30384cc91f70d23d317a15191b56847e3073d500f0b38cde",
    # the restriction-surprise witness prints comma-separated words
    "verify axioms --n 10 --degree 4": "12f8c2fb500b03f648fba1a82cc159509b95b9e8a25cc30c23db0907c9d461f7",
    # the largest n that section 5 accepts
    "verify section5 --n 23": "0dbacfe3fe104fac922dedfa79b3b3be8e7e26378efaf0830c4aee6d14d43302",
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_pinned_output_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_DIGESTS[command]


# custom sets that fail some Plac axiom, so that `verify axioms` looks up
# every member of the blocks whose prefix class split
_FAILING_SETS = {
    "chinese": [
        {"left": "cba", "right": "bca", "constraints": "a<=b<=c"},
        {"left": "cba", "right": "cab", "constraints": "a<=b<=c"},
    ],
    "knuth-1": [{"left": "acb", "right": "cab", "constraints": "a<=b<c"}],
    "shifted-knuth": [
        {"left": rel.left, "right": rel.right, "constraints": rel.constraints}
        for rel in SHIFTED_KNUTH.relations
    ],
}

# sha256 of the stdout of `verify axioms --n 4 --degree 5 --relations
# custom:<file>` for each set above, which exits 1
FAILING_DIGESTS = {
    "chinese": "a86eab0494dc3390d5bd22fcaa800d7545cecd63ee0ca2460a989ddee3fe017c",
    "knuth-1": "8f87dcb14779a50b4ae8a682957bede8b2180ab3bfa6202879d599da941c4e88",
    "shifted-knuth": "f9e30a48ea54d6f1de4f47c0d7966b92f4b4ed9beaf5685339302d8385499933",
}


@pytest.mark.parametrize("name", sorted(FAILING_DIGESTS))
def test_failing_custom_axioms_digest(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_FAILING_SETS[name]), encoding="utf-8")
    argv = "verify axioms --n 4 --degree 5 --relations".split() + [f"custom:{path}"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FAILING_DIGESTS[name]


# sha256 of the stdout of `verify axioms --n 3 --degree 11 --relations
# custom:<file>` for the Chinese set, which exits 1: the largest degree
# over three letters within the sweep limit, as listed when every class up
# to the bound was walked first
CHINESE_3_11_DIGEST = "74d598ebc699ebbebb695d71e8837426eedd3685a468954aca081d8fa229ef2f"


def test_failing_custom_axioms_digest_at_the_largest_degree(capsys, tmp_path):
    path = tmp_path / "chinese.json"
    path.write_text(json.dumps(_FAILING_SETS["chinese"]), encoding="utf-8")
    argv = "verify axioms --n 3 --degree 11 --relations".split() + [f"custom:{path}"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHINESE_3_11_DIGEST


# relations of lengths 3 and 4 in one custom set, written to a file per test
_CUSTOM_MIXED_LENGTHS = [
    {"left": "bca", "right": "bac", "constraints": "a<b<=c"},
    {"left": "abc", "right": "cab", "constraints": "a<b<c"},
    {"left": "dacb", "right": "adcb", "constraints": "a<=b<c<d"},
    {"left": "abdc", "right": "adbc", "constraints": "a<=b<=c<d"},
]

# sha256 of the stdout of single-class queries; "{custom}" stands for the
# path of a file holding _CUSTOM_MIXED_LENGTHS.  Words over n >= 10 are
# printed comma-separated, which the --n 12 and --n 10 entries pin.
QUERY_DIGESTS = {
    "class --relations knuth 3142": "36e4d0d93ca3a3362d02adced0aadb170c3bc8c5c301534018f7dd2a12a1708e",
    "class --relations knuth 5316427": "fc285df0e85d71a81ff086948d11bff692f840d391907febf274476c7df602f4",
    "class --relations shifted-knuth 2143": "27ce1e0a8b42161096728f406dbf0a05376ba1a37ab82ddf860da7aeabbd4397",
    "class --relations shifted-knuth 3142536": "353a8d98e697be5c6f662bf27117bf4481f87290f7b54ccb498c2f52c4a4af05",
    "class --relations knuth --n 12 213": "62c1287b9a72da7d13778a5dbbf0e76f25c8f2c4b0149ebdcdd885b280677f00",
    "class --relations knuth 12,3,10,1,7,5": "db350423f2280caaf6c48c1f799beab08719e6cd7bf623b064783071c0f23460",
    "class --relations shifted-knuth 11,2,10,5,1,12": "bbc95685948898fce714ac556202c148bf812ad427761738ed2ae19703590457",
    "class --relations shifted-knuth 7762845173753216": "8c25d39eded06843b6cd18cc53a72fbdfc2fecfa43dd24d55b8826d077a626c5",
    "class --relations knuth 10,1,7,4,5,9,2,8,3,6": "be0db6e208d65f9f05d50301edc0f351abf2d6b16cfa3f202f5c649969e72b49",
    "class --relations shifted-knuth 10,1,7,4,5,9,2,8,3,6": "f9a33aaca789bdbd53d92d471f15c2e4227187200971a1e4f93cd3898c9ea632",
    "class --relations custom:{custom} 31423": "e6448aafb60f531b4bada77e8286315e07027173c1f42798e86e6e6801a61693",
    "class --relations custom:{custom} --n 10 3,1,4,2,10": "f81c6a60473b944ef471fe8006c9d29912eab0d111eb51e0a5ec6400d3e9491b",
    "insert --mode plactic 3142": "3feb883d8f51c7c904e59e7e0f0d51b7415bcb3abb28101f496fabaee99fda80",
    "insert --mode plactic 12,3,10,1,7,5": "523ed3d16dbcc09c21aaee5dc051db5249b2085114d4d81a11df7b71b1a2a16e",
    "insert --mode mixed 1243": "70b316f28f876767ff2996c8e22e5d594b1759f991dfcfdfbdf7933274c7ee42",
    "insert --mode mixed 7762845173753216": "2a2c72560687246b659b8be9a987e28f6997bcf173c6aad0d34bdbcb05af3c8a",
    "insert --mode mixed 11,2,10,5,1,12": "0c4534ba509a007161db143587964263d40932fa4f77a3604922a1113974b016",
}


@pytest.mark.parametrize("command", sorted(QUERY_DIGESTS))
def test_query_output_digest(capsys, tmp_path, command):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_CUSTOM_MIXED_LENGTHS), encoding="utf-8")
    code, out = run_cli(capsys, *command.format(custom=path).split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == QUERY_DIGESTS[command]


@pytest.mark.parametrize("hits", [0])
def test_mixed_insert_without_a_single_hook_word(capsys, monkeypatch, hits):
    # every shifted class holds exactly one hook word (criterion 12), and
    # the word read off the tableau is it, so the null branch of the guard
    # shows only with a forced check that fails
    monkeypatch.setattr(cli, "hook_factorization_check", lambda m, nu: hits > 0)
    code, out = run_cli(capsys, "insert", "--mode", "mixed", "2143")
    assert code == 0
    assert json.loads(out)["canonical_word"] is None
    digest = "cf9ce4c9d7b6c912fdd4e4c58e22327e5dd30782cdbdae88354130c1e30fee5b"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _class_dump_by_words(word, rels):
    """`class_dump` through `Word` members: sort them, then format each."""
    members = sorted(equiv_class(word, rels), key=lambda w: w.letters)
    return {
        "word": str(word),
        "relation_set": rels.name,
        "class": [str(w) for w in members],
        "size": len(members),
    }


def test_class_dump_equals_the_word_route():
    custom = RelationSet.from_json(json.dumps(_CUSTOM_MIXED_LENGTHS))
    words = [
        Word(letters, n)
        for n in range(1, 4)
        for degree in range(7)
        for letters in itertools.product(range(1, n + 1), repeat=degree)
    ]
    rng = random.Random(12)
    words += [
        Word(tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 7))), 12)
        for _ in range(40)
    ]
    for w in words:
        for rels in (KNUTH, SHIFTED_KNUTH, custom):
            assert class_dump(w, rels) == _class_dump_by_words(w, rels), (w, rels.name)


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "tables"], 0), (["schur", "--shape", "2,2", "--shifted", "--n", "3"], 2)],
    ids=["pass", "usage-error"],
)
def test_python_m_placto_runs_the_cli(argv, code):
    """`python -m placto` runs the command line with its exit codes."""
    result = _python_m_placto(argv)
    assert result.returncode == code
    assert bool(result.stdout) == (code == 0)
    assert result.stderr.startswith("placto: error:") == (code == 2)
