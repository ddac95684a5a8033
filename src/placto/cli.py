"""placto: the plactic and shifted plactic monoid verifier.

usage: placto COMMAND [ARGUMENT] [OPTIONS]

  placto verify tables|cases|axioms|section5 [--n N] [--degree D]
                [--relations R] [--json FILE]
      Run a verification family, printing one JSON object per check (JSON
      lines) and a summary object, and also writing them to FILE with
      --json.  `tables` takes none of --n, --degree and --relations,
      `cases` only --relations (default: knuth and shifted-knuth),
      `section5` only --n (default 4).  `axioms` defaults to --n 3
      --degree 5; it checks the Plac axioms for knuth and for a custom
      R, the SPlac axioms for shifted-knuth, and both without --relations.
  placto insert --mode plactic|mixed [--n N] WORD
      Insertion tableau of WORD and the canonical word of its class.
  placto class [--relations R] [--n N] WORD
      Listing of the class of WORD (R defaults to knuth).
  placto schur --shape 2,1 [--shifted] --n N
      Schur-type word sum over {1..N} as JSON.
  placto lr --nu 2,1 --mu 1 --n N
      Coefficients of the product of two Schur sums over {1..N}.

R is knuth, shifted-knuth or custom:<file.json>, a file holding a JSON
list of {"left": "ab", "right": "ba", "constraints": "a<b"} objects.  A
WORD is a digit string over at most 9 letters, or comma-separated integers
(10,2,11); N defaults to its largest letter.  A shape is comma-separated
parts; empty or 0 is the empty shape.

Options and the argument may come in any order, `--opt=value` is the same
as `--opt value`, and a repeated option keeps its last value.  Option
names are given in full.  -h or --help prints this text.

Exit codes: 0 pass, 1 verification failure, 2 usage error, printed as
"placto: error: ..." on stderr.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from . import verify as verify_mod
from .algebra import free_schur, lr_expand, lr_route, shifted_free_schur
from .rewrite import RelationSet, class_dump, relation_set_by_name
from .tableaux import (
    ShiftedTableau,
    hook_factorization_check,
    hook_word,
    mixed_insert_word,
    p_tableau,
    reading_word,
    shifted_ssyt_count,
    ssyt_count,
)
from .words import Word


def _parse_shape(text: str, option: str) -> tuple[int, ...]:
    """The parts of a shape written as comma-separated integers, e.g. 2,1;
    empty or 0 is the empty shape."""
    stripped = text.strip()
    if not stripped or stripped == "0":
        return ()
    try:
        return tuple(int(part) for part in stripped.split(","))
    except ValueError:
        raise ValueError(
            f"--{option} must be comma-separated integers such as 2,1, got {text!r}"
        ) from None


def _parse_relations(selector: str) -> RelationSet:
    if selector.startswith("custom:"):
        path = selector.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as handle:
            return RelationSet.from_json(handle.read())
    return relation_set_by_name(selector)


def _emit(reports: list[dict], json_path: str | None) -> int:
    passed = sum(1 for r in reports if r.get("pass", False))
    summary = {
        "check": "summary",
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "pass": passed == len(reports),
    }
    lines = [json.dumps(r, sort_keys=True) for r in reports + [summary]]
    text = "\n".join(lines) + "\n"
    # the file first, so that a failed write leaves stdout empty like any usage error
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0 if summary["pass"] else 1


# words are byte strings, one letter per byte
_MAX_LETTER = 255


def _size_option(
    value: int | None, default: int | None, option: str, most: int | None = None
) -> int:
    """The value of a size option, or its default when the option is absent."""
    if value is None:
        return default
    if value < 1:
        raise ValueError(f"--{option} must be at least 1, got {value}")
    if most is not None and value > most:
        raise ValueError(f"--{option} must be at most {most}, got {value}")
    return value


def _parse_word(text: str, n: int | None) -> Word:
    """The word argument over {1..n}, n defaulting to its largest letter;
    a byte word, so at most 255 letters, each at most 255."""
    w = Word.parse(text, _size_option(n, None, "n", _MAX_LETTER))
    if len(w) > _MAX_LETTER:
        raise ValueError(f"word must have at most {_MAX_LETTER} letters, got {len(w)}")
    if w.n > _MAX_LETTER:
        raise ValueError(f"word letters must be at most {_MAX_LETTER}, got {w.n}")
    return w


def _check_cells(cells: int, options: str) -> None:
    """Shapes become words of one letter per cell, so at most 255 cells."""
    if cells > _MAX_LETTER:
        raise ValueError(f"{options} must have at most {_MAX_LETTER} cells, got {cells}")


# Largest class that `class` lists.  The shipped relation sets know a
# class's size from the shape of its insertion tableau before listing it by
# reverse insertion; a custom set's closure stops once a layer of its search
# leaves more members.  Near this size (a shifted Knuth class of 9 856 words
# of length 16; Python 3.11, one core of a 2-core x86-64 machine) `class`
# takes 12-18 ms inside `main`, and 0.09-0.10 s and 19 MB peak RSS for the
# whole process.  `insert --mode mixed` lists no class, so no size bounds it.
_MAX_CLASS = 10_000


# Most words that one `verify axioms` or `verify section5` run enumerates
# (the words of degree 1 to d for axioms, of degree 3 and 4 for section5),
# and that one `schur` or `lr` run lists (one word per tableau of the shape,
# counted in closed form by `tableaux.ssyt_count` or `shifted_ssyt_count`,
# or the product words of the smaller of two listings, counted by
# `algebra.lr_route`: `lr --nu 3,2,1 --mu 3,2,1 --n 6`, 236 544 standard
# words, takes 2.7 s and 60 MB, and `lr --nu 3,2 --mu 2,1 --n 8` lists 560
# standard words in place of 282 240 semistandard ones, in 0.1 s).  Peak
# RSS of the whole process is about 16 MB at start.  A passing axioms or
# section5 run reads none of these words: each decides its checks on one
# word or content per order type, over at most 4 letters, so it costs the
# same at every n (`verify axioms --n 66 --degree 3` and `--n 23 --degree
# 4`, the largest degree-3 and degree-4 sweeps accepted, and `verify
# section5 --n 23`: 0.1-0.2 s and 16 MB each).  The bound guards a failing
# run, which lists its failures over all n letters: a section5 run with a
# failed matching matches the products over {1..n}, and an axioms run with a
# failing axiom scans the classes degree by degree, only until it has
# listed its violations.  The Chinese set `cba~bca, cba~cab` fails `--n 3
# --degree 11`, `--n 5 --degree 7` and `--n 6 --degree 6` from the classes
# of degree at most 5, in about 0.1 s each at 16 MB, and `--n 66 --degree
# 3` (291 918 words) after reading 8 977 of them, in 1.8-2.6 s and 83 MB,
# most of both in its commutator over n.  A scan that reads every word
# holds about 66 bytes per word: all 291 918 take 2.2 s and 37 MB.  Whether
# an axiom fails is known only after the check, so the bound holds for
# every run: `--n 3 --degree 12` (797 160 words) is refused.  It is the only
# bound of an axioms run, which builds no table per ordered morphism.
# These are runs of the whole process, Python 3.11, one core of a 2-core
# x86-64 machine.
_MAX_SWEEP = 300_000

# Most letters that the words of one sweep, one `schur` listing or one `lr`
# expansion hold.
# Within `_MAX_SWEEP` a sweep reaches it only at n = 1, where d words hold
# d(d + 1)/2 letters; `verify axioms --n 1 --degree 3000` (4 501 500
# letters) passes in 0.11 s and 16 MB, since it walks none of them.
# Over n >= 2 the largest, `--n 2 --degree 17`, holds 4 194 306 letters.
# A `schur` listing holds its count times |shape| letters, so a shape of
# many cells over few letters reaches it: `--shape 120,60 --n 3` (226 981
# tableaux, 40 856 580 letters) is refused at once, where listing it took
# 17 s and 611 MB.  Near the limit, `--shape 214 --n 3` takes 2.1 s and
# 65 MB, and `--shifted --shape 43,20 --n 3` (79 120 words, 4 984 560
# letters) 37 s and 74 MB, most of it in the check of each hook word.
_MAX_SWEEP_LETTERS = 5_000_000


def _check_sweep(command: str, n: int, degrees: range) -> None:
    """Refuse, before enumerating any, a sweep over the words of `degrees`
    over {1..n} (`_check_size`).  The count is `stop - start`, since
    `len` refuses a range longer than the largest C ssize_t."""
    count = degrees.stop - degrees.start
    if n == 1:  # one word of each degree; `sum` would step through a long range
        _check_size(command, count, (degrees[0] + degrees[-1]) * count // 2)
    elif count > 64:  # not worth counting exactly
        _check_size(command, f"more than {2**64}", 0)
    else:
        _check_size(command, sum(n**k for k in degrees), sum(k * n**k for k in degrees))


def _check_size(command: str, words: int | str, letters: int) -> None:
    """Refuse a run that would list more than `_MAX_SWEEP` words, or words
    that hold more than `_MAX_SWEEP_LETTERS` letters.  `words` is their
    count, or a text that puts it above the limit."""
    if isinstance(words, str) or words > _MAX_SWEEP:
        raise ValueError(
            f"{command} would enumerate {words} words, more than the limit of {_MAX_SWEEP}"
        )
    if letters > _MAX_SWEEP_LETTERS:
        raise ValueError(
            f"{command} would hold {letters} letters, more than the limit of {_MAX_SWEEP_LETTERS}"
        )


# The options each `verify` family reads.  Any other option given is refused,
# since the family would print the same output without it.
_VERIFY_OPTIONS = {
    "tables": (),
    "cases": ("relations",),
    "axioms": ("n", "degree", "relations"),
    "section5": ("n",),
}


def _cmd_verify(args: SimpleNamespace) -> int:
    what = args.what
    for option in ("n", "degree", "relations"):
        if getattr(args, option) is not None and option not in _VERIFY_OPTIONS[what]:
            raise ValueError(f"verify {what} does not take --{option}")
    if what == "tables":
        reports = verify_mod.verify_tables()
    elif what == "cases":
        if args.relations:
            names = [args.relations]
        else:
            names = ["knuth", "shifted-knuth"]
        reports = []
        for name in names:
            reports.extend(verify_mod.verify_case_analysis(name))
    elif what == "axioms":
        n = _size_option(args.n, 3, "n", _MAX_LETTER)
        degree = _size_option(args.degree, 5, "degree")
        _check_sweep(f"verify axioms --n {n} --degree {degree}", n, range(1, degree + 1))
        rel_spec = args.relations
        reports = []
        if rel_spec in (None, "knuth"):
            reports.extend(verify_mod.verify_axioms("plactic", n, degree))
        if rel_spec in (None, "shifted-knuth"):
            reports.extend(verify_mod.verify_axioms("shifted-plactic", n, degree))
            reports.append(verify_mod.restriction_surprise(n, min(degree, 4)))
        if rel_spec not in (None, "knuth", "shifted-knuth"):
            rels = _parse_relations(rel_spec)
            reports.extend(verify_mod.verify_axioms("plactic", n, degree, relations=rels))
    elif what == "section5":
        n = _size_option(args.n, 4, "n", _MAX_LETTER)
        _check_sweep(f"verify section5 --n {n}", n, range(3, 5))
        reports = verify_mod.verify_section5(n)
    else:  # pragma: no cover - `_COMMANDS` admits only the families above
        raise ValueError(what)
    return _emit(reports, args.json)


def _canonical_hook_word(tab: ShiftedTableau, n: int) -> Word | None:
    """The hook-factorization word over {1..n} in the shifted class whose
    mixed insertion tableau is `tab`, or None if the word read off the
    tableau fails the check.

    The shape of `tab` is the shape of every hook factorization in its
    class (Serrano 2010).  The word is read off the tableau by reverse
    mixed insertion (`tableaux.hook_word`), without closing the class; one
    `hook_factorization_check` of it at that shape guards that reading."""
    hook = hook_word(tab.rows)
    return Word.from_bytes(hook, n) if hook_factorization_check(hook, tab.shape) else None


def _cmd_insert(args: SimpleNamespace) -> int:
    w = _parse_word(args.word, args.n)
    if args.mode == "plactic":
        tab = p_tableau(w)
        canonical = reading_word(tab, w.n)
        payload = {
            "mode": "plactic",
            "word": str(w),
            "tableau": tab.to_json(),
            "canonical_word": str(canonical),
        }
    else:
        tab = mixed_insert_word(w)
        hook = _canonical_hook_word(tab, w.n)
        payload = {
            "mode": "mixed",
            "word": str(w),
            "tableau": tab.to_json(),
            "canonical_word": str(hook) if hook is not None else None,
        }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_class(args: SimpleNamespace) -> int:
    rels = _parse_relations(args.relations)
    w = _parse_word(args.word, args.n)
    print(json.dumps(class_dump(w, rels, _MAX_CLASS), sort_keys=True))
    return 0


def _shape_text(shape: tuple[int, ...]) -> str:
    return ",".join(map(str, shape))


def _cmd_schur(args: SimpleNamespace) -> int:
    shape = _parse_shape(args.shape, "shape")
    n = _size_option(args.n, None, "n", _MAX_LETTER)
    cells = sum(shape)
    _check_cells(cells, "--shape")
    command = f"schur --shape {_shape_text(shape)} --n {n}{' --shifted' if args.shifted else ''}"
    # one word of |shape| letters per tableau
    count = (shifted_ssyt_count if args.shifted else ssyt_count)(shape, n)
    _check_size(command, count, count * cells)
    poly = (shifted_free_schur if args.shifted else free_schur)(shape, n, cells)
    print(json.dumps(poly.to_json(), sort_keys=True))
    return 0


def _cmd_lr(args: SimpleNamespace) -> int:
    nu = _parse_shape(args.nu, "nu")
    mu = _parse_shape(args.mu, "mu")
    n = _size_option(args.n, None, "n", _MAX_LETTER)
    cells = sum(nu) + sum(mu)
    _check_cells(cells, "--nu plus --mu")
    command = f"lr --nu {_shape_text(nu)} --mu {_shape_text(mu)} --n {n}"
    # the expansion inserts one product word of |nu| + |mu| letters per pair
    # of tableaux, of the listing that `lr_route` picks: the standard words
    # or the semistandard ones over min(n, l(nu) + l(mu)) letters, whichever
    # are fewer; it lists no other word
    words, _ = lr_route(nu, mu, n)
    _check_size(command, words, words * cells)
    coeffs = lr_expand(nu, mu, n)
    payload = {
        "nu": list(nu),
        "mu": list(mu),
        "n": n,
        "coefficients": {
            _shape_text(shape): coeff for shape, coeff in sorted(coeffs.items())
        },
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


class _Option(NamedTuple):
    """One option of a command: the converter of its value (None for a
    flag, which takes no value and is True when given), the values it
    accepts (None for any), its value when absent and whether it must be
    given."""

    convert: Callable[[str], object] | None = str
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False


_TEXT = _Option()
_TEXT_REQUIRED = _Option(required=True)
_INT = _Option(int)
_INT_REQUIRED = _Option(int, required=True)

# The argument grammar: each command's handler, its positional arguments
# (name and accepted values, None for any) and its options by name.
_COMMANDS = {
    "verify": (
        _cmd_verify,
        (("what", tuple(_VERIFY_OPTIONS)),),
        {"n": _INT, "degree": _INT, "relations": _TEXT, "json": _TEXT},
    ),
    "insert": (
        _cmd_insert,
        (("word", None),),
        {"mode": _Option(choices=("plactic", "mixed"), required=True), "n": _INT},
    ),
    "class": (_cmd_class, (("word", None),), {"relations": _Option(default="knuth"), "n": _INT}),
    "schur": (
        _cmd_schur,
        (),
        {"shape": _TEXT_REQUIRED, "shifted": _Option(None, default=False), "n": _INT_REQUIRED},
    ),
    "lr": (_cmd_lr, (), {"nu": _TEXT_REQUIRED, "mu": _TEXT_REQUIRED, "n": _INT_REQUIRED}),
}


def _usage_error(message: str) -> NoReturn:
    print(f"placto: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_choice(label: str, choices: tuple[str, ...] | None, value: str) -> None:
    if choices is not None and value not in choices:
        _usage_error(f"{label} takes one of {', '.join(choices)}, got {value!r}")


def _parse_args(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler of the command that `argv` names, and its arguments read
    through `_COMMANDS`.  Options and positionals come in any order, an
    option's value follows it or is joined to it by `=`, and a repeated
    option keeps its last value.  `-h` or `--help` anywhere prints the
    module docstring and exits 0; a usage error exits 2."""
    if "-h" in argv or "--help" in argv:
        # `python -OO` strips the docstring: name the commands at least
        sys.stdout.write(__doc__ or f"usage: placto {'|'.join(_COMMANDS)} ...\n")
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        _usage_error(f"{given}; choose from {', '.join(_COMMANDS)}")
    command = argv[0]
    handler, positionals, options = _COMMANDS[command]
    values = {name: option.default for name, option in options.items()}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("--"):
            if len(words) == len(positionals):
                _usage_error(f"{command} takes no further argument, got {token!r}")
            _check_choice(command, positionals[len(words)][1], token)
            words.append(token)
            continue
        name, joined, value = token[2:].partition("=")
        option = options.get(name)
        if option is None:
            _usage_error(f"{command} has no option --{name}")
        if option.convert is None:
            if joined:
                _usage_error(f"--{name} takes no value, got {token!r}")
            values[name] = True
            continue
        if not joined:
            value = next(tokens, None)
            if value is None:
                _usage_error(f"--{name} needs a value")
        try:
            values[name] = option.convert(value)
        except ValueError:
            _usage_error(f"--{name} takes {option.convert.__name__} values, got {value!r}")
        _check_choice(f"--{name}", option.choices, value)
    if len(words) < len(positionals):
        name, choices = positionals[len(words)]
        needed = f"one of {', '.join(choices)}" if choices else f"a {name}"
        _usage_error(f"{command} needs {needed}")
    for name, option in options.items():
        if option.required and values[name] is None:
            _usage_error(f"{command} needs --{name}")
    values.update(zip((name for name, _ in positionals), words))
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"placto: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
