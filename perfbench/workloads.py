"""Workload definitions, the seeded query stream, and the output checks.

A job is a list of processes; each process is a list of `placto` argument
lists run in one fresh interpreter.  Only the `queries` workload takes the
seed.  The checks here run in the parent process, outside every timed
region, and use arithmetic of their own (Schensted row insertion, mixed
insertion and the hook length formulas), so that they do not depend on the
code they check.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

AXIOMS_WIDE = ["verify", "axioms", "--n", "5", "--degree", "6"]
AXIOMS_DEEP = ["verify", "axioms", "--n", "3", "--degree", "9"]
PRODUCTS = [
    ["verify", "tables"],
    ["verify", "cases"],
    ["verify", "axioms"],
    ["verify", "section5"],
    ["verify", "section5", "--n", "7"],
    ["lr", "--nu", "3,2", "--mu", "2,1", "--n", "4"],
]

# Reduced jobs of the same shape, for the self-test.
TINY = {
    "axioms-wide": [["verify", "axioms", "--n", "3", "--degree", "4"]],
    "axioms-deep": [["verify", "axioms", "--n", "2", "--degree", "6"]],
    "products": [
        ["verify", "tables"],
        ["verify", "cases"],
        ["verify", "axioms"],
        ["verify", "section5"],
        ["lr", "--nu", "2,1", "--mu", "1", "--n", "3"],
    ],
}

# Jobs per run: a run of S seconds makes S // JOB_SECONDS jobs (at least
# one), whatever the speed of the code measured, so that the parent and a
# change take their figures from the same number of jobs.  At 24 seconds
# that is 2, 3, 4 and 4 jobs; axioms-deep gets a third job of about 12 s,
# because its slowest job (query_ms.p99) spread too much over two.
JOB_SECONDS = {"axioms-wide": 11.0, "axioms-deep": 8.0, "products": 5.0, "queries": 6.0}

QUERY_WORDS = 300  # words per job, four queries each
QUERY_WORDS_TINY = 12
REUSE_SHARE = 0.25  # share of words drawn from an earlier word's Knuth class
TEMPLATE_SEED = 0  # draws the plan every seed's query stream follows
QUERY_KINDS = (
    ["insert", "--mode", "mixed"],
    ["insert", "--mode", "plactic"],
    ["class", "--relations", "knuth"],
    ["class", "--relations", "shifted-knuth"],
)

WORKLOADS = ("axioms-wide", "axioms-deep", "products", "queries")


def job(workload: str, seed: int, tiny: bool = False) -> list[list[list[str]]]:
    """The processes of one job, each a list of argument lists."""
    if workload == "queries":
        words = query_words(seed, QUERY_WORDS_TINY if tiny else QUERY_WORDS)
        return [[kind + ["--n", str(n), word] for n, word in words for kind in QUERY_KINDS]]
    if tiny:
        return [[argv] for argv in TINY[workload]]
    if workload == "axioms-wide":
        return [[AXIOMS_WIDE]]
    if workload == "axioms-deep":
        return [[AXIOMS_DEEP]]
    if workload == "products":
        return [[argv] for argv in PRODUCTS]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the query stream


def _knuth_class(letters: list[int]) -> list[tuple[int, ...]]:
    """The Knuth class of a word, sorted, by the elementary Knuth moves.

    K.1 (acb ~ cab, a <= b < c) swaps the first two letters of a window xyz
    when min(x, y) <= z < max(x, y); K.2 (bca ~ bac, a < b <= c) swaps the
    last two when min(y, z) < x <= max(y, z).
    """
    start = tuple(letters)
    seen = {start}
    stack = [start]
    while stack:
        word = stack.pop()
        for i in range(len(word) - 2):
            x, y, z = word[i : i + 3]
            if min(x, y) <= z < max(x, y):
                other = word[:i] + (y, x) + word[i + 2 :]
            elif min(y, z) < x <= max(y, z):
                other = word[: i + 1] + (z, y) + word[i + 3 :]
            else:
                continue
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return sorted(seen)


def shapes(letters) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shapes of the P-tableau and of the mixed-insertion tableau."""
    return (
        tuple(len(row) for row in schensted(letters)),
        tuple(len(row) for row in mixed_insertion(letters)),
    )


def _plan(count: int) -> list:
    """The seed-independent plan of a query stream, drawn from TEMPLATE_SEED.

    Entry i is (n, degree, shapes) for a fresh word, or the index of the
    earlier word whose Knuth class word i reuses.  Fresh words take
    (n, degree) in turn from every combination.
    """
    rng = random.Random(TEMPLATE_SEED)
    sizes = [(n, degree) for n in (3, 4, 5) for degree in range(6, 11)]
    plan: list = []
    for i in range(count):
        if plan and rng.random() < REUSE_SHARE:
            plan.append(rng.randrange(i))
        else:
            n, degree = sizes[i % len(sizes)]
            plan.append((n, degree, shapes([rng.randint(1, n) for _ in range(degree)])))
    return plan


def query_words(seed: int, count: int) -> list[tuple[int, str]]:
    """Seeded (n, word) pairs over n in {3, 4, 5} and degree 6 to 10.

    Every seed follows the same plan (see _plan): a fresh word is a random
    word with the plan's P-tableau and mixed-insertion shapes, found by
    drawing random words until one fits; a REUSE_SHARE of the words is a
    random member of an earlier word's Knuth class with that word's shapes.
    The shapes fix the sizes of both classes a word's queries close, so
    every seed asks for about the same work, while the words themselves
    differ.  Nothing in the query path caches classes today; the reused
    classes are there for a cache that would.
    """
    rng = random.Random(seed)
    words: list[tuple[int, list[int]]] = []
    for entry in _plan(count):
        if isinstance(entry, int):
            n, base = words[entry]
            target = shapes(base)
            members = [m for m in _knuth_class(base) if shapes(m) == target]
            letters = list(rng.choice(members))
        else:
            n, degree, target = entry
            while True:
                letters = [rng.randint(1, n) for _ in range(degree)]
                if tuple(len(row) for row in schensted(letters)) == target[0] and (
                    shapes(letters) == target
                ):
                    break
        words.append((n, letters))
    return [(n, "".join(map(str, letters))) for n, letters in words]


# ---------------------------------------------------------------------------
# checks


def schensted(letters) -> list[list[int]]:
    """Row-insertion tableau (Schensted), independent of placto."""
    rows: list[list[int]] = []
    for x in letters:
        for row in rows:
            j = next((k for k, y in enumerate(row) if y > x), None)
            if j is None:
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return rows


def count_syt(shape) -> int:
    """Standard Young tableaux of a shape (hook length formula)."""
    hooks = 1
    for i, length in enumerate(shape):
        for j in range(length):
            below = sum(1 for r in shape[i + 1 :] if r > j)
            hooks *= length - j + below
    return math.factorial(sum(shape)) // hooks


def count_shifted_syt(shape) -> int:
    """Standard shifted tableaux of a strict shape (shifted hook formula)."""
    value = Fraction(math.factorial(sum(shape)))
    for part in shape:
        value /= math.factorial(part)
    for i, a in enumerate(shape):
        for b in shape[i + 1 :]:
            value *= Fraction(a - b, a + b)
    return int(value)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_fixed(argv: list[str], code, stdout: str) -> bool:
    """Exit code 0, a passing summary for verify, and the recorded digest."""
    if code != 0 or digest(stdout) != EXPECTED.get(" ".join(argv)):
        return False
    if argv[0] == "verify":
        summary = json.loads(stdout.splitlines()[-1])
        return summary.get("check") == "summary" and summary.get("pass") is True
    return True


def mixed_insertion(letters) -> list[list[int]]:
    """Haiman's mixed insertion tableau, independent of placto.

    Entries use the doubled alphabet 1' < 1 < 2' < 2 < ..., encoded as
    2a - 1 for a' and 2a for a; rows are shifted, so cell (r, k) of a row
    list sits in column r + k.  An entry bumped from a row goes to the next
    row if it is unprimed and off the diagonal; otherwise, primed on the
    way if it sat on the diagonal, it goes to the next column.  An entry
    bumped from a column goes on by the same rule.
    """
    rows: list[list[int]] = []
    for letter in letters:
        value, into_row, index = 2 * letter, True, 0
        while True:
            if into_row:
                r = index
                if r == len(rows):
                    rows.append([value])
                    break
                k = next((k for k, y in enumerate(rows[r]) if y > value), None)
                if k is None:
                    rows[r].append(value)
                    break
                col = r + k
            else:
                col = index
                cells = [(r, col - r) for r in range(len(rows)) if 0 <= col - r < len(rows[r])]
                hit = next(((r, k) for r, k in cells if rows[r][k] > value), None)
                if hit is None:
                    r = len(cells)  # the column grows at its foot
                    if r == len(rows):
                        rows.append([])
                    rows[r].append(value)
                    break
                r, k = hit
            rows[r][k], value = value, rows[r][k]
            if value % 2 == 0 and col != r:
                into_row, index = True, r + 1
            else:
                value -= value % 2 == 0  # a diagonal entry is primed when bumped
                into_row, index = False, col + 1
    return rows


def parse_shifted(rows) -> list[list[int]]:
    """Rows of entry strings like ["1", "3'"] in the encoding above."""
    return [[2 * int(e.rstrip("'")) - e.endswith("'") for e in row] for row in rows]


def is_shifted_tableau(rows: list[list[int]]) -> bool:
    """A shifted semistandard tableau: strictly decreasing row lengths, rows
    and columns weakly increasing, a primed entry at most once per row, an
    unprimed one at most once per column, and no primed entry on the diagonal."""
    for r, row in enumerate(rows):
        if not row or row[0] % 2 or (r and len(row) >= len(rows[r - 1])):
            return False
        for k, x in enumerate(row):
            if k and (row[k - 1] > x or (row[k - 1] == x and x % 2)):
                return False
            if r:
                above = rows[r - 1][k + 1]
                if above > x or (above == x and x % 2 == 0):
                    return False
    return True


def check_word(n: int, word: str, calls: list) -> list[bool]:
    """Verdicts for the four queries of one word, in QUERY_KINDS order.

    Knuth class: contains the word, its size matches the listing and the
    number of standard tableaux of the P-tableau's shape, and every member
    has the word's P-tableau (fiber = closure).  Shifted class: the same with
    the mixed-insertion tableau and standard shifted tableaux, and every
    member is Knuth-equivalent to the word.  The mixed tableau is a valid
    shifted tableau with the word's content, equal to the benchmark's own
    mixed insertion.  Both canonical words lie in their classes.
    """
    if any(code != 0 for code, _ in calls):
        return [False] * 4
    try:
        mixed, plactic, knuth, shifted = (json.loads(out) for _, out in calls)
    except ValueError:
        return [False] * 4
    letters = [int(ch) for ch in word]
    p_rows = schensted(letters)
    q_rows = mixed_insertion(letters)

    def listing_ok(payload) -> bool:
        members = payload["class"]
        return (
            word in members
            and payload["size"] == len(members) == len(set(members))
            and payload["word"] == word
        )

    plactic_ok = (
        [[int(x) for x in row] for row in plactic["tableau"]["rows"]] == p_rows
        and plactic["canonical_word"] == "".join(str(x) for row in reversed(p_rows) for x in row)
        and plactic["canonical_word"] in knuth["class"]
    )
    knuth_ok = (
        listing_ok(knuth)
        and knuth["size"] == count_syt([len(r) for r in p_rows])
        and all(schensted(int(ch) for ch in m) == p_rows for m in knuth["class"])
    )
    tableau = parse_shifted(mixed["tableau"]["rows"])
    hook = mixed["canonical_word"]
    mixed_ok = (
        mixed["word"] == word
        and tableau == q_rows
        and is_shifted_tableau(tableau)
        and sorted((x + 1) // 2 for row in tableau for x in row) == sorted(letters)
        and mixed["tableau"]["shape"] == [len(row) for row in tableau]
        and (hook is None or hook in shifted["class"])
    )
    shifted_ok = (
        listing_ok(shifted)
        and shifted["size"] == count_shifted_syt([len(row) for row in q_rows])
        and all(
            mixed_insertion([int(ch) for ch in m]) == q_rows
            and schensted(int(ch) for ch in m) == p_rows
            for m in shifted["class"]
        )
    )
    return [mixed_ok, plactic_ok, knuth_ok, shifted_ok]
