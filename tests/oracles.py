"""Brute-force oracles that the tests check the library's routes against:
each filters every word of one degree by a condition read off the
definition, with no generation shared with `placto`, lists every map of a
family that the library decides without listing, or applies a relation or
a restriction letter by letter, sharing no code with the byte kernels.
`kernel_classes` lists classes by the kernel's closure alone, the reference
for the insertion fibers of the shipped sets.  The restriction-surprise
search is kept as it grouped every word over {1..n} into classes by
closure.  `union_find_joins` counts the parts that forced pairs join by
a union-find, and `members_by_size` the words per support size by
inclusion-exclusion over surjections.  Mixed insertion and the shifted
hook length formula are written out from their definitions, with no
`placto` code.
`lr_by_ssyt_words` is the Littlewood-Richardson expansion by the products
of the semistandard words over all n letters, the one listing `lr_expand`
had before it chose the smaller of two; standardization of words and of
tableaux is written out from its definition."""

import itertools
import math
from collections import Counter
from typing import Iterator

from placto.algebra import NcPoly, free_schur
from placto.rewrite import KNUTH, SHIFTED_KNUTH, Relation, RelationSet, closure_bytes
from placto.tableaux import (
    hook_factorization_check,
    is_partition,
    mixed_insertion_rows,
    ssyt_count,
)
from placto.words import Interval, OrderedMorphism, Word, all_intervals


def longest_weakly_increasing_subword(letters) -> int:
    """Length of the longest weakly increasing subsequence of a letter
    sequence (a byte word, a tuple or a `Word`)."""
    if not letters:
        return 0
    inc = [1] * len(letters)
    for i in range(len(letters)):
        for j in range(i):
            if letters[j] <= letters[i] and inc[j] + 1 > inc[i]:
                inc[i] = inc[j] + 1
    return max(inc)


def free_schur_by_filter(nu: tuple[int, ...], n: int, degree_bound: int | None = None) -> NcPoly:
    """`algebra.free_schur` by another route: filter every word of degree
    |nu| by the weakly-increasing factorization condition."""
    if not (nu == () or is_partition(nu)):
        raise ValueError(f"{nu} is not a partition")
    size = sum(nu)
    bound = size if degree_bound is None else degree_bound
    lengths = list(reversed(nu))
    words = []
    for letters in itertools.product(range(1, n + 1), repeat=size):
        segments = []
        pos = 0
        ok = True
        for length in lengths:
            seg = letters[pos : pos + length]
            pos += length
            if any(seg[i] > seg[i + 1] for i in range(len(seg) - 1)):
                ok = False
                break
            if segments and longest_weakly_increasing_subword(segments[-1] + seg) != length:
                ok = False
                break
            segments.append(seg)
        if ok:
            words.append(bytes(letters))
    return NcPoly(n, bound, Counter(words))


def enumerate_hook_by_filter(nu: tuple[int, ...], n: int) -> set[Word]:
    """`tableaux.enumerate_hook` by another route: filter every word of
    degree |nu| over {1..n}."""
    degree = sum(nu)
    return {
        Word(letters, n)
        for letters in itertools.product(range(1, n + 1), repeat=degree)
        if hook_factorization_check(letters, nu)
    }


def hook_word_by_closure(word: bytes) -> bytes | None:
    """`tableaux.hook_word` of the mixed tableau of `word` by another
    route: close the shifted Knuth class and keep the members with a hook
    factorization at the tableau's shape; None unless exactly one has."""
    shape = tuple(map(len, mixed_insertion_rows(word)))
    members = sorted(closure_bytes(SHIFTED_KNUTH, word))
    hits = [m for m in members if hook_factorization_check(m, shape)]
    return hits[0] if len(hits) == 1 else None


def mixed_insertion_by_cells(letters) -> tuple[tuple[int, ...], ...]:
    """Haiman's (1989) mixed insertion tableau of a sequence of plain
    letters, the reference for `tableaux.mixed_insertion_rows`: its rows in
    the same doubled encoding, a' as 2a - 1 and a as 2a.

    The tableau is a dict from (row, column) to entry, row i starting in
    column i.  Each letter enters row 0 unprimed.  A value entering a row
    (a column) bumps the leftmost (topmost) entry strictly greater, or else
    takes the next cell of the row (the column).  A bumped entry goes on
    into the next row if it is unprimed and off the diagonal, and otherwise
    into the next column, primed if it was on the diagonal."""
    cells: dict[tuple[int, int], int] = {}
    for letter in letters:
        value, into_row, line = 2 * letter, True, 0
        while True:
            if into_row:
                spots = ((line, c) for c in itertools.count(line))
            else:
                spots = ((r, line) for r in range(line + 1))
            path = list(itertools.takewhile(cells.__contains__, spots))
            hit = next((cell for cell in path if cells[cell] > value), None)
            if hit is None:
                cells[(line, line + len(path)) if into_row else (len(path), line)] = value
                break
            cells[hit], value = value, cells[hit]
            r, c = hit
            if value % 2 == 0 and c != r:
                into_row, line = True, r + 1
            else:
                if value % 2 == 0:
                    value -= 1
                into_row, line = False, c + 1
    by_row = itertools.groupby(sorted(cells.items()), key=lambda item: item[0][0])
    return tuple(tuple(entry for _, entry in row) for _, row in by_row)


def standard_count_by_hooks(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a partition by the hook length formula,
    the reference for `tableaux.standard_count`.  The hook of cell (i, c)
    is the rest of row i from c and the cells below it in column c, which
    the conjugate partition counts."""
    columns = [sum(1 for length in shape if length > c) for c in range(shape[0] if shape else 0)]
    hooks = 1
    for i, length in enumerate(shape):
        for c in range(length):
            hooks *= (length - c) + (columns[c] - i - 1)
    return math.factorial(sum(shape)) // hooks


def lr_by_ssyt_words(nu: tuple[int, ...], mu: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """The reference for `algebra.lr_expand`: the products of the reading
    words of the semistandard tableaux of nu and mu over all n letters,
    counted by Schensted tableau, each shape checked against all
    `ssyt_count(shape, n)` of its tableaux occurring equally often."""
    key = KNUTH.congruence.key
    right = free_schur(mu, n).terms
    tableaux = Counter(key(u + v) for u in free_schur(nu, n).terms for v in right)
    # shape -> {multiplicity: tableaux of the shape that occur that often}
    by_shape: dict[tuple[int, ...], Counter] = {}
    for rows, count in tableaux.items():
        by_shape.setdefault(tuple(map(len, rows)), Counter())[count] += 1
    out: dict[tuple[int, ...], int] = {}
    for shape, multiplicities in sorted(by_shape.items(), reverse=True):
        expected = ssyt_count(shape, n)
        if len(multiplicities) != 1 or sum(multiplicities.values()) != expected:
            raise ValueError(
                f"shape {shape} is not a multiple of its Schur sum: tableaux by "
                f"multiplicity {dict(multiplicities)}, of {expected} tableaux of the shape"
            )
        (out[shape],) = multiplicities
    return out


def standardized_word(letters) -> bytes:
    """std(w): the letters of w renumbered 1..|w|, the smaller letters
    first and equal letters from left to right."""
    order = sorted(range(len(letters)), key=lambda i: (letters[i], i))
    out = [0] * len(letters)
    for rank, i in enumerate(order, 1):
        out[i] = rank
    return bytes(out)


def standardized_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """std(T): the entries of a semistandard tableau renumbered 1..|T|, the
    smaller entries first and equal entries, which lie in distinct columns,
    from left to right."""
    cells = sorted((entry, j, i) for i, row in enumerate(rows) for j, entry in enumerate(row))
    out = [list(row) for row in rows]
    for rank, (_, j, i) in enumerate(cells, 1):
        out[i][j] = rank
    return tuple(map(tuple, out))


def shifted_standard_count_by_hooks(shape: tuple[int, ...]) -> int:
    """Standard shifted tableaux of a strict shape by the shifted hook length
    formula, the reference for `tableaux.shifted_standard_count`.  Row i
    starts in column i; the hook of cell (i, c) is the rest of row i from c,
    the cells below it in column c, and all of row c + 1."""
    hooks = 1
    for i, length in enumerate(shape):
        for c in range(i, i + length):
            right = i + length - c
            below = sum(1 for k in range(i + 1, len(shape)) if k <= c < k + shape[k])
            hooks *= right + below + (shape[c + 1] if c + 1 < len(shape) else 0)
    return math.factorial(sum(shape)) // hooks


def apply_morphism(w: Word, morphism: OrderedMorphism) -> Word:
    """Letterwise image of w under an ordered morphism."""
    mapping = morphism.mapping()
    try:
        letters = tuple(mapping[a] for a in w.letters)
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} outside morphism source") from None
    return Word(letters, morphism.target_n)


def all_ordered_morphisms(source_n: int, target_n: int) -> Iterator[OrderedMorphism]:
    """All strictly increasing partial maps between the two truncations.

    Includes the empty morphism (applicable only to the empty word).
    """
    source_letters = range(1, source_n + 1)
    target_letters = range(1, target_n + 1)
    for k in range(0, min(source_n, target_n) + 1):
        for src in itertools.combinations(source_letters, k):
            for img in itertools.combinations(target_letters, k):
                yield OrderedMorphism(tuple(zip(src, img)), target_n)


def instantiate(rel: Relation, window: Word) -> Word | None:
    """Rewrite of `window` by `rel` read left-to-right, or None when no match:
    the matcher that the kernel's one-step rewrites (`_kernels._grow`) are
    checked against, one window and one relation at a time."""
    left, right, strict = rel.compiled()
    if len(window) != len(left):
        return None
    nvars = len(strict) + 1
    vals = [0] * nvars
    for k, v in enumerate(left):
        a = window.letters[k]
        if vals[v] == 0:
            vals[v] = a
        elif vals[v] != a:
            return None
    for i in range(nvars - 1):
        if strict[i]:
            if vals[i] >= vals[i + 1]:
                return None
        elif vals[i] > vals[i + 1]:
            return None
    return Word(tuple(vals[v] for v in right), window.n)


def rewrites_by_instantiate(word: bytes, n: int, rels: RelationSet) -> set[bytes]:
    """One-step rewrites by `instantiate`, relation by relation, in both
    directions, at every window of the word: the reference for the
    kernel's one-step rewrites (`_kernels._grow`)."""
    out = set()
    for rel in rels.relations:
        reverse = Relation(rel.name, rel.right, rel.left, rel.constraints)
        plen = len(rel.left)
        for pos in range(len(word) - plen + 1):
            window = Word.from_bytes(word[pos : pos + plen], n)
            for direction in (rel, reverse):
                image = instantiate(direction, window)
                if image is not None:
                    out.add(word[:pos] + image.to_bytes() + word[pos + plen :])
    return out


def closure_by_instantiate(word: bytes, n: int, rels: RelationSet) -> set[bytes]:
    """Breadth-first closure over `rewrites_by_instantiate`: the reference
    for `_kernels.closure`."""
    seen = {word}
    frontier = [word]
    while frontier:
        frontier = [
            w for v in frontier for w in rewrites_by_instantiate(v, n, rels) if w not in seen
        ]
        seen.update(frontier)
    return seen


def classes_by_instantiate(rels: RelationSet, n: int, degree: int) -> tuple[tuple[bytes, ...], ...]:
    """The classes of the degree-d words over {1..n}, each sorted, in the
    order of their least members, each closed by `closure_by_instantiate`:
    the reference for `Congruence.classes` of a custom set, sharing no code
    with `_kernels`."""
    found = []
    seen: set[bytes] = set()
    for letters in itertools.product(range(1, n + 1), repeat=degree):
        w = bytes(letters)
        if w not in seen:
            members = closure_by_instantiate(w, n, rels)
            seen.update(members)
            found.append(tuple(sorted(members)))
    return tuple(found)


def kernel_classes(rels: RelationSet, n: int, degree: int) -> tuple[tuple[bytes, ...], ...]:
    """The classes of the degree-d words over {1..n}, as `Congruence.classes`
    lists them, each closed by the rewrite kernel: a renamed copy of the
    relations is a custom set, which knows nothing of insertion tableaux."""
    return tuple(RelationSet.custom(rels.relations).congruence.classes(n, degree))


def union_find_joins(pairs) -> int:
    """How many of the pairs join two parts of a union-find over their
    words: the reference for the joins of a forced matching, which
    `verify` counts as its number of pairs."""
    root: dict[bytes, bytes] = {}

    def find(x: bytes) -> bytes:
        while root.setdefault(x, x) != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    joins = 0
    for u, v in pairs:
        ru, rv = find(u), find(v)
        joins += ru != rv
        root[ru] = rv
    return joins


def members_by_size(n: int, degree: int) -> dict[int, int]:
    """k -> the number of words of degree 1..d over {1..n} with exactly k
    distinct letters: relations keep content, so these are the members of
    the classes whose support has k letters.  The reference for the
    instance counts of `verify axioms`, which sums over words instead.

    Each of the C(n, k) supports of k letters has sum over j = k..d of
    k! S(j, k) of them.  By inclusion-exclusion k! S(j, k), the words of
    degree j onto k letters, is the sum over i of (-1)^i C(k, i) (k - i)^j,
    and the sum over j of each power is geometric.
    """

    def powers(m: int, k: int) -> int:
        """m^k + m^(k+1) + ... + m^d."""
        if m < 2:
            return m * (degree - k + 1)
        return (m ** (degree + 1) - m**k) // (m - 1)

    return {
        k: math.comb(n, k)
        * sum((-1) ** i * math.comb(k, i) * powers(k - i, k) for i in range(k + 1))
        for k in range(1, min(n, degree) + 1)
    }


def restrict(w: Word, interval: Interval) -> Word:
    """Delete all letters outside the interval, preserving order: the
    reference for a restriction by `bytes.translate`."""
    return Word(tuple(a for a in w.letters if a in interval), w.n)


def intervals(n: int) -> list[tuple[int, int, bytes]]:
    """(lo, hi, the letters of {1..n} outside [lo, hi]) for every interval
    of {1..n}, in `all_intervals` order: `w.translate(None, outside)`
    restricts a byte word over {1..n}, the reference for `verify._runs`."""
    return [
        (iv.lo, iv.hi, bytes(a for a in range(1, n + 1) if a not in iv))
        for iv in all_intervals(n)
    ]


def restriction_surprise_by_grouping(n: int, degree_bound: int) -> dict:
    """`verify.restriction_surprise` over every word of {1..n}: the shifted
    classes of each degree from 4, the length of every shifted Knuth
    relation, closed breadth-first and taken in order of their least
    member, and the first member whose restriction to an interval, in
    `all_intervals` order, leaves the class of the least member's.  Classes
    are compared by least member, through custom copies of both sets, so
    every class is closed by the rewrite kernel."""
    shifted, knuth = (RelationSet.custom(r.relations).congruence for r in (SHIFTED_KNUTH, KNUTH))
    for degree in range(4, degree_bound + 1):
        for base, *others in kernel_classes(SHIFTED_KNUTH, n, degree):
            for other in others:
                for iv in all_intervals(n):
                    ru, rv = (restrict(Word.from_bytes(w, n), iv) for w in (base, other))
                    rb, rvb = ru.to_bytes(), rv.to_bytes()
                    if shifted.canonical(rb) != shifted.canonical(rvb):
                        return {
                            "check": "restriction-surprise",
                            "witness_found": True,
                            "w1": str(Word.from_bytes(base, n)),
                            "w2": str(Word.from_bytes(other, n)),
                            "interval": [iv.lo, iv.hi],
                            "restrictions": [str(ru), str(rv)],
                            "restrictions_knuth_equivalent": knuth.canonical(rb)
                            == knuth.canonical(rvb),
                            "pass": True,
                        }
    return {"check": "restriction-surprise", "witness_found": False, "pass": True}
