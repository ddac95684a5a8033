"""Brute-force oracles that the tests check the library's routes against:
each filters every word of one degree by a condition read off the
definition, with no generation shared with `placto`, lists every map of a
family that the library decides without listing, or applies a relation or
a restriction letter by letter, sharing no code with the byte kernels."""

import itertools
from typing import Iterator

from placto.algebra import NcPoly
from placto.rewrite import SHIFTED_KNUTH, Relation, closure_bytes
from placto.tableaux import hook_factorization_check, is_partition, mixed_insertion_rows
from placto.words import Interval, OrderedMorphism, Word


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
    return NcPoly.from_words(words, n, bound)


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
    the matcher `_kernels.neighbors` is checked against, one window and one
    relation at a time."""
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


def restrict(w: Word, interval: Interval) -> Word:
    """Delete all letters outside the interval, preserving order: the
    reference for `words.outside_letters`."""
    return Word(tuple(a for a in w.letters if a in interval), w.n)
