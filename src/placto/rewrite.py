"""Pattern relations and equivalence-class machinery for monoid quotients.

A relation is a homogeneous rewrite rule given by two letter patterns over the
same variables plus a chain of <= / < constraints that totally orders the
variables (e.g. acb ~ cab for a <= b < c); the chain names exactly the
variables the patterns use.  The Knuth relations and the eight
degree-4 shifted Knuth relations are shipped as ready-made relation sets;
arbitrary homogeneous relation sets can be loaded from JSON.

Everything computed for one relation set lives on its `Congruence`, which
the set owns (`RelationSet.congruence`) and which lives as long as the set:
the shipped sets for the whole process, a custom set until it is dropped.
It holds a class key, where known the class count, and the kernel rule
table, built on the first closure.  For `KNUTH` the classes are exactly
the fibers of Schensted insertion and for `SHIFTED_KNUTH` those of mixed
insertion, so their key is the insertion tableau; every other relation
set keys a class by its least member, and only such a set memoizes,
mapping a byte word to the least member of its class.

`Congruence.members` is the one route that lists a class: the two shipped
sets list the fiber of the word's tableau by reverse insertion
(`tableaux.insertion_fiber`), every other set closes the class breadth-first
over one-step rewrites (both directions, every window).  `classes` lists the
classes of one degree by one lexicographic scan of its words, `class_dump`
formats one class, and `canonical` takes the least member: `KNUTH` reads it
off the Schensted tableau by reverse column insertion
(`tableaux.least_plactic_word`), `SHIFTED_KNUTH` lists the class, and every
other set looks it up in its memo, closing the class on a miss.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections.abc import Iterator

from . import _kernels
from .tableaux import (
    least_plactic_word,
    mixed_fiber,
    mixed_insertion_rows,
    schensted_fiber,
    schensted_rows,
    shifted_standard_count,
    standard_count,
)
from .words import Frozen, Word, content, word_text

_CHAIN_RE = re.compile(r"^\s*([a-z])\s*((?:(?:<=|<)\s*[a-z]\s*)+)$")
_STEP_RE = re.compile(r"(<=|<)\s*([a-z])\s*")


@functools.lru_cache(maxsize=256)
def _parse_chain(chain: str) -> tuple[tuple[str, ...], tuple[bool, ...]]:
    """Split a constraint chain like 'a<=b<c' into variables and strict flags.

    Cached by chain text, so the `Relation` methods that read a chain do
    not parse it again; a chain that fails to parse raises on every call."""
    m = _CHAIN_RE.match(chain)
    if not m:
        raise ValueError(f"cannot parse constraint chain {chain!r}")
    variables = [m.group(1)]
    strict = []
    for op, var in _STEP_RE.findall(m.group(2)):
        strict.append(op == "<")
        variables.append(var)
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable in chain {chain!r}")
    return tuple(variables), tuple(strict)


class Relation(Frozen):
    """Homogeneous pattern relation, e.g. Relation('K.1', 'acb', 'cab', 'a<=b<c')."""

    __slots__ = ("name", "left", "right", "constraints")

    name: str
    left: str
    right: str
    constraints: str

    def __init__(self, name: str, left: str, right: str, constraints: str) -> None:
        variables, _ = _parse_chain(constraints)
        if sorted(left) != sorted(right):
            raise ValueError(f"{name}: sides must use the same variable multiset")
        if not set(left) <= set(variables):
            raise ValueError(f"{name}: pattern variable missing from chain")
        unused = [v for v in variables if v not in left]
        if unused:
            raise ValueError(f"{name}: chain variable {unused[0]!r} is in neither pattern")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "constraints", constraints)

    def compiled(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[bool, ...]]:
        """Patterns as variable-index tuples plus the strict flags of the chain."""
        variables, strict = _parse_chain(self.constraints)
        index = {v: i for i, v in enumerate(variables)}
        left = tuple(index[v] for v in self.left)
        right = tuple(index[v] for v in self.right)
        return left, right, strict

    def variables(self) -> tuple[str, ...]:
        return _parse_chain(self.constraints)[0]

    def strict_flags(self) -> tuple[bool, ...]:
        return _parse_chain(self.constraints)[1]


class RelationSet(Frozen):
    """Named collection of pattern relations defining a monoid congruence.

    Without `__slots__`, a set has the `__dict__` that holds its cached
    `congruence` and the `__weakref__` by which the tests see a custom set
    freed with its congruence; so it names its fields in `_fields`."""

    _fields = ("name", "relations")

    name: str
    relations: tuple[Relation, ...]

    def __init__(self, name: str, relations: tuple[Relation, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relations", relations)

    @classmethod
    def custom(cls, relations, name: str = "custom") -> "RelationSet":
        return cls(name, tuple(relations))

    @classmethod
    def from_json(cls, text: str, name: str = "custom") -> "RelationSet":
        """Parse a JSON list of {left, right, constraints[, name]} objects."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("custom relation set is nested too deeply to parse") from None
        if not isinstance(data, list):
            raise ValueError("custom relation set must be a JSON list")
        relations = []
        for i, entry in enumerate(data):
            if not isinstance(entry, dict):
                raise ValueError(f"custom relation entry {i} must be a JSON object")
            fields = {"name": f"custom.{i + 1}", **entry}
            for key in ("name", "left", "right", "constraints"):
                if key not in fields:
                    raise ValueError(f"custom relation entry {i} is missing key {key!r}")
                if not isinstance(fields[key], str):
                    raise ValueError(f"custom relation entry {i}: {key!r} must be a string")
            relations.append(
                Relation(fields["name"], fields["left"], fields["right"], fields["constraints"])
            )
        return cls(name, tuple(relations))

    @functools.cached_property
    def congruence(self) -> "Congruence":
        """The congruence the set generates, built on first use and kept,
        memo included, for as long as the set itself."""
        return Congruence(self)


KNUTH = RelationSet(
    "knuth",
    (
        Relation("K.1", "acb", "cab", "a<=b<c"),
        Relation("K.2", "bca", "bac", "a<b<=c"),
    ),
)

SHIFTED_KNUTH = RelationSet(
    "shifted-knuth",
    (
        Relation("SP.1", "abdc", "adbc", "a<=b<=c<d"),
        Relation("SP.2", "acdb", "acbd", "a<=b<c<=d"),
        Relation("SP.3", "dacb", "adcb", "a<=b<c<d"),
        Relation("SP.4", "badc", "bdac", "a<b<=c<d"),
        Relation("SP.5", "cbda", "cdba", "a<b<c<=d"),
        Relation("SP.6", "dbca", "bdca", "a<b<=c<d"),
        Relation("SP.7", "bcda", "bcad", "a<b<=c<=d"),
        Relation("SP.8", "cadb", "cdab", "a<=b<c<=d"),
    ),
)


# What a shipped relation set knows of a class without closing it, one row
# per set: the insertion map whose fibers are the classes (Knuth classes are
# the fibers of Schensted insertion, Knuth 1970; shifted Knuth classes those
# of Haiman's mixed insertion, Serrano 2010), the class size from the shape
# of the tableau (one member per standard recording tableau), for `KNUTH` the
# least member computed from the word alone, and the class listed from the
# tableau by reverse insertion (`tableaux.insertion_fiber`).
_INSERTION = (
    (KNUTH, schensted_rows, standard_count, least_plactic_word, schensted_fiber),
    (SHIFTED_KNUTH, mixed_insertion_rows, shifted_standard_count, None, mixed_fiber),
)


def relation_set_by_name(name: str) -> RelationSet:
    if name == "knuth":
        return KNUTH
    if name == "shifted-knuth":
        return SHIFTED_KNUTH
    raise ValueError(f"unknown relation set {name!r}")


def _expand(relations: tuple[Relation, ...]):
    """Direction-expanded (match, replace, strict) triples for the kernels."""
    out = []
    seen = set()
    for rel in relations:
        left, right, strict = rel.compiled()
        for a, b in ((left, right), (right, left)):
            key = (a, b, strict)
            if a != b and key not in seen:
                seen.add(key)
                out.append(key)
    return tuple(out)


class Congruence:
    """The congruence one relation set generates.

    Words are byte strings, one letter per byte.  Obtain instances through
    `rels.congruence`, so that every caller shares the set's one memo.
    `key` maps a word to the key of its class, so two words are congruent
    exactly when their keys are equal.  The two shipped relation sets key a
    class by its insertion tableau (rows), and their `count` gives the size
    of a class from the shape of its key.  Every other set keys a class by
    its least member (`canonical`), records it in `memo`, and has no
    `count` (None); the shipped sets leave `memo` empty.  `least` maps a
    word to the least member of its class without closing it, for `KNUTH`,
    and is None for every other set.  `fiber` lists the class of a key (its
    members, unsorted) without closing it, for the two shipped sets, and is
    None for every other set.  `table`, the kernel's rule table, is built
    on first use: only a closure reads it, and the shipped sets list their
    classes by reverse insertion, so they close one only through
    `closure_bytes`.  The congruence keeps the set's relations, not the
    set, so that a custom set is freed with its congruence.
    """

    __slots__ = ("memo", "key", "count", "least", "fiber", "_name", "_relations", "_table")

    def __init__(self, rels: RelationSet) -> None:
        self.memo: dict[bytes, bytes] = {}  # byte word -> least member of its class
        self.key, self.count, self.least, self.fiber = next(
            (row[1:] for row in _INSERTION if row[0] == rels),
            (self.canonical, None, None, None),
        )
        self._name = rels.name
        self._relations = rels.relations
        self._table = None

    @property
    def table(self) -> _kernels.RuleTable:
        """The kernel's rule table for the relations, built on first use."""
        if self._table is None:
            self._table = _kernels.RuleTable(_expand(self._relations))
        return self._table

    def members(self, word: bytes, cap: int | None = None) -> list[bytes]:
        """The class of `word`, sorted; with a `cap`, ValueError on a class
        of more members.

        The two shipped sets know the size of the class from the shape of
        the word's tableau, so they refuse before listing any member, and
        list it from the tableau by reverse insertion (`fiber`).  A class of
        one member is the word, at any length; a longer class is refused
        for a word of more than 255 letters, as the kernel refuses it, since
        reverse insertion recurses once per letter.  Every other set closes
        the class (`_kernels.closure`), and the closure stops once a layer
        of its search leaves more than `cap` members."""
        if self.fiber is None:
            return sorted(_kernels.closure(word, self.table, cap))
        rows = self.key(word)
        size = self.count(tuple(map(len, rows)))
        if cap is not None and size > cap:
            raise ValueError(
                f"the {self._name} class of this word has {size} members, "
                f"more than the {cap} that are listed"
            )
        # a class of one member is the word itself; listing it would still
        # uninsert every letter, along bumping paths as long as a row or a
        # column: about 25 ms for 255,...,1 under KNUTH and 100 ms under
        # SHIFTED_KNUTH, where its closure takes under 1 ms
        if size == 1:
            return [word]
        if len(word) > _kernels._MAX_WORD:
            raise ValueError(f"word longer than {_kernels._MAX_WORD} letters")
        return sorted(self.fiber(rows))

    def canonical(self, word: bytes) -> bytes:
        """Least member of the class of `word`.  `KNUTH` computes it from
        the word's tableau (`least`) and `SHIFTED_KNUTH` lists the class, so
        neither records anything; every other set closes the class on a
        memo miss and records every member."""
        if self.least is not None:
            return self.least(word)
        if self.fiber is not None:
            return self.members(word)[0]
        got = self.memo.get(word)
        if got is None:
            members = self.members(word)
            got = members[0]
            self.memo.update(dict.fromkeys(members, got))
        return got

    def classes(self, n: int, degree: int) -> Iterator[tuple[bytes, ...]]:
        """The classes of the degree-d words over {1..n}, each a sorted
        tuple, in the order of their least members, as they are found.

        One scan reads the words in lexicographic order: each word that no
        class listed so far holds is the least member of a new class, listed
        by `members`.  The memo records nothing, and the scan reads no word
        past the class its caller stops at.
        """
        seen: set[bytes] = set()
        for letters in itertools.product(range(1, n + 1), repeat=degree):
            w = bytes(letters)
            if w not in seen:
                members = self.members(w)
                seen.update(members)
                yield tuple(members)


def closure_bytes(rels: RelationSet, word: bytes, cap: int | None = None) -> frozenset[bytes]:
    """The class of `word`; with a `cap`, ValueError on a class of more
    members (see `_kernels.closure`)."""
    return frozenset(_kernels.closure(word, rels.congruence.table, cap))


def canonical_bytes(rels: RelationSet, word: bytes) -> bytes:
    return rels.congruence.canonical(word)


def equiv_class(word: Word, rels: RelationSet) -> frozenset[Word]:
    """The full equivalence class of `word` under `rels`; always contains it."""
    return frozenset(Word.from_bytes(b, word.n) for b in closure_bytes(rels, word.to_bytes()))


def equivalent(w1: Word, w2: Word, rels: RelationSet) -> bool:
    """Quotient equality test; short-circuits on content mismatch.

    Compares the class keys of the words: their insertion tableaux for the
    two shipped sets, which computes no class member, and their least
    members for every other set."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched alphabet bounds {w1.n} != {w2.n}")
    if content(w1) != content(w2):
        return False
    wb1, wb2 = w1.to_bytes(), w2.to_bytes()
    if wb1 == wb2:
        return True
    key = rels.congruence.key
    return key(wb1) == key(wb2)


def canonical_word(word: Word, rels: RelationSet) -> Word:
    """Lexicographically least member of the class (the canonical representative)."""
    return Word.from_bytes(canonical_bytes(rels, word.to_bytes()), word.n)


def relation_instances(rel: Relation, n: int):
    """All concrete (left, right) pairs of a relation schema over {1..n}, as
    byte words, in lexicographic order of the letters assigned to the chain.

    Taking from each variable the number of strict steps before it maps the
    assignments that obey the chain one to one onto the weakly increasing
    sequences over {1..n - s}, s the number of strict steps."""
    left, right, strict = rel.compiled()
    offsets = (0, *itertools.accumulate(map(int, strict)))
    letters = range(1, n + 1 - offsets[-1])
    for weak in itertools.combinations_with_replacement(letters, len(offsets)):
        values = [a + k for a, k in zip(weak, offsets)]
        yield bytes(values[v] for v in left), bytes(values[v] for v in right)


def verify_factorization(n: int, degree_bound: int) -> bool:
    """True iff every shifted Knuth relation instance over {1..n} with degree
    up to the bound is an ordinary Knuth equivalence (the quotient maps
    factor): its two sides have one Schensted tableau."""
    key = KNUTH.congruence.key
    return all(
        key(left) == key(right)
        for rel in SHIFTED_KNUTH.relations
        if len(rel.left) <= degree_bound
        for left, right in relation_instances(rel, n)
    )


def _members_text(members: list[bytes], n: int) -> list[str]:
    """`word_text` of each of the (at least one) members over {1..n}."""
    if n <= 9:  # letters are the bytes 1..9, none a comma: one pass spells them all
        return word_text(b",".join(members), n).split(",")
    return [word_text(m, n) for m in members]


def class_dump(word: Word, rels: RelationSet, cap: int | None = None) -> dict:
    """JSON-ready class listing: sorted members plus the class size; with a
    `cap`, ValueError on a class of more members (`Congruence.members`).

    Members stay byte words up to their text: below ten letters one
    translation of the comma-joined members, above it `word_text` of each."""
    members = rels.congruence.members(word.to_bytes(), cap)
    return {
        "word": str(word),
        "relation_set": rels.name,
        "class": _members_text(members, word.n),
        "size": len(members),
    }
