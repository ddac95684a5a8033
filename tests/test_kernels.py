"""The rewrite kernel: edges of its input (empty words, the 255-letter limit)
and its one-step rewrites against an independent matcher."""

import pytest
from hypothesis import given, settings, strategies as st

from placto import _kernels
from placto.rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Relation,
    RelationSet,
    congruence,
    expanded_rules,
    instantiate,
)
from placto.words import Word


def test_pure_closure_of_empty_word():
    table = _kernels.RuleTable(expanded_rules(KNUTH))
    assert _kernels.closure(b"", table) == {b""}


def test_words_over_255_letters_rejected():
    table = _kernels.RuleTable(expanded_rules(SHIFTED_KNUTH))
    longest = bytes([1]) * 255
    assert _kernels.closure(longest, table) == {longest}
    assert _kernels.neighbors(longest, table) == set()
    for kernel in (_kernels.closure, _kernels.neighbors):
        with pytest.raises(ValueError, match="^word longer than 255 letters$"):
            kernel(longest + bytes([1]), table)


# patterns of lengths 3 and 4 in one set, so the kernel runs two length groups
MIXED_LENGTHS = RelationSet.custom(
    [
        Relation("M.1", "bca", "bac", "a<b<=c"),
        Relation("M.2", "abc", "cab", "a<b<c"),
        Relation("M.3", "dacb", "adcb", "a<=b<c<d"),
        Relation("M.4", "abdc", "adbc", "a<=b<=c<d"),
    ],
    name="mixed-lengths",
)


def test_rule_table_groups_rules_by_pattern_length():
    groups = congruence(MIXED_LENGTHS).table.groups
    assert [(plen, len(rules)) for plen, rules in groups] == [(3, 4), (4, 4)]


def _reference_neighbors(word: bytes, n: int, rels: RelationSet) -> set[bytes]:
    """One-step rewrites by `rewrite.instantiate`, relation by relation, in
    both directions, at every window of the word."""
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_neighbors_match_independent_matcher(data):
    rels = data.draw(st.sampled_from([KNUTH, SHIFTED_KNUTH, MIXED_LENGTHS]))
    n = data.draw(st.integers(min_value=1, max_value=6))
    letters = data.draw(st.lists(st.integers(min_value=1, max_value=n), max_size=9))
    word = bytes(letters)
    got = _kernels.neighbors(word, congruence(rels).table)
    assert got == _reference_neighbors(word, n, rels)
