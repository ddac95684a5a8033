"""The rewrite kernel: edges of its input (empty words, the 255-letter limit),
its one-step rewrites and closures against an independent matcher, and the
bound on its order-type table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from placto import _kernels
from placto.rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Relation,
    RelationSet,
    _expand,
)

from oracles import closure_by_instantiate, rewrites_by_instantiate


def one_step(word: bytes, table) -> set:
    """The words one rule application at one position away, by the kernel's
    layer step."""
    return set(_kernels._grow([word], table, {}, set()))


def test_pure_closure_of_empty_word():
    table = _kernels.RuleTable(_expand(KNUTH.relations))
    assert _kernels.closure(b"", table) == {b""}


def test_words_over_255_letters_rejected():
    table = _kernels.RuleTable(_expand(SHIFTED_KNUTH.relations))
    longest = bytes([1]) * 255
    assert _kernels.closure(longest, table) == {longest}
    assert one_step(longest, table) == set()
    for kernel in (_kernels.closure, one_step):
        with pytest.raises(ValueError, match="^word longer than 255 letters$"):
            kernel(longest + bytes([1]), table)


def test_closure_cap_is_checked_per_layer():
    # ab ~ ba (a < b): the class of 1234 is all 24 orders, in layers of
    # 1, 3, 5, 6, 5, 3, 1 words by their number of inversions
    table = _kernels.RuleTable(_expand((Relation("C", "ab", "ba", "a<b"),)))
    assert len(_kernels.closure(b"\x01\x02\x03\x04", table, 24)) == 24
    with pytest.raises(ValueError, match="^the class has at least 24 members, more than"):
        _kernels.closure(b"\x01\x02\x03\x04", table, 23)
    # the third layer takes 4 words past a cap of 5
    with pytest.raises(ValueError, match="^the class has at least 9 members, more than"):
        _kernels.closure(b"\x01\x02\x03\x04", table, 5)


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
    groups = MIXED_LENGTHS.congruence.table.groups
    assert [(plen, len(rules)) for plen, rules in groups] == [(3, 4), (4, 4)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_neighbors_match_independent_matcher(data):
    rels = data.draw(st.sampled_from([KNUTH, SHIFTED_KNUTH, MIXED_LENGTHS]))
    n = data.draw(st.integers(min_value=1, max_value=6))
    letters = data.draw(st.lists(st.integers(min_value=1, max_value=n), max_size=9))
    word = bytes(letters)
    got = one_step(word, rels.congruence.table)
    assert got == rewrites_by_instantiate(word, n, rels)


SPARSE_LETTERS = (1, 2, 7, 100, 200, 255)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_letters_match_independent_matcher(data):
    # letters far apart and up to 255, with repeats: the order type of a
    # window, not its letters, decides which rules match
    rels = data.draw(st.sampled_from([KNUTH, SHIFTED_KNUTH, MIXED_LENGTHS]))
    letters = data.draw(st.lists(st.sampled_from(SPARSE_LETTERS), max_size=10))
    word = bytes(letters)
    table = rels.congruence.table
    assert one_step(word, table) == rewrites_by_instantiate(word, 255, rels)
    # closed on at most 6 letters: the mixed-lengths classes grow fast (1 344
    # words for 8 distinct letters) and the reference is slow
    head = word[:6]
    assert _kernels.closure(head, table) == closure_by_instantiate(head, 255, rels)


# `most` counts the weak orders (ordered set partitions) of each pattern
# length: 13 of 3 positions, 75 of 4
@pytest.mark.parametrize(
    "rels, most, longest",
    [(KNUTH, 13, 9), (SHIFTED_KNUTH, 75, 9), (MIXED_LENGTHS, 13 + 75, 6)],
    ids=["knuth", "shifted-knuth", "mixed-lengths"],
)
def test_order_type_table_is_bounded(rels, most, longest):
    table = _kernels.RuleTable(_expand(rels.relations))
    rng = random.Random(9)
    for _ in range(300):
        # a few letters from 1..255 per word, so that windows repeat letters
        pool = rng.sample(range(1, 256), rng.randint(1, longest))
        word = bytes(rng.choice(pool) for _ in range(rng.randint(0, longest)))
        _kernels.closure(word, table)
    assert len(table.order_types) <= most
    for order_type in table.order_types:
        # ranks from 0 with none skipped
        assert sorted(set(order_type)) == list(range(len(set(order_type))))


def test_rule_table_rejects_a_right_side_variable_missing_on_the_left():
    # the replacement is a rearrangement of the window, so every variable of
    # the right side must be bound by the left side
    with pytest.raises(ValueError, match="^right pattern uses a variable the left pattern lacks$"):
        _kernels.RuleTable([((0, 0, 1), (0, 1, 2), (False, True))])
