"""Word, interval, and ordered-morphism behaviour."""

import itertools

import pytest
from hypothesis import given, strategies as st

from oracles import all_ordered_morphisms, apply_morphism, restrict
from placto.words import (
    Interval,
    OrderedMorphism,
    Word,
    all_intervals,
    all_words,
    concat,
    content,
    word_text,
)


def W(text, n=None):
    return Word.parse(text, n)


class TestWordBasics:
    def test_empty_word_is_identity(self):
        assert concat(W("", 2), W("21")) == W("21")
        assert concat(W("21"), W("", 2)) == W("21")

    def test_concat(self):
        assert concat(W("12", 3), W("3")) == W("123")
        assert concat(W("31"), W("2", 3)) == W("312")

    def test_concat_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            concat(W("12", 2), W("12", 3))

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            Word((0,), 3)
        with pytest.raises(ValueError):
            Word((4,), 3)

    def test_content(self):
        assert content(W("1243")) == (1, 1, 1, 1)
        assert content(W("", 3)) == (0, 0, 0)
        assert content(W("121")) == (2, 1)

    def test_text_format_digits(self):
        assert str(W("1243")) == "1243"
        assert str(Word((), 1)) == ""

    def test_text_format_commas_above_nine(self):
        w = Word((10, 2, 11), 11)
        assert str(w) == "10,2,11"
        assert Word.parse("10,2,11") == w

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Word.parse("1a2")

    @pytest.mark.parametrize("text", ["1a2", "1,,2", "1,2,", "1 2", "-1"])
    def test_parse_error_names_the_word(self, text):
        with pytest.raises(ValueError, match=f"^cannot parse word '{text}'$"):
            Word.parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0", "letter 0 outside alphabet 1..1"),
            ("00", "letter 0 outside alphabet 1..1"),
            ("0,0", "letter 0 outside alphabet 1..1"),
            ("102", "letter 0 outside alphabet 1..2"),
            ("0,-3", "letter 0 outside alphabet 1..1"),
        ],
    )
    def test_parse_names_a_letter_below_one(self, text, message):
        # the alphabet defaults to at least {1}, so the letter is named,
        # not the bound taken from it
        with pytest.raises(ValueError, match=f"^{message}$"):
            Word.parse(text)


@pytest.mark.parametrize(
    "letters, n",
    [((), 1), ((), 10), ((9, 1, 5), 9), ((10, 2, 1), 10), ((1, 2), 10), ((255, 1), 255)],
)
def test_word_text_of_bytes_equals_str_of_word(letters, n):
    assert word_text(bytes(letters), n) == str(Word(letters, n))


def test_content_of_bytes_equals_content_of_word():
    for letters in itertools.product(range(1, 4), repeat=3):
        assert content(bytes(letters), 4) == content(Word(letters, 4))


class TestRestrict:
    def test_restrict_examples(self):
        assert restrict(W("1243"), Interval(1, 2)) == W("12", 4)
        assert restrict(W("3142"), Interval(2, 3)) == W("32", 4)

    def test_full_interval_is_identity(self):
        w = W("3142")
        assert restrict(w, Interval(1, 4)) == w

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_restrict_is_monoid_morphism_exhaustive(self):
        # restrict(uv, I) == restrict(u, I) restrict(v, I), n <= 3, |u|+|v| <= 5
        n = 3
        words = [w for d in range(0, 3) for w in all_words(n, d)]
        intervals = list(all_intervals(n))
        for u, v in itertools.product(words, words):
            for iv in intervals:
                assert restrict(concat(u, v), iv) == concat(restrict(u, iv), restrict(v, iv))


class TestOrderedMorphism:
    def test_apply_examples(self):
        m = OrderedMorphism.from_dict({1: 3, 2: 5}, 5)
        assert apply_morphism(W("12", 2), m) == W("35", 5)
        m2 = OrderedMorphism.from_dict({1: 1, 2: 4}, 4)
        assert apply_morphism(W("212", 2), m2) == Word((4, 1, 4), 4)

    def test_identity(self):
        m = OrderedMorphism.identity(3)
        assert apply_morphism(W("121", 3), m) == W("121", 3)

    def test_letter_outside_source_rejected(self):
        m = OrderedMorphism.from_dict({1: 1}, 3)
        with pytest.raises(ValueError):
            apply_morphism(W("12", 2), m)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            OrderedMorphism(((1, 2), (2, 2)), 3)

    def test_enumeration_count(self):
        # sum over k of C(4,k)^2 = 70 strictly increasing partial maps
        assert sum(1 for _ in all_ordered_morphisms(4, 4)) == 70

    def test_content_relabels_exactly(self):
        for m in all_ordered_morphisms(3, 4):
            mapping = m.mapping()
            for w in all_words(3, 3):
                if not set(w.letters) <= set(mapping):
                    continue
                before = content(w)
                after = content(apply_morphism(w, m))
                for a in range(1, 4):
                    assert after[mapping[a] - 1] == before[a - 1] if a in mapping else True


@given(
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
)
def test_content_additive_under_concat(xs, ys):
    u, v = Word(tuple(xs), 4), Word(tuple(ys), 4)
    cu, cv, cw = content(u), content(v), content(concat(u, v))
    assert cw == tuple(a + b for a, b in zip(cu, cv))


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
def test_morphism_preserves_order_relations(xs):
    # strict monotonicity: images compare exactly as the sources do
    w = Word(tuple(xs), 3)
    m = OrderedMorphism.from_dict({1: 2, 2: 4, 3: 5}, 5)
    img = apply_morphism(w, m)
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) == (img[i] < img[j])
            assert (w[i] == w[j]) == (img[i] == img[j])
