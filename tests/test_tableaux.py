"""Insertion algorithms, shifted tableaux, and hook-word machinery.

Brute-force oracles (subsequence enumeration, independent hook predicate)
are defined here first, or in `oracles.py`, and the library answers are
checked against them.
"""

import gc
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from placto import _kernels, tableaux
from placto.algebra import free_schur, p_schur_poly
from placto.rewrite import KNUTH, SHIFTED_KNUTH, Congruence, equiv_class, equivalent
from placto.tableaux import (
    ShiftedTableau,
    Tableau,
    _hook_recording_rows,
    _hook_words,
    _mixed_insert_encoded,
    _mixed_uninsert_encoded,
    _row_insert,
    _row_uninsert,
    _shssyt_rows,
    _ssyt_rows,
    _uninsert_along,
    enumerate_hook,
    enumerate_ssyt,
    hook_factorization_check,
    hook_word,
    is_hook_word,
    longest_hook_subword,
    mixed_fiber,
    mixed_insert,
    mixed_insert_word,
    mixed_insertion_rows,
    p_tableau,
    partitions,
    reading_word,
    schensted_fiber,
    schensted_rows,
    shifted_ssyt_count,
    shifted_standard_count,
    ssyt_count,
    standard_count,
    strict_partitions,
)
from placto.words import Word, all_words

from oracles import (
    enumerate_hook_by_filter,
    hook_word_by_closure,
    kernel_classes,
    longest_weakly_increasing_subword,
    mixed_insertion_by_cells,
    shifted_standard_count_by_hooks,
    standard_count_by_hooks,
)


def W(text, n=None):
    return Word.parse(text, n)


# --- independent oracles -----------------------------------------------


def _hook_oracle(seq):
    """Hook predicate by trying every split point."""
    for k in range(len(seq) + 1):
        head_ok = all(seq[i] > seq[i + 1] for i in range(k - 1))
        tail_ok = all(seq[i] <= seq[i + 1] for i in range(k, len(seq) - 1))
        if head_ok and tail_ok:
            return True
    return False


def _longest_hook_oracle(seq):
    """Longest hook subword by enumerating all 2^len subsequences."""
    best = 0
    for mask in range(1 << len(seq)):
        sub = [seq[i] for i in range(len(seq)) if mask >> i & 1]
        if len(sub) > best and _hook_oracle(sub):
            best = len(sub)
    return best


def _longest_hook_by_splits(seq):
    """Longest hook subword as the best, over every split point, of the
    longest strictly decreasing subsequence before it plus the longest
    weakly increasing one after it, each by the quadratic dynamic program:
    cubic in the length, so usable on words too long for
    `_longest_hook_oracle`."""

    def longest(part, follows):
        ends = []
        for i, x in enumerate(part):
            ends.append(1 + max([ends[j] for j in range(i) if follows(part[j], x)], default=0))
        return max(ends, default=0)

    return max(
        longest(seq[:k], lambda a, b: a > b) + longest(seq[k:], lambda a, b: a <= b)
        for k in range(len(seq) + 1)
    )


# --- Schensted insertion ------------------------------------------------


class TestSchensted:
    def test_first_insertion(self):
        assert Tableau(schensted_rows((3,))) == Tableau(((3,),))

    def test_bump(self):
        assert Tableau(schensted_rows((3, 1))) == Tableau(((1,), (3,)))

    def test_append(self):
        assert Tableau(schensted_rows((3, 1, 2))) == Tableau(((1, 2), (3,)))

    def test_p_tableau(self):
        assert p_tableau(W("312")) == Tableau(((1, 2), (3,)))
        assert p_tableau(W("", 1)) == Tableau(())

    def test_knuth_equivalent_words_share_tableau(self):
        assert p_tableau(W("132")) == p_tableau(W("312"))

    def test_reading_word(self):
        assert reading_word(Tableau(((1, 2), (3,)))) == W("312")
        assert reading_word(Tableau(((1, 1, 2),))) == W("112")

    def test_reading_word_three_rows(self):
        t = Tableau(((1, 1, 1, 2, 4, 6, 7), (2, 5, 5, 5, 5), (4, 9)))
        assert reading_word(t) == Word((4, 9, 2, 5, 5, 5, 5, 1, 1, 1, 2, 4, 6, 7), 9)

    def test_invalid_tableau_rejected(self):
        with pytest.raises(ValueError):
            Tableau(((1, 2), (1,)))  # column not strictly increasing
        with pytest.raises(ValueError):
            Tableau(((2, 1),))  # row decreasing
        with pytest.raises(ValueError):
            Tableau(((1,), (2, 3)))  # shape not a partition

    def test_reading_word_roundtrip(self):
        # p_tableau(reading_word(T)) == T for every SSYT up to size 5, n = 3
        for size in range(0, 6):
            for shape in partitions(size):
                for t in enumerate_ssyt(shape, 3):
                    assert p_tableau(reading_word(t, 3)) == t

    def test_reading_word_is_knuth_equivalent_to_source(self):
        for w in all_words(3, 5):
            assert equivalent(reading_word(p_tableau(w), 3), w, KNUTH)

    def test_column_count_equals_longest_weakly_increasing_subword(self):
        for w in all_words(4, 5):
            t = p_tableau(w)
            cols = t.shape[0] if t.rows else 0
            assert cols == longest_weakly_increasing_subword(w)


# --- mixed insertion ----------------------------------------------------


class TestMixedInsertion:
    def test_single_letter(self):
        assert mixed_insert_word(W("1")) == ShiftedTableau.from_strings([["1"]])

    def test_two_letters_descending(self):
        # 1 bumps the diagonal 2, which gets primed and lands in column 2
        assert mixed_insert_word(W("21")) == ShiftedTableau.from_strings([["1", "2'"]])

    def test_reference_insertion_trace(self):
        start = ShiftedTableau.from_strings([["1", "3", "6'"], ["4", "7"], ["8"]])
        result = mixed_insert(start, 2)
        assert result == ShiftedTableau.from_strings(
            [["1", "2", "4'", "6'"], ["3", "7"], ["8"]]
        )

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            mixed_insert(ShiftedTableau(()), 0)

    def test_rows_that_are_no_shifted_tableau_can_break_the_shape(self):
        with pytest.raises(ValueError, match="broke the shifted shape"):
            _mixed_insert_encoded([[5, 3, 2], [5, 3], [5]], 1)

    @pytest.mark.parametrize("n, top", [(2, 10), (3, 7), (4, 6), (5, 5)])
    def test_equals_the_oracle_on_every_word(self, n, top):
        for degree in range(top + 1):
            for letters in itertools.product(range(1, n + 1), repeat=degree):
                assert mixed_insertion_rows(letters) == mixed_insertion_by_cells(letters), letters

    def test_equals_the_oracle_on_random_words_of_up_to_255_letters(self):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(1, 255)
            word = bytes(rng.randint(1, n) for _ in range(rng.randint(0, 255)))
            assert mixed_insertion_rows(word) == mixed_insertion_by_cells(word), list(word)

    def test_output_always_valid(self):
        # ShiftedTableau validates all four structural invariants on
        # construction, so building the insertion tableau is itself the check
        for degree in range(0, 8):
            for w in all_words(4, degree):
                t = mixed_insert_word(w)
                assert t.size == degree

    def test_fibers_match_shifted_classes(self):
        for degree in range(1, 6):
            fibers = {}
            for w in all_words(3, degree):
                fibers.setdefault(mixed_insert_word(w), set()).add(w)
            for members in fibers.values():
                w0 = next(iter(members))
                assert equiv_class(w0, SHIFTED_KNUTH) == frozenset(members)

    def test_both_fiber_partitions_at_n4_degree6(self):
        # insertion fibers == rewrite classes for all 4^6 words, both systems
        from placto.verify import _partition_degree

        for rels, insert in ((KNUTH, p_tableau), (SHIFTED_KNUTH, mixed_insert_word)):
            classes = {frozenset(c) for c in _partition_degree(rels, 4, 6)}
            fibers = {}
            for w in all_words(4, 6):
                fibers.setdefault(insert(w), set()).add(w.to_bytes())
            assert classes == {frozenset(v) for v in fibers.values()}

    def test_shifted_tableau_invariants_enforced(self):
        with pytest.raises(ValueError):
            ShiftedTableau.from_strings([["1'"]])  # primed diagonal
        with pytest.raises(ValueError):
            ShiftedTableau.from_strings([["1", "2'", "2'"]])  # primed repeat in row
        with pytest.raises(ValueError):
            ShiftedTableau.from_strings([["1", "2"], ["2"]])  # unprimed repeat in column
        with pytest.raises(ValueError):
            ShiftedTableau.from_strings([["1"], ["2"]])  # shape not strict

    def test_json_serialization(self):
        t = ShiftedTableau.from_strings([["1", "2'"], []][:1])
        assert t.to_json() == {"shape": [2], "rows": [["1", "2'"]]}


# --- hook words ---------------------------------------------------------


class TestHookWords:
    def test_examples(self):
        assert is_hook_word(W("4213"))
        assert is_hook_word(W("12"))
        assert not is_hook_word(W("121"))
        assert is_hook_word(W("321"))
        assert is_hook_word(W("", 1))

    def test_matches_oracle(self):
        for degree in range(0, 6):
            for w in all_words(3, degree):
                assert is_hook_word(w) == _hook_oracle(w.letters)

    def test_every_length_two_word_is_hook(self):
        assert all(is_hook_word(w) for w in all_words(4, 2))

    def test_longest_hook_subword_examples(self):
        assert longest_hook_subword(W("3142")) == 3
        assert longest_hook_subword(W("1234")) == 4  # weakly increasing word
        # 243 is not itself a hook word, so the longest hook subword has
        # length 2 (oracle-checked below)
        assert longest_hook_subword(W("243")) == _longest_hook_oracle((2, 4, 3)) == 2

    def test_longest_hook_subword_matches_oracle_exhaustive(self):
        for degree in range(0, 7):
            for w in all_words(3, degree):
                assert longest_hook_subword(w) == _longest_hook_oracle(w.letters)

    def test_longest_hook_subword_matches_oracle_random_longer(self):
        rng = random.Random(20240811)
        for _ in range(40):
            letters = tuple(rng.randint(1, 5) for _ in range(rng.randint(8, 12)))
            w = Word(letters, 5)
            assert longest_hook_subword(w) == _longest_hook_oracle(letters)

    def test_split_oracle_matches_oracle(self):
        rng = random.Random(34)
        for degree in range(0, 7):
            for w in all_words(3, degree):
                assert _longest_hook_by_splits(w.letters) == _longest_hook_oracle(w.letters)
        for _ in range(40):
            letters = tuple(rng.randint(1, 6) for _ in range(rng.randint(8, 12)))
            assert _longest_hook_by_splits(letters) == _longest_hook_oracle(letters)

    def test_longest_hook_subword_matches_oracle_on_words_of_40_letters_and_more(self):
        rng = random.Random(40)
        for _ in range(60):
            n = rng.randint(1, 30)
            letters = tuple(rng.randint(1, n) for _ in range(rng.randint(40, 80)))
            expected = _longest_hook_by_splits(letters)
            assert longest_hook_subword(letters) == expected
            assert longest_hook_subword(bytes(letters)) == expected
            assert longest_hook_subword(Word(letters, n)) == expected


class TestHookFactorization:
    def test_patterns_from_distinct_letters(self):
        # on letters x < z, the (2,1) hooks are x z y-style words
        assert hook_factorization_check(W("132"), (2, 1))
        assert hook_factorization_check(W("121"), (2, 1))
        assert not hook_factorization_check(W("123"), (2, 1))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hook_factorization_check(W("12"), (2, 1))

    def test_non_strict_shape_rejected(self):
        with pytest.raises(ValueError):
            hook_factorization_check(W("1212"), (2, 2))
        with pytest.raises(ValueError, match="is not a strict partition"):
            _hook_words((2, 2), 3)

    def test_hook_words_refuse_a_word_that_is_no_hook_word(self, monkeypatch):
        # each word read off a tableau is checked at the shape: read off
        # reversed, 132 becomes 231, whose segments 2 and 31 are no hook
        # factorization
        monkeypatch.setattr(
            "placto.tableaux._uninsert_along",
            lambda rows, cells: _uninsert_along(rows, cells)[::-1],
        )
        with pytest.raises(ValueError, match=r"shape \(2, 1\) is no hook word"):
            _hook_words((2, 1), 3)

    def test_enumerate_hook_small(self):
        assert enumerate_hook((2, 1), 2) == {W("121"), W("221")}
        assert enumerate_hook((1,), 3) == {W("1", 3), W("2", 3), W("3", 3)}

    def test_enumerate_hook_distinct_content_count(self):
        # two hook words per 3-subset, one trailing letter each: 8 in all
        words = enumerate_hook((2, 1), 4)
        distinct = {w for w in words if sorted(w.letters) == [1, 2, 3]}
        assert {str(w) for w in distinct} == {"132", "231"}

    @pytest.mark.parametrize(
        "nu,n",
        [
            ((1,), 3),
            ((2,), 3),
            ((2, 1), 3),
            ((3,), 3),
            ((3, 1), 3),
            ((2, 1), 4),
            ((3, 2), 2),
            ((3, 2, 1), 3),
            ((4, 2), 3),
            ((3, 2), 4),
        ],
    )
    def test_generative_matches_filter(self, nu, n):
        assert enumerate_hook(nu, n) == enumerate_hook_by_filter(nu, n)

    def test_unique_hook_word_per_shifted_class_degree_six(self):
        # extends the acceptance check one degree further at n = 4
        from placto.verify import _partition_degree

        shapes = list(strict_partitions(6))
        for cls in _partition_degree(SHIFTED_KNUTH, 4, 6):
            hits = sum(
                1
                for wb in cls
                for nu in shapes
                if hook_factorization_check(Word(tuple(wb), 4), nu)
            )
            assert hits == 1

    def test_hook_words_mixed_insert_to_their_shape(self):
        # the hook words of shape nu are exactly the words whose mixed
        # insertion tableau has shape nu, one per tableau
        for nu in [(2, 1), (3,), (3, 1), (4,)]:
            words = enumerate_hook(nu, 3)
            tableaux = {mixed_insert_word(w) for w in words}
            assert len(tableaux) == len(words)
            assert all(t.shape == nu for t in tableaux)
            assert tableaux == {ShiftedTableau(rows) for rows in _shssyt_rows(nu, 3)}


def _recording(letters, insert=_mixed_insert_encoded) -> tuple[list[list[int]], list[int]]:
    """Insertion rows of a letter sequence, mixed by default, and, for each
    letter, the row of the cell its insertion added (the recording tableau,
    by rows)."""
    rows: list[list[int]] = []
    cells = []
    for a in letters:
        before = list(map(len, rows)) + [0]
        insert(rows, a)
        cells.append(next(r for r, row in enumerate(rows) if len(row) != before[r]))
    return rows, cells


class TestHookWordByReverseInsertion:
    """`hook_word` reads the hook word of a shifted class off its mixed
    tableau by reverse mixed insertion of (P, Q_shape).  These tests check
    that Q_shape is the recording tableau of every hook word of the shape,
    and keep the closure scan as the oracle for the word itself."""

    @pytest.mark.parametrize("n, top", [(4, 7), (5, 5)])
    def test_equals_the_closure_scan_on_every_class(self, n, top):
        # the oracle returns None unless the class holds exactly one hook
        # word, so equality also checks that it does
        cong = Congruence(SHIFTED_KNUTH)
        for degree in range(top + 1):
            for cls in cong.classes(n, degree):
                assert hook_word(mixed_insertion_rows(cls[0])) == hook_word_by_closure(cls[0])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(1, n), max_size=12)))
    def test_equals_the_closure_scan_on_random_words(self, letters):
        word = bytes(letters)
        shifted = SHIFTED_KNUTH.congruence
        assume(shifted.count(tuple(map(len, shifted.key(word)))) <= 4000)
        assert hook_word(mixed_insertion_rows(word)) == hook_word_by_closure(word)

    def test_every_hook_word_records_the_shapes_tableau(self):
        for size in range(1, 8):
            for nu in strict_partitions(size):
                for w in enumerate_hook(nu, 4):
                    assert _recording(w.letters)[1] == _hook_recording_rows(nu), (w, nu)

    def test_uninsertion_along_the_recording_cells_gives_back_the_word(self):
        for degree in range(7):
            for letters in itertools.product(range(1, 5), repeat=degree):
                rows, cells = _recording(letters)
                back = [_mixed_uninsert_encoded(rows, r) for r in reversed(cells)]
                assert tuple(reversed(back)) == letters
                assert rows == []


_FIBERS = [
    (KNUTH, schensted_rows, schensted_fiber),
    (SHIFTED_KNUTH, mixed_insertion_rows, mixed_fiber),
]


class TestInsertionFiber:
    """`insertion_fiber` lists a class from its insertion tableau by reverse
    insertion; the breadth-first closure of the rewrite kernel, which knows
    nothing of tableaux, is the oracle."""

    # the scales the benchmark runs: axioms n=3 d=9, n=5 d=6, section5 n=7 d=4
    @pytest.mark.parametrize("n, top", [(3, 9), (5, 6), (7, 4)])
    @pytest.mark.parametrize("rels, rows, fiber", _FIBERS, ids=["knuth", "shifted-knuth"])
    def test_equals_the_closure_on_every_class(self, rels, rows, fiber, n, top):
        for degree in range(top + 1):
            for cls in kernel_classes(rels, n, degree):
                assert sorted(fiber(rows(cls[0]))) == list(cls), cls[0]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(1, n), max_size=12)),
        st.sampled_from(_FIBERS),
    )
    def test_equals_the_closure_on_random_words(self, letters, route):
        rels, rows, fiber = route
        word = bytes(letters)
        cong = rels.congruence
        assume(cong.count(tuple(map(len, cong.key(word)))) <= 4000)
        listed = fiber(rows(word))
        assert len(listed) == len(set(listed))  # one word per recording tableau
        assert set(listed) == _kernels.closure(word, Congruence(rels).table)

    def test_shifted_class_of_9856_members(self):
        word = bytes(map(int, "7762845173753216"))
        listed = mixed_fiber(mixed_insertion_rows(word))
        assert len(listed) == 9856
        assert set(listed) == _kernels.closure(word, Congruence(SHIFTED_KNUTH).table)

    @pytest.mark.parametrize(
        "letters", [[1] * 200 + [2] * 55, list(range(1, 256))], ids=["1-2", "1-255"]
    )
    @pytest.mark.parametrize("rels, rows, fiber", _FIBERS, ids=["knuth", "shifted-knuth"])
    def test_single_member_classes_of_255_letters(self, rels, rows, fiber, letters):
        # one row of 255 cells: the walk is 255 levels deep with one corner each
        word = bytes(letters)
        assert fiber(rows(word)) == [word]
        assert _kernels.closure(word, Congruence(rels).table) == {word}

    def test_row_uninsertion_along_the_recording_cells_gives_back_the_word(self):
        for degree in range(7):
            for letters in itertools.product(range(1, 5), repeat=degree):
                rows, cells = _recording(letters, _row_insert)
                back = [_row_uninsert(rows, r) for r in reversed(cells)]
                assert tuple(reversed(back)) == letters
                assert rows == []

    @pytest.mark.parametrize(
        "insert, uninsert",
        [(_row_insert, _row_uninsert), (_mixed_insert_encoded, _mixed_uninsert_encoded)],
        ids=["row", "mixed"],
    )
    def test_uninsertion_replaces_only_the_rows_it_changes(self, insert, uninsert):
        """On `list(rows)` of a tableau's row tuples, each uninsertion gives
        back the word's letters, leaves the tableau's tuple as it was and
        keeps every row it does not change as the same object: under row
        uninsertion, every row below r.  Reverse mixed insertion moves left
        along columns, which can reach rows below r."""
        for degree in range(7):
            for letters in itertools.product(range(1, 5), repeat=degree):
                rows, cells = _recording(letters, insert)
                tab = tuple(map(tuple, rows))
                back = []
                for r in reversed(cells):
                    before = [list(row) for row in tab]
                    out = list(tab)
                    back.append(uninsert(out, r))
                    assert [list(row) for row in tab] == before
                    kept = [k for k, row in enumerate(out) if row == tab[k]]
                    assert all(out[k] is tab[k] for k in kept)
                    if uninsert is _row_uninsert:
                        assert set(range(r + 1, len(out))) <= set(kept)
                    tab = tuple(out)
                assert tuple(reversed(back)) == letters
                assert tab == ()

    @pytest.mark.parametrize(
        "fiber", [schensted_fiber, mixed_fiber], ids=["knuth", "shifted-knuth"]
    )
    def test_the_empty_tableau_holds_the_empty_word(self, fiber):
        assert fiber(()) == [b""]

    @staticmethod
    def _stream(seed: int) -> list[bytes]:
        rng = random.Random(seed)
        return [bytes(rng.choices(range(1, 6), k=rng.randint(0, 10))) for _ in range(40)]

    @pytest.mark.parametrize("rels, rows, fiber", _FIBERS, ids=["knuth", "shifted-knuth"])
    def test_memo_kept_across_calls_lists_what_a_cold_memo_lists(self, rels, rows, fiber):
        """The memos live as long as the process: a seeded stream of words
        over {1..5} of degree at most 10, listed twice in shuffled order and
        once more after the memos are cleared, lists each class as the
        closure does and word for word as a cold memo does."""
        stream = self._stream(1)
        table = Congruence(rels).table
        cold = {}
        for word in stream:
            tableaux._clear_fiber_memos()
            cold[word] = fiber(rows(word))
            assert set(cold[word]) == _kernels.closure(word, table), word
        rng = random.Random(2)
        for clear in (False, False, True):
            if clear:
                tableaux._clear_fiber_memos()
            for word in rng.sample(stream, len(stream)):
                assert fiber(rows(word)) == cold[word], word

    @pytest.mark.parametrize("rels, rows, fiber", _FIBERS, ids=["knuth", "shifted-knuth"])
    def test_memos_stay_within_the_budget(self, rels, rows, fiber, monkeypatch):
        """Under a budget of a few KB the memos are cleared in place, not
        replaced, and after every call their charge is within the budget:
        each entry but the empty tableau's, its words' bytes and
        `_FIBER_ENTRY_BYTES`."""
        stream = self._stream(3)
        expected = [fiber(rows(word)) for word in stream]
        monkeypatch.setattr(tableaux, "_FIBER_BUDGET", 4096)
        tableaux._clear_fiber_memos()
        memos = dict(tableaux._fiber_memos)
        charges = []
        for word, listed in zip(stream, expected):
            assert fiber(rows(word)) == listed, word
            charges.append(tableaux._fiber_charged)
            assert charges[-1] <= 4096
            entries = [words for memo in memos.values() for key, words in memo.items() if key]
            assert charges[-1] == sum(map(len, entries)) + len(entries) * tableaux._FIBER_ENTRY_BYTES
            assert all(tableaux._fiber_memos[u] is memo for u, memo in memos.items())
        assert any(b < a for a, b in zip(charges, charges[1:]))  # the memos were cleared

    @pytest.mark.parametrize("rels, rows, fiber", _FIBERS, ids=["knuth", "shifted-knuth"])
    def test_letters_1_and_255_at_n_255(self, rels, rows, fiber):
        # each word of a sub-tableau is held followed by a 0 byte, which no
        # letter is: a class of the least and the greatest letter lists intact
        word = bytes((255, 1, 255, 1, 1, 255, 1, 255))
        listed = fiber(rows(word))
        assert len(listed) > 1 and len(listed) == len(set(listed))
        assert all(len(w) == len(word) for w in listed)
        assert set(listed) == _kernels.closure(word, Congruence(rels).table)


# --- enumerations -------------------------------------------------------


class TestEnumerations:
    def test_ssyt_counts(self):
        assert len(enumerate_ssyt((1, 1), 2)) == 1
        assert {t.rows for t in enumerate_ssyt((2,), 2)} == {((1, 1),), ((1, 2),), ((2, 2),)}

    def test_hook_content_formula_counts_the_enumeration(self):
        # shapes with more rows than n count 0
        for size in range(7):
            for shape in partitions(size):
                for n in range(1, 6):
                    assert ssyt_count(shape, n) == len(enumerate_ssyt(shape, n)), (shape, n)

    def test_hook_content_formula_rejects_a_non_partition(self):
        with pytest.raises(ValueError, match="is not a partition"):
            ssyt_count((1, 2), 3)

    def test_shssyt_shape_2_1_n2(self):
        tableaux = [ShiftedTableau(rows) for rows in _shssyt_rows((2, 1), 2)]
        assert {mixed_insert_word(W("121")), mixed_insert_word(W("221"))} == set(tableaux)

    def test_shssyt_all_valid_by_construction(self):
        # construction already validates; spot-check contents
        tabs = [ShiftedTableau(rows) for rows in _shssyt_rows((3, 1), 3)]
        assert len(tabs) == len(set(tabs))
        assert all(t.shape == (3, 1) for t in tabs)

    def test_shssyt_listing_is_every_valid_filling(self):
        """The listing, which fills no cell above the largest tableau, against
        every filling of the cells from the doubled alphabet that is a valid
        shifted tableau; shapes with more rows than n have none."""
        for size in range(6):
            for shape in strict_partitions(size):
                for n in range(1, 4):
                    valid = []
                    for entries in itertools.product(range(1, 2 * n + 1), repeat=size):
                        it = iter(entries)
                        rows = tuple(tuple(itertools.islice(it, length)) for length in shape)
                        try:
                            ShiftedTableau(rows)
                        except ValueError:
                            continue
                        valid.append(rows)
                    assert _shssyt_rows(shape, n) == valid, (shape, n)

    def test_shifted_count_is_the_listing_and_the_coefficient_sum(self):
        for size in range(11):
            for shape in strict_partitions(size):
                for n in range(1, 6):
                    count = shifted_ssyt_count(shape, n)
                    assert count == len(_shssyt_rows(shape, n)), (shape, n)
                    assert count == sum(p_schur_poly(shape, n).terms.values()), (shape, n)

    def test_shifted_count_pins(self):
        assert shifted_ssyt_count((116, 107, 23), 3) == 281232
        assert shifted_ssyt_count((84, 83, 82, 6), 4) == 4868864
        assert shifted_ssyt_count((5, 4, 3), 5) == 14360
        # the diagonal 1 < 2 < ... needs a letter for each row
        assert shifted_ssyt_count((4, 3, 2, 1), 3) == 0
        assert shifted_ssyt_count(tuple(range(22, 0, -1)), 21) == 0
        assert shifted_ssyt_count((), 3) == 1

    def test_standard_count_is_the_hook_formula(self):
        """On every partition of at most 10 cells, one-row and one-column
        shapes included, which are counted without their hooks."""
        for size in range(11):
            for shape in partitions(size):
                assert standard_count(shape) == standard_count_by_hooks(shape), shape
        assert standard_count((255,)) == standard_count((1,) * 255) == 1

    def test_schurs_product_is_the_shifted_hook_formula(self):
        for size in range(31):
            for shape in strict_partitions(size):
                assert shifted_standard_count(shape) == shifted_standard_count_by_hooks(shape), shape

    def test_shifted_count_rejects_a_shape_that_is_not_strict(self):
        for shape in ((2, 2), (1, 2), (3, 0)):
            with pytest.raises(ValueError, match="is not a strict partition"):
                shifted_ssyt_count(shape, 3)

    @pytest.mark.parametrize(
        "listing, args",
        [
            (_ssyt_rows, ((3, 2), 4)),
            (_shssyt_rows, ((3, 1), 3)),
            (_hook_words, ((3, 1), 3)),
            (free_schur, ((2, 1), 3)),
            (schensted_fiber, (schensted_rows(bytes((3, 1, 4, 1, 5, 2))),)),
            (mixed_fiber, (mixed_insertion_rows(bytes((3, 1, 4, 1, 5, 2))),)),
        ],
        ids=["ssyt", "shssyt", "hook", "free_schur", "schensted_fiber", "mixed_fiber"],
    )
    def test_listings_leave_no_reference_cycles(self, listing, args):
        """A listing is freed as soon as its caller drops it, with no wait
        for a cyclic collection."""
        gc.disable()
        try:
            gc.collect()
            assert listing(*args)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_partitions_order(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(strict_partitions(5)) == [(5,), (4, 1), (3, 2)]
