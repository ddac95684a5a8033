"""Pattern relations, class closure, and the congruence invariants."""

import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    all_ordered_morphisms,
    apply_morphism,
    classes_by_instantiate,
    instantiate,
    kernel_classes,
    restrict,
)
from placto import _kernels, rewrite
from placto.algebra import NcPoly, project_quotient
from placto.rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Congruence,
    Relation,
    RelationSet,
    canonical_bytes,
    canonical_word,
    class_dump,
    closure_bytes,
    equiv_class,
    equivalent,
    relation_instances,
    verify_factorization,
)
from placto.tableaux import (
    ShiftedTableau,
    _shssyt_rows,
    enumerate_ssyt,
    is_primed,
    least_plactic_word,
    partitions,
    schensted_rows,
    shifted_standard_count,
    standard_count,
    strict_partitions,
)
from placto.words import (
    Interval,
    Word,
    all_intervals,
    all_words,
    concat,
    content,
    word_text,
)

K1, K2 = KNUTH.relations
SP = {rel.name: rel for rel in SHIFTED_KNUTH.relations}


def W(text, n=None):
    return Word.parse(text, n)


class TestInstantiate:
    def test_k1_hit(self):
        assert instantiate(K1, W("132")) == W("312")

    def test_k1_miss_on_increasing_word(self):
        assert instantiate(K1, W("123")) is None

    def test_sp1_hit(self):
        assert instantiate(SP["SP.1"], W("1243")) == W("1423")

    def test_wrong_window_length(self):
        assert instantiate(K1, W("13")) is None

    def test_equalities_respected(self):
        # K.1 allows a = b but not b = c
        assert instantiate(K1, W("121")) == W("211")
        assert instantiate(K1, W("122")) is None


def neighbors(word: Word, rels: RelationSet) -> frozenset[Word]:
    """The words one relation application away, by the byte kernel."""
    out = _kernels._grow([word.to_bytes()], rels.congruence.table, {}, set())
    return frozenset(Word.from_bytes(b, word.n) for b in out)


class TestNeighborsAndClasses:
    def test_neighbors_knuth(self):
        assert neighbors(W("312"), KNUTH) == frozenset({W("132")})
        assert neighbors(W("123"), KNUTH) == frozenset()

    def test_neighbors_shifted(self):
        assert W("1423") in neighbors(W("1243"), SHIFTED_KNUTH)

    def test_equiv_class_examples(self):
        assert equiv_class(W("312"), KNUTH) == frozenset({W("312"), W("132")})
        assert equiv_class(W("213"), KNUTH) == frozenset({W("213"), W("231")})
        assert equiv_class(W("12"), SHIFTED_KNUTH) == frozenset({W("12")})

    def test_equivalent(self):
        assert equivalent(W("1243"), W("1423"), SHIFTED_KNUTH)
        assert not equivalent(W("12"), W("21"), KNUTH)
        w = W("3142")
        assert equivalent(w, w, SHIFTED_KNUTH)

    def test_canonical_is_lex_least(self):
        assert canonical_word(W("312"), KNUTH) == W("132")

    def test_class_dump_shape(self):
        dump = class_dump(W("1243"), SHIFTED_KNUTH)
        assert dump == {
            "word": "1243",
            "relation_set": "shifted-knuth",
            "class": ["1243", "1423"],
            "size": 2,
        }

    def test_class_dump_cap_of_a_shipped_set(self, monkeypatch):
        # the size comes from the shape of the tableau: no class is closed
        monkeypatch.setattr(rewrite._kernels, "closure", None)
        assert class_dump(W("1243"), SHIFTED_KNUTH, cap=2)["size"] == 2
        with pytest.raises(ValueError, match="shifted-knuth class of this word has 2 members"):
            class_dump(W("1243"), SHIFTED_KNUTH, cap=1)

    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_class_of_more_than_255_letters(self, rels):
        """A one-member class is the word at any length.  A larger class of a
        word of more than 255 letters is refused, as the kernel refuses the
        word, before reverse insertion would recurse once per letter; a cap
        it exceeds is still reported first."""
        cong = rels.congruence
        row = bytes([1] * 1100 + [2])
        assert cong.members(row) == [row] and cong.canonical(row) == row
        # 1...121 of k + 2 letters has a class of k or k + 1 members
        listed = cong.members(bytes([1] * 253 + [2, 1]))
        assert len(set(listed)) >= 253
        for k in (254, 297, 1098):
            word = Word.from_bytes(bytes([1] * k + [2, 1]), 2)
            with pytest.raises(ValueError, match="^word longer than 255 letters$"):
                class_dump(word, rels)
            with pytest.raises(ValueError, match=f"^the {rels.name} class of this word has"):
                class_dump(word, rels, cap=10)


class TestFactorization:
    def test_shifted_refines_knuth_at_4_4(self):
        assert verify_factorization(4, 4)

    def test_single_letter_alphabet_vacuous(self):
        assert verify_factorization(1, 4)

    def test_explicit_sp1_instance_has_knuth_chain(self):
        # suffix 243 ~ 423 is a single K.1 move
        assert instantiate(K1, W("243")) == W("423")
        assert equivalent(W("1243"), W("1423"), KNUTH)

    def test_relation_instance_counts(self):
        # chain a<=b<c over {1..3}: (a,b,c) in {112, 113, 123, 223} -> 4
        assert sum(1 for _ in relation_instances(K1, 3)) == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relation_instances_are_byte_pairs(self, n):
        """Each instance is a (left, right) pair of byte words over {1..n},
        one per assignment that obeys the chain, found by filtering every
        assignment of letters to the variables."""
        for rel in KNUTH.relations + SHIFTED_KNUTH.relations:
            variables, strict = rel.variables(), rel.strict_flags()
            expected = []
            for values in itertools.product(range(1, n + 1), repeat=len(variables)):
                steps = zip(values, values[1:], strict)
                if all(a < b if s else a <= b for a, b, s in steps):
                    value = dict(zip(variables, values))
                    expected.append(
                        (bytes(map(value.get, rel.left)), bytes(map(value.get, rel.right)))
                    )
            got = list(relation_instances(rel, n))
            assert all(type(left) is type(right) is bytes for left, right in got)
            assert got == expected


def _classes(rels, n, max_degree):
    for degree in range(1, max_degree + 1):
        seen = set()
        for w in all_words(n, degree):
            if w in seen:
                continue
            cls = equiv_class(w, rels)
            seen |= cls
            yield cls


@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
def test_content_conserved_on_classes(rels):
    for cls in _classes(rels, 4, 6):
        assert len({content(w) for w in cls}) == 1


def test_congruence_under_concatenation():
    # if u1 ~ u2 and v1 ~ v2 then u1 v1 ~ u2 v2; all pairs of degree <= 3, n = 3
    words = [w for d in range(1, 4) for w in all_words(3, d)]
    for u1 in words:
        for u2 in equiv_class(u1, KNUTH):
            for v1 in words:
                for v2 in equiv_class(v1, KNUTH):
                    assert equivalent(concat(u1, v1), concat(u2, v2), KNUTH)


@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
def test_ordered_morphism_stability(rels):
    # w1 ~ w2 implies their images under any ordered morphism are equivalent
    morphisms = [m for m in all_ordered_morphisms(4, 4) if m.pairs]
    for cls in _classes(rels, 4, 5):
        members = sorted(cls, key=lambda w: w.letters)
        base = members[0]
        support = set(base.letters)
        for m in morphisms:
            if not support <= m.source:
                continue
            image_classes = {canonical_word(apply_morphism(w, m), rels) for w in members}
            assert len(image_classes) == 1


def test_restriction_stability_knuth():
    # w1 ~ w2 (Knuth) implies the interval restrictions are Knuth-equivalent
    intervals = list(all_intervals(4))
    for cls in _classes(KNUTH, 4, 5):
        members = sorted(cls, key=lambda w: w.letters)
        for iv in intervals:
            keys = {canonical_word(restrict(w, iv), KNUTH) for w in members}
            assert len(keys) == 1


def test_restriction_of_shifted_classes_lands_in_knuth():
    # shifted-equivalent words restrict to Knuth-equivalent words (not
    # necessarily shifted-equivalent ones)
    intervals = list(all_intervals(4))
    for cls in _classes(SHIFTED_KNUTH, 4, 5):
        members = sorted(cls, key=lambda w: w.letters)
        for iv in intervals:
            keys = {canonical_word(restrict(w, iv), KNUTH) for w in members}
            assert len(keys) == 1


def test_negative_control_restriction_not_shifted_stable():
    """There are shifted-equivalent words whose restrictions are not
    shifted-equivalent; the first witness appears already at degree 4."""
    u, v = W("1243"), W("1423")
    assert equivalent(u, v, SHIFTED_KNUTH)
    iv = Interval(2, 4)
    ru, rv = restrict(u, iv), restrict(v, iv)
    assert not equivalent(ru, rv, SHIFTED_KNUTH)
    assert equivalent(ru, rv, KNUTH)


class TestCustomRelations:
    def test_from_json(self):
        rels = RelationSet.from_json(
            '[{"left": "ab", "right": "ba", "constraints": "a<b"}]'
        )
        assert rels.name == "custom"
        assert equivalent(W("12"), W("21"), rels)
        assert sorted(str(w) for w in equiv_class(W("231"), rels)) == [
            "123",
            "132",
            "213",
            "231",
            "312",
            "321",
        ]

    def test_empty_relation_set_gives_singleton_classes(self):
        free = RelationSet.custom(())
        assert equiv_class(W("1243"), free) == frozenset({W("1243")})

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            Relation("bad", "ab", "aab", "a<b")

    def test_chain_must_cover_pattern(self):
        with pytest.raises(ValueError):
            Relation("bad", "abc", "cba", "a<b")

    @pytest.mark.parametrize(
        "left, right, variable",
        [("ab", "ba", "c"), ("bc", "cb", "a")],
        ids=["after-the-used", "before-the-used"],
    )
    def test_chain_variable_unused_by_patterns_rejected(self, left, right, variable):
        # the kernel would read the unused variable as 0: with c unused, 12 ~ 21
        # never applied although relation_instances listed it; with a
        # unused, a < b was dropped and 12 ~ 21 held with no instance b = 1
        with pytest.raises(ValueError, match=f"^bad: chain variable '{variable}' is in neither"):
            Relation("bad", left, right, "a<b<c")

    @pytest.mark.parametrize(
        "chain, message",
        [("a<<b", "cannot parse constraint chain"), ("a<b<a", "repeated variable in chain")],
    )
    def test_a_malformed_chain_is_refused_on_every_call(self, chain, message):
        # parsed chains are cached by their text, and a failed parse is not
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                Relation("bad", "ab", "ba", chain)

    def test_each_chain_text_is_parsed_once(self, monkeypatch):
        parsed = []
        real = rewrite._CHAIN_RE

        class Counted:
            def match(self, chain):
                parsed.append(chain)
                return real.match(chain)

        monkeypatch.setattr(rewrite, "_CHAIN_RE", Counted())
        rewrite._parse_chain.cache_clear()
        rels = [Relation("K.1", "acb", "cab", "a<=b<c") for _ in range(2)]
        for rel in rels:
            assert rel.variables() == ("a", "b", "c")
            assert rel.strict_flags() == (False, True)
            assert rel.compiled() == ((0, 2, 1), (2, 0, 1), (False, True))
        assert parsed == ["a<=b<c"]

    def test_relations_compare_hash_and_pickle_by_their_fields(self):
        one, other = (Relation("K.1", "acb", "cab", "a<=b<c") for _ in range(2))
        assert one == other == KNUTH.relations[0]
        assert hash(one) == hash(other) == hash(KNUTH.relations[0])
        clone = pickle.loads(pickle.dumps(one))
        assert clone == one and hash(clone) == hash(one) and clone.compiled() == one.compiled()
        # the same variables and flags, spelt otherwise: another relation
        spaced = Relation("K.1", "acb", "cab", "a <= b < c")
        assert spaced != one and spaced.compiled() == one.compiled()


class TestCongruence:
    @staticmethod
    def _words(n, degree):
        return [bytes(ls) for ls in itertools.product(range(1, n + 1), repeat=degree)]

    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_partition_complete_after_canonical_lookups(self, rels):
        words = self._words(3, 5)
        cong = Congruence(rels)
        for w in words[::7]:
            cong.canonical(w)
        classes = tuple(cong.classes(3, 5))
        assert sorted(m for cls in classes for m in cls) == words
        assert classes == tuple(Congruence(rels).classes(3, 5))
        for cls in classes:
            assert all(cong.canonical(m) == cls[0] for m in cls)

    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_partition_records_nothing_in_the_memo(self, monkeypatch, rels):
        """A scan of a shipped set lists insertion fibers: it closes no
        class and leaves the memo as it found it."""
        cong = Congruence(rels)
        calls = []
        real = rewrite._kernels.closure

        def counting(word, table):
            calls.append(word)
            return real(word, table)

        monkeypatch.setattr(rewrite._kernels, "closure", counting)
        list(cong.classes(3, 5))
        assert calls == [] and cong.memo == {}

    def test_partition_equals_breadth_first_classes_custom(self):
        rels = RelationSet.custom(
            [Relation("C.1", "bac", "bca", "a<b<c"), Relation("C.2", "aab", "aba", "a<b")]
        )
        for degree in range(1, 6):
            bfs = {closure_bytes(rels, w) for w in self._words(3, degree)}
            classes = tuple(rels.congruence.classes(3, degree))
            assert {frozenset(cls) for cls in classes} == bfs
            assert all(list(cls) == sorted(cls) for cls in classes)

    # the scales the benchmark runs: axioms n=3 d=9, n=5 d=6, section5 n=7 d=4
    @pytest.mark.parametrize("n, top", [(3, 9), (5, 6), (7, 4)])
    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_keyed_partition_equals_kernel_classes(self, rels, n, top):
        cong = Congruence(rels)
        for degree in range(top + 1):
            assert tuple(cong.classes(n, degree)) == kernel_classes(rels, n, degree)

    def test_route_follows_the_relation_set(self, monkeypatch):
        calls = []
        real = rewrite._kernels.closure

        def counting(word, *args):
            calls.append(word)
            return real(word, *args)

        monkeypatch.setattr(rewrite._kernels, "closure", counting)
        list(Congruence(KNUTH).classes(3, 4))
        list(Congruence(SHIFTED_KNUTH).classes(3, 4))
        assert calls == []
        # the Knuth relations under another name are a custom set: it keys a
        # class by its least member and closes each class of degree 0..4 once
        custom = RelationSet.custom(KNUTH.relations)
        cong = Congruence(custom)
        assert (cong.key, cong.count) == (cong.canonical, None)
        levels = [tuple(cong.classes(3, d)) for d in range(5)]
        assert levels[-1] == tuple(Congruence(KNUTH).classes(3, 4))
        assert len(calls) == sum(len(classes) for classes in levels)

    def test_one_congruence_per_relation_set(self):
        assert KNUTH.congruence is KNUTH.congruence

    def test_an_equal_relation_set_owns_another_congruence(self):
        # an equal copy shares no memo, yet a copy of a shipped set still
        # keys its classes by insertion
        copy = RelationSet("knuth", KNUTH.relations).congruence
        assert copy is not KNUTH.congruence
        assert copy.memo is not KNUTH.congruence.memo
        assert copy.count is not None

    # the scales the benchmark runs: axioms n=3 d=9, n=5 d=6, section5 n=7 d=4
    @pytest.mark.parametrize("n, top", [(3, 9), (5, 6), (7, 4)])
    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_walk_equals_kernel_classes(self, rels, n, top):
        cong = Congruence(rels)
        levels = [tuple(cong.classes(n, d)) for d in range(top + 1)]
        assert levels == [kernel_classes(rels, n, d) for d in range(top + 1)]
        assert tuple(cong.classes(n, top)) == levels[-1]

    def test_custom_partitions_close_each_degree(self, monkeypatch):
        calls = []
        real = rewrite._kernels.closure

        def counting(word, *args):
            calls.append(len(word))
            return real(word, *args)

        monkeypatch.setattr(rewrite._kernels, "closure", counting)
        rels = RelationSet.custom(KNUTH.relations)
        cong = Congruence(rels)
        levels = [tuple(cong.classes(3, d)) for d in range(6)]
        assert levels == [tuple(Congruence(KNUTH).classes(3, d)) for d in range(6)]
        # one closure per class of each degree 0..5, the empty word's included
        assert sorted(calls) == [d for d, classes in enumerate(levels) for _ in classes]

    def test_custom_classes_record_nothing_in_the_memo(self):
        """A scan closes the classes of a custom set but records none of
        them: only `canonical` fills the memo."""
        cong = Congruence(RelationSet.custom(KNUTH.relations))
        for degree in range(6):
            list(cong.classes(3, degree))
        assert cong.memo == {}

    @pytest.mark.parametrize(
        "rels",
        [KNUTH, SHIFTED_KNUTH, RelationSet.custom(SHIFTED_KNUTH.relations)],
        ids=["knuth", "shifted-knuth", "custom"],
    )
    def test_scan_lists_each_class_once(self, monkeypatch, rels):
        """One listing per class: one closure per least member for a custom
        set, one fiber per tableau of a class of more than one member for
        the shipped sets."""
        n, top = 3, 7
        cong = Congruence(rels)
        calls = []
        if cong.fiber is None:
            real = rewrite._kernels.closure
            monkeypatch.setattr(
                rewrite._kernels, "closure", lambda w, *args: calls.append(w) or real(w, *args)
            )
        else:
            fiber = cong.fiber
            cong.fiber = lambda rows: calls.append(rows) or fiber(rows)
        classes = [cls for d in range(top + 1) for cls in cong.classes(n, d)]
        assert len(set(calls)) == len(calls)
        if cong.fiber is None:
            assert calls == [cls[0] for cls in classes]
        else:
            # a class of one member is the word, listed without its fiber:
            # a weakly increasing word, or 321, a column under KNUTH
            assert (b"\x03\x02\x01",) in classes
            assert calls == [cong.key(cls[0]) for cls in classes if len(cls) > 1]


@st.composite
def _custom_relation_sets(draw):
    """1-3 relations, each with patterns of 2-4 letters over 2-4 variables
    (every variable used) and a random chain of < and <=."""
    relations = []
    for i in range(draw(st.integers(1, 3))):
        length = draw(st.integers(2, 4))
        k = draw(st.integers(2, length))
        variables = "abcd"[:k]
        extra = draw(st.lists(st.sampled_from(variables), min_size=length - k, max_size=length - k))
        left = "".join(draw(st.permutations(variables + "".join(extra))))
        right = "".join(draw(st.permutations(left)))
        ops = draw(st.lists(st.sampled_from(["<", "<="]), min_size=k - 1, max_size=k - 1))
        chain = variables[0] + "".join(op + v for op, v in zip(ops, variables[1:]))
        relations.append(Relation(f"R.{i + 1}", left, right, chain))
    return RelationSet.custom(relations)


@settings(deadline=None)
@given(rels=_custom_relation_sets(), n=st.integers(1, 4), degree=st.integers(0, 5))
def test_custom_walk_equals_classes_by_instantiate(rels, n, degree):
    """The scan of a custom set gives, level for level, the classes that
    breadth-first closure of each word by `oracles.instantiate` gives,
    which shares no code with the kernel."""
    cong = Congruence(rels)
    for k in range(degree + 1):
        assert tuple(cong.classes(n, k)) == classes_by_instantiate(rels, n, k)


@given(st.data())
def test_translate_deletions_restrict(data):
    n = data.draw(st.integers(1, 8))
    w = Word(tuple(data.draw(st.lists(st.integers(1, n), max_size=12))), n)
    # intervals may reach past either end of {1..n}, or miss it
    lo = data.draw(st.integers(-3, n + 3))
    iv = Interval(lo, data.draw(st.integers(lo, n + 3)))
    outside = bytes(a for a in range(1, n + 1) if a not in iv)
    restricted = w.to_bytes().translate(None, outside)
    assert Word.from_bytes(restricted, n) == restrict(w, iv)


# the hook length counts under test, by the names the tests below use
_standard_count = standard_count
_shifted_standard_count = shifted_standard_count


@pytest.mark.parametrize("size", range(7))
def test_hook_formulas_count_standard_tableaux(size):
    for shape in partitions(size):
        standard = [
            t for t in enumerate_ssyt(shape, size) if len(set(t.reading_letters())) == size
        ]
        assert len(standard) == _standard_count(shape)
    for shape in strict_partitions(size):
        standard = [
            t
            for t in map(ShiftedTableau, _shssyt_rows(shape, size))
            if len({x for row in t.rows for x in row if not is_primed(x)}) == size
        ]
        assert len(standard) == _shifted_standard_count(shape)


@settings(deadline=None)
@pytest.mark.parametrize(
    "rels, count",
    [(KNUTH, _standard_count), (SHIFTED_KNUTH, _shifted_standard_count)],
    ids=["knuth", "shifted-knuth"],
)
@given(data=st.data())
def test_closure_is_insertion_fiber(rels, count, data):
    """Beyond exhaustive scale: every member of the closure has the word's
    insertion key, and the closure has as many members as the fiber (one per
    standard recording tableau), so closure and fiber coincide.  The canonical
    representative is the least member, and canonicalizing it again is a no-op."""
    n = data.draw(st.integers(1, 6))
    w = bytes(data.draw(st.lists(st.integers(1, n), max_size=9)))
    key = rels.congruence.key
    target = key(w)
    members = closure_bytes(rels, w)
    assert all(key(m) == target for m in members)
    assert len(members) == count(tuple(len(row) for row in target))
    least = canonical_bytes(rels, w)
    assert least == min(members)
    assert canonical_bytes(rels, least) == least


# ---------------------------------------------------------------------------
# least class members of the shipped sets, against breadth-first closure


def _closure_least(w, rels=KNUTH):
    return min(rewrite._kernels.closure(w, rels.congruence.table))


def test_knuth_canonical_equals_closure_minimum_exhaustive():
    """Every word over {1..4} of length at most 6 (which covers n <= 4)."""
    cong = Congruence(KNUTH)
    for degree in range(7):
        for letters in itertools.product(range(1, 5), repeat=degree):
            w = bytes(letters)
            assert cong.canonical(w) == _closure_least(w), w


def test_shifted_canonical_equals_closure_minimum_exhaustive():
    """Every word over {1..3} of length at most 6: the least member of the
    listed fiber is the least member of the closure."""
    cong = Congruence(SHIFTED_KNUTH)
    for degree in range(7):
        for letters in itertools.product(range(1, 4), repeat=degree):
            w = bytes(letters)
            assert cong.canonical(w) == _closure_least(w, SHIFTED_KNUTH), w


@settings(deadline=None)
@given(data=st.data())
def test_knuth_canonical_equals_closure_minimum(data):
    n = data.draw(st.integers(1, 8))
    w = bytes(data.draw(st.lists(st.integers(1, n), max_size=10)))
    assert Congruence(KNUTH).canonical(w) == _closure_least(w)


@settings(deadline=None)
@given(st.integers(0, 8).flatmap(lambda k: st.permutations(range(1, k + 1))))
def test_knuth_canonical_of_permutation_equals_closure_minimum(perm):
    w = bytes(perm)
    assert Congruence(KNUTH).canonical(w) == _closure_least(w)


def test_only_custom_canonical_closes_and_memoizes(monkeypatch):
    """`KNUTH` reads the least member off the tableau and `SHIFTED_KNUTH`
    lists the fiber: neither closes a class or records a word.  A custom set
    closes each class it misses and records every member."""
    calls = []
    real = rewrite._kernels.closure

    def counting(word, *args):
        calls.append(word)
        return real(word, *args)

    monkeypatch.setattr(rewrite._kernels, "closure", counting)
    words = [bytes(ls) for ls in itertools.product(range(1, 4), repeat=4)]
    for rels in (KNUTH, SHIFTED_KNUTH):
        cong = Congruence(rels)
        for w in words:
            cong.canonical(w)
        assert calls == [] and cong.memo == {}
    cong = Congruence(RelationSet.custom(KNUTH.relations))
    assert cong.least is None and cong.fiber is None
    for w in words:
        cong.canonical(w)
    assert sorted(cong.memo) == words
    assert len(calls) == len(set(cong.memo.values()))  # one closure per class


@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
def test_shipped_lookups_record_nothing(monkeypatch, rels):
    """`canonical_word`, `QuotientPoly.coefficient` and a projection with a
    class whose terms do not cancel leave the shipped memo empty and close
    no class."""
    calls = []
    real = rewrite._kernels.closure
    monkeypatch.setattr(
        rewrite._kernels, "closure", lambda w, *args: calls.append(w) or real(w, *args)
    )
    cong = rels.congruence
    assert cong.memo == {}
    words = [bytes(ls) for ls in itertools.product(range(1, 5), repeat=5)][::37]
    for w in words:
        least = canonical_word(Word.from_bytes(w, 4), rels).to_bytes()
        assert least == min(real(w, cong.table))
    p = NcPoly(4, 5, {w: 1 for w in words})
    q = project_quotient(p, rels)
    assert q.terms and sum(q.terms.values()) == len(words)
    assert all(q.coefficient(w) >= 1 for w in words)
    assert calls == [] and cong.memo == {}


@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=["knuth", "shifted-knuth"])
def test_equivalent_needs_no_least_word_or_closure(monkeypatch, rels):
    """The shipped sets compare class keys: with every route to a class
    member made to raise, `equivalent` still agrees with closure membership
    on every pair of words with n <= 3 and degree <= 5."""
    words = [
        Word(letters, n)
        for n in range(1, 4)
        for degree in range(6)
        for letters in itertools.product(range(1, n + 1), repeat=degree)
    ]
    classes = {w: closure_bytes(rels, w.to_bytes()) for w in words}

    def refuse(*args):
        raise AssertionError("equivalent computed a class member")

    monkeypatch.setattr(KNUTH.congruence, "least", refuse)
    monkeypatch.setattr(rewrite._kernels, "closure", refuse)
    monkeypatch.setattr(Congruence, "canonical", refuse)
    for w1 in words:
        for w2 in words:
            if w1.n == w2.n:
                assert equivalent(w1, w2, rels) == (w2.to_bytes() in classes[w1])


def _permutation(length, seed):
    return random.Random(seed).sample(range(1, length + 1), length)


@pytest.mark.parametrize(
    "letters",
    [
        [1, 2] * 127 + [1],
        [random.Random(7).randint(1, 5) for _ in range(255)],
        _permutation(100, 11),
    ],
    ids=["1212-255", "five-letters-255", "permutation-100"],
)
def test_least_plactic_word_of_long_words(letters):
    """Too long to close: the result has the tableau of the word, is no
    greater than the word or its row reading word, and is its own least word."""
    w = bytes(letters)
    start = time.perf_counter()
    least = least_plactic_word(w)
    assert time.perf_counter() - start < 5.0
    rows = schensted_rows(w)
    assert schensted_rows(least) == rows
    assert least <= w
    assert least <= bytes(a for row in reversed(rows) for a in row)
    assert least_plactic_word(least) == least


def test_class_size_from_the_insertion_shape():
    for rels in (KNUTH, SHIFTED_KNUTH):
        cong = rels.congruence
        for letters in itertools.product(range(1, 4), repeat=5):
            w = bytes(letters)
            assert cong.count(tuple(map(len, cong.key(w)))) == len(closure_bytes(rels, w))
    assert RelationSet.custom(KNUTH.relations).congruence.count is None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_members_text_equals_word_text_of_each(data):
    # below ten letters one translation spells every member; from ten up
    # each member is spelled by word_text
    n = data.draw(st.sampled_from(list(range(1, 10)) + [10, 12]))
    member = st.lists(st.integers(1, n), max_size=8).map(bytes)
    members = data.draw(st.lists(member, min_size=1, max_size=6))
    assert rewrite._members_text(members, n) == [word_text(m, n) for m in members]


@pytest.mark.parametrize("n", [*range(1, 10), 10, 12])
def test_members_text_of_the_empty_word(n):
    assert rewrite._members_text([b""], n) == [""]
    assert rewrite._members_text([b"", b"\x01"], n) == ["", "1"]
    assert class_dump(Word((), n), KNUTH)["class"] == [""]


@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
@pytest.mark.parametrize("text, n", [("3142", 4), ("231231", 9), ("10,2,11,1", 12)])
def test_class_dump_spells_each_member_by_word_text(rels, text, n):
    word = Word.parse(text, n)
    dump = class_dump(word, rels)
    members = sorted(closure_bytes(rels, word.to_bytes()))
    assert dump["class"] == [word_text(m, n) for m in members]
    assert dump["size"] == len(members) > 1
