"""Verification harness: tables, case analysis, axioms, replacement checks."""

import collections
import contextlib
import functools
import gc
import itertools
import json
import math
import re
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    all_ordered_morphisms,
    apply_morphism,
    intervals,
    kernel_classes,
    members_by_size,
    restrict,
    restriction_surprise_by_grouping,
    union_find_joins,
)
from placto import _kernels, cli, verify
from placto.algebra import (
    NcPoly,
    commutator_in_quotient,
    free_schur,
    nc_mul,
    shifted_free_schur,
)
from placto.cli import main
from placto.rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Congruence,
    Relation,
    RelationSet,
    closure_bytes,
    relation_instances,
)
from placto.tableaux import schensted_rows
from placto.verify import (
    TABLE_FAMILIES,
    _case_products,
    _forced_matching,
    _forced_matchings,
    restriction_surprise,
    section5_degree3_comparison,
    section5_degree4_comparison,
    section5_free_commutation,
    verify_axioms,
    verify_case_analysis,
    verify_section5,
    verify_tables,
)
from placto.words import (
    Word,
    all_intervals,
    content,
    word_text,
)


class TestTables:
    def test_all_families_pass(self):
        reports = verify_tables()
        assert len(reports) == 12
        assert all(r["pass"] for r in reports)

    def test_family_filter(self):
        reports = verify_tables(family="shifted-2")
        assert {r["pattern"] for r in reports} == {
            "distinct",
            "second-smallest-repeated",
            "biggest-repeated",
            "smallest-repeated",
        }

    def test_distinct_shifted_column(self):
        (report,) = verify_tables(family="shifted-2", pattern="distinct")
        assert report["actual"] == sorted(
            ["2431", "3421", "1432", "3412", "1423", "2413", "1324", "2314"]
        )

    def test_unique_monomial_patterns(self):
        (report,) = verify_tables(family="unshifted-1", pattern="smallest-repeated")
        assert report["expected"] == ["211"]
        (report,) = verify_tables(family="unshifted-1", pattern="biggest-repeated")
        assert report["expected"] == ["212"]

    def test_three_by_one_lists_both_orders(self):
        reports = verify_tables(family="unshifted-3x1-table3", pattern="distinct")
        assert {r["product"] for r in reports} == {"P(3)*P(1)", "P(1)*P(3)"}
        assert all(len(r["expected"]) == 16 for r in reports)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            verify_tables(family="nonesuch")

    def test_expected_sets_invariant_under_relabelling(self):
        # the listings are pattern-level: shifting every letter up by one
        # inside {1..5} must produce exactly the matching product monomials
        from placto.algebra import nc_mul, shifted_free_schur
        from placto.words import OrderedMorphism, Word, content

        shift = OrderedMorphism.from_dict({1: 2, 2: 3, 3: 4, 4: 5}, 5)
        (report,) = verify_tables(family="shifted-2", pattern="distinct")
        expected = {
            apply_morphism(Word.parse(w, 4), shift) for w in report["expected"]
        }
        product = nc_mul(shifted_free_schur((2, 1), 5, 4), shifted_free_schur((1,), 5, 4))
        vec = content(next(iter(expected)))
        assert product.monomials_of_content(vec) == {w.to_bytes() for w in expected}

    def test_each_hook_sum_is_built_once(self, monkeypatch):
        """One call lists the hook words of each (shape, n) once, though
        P(1) over {1..4} is a factor of three families."""
        from placto import algebra

        built = collections.Counter()
        real = algebra._hook_words
        monkeypatch.setattr(
            algebra, "_hook_words", lambda nu, n: built.update([(nu, n)]) or real(nu, n)
        )
        assert all(r["pass"] for r in verify_tables())
        assert built == {((2, 1), 4): 1, ((1,), 4): 1, ((3,), 4): 1}

    def test_family_list_is_stable(self):
        assert TABLE_FAMILIES == (
            "unshifted-1",
            "shifted-2",
            "unshifted-3x1-table3",
            "bcc-table4",
        )


class TestCaseAnalysis:
    def test_shifted_cases(self):
        reports = verify_case_analysis("shifted-knuth")
        assert len(reports) == 24
        assert all(r["pass"] for r in reports)
        # one case per schema and degeneracy pattern
        by_relation = {}
        for r in reports:
            by_relation.setdefault(r["relation"], []).append(r["pattern"])
        assert {k: len(v) for k, v in by_relation.items()} == {
            "SP.1": 4, "SP.2": 4, "SP.3": 2, "SP.4": 2,
            "SP.5": 2, "SP.6": 2, "SP.7": 4, "SP.8": 4,
        }

    def test_knuth_cases(self):
        reports = verify_case_analysis("knuth")
        assert len(reports) == 4
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("relations", ["knuth", "shifted-knuth"])
    def test_each_word_is_keyed_once(self, monkeypatch, relations):
        """The forced matchings and the interval witnesses share one cache
        of Knuth keys."""
        cong = KNUTH.congruence
        counts = collections.Counter()
        monkeypatch.setattr(cong, "key", lambda w, key=cong.key: counts.update([w]) or key(w))
        assert all(r["pass"] for r in verify_case_analysis(relations))
        assert counts
        assert all(c == 1 for c in counts.values())

    def test_survivors_regenerate_relation_right_sides(self):
        for name, rels in (("knuth", KNUTH), ("shifted-knuth", SHIFTED_KNUTH)):
            reports = verify_case_analysis(name)
            by_key = {(r["relation"], r["pattern"]): r for r in reports}
            for rel in rels.relations:
                covered = [r for (name_, _), r in by_key.items() if name_ == rel.name]
                assert covered, rel.name
            for r in reports:
                assert r["survivor"] == r["expected"]

    def test_distinct_sp1_report_details(self):
        reports = verify_case_analysis("shifted-knuth")
        (r,) = [x for x in reports if x["relation"] == "SP.1" and x["pattern"] == "a<b<c<d"]
        assert r["left"] == "1243"
        assert r["survivor"] == "1423"
        assert len(r["candidates"]) == 8
        assert len(r["eliminated"]) == 7
        reasons = {e["word"]: e["reason"] for e in r["eliminated"]}
        # the four words with b before a fall to the [a,b] restriction
        for word in ("2431", "3421", "2413", "2314"):
            assert reasons[word] == "restriction to [1,2]"

    def test_rejects_unknown_relation_set(self):
        with pytest.raises(ValueError):
            verify_case_analysis("nonesuch")


class TestAxioms:
    @pytest.mark.parametrize("target,n,degree", [("plactic", 3, 5), ("shifted-plactic", 3, 5)])
    def test_standard_systems_pass(self, target, n, degree):
        reports = verify_axioms(target, n, degree)
        assert len(reports) == 4
        assert all(r["pass"] for r in reports)
        assert [r["axiom"] for r in reports] == [
            f"{p}.{i}" for p in (["Plac"] if target == "plactic" else ["SPlac"]) for i in range(1, 5)
        ]

    def test_commutative_quotient_satisfies_plactic_axioms(self):
        commutative = RelationSet.custom(
            (__import__("placto").Relation("comm", "ab", "ba", "a<b"),)
        )
        reports = verify_axioms("plactic", 3, 4, relations=commutative)
        assert all(r["pass"] for r in reports)

    def test_free_monoid_fails_commutation_axiom(self):
        free = RelationSet.custom(())
        reports = verify_axioms("plactic", 3, 4, relations=free)
        by_axiom = {r["axiom"]: r for r in reports}
        assert by_axiom["Plac.1"]["pass"]  # singleton classes are content-constant
        assert not by_axiom["Plac.2"]["pass"]  # the two sums do not commute freely

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            verify_axioms("nonesuch", 3, 4)


@settings(max_examples=75, deadline=None)
@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=["knuth", "shifted-knuth"])
@given(data=st.data())
def test_axioms_3_and_4_beyond_exhaustive_scale(rels, data):
    """Random classes of 7-12 letters over {1..n}, n <= 8: an order-preserving
    relabelling of a class into {1..255} lands in one class (axiom 3), and
    the restrictions of its members to each interval share one Knuth class
    (axiom 4, whose target is the Knuth quotient for both shipped sets)."""
    n = data.draw(st.integers(2, 8))
    w = bytes(data.draw(st.lists(st.integers(1, n), min_size=7, max_size=12)))
    cong = rels.congruence
    assume(cong.count(tuple(map(len, cong.key(w)))) <= 3000)
    members = closure_bytes(rels, w)
    support = sorted(set(w))
    images = data.draw(st.sets(st.integers(1, 255), min_size=len(support), max_size=len(support)))
    table = bytes.maketrans(bytes(support), bytes(sorted(images)))
    key = cong.key
    assert len({key(m.translate(table)) for m in members}) == 1
    knuth_key = KNUTH.congruence.key
    for _, _, outside in intervals(n):
        assert len({knuth_key(m.translate(None, outside)) for m in members}) == 1


def _reference_axioms(target, n, degree_bound, rels):
    """`verify_axioms` as a plain loop: classes closed breadth-first degree
    by degree, and axioms 3 and 4 checked morphism by morphism and interval
    by interval."""
    system = "Plac" if target == "plactic" else "SPlac"
    cong = rels.congruence
    canon = cong.canonical
    knuth_canon = KNUTH.congruence.canonical
    classes = [cls for d in range(1, degree_bound + 1) for cls in kernel_classes(rels, n, d)]

    def report(axiom, checked, violations):
        return {
            "check": "axiom",
            "axiom": f"{system}.{axiom}",
            "n": n,
            "degree_bound": degree_bound,
            "instances_checked": checked,
            "violations": violations[:20],
            "pass": not violations,
        }

    def name(cls):
        return str(Word.from_bytes(cls[0], n))

    reports = []
    violations = []
    for cls in classes:
        if system == "Plac":
            keys = {bytes(sorted(w)) for w in cls}
        else:
            keys = {knuth_canon(w) for w in cls}
        if len(keys) != 1:
            violations.append({"class_of": name(cls)})
    reports.append(report(1, sum(map(len, classes)), violations))

    schur = free_schur if system == "Plac" else shifted_free_schur
    big = (1, 1) if system == "Plac" else (2, 1)
    com = commutator_in_quotient(
        schur((1,), n, degree_bound), schur(big, n, degree_bound), rels
    )
    nonzero = sorted(str(Word.from_bytes(w, n)) for w in com.terms)
    violations = [] if com.is_zero() else [{"nonzero_terms": nonzero[:10]}]
    reports.append(report(2, 1, violations))

    reports.append(report(3, *_morphism_violations(classes, canon, n)))

    target_canon = canon if system == "Plac" else knuth_canon
    violations = []
    checked = 0
    for cls in classes:
        for iv in all_intervals(n):
            checked += len(cls)
            keys = {target_canon(restrict(Word.from_bytes(w, n), iv).to_bytes()) for w in cls}
            if len(keys) != 1:
                violations.append({"class_of": name(cls), "interval": [iv.lo, iv.hi]})
    reports.append(report(4, checked, violations))
    return reports


def _morphism_violations(classes, canon, n):
    """(instances checked, violations) of axiom 3 morphism by morphism:
    every ordered morphism of {1..n} with nonempty pairs whose source holds
    a class's support, applied to each member."""
    checked = 0
    violations = []
    morphisms = [m for m in all_ordered_morphisms(n, n) if m.pairs]
    for cls in classes:
        for m in morphisms:
            if not set(cls[0]) <= m.source:
                continue
            checked += len(cls)
            images = {canon(apply_morphism(Word.from_bytes(w, n), m).to_bytes()) for w in cls}
            if len(images) != 1:
                violations.append({"class_of": word_text(cls[0], n), "morphism": m.pairs})
    return checked, violations


@st.composite
def _relation_sets(draw):
    """1-3 random relations on 2-4 variables with random chains."""
    relations = []
    for i in range(draw(st.integers(1, 3))):
        variables = "abcd"[: draw(st.integers(2, 4))]
        steps = len(variables) - 1
        ops = draw(st.lists(st.sampled_from(["<", "<="]), min_size=steps, max_size=steps))
        chain = variables[0] + "".join(op + v for op, v in zip(ops, variables[1:]))
        extra = draw(st.lists(st.sampled_from(variables), max_size=4 - len(variables)))
        left = "".join(draw(st.permutations(list(variables) + extra)))
        right = "".join(draw(st.permutations(left)))
        relations.append(Relation(f"r.{i + 1}", left, right, chain))
    return RelationSet.custom(relations, name="random")


@settings(max_examples=40, deadline=None)
@given(rels=_relation_sets(), scale=st.sampled_from([(2, 6), (3, 4), (3, 5), (4, 4)]))
def test_random_sets_are_morphism_stable(rels, scale):
    """Axiom 3 and Plac.1 are decided by lemmas on the relation format:
    random sets pass axiom 3 member by member and morphism by morphism,
    and both systems report it passing with the same instance count; every
    class they walk has one content, and Plac.1 reports a pass with one
    instance per walked member."""
    n, degree = scale
    cong = rels.congruence
    classes = [cls for d in range(1, degree + 1) for cls in cong.classes(n, d)]
    checked, violations = _morphism_violations(classes, cong.canonical, n)
    assert violations == []
    assert all(len({bytes(sorted(w)) for w in cls}) == 1 for cls in classes)
    walked = sum(map(len, classes))
    for target in ("plactic", "shifted-plactic"):
        one, _, three, _ = verify_axioms(target, n, degree, relations=rels)
        assert (three["instances_checked"], three["pass"]) == (checked, True)
        if target == "plactic":
            assert (one["instances_checked"], one["violations"], one["pass"]) == (walked, [], True)


_COMMUTATIVE = RelationSet.custom((Relation("comm", "ab", "ba", "a<b"),))
_CHINESE = RelationSet.custom(
    (Relation("C.1", "cba", "bca", "a<=b<=c"), Relation("C.2", "cba", "cab", "a<=b<=c")),
    name="chinese",
)
_HYPOPLACTIC = RelationSet.custom(
    KNUTH.relations
    + (Relation("H.1", "cadb", "acbd", "a<=b<c<=d"), Relation("H.2", "bdac", "dbca", "a<b<=c<d")),
    name="hypoplactic",
)
_K1 = RelationSet.custom(KNUTH.relations[:1], name="K.1")
_K2 = RelationSet.custom(KNUTH.relations[1:], name="K.2")
_CATALOGUE = [KNUTH, SHIFTED_KNUTH, _CHINESE, _HYPOPLACTIC, _COMMUTATIVE, _K1, _K2]


class TestAxiomViolations:
    """The violation lists, against a plain per-morphism, per-interval loop."""

    @staticmethod
    def _check(target, n, degree, rels, failing=None, passes=None):
        """Compare with `_reference_axioms`; `failing` maps each failing
        axiom to its listed violations, and `passes` spells the pass flags
        of axioms 1-4, P for a pass and - for a failure."""
        reports = verify_axioms(target, n, degree, relations=rels)
        expected = _reference_axioms(target, n, degree, rels)
        assert json.dumps(reports, sort_keys=True) == json.dumps(expected, sort_keys=True)
        if failing is not None:
            assert {r["axiom"]: len(r["violations"]) for r in reports if not r["pass"]} == failing
        if passes is not None:
            assert "".join("P" if r["pass"] else "-" for r in reports) == passes

    @pytest.mark.parametrize("n, listed", [(3, 16), (4, 20)])
    def test_shifted_knuth_under_the_plactic_axioms(self, n, listed):
        self._check("plactic", n, 5, SHIFTED_KNUTH, {"Plac.2": 1, "Plac.4": listed})

    def test_relations_above_the_degree_bound_join_nothing(self):
        # no shifted Knuth relation has degree 3, so every class is a singleton
        self._check("plactic", 3, 3, SHIFTED_KNUTH, {"Plac.2": 1}, passes="P-PP")

    @pytest.mark.parametrize(
        "rels, plac, splac",
        [
            (_HYPOPLACTIC, "PPPP", "-PP-"),
            (_COMMUTATIVE, "PPPP", "-PP-"),
            (_CHINESE, "P-P-", "--P-"),
            (_K1, "P-PP", "P-PP"),
            (_K2, "P-PP", "P-PP"),
        ],
        ids=["hypoplactic", "commutative", "chinese", "K.1", "K.2"],
    )
    @pytest.mark.parametrize("system", ["plactic", "shifted-plactic"])
    def test_catalogue_sets(self, system, rels, plac, splac):
        self._check(system, 4, 5, rels, passes=plac if system == "plactic" else splac)

    def test_commutative_set_under_the_shifted_axioms(self):
        self._check("shifted-plactic", 3, 5, _COMMUTATIVE, {"SPlac.1": 20, "SPlac.4": 20})

    def test_canonical_that_is_not_morphism_stable(self, monkeypatch):
        # each word holding a 3 is its own class key and canonical form:
        # classes with a 3 split, and so do their images under morphisms and
        # restrictions.  The verifier reads the key, the reference the
        # canonical form, and both list the true classes.  Axiom 3 is
        # decided by the lemma, which rests on the relations and not on the
        # key, so the broken key fails the run at axioms 2 and 4
        rels = RelationSet.custom(_COMMUTATIVE.relations, name="unstable")
        cong = rels.congruence
        real = Congruence.canonical

        def unstable(word):
            least = real(cong, word)
            return word if 3 in word else least

        monkeypatch.setattr(cong, "key", unstable)
        monkeypatch.setattr(
            Congruence, "canonical", lambda self, w: unstable(w) if self is cong else real(self, w)
        )
        reports = verify_axioms("plactic", 3, 4, relations=rels)
        expected = _reference_axioms("plactic", 3, 4, rels)
        assert [r["pass"] for r in expected] == [True, False, False, False]
        expected[2].update({"violations": [], "pass": True})
        assert json.dumps(reports, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert [(r["pass"], len(r["violations"])) for r in reports] == [
            (True, 0),
            (False, 1),
            (True, 0),
            (False, 20),
        ]


def _per_member_stable_under(classes, instances, checks, n):
    """`verify._stable_under` with one canonical lookup per member per
    distinct action, whatever the relation instances give: the reference
    for its argument that the instances decide each axiom.  Lists every
    violation."""
    results = []
    for family, target in checks:
        violations = []
        for cls in classes:
            actions, labels = family(verify._support(cls[0]))
            bad = [
                len({target(w.translate(table, delete)) for w in cls}) != 1
                for table, delete in actions
            ]
            if any(bad):
                class_of = word_text(cls[0], n)
                violations.extend(
                    {"class_of": class_of, **label} for label, i in labels() if bad[i]
                )
        results.append(violations)
    return results


@contextlib.contextmanager
def _per_member_oracle():
    """Compare every `_stable_under` call with the per-member reference, on
    the first 20 violations of all the classes; yields, per call, one flag
    per axiom checked (4 for Plac, 1 and 4 for SPlac), set when the axiom
    failed and its violations were listed.  An axiom that holds must have
    made two lookups per relation instance and action on its support whose
    images differ, none where they are equal, and no lookup per class; the
    classes are read once per failing axiom, and never when none fails."""
    reached = []
    real = verify._stable_under

    def compared(classes, instances, checks, n):
        lookups = [[] for _ in checks]
        counted = [
            (family, lambda w, target=target, seen=seen: seen.append(w) or target(w))
            for (family, target), seen in zip(checks, lookups)
        ]
        reads = []
        got = real(lambda: reads.append(True) or classes(), instances, counted, n)
        expected = _per_member_stable_under(list(classes()), instances, checks, n)
        assert got == [violations[:20] for violations in expected]
        assert len(reads) == sum(map(bool, got))
        for (family, _), seen, violations in zip(checks, lookups, got):
            if not violations:
                differ = sum(
                    left.translate(*action) != right.translate(*action)
                    for left, right in instances
                    for action in family(verify._support(left))[0]
                )
                assert len(seen) == 2 * differ
        reached.append(tuple(bool(violations) for violations in got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_stable_under", compared)
        yield reached


@contextlib.contextmanager
def _over_every_letter(n):
    """`verify_axioms` with every relation instance over {1..n} in place of
    one per order type, and axiom 2's sums over all of {1..n} with every
    term of the commutator kept, whatever alphabet it asks for: the oracle
    for the order-type lemma, by which it asks only for the letters that
    every order type fits in and keys one instance and one term per order
    type."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_order_type_instances", lambda rel, m: relation_instances(rel, n))
        mp.setattr(verify, "_packed_commutator", lambda p, q: nc_mul(p, q) - nc_mul(q, p))
        for name in ("free_schur", "shifted_free_schur"):
            real = getattr(verify, name)
            mp.setattr(verify, name, lambda first, m, *rest, real=real: real(first, n, *rest))
        yield


def _decided_over_every_letter(target, n, degree, rels):
    """Assert that `verify_axioms` reports what it reports with its
    instances and sums over all n letters, at an n above the letters that
    it decides over."""
    assert n > max([4] + [len(rel.variables()) for rel in rels.relations])
    reports = verify_axioms(target, n, degree, relations=rels)
    with _over_every_letter(n):
        expected = verify_axioms(target, n, degree, relations=rels)
    assert json.dumps(reports, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _collapsed(rels, name):
    """The relations of `rels` with two variables of a weak step made one:
    their instances are those of `rels` with fewer distinct letters than
    variables."""
    relations = []
    for rel in rels.relations:
        variables, strict = rel.variables(), rel.strict_flags()
        for i in (i for i, s in enumerate(strict) if not s):
            keep, gone = variables[i : i + 2]
            left, right = rel.left.replace(gone, keep), rel.right.replace(gone, keep)
            ops = ["<" if s else "<=" for s in strict[:i] + strict[i + 1 :]]
            rest = [v for v in variables if v != gone]
            chain = rest[0] + "".join(op + v for op, v in zip(ops, rest[1:]))
            relations.append(Relation(f"{rel.name}.{keep}={gone}", left, right, chain))
    return RelationSet.custom(relations, name=name)


# Sets whose verdict changes when fewer letters than their order types need
# are read: the Knuth relations on two letters pass Plac.2 over two letters
# only, the shifted Knuth relations on at most three pass SPlac.2 over three
# only, and SP.1 on four distinct letters passes Plac.4 over three only.
_ORDER_TYPE_SETS = [
    _collapsed(KNUTH, "knuth-on-two-letters"),
    _collapsed(SHIFTED_KNUTH, "shifted-knuth-on-three-letters"),
    RelationSet.custom((Relation("SP.1", "abdc", "adbc", "a<b<c<d"),), name="SP.1-strict"),
]


class TestOrderTypes:
    """A pass decided over the letters that hold every order type of a
    relation instance and of an axiom-2 word reports what the instances
    and sums over all n letters report."""

    @pytest.mark.parametrize("n, degree", [(5, 5), (6, 4), (7, 4)])
    @pytest.mark.parametrize("target", ["plactic", "shifted-plactic"])
    @pytest.mark.parametrize("rels", _CATALOGUE + _ORDER_TYPE_SETS, ids=lambda r: r.name)
    def test_catalogue_sets(self, rels, target, n, degree):
        _decided_over_every_letter(target, n, degree, rels)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        target=st.sampled_from(["plactic", "shifted-plactic"]),
        scale=st.sampled_from([(5, 5), (6, 4), (7, 4)]),
    )
    def test_sets_near_the_catalogue(self, data, target, scale):
        """A catalogue set with relations dropped, relations of another
        catalogue set added, or one step of a chain flipped between < and
        <=."""
        base = data.draw(st.sampled_from(_CATALOGUE))
        relations = list(data.draw(st.lists(st.sampled_from(base.relations), unique=True)))
        other = data.draw(st.sampled_from(_CATALOGUE))
        relations += data.draw(st.lists(st.sampled_from(other.relations), max_size=2))
        if relations and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(relations) - 1))
            rel = relations[i]
            steps = re.findall(r"<=|<", rel.constraints)
            j = data.draw(st.integers(0, len(steps) - 1))
            steps[j] = "<" if steps[j] == "<=" else "<="
            variables = rel.variables()
            chain = variables[0] + "".join(op + v for op, v in zip(steps, variables[1:]))
            relations[i] = Relation(rel.name, rel.left, rel.right, chain)
        rels = RelationSet.custom(relations, name="near")
        _decided_over_every_letter(target, *scale, rels)


class TestOneWordPerBlock:
    """SPlac.1 and axiom 4 decided from the relation instances, against one
    lookup per member; the flags say which axioms failed and had their
    violations listed."""

    @pytest.mark.parametrize("n, degree", [(2, 8), (3, 6), (4, 5)])
    @pytest.mark.parametrize("target", ["plactic", "shifted-plactic"])
    @pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
    def test_shipped_sets(self, rels, target, n, degree):
        with _per_member_oracle() as reached:
            verify_axioms(target, n, degree, relations=rels)
        assert len(reached) == 1

    @pytest.mark.parametrize("n, degree", [(3, 6), (4, 5)])
    @pytest.mark.parametrize("rels", [SHIFTED_KNUTH, _CHINESE], ids=lambda r: r.name)
    def test_sets_failing_the_plactic_interval_axiom(self, rels, n, degree):
        with _per_member_oracle() as reached:
            reports = verify_axioms("plactic", n, degree, relations=rels)
        assert not reports[3]["pass"]
        assert reached == [(True,)]

    @pytest.mark.parametrize(
        "rels, passes",
        [(_COMMUTATIVE, [False, True, True, False]), (_CHINESE, [False, False, True, False])],
        ids=["commutative", "chinese"],
    )
    def test_sets_failing_the_shifted_content_axiom(self, rels, passes):
        # neither set's classes are Knuth classes: SPlac.1 fails, and so
        # does SPlac.4
        with _per_member_oracle() as reached:
            reports = verify_axioms("shifted-plactic", 3, 5, relations=rels)
        assert [r["pass"] for r in reports] == passes
        assert reached == [(True, True)]

    @settings(max_examples=40, deadline=None)
    @given(
        rels=_relation_sets(),
        target=st.sampled_from(["plactic", "shifted-plactic"]),
        scale=st.sampled_from([(2, 6), (3, 4), (3, 5), (4, 4)]),
    )
    def test_random_sets(self, rels, target, scale):
        n, degree = scale
        with _per_member_oracle() as reached:
            verify_axioms(target, n, degree, relations=rels)
        assert len(reached) == 1


def _count_lookups(monkeypatch):
    """Count the class keys that the shipped congruences, made afresh,
    compute: (all keys, keys computed by each `_stable_under` call)."""
    _fresh_congruences(monkeypatch)
    calls = []
    for rels in (KNUTH, SHIFTED_KNUTH):
        cong = rels.congruence
        monkeypatch.setattr(cong, "key", lambda w, key=cong.key: calls.append(w) or key(w))
    per_sweep = []
    stable_under = verify._stable_under

    def counted(*args):
        before = len(calls)
        result = stable_under(*args)
        per_sweep.append(len(calls) - before)
        return result

    monkeypatch.setattr(verify, "_stable_under", counted)
    return calls, per_sweep


def test_axioms_look_up_one_word_per_block(capsys, monkeypatch):
    """The per-member check made 442 873 canonical lookups in this run,
    finding each block by a prefix lookup per member 128 677, and one
    lookup per right block C'·a 44 774; one per group of blocks joined by
    left blocks made 632, as did two per relation instance and action of
    axioms 1, 3 and 4.  With axiom 3 decided by its lemma, and no action
    for a restriction that empties the support, two per instance and
    action of axioms 1 and 4 made 460, besides the lookups that grouped
    the classes of `restriction_surprise`.  Keying each word once per
    run, and `restriction_surprise` only the words of degree 4, computed
    199 keys in all; one instance of each relation pattern with its top
    image, one commutator term per order type, and only the packed words
    of `restriction_surprise` compute 159; keying only the images of an
    instance, and the restrictions of a witness pair, that differ as words
    computes 116."""
    calls, per_sweep = _count_lookups(monkeypatch)
    assert main("verify axioms --n 3 --degree 9".split()) == 0
    capsys.readouterr()
    assert len(calls) == 116 < 159 < 199 < 460
    assert len(per_sweep) == 2


@pytest.mark.parametrize(
    "n, degree, calls_per_block, calls_per_group", [(5, 6, 217_560, 9_036), (4, 7, 111_470, 2_682)]
)
def test_axioms_look_up_one_word_per_joined_group(
    capsys, monkeypatch, n, degree, calls_per_block, calls_per_group
):
    """Canonical lookups of the run with one lookup per right block, and
    with one per group of joined blocks, which two per relation instance
    and action of axioms 1, 3 and 4 matched.  Two per instance and action
    of axioms 1 and 4 made fewer, besides the lookups that grouped the
    classes of `restriction_surprise`.  Deciding over the letters that hold
    every order type, 3 for Plac and 4 for SPlac, computed the same 480
    keys at both scales, `restriction_surprise`'s included; deciding once
    per order type computes 238, and keying only images that differ as
    words 180."""
    calls_per_instance = {(5, 6): 4_156, (4, 7): 1_602}[n, degree]
    calls, per_sweep = _count_lookups(monkeypatch)
    assert main(f"verify axioms --n {n} --degree {degree}".split()) == 0
    capsys.readouterr()
    assert len(calls) == 180 < 238 < 480 < calls_per_instance < calls_per_group
    assert calls_per_group < calls_per_block / 20
    assert len(per_sweep) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ordered_injections_are_the_morphisms_that_apply(n):
    """The ordered morphisms whose source holds a support of k letters act
    on it as order-preserving injections.  Axiom 3 counts them per member
    in closed form, and under both systems the count is that of the
    morphisms with nonempty pairs whose source holds the member's support."""
    morphisms = [m for m in all_ordered_morphisms(n, n) if m.pairs]
    degree = 4
    expected = sum(
        count * sum(1 for m in morphisms if m.source >= set(support))
        for support, count in _members_by_support(n, degree).items()
    )
    for target in ("plactic", "shifted-plactic"):
        three = verify_axioms(target, n, degree)[2]
        assert (three["instances_checked"], three["violations"]) == (expected, [])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_restriction_family_is_the_intervals_that_apply(n):
    """Per support, the restriction family labels, in `oracles.intervals`
    order, exactly the intervals that keep a letter of the support, each
    with the image it gives there, and has one action per distinct image:
    the deletions of `_runs(support)`, in order."""
    family = verify._restrictions(n)
    for k in range(1, n + 1):
        for support in map(bytes, itertools.combinations(range(1, n + 1), k)):
            actions, labels = family(support)
            assert actions == [(None, deleted) for _, _, deleted in verify._runs(support)]
            images = [support.translate(table, delete) for table, delete in actions]
            expected = [
                ({"interval": [lo, hi]}, support.translate(None, outside))
                for lo, hi, outside in intervals(n)
                if support.translate(None, outside)
            ]
            assert [(label, images[i]) for label, i in labels()] == expected
            assert sorted(images) == sorted({image for _, image in expected})


def _first_separating_interval(u, v, class_key, n):
    """(lo, hi, restrictions of u and v) for the first interval of
    `oracles.intervals(n)` whose restrictions have different keys, or None."""
    for lo, hi, outside in intervals(n):
        ru, rv = u.translate(None, outside), v.translate(None, outside)
        if class_key(ru) != class_key(rv):
            return lo, hi, [ru, rv]
    return None


def _witness_over_runs(u, v, class_key):
    """`_interval_witness` over the runs of the support of u, in the form
    of `_first_separating_interval`."""
    witness = verify._interval_witness(u, v, class_key, verify._runs(bytes(sorted(set(u)))))
    if witness is None:
        return None
    lo, hi, deleted = witness
    return lo, hi, [u.translate(None, deleted), v.translate(None, deleted)]


_SHIPPED_KEYS = pytest.mark.parametrize(
    "class_key", [KNUTH.congruence.key, SHIFTED_KNUTH.congruence.key], ids=["knuth", "shifted"]
)


@_SHIPPED_KEYS
def test_interval_witness_over_runs_is_the_first_separating_interval(class_key):
    """On every pair of distinct words of one content over {1..4}, of degree
    at most 4, the witness read off the runs of their support is the first
    interval of {1..4} that separates them, with the same restrictions."""
    for degree in range(1, 5):
        by_content = collections.defaultdict(list)
        for w in map(bytes, itertools.product(range(1, 5), repeat=degree)):
            by_content[bytes(sorted(w))].append(w)
        for words in by_content.values():
            for u, v in itertools.combinations(words, 2):
                expected = _first_separating_interval(u, v, class_key, 4)
                assert _witness_over_runs(u, v, class_key) == expected


@settings(max_examples=150, deadline=None)
@_SHIPPED_KEYS
@given(data=st.data())
def test_interval_witness_over_runs_on_random_supports(class_key, data):
    """The same on random pairs of one content over {1..n}, n <= 12, whose
    supports need not be packed: the witness does not depend on n."""
    n = data.draw(st.integers(1, 12))
    u = bytes(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8)))
    v = bytes(data.draw(st.permutations(u)))
    expected = _first_separating_interval(u, v, class_key, n)
    assert _witness_over_runs(u, v, class_key) == expected


def test_failing_axioms_stop_listing_at_20(monkeypatch):
    """The Chinese set fails Plac.4 at (4, 5), and SPlac.1 and SPlac.4.
    108 classes fail each of these axioms, with 299, 108 and 463
    violations.  Each failing axiom lists its first 20, calling `labels`
    once per failing class until it has them."""
    calls = collections.Counter()

    def counted(axiom, family):
        def wrapped(support):
            actions, labels = family(support)
            return actions, lambda: calls.update([axiom]) or labels()

        return wrapped

    restrictions = verify._restrictions
    monkeypatch.setattr(verify, "_identity", counted(1, verify._identity))
    monkeypatch.setattr(verify, "_restrictions", lambda n: counted(4, restrictions(n)))
    for target, failing, named in (
        ("plactic", {2: 1, 4: 20}, {4: 7}),
        ("shifted-plactic", {1: 20, 2: 1, 4: 20}, {1: 20, 4: 5}),
    ):
        calls.clear()
        reports = verify_axioms(target, 4, 5, relations=_CHINESE)
        assert {int(r["axiom"][-1]): len(r["violations"]) for r in reports if not r["pass"]} == failing
        assert calls == named


def test_singleton_classes_need_no_image_lookup(capsys, monkeypatch):
    calls, per_sweep = _count_lookups(monkeypatch)
    assert main("verify axioms --n 1 --degree 6".split()) == 0
    capsys.readouterr()
    assert per_sweep == [0, 0]
    # axiom 2's sums are zero over one letter; `restriction_surprise`
    # keys the one word of degree 4
    assert calls == [b"\x01" * 4]


def _accepted_degrees(n):
    """The degrees d that `verify axioms --n n --degree d` accepts: at most
    300 000 words, and for n = 1 at most 5 000 000 letters."""
    degree = 0
    with contextlib.suppress(ValueError):
        while True:
            cli._check_sweep("verify axioms", n, range(1, degree + 2))
            degree += 1
    return range(1, degree + 1)


def _members_by_support(n, degree):
    """support -> the words of degree 1..d over {1..n} with exactly its
    letters, as `oracles.members_by_size` counts them: the same number for
    each of the C(n, k) supports of k letters."""
    members = {}
    for k, count in members_by_size(n, degree).items():
        per_support, rest = divmod(count, math.comb(n, k))
        assert rest == 0
        supports = map(bytes, itertools.combinations(range(1, n + 1), k))
        members.update(dict.fromkeys(supports, per_support))
    return members


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_counted_members_are_the_walked_members(n):
    """Per support, the count of the words of degree 1..d with exactly its
    letters is the walk's sum of class sizes, at every accepted degree."""
    degrees = _accepted_degrees(n)
    cong = Congruence(KNUTH)
    walked = {}
    for degree in degrees:
        for cls in cong.classes(n, degree):
            support = verify._support(cls[0])
            walked[support] = walked.get(support, 0) + len(cls)
        assert _members_by_support(n, degree) == walked


def _counts_by_size(n, degree):
    """axiom -> the instances that `verify axioms` reports for axioms 1, 3
    and 4, from the words per support size of `oracles.members_by_size`:
    the members, C(2n - k, n) ordered morphisms per member of a support of
    k letters, and n(n + 1)/2 intervals per member."""
    sizes = members_by_size(n, degree)
    words = sum(sizes.values())
    morphisms = sum(count * math.comb(2 * n - k, n) for k, count in sizes.items())
    return {1: words, 3: morphisms, 4: words * n * (n + 1) // 2}


def test_instance_counts_are_the_counts_by_support_size():
    """The instance counts summed over words equal those summed per support
    size, at every (n, d) that the sweep limit admits for n <= 255, and
    both systems report them, at the largest degrees of a few n and, for
    the plactic half only, at n = 255."""
    for n in range(1, 256):
        for degree in _accepted_degrees(n):
            assert verify._instance_counts(n, degree) == _counts_by_size(n, degree), (n, degree)
    for n, degree in [(1, 3000), (2, 17), (5, 6), (23, 4), (66, 3), (255, 2)]:
        expected = {**_counts_by_size(n, degree), 2: 1}
        for target in ("plactic", "shifted-plactic")[: 1 if n == 255 else 2]:
            reports = verify_axioms(target, n, degree)
            assert {int(r["axiom"][-1]): r["instances_checked"] for r in reports} == expected


def _fresh_congruences(monkeypatch):
    """Drop the congruences that the shipped sets and this module's custom
    sets own, so that the test builds each one afresh."""
    for rels in (KNUTH, SHIFTED_KNUTH, _COMMUTATIVE, _CHINESE, _HYPOPLACTIC):
        monkeypatch.delitem(vars(rels), "congruence", raising=False)


def _count_walks(monkeypatch):
    """Record (congruence, n, degree) per `Congruence.classes` call, on
    fresh congruences."""
    _fresh_congruences(monkeypatch)
    walks = []
    real = Congruence.classes

    def counted(self, n, degree):
        walks.append((self, n, degree))
        return real(self, n, degree)

    monkeypatch.setattr(Congruence, "classes", counted)
    return walks


@pytest.mark.parametrize("n, degree", [(5, 6), (3, 9)])
def test_passing_axioms_walk_only_to_the_lookup_degree(capsys, monkeypatch, n, degree):
    """A passing run decides every axiom by class keys, so there is no
    degree that it looks up in a memo: it walks no class, makes no
    canonical lookup, and leaves both shipped memos empty."""
    walks = _count_walks(monkeypatch)
    canonical = []
    real = Congruence.canonical
    monkeypatch.setattr(
        Congruence, "canonical", lambda self, w: canonical.append(w) or real(self, w)
    )
    assert main(f"verify axioms --n {n} --degree {degree}".split()) == 0
    capsys.readouterr()
    assert walks == [] and canonical == []
    assert KNUTH.congruence.memo == SHIFTED_KNUTH.congruence.memo == {}


@pytest.mark.parametrize("degree", [3, 4])
def test_passing_axioms_key_as_many_words_at_every_n(capsys, degree):
    """Every check of a passing run depends only on order types, which fit
    in 4 letters: the run computes as many class keys at n = 5 as at the
    largest n that the sweep limit admits at its degree."""
    keyed = []
    for n in (5, max(n for n in range(1, 256) if degree in _accepted_degrees(n))):
        with pytest.MonkeyPatch.context() as mp:
            calls, _ = _count_lookups(mp)
            assert main(f"verify axioms --n {n} --degree {degree}".split()) == 0
        capsys.readouterr()
        keyed.append(len(calls))
    assert keyed[0] == keyed[1] > 0


def test_passing_axioms_walk_the_shifted_classes_once(capsys, monkeypatch):
    """`restriction_surprise` lists each shifted class it reads once, from
    its key (`Congruence.fiber`), and walks no class."""
    walks = _count_walks(monkeypatch)
    cong = SHIFTED_KNUTH.congruence
    listed = []
    fiber = cong.fiber
    monkeypatch.setattr(cong, "fiber", lambda rows: listed.append(rows) or fiber(rows))
    assert main("verify axioms --n 5 --degree 6".split()) == 0
    capsys.readouterr()
    assert walks == []
    assert listed and len(set(listed)) == len(listed)


@pytest.mark.parametrize(
    "target, n, degree, reached",
    [("plactic", 4, 5, [4]), ("plactic", 3, 11, [5]), ("shifted-plactic", 3, 5, [5, 5])],
    ids=["plac-4-5", "plac-3-11", "splac-3-5"],
)
def test_failing_axioms_walk_only_to_their_last_listed_degree(
    monkeypatch, target, n, degree, reached
):
    """The Chinese set fails Plac.4 at (4, 5) and (3, 11), and SPlac.1 and
    SPlac.4 at (3, 5).  Each failing axiom walks its classes degree by
    degree, 1, 2, ..., and stops at the degree of its last listed
    violation; the Knuth classes are not walked."""
    walks = _count_walks(monkeypatch)
    reports = verify_axioms(target, n, degree, relations=_CHINESE)
    failing = [r for r in reports if not r["pass"] and r["axiom"][-1] in "14"]
    assert [len(r["violations"][-1]["class_of"]) for r in failing] == reached
    chinese = _CHINESE.congruence
    listed = [(n, d) for top in reached for d in range(1, top + 1)]
    assert [(m, d) for cong, m, d in walks if cong is chinese] == listed
    assert [(m, d) for cong, m, d in walks if cong is not chinese] == []


def test_failing_axiom_reads_only_the_classes_it_lists(monkeypatch):
    """The Chinese set fails only Plac.4 at (66, 3), the largest degree-3
    sweep: the scan of each degree stops at the class of the last listed
    violation, so the axiom reads under 10 000 of the 291 918 words."""
    _fresh_congruences(monkeypatch)
    members = []
    real = Congruence.classes

    def counted(self, n, degree):
        for cls in real(self, n, degree):
            members.append(len(cls))
            yield cls

    monkeypatch.setattr(Congruence, "classes", counted)
    reports = verify_axioms("plactic", 66, 3, relations=_CHINESE)
    assert [r["pass"] for r in reports] == [True, False, True, False]
    assert len(reports[3]["violations"]) == 20
    assert 0 < sum(members) < 10_000


@pytest.mark.parametrize("target, degree", [("shifted-plactic", 3), ("plactic", 2)])
def test_axioms_at_the_least_bound_walk_and_multiply_nothing(monkeypatch, target, degree):
    """At the least bound axiom 2's products lie wholly above it and no
    shipped relation fits within it: the check builds no sum and walks no
    class."""
    walks = _count_walks(monkeypatch)
    sums = []
    for name in ("free_schur", "shifted_free_schur"):
        real = getattr(verify, name)

        def counted(*args, real=real, name=name):
            sums.append((name, args))
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    reports = verify_axioms(target, 5, degree)
    assert [r["pass"] for r in reports] == [True] * 4
    assert walks == [] and sums == []


def _packed_terms(poly):
    """The terms of `poly` whose words are packed: the reference for
    `verify._packed_commutator`, which builds no other term."""
    terms = {w: c for w, c in poly.terms.items() if verify._is_packed(w)}
    return NcPoly(poly.n, poly.degree_bound, terms)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "schur, big", [(free_schur, (1, 1)), (shifted_free_schur, (2, 1))], ids=["plac", "splac"]
)
def test_packed_commutator_keeps_the_packed_terms_of_the_commutator(schur, big, m):
    """Axiom 2's sums over m letters, at the least bound, where both
    products lie above it, and above it."""
    least = sum(big)
    nonzero = 0
    for bound in (least, least + 1, least + 3):
        p, q = schur((1,), m, bound), schur(big, m, bound)
        expected = _packed_terms(nc_mul(p, q) - nc_mul(q, p))
        assert verify._packed_commutator(p, q) == expected
        assert verify._packed_commutator(q, p) == -expected
        nonzero += len(expected.terms)
    assert (nonzero > 0) == (m > 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), bound=st.integers(1, 6))
def test_packed_commutator_of_polynomials_of_nonempty_words(data, n, bound):
    words = st.lists(st.integers(1, n), min_size=1, max_size=bound).map(bytes)
    terms = st.dictionaries(words, st.integers(-3, 3), max_size=6)
    p, q = (NcPoly(n, bound, data.draw(terms)) for _ in range(2))
    assert verify._packed_commutator(p, q) == _packed_terms(nc_mul(p, q) - nc_mul(q, p))


def test_packed_commutator_refuses_a_context_mismatch():
    with pytest.raises(ValueError, match="context mismatch"):
        verify._packed_commutator(free_schur((1,), 3, 4), free_schur((1, 1), 3, 3))


class TestReportOnlyChecks:
    def test_restriction_surprise_finds_witness(self):
        report = restriction_surprise(4, 4)
        assert report["witness_found"]
        assert report["restrictions_knuth_equivalent"]
        assert report["pass"]

    @pytest.mark.parametrize(
        "n, degree", [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (5, 5), (10, 4)]
    )
    def test_restriction_surprise_equals_the_grouping_of_every_word(self, n, degree):
        """The scan of the words over {1..min(n, d)} finds the witness that
        grouping every word over {1..n} into closed classes finds."""
        assert restriction_surprise(n, degree) == restriction_surprise_by_grouping(n, degree)

    def test_restriction_surprise_absent_below_degree_4(self):
        report = restriction_surprise(4, 3)
        assert not report["witness_found"]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_restriction_surprise_looks_nothing_up_below_degree_4(self, monkeypatch, degree):
        """Below the degree of the shortest shifted Knuth relation every
        class is a single word: the report is the absent one, and no class
        is walked or looked up."""
        walks = _count_walks(monkeypatch)
        calls, _ = _count_lookups(monkeypatch)
        report = restriction_surprise(5, degree)
        assert report == {"check": "restriction-surprise", "witness_found": False, "pass": True}
        assert walks == [] and calls == []


_SECTION5_COMPARISONS = [
    (section5_degree3_comparison, free_schur, ((2,), (1, 1)), KNUTH),
    (section5_degree4_comparison, shifted_free_schur, ((3,), (2, 1)), SHIFTED_KNUTH),
]


class TestSection5:
    def test_free_commutation(self):
        assert section5_free_commutation(5)["pass"]

    def test_degree3(self):
        assert section5_degree3_comparison(4)["pass"]

    def test_degree4(self):
        assert section5_degree4_comparison(4)["pass"]

    def test_bundle(self):
        reports = verify_section5(4)
        assert [r["part"] for r in reports] == ["a", "b", "c"]
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("call", [0, 1], ids=["row", "hook"])
    @pytest.mark.parametrize("change", ["drop", "add", "move"])
    def test_degree4_fails_with_one_pair_changed(self, monkeypatch, change, call):
        """Part c fails when the forced pairs of one product, the row sum's
        (call 0) or the hook sum's (call 1), over {1..4} lose a pair, gain a
        pair of words in different classes, or have a pair moved to such a
        word, which joins as many parts as before."""
        canonical = SHIFTED_KNUTH.congruence.canonical
        words = list(map(bytes, itertools.permutations(range(1, 5))))

        def edit(match):
            u = next(w for w in match if match[w] != w)
            if change == "drop":
                del match[u]
                return
            if change == "add":
                u = next(w for w in words if w not in match)
            match[u] = next(w for w in words if canonical(w) != canonical(u))

        real = verify._forced_matching
        calls = []

        def tampered(U, V, class_key):
            match, ok, note = real(U, V, class_key)
            if content(min(U | V), 4) == (1, 1, 1, 1):
                if len(calls) == call:
                    assert ok  # part c passes untampered
                    edit(match)
                calls.append(U)
            return match, ok, note

        monkeypatch.setattr(verify, "_forced_matching", tampered)
        assert not section5_degree4_comparison(4)["pass"]

    @pytest.mark.parametrize(
        "comparison", [section5_degree3_comparison, section5_degree4_comparison], ids=["b", "c"]
    )
    def test_each_word_is_keyed_once_per_congruence(self, monkeypatch, comparison):
        """Parts b and c key each word at most once per congruence: the
        matchings of both shapes and the pair check share the keys."""
        keyed = {}
        for rels in (KNUTH, SHIFTED_KNUTH):
            cong = rels.congruence
            counts = keyed[rels.name] = collections.Counter()
            monkeypatch.setattr(
                cong, "key", lambda w, key=cong.key, counts=counts: counts.update([w]) or key(w)
            )
        assert comparison(5)["pass"]
        assert keyed["knuth"]
        assert all(c == 1 for counts in keyed.values() for c in counts.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_join_totals_by_content_equal_the_joins_of_all_pairs(self, monkeypatch, n):
        """A forced pair never leaves its content, and a content's joins
        depend only on its order type, so the joins that part b and part c
        add up over the packed contents (support {1..k}), each times
        C(n, k), are those of all the pairs of each product at n, from the
        products' `_forced_matchings`; the pairs joined are those of the
        packed contents."""
        joined = []
        real = verify._forced_matching

        def recorded(U, V, class_key):
            match, ok, note = real(U, V, class_key)
            pairs = [(u, v) for u, v in match.items() if u != v]
            joined.append((pairs, union_find_joins(pairs)))
            return match, ok, note

        for comparison, schur, shapes in (
            (section5_degree3_comparison, free_schur, ((2,), (1, 1))),
            (section5_degree4_comparison, shifted_free_schur, ((3,), (2, 1))),
        ):
            joined.clear()
            # patched for the comparison only: the reference matchings below
            # call `_forced_matching` too
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_forced_matching", recorded)
                assert comparison(n)["pass"]
            degree = sum(shapes[0]) + 1
            packed = []
            total = 0
            for shape in shapes:
                single, big = schur((1,), n, degree), schur(shape, n, degree)
                matchings = _forced_matchings(single, big, n, KNUTH.congruence.key)
                matches = [m for _, m, _, _ in matchings.values()]
                pairs = [(u, v) for m in matches for u, v in m.items() if u != v]
                packed += [(u, v) for u, v in pairs if set(u) == set(range(1, len(set(u)) + 1))]
                total += union_find_joins(pairs)
            weighted = sum(math.comb(n, len(set(pairs[0][0]))) * j for pairs, j in joined if pairs)
            assert weighted == total
            assert sorted(p for pairs, _ in joined for p in pairs) == sorted(packed)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "comparison, schur, shapes",
        [
            (section5_degree3_comparison, free_schur, ((2,), (1, 1))),
            (section5_degree4_comparison, shifted_free_schur, ((3,), (2, 1))),
        ],
        ids=["b", "c"],
    )
    def test_failures_are_listed_shape_by_shape_in_content_order(
        self, monkeypatch, comparison, schur, shapes, n
    ):
        """With every matching of a content that holds a repeated letter
        failing, the report lists the row sum's failures, then the other
        shape's, each in content order."""
        real = verify._forced_matching

        def failing(U, V, class_key):
            match, ok, note = real(U, V, class_key)
            if max(content(min(U | V), n)) > 1:
                return match, False, f"tampered {len(U)} {len(V)}"
            return match, ok, note

        degree = sum(shapes[0]) + 1
        single = schur((1,), n, degree)
        expected = []
        for shape in shapes:
            big = schur(shape, n, degree)
            left, right = (_by_content(p, n) for p in (nc_mul(single, big), nc_mul(big, single)))
            for vec in sorted(left.keys() | right.keys()):
                if max(vec) > 1:
                    sizes = f"{len(left.get(vec, ()))} {len(right.get(vec, ()))}"
                    expected.append({"content": list(vec), "note": f"tampered {sizes}"})
        monkeypatch.setattr(verify, "_forced_matching", failing)
        report = comparison(n)
        assert not report["pass"]
        assert report["failures"] == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reports_equal_those_of_the_walk_over_every_content(self, n):
        """Decided over min(n, d) letters, parts a, b and c report what the
        walk over every content of {1..n} decides: the free products
        compared whole, and each comparison matched with weight 1 on every
        content."""
        p1, p2 = shifted_free_schur((1,), n, 3), shifted_free_schur((2,), n, 3)
        walked = nc_mul(p1, p2) == nc_mul(p2, p1)
        assert section5_free_commutation(n)["pass"] == walked
        for comparison, schur, shapes, rels in _SECTION5_COMPARISONS:
            degree = sum(shapes[0]) + 1
            failures, joins, congruent = verify._section5_matchings(
                schur, shapes, rels, n, lambda vec: 1
            )
            expected = n**degree - verify._class_count(rels, n, degree)
            walked = not any(failures) and congruent and joins == [expected] * len(shapes)
            report = comparison(n)
            assert report["pass"] == walked
            assert ("failures" in report) == any(failures)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weighted_joins_equal_the_joins_of_all_pairs(self, n):
        """Over min(n, d) letters, the packed contents' joins, each times
        C(n, k), equal the joins of all the pairs of `_forced_matchings` at
        n, shape by shape."""
        for _, schur, shapes, rels in _SECTION5_COMPARISONS:
            degree = sum(shapes[0]) + 1
            weight = functools.partial(verify._packed_weight, n)
            decided = verify._section5_matchings(schur, shapes, rels, min(n, degree), weight)
            joins = []
            for shape in shapes:
                single, big = schur((1,), n, degree), schur(shape, n, degree)
                matchings = _forced_matchings(single, big, n, KNUTH.congruence.key)
                matches = [m for _, m, _, _ in matchings.values()]
                pairs = [(u, v) for m in matches for u, v in m.items() if u != v]
                joins.append(union_find_joins(pairs))
            assert decided == ([[], []], joins, True)

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize(
        "comparison, schur, shapes, rels", _SECTION5_COMPARISONS, ids=["b", "c"]
    )
    def test_a_failed_packed_content_lists_the_failures_of_the_walk(
        self, monkeypatch, comparison, schur, shapes, rels, n
    ):
        """A matching failed on a packed content sends the comparison to
        the walk over {1..n}, which lists each failed content of {1..n} in
        content order, with a note naming its own words."""
        degree = sum(shapes[0]) + 1
        failing_type = (2,) + (1,) * (degree - 2)  # one repeated letter, the least
        real = verify._forced_matching

        def failing(U, V, class_key):
            match, ok, note = real(U, V, class_key)
            word = min(U | V)
            if tuple(collections.Counter(sorted(word)).values()) == failing_type:
                return match, False, f"tampered {word!r}"
            return match, ok, note

        single = schur((1,), n, degree)
        expected = []
        for shape in shapes:
            big = schur(shape, n, degree)
            left, right = (_by_content(p, n) for p in (nc_mul(single, big), nc_mul(big, single)))
            for vec in sorted(left.keys() | right.keys()):
                if tuple(c for c in vec if c) == failing_type:
                    word = min(left.get(vec, set()) | right.get(vec, set()))
                    expected.append({"content": list(vec), "note": f"tampered {word!r}"})
        monkeypatch.setattr(verify, "_forced_matching", failing)
        report = comparison(n)
        assert report["pass"] is False
        assert report["failures"] == expected
        assert any(f["content"][0] == 0 for f in expected)  # contents a pass skips
        walked, _, _ = verify._section5_matchings(schur, shapes, rels, n, lambda vec: 1)
        assert report["failures"] == walked[0] + walked[1]


def _forced_matching_products():
    """(single, big, n) of every forced matching that `verify cases` and
    `verify section5` at n <= 5 make."""
    for relations in ("knuth", "shifted-knuth"):
        _, n, single, big = _case_products(relations)
        yield single, big, n
    for n in range(1, 6):
        for schur, shapes in ((free_schur, ((2,), (1, 1))), (shifted_free_schur, ((3,), (2, 1)))):
            degree = sum(shapes[0]) + 1
            for shape in shapes:
                yield schur((1,), n, degree), schur(shape, n, degree), n


def _by_content(poly, n):
    groups = {}
    for w in poly.terms:
        groups.setdefault(content(w, n), set()).add(w)
    return groups


def test_forced_matchings_match_those_by_schensted_rows():
    """The Schensted rows of each word match exactly as a reference key,
    the Schensted rows of each restriction, does."""
    forced = 0
    for single, big, n in _forced_matching_products():
        left, right = (_by_content(p, n) for p in (nc_mul(single, big), nc_mul(big, single)))
        reference = {}
        for vec in sorted(left.keys() | right.keys()):
            U, V = left.get(vec, set()), right.get(vec, set())
            reference[vec] = (V, *_forced_matching(U, V, lambda w: _restriction_rows(w, n)))
        matchings = _forced_matchings(single, big, n, KNUTH.congruence.key)
        assert matchings == reference
        forced += sum(u != v for _, match, _, _ in matchings.values() for u, v in match.items())
    assert forced > 0  # pairs that only the restriction keys match


def test_forced_pairs_are_disjoint_and_each_joins_two_parts():
    """No word lies in two pairs of a forced matching, so its pairs join as
    many parts as a union-find over them does, one per pair."""
    for single, big, n in _forced_matching_products():
        for _, match, _, _ in _forced_matchings(single, big, n, KNUTH.congruence.key).values():
            pairs = [(u, v) for u, v in match.items() if u != v]
            words = [w for pair in pairs for w in pair]
            assert len(set(words)) == len(words)
            assert len(pairs) == union_find_joins(pairs)


def test_weighted_matchings_are_the_unweighted_ones_of_nonzero_weight():
    skipped = 0
    for single, big, n in _forced_matching_products():
        weight = functools.partial(verify._packed_weight, n)
        unweighted = _forced_matchings(single, big, n, KNUTH.congruence.key)
        weighted = _forced_matchings(single, big, n, KNUTH.congruence.key, weight)
        assert weighted == {vec: m for vec, m in unweighted.items() if weight(vec)}
        skipped += len(unweighted) - len(weighted)
    assert skipped > 0


def _restriction_rows(w, n):
    """The Schensted rows of the restriction of w to each interval of {1..n}."""
    return tuple(schensted_rows(w.translate(None, outside)) for _, _, outside in intervals(n))


def _perfect_matchings(U, V, n):
    """Every perfect matching of U - V with V - U in which each pair has
    Knuth-equivalent restrictions to every interval, found by trying all
    bijections."""
    left, right = sorted(U - V), sorted(V - U)
    if len(left) != len(right):
        return []
    return [
        dict(zip(left, image))
        for image in itertools.permutations(right)
        if all(_restriction_rows(u, n) == _restriction_rows(v, n) for u, v in zip(left, image))
    ]


@st.composite
def _matching_inputs(draw):
    """(n, U, V): at most 6 words each, all of one content over {1..n}.
    Half the time V takes, for each left word, a word with the same
    restriction key, so that a forced matching often exists."""
    n = draw(st.integers(1, 4))
    letters = draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    words = sorted(set(map(bytes, itertools.permutations(letters))))
    U = draw(st.sets(st.sampled_from(words), max_size=6))
    if draw(st.booleans()):
        return n, U, draw(st.sets(st.sampled_from(words), max_size=6))
    same_key = [[v for v in words if _restriction_rows(v, n) == _restriction_rows(u, n)] for u in U]
    return n, U, {draw(st.sampled_from(vs)) for vs in same_key}


@settings(max_examples=300, deadline=None)
@given(_matching_inputs())
def test_forced_matching_is_the_unique_perfect_matching(case):
    n, U, V = case
    match, ok, note = _forced_matching(U, V, schensted_rows)
    perfect = _perfect_matchings(U, V, n)
    assert ok == (len(perfect) == 1)
    assert ok == (note == "")
    if ok:
        assert match == {**{w: w for w in U & V}, **perfect[0]}


def test_forced_matching_failure_notes():
    assert _forced_matching({b"\1\2", b"\2\1"}, {b"\1\2"}, schensted_rows)[1:] == (
        False,
        "unequal monomial counts after cancellation",
    )
    # 123 and 321 are not Knuth-equivalent, so 123 has no candidate
    left = b"\1\2\3"
    assert _forced_matching({left}, {b"\3\2\1"}, schensted_rows)[1:] == (
        False,
        f"no remaining candidate for {left!r}",
    )
    # four words of one Knuth class of content (4, 1): a 2x2 block has two
    # perfect matchings
    U = {b"\1\1\1\2\1", b"\1\1\2\1\1"}
    V = {b"\1\2\1\1\1", b"\2\1\1\1\1"}
    assert _forced_matching(U, V, schensted_rows)[1:] == (
        False,
        "matching is not uniquely forced",
    )


def _partition(words, key):
    blocks = {}
    for w in words:
        blocks.setdefault(key(w), set()).add(w)
    return {frozenset(block) for block in blocks.values()}


@pytest.mark.parametrize(
    "n, degree", [(n, d) for n in range(1, 5) for d in range(1, 6)] + [(5, d) for d in range(1, 5)]
)
def test_restriction_keys_partition_words_as_the_knuth_class_does(n, degree):
    """The restriction key, the Schensted rows of a word's restriction to
    every interval, splits the words of one degree exactly as the word's own
    Schensted rows do, so `_forced_matching` may key each word once; for
    degree <= 4 over {1..3} both agree with the closure of the Knuth
    relations."""
    words = [bytes(w) for w in itertools.product(range(1, n + 1), repeat=degree)]
    by_intervals = _partition(words, lambda w: _restriction_rows(w, n))
    assert by_intervals == _partition(words, schensted_rows)
    if n <= 3 and degree <= 4:
        closure = {frozenset(cls) for cls in kernel_classes(KNUTH, n, degree)}
        assert by_intervals == closure


@pytest.mark.parametrize(
    "command, keyed",
    [
        # 176 when every content was matched; only the packed ones are
        ("verify cases", 56),
        ("verify section5 --n 5", 112),
        ("verify section5 --n 7", 112),
        ("verify section5 --n 20", 112),
    ],
    ids=["cases", "section5-n5", "section5-n7", "section5-n20"],
)
def test_forced_matching_keys_each_remaining_word_once(capsys, monkeypatch, command, keyed):
    """One class key per word left after cancellation, not one per interval."""
    calls = []
    real = verify._forced_matching

    def counted(U, V, class_key):
        before = len(calls)
        result = real(U, V, lambda w: calls.append(w) or class_key(w))
        assert len(calls) - before == len(U ^ V)
        return result

    monkeypatch.setattr(verify, "_forced_matching", counted)
    assert main(command.split()) == 0
    capsys.readouterr()
    assert len(calls) == keyed


@pytest.mark.parametrize(
    "command",
    [
        "verify cases",
        "verify section5 --n 5",
        "verify axioms --n 4 --degree 5 --relations shifted-knuth",
        "verify axioms --n 4 --degree 5",
    ],
)
def test_verifier_reads_no_knuth_memo(capsys, monkeypatch, command):
    """Every verify family asks its Knuth-class questions of the class key,
    the Schensted tableau: a passing run walks no class, searches no least
    word and leaves the Knuth memo empty."""
    walks = _count_walks(monkeypatch)
    knuth = KNUTH.congruence
    searched = []
    least = knuth.least
    knuth.least = lambda w: searched.append(w) or least(w)
    assert main(command.split()) == 0
    capsys.readouterr()
    assert walks == [] and searched == [] and knuth.memo == {}


@pytest.mark.parametrize(
    "command",
    [
        "verify axioms --n 4 --degree 5",
        "verify axioms --n 4 --degree 5 --relations shifted-knuth",
        "verify section5 --n 5",
        "verify section5 --n 7",
        "verify cases",
        "verify axioms --n 3 --degree 5 --relations custom:{custom}",
    ],
)
def test_every_memo_holds_only_walked_words(capsys, monkeypatch, tmp_path, command):
    """After a passing `verify` family no congruence has walked, and the
    memo of every congruence it used holds only the words that its own
    key lookups reached.  The shipped sets key by insertion tableau, so
    their memos stay empty.  A custom set keys by least member, so its memo
    holds the classes of the words that its passing checks keyed: words of
    degree at most 3 over {1..3}, axiom 2's degree and the letters of its
    order types.  A Plac run on a custom set makes no Knuth congruence."""
    walks = _count_walks(monkeypatch)
    made = []
    init = Congruence.__init__

    def recorded(self, rels):
        init(self, rels)
        made.append((rels, self))

    monkeypatch.setattr(Congruence, "__init__", recorded)
    path = tmp_path / "commutative.json"
    path.write_text(json.dumps([{"left": "ab", "right": "ba", "constraints": "a<b"}]))
    assert main(command.format(custom=path).split()) == 0
    capsys.readouterr()

    assert made and walks == []
    for rels, cong in made:
        if rels in (KNUTH, SHIFTED_KNUTH):
            assert cong.memo == {}
    if "custom" in command:
        assert all(rels != KNUTH for rels, _ in made)
        ((_, cong),) = made
        assert cong.memo
        assert all(len(w) <= 3 and max(w) <= 3 for w in cong.memo)


@pytest.mark.parametrize(
    "command, tables",
    [
        ("verify axioms --n 5 --degree 6", 0),
        ("verify axioms --n 3 --degree 9", 0),
        ("verify cases", 0),
        ("class --relations knuth 10,1,7,4,5,9,2,8,3,6", 0),
        ("class --relations shifted-knuth 7762845173753216", 0),
        ("class --relations custom:{custom} 3142", 1),
    ],
)
def test_only_a_closure_builds_the_rule_table(capsys, monkeypatch, tmp_path, command, tables):
    """The kernel's rule table is built on a congruence's first closure:
    a passing run under the shipped sets, which close no class, builds
    none, and a custom set builds its one when it lists a class."""
    _fresh_congruences(monkeypatch)
    built = []
    real = _kernels.RuleTable
    monkeypatch.setattr(_kernels, "RuleTable", lambda rules: built.append(rules) or real(rules))
    path = tmp_path / "commutative.json"
    path.write_text(json.dumps([{"left": "ab", "right": "ba", "constraints": "a<b"}]))
    assert main(command.format(custom=path).split()) == 0
    capsys.readouterr()
    assert len(built) == tables


@pytest.mark.parametrize("n", range(1, 8))
def test_class_counts_in_closed_form_match_the_walk(monkeypatch, n):
    """One class per insertion tableau: the tableaux of the partitions of 3
    count the Knuth classes of degree 3, and the shifted tableaux of the
    strict partitions of 4 the shifted Knuth classes of degree 4."""
    _fresh_congruences(monkeypatch)
    for rels, degree in ((KNUTH, 3), (SHIFTED_KNUTH, 4)):
        assert verify._class_count(rels, n, degree) == len(
            tuple(verify._partition_degree(rels, n, degree))
        )
    with pytest.raises(ValueError, match="no closed class count"):
        verify._class_count(RelationSet.custom(KNUTH.relations), n, 3)


def test_a_verified_custom_set_is_freed_with_its_congruence():
    rels = RelationSet.custom(_CHINESE.relations, name="freed")
    ref = weakref.ref(rels)
    verify_axioms("plactic", 4, 5, relations=rels)
    del rels
    gc.collect()
    assert ref() is None


def test_the_cli_frees_the_custom_set_it_parses(capsys, monkeypatch, tmp_path):
    """A custom set is parsed on every call, and its congruence goes with it."""
    parsed = []
    parse = cli._parse_relations

    def recorded(selector):
        rels = parse(selector)
        parsed.append(weakref.ref(rels))
        return rels

    monkeypatch.setattr(cli, "_parse_relations", recorded)
    path = tmp_path / "chinese.json"
    path.write_text(
        json.dumps(
            [
                {"name": f"freed.{i}", "left": "cba", "right": right, "constraints": "a<=b<=c"}
                for i, right in enumerate(("bca", "cab"))
            ]
        )
    )
    assert main(f"verify axioms --relations custom:{path} --n 4 --degree 5".split()) == 1
    capsys.readouterr()
    gc.collect()
    assert len(parsed) == 1
    assert parsed[0]() is None


def test_reports_are_deterministic():
    first = json.dumps(
        verify_tables() + verify_case_analysis("shifted-knuth") + verify_section5(4),
        sort_keys=True,
    )
    second = json.dumps(
        verify_tables() + verify_case_analysis("shifted-knuth") + verify_section5(4),
        sort_keys=True,
    )
    assert first == second
