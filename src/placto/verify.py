"""Desk-scale verification harness.

Re-derives, over concrete truncated alphabets, the degree-3 and degree-4
case analyses behind the Knuth and shifted Knuth relations, checks the two
axiom systems exhaustively up to a degree bound, and checks the replacement
propositions (trading the column-pair sum for the row-pair sum, and the
three-cell hook sum for the three-cell row sum).

Every check returns JSON-ready dicts with a "pass" flag; identical inputs
produce identical output.  Words are byte words throughout, one letter per
byte, as the polynomials and congruences hold them; `words.word_text` gives
the reports their text.  Every family compares class keys
(`Congruence.key`: the insertion tableaux for the shipped sets) and lists
no class to pass.  `verify axioms` and `verify section5` decide a pass
over the few letters that hold every order type their checks depend on;
only a failing axiom scans the classes, to list its violations.  Plac.1
and axiom 3 hold for every relation set, by lemmas on the relation
format, so `verify axioms` reports them without a check and counts the
instances of every axiom over words, in closed form.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterator

from .algebra import (
    NcPoly,
    commutator_in_quotient,
    free_schur,
    nc_mul,
    project_quotient,
    shifted_free_schur,
)
from .rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Relation,
    RelationSet,
)
from .tableaux import partitions, shifted_ssyt_count, ssyt_count, strict_partitions
from .words import (
    all_intervals,
    content,
    word_text,
)

# ---------------------------------------------------------------------------
# expected monomial listings for the product checks, keyed by (family, pattern)

_TABLE_DATA: dict[tuple[str, str], dict] = {
    # column-pair sum times single letter, degree 3
    ("unshifted-1", "distinct"): {
        "words": ["cba", "cab", "bac"],
        "assign": {"a": 1, "b": 2, "c": 3},
    },
    ("unshifted-1", "smallest-repeated"): {
        "words": ["caa"],
        "assign": {"a": 1, "c": 2},
    },
    ("unshifted-1", "biggest-repeated"): {
        "words": ["bab"],
        "assign": {"a": 1, "b": 2},
    },
    # hook sum of shape (2,1) times single letter, degree 4
    ("shifted-2", "distinct"): {
        "words": ["bdca", "cdba", "adcb", "cdab", "adbc", "bdac", "acbd", "bcad"],
        "assign": {"a": 1, "b": 2, "c": 3, "d": 4},
    },
    ("shifted-2", "second-smallest-repeated"): {
        "words": ["bdba", "adbb", "bdab", "bbad"],
        "assign": {"a": 1, "b": 2, "d": 3},
    },
    ("shifted-2", "biggest-repeated"): {
        "words": ["ccba", "ccab", "acbc", "bcac"],
        "assign": {"a": 1, "b": 2, "c": 3},
    },
    ("shifted-2", "smallest-repeated"): {
        "words": ["adca", "cdaa", "adac", "acad"],
        "assign": {"a": 1, "c": 2, "d": 3},
    },
    # hook sum of shape (3) times single letter, degree 4
    ("unshifted-3x1-table3", "distinct"): {
        "words": [
            "bcda", "cbda", "dbca", "dcba",
            "acdb", "cadb", "dacb", "dcab",
            "abdc", "badc", "dabc", "dbac",
            "abcd", "bacd", "cabd", "cbad",
        ],
        "left_words": [
            "abcd", "acbd", "adbc", "adcb",
            "bacd", "bcad", "bdac", "bdca",
            "cabd", "cbad", "cdab", "cdba",
            "dabc", "dbac", "dcab", "dcba",
        ],
        "assign": {"a": 1, "b": 2, "c": 3, "d": 4},
    },
    ("unshifted-3x1-table3", "smallest-repeated"): {
        "words": ["cbaa", "baca", "caba", "abca", "aacb", "caab", "aabc", "baac"],
        "assign": {"a": 1, "b": 2, "c": 3},
    },
    ("unshifted-3x1-table3", "second-smallest-repeated"): {
        "words": ["bbca", "cbba", "abcb", "bacb", "cabb", "cbab", "abbc", "babc"],
        "assign": {"a": 1, "b": 2, "c": 3},
    },
    # first entry is bcca: the only hook words on {b, c, c} are bcc and cbc
    ("bcc-table4", "biggest-repeated"): {
        "words": ["bcca", "cbca", "accb", "cacb", "abcc", "bacc", "cabc", "cbac"],
        "assign": {"a": 1, "b": 2, "c": 3},
    },
}

TABLE_FAMILIES = ("unshifted-1", "shifted-2", "unshifted-3x1-table3", "bcc-table4")


def _family_factors(family: str, n: int, shifted) -> tuple[NcPoly, NcPoly, str]:
    """(big factor, single-letter factor, product label) for a table family,
    the hook sums built by `shifted`, `shifted_free_schur` or a cache of it."""
    if family == "unshifted-1":
        return free_schur((1, 1), n, 3), free_schur((1,), n, 3), "S(1,1)*S(1)"
    if family == "shifted-2":
        return shifted((2, 1), n, 4), shifted((1,), n, 4), "P(2,1)*P(1)"
    if family in ("unshifted-3x1-table3", "bcc-table4"):
        return shifted((3,), n, 4), shifted((1,), n, 4), "P(3)*P(1)"
    raise ValueError(f"unknown table family {family!r}")


def verify_tables(family: str | None = None, pattern: str | None = None) -> list[dict]:
    """Compare product monomial sets against the expected listings.  One
    call builds each hook sum once per (shape, n) and each family's
    products once."""
    shifted = functools.cache(shifted_free_schur)

    @functools.cache
    def product(fam: str, n: int, left: bool) -> tuple[str, NcPoly]:
        big, single, label = _family_factors(fam, n, shifted)
        if left:
            return "*".join(reversed(label.split("*"))), nc_mul(single, big)
        return label, nc_mul(big, single)

    reports = []
    for (fam, pat), data in sorted(_TABLE_DATA.items()):
        if family is not None and fam != family:
            continue
        if pattern is not None and pat != pattern:
            continue
        n = 3 if fam == "unshifted-1" else 4
        comparisons = [(*product(fam, n, False), data["words"])]
        if "left_words" in data:
            comparisons.append((*product(fam, n, True), data["left_words"]))
        for prod_label, prod, expected_words in comparisons:
            expected = {bytes(map(data["assign"].get, w)) for w in expected_words}
            vec = content(next(iter(expected)), n)
            actual = prod.monomials_of_content(vec)
            missing = sorted(word_text(w, n) for w in expected - actual)
            extra = sorted(word_text(w, n) for w in actual - expected)
            reports.append(
                {
                    "check": "tables",
                    "family": fam,
                    "pattern": pat,
                    "product": prod_label,
                    "expected": sorted(word_text(w, n) for w in expected),
                    "actual": sorted(word_text(w, n) for w in actual),
                    "missing": missing,
                    "extra": extra,
                    "pass": not missing and not extra,
                }
            )
    if not reports:
        raise ValueError(f"no table matches family={family!r} pattern={pattern!r}")
    return reports


# ---------------------------------------------------------------------------
# forced matching between two product expansions


def _runs(support: bytes) -> list[tuple[int, int, bytes]]:
    """(lo, hi, deleted) for each run s[i:j] of the sorted support s, in
    order of i, then j: [lo, hi] = [s[i - 1] + 1 or 1, s[j - 1]] is the
    first interval that keeps the run, and `w.translate(None, deleted)`
    restricts a word over s to it.  These come in `all_intervals` order, so
    the first interval over any alphabet that separates two words of one
    support is their first separating run's."""
    k = len(support)
    return [
        (support[i - 1] + 1 if i else 1, support[j - 1], support[:i] + support[j:])
        for i in range(k)
        for j in range(i + 1, k + 1)
    ]


def _interval_witness(u: bytes, v: bytes, class_key, runs):
    """First interval whose restrictions of u and v, two words of one
    support, have different class keys under `class_key`, as (lo, hi,
    deleted) from the `_runs` of that support.  Equal restrictions have
    equal keys, so only restrictions that differ as words are keyed."""
    for lo, hi, deleted in runs:
        ru, rv = u.translate(None, deleted), v.translate(None, deleted)
        if ru != rv and class_key(ru) != class_key(rv):
            return lo, hi, deleted
    return None


def _forced_matching(U: set[bytes], V: set[bytes], class_key):
    """Match each left monomial to a right monomial, when the match is forced.

    Identical words on the two sides cancel first.  Two words are compatible
    when their restrictions to every interval are Knuth-equivalent, which is
    when the whole words are: (1) restricting to an interval maps each
    elementary Knuth relation to an equality or to the same relation, (2) so
    the restriction keys of congruent words agree, and (3) [1, n] restricts a
    word over {1..n} to itself, so equal restriction keys mean equal
    whole-word keys.  So `class_key` (the Schensted rows) keys each word
    once, and the compatibility graph is one complete bipartite block per
    key.  A block of a left and b right words has a! perfect matchings when
    a = b and none otherwise, so the matching is forced exactly when every
    block holds one word of each side.
    """
    match: dict[bytes, bytes] = {w: w for w in U & V}
    left, right = sorted(U - V), sorted(V - U)
    if len(left) != len(right):
        return match, False, "unequal monomial counts after cancellation"
    blocks: dict[object, tuple[list[bytes], list[bytes]]] = {}
    for side, words in enumerate((left, right)):
        for w in words:
            blocks.setdefault(class_key(w), ([], []))[side].append(w)
    for us, vs in blocks.values():
        if len(us) != len(vs):
            spare = us[len(vs):] or vs[len(us):]
            return match, False, f"no remaining candidate for {spare[0]!r}"
        if len(us) > 1:
            return match, False, "matching is not uniquely forced"
        match[us[0]] = vs[0]
    return match, True, ""


def _forced_matchings(single: NcPoly, big: NcPoly, n: int, class_key, weight=None):
    """Forced matchings of single*big against big*single, content by content,
    keying each word by `class_key`, its Schensted tableau
    (`KNUTH.congruence.key` or a cache of it): one insertion per word left
    after cancellation, and no class walked.  Given a `weight`, a function
    of the content, each content of weight 0 is skipped.

    Returns {content: (right monomials, match, ok, note)} in content order,
    with (match, ok, note) from `_forced_matching`.
    """
    products = (nc_mul(single, big), nc_mul(big, single))
    if any(c != 1 for prod in products for c in prod.terms.values()):
        raise ValueError("product expansions must be multiplicity-free")
    groups: dict[tuple[int, ...], tuple[set[bytes], set[bytes]]] = {}
    for side, prod in enumerate(products):
        for w in prod.terms:
            groups.setdefault(content(w, n), (set(), set()))[side].add(w)
    return {
        vec: (V, *_forced_matching(U, V, class_key))
        for vec, (U, V) in sorted(groups.items())
        if weight is None or weight(vec)
    }


# ---------------------------------------------------------------------------
# case analysis


def _degeneracies(rel: Relation):
    """All letter patterns a relation schema admits, distinct letters first.

    Yields (pattern string like 'a=b<c<d', left side, right side), the
    sides as byte words; equalities are taken only at the weak steps of the
    constraint chain.
    """
    variables = rel.variables()
    strict = rel.strict_flags()
    weak = [i for i, s in enumerate(strict) if not s]
    for bits in itertools.product((False, True), repeat=len(weak)):
        collapse = {weak[i] for i, b in enumerate(bits) if b}
        assign = {variables[0]: 1}
        current = 1
        pattern = variables[0]
        for i in range(len(strict)):
            if i in collapse:
                pattern += "=" + variables[i + 1]
            else:
                current += 1
                pattern += "<" + variables[i + 1]
            assign[variables[i + 1]] = current
        yield pattern, bytes(map(assign.get, rel.left)), bytes(map(assign.get, rel.right))


def _case_products(rels_name: str) -> tuple[RelationSet, int, NcPoly, NcPoly]:
    """(relation set, n, single-letter sum, big sum) for a case analysis."""
    if rels_name == "knuth":
        return KNUTH, 3, free_schur((1,), 3, 3), free_schur((1, 1), 3, 3)
    if rels_name == "shifted-knuth":
        single, big = shifted_free_schur((1,), 4, 4), shifted_free_schur((2, 1), 4, 4)
        return SHIFTED_KNUTH, 4, single, big
    raise ValueError(f"case analysis needs 'knuth' or 'shifted-knuth', got {rels_name!r}")


def verify_case_analysis(relations: str = "shifted-knuth") -> list[dict]:
    """Regenerate each relation as the unique survivor of its content class.

    For every relation schema and every degeneracy pattern, the instantiated
    left side is a monomial of single*big; candidates are the monomials of
    big*single with the same content.  The forced matching pairs the left
    side with the one candidate in its Knuth class, which must be the
    relation's right side.  Each other candidate is reported with the first
    interval whose restriction separates it from the left side in the Knuth
    quotient, read off the runs of their support (`_runs`), or, in the left
    side's class, with its match: a word of both products cancels and is
    matched to itself.  A restriction that deletes no letter is trivial.

    Each pattern's left side is packed, its letters exactly {1..k} for its
    k letters, so only the packed contents are matched (`_packed_weight`
    skips every other).
    """
    rels, n, single, big = _case_products(relations)
    # one cache serves the matchings and the witnesses, which key the same
    # words again and restrictions that repeat across patterns
    knuth_key = functools.cache(KNUTH.congruence.key)
    matchings = _forced_matchings(single, big, n, knuth_key, functools.partial(_packed_weight, n))
    runs = functools.cache(_runs)
    reports = []
    for rel in rels.relations:
        for pattern, left, expected in _degeneracies(rel):
            V, match, ok, note = matchings[content(left, n)]
            survivor = match.get(left) if ok else None
            left_runs = runs(_support(left))
            eliminated = []
            for v in sorted(V):
                if v == survivor:
                    continue
                witness = _interval_witness(left, v, knuth_key, left_runs)
                if witness is not None:
                    lo, hi, deleted = witness
                    if not deleted:
                        reason = f"plactic inequality (restriction to [{lo},{hi}] is trivial)"
                    else:
                        reason = f"restriction to [{lo},{hi}]"
                else:
                    partners = sorted(u for u, m in match.items() if m == v)
                    reason = f"matched to {word_text(partners[0], n)}" if partners else "unmatched"
                eliminated.append({"word": word_text(v, n), "reason": reason})
            report = {
                "check": "case",
                "relations": relations,
                "relation": rel.name,
                "pattern": pattern,
                "left": word_text(left, n),
                "candidates": sorted(word_text(v, n) for v in V),
                "eliminated": eliminated,
                "survivor": word_text(survivor, n) if survivor else None,
                "expected": word_text(expected, n),
                "pass": ok and survivor == expected,
            }
            if note:
                report["note"] = note
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# axiom systems


def _partition_degree(rels: RelationSet, n: int, degree: int) -> Iterator[tuple[bytes, ...]]:
    """Equivalence classes of all degree-d words over {1..n}, as sorted
    tuples, in the order of their least members (`Congruence.classes`)."""
    return rels.congruence.classes(n, degree)


# the violations a failing axiom's report lists
_LISTED = 20


def _axiom_report(axiom: str, n: int, degree_bound: int, checked: int, violations: list) -> dict:
    return {
        "check": "axiom",
        "axiom": axiom,
        "n": n,
        "degree_bound": degree_bound,
        "instances_checked": checked,
        "violations": violations[:_LISTED],
        "pass": not violations,
    }


def verify_axioms(
    target: str, n: int, degree_bound: int, relations: RelationSet | None = None
) -> list[dict]:
    """Exhaustively check one axiom system up to the degree bound.

    target 'plactic' checks the four axioms whose reference map lands in the
    commutative monoid; 'shifted-plactic' checks the variant landing in the
    ordinary Knuth quotient.  `relations` overrides the congruence under test
    (defaults: knuth, shifted-knuth), which lets the harness confirm that,
    e.g., the fully commutative quotient also satisfies the plactic axioms.

    Axioms 1 and 4 each say that a homomorphism (the identity, an interval
    restriction) sends every class into one class of a target congruence.
    That holds on every class of degree at most the bound exactly when it
    holds on every relation instance (l, r) of that degree, so
    `_stable_under`, whose docstring gives the argument, decides SPlac.1
    and axiom 4 from the instances alone, comparing class keys.  Plac.1,
    whose target is content, and axiom 3, the same of the ordered
    morphisms in the congruence itself, hold for every relation set by the
    lemmas that docstring states: their reports count the instances
    (`_instance_counts`) and list no violation.

    Order types.  An order-preserving injection f of {1..m} into {1..n}
    keeps `<=` and `<`, so it sends instances of a relation to instances,
    and each instance over {1..n} is the image of one over {1..k}, k its
    number of letters.  So f(u) and f(v) are congruent exactly when u and v
    are (a rewrite path between f(u) and f(v) keeps their content, so it
    pulls back step by step), and so of content and Knuth classes.  f sends
    an interval restriction of a support to one that keeps the same run of
    its sorted letters, and each content's free and hook sums to its
    image's.  So each check depends only on the order type of an instance
    or a product word, which fits in m letters, m the larger of axiom 2's
    degree and the variables of a relation within the bound, and each
    order type has one packed representative, over {1..k} for its k
    letters.  A pass is decided once per order type, over {1..min(n, m)}:
    SPlac.1 and axiom 4 on the packed instance of each relation pattern
    (`_order_type_instances`, which adds its image on the top letters),
    keying only the images that differ as words, and axiom 2 on the
    packed terms of the commutator, the only ones built
    (`_packed_commutator`).  It is reported with the counts over {1..n}.
    A commutator whose packed terms do not project to zero is built again
    over {1..n}, to list its terms, and a failing axiom scans the classes
    over {1..n}, degree by degree, until it has listed its violations.
    """
    if target == "plactic":
        system = "Plac"
        rels = relations if relations is not None else KNUTH
    elif target == "shifted-plactic":
        system = "SPlac"
        rels = relations if relations is not None else SHIFTED_KNUTH
    else:
        raise ValueError(f"target must be 'plactic' or 'shifted-plactic', got {target!r}")
    # axiom 2 multiplies sums of degree 1 and 2 (Plac) or 1 and 3 (SPlac)
    least = 2 if system == "Plac" else 3
    if degree_bound < least:
        raise ValueError(
            f"degree bound must be at least {least} for the {system} axioms, got {degree_bound}"
        )

    # the target of axiom 4, by class key: the congruence itself for the
    # plactic system, ordinary Knuth for the shifted one, which is also
    # SPlac.1's target
    target_key = functools.cache((rels if system == "Plac" else KNUTH).congruence.key)

    fitting = [rel for rel in rels.relations if len(rel.left) <= degree_bound]
    # the letters that every order type of an instance or a product word fits in
    m = min(n, max([least + 1] + [len(rel.variables()) for rel in fitting]))
    instances = [pair for rel in fitting for pair in _order_type_instances(rel, m)]

    def classes():
        # one that fails lists its violations over the classes, degree by degree
        for degree in range(1, degree_bound + 1):
            yield from _partition_degree(rels, n, degree)

    # axiom 2: the two designated sums commute in the quotient; at the least
    # bound their products lie wholly above it, so they are not built
    found = {}
    if least < degree_bound:
        schur, big = (free_schur, (1, 1)) if system == "Plac" else (shifted_free_schur, (2, 1))

        pa, pb = schur((1,), m, degree_bound), schur(big, m, degree_bound)
        if project_quotient(_packed_commutator(pa, pb), rels):
            pa, pb = schur((1,), n, degree_bound), schur(big, n, degree_bound)
            com = commutator_in_quotient(pa, pb, rels)
            found[2] = [{"nonzero_terms": sorted(word_text(w, n) for w in com.terms)[:10]}]

    # SPlac.1 and axiom 4 are checked once per distinct action on a support,
    # the letters of a relation instance or of a class: relations keep
    # content, and two maps that act alike on it give byte-identical images.
    # An action is the (table, delete) pair that `bytes.translate` applies.
    checks = {4: (_restrictions(n), target_key)}
    if system == "SPlac":
        checks = {1: (_identity, target_key), **checks}
    found.update(zip(checks, _stable_under(classes, instances, list(checks.values()), n)))
    # Plac.1 and axiom 3 hold by the lemmas that `_stable_under` states
    checked = {2: 1, **_instance_counts(n, degree_bound)}
    return [
        _axiom_report(f"{system}.{axiom}", n, degree_bound, checked[axiom], found.get(axiom, []))
        for axiom in (1, 2, 3, 4)
    ]


def _instance_counts(n: int, degree: int) -> dict[int, int]:
    """axiom -> the instances that axioms 1, 3 and 4 count over {1..n} up
    to degree d, one per word and map that applies to it.  With
    g(j) = j + j^2 + ... + j^d words of degree 1..d over j letters, these
    are the g(n) words, n(n + 1)/2 intervals for each, and the g(j) words
    over the source of each of the C(n, j)^2 ordered morphisms between
    subsets of j letters."""

    def words(j: int) -> int:
        return degree if j == 1 else (j ** (degree + 1) - j) // (j - 1)

    total = words(n)
    morphisms = sum(math.comb(n, j) ** 2 * words(j) for j in range(1, n + 1))
    return {1: total, 3: morphisms, 4: total * n * (n + 1) // 2}


def _support(word: bytes) -> bytes:
    """The letters of a word, each once, in increasing order."""
    return bytes(sorted(set(word)))


def _is_packed(word: bytes) -> bool:
    """Whether the letters of a nonempty word are exactly {1..k}, k their
    number: the word of its order type over the least letters."""
    return max(word) == len(set(word))


def _order_type_instances(rel: Relation, m: int) -> Iterator[tuple[bytes, bytes]]:
    """The instances of a relation that decide SPlac.1 and axiom 4 over
    {1..m} (the order-type lemma of `verify_axioms`): the packed instance
    of each `_degeneracies` pattern of k <= m letters, over {1..k}, and,
    when k < m, its image on the top letters {m - k + 1..m}.

    For a class key the packed instance alone stands for every instance of
    its pattern.  The top image costs a few keys, and it holds the letter m
    that the packed instances of fewer letters miss: a key that depended on
    the letters themselves, not only on their order, would go unchecked on
    them."""
    for _, left, right in _degeneracies(rel):
        k = max(left)
        if k <= m:
            yield left, right
            if k < m:
                yield bytes(a + m - k for a in left), bytes(a + m - k for a in right)


def _packed_commutator(p: NcPoly, q: NcPoly) -> NcPoly:
    """The terms of p·q - q·p whose words are packed (`_is_packed`), with
    the products truncated at the degree bound as `nc_mul` truncates them:
    one content per order type, which decides whether axiom 2's commutator
    over {1..m} projects to zero.  The words u·v and v·u have the same
    letters, so one test keeps or drops both, and no other term is built.
    The words of p and q must be nonempty."""
    p._require_context(q)
    bound = p.degree_bound
    out: dict[bytes, int] = {}
    for u, cu in p.terms.items():
        room = bound - len(u)
        for v, cv in q.terms.items():
            if len(v) <= room:
                w = u + v
                if _is_packed(w):
                    c = cu * cv
                    out[w] = out.get(w, 0) + c
                    w = v + u
                    out[w] = out.get(w, 0) - c
    return NcPoly._of(out, p.n, bound)


# A family of maps takes a class's support to (actions, labels): one
# (table, delete) action for `bytes.translate` per distinct nonempty image of
# the support, and a callable that lists (label, index into actions) per map
# with a nonempty image, in order.  A map that empties the support sends a
# class into the class of the empty word, so it needs no action.
# `_stable_under` calls `labels` only for a class that fails.


def _identity(support: bytes):
    """The family of the identity map, labelled {}."""
    return [(None, b"")], lambda: [({}, 0)]


def _restrictions(n: int):
    """The family of the interval restrictions of {1..n}, labelled
    {"interval": [lo, hi]} in `all_intervals` order.  A restriction keeps a
    run s[i:j] of the sorted support s, so the actions are the deletions of
    `_runs(s)`, k(k + 1)/2 for k letters, and an interval's index among them
    is i·k - i(i - 1)/2 + j - i - 1, i and j found by bisection."""

    def family(support: bytes):
        actions = [(None, deleted) for _, _, deleted in _runs(support)]

        def labels():
            k = len(support)
            for iv in all_intervals(n):
                i, j = bisect.bisect_left(support, iv.lo), bisect.bisect_right(support, iv.hi)
                if i < j:
                    yield {"interval": [iv.lo, iv.hi]}, i * k - i * (i - 1) // 2 + j - i - 1

        return actions, labels

    return family


def _stable_under(classes, instances, checks, n: int) -> list[list[dict]]:
    """The violations of each stability axiom in `checks`, the first
    `_LISTED` of each.

    `classes()` yields the classes of degree 1..d over {1..n}, in order,
    from `Congruence.classes`, `instances` the (left, right) byte words
    of every relation instance of degree at most d over {1..n}, or at
    least one of each order type (`_order_type_instances`, by the
    order-type lemma of `verify_axioms`), and `checks` lists (family,
    target class key) per axiom, a family as described above.  A violation
    is a class, in order, with the label of a map whose action sends the
    class into more than one target class.

    An axiom holds on every class iff, for every instance (l, r) and every
    action of its family on the support of l, the images of l and r have one
    target class:

    - Enough.  The members of a class C are joined by rewrites
      u·l·v <-> u·r·v, and the instance (l, r) of each lies in the support
      of C and has at most the degree of C.  On that support each map is a
      homomorphism and acts on the support of l as one of the actions its
      family gives there.  Each target is a congruence, so the images of
      u·l·v and u·r·v share a target class whenever those of l and r do.
    - Needed.  l and r are members of one class of degree at most d, so a
      failing instance is a failing class.

    The images of l and r are compared as words first: equal words have
    equal keys under any target, so only images that differ are keyed.
    So an axiom that holds makes no lookup per class.  Each axiom that
    fails reads its own `classes()`, one lookup per member and action,
    until it has `_LISTED` violations, so it lists no class past the one
    that gives the last: each degree is one lexicographic scan of its
    words, which stops there.

    Two axioms hold for every relation set, so they are not checked.  A
    relation is a pair of patterns with one variable multiset, over the
    variables of one chain of `<=` and `<`, every chain variable occurs in
    them, and its instances over {1..n} are the assignments of letters
    that obey the chain.  So the sides of an instance (l, r) have one
    content, and by Enough every class has one content: Plac.1.  An
    order-preserving injection of {1..n} keeps `<=` and `<`, so it sends
    (l, r) to an instance of the same relation, whose sides are congruent;
    by Enough, it sends every class into one class: axiom 3.  So `checks`
    holds the restriction family, and under SPlac, whose target of Knuth
    classes is not structural, the identity family too.
    """
    results = []
    for family, target in checks:
        family = functools.cache(family)
        violations = []
        images = (
            (left.translate(*action), right.translate(*action))
            for left, right in instances
            for action in family(_support(left))[0]
        )
        holds = all(a == b or target(a) == target(b) for a, b in images)
        if not holds:
            for cls in classes():
                actions, labels = family(_support(cls[0]))
                bad = [len({target(w.translate(*action)) for w in cls}) != 1 for action in actions]
                if any(bad):
                    class_of = word_text(cls[0], n)
                    listed = ({"class_of": class_of, **label} for label, i in labels() if bad[i])
                    violations.extend(itertools.islice(listed, _LISTED - len(violations)))
                    if len(violations) == _LISTED:
                        break
        results.append(violations)
    return results


def restriction_surprise(n: int = 4, degree_bound: int = 4) -> dict:
    """Report-only search: shifted-equivalent words whose restrictions are
    not shifted-equivalent (the restrictions stay Knuth-equivalent).

    A witness documents why the shifted interval axiom lands in the ordinary
    Knuth quotient rather than the shifted one.

    The witness is the first pair (base, other) of one class, in the order
    of the least members and then of the members, whose restrictions to an
    interval have different shifted keys, the first in `all_intervals`
    order (`_runs`, whatever n is).  Moving a class onto its packed support,
    {1..k} for its k letters, keeps a witness a witness (the order-type
    lemma of `verify_axioms`) and makes each member lexicographically
    smaller unless the class is packed already, so the first witness lies
    in a packed class, over {1..min(n, d)}.  Relations keep content, so the
    members of a packed class are packed words.  The search scans the
    packed words over {1..min(n, d)} in lexicographic order, skipping every
    other word, and lists the class of each new key (`Congruence.fiber`),
    whose least member is the word that found it.  Below the degree of the
    shortest relation every class is a single word, so the scan starts
    there, and a lower bound looks nothing up.
    """
    absent = {"check": "restriction-surprise", "witness_found": False, "pass": True}
    shortest = min(len(rel.left) for rel in SHIFTED_KNUTH.relations)
    if degree_bound < shortest:
        return absent
    shifted = SHIFTED_KNUTH.congruence
    key = functools.cache(shifted.key)
    knuth_key = KNUTH.congruence.key
    k = min(n, degree_bound)
    for degree in range(shortest, degree_bound + 1):
        seen = set()
        for w in map(bytes, itertools.product(range(1, k + 1), repeat=degree)):
            if not _is_packed(w):
                continue
            rows = key(w)
            if rows in seen:
                continue
            seen.add(rows)
            base, *others = sorted(shifted.fiber(rows))
            if not others:
                continue
            runs = _runs(_support(base))
            for other in others:
                witness = _interval_witness(base, other, key, runs)
                if witness is not None:
                    lo, hi, deleted = witness
                    ru, rv = base.translate(None, deleted), other.translate(None, deleted)
                    return {
                        "check": "restriction-surprise",
                        "witness_found": True,
                        "w1": word_text(base, n),
                        "w2": word_text(other, n),
                        "interval": [lo, hi],
                        "restrictions": [word_text(ru, n), word_text(rv, n)],
                        "restrictions_knuth_equivalent": knuth_key(ru) == knuth_key(rv),
                        "pass": True,
                    }
    return absent


# ---------------------------------------------------------------------------
# replacement propositions


def _class_count(rels: RelationSet, n: int, degree: int) -> int:
    """The number of classes of the degree-d words over {1..n} under a
    shipped relation set, in closed form: one per insertion tableau, so the
    semistandard tableaux of the partitions of d for `KNUTH` and the shifted
    ones of the strict partitions of d for `SHIFTED_KNUTH`."""
    if rels == KNUTH:
        return sum(ssyt_count(shape, n) for shape in partitions(degree))
    if rels == SHIFTED_KNUTH:
        return sum(shifted_ssyt_count(shape, n) for shape in strict_partitions(degree))
    raise ValueError(f"no closed class count for the relation set {rels.name!r}")


def section5_free_commutation(n: int = 5) -> dict:
    """The single-letter sum commutes with the all-pairs sum before any quotient.

    Every term of both products has degree 3, so they are equal exactly
    when they agree content by content, and a content's terms, relabelled
    in order onto {1..k}, are those of the packed content of its order type
    (see `_section5_comparison`).  So they are compared over min(n, 3)
    letters, which hold every packed content of degree 3."""
    m = min(n, 3)
    p1 = shifted_free_schur((1,), m, 3)
    p2 = shifted_free_schur((2,), m, 3)
    equal = nc_mul(p1, p2) == nc_mul(p2, p1)
    return {
        "check": "section5",
        "part": "a",
        "n": n,
        "description": "free-algebra commutation of P(1) with P(2)",
        "pass": equal,
    }


def _packed_weight(n: int, vec: tuple[int, ...]) -> int:
    """C(n, k) for a packed content vec, one whose support is exactly
    {1..k}: the number of contents over {1..n} of its order type.  0 for
    any other content."""
    k = len(vec) - vec.count(0)
    return math.comb(n, k) if 0 not in vec[:k] else 0


def _section5_matchings(schur, shapes, rels, m: int, weight):
    """Match both shapes of a replacement comparison over {1..m}.

    Each shape's products single*big and big*single are matched content by
    content by `_forced_matchings`, skipping each content of weight 0, and
    every word is keyed once per congruence, in one cache per congruence
    for the whole call.  A forced pair never leaves its content, so each
    shape's joins are a sum over the contents, here each content's joins
    times `weight(content)`.  A matching succeeds only when every key block
    holds one word of each product, so its pairs are disjoint edges and a
    content's joins are its number of pairs.

    Returns (failures, joins, congruent): each shape's list of failed
    contents with `_forced_matching`'s note, each shape's weighted joins,
    and whether every forced pair lies in one `rels` class.  If any
    matching fails, no pair is joined or checked.
    """
    degree = sum(shapes[0]) + 1
    single = schur((1,), m, degree)
    knuth = functools.cache(KNUTH.congruence.key)
    matchings = [_forced_matchings(single, schur(p, m, degree), m, knuth, weight) for p in shapes]
    failures = [
        [{"content": list(vec), "note": note} for vec, (_, _, ok, note) in found.items() if not ok]
        for found in matchings
    ]
    joins = [0] * len(shapes)
    congruent = True
    if any(failures):
        return failures, joins, congruent
    keys = knuth if rels == KNUTH else functools.cache(rels.congruence.key)
    for s, found in enumerate(matchings):
        for vec, (_, match, _, _) in found.items():
            pairs = [(u, v) for u, v in match.items() if u != v]
            congruent = congruent and all(keys(u) == keys(v) for u, v in pairs)
            joins[s] += weight(vec) * len(pairs)
    return failures, joins, congruent


def _section5_comparison(part: str, description: str, schur, other, rels, n: int) -> dict:
    """Shared body of parts b and c.  In degree d = |other| + 1, commuting
    the single-letter sum `schur((1,))` with the row sum `schur((d-1,))`
    and with `schur(other)` forces identifications that generate the same
    partition of the degree-d words, the partition into `rels` classes.
    Congruent pairs generate a finer partition, the same one exactly when
    their joins, one per pair, leave as many parts as there are classes
    (`_class_count`).
    Pairs are compared by class key, so no class is walked.

    Order types.  Relabelling the letters of {1..n} by an order-preserving
    map leaves every step unchanged: the free and hook sums (a tableau stays
    a tableau), `nc_mul`, the Schensted and mixed-insertion keys (insertion
    only compares letters), and `_forced_matching`, whose sorted words keep
    their order.  So a content's matchings, pair checks and joins depend
    only on its order type, and each order type over {1..n} has one packed
    representative, a content of support exactly {1..k}, which is a content
    over {1..m} for m = min(n, d), since k <= d; C(n, k) contents share it.
    A pass is therefore decided over {1..m}, on the packed contents only,
    each weighted by C(n, k).  When a matching fails, the contents over
    {1..n} are matched once more, each with weight 1, to list every failed
    content as it is and with its own words in the notes.
    """
    degree = sum(other) + 1
    shapes = ((degree - 1,), other)
    report = {"check": "section5", "part": part, "n": n, "description": description}
    m = min(n, degree)
    failures, joins, congruent = _section5_matchings(
        schur, shapes, rels, m, functools.partial(_packed_weight, n)
    )
    if any(failures):
        failures, _, _ = _section5_matchings(schur, shapes, rels, n, lambda vec: 1)
        report["failures"] = [f for shape_failures in failures for f in shape_failures]
        report["pass"] = False
        return report
    expected = n**degree - _class_count(rels, n, degree)
    report["pass"] = congruent and joins == [expected] * len(shapes)
    return report


def section5_degree3_comparison(n: int = 4) -> dict:
    """Commuting with the two-cell row sum forces exactly the Knuth classes,
    the same congruence forced by the two-cell column sum."""
    return _section5_comparison(
        "b",
        "degree-3 identifications forced by S(2) match S(1,1) and the Knuth classes",
        free_schur,
        (1, 1),
        KNUTH,
        n,
    )


def section5_degree4_comparison(n: int = 4) -> dict:
    """Commuting with the three-cell row sum forces exactly the shifted Knuth
    classes, the same congruence forced by the (2,1) hook sum."""
    return _section5_comparison(
        "c",
        "degree-4 identifications forced by P(3) match P(2,1) and the shifted Knuth classes",
        shifted_free_schur,
        (2, 1),
        SHIFTED_KNUTH,
        n,
    )


def verify_section5(n: int = 4) -> list[dict]:
    """All three replacement checks at one truncation size."""
    return [
        section5_free_commutation(n),
        section5_degree3_comparison(n),
        section5_degree4_comparison(n),
    ]
