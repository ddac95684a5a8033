"""Acceptance criteria, one test per criterion.

Each test enforces exact equality (set/partition/coefficient equality, exact
zero for commutators) plus the stated wall-clock budget, and prints a one
line pass report; run with `pytest tests/test_acceptance.py -v -s` to see
the lines.
"""

import itertools
import time

from placto.algebra import (
    abelianize,
    commutator_in_quotient,
    free_schur,
    nc_mul,
    p_schur_poly,
    schur_poly,
    shifted_free_schur,
)
from placto.rewrite import KNUTH, SHIFTED_KNUTH, verify_factorization
from placto.tableaux import (
    ShiftedTableau,
    hook_factorization_check,
    mixed_insert,
    mixed_insert_word,
    p_tableau,
    partitions,
    strict_partitions,
)
from placto.verify import (
    _partition_degree,
    section5_degree3_comparison,
    section5_degree4_comparison,
    section5_free_commutation,
    verify_case_analysis,
    verify_tables,
)
from placto.words import Word, all_words

from oracles import kernel_classes


def _report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number:2d} {label}: PASS ({elapsed * 1000:.1f} ms < {budget * 1000:.0f} ms)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_single_mixed_insertion():
    """Inserting 2 into the three-row reference tableau, bit-exact result."""
    start = ShiftedTableau.from_strings([["1", "3", "6'"], ["4", "7"], ["8"]])
    expected = ShiftedTableau.from_strings([["1", "2", "4'", "6'"], ["3", "7"], ["8"]])
    mixed_insert(start, 2)  # warm caches before timing
    t0 = time.perf_counter()
    result = mixed_insert(start, 2)
    elapsed = time.perf_counter() - t0
    assert result == expected
    _report(1, "reference mixed insertion", elapsed, 0.001)


def test_criterion_02_hook_product_tables():
    """P(2,1)*P(1) monomials per content pattern: 8 + 4 + 4 + 4 words."""
    t0 = time.perf_counter()
    reports = verify_tables(family="shifted-2")
    elapsed = time.perf_counter() - t0
    sizes = {r["pattern"]: len(r["expected"]) for r in reports}
    assert sizes == {
        "distinct": 8,
        "second-smallest-repeated": 4,
        "biggest-repeated": 4,
        "smallest-repeated": 4,
    }
    assert all(r["pass"] for r in reports)
    _report(2, "shifted product table", elapsed, 1.0)


def test_criterion_03_column_product_table():
    """S(1,1)*S(1) monomials: {cba, cab, bac}, {caa}, {bab}."""
    t0 = time.perf_counter()
    reports = verify_tables(family="unshifted-1")
    elapsed = time.perf_counter() - t0
    by_pattern = {r["pattern"]: r for r in reports}
    assert by_pattern["distinct"]["actual"] == sorted(["321", "312", "213"])
    assert by_pattern["smallest-repeated"]["actual"] == ["211"]
    assert by_pattern["biggest-repeated"]["actual"] == ["212"]
    assert all(r["pass"] for r in reports)
    _report(3, "plactic product table", elapsed, 1.0)


def test_criterion_04_case_analysis_regeneration():
    """Unique survivors matching every relation right side, both systems."""
    t0 = time.perf_counter()
    shifted = verify_case_analysis("shifted-knuth")
    knuth = verify_case_analysis("knuth")
    elapsed = time.perf_counter() - t0
    assert len(shifted) == 24 and all(r["pass"] for r in shifted)
    assert len(knuth) == 4 and all(r["pass"] for r in knuth)
    for r in shifted + knuth:
        assert r["survivor"] == r["expected"]
    _report(4, "case-analysis regeneration", elapsed, 10.0)


def _fiber_partition(insert, n, degree):
    fibers = {}
    for w in all_words(n, degree):
        fibers.setdefault(insert(w), set()).add(w.to_bytes())
    return {frozenset(v) for v in fibers.values()}


def test_criterion_05_plactic_fibers():
    """Knuth classes coincide with Schensted insertion fibers, n=3, deg 1..6.

    The classes come from the kernel's breadth-first closure
    (`oracles.kernel_classes`), not from the shipped set's own `classes`,
    which lists them as insertion fibers.
    """
    t0 = time.perf_counter()
    for degree in range(1, 7):
        classes = {frozenset(c) for c in kernel_classes(KNUTH, 3, degree)}
        assert classes == _fiber_partition(p_tableau, 3, degree)
    elapsed = time.perf_counter() - t0
    _report(5, "plactic fiber equality", elapsed, 30.0)


def test_criterion_06_shifted_fibers():
    """Shifted classes coincide with mixed insertion fibers, n=3, deg 1..6,
    with the classes from breadth-first closure as in criterion 05."""
    t0 = time.perf_counter()
    for degree in range(1, 7):
        classes = {frozenset(c) for c in kernel_classes(SHIFTED_KNUTH, 3, degree)}
        assert classes == _fiber_partition(mixed_insert_word, 3, degree)
    elapsed = time.perf_counter() - t0
    _report(6, "shifted fiber equality", elapsed, 60.0)


def test_criterion_07_commutation_certificates():
    """Both commutators vanish exactly in their quotients at n=4, D=6."""
    t0 = time.perf_counter()
    plactic = commutator_in_quotient(
        free_schur((1,), 4, 6), free_schur((1, 1), 4, 6), KNUTH
    )
    shifted = commutator_in_quotient(
        shifted_free_schur((1,), 4, 6), shifted_free_schur((2, 1), 4, 6), SHIFTED_KNUTH
    )
    elapsed = time.perf_counter() - t0
    assert plactic.is_zero()
    assert shifted.is_zero()
    _report(7, "commutation certificates", elapsed, 60.0)


def test_criterion_08_quotient_factorization():
    """Every shifted relation instance over {1..4} is a Knuth equivalence."""
    t0 = time.perf_counter()
    assert verify_factorization(4, 4)
    elapsed = time.perf_counter() - t0
    _report(8, "quotient factorization", elapsed, 5.0)


def test_criterion_09_abelianization_identities():
    """Exact coefficient equality of both content generating functions, n=4."""
    t0 = time.perf_counter()
    for size in range(0, 5):
        for nu in partitions(size):
            assert abelianize(free_schur(nu, 4)) == schur_poly(nu, 4)
    for size in range(1, 6):
        for nu in strict_partitions(size):
            assert abelianize(shifted_free_schur(nu, 4)) == p_schur_poly(nu, 4)
    elapsed = time.perf_counter() - t0
    _report(9, "abelianization identities", elapsed, 30.0)


def test_criterion_10_replacement_checks():
    """Free commutation at n=5; forced congruences at n=4 match both systems."""
    t0 = time.perf_counter()
    assert section5_free_commutation(5)["pass"]
    assert section5_degree3_comparison(4)["pass"]
    assert section5_degree4_comparison(4)["pass"]
    elapsed = time.perf_counter() - t0
    _report(10, "replacement propositions", elapsed, 60.0)


def test_criterion_11_lr_sanity():
    """Expansion coefficients at n=4 against the class-counting oracle."""
    from placto.algebra import lr_expand
    from placto.rewrite import equivalent
    from placto.tableaux import enumerate_ssyt, reading_word
    from placto.words import concat, content

    def oracle(nu, mu, xi):
        target = reading_word(enumerate_ssyt(xi, 4)[0], 4)
        hits = 0
        for u in free_schur(nu, 4).terms:
            for v in free_schur(mu, 4).terms:
                uv = concat(Word.from_bytes(u, 4), Word.from_bytes(v, 4))
                if content(uv) == content(target) and equivalent(uv, target, KNUTH):
                    hits += 1
        return hits

    t0 = time.perf_counter()
    square = lr_expand((1,), (1,), 4)
    pieri = lr_expand((2, 1), (1,), 4)
    assert square == {(2,): 1, (1, 1): 1}
    assert pieri == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    for coeffs, (nu, mu) in ((square, ((1,), (1,))), (pieri, ((2, 1), (1,)))):
        for xi in partitions(sum(nu) + sum(mu)):
            if len(xi) <= 4:
                assert coeffs.get(xi, 0) == oracle(nu, mu, xi)
    elapsed = time.perf_counter() - t0
    _report(11, "product expansion sanity", elapsed, 30.0)


def test_criterion_12_unique_hook_representatives():
    """Each shifted class of degree <= 5 over n=4 has exactly one hook word."""
    t0 = time.perf_counter()
    for degree in range(1, 6):
        shapes = list(strict_partitions(degree))
        for cls in _partition_degree(SHIFTED_KNUTH, 4, degree):
            hits = sum(
                1
                for wb in cls
                for nu in shapes
                if hook_factorization_check(Word(tuple(wb), 4), nu)
            )
            assert hits == 1, (cls, hits)
    elapsed = time.perf_counter() - t0
    _report(12, "unique hook representatives", elapsed, 30.0)
