"""The two kernel backends must be byte-for-byte interchangeable."""

import itertools

import pytest

from placto._kernels import pure
from placto.rewrite import KNUTH, SHIFTED_KNUTH, expanded_rules

try:
    from placto._kernels import _speedups as fast
except ImportError:  # pragma: no cover - extension not built
    fast = None

needs_fast = pytest.mark.skipif(fast is None, reason="compiled kernel not built")


def _tables(rels):
    rules = expanded_rules(rels)
    return pure.RuleTable(rules), fast.RuleTable(rules)


@needs_fast
@pytest.mark.parametrize("rels", [KNUTH, SHIFTED_KNUTH], ids=lambda r: r.name)
def test_backends_agree_exhaustively(rels):
    tp, tf = _tables(rels)
    for degree in range(0, 6):
        for letters in itertools.product(range(1, 4), repeat=degree):
            w = bytes(letters)
            assert pure.neighbors(w, tp) == fast.neighbors(w, tf)
            assert pure.closure(w, tp) == fast.closure(w, tf)
            assert pure.canonical(w, tp) == fast.canonical(w, tf)


@needs_fast
def test_backends_agree_on_equivalence_queries():
    tp, tf = _tables(SHIFTED_KNUTH)
    words = [bytes(ls) for ls in itertools.product(range(1, 4), repeat=4)]
    for u in words[::5]:
        for v in words[::7]:
            assert pure.is_equivalent(u, v, tp) == fast.is_equivalent(u, v, tf)


@needs_fast
def test_empty_rule_table():
    tp = pure.RuleTable(())
    tf = fast.RuleTable(())
    assert pure.closure(b"\x01\x02", tp) == fast.closure(b"\x01\x02", tf) == {b"\x01\x02"}
    assert pure.neighbors(b"\x01", tp) == fast.neighbors(b"\x01", tf) == set()


@needs_fast
def test_bad_rules_rejected_by_both():
    bad = (((0, 1, 5), (1, 0, 5), (True, True)),)  # variable index out of range
    with pytest.raises(ValueError):
        pure.RuleTable(bad)
    with pytest.raises(ValueError):
        fast.RuleTable(bad)


def test_pure_closure_of_empty_word():
    tp = pure.RuleTable(expanded_rules(KNUTH))
    assert pure.closure(b"", tp) == {b""}


@pytest.mark.parametrize(
    "backend", [pure] + ([fast] if fast is not None else []), ids=lambda b: b.backend_name
)
def test_words_over_255_letters_rejected(backend):
    table = backend.RuleTable(expanded_rules(SHIFTED_KNUTH))
    longest = bytes([1]) * 255
    assert backend.closure(longest, table) == {longest}
    assert backend.neighbors(longest, table) == set()
    for kernel in (backend.closure, backend.neighbors):
        with pytest.raises(ValueError, match="^word too long for the compiled kernel$"):
            kernel(longest + bytes([1]), table)
