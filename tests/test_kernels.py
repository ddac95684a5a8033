"""The rewrite kernel on the edges of its input: empty words and the 255-letter limit."""

import pytest

from placto import _kernels
from placto.rewrite import KNUTH, SHIFTED_KNUTH, expanded_rules


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
