"""The rewrite kernel: window matching and breadth-first class closure.

Words are bytes objects, one letter per byte (values 1..255), so a word has
at most 255 letters.  Rules arrive direction-expanded from placto.rewrite as
(left, right, strict) triples of variable patterns.  There is one kernel, in
pure Python; `backend_name` is always "pure" (exported as
`placto.kernel_backend`).
"""

from __future__ import annotations

backend_name = "pure"

_MAX_PAT = 16
_MAX_WORD = 255


class RuleTable:
    """Preprocessed one-directional rewrite rules over variable patterns."""

    __slots__ = ("rules",)

    def __init__(self, rules):
        compiled = []
        for left, right, strict in rules:
            left, right, strict = tuple(left), tuple(right), tuple(strict)
            if len(left) != len(right):
                raise ValueError("patterns must have equal length")
            if not 0 < len(left) <= _MAX_PAT:
                raise ValueError("pattern length out of range")
            nvars = len(strict) + 1
            if nvars > _MAX_PAT:
                raise ValueError("too many pattern variables")
            for v in left + right:
                if not 0 <= v < nvars:
                    raise ValueError(f"bad variable index {v}")
            compiled.append((len(left), nvars, left, right, strict))
        self.rules = tuple(compiled)


def _rewrites(word: bytes, table: RuleTable):
    """Yield every one-step rewrite of `word` under `table`."""
    length = len(word)
    if length > _MAX_WORD:
        raise ValueError(f"word longer than {_MAX_WORD} letters")
    for plen, nvars, left, right, strict in table.rules:
        if plen > length:
            continue
        for pos in range(length - plen + 1):
            vals = [0] * nvars
            ok = True
            for k in range(plen):
                v = left[k]
                a = word[pos + k]
                if vals[v] == 0:
                    vals[v] = a
                elif vals[v] != a:
                    ok = False
                    break
            if not ok:
                continue
            for i in range(nvars - 1):
                if strict[i]:
                    if vals[i] >= vals[i + 1]:
                        ok = False
                        break
                elif vals[i] > vals[i + 1]:
                    ok = False
                    break
            if not ok:
                continue
            yield word[:pos] + bytes(vals[right[k]] for k in range(plen)) + word[pos + plen :]


def neighbors(word: bytes, table: RuleTable) -> set:
    """Words reachable from `word` by one rule application at one position."""
    return set(_rewrites(word, table))


def closure(word: bytes, table: RuleTable) -> set:
    """Breadth-first reflexive-transitive closure of the one-step rewrites."""
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for rewritten in _rewrites(w, table):
                if rewritten not in seen:
                    seen.add(rewritten)
                    nxt.append(rewritten)
        frontier = nxt
    return seen
