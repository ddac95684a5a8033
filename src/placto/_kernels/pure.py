"""Pure-Python rewrite kernels.

Words are bytes objects, one letter per byte (values 1..255).  Rules arrive
direction-expanded from placto.rewrite as (left, right, strict) triples of
variable patterns.  The compiled twin in _speedups.pyx implements the exact
same interface; the test suite cross-checks the two backends.
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
        raise ValueError("word too long for the compiled kernel")
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


def is_equivalent(u: bytes, v: bytes, table: RuleTable) -> bool:
    """True iff v is reachable from u; searches breadth-first with early exit."""
    if u == v:
        return True
    if len(u) != len(v):
        return False
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for rewritten in _rewrites(w, table):
                if rewritten not in seen:
                    if rewritten == v:
                        return True
                    seen.add(rewritten)
                    nxt.append(rewritten)
        frontier = nxt
    return False


def canonical(word: bytes, table: RuleTable) -> bytes:
    """Lexicographically least member of the closure."""
    return min(closure(word, table))
