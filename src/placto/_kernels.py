"""The rewrite kernel: window lookup and breadth-first class closure.

Words are bytes objects, one letter per byte (values 1..255), so a word has
at most 255 letters.  Rules arrive direction-expanded from placto.rewrite as
(left, right, strict) triples of variable patterns; `RuleTable` groups them
by pattern length.  A rewrite replaces one window, so the rules are matched
against each distinct window once (`_window_rewrites`) and the replacements
are looked up in a window -> replacements cache.  `closure` and `neighbors`
each make their own cache and drop it when they return, so it never outgrows
the class being closed.  There is one kernel, in pure Python; `backend_name`
is always "pure" (exported as `placto.kernel_backend`).
"""

from __future__ import annotations

backend_name = "pure"

_MAX_PAT = 16
_MAX_WORD = 255


class RuleTable:
    """Preprocessed one-directional rewrite rules over variable patterns,
    as `groups`: (pattern length, rules of that length) pairs."""

    __slots__ = ("groups",)

    def __init__(self, rules):
        by_length: dict[int, list] = {}
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
            by_length.setdefault(len(left), []).append((nvars, left, right, strict))
        self.groups = tuple((plen, tuple(group)) for plen, group in sorted(by_length.items()))


def _window_rewrites(win: bytes, rules) -> tuple[bytes, ...]:
    """The replacements of the window `win` under `rules`, whose patterns
    all have the window's length."""
    out = []
    for nvars, left, right, strict in rules:
        vals = [0] * nvars
        ok = True
        for v, a in zip(left, win):
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
        if ok:
            out.append(bytes([vals[v] for v in right]))
    return tuple(out)


def _rewrites(word: bytes, table: RuleTable, cache: dict):
    """Yield every one-step rewrite of `word` under `table`; `cache` maps
    each window seen so far to its replacements."""
    length = len(word)
    if length > _MAX_WORD:
        raise ValueError(f"word longer than {_MAX_WORD} letters")
    for plen, rules in table.groups:
        for pos in range(length - plen + 1):
            end = pos + plen
            win = word[pos:end]
            replacements = cache.get(win)
            if replacements is None:
                replacements = cache[win] = _window_rewrites(win, rules)
            if replacements:
                head, tail = word[:pos], word[end:]
                for r in replacements:
                    yield head + r + tail


def neighbors(word: bytes, table: RuleTable) -> set:
    """Words reachable from `word` by one rule application at one position."""
    return set(_rewrites(word, table, {}))


def closure(word: bytes, table: RuleTable) -> set:
    """Breadth-first reflexive-transitive closure of the one-step rewrites."""
    cache: dict[bytes, tuple[bytes, ...]] = {}
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for rewritten in _rewrites(w, table, cache):
                if rewritten not in seen:
                    seen.add(rewritten)
                    nxt.append(rewritten)
        frontier = nxt
    return seen
