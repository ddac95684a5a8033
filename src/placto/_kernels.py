"""The rewrite kernel: window lookup and breadth-first class closure.

The closure lists the classes of custom relation sets, and the tests keep it
as the reference for every route that insertion takes for the two shipped
sets: `class` lists a shipped class from its insertion tableau by reverse
insertion (`tableaux.insertion_fiber`), not through this kernel.

Words are bytes objects, one letter per byte (values 1..255), so a word has
at most 255 letters.  Rules arrive direction-expanded from placto.rewrite as
(left, right, strict) triples of variable patterns; `RuleTable` groups them
by pattern length.  Whether a rule matches a window depends only on the
window's order type (its letters replaced by their ranks, ties kept), and
its replacement is a rearrangement of the window's letters, since both sides
use the same variables.  So `RuleTable` maps each order type it has met to
the position permutations of the rules that match it, computed once by the
matcher (`_matching_permutations`) and kept for the life of the table.  It
holds at most one entry per weak order of each pattern length: 13 for
`KNUTH` (length 3), 75 for `SHIFTED_KNUTH` (length 4), whatever the letters.
`closure` also caches window -> replacements, in a dict of its own that it
drops when it returns, so that cache never outgrows the class being closed.  There is one kernel, in pure Python;
`backend_name` is always "pure" (exported as `placto.kernel_backend`).
"""

from __future__ import annotations

from operator import itemgetter

backend_name = "pure"

_MAX_PAT = 16
_MAX_WORD = 255


class RuleTable:
    """Preprocessed one-directional rewrite rules over variable patterns.

    `groups` holds (pattern length, rules of that length) pairs, and
    `order_types` maps each window order type met so far (a bytes object of
    ranks from 0) to the permutations, as `itemgetter`s over the window's
    positions, of the rules that match it.
    """

    __slots__ = ("groups", "order_types", "_by_length")

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
            if not set(right) <= set(left):
                raise ValueError("right pattern uses a variable the left pattern lacks")
            perm = tuple(left.index(v) for v in right)
            by_length.setdefault(len(left), []).append((nvars, left, perm, strict))
        self.groups = tuple((plen, tuple(group)) for plen, group in sorted(by_length.items()))
        self._by_length = dict(self.groups)
        self.order_types: dict[bytes, tuple] = {}

    def replacements(self, win: bytes) -> tuple[bytes, ...]:
        """The replacements of the window `win` under the rules of its length."""
        order_type = bytes(map(sorted(set(win)).index, win))
        getters = self.order_types.get(order_type)
        if getters is None:
            # the matcher reads 0 as an unbound variable, so ranks start at 1
            ranks = bytes(r + 1 for r in order_type)
            getters = self.order_types[order_type] = tuple(
                # itemgetter of one index returns a letter, not a sequence
                itemgetter(*perm) if len(perm) > 1 else itemgetter(slice(None))
                for perm in _matching_permutations(ranks, self._by_length[len(win)])
            )
        return tuple(bytes(get(win)) for get in getters)


def _matching_permutations(win: bytes, rules) -> list[tuple[int, ...]]:
    """The position permutations of the rules that match `win`, whose
    patterns all have the window's length."""
    out = []
    for nvars, left, perm, strict in rules:
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
            out.append(perm)
    return out


def _grow(frontier: list, table: RuleTable, cache: dict, seen: set) -> list:
    """Add to `seen` every one-step rewrite of the words of `frontier`
    under `table`, and return those that were not in it yet, in order of
    discovery.  `cache` maps each window seen so far to its replacements."""
    lengths = [plen for plen, _ in table.groups]
    replacements_of = table.replacements
    found = []
    for word in frontier:
        length = len(word)
        if length > _MAX_WORD:
            raise ValueError(f"word longer than {_MAX_WORD} letters")
        for plen in lengths:
            for pos in range(length - plen + 1):
                end = pos + plen
                win = word[pos:end]
                replacements = cache.get(win)
                if replacements is None:
                    replacements = cache[win] = replacements_of(win)
                if replacements:
                    head, tail = word[:pos], word[end:]
                    for r in replacements:
                        rewritten = head + r + tail
                        if rewritten not in seen:
                            seen.add(rewritten)
                            found.append(rewritten)
    return found


def closure(word: bytes, table: RuleTable, cap: int | None = None) -> set:
    """Breadth-first reflexive-transitive closure of the one-step rewrites.

    With a `cap`, raises ValueError as soon as a whole layer of the search
    leaves more than `cap` words found, so the last layer may overshoot the
    cap by up to the words one rewrite of the layer before reaches."""
    cache: dict[bytes, tuple[bytes, ...]] = {}
    seen = {word}
    frontier = [word]
    while frontier:
        frontier = _grow(frontier, table, cache, seen)
        if cap is not None and len(seen) > cap:
            raise ValueError(
                f"the class has at least {len(seen)} members, more than the limit of {cap}"
            )
    return seen
