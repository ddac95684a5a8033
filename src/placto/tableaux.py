"""Semistandard and shifted semistandard tableaux, insertion, and hook words.

Ordinary tableaux hold plain letters; shifted tableaux hold letters from the
doubled alphabet a' < a < b' (for a < b), stored in an integer encoding where
the unprimed letter a is 2a and the primed letter a' is 2a - 1, so integer
order coincides with doubled-alphabet order.

Two insertion algorithms live here: classical Schensted row insertion (whose
fibers are the Knuth classes) and mixed insertion building a shifted tableau
(whose fibers are the shifted Knuth classes).  Both take plain letters, and
their reverses give plain letters back.  Reverse column insertion finds the
least word of a Knuth class from its tableau, reverse row and reverse mixed
insertion list a whole class from its tableau (`insertion_fiber`), and the
members of a class are counted from the shape of its tableau: by the hook
length formula (`standard_count`) and by Schur's product for shifted
shapes (`shifted_standard_count`).  Hook words - strictly decreasing
prefix followed by weakly increasing suffix - provide canonical
representatives for the shifted classes; reverse mixed insertion reads the
one of a class off its mixed tableau (`hook_word`), without listing it.

The insertion and hook functions take any letter sequence: a byte word (the
internal word type), a tuple or a `Word`.  The tableaux of a shape are
counted in closed form (`ssyt_count`, `shifted_ssyt_count`) and listed as
row tuples by one cell-by-cell filler (`_fillings`, under `_ssyt_rows` and
`_shssyt_rows`), the standard tableaux letter by letter (`_standard_rows`),
and hook words as byte words (`_hook_words`, the hook word
of each shifted tableau of the shape); the public `enumerate_ssyt` and
`enumerate_hook` wrap them in validated `Tableau` and `Word` objects.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator

from .words import Frozen, Word

# ---------------------------------------------------------------------------
# partitions


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_strict_partition(parts: tuple[int, ...]) -> bool:
    return all(p > 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


def partitions(size: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of `size` in decreasing lexicographic order."""
    if size == 0:
        yield ()
        return
    cap = size if max_part is None else min(max_part, size)
    for first in range(cap, 0, -1):
        for rest in partitions(size - first, first):
            yield (first,) + rest


def strict_partitions(size: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Strict partitions of `size` in decreasing lexicographic order."""
    if size == 0:
        yield ()
        return
    cap = size if max_part is None else min(max_part, size)
    for first in range(cap, 0, -1):
        for rest in strict_partitions(size - first, first - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# doubled alphabet encoding


def primed(a: int) -> int:
    """Encoded primed letter a'."""
    return 2 * a - 1


def unprimed(a: int) -> int:
    """Encoded unprimed letter a."""
    return 2 * a


def is_primed(x: int) -> bool:
    return x % 2 == 1


def base_letter(x: int) -> int:
    """The plain letter underlying an encoded doubled-alphabet entry."""
    return (x + 1) // 2


def format_entry(x: int) -> str:
    return f"{base_letter(x)}'" if is_primed(x) else str(base_letter(x))


def parse_entry(text: str) -> int:
    text = text.strip()
    if text.endswith("'"):
        return primed(int(text[:-1]))
    return unprimed(int(text))


# ---------------------------------------------------------------------------
# ordinary semistandard tableaux


class Tableau(Frozen):
    """Semistandard Young tableau: rows weakly increase, columns strictly increase."""

    __slots__ = ("rows",)

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        shape = tuple(len(r) for r in rows)
        if not (shape == () or is_partition(shape)):
            raise ValueError(f"row lengths {shape} do not form a partition")
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                if a < 1:
                    raise ValueError(f"bad entry {a}")
                if j > 0 and row[j - 1] > a:
                    raise ValueError(f"row {i + 1} not weakly increasing")
                if i > 0 and rows[i - 1][j] >= a:
                    raise ValueError(f"column {j + 1} not strictly increasing")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def reading_letters(self) -> tuple[int, ...]:
        """Rows bottom to top, each left to right."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [[str(a) for a in row] for row in self.rows],
        }

    def __str__(self) -> str:
        return "/".join("".join(str(a) for a in row) for row in self.rows) or "-"


def _row_insert(rows: list[list[int]], x: int) -> None:
    """Row-insert x into mutable rows: bump the leftmost strictly greater
    entry, recurse below."""
    for row in rows:
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return
        x, row[j] = row[j], x
    rows.append([x])


def _row_uninsert(rows: list[tuple[int, ...]], r: int) -> int:
    """Undo the row insertion that ended in the last cell of row r of a list
    of row tuples, the inverse of `_row_insert`: drop that entry, then in
    each row above swap it with the rightmost entry strictly smaller.
    Returns the letter inserted.  Only the rows it changes are replaced, by
    new tuples, in the list; the others stay the same objects."""
    row = rows[r]
    y = row[-1]
    if len(row) == 1:
        rows.pop()  # a row of one cell is the last row
    else:
        rows[r] = row[:-1]
    for k in range(r - 1, -1, -1):
        above = rows[k]
        j = bisect_left(above, y) - 1
        rows[k] = (*above[:j], y, *above[j + 1 :])
        y = above[j]
    return y


def schensted_rows(letters) -> tuple[tuple[int, ...], ...]:
    """Rows of the Schensted insertion tableau of a letter sequence (a tuple
    or a byte word).  Its fibers are the Knuth classes (Knuth 1970)."""
    rows: list[list[int]] = []
    for a in letters:
        _row_insert(rows, a)
    return tuple(map(tuple, rows))


def _reverse_column_insert(
    cols: tuple[tuple[int, ...], ...], c: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reverse column insertion from the corner at the bottom of column c:
    pop that entry y, then in each column to the left swap y with the
    lowest entry <= y.  Returns the letter that leaves column 0 and the
    columns left behind."""
    out = list(cols)
    y = cols[c][-1]
    out[c] = cols[c][:-1]
    if not out[c]:
        out.pop()  # a corner of height one ends the last column
    for k in range(c - 1, -1, -1):
        col = cols[k]
        j = bisect_right(col, y) - 1
        out[k] = col[:j] + (y,) + col[j + 1 :]
        y = col[j]
    return y, tuple(out)


def least_plactic_word(letters) -> bytes:
    """Lexicographically least word with the Schensted tableau of a letter
    sequence (a tuple or a byte word): the least member of its Knuth class,
    found without listing the class.

    P(x w) is the column insertion of x into P(w) (Schensted 1961), so the
    first letters of the class are those that reverse column insertion
    ejects from the corners of P.  The search keeps every tableau whose
    least word ties so far: at each step it ejects from every corner of
    each of them, emits the least ejected letter and keeps the tableaux that
    ejecting it leaves.  Ties must all be kept; following one tied corner
    gives wrong words.
    """
    rows = schensted_rows(letters)
    width = len(rows[0]) if rows else 0
    # columns strictly increase downwards, so bisect finds each swap
    frontier = {tuple(tuple(row[k] for row in rows if len(row) > k) for k in range(width))}
    out = bytearray()
    for _ in range(len(letters)):
        ejected = [
            _reverse_column_insert(cols, c)
            for cols in frontier
            for c in range(len(cols))
            if c == len(cols) - 1 or len(cols[c + 1]) < len(cols[c])  # corners
        ]
        best = min(y for y, _ in ejected)
        out.append(best)
        frontier = {rest for y, rest in ejected if y == best}
    return bytes(out)


def _hook_product(shape: tuple[int, ...]) -> int:
    """Product of the hook lengths of the cells of a partition."""
    hooks = 1
    for i, length in enumerate(shape):
        for j in range(length):
            below = sum(1 for later in shape[i + 1 :] if later > j)
            hooks *= length - j + below
    return hooks


def standard_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a shape, by the hook length formula: the
    size of each Knuth class whose Schensted tableau has this shape.  A
    shape of one row or one column has one, whose count skips the product
    of as many hooks as it has cells."""
    if len(shape) <= 1 or shape[0] == 1:
        return 1
    return math.factorial(sum(shape)) // _hook_product(shape)


def ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Semistandard tableaux of a shape with entries <= n, by the hook
    content formula: the product over the cells of (n + j - i) / hook, for
    the cell in row i and column j.  This is `len(enumerate_ssyt(shape, n))`
    without listing them; a shape of more than n rows has a cell of content
    -n, so it counts 0."""
    if not (shape == () or is_partition(shape)):
        raise ValueError(f"{shape} is not a partition")
    contents = 1
    for i, length in enumerate(shape):
        for j in range(length):
            contents *= n + j - i
    return contents // _hook_product(shape)


def shifted_standard_count(shape: tuple[int, ...]) -> int:
    """Standard shifted tableaux of a strict shape, by Schur's product
    |shape|! / prod shape_i! * prod_{i<j} (shape_i - shape_j) / (shape_i +
    shape_j) (Thrall 1952): the size of each shifted Knuth class whose
    mixed insertion tableau has this shape."""
    top, bottom = math.factorial(sum(shape)), 1
    for i, p in enumerate(shape):
        bottom *= math.factorial(p)
        for q in shape[i + 1 :]:
            top *= p - q
            bottom *= p + q
    return top // bottom


def shifted_ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Shifted semistandard tableaux of a strict shape with letters <= n,
    P_shape(1^n), by Schur's Pfaffian (Macdonald, *Symmetric Functions and
    Hall Polynomials*, III.8; Stembridge 1989), without listing them.  With
    the shape padded by a part 0 to an even number of rows, and q_0 = 1,

        q_r = sum over j of C(n, j) C(r - j + n - 1, n - 1),
        Q_(r,s) = q_r q_s + 2 sum_{k=1..s} (-1)^k q_(r+k) q_(s-k),
        P_shape = 2^-rows Pf[Q_(shape_i, shape_j)].

    The Pfaffian counts the tableaux with primes allowed on the diagonal,
    so it is the nonnegative square root of the determinant, which
    fraction-free (Bareiss) elimination finds exactly."""
    if not (shape == () or is_strict_partition(shape)):
        raise ValueError(f"{shape} is not a strict partition")
    q = [
        sum(math.comb(n, j) * math.comb(r - j + n - 1, n - 1) for j in range(min(r, n) + 1))
        for r in range(2 * max(shape, default=0) + 1)
    ]
    parts = shape + (0,) * (len(shape) % 2)
    m = [[0] * len(parts) for _ in parts]
    for i, r in enumerate(parts):
        for j in range(i + 1, len(parts)):
            s = parts[j]
            tail = sum((-1) ** k * q[r + k] * q[s - k] for k in range(1, s + 1))
            m[i][j] = q[r] * q[s] + 2 * tail
            m[j][i] = -m[i][j]
    sign, last = 1, 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // last
        last = m[k][k]
    return math.isqrt(sign * last) >> len(shape)


def p_tableau(w: Word) -> Tableau:
    """Insertion tableau of a word: left fold of Schensted insertion."""
    return Tableau(schensted_rows(w))


def reading_word(tableau: Tableau, n: int | None = None) -> Word:
    """Reading word of a tableau as a Word over {1..n} (default: max entry)."""
    letters = tableau.reading_letters()
    if n is None:
        n = max(letters, default=1)
    return Word(letters, n)


def enumerate_ssyt(shape: tuple[int, ...], n: int) -> list[Tableau]:
    """All semistandard tableaux of the given shape with entries <= n."""
    return [Tableau(rows) for rows in _ssyt_rows(shape, n)]


def _ssyt_rows(shape: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every semistandard tableau of the given shape with
    entries <= n, as tuples (`_fillings`)."""
    if not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")

    def entries(grid: list[list[int]], i: int, j: int) -> range:
        lo = grid[i][j - 1] if j else 1
        if i:
            lo = max(lo, grid[i - 1][j] + 1)
        return range(lo, n + 1)

    return _fillings(shape, entries)


def _fillings(shape: tuple[int, ...], entries) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every filling of the shape, as tuples, filled cell by
    cell in row order: `entries(grid, i, j)` gives the entries cell (i, j)
    can take after the cells before it in `grid`."""
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    out: list[tuple[tuple[int, ...], ...]] = []
    _fill(cells, 0, [[0] * length for length in shape], entries, out)
    return out


def _fill(cells: list[tuple[int, int]], k: int, grid: list[list[int]], entries, out: list) -> None:
    """Fill the cells from the k-th on into `out`.  Not a closure that refers
    to itself, so that a listing is freed as soon as its caller drops it."""
    if k == len(cells):
        out.append(tuple(map(tuple, grid)))
        return
    i, j = cells[k]
    for x in entries(grid, i, j):
        grid[i][j] = x
        _fill(cells, k + 1, grid, entries, out)


def _standard_rows(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every standard tableau of a partition, as tuples: the
    letters 1..|shape| placed in turn, each at the end of a row that is
    shorter than its part and than the row above (`_place`)."""
    out: list[tuple[tuple[int, ...], ...]] = []
    _place(shape, [[] for _ in shape], 1, out)
    return out


def _place(shape: tuple[int, ...], rows: list[list[int]], k: int, out: list) -> None:
    """Place the letters from k on into `rows` (`_standard_rows`).  Not a
    closure that refers to itself, as `_fill` is not."""
    if k > sum(shape):
        out.append(tuple(map(tuple, rows)))
        return
    for i, row in enumerate(rows):
        if len(row) < shape[i] and (i == 0 or len(row) < len(rows[i - 1])):
            row.append(k)
            _place(shape, rows, k + 1, out)
            row.pop()


# ---------------------------------------------------------------------------
# shifted semistandard tableaux


class ShiftedTableau(Frozen):
    """Shifted semistandard tableau over the doubled alphabet.

    Row i (0-based) is indented i cells, so its leftmost entry sits on the
    main diagonal.  Entries are stored in the integer doubled encoding.
    Invariants: rows and columns weakly increase, a primed value appears at
    most once per row, an unprimed value at most once per column, and every
    diagonal entry is unprimed.
    """

    __slots__ = ("rows",)

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        shape = tuple(len(r) for r in rows)
        if not (shape == () or is_strict_partition(shape)):
            raise ValueError(f"row lengths {shape} do not form a strict partition")
        for i, row in enumerate(rows):
            if is_primed(row[0]):
                raise ValueError(f"diagonal entry of row {i + 1} is primed")
            for j, x in enumerate(row):
                if x < 1:
                    raise ValueError(f"bad entry {x}")
                if j > 0 and row[j - 1] > x:
                    raise ValueError(f"row {i + 1} not weakly increasing")
                if j > 0 and row[j - 1] == x and is_primed(x):
                    raise ValueError(f"primed {format_entry(x)} repeated in row {i + 1}")
            if i > 0:
                above = rows[i - 1]
                # cell (i, j) sits in absolute column i + j; above it is
                # (i - 1, i + j - (i - 1)) = (i - 1, j + 1)
                for j, x in enumerate(row):
                    y = above[j + 1]
                    if y > x:
                        raise ValueError(f"column of cell ({i + 1},{j + 1}) decreases")
                    if y == x and not is_primed(x):
                        raise ValueError(
                            f"unprimed {format_entry(x)} repeated in a column"
                        )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_strings(cls, rows) -> "ShiftedTableau":
        """Build from rows of entry strings like ["1", "3", "6'"]."""
        return cls(tuple(tuple(parse_entry(s) for s in row) for row in rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "rows": [[format_entry(x) for x in row] for row in self.rows],
        }

    def __str__(self) -> str:
        return "/".join(" ".join(format_entry(x) for x in row) for row in self.rows) or "-"


def _mixed_insert_encoded(rows: list[list[int]], a: int) -> None:
    """Mixed-insert the plain letter a into mutable shifted rows (doubled
    encoding), as the unprimed entry a.

    A value row-inserts into a row by bumping the leftmost entry strictly
    greater, and column-inserts into a column by bumping the topmost one;
    with none, it takes the cell at the end.  A bumped entry that is
    unprimed and off the main diagonal row-inserts into the row below,
    while one that is primed, or unprimed on the diagonal, which primes it,
    column-inserts into the column to the right.  The rows holding a cell of
    column c are rows 0, 1, ... in turn, so one scan down finds its bump.
    """
    v, r, c = 2 * a, 0, -1  # c < 0: v row-inserts into row r; else into column c
    while True:
        if c >= 0:
            r = 0
            while r < len(rows) and r <= c < r + len(rows[r]) and rows[r][c - r] <= v:
                r += 1
        if r == len(rows):
            rows.append([])
        row = rows[r]
        j = bisect_right(row, v) if c < 0 else c - r
        if not 0 <= j <= len(row):
            raise ValueError("mixed insertion broke the shifted shape")
        if j == len(row):
            row.append(v)
            return
        x, row[j] = row[j], v
        if x % 2 == 0 and j:  # unprimed off the diagonal: into the row below
            v, r, c = x, r + 1, -1
        else:  # primed, or primed now on the diagonal: into the next column
            v, c = x - 1 + x % 2, r + j + 1


def _mixed_uninsert_encoded(rows: list[tuple[int, ...]], r: int) -> int:
    """Undo the mixed insertion that ended in the last cell of row r of a
    list of shifted row tuples (doubled encoding); returns the plain letter
    inserted.  Only the rows it changes are replaced, by new tuples, in the
    list; the others stay the same objects.

    Row insertion carries only unprimed values and column insertion only
    primed ones, so the value leaving a cell tells how it got there.  An
    unprimed value was row-inserted: in row 0 it is the letter, otherwise it
    swaps with the rightmost entry below it in the row above.  A primed
    value was column-inserted: it swaps with the bottommost entry below it
    in the column to its left, and a diagonal cell there takes back the
    unprimed value that its bump primed.
    """
    row = rows[r]
    v = row[-1]
    c = r + len(row) - 1  # absolute column of the cell v leaves
    if len(row) == 1:
        rows.pop()  # a row of one cell is the last row
    else:
        rows[r] = row[:-1]
    while True:
        if not is_primed(v):
            if r == 0:
                return v // 2
            r -= 1
            above = rows[r]
            j = bisect_left(above, v) - 1
            rows[r] = (*above[:j], v, *above[j + 1 :])
            v = above[j]
            c = r + j
            continue
        c -= 1
        # column c holds rows 0..bottom and weakly increases downwards
        r = min(c, len(rows) - 1)
        while c - r >= len(rows[r]) or rows[r][c - r] >= v:
            r -= 1
        j = c - r
        row = rows[r]
        rows[r] = (*row[:j], v + 1 if j == 0 else v, *row[j + 1 :])
        v = row[j]


def mixed_insert(tableau: ShiftedTableau, z: int) -> ShiftedTableau:
    """Mixed-insert the plain (unprimed) letter z into a shifted tableau."""
    if z < 1:
        raise ValueError(f"bad letter {z}")
    rows = [list(r) for r in tableau.rows]
    _mixed_insert_encoded(rows, z)
    return ShiftedTableau(tuple(map(tuple, rows)))


def mixed_insertion_rows(letters) -> tuple[tuple[int, ...], ...]:
    """Rows, in the doubled encoding, of the mixed insertion tableau of a
    sequence of plain letters (a tuple or a byte word).  Its fibers are the
    shifted Knuth classes (Serrano 2010)."""
    rows: list[list[int]] = []
    for a in letters:
        _mixed_insert_encoded(rows, a)
    return tuple(map(tuple, rows))


def mixed_insert_word(w: Word) -> ShiftedTableau:
    """Mixed insertion tableau of a word without primed entries."""
    return ShiftedTableau(mixed_insertion_rows(w))


def _shssyt_rows(shape: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The rows, in the doubled encoding, of every shifted semistandard
    tableau of the given strict shape with letters <= n (`_fillings`).

    No cell is filled above its entry in the largest tableau of the shape
    (the entrywise maximum of two tableaux is one), so every partial
    filling extends to a tableau and no branch dies."""
    if not is_strict_partition(shape):
        raise ValueError(f"{shape} is not a strict partition")
    # hi: the largest tableau, filled from the last cell back; with more rows
    # than letters there is none, and hi leaves the first cell no entry
    hi = [[unprimed(n)] * length for length in shape]
    for i, j in reversed([(i, j) for i, length in enumerate(shape) for j in range(length)]):
        if j + 1 < shape[i]:
            right = hi[i][j + 1]
            hi[i][j] = min(hi[i][j], right - 1 if is_primed(right) else right)
        if j > 0 and i + 1 < len(shape) and j <= shape[i + 1]:
            below = hi[i + 1][j - 1]
            hi[i][j] = min(hi[i][j], below if is_primed(below) else below - 1)
        if j == 0 and is_primed(hi[i][j]):
            hi[i][j] -= 1

    def entries(grid: list[list[int]], i: int, j: int) -> range:
        lo = 1
        if j > 0:
            left = grid[i][j - 1]
            lo = max(lo, left + 1 if is_primed(left) else left)
        if i > 0:
            above = grid[i - 1][j + 1]
            lo = max(lo, above if is_primed(above) else above + 1)
        if j == 0:
            return range(lo + lo % 2, hi[i][j] + 1, 2)  # unprimed on the diagonal
        return range(lo, hi[i][j] + 1)

    return _fillings(shape, entries)


# ---------------------------------------------------------------------------
# insertion fibers


# The sub-tableau -> words memos of `insertion_fiber`, one per reverse
# insertion, kept for the life of the process: the classes that one process
# lists share most of their sub-tableaux.  Each entry is charged its words'
# bytes plus _FIBER_ENTRY_BYTES for its key, its dict slot and the header of
# its byte string (tracemalloc measured about 230 per entry over a stream of
# classes), and once the charge over all memos passes _FIBER_BUDGET after a
# call, every memo is cleared in place.
_FIBER_BUDGET = 4 << 20
_FIBER_ENTRY_BYTES = 240
_fiber_memos: dict = {}  # reverse insertion -> {sub-tableau rows: its words}
_fiber_charged = 0


def insertion_fiber(rows, uninsert, gap: int) -> list[bytes]:
    """Every word whose insertion tableau has these rows, unsorted, for an
    insertion that is one step of a bijection onto (tableau, standard
    recording tableau) pairs.

    `uninsert(rows, r)` undoes, on a list of row tuples, the insertion that
    ended in the last cell of row r and returns the plain letter inserted.
    Row r holds a corner when the row below it is shorter by more than
    `gap`: 0 for ordinary shapes, 1 for shifted ones.  The last letter of a
    word of P is the letter that reverse insertion from the corner its
    recording tableau ends in ejects, so

        words(P) = union over the corners c of P of words(P - c) . y_c,

    with words(empty) = {empty word}.  Each recording tableau gives exactly
    one word, so the union is disjoint.  The rule is memoized on the
    sub-tableau (`_fiber_words`), in one memo per `uninsert` that lives as
    long as the process, within a budget of `_FIBER_BUDGET` bytes over all
    memos: the words of a class share most of their prefixes' tableaux, and
    the classes of one process share many of them.  A sub-tableau's words
    are held as one byte string, each word followed by a 0 byte, which no
    letter (1..255) is; so appending y_c to every word of P - c is one
    `replace` of 0 by y_c 0, and joining the corners' strings is the union.
    """
    global _fiber_charged
    memo = _fiber_memos.setdefault(uninsert, {(): b"\0"})
    before = len(memo)
    fiber = _fiber_words(tuple(map(tuple, rows)), uninsert, gap, memo)[:-1].split(b"\0")
    added = len(memo) - before  # the new entries are the last ones in the dict
    _fiber_charged += added * _FIBER_ENTRY_BYTES
    _fiber_charged += sum(map(len, islice(reversed(memo.values()), added)))
    if _fiber_charged > _FIBER_BUDGET:
        _clear_fiber_memos()
    return fiber


def _fiber_words(rows: tuple[tuple[int, ...], ...], uninsert, gap: int, memo: dict) -> bytes:
    """The words of the sub-tableau `rows`, each followed by a 0 byte, read
    from `memo` or computed into it (`insertion_fiber`)."""
    got = memo.get(rows)
    if got is None:
        parts = []
        last = len(rows) - 1
        for r in range(last + 1):
            if r == last or len(rows[r + 1]) + gap < len(rows[r]):
                out = list(rows)
                y = uninsert(out, r)
                below = _fiber_words(tuple(out), uninsert, gap, memo)
                parts.append(below.replace(b"\0", bytes((y, 0))))
        got = memo[rows] = b"".join(parts)
    return got


def _clear_fiber_memos() -> None:
    """Empty every memo of `insertion_fiber` in place, but for the empty
    tableau's words, and reset their charge."""
    global _fiber_charged
    for memo in _fiber_memos.values():
        memo.clear()
        memo[()] = b"\0"
    _fiber_charged = 0


def schensted_fiber(rows: tuple[tuple[int, ...], ...]) -> list[bytes]:
    """The Knuth class whose Schensted tableau has these rows, unsorted, by
    reverse row insertion (`insertion_fiber`)."""
    return insertion_fiber(rows, _row_uninsert, 0)


def mixed_fiber(rows: tuple[tuple[int, ...], ...]) -> list[bytes]:
    """The shifted Knuth class whose mixed insertion tableau has these rows
    (doubled encoding), unsorted, by reverse mixed insertion
    (`insertion_fiber`)."""
    return insertion_fiber(rows, _mixed_uninsert_encoded, 1)


# ---------------------------------------------------------------------------
# hook words


def is_hook_word(letters) -> bool:
    """True iff a letter sequence (a byte word, a tuple or a `Word`) is a
    strictly decreasing prefix followed by a weakly increasing suffix
    (either part may be empty)."""
    k = 1
    while k < len(letters) and letters[k] < letters[k - 1]:
        k += 1
    return all(letters[i] <= letters[i + 1] for i in range(k, len(letters) - 1))


def longest_hook_subword(letters) -> int:
    """Length of the longest hook subword (as a subsequence) of a letter
    sequence (a byte word, a tuple or a `Word`).

    A hook subword is a strictly decreasing subsequence of the letters
    before some split point followed by a weakly increasing one of the
    letters after it, so the length is the best sum over split points.
    Patience sorting finds both parts in O(len log len): one pass from the
    right records the longest weakly increasing subsequence of each suffix,
    and one pass from the left grows the longest strictly decreasing
    subsequence of each prefix and adds the two.  Letters are negated so
    that both piles stay in increasing order for `bisect`.
    """
    length = len(letters)
    suffix = [0] * (length + 1)
    piles: list[int] = []  # piles[k]: minus the largest first letter of k + 1 weakly increasing
    for p in range(length - 1, -1, -1):
        x = -letters[p]
        k = bisect_right(piles, x)
        if k == len(piles):
            piles.append(x)
        else:
            piles[k] = x
        suffix[p] = len(piles)
    best = suffix[0]
    piles = []  # piles[k]: minus the largest last letter of k + 1 strictly decreasing
    for p, letter in enumerate(letters, 1):
        x = -letter
        k = bisect_left(piles, x)
        if k == len(piles):
            piles.append(x)
        else:
            piles[k] = x
        if len(piles) + suffix[p] > best:
            best = len(piles) + suffix[p]
    return best


def hook_factorization_check(letters, nu: tuple[int, ...]) -> bool:
    """True iff a letter sequence (a byte word, a tuple or a `Word`) splits
    into consecutive hook segments of lengths nu_l, ..., nu_1 with each
    later segment a longest hook subword of its predecessor pair."""
    if not is_strict_partition(nu):
        raise ValueError(f"{nu} is not a strict partition")
    if len(letters) != sum(nu):
        raise ValueError(f"word degree {len(letters)} != |{nu}|")
    return _is_hook_factorization(letters, nu)


def _is_hook_factorization(letters, nu: tuple[int, ...]) -> bool:
    """`hook_factorization_check` of a word of |nu| letters at a strict
    partition nu, neither checked again."""
    prev = None
    pos = 0
    for length in reversed(nu):  # segments are read off smallest part first
        seg = letters[pos : pos + length]
        pos += length
        if not is_hook_word(seg):
            return False
        if prev is not None and longest_hook_subword(prev + seg) != length:
            return False
        prev = seg
    return True


def _hook_recording_rows(shape: tuple[int, ...]) -> list[int]:
    """The row of each cell of Q_shape, the mixed recording tableau of the
    hook words of a strict shape, in the order the cells are added.

    The segments of a hook word are read smallest part first, and each
    takes the shape mu to nu = (part,) + mu.  Row k of nu (from 0) keeps
    the m cells of row k of mu (m = 0 for a new row) and gains the cells
    from column k + m on: first the first new cell of each row, top to
    bottom, then the other new cells in increasing column order.

    That Q depends only on the shape is not cited as a theorem.  It was
    verified by computation, and the tests keep checking it: every hook
    word's recording tableau is Q_shape, and `hook_word`, which rests on
    it, equals the closure scan on every shifted class of small degree
    (`tests/test_tableaux.py`, `TestHookWordByReverseInsertion`).  Every
    word that `_hook_words` lists is checked too.
    """
    order: list[int] = []
    mu: tuple[int, ...] = ()
    for part in reversed(shape):
        nu = (part,) + mu
        kept = mu + (0,)
        order.extend(range(len(nu)))
        rest = [(c, k) for k, length in enumerate(nu) for c in range(k + kept[k] + 1, k + length)]
        order.extend(k for _, k in sorted(rest))
        mu = nu
    return order


def hook_word(rows: tuple[tuple[int, ...], ...]) -> bytes:
    """The hook word of the shifted Knuth class whose mixed insertion
    tableau has these rows (doubled encoding), read off the tableau.

    Each shifted plactic class holds exactly one hook-factorization word
    (Serrano 2010), and mixed insertion is a bijection between words and
    pairs (P, Q) with Q a standard shifted tableau (Haiman 1989).  So the
    hook word is the inverse mixed insertion of (P, Q_shape): the cells of
    Q_shape are removed in reverse order (`_hook_recording_rows`), each by
    `_mixed_uninsert_encoded`.  The cost is O(|w| * rows) per word, with
    no class listed.
    """
    return _uninsert_along(rows, _hook_recording_rows(tuple(map(len, rows))))


def _uninsert_along(rows: tuple[tuple[int, ...], ...], cells: list[int]) -> bytes:
    """The word whose mixed insertion tableau has these rows and whose
    letters add their cells to the rows `cells`, in order: the cells are
    removed in reverse order by `_mixed_uninsert_encoded`."""
    out = list(rows)
    letters = [_mixed_uninsert_encoded(out, r) for r in reversed(cells)]
    return bytes(reversed(letters))


def enumerate_hook(nu: tuple[int, ...], n: int) -> set[Word]:
    """All words over {1..n} in the hook-factorization set of the strict shape.

    Read off the shifted tableaux of the shape, one word each; the tests
    check it against a filter of every word of the degree.
    """
    return {Word(tuple(w), n) for w in _hook_words(nu, n)}


def _hook_words(nu: tuple[int, ...], n: int) -> list[bytes]:
    """The words of `enumerate_hook` as byte words, in lexicographic order:
    the hook word of each shifted tableau of the shape (`hook_word`), one
    per shifted class (Serrano 2010), as `free_schur` takes the reading
    word of each tableau.  Each word is checked at nu, and ValueError is
    raised if one fails.  `_shssyt_rows` checks nu once for the listing,
    and each word has one letter per cell of the shape, so each word is
    checked by `_is_hook_factorization` alone."""
    cells = _hook_recording_rows(nu)  # the same for every tableau of the shape
    words = sorted(_uninsert_along(rows, cells) for rows in _shssyt_rows(nu, n))
    for w in words:
        if not _is_hook_factorization(w, nu):
            raise ValueError(f"word {list(w)} read off a tableau of shape {nu} is no hook word")
    return words
