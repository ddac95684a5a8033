"""Words over finite alphabet truncations {1..n} and their structural maps.

A word is a sequence of letters drawn from {1, ..., n}; the empty word is
the monoid identity.  Inside the package a word is a byte string, one letter
per byte (so n <= 255), with n kept by its context: the rewrite kernel, the
congruences, the polynomials of `algebra` and the verifier all work on byte
words.  `Word` is the validated word of the public API, built where text is
parsed or printed; `word_text` gives a byte word the text of `str(Word)`.
The maps provided here (concatenation, content), the intervals and the
ordered morphisms are the pieces the rewrite engine and the verification
harness quantify over.

The value classes of the package (`Word`, `Interval`, `OrderedMorphism`
here, the tableaux and the relations) are plain classes on the `Frozen`
base: each names its fields once, in its `__slots__`, and checks and sets
them in `__init__`.  The base derives the rest from those names: equality
and hashing over the tuple of the fields, the repr, the copy and the
pickle; and it refuses a later assignment.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterator


class Frozen:
    """Base of the value classes: `__init__` sets each field once, through
    `object.__setattr__`, and a field is then neither assigned nor deleted.

    A subclass names its fields in its `__slots__`, after those of its
    parent, or, if it keeps an instance dict, all of them in `_fields`; a
    subclass whose `__slots__` is empty keeps its parent's fields.  From
    the names the base builds one `attrgetter`, `_values`, which gives the
    tuple of the fields, and it compares (within one exact class), hashes,
    prints as `Name(field=value, ...)`, copies and pickles by that tuple,
    which `__init__` takes positionally."""

    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields += tuple(vars(cls).get("__slots__", ()))
        if cls._fields:
            # one C call per hash or comparison, where a getattr loop over
            # the names would run a Python loop each time
            get = attrgetter(*cls._fields)
            # one field: wrap its value, so that the hash is that of the 1-tuple
            one = len(cls._fields) == 1
            cls._values = staticmethod((lambda obj: (get(obj),)) if one else get)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class Word(Frozen):
    """Immutable word over {1..n}; structural equality, usable as a dict key."""

    __slots__ = ("letters", "n")

    letters: tuple[int, ...]
    n: int

    def __init__(self, letters: tuple[int, ...], n: int) -> None:
        if n < 1:
            raise ValueError(f"alphabet bound must be >= 1, got {n}")
        for a in letters:
            if not 1 <= a <= n:
                raise ValueError(f"letter {a} outside alphabet 1..{n}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "n", n)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Word":
        """Parse the word text format: digits for n <= 9, comma-separated otherwise.

        The empty string is the identity.  When `n` is omitted it defaults to
        the largest letter present, and to 1 when there is none or it is
        below 1, so that a letter below 1 is the one named as out of range.
        """
        text = text.strip()
        if not text:
            return cls((), n if n is not None else 1)
        parts = text.split(",") if "," in text else text  # one digit per letter
        try:
            letters = tuple(int(part) for part in parts)
        except ValueError:
            raise ValueError(f"cannot parse word {text!r}") from None
        if n is None:
            n = max(1, *letters)
        return cls(letters, n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __str__(self) -> str:
        return word_text(self.letters, self.n)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, n={self.n})"

    def to_bytes(self) -> bytes:
        if self.n > 255:
            raise ValueError("byte encoding supports alphabets up to 255 letters")
        return bytes(self.letters)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "Word":
        return cls(tuple(data), n)


class Interval(Frozen):
    """The alphabet interval {k : lo <= k <= hi}."""

    __slots__ = ("lo", "hi")

    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo},{hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, a: int) -> bool:
        return self.lo <= a <= self.hi


class OrderedMorphism(Frozen):
    """Strictly increasing partial map from source letters to target letters.

    `pairs` lists (source, image) with strictly increasing sources and images;
    applying the morphism to a word maps it letterwise.
    """

    __slots__ = ("pairs", "target_n")

    pairs: tuple[tuple[int, int], ...]
    target_n: int

    def __init__(self, pairs: tuple[tuple[int, int], ...], target_n: int) -> None:
        if target_n < 1:
            raise ValueError("target alphabet bound must be >= 1")
        prev = None
        for src, img in pairs:
            if src < 1 or not 1 <= img <= target_n:
                raise ValueError(f"morphism pair ({src},{img}) out of range")
            if prev is not None and (src <= prev[0] or img <= prev[1]):
                raise ValueError("ordered morphism must be strictly increasing")
            prev = (src, img)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "target_n", target_n)

    @classmethod
    def from_dict(cls, mapping: dict[int, int], target_n: int) -> "OrderedMorphism":
        return cls(tuple(sorted(mapping.items())), target_n)

    @classmethod
    def identity(cls, n: int) -> "OrderedMorphism":
        return cls(tuple((a, a) for a in range(1, n + 1)), n)

    @property
    def source(self) -> frozenset[int]:
        return frozenset(src for src, _ in self.pairs)

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)


def concat(w1: Word, w2: Word) -> Word:
    """Monoid product: letters of w1 followed by letters of w2."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched alphabet bounds {w1.n} != {w2.n}")
    return Word(w1.letters + w2.letters, w1.n)


def content(w: Word | bytes, n: int | None = None) -> tuple[int, ...]:
    """Content vector of a `Word` or of a byte word over {1..n}: entry i-1
    counts the letter i.  Its length is n, which defaults to `w.n`."""
    if n is None:
        n = w.n
    counts = [0] * n
    for a in w:
        counts[a - 1] += 1
    return tuple(counts)


# byte letters 0..9 -> their ASCII digits
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def word_text(letters, n: int) -> str:
    """The text format of a word over {1..n} given by its letters (a byte
    word or a tuple): digits for n <= 9, comma-separated letters otherwise.
    `Word.parse` reads it back."""
    if n <= 9:
        return bytes(letters).translate(_DIGITS).decode("ascii")
    return ",".join(map(str, letters))


def all_words(n: int, degree: int) -> Iterator[Word]:
    """All words of the given degree over {1..n}."""
    for letters in itertools.product(range(1, n + 1), repeat=degree):
        yield Word(letters, n)


def all_intervals(n: int) -> Iterator[Interval]:
    """All nonempty alphabet intervals inside {1..n}."""
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            yield Interval(lo, hi)
