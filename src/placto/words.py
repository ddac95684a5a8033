"""Words over finite alphabet truncations {1..n} and their structural maps.

A word is a sequence of letters drawn from {1, ..., n}; the empty word is
the monoid identity.  Inside the package a word is a byte string, one letter
per byte (so n <= 255), with n kept by its context: the rewrite kernel, the
congruences, the polynomials of `algebra` and the verifier all work on byte
words.  `Word` is the validated word of the public API, built where text is
parsed or printed; `word_text` gives a byte word the text of `str(Word)`.
The maps provided here (concatenation, content, interval restriction) and
the ordered morphisms are the pieces the rewrite engine and the
verification harness quantify over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable word over {1..n}; structural equality, usable as a dict key."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"alphabet bound must be >= 1, got {self.n}")
        for a in self.letters:
            if not 1 <= a <= self.n:
                raise ValueError(f"letter {a} outside alphabet 1..{self.n}")

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


@dataclass(frozen=True, slots=True)
class Interval:
    """The alphabet interval {k : lo <= k <= hi}."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]")

    def __contains__(self, a: int) -> bool:
        return self.lo <= a <= self.hi


@dataclass(frozen=True, slots=True)
class OrderedMorphism:
    """Strictly increasing partial map from source letters to target letters.

    `pairs` lists (source, image) with strictly increasing sources and images;
    applying the morphism to a word maps it letterwise.
    """

    pairs: tuple[tuple[int, int], ...]
    target_n: int

    def __post_init__(self) -> None:
        if self.target_n < 1:
            raise ValueError("target alphabet bound must be >= 1")
        prev = None
        for src, img in self.pairs:
            if src < 1 or not 1 <= img <= self.target_n:
                raise ValueError(f"morphism pair ({src},{img}) out of range")
            if prev is not None and (src <= prev[0] or img <= prev[1]):
                raise ValueError("ordered morphism must be strictly increasing")
            prev = (src, img)

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


def outside_letters(interval: Interval, n: int) -> bytes:
    """The letters of {1..n} outside the interval, as a byte string.

    `w.translate(None, outside_letters(iv, n))` restricts a byte-encoded
    word over {1..n} to the interval.
    """
    below = bytes(range(1, min(interval.lo, n + 1)))
    above = bytes(range(max(interval.hi + 1, 1), n + 1))
    return below + above


def all_words(n: int, degree: int) -> Iterator[Word]:
    """All words of the given degree over {1..n}."""
    for letters in itertools.product(range(1, n + 1), repeat=degree):
        yield Word(letters, n)


def all_intervals(n: int) -> Iterator[Interval]:
    """All nonempty alphabet intervals inside {1..n}."""
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            yield Interval(lo, hi)
