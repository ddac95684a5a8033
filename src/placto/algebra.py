"""Degree-truncated integer polynomials over words and their projections.

NcPoly is a finitely supported integer combination of words over {1..n},
truncated at a degree bound: products silently drop terms above the bound,
so per-degree comparisons below the bound are exact.  Terms are keyed by
byte words, one letter per byte, with n kept by the polynomial; the
constructors and `coefficient` also accept `Word` keys, and `to_json` and
`repr` print the text of `str(Word)`.  Projections go two ways: to a
quotient algebra (words replaced by canonical class representatives) and
to the commutative image (words replaced by content vectors).

`NcPoly`, `CPoly` and `QuotientPoly` are value classes on `words.Frozen`,
through `_Poly`: they compare, copy and pickle by their fields and refuse
assignment.  Terms are checked only where they enter, by the public
constructors; a sum, product, projection or free Schur sum is built from
terms already checked, by `_Poly._of`, which checks nothing again.

`lr_expand` expands a product of two plactic Schur sums without building
it: the image of S_lambda holds each tableau of shape lambda once, so each
coefficient is the one multiplicity shared by all tableaux of the shape
among the insertion tableaux of the product words.  It lists the smaller
of two sets of product words, counted in closed form by `lr_route`: the
standard ones, each letter of {1..|nu| + |mu|} once, whose tableaux of a
shape number `standard_count`, or the semistandard ones over
min(n, l(nu) + l(mu)) letters, whose tableaux number `ssyt_count`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .rewrite import KNUTH, RelationSet
from .tableaux import (
    _hook_words,
    _shssyt_rows,
    _ssyt_rows,
    _standard_rows,
    base_letter,
    is_partition,
    ssyt_count,
    standard_count,
)
from .words import Frozen, Word, content, word_text


def _byte_key(word: Word | bytes, n: int) -> bytes:
    """A term key as a byte word: a `Word` over {1..n} is converted, and a
    `Word` over another alphabet is a ValueError."""
    if isinstance(word, Word):
        if word.n != n:
            raise ValueError(f"word {word!r} outside context alphabet {n}")
        return bytes(word.letters)
    return word


def _check_context(n: int, degree_bound: int) -> None:
    if not 1 <= n <= 255 or degree_bound < 0:
        raise ValueError(f"bad context: n={n} must lie in 1..255, D={degree_bound} >= 0")


def _byte_terms(terms, n: int, degree_bound: int) -> dict[bytes, int]:
    """The nonzero terms of a polynomial over {1..n}, keyed by byte words
    (`_byte_key`); ValueError for a bad context (`_check_context`), or for a
    key that is longer than the degree bound or holds a letter outside {1..n}."""
    _check_context(n, degree_bound)
    alphabet = bytes(range(1, n + 1))
    clean: dict[bytes, int] = {}
    for word, coeff in (terms or {}).items():
        word = _byte_key(word, n)
        if len(word) > degree_bound:
            raise ValueError(f"word {list(word)} above degree bound {degree_bound}")
        if word.translate(None, alphabet):  # the letters outside {1..n}
            raise ValueError(f"word {list(word)} outside context alphabet {n}")
        if coeff:
            clean[word] = clean.get(word, 0) + coeff
    return {w: c for w, c in clean.items() if c}


class _Poly(Frozen):
    """Base of the three polynomial classes, on `Frozen`: each names its
    fields in its `__slots__` in the order of its `__init__` parameters, the
    context, then `terms`.  Equality holds within one exact class; the hash
    is over the context and `frozenset(terms.items())`, and the repr lists
    the terms in order, each as the class's `_term_text` gives it.

    A public constructor checks its terms, which come from outside; a
    result computed from checked polynomials is built by `_of`, which
    checks nothing again."""

    __slots__ = ()

    def _fill(self, *values) -> "_Poly":
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)
        return self

    @classmethod
    def _of(cls, terms: dict, *context) -> "_Poly":
        """The polynomial of the nonzero `terms`, computed from checked
        polynomials in the given context."""
        return cls.__new__(cls)._fill(*context, {w: c for w, c in terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        *context, terms = self._values(self)
        return hash((*context, frozenset(terms.items())))

    def __repr__(self) -> str:
        bits = " + ".join(self._term_text(w, c) for w, c in sorted(self.terms.items()))
        return f"{self.__class__.__name__}({bits or 0})"


class NcPoly(_Poly):
    """Integer polynomial over words, graded by word length."""

    __slots__ = ("n", "degree_bound", "terms")

    def __init__(self, n: int, degree_bound: int, terms=None):
        self._fill(n, degree_bound, _byte_terms(terms, n, degree_bound))

    @classmethod
    def unit(cls, n: int, degree_bound: int) -> "NcPoly":
        return cls(n, degree_bound, {b"": 1})

    @classmethod
    def from_words(cls, words, n: int, degree_bound: int) -> "NcPoly":
        return cls(n, degree_bound, Counter(words))

    def _require_context(self, other: "NcPoly") -> None:
        if (self.n, self.degree_bound) != (other.n, other.degree_bound):
            raise ValueError(
                f"context mismatch: (n={self.n}, D={self.degree_bound}) vs "
                f"(n={other.n}, D={other.degree_bound})"
            )

    def coefficient(self, word: Word | bytes) -> int:
        return self.terms.get(_byte_key(word, self.n), 0)

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._require_context(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly._of(out, self.n, self.degree_bound)

    def __neg__(self) -> "NcPoly":
        return NcPoly._of({w: -c for w, c in self.terms.items()}, self.n, self.degree_bound)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "NcPoly":
        if not isinstance(scalar, int):
            return NotImplemented
        scaled = {w: scalar * c for w, c in self.terms.items()}
        return NcPoly._of(scaled, self.n, self.degree_bound)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        return nc_mul(self, other)

    def support(self) -> list[bytes]:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def monomials_of_content(self, vector: tuple[int, ...]) -> set[bytes]:
        return {w for w in self.terms if content(w, self.n) == vector}

    def to_json(self) -> dict:
        return {
            "context": {"n": self.n, "D": self.degree_bound},
            "terms": [
                {"word": word_text(w, self.n), "coeff": self.terms[w]} for w in self.support()
            ],
        }

    def _term_text(self, word: bytes, coeff: int) -> str:
        return f"{coeff}*{word_text(word, self.n)}"


def nc_mul(p: NcPoly, q: NcPoly) -> NcPoly:
    """Concatenation product; terms above the degree bound are dropped."""
    p._require_context(q)
    bound = p.degree_bound
    out: dict[bytes, int] = {}
    for u, cu in p.terms.items():
        room = bound - len(u)
        for v, cv in q.terms.items():
            if len(v) <= room:
                w = u + v
                out[w] = out.get(w, 0) + cu * cv
    return NcPoly._of(out, p.n, bound)


class CPoly(_Poly):
    """Commutative image: integer combination of content vectors."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        terms = terms or {}
        for vec in terms:
            if len(vec) != n:
                raise ValueError(f"content vector {vec} has length != {n}")
        self._fill(n, {v: c for v, c in terms.items() if c})

    def coefficient(self, vector: tuple[int, ...]) -> int:
        return self.terms.get(vector, 0)

    def _term_text(self, vector: tuple[int, ...], coeff: int) -> str:
        return f"{coeff}*x^{vector}"


class QuotientPoly(_Poly):
    """Polynomial over a quotient monoid; keys are canonical class members."""

    __slots__ = ("n", "degree_bound", "relation_set", "terms")

    __hash__ = None

    def __init__(self, n: int, degree_bound: int, relation_set: RelationSet, terms=None):
        self._fill(n, degree_bound, relation_set, _byte_terms(terms, n, degree_bound))

    def coefficient(self, word: Word | bytes) -> int:
        return self.terms.get(self.relation_set.congruence.canonical(_byte_key(word, self.n)), 0)

    def _term_text(self, word: bytes, coeff: int) -> str:
        return f"{coeff}*[{word_text(word, self.n)}]"

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}; {self.relation_set.name})"


def project_quotient(p: NcPoly, rels: RelationSet) -> QuotientPoly:
    """Replace every word by its canonical class representative, merging terms.

    Terms are merged by class key (`Congruence.key`), and the least member
    is looked up only for a class whose coefficients do not cancel: under
    the shipped sets, keyed by insertion tableau, a projection to zero
    reads no canonical word."""
    cong = rels.congruence
    groups: dict[object, list] = {}  # class key -> [a member, summed coefficient]
    for w, c in p.terms.items():
        group = groups.setdefault(cong.key(w), [w, 0])
        group[1] += c
    out = {cong.canonical(w): c for w, c in groups.values() if c}
    return QuotientPoly._of(out, p.n, p.degree_bound, rels)


def abelianize(p: NcPoly) -> CPoly:
    """Forget letter order: map every word to its content vector."""
    out: dict[tuple[int, ...], int] = {}
    for w, c in p.terms.items():
        vec = content(w, p.n)
        out[vec] = out.get(vec, 0) + c
    return CPoly._of(out, p.n)


# ---------------------------------------------------------------------------
# Schur-type sums


def _reading_word(rows: tuple[tuple[int, ...], ...]) -> bytes:
    """The reading word of a tableau's rows: bottom to top, each left to right."""
    return bytes(itertools.chain.from_iterable(reversed(rows)))


def free_schur(nu: tuple[int, ...], n: int, degree_bound: int | None = None) -> NcPoly:
    """Sum of the reading words of all semistandard tableaux of shape nu."""
    if not (nu == () or is_partition(nu)):
        raise ValueError(f"{nu} is not a partition")
    size = sum(nu)
    bound = size if degree_bound is None else degree_bound
    if size > bound:
        raise ValueError(f"|{nu}| exceeds degree bound {bound}")
    _check_context(n, bound)
    # reading words over {1..n} of length |nu| <= bound, so not checked again
    return NcPoly._of(Counter(map(_reading_word, _ssyt_rows(nu, n))), n, bound)


def shifted_free_schur(nu: tuple[int, ...], n: int, degree_bound: int | None = None) -> NcPoly:
    """Indicator sum over the hook-factorization words of the strict shape,
    one read off each shifted tableau of the shape (`tableaux._hook_words`)."""
    size = sum(nu)
    bound = size if degree_bound is None else degree_bound
    if size > bound:
        raise ValueError(f"|{nu}| exceeds degree bound {bound}")
    _check_context(n, bound)
    return NcPoly._of(Counter(_hook_words(nu, n)), n, bound)


def schur_poly(nu: tuple[int, ...], n: int) -> CPoly:
    """Content generating function over semistandard tableaux of shape nu."""
    out: dict[tuple[int, ...], int] = {}
    for rows in _ssyt_rows(nu, n):
        key = content(itertools.chain.from_iterable(rows), n)
        out[key] = out.get(key, 0) + 1
    return CPoly(n, out)


def p_schur_poly(nu: tuple[int, ...], n: int) -> CPoly:
    """Content generating function over shifted semistandard tableaux."""
    out: dict[tuple[int, ...], int] = {}
    for rows in _shssyt_rows(nu, n):
        key = content(map(base_letter, itertools.chain.from_iterable(rows)), n)
        out[key] = out.get(key, 0) + 1
    return CPoly(n, out)


def commutator_in_quotient(pa: NcPoly, pb: NcPoly, rels: RelationSet) -> QuotientPoly:
    """Projection of pa*pb - pb*pa; the zero polynomial certifies commutation."""
    return project_quotient(nc_mul(pa, pb) - nc_mul(pb, pa), rels)


def lr_route(nu: tuple[int, ...], mu: tuple[int, ...], n: int) -> tuple[int, int | None]:
    """The product words that `lr_expand` lists, counted in closed form, and
    the alphabet of its listing: (words, m) for the semistandard products
    over {1..m}, m = min(n, l(nu) + l(mu)), and (words, None) for the
    standard products, whichever are fewer (the semistandard ones on a tie).
    Neither depends on n beyond l(nu) + l(mu).  The shapes are checked
    first by `ssyt_count`, which refuses one that is no partition."""
    m = min(n, len(nu) + len(mu)) or 1  # one letter for two empty shapes
    semistandard = ssyt_count(nu, m) * ssyt_count(mu, m)
    size = sum(nu)
    standard = math.comb(size + sum(mu), size) * standard_count(nu) * standard_count(mu)
    return (standard, None) if standard < semistandard else (semistandard, m)


def _standard_products(nu: tuple[int, ...], mu: tuple[int, ...]):
    """The standard product words u + v over {1..N}, N = |nu| + |mu|: for
    each |nu|-subset S of {1..N}, u is the reading word of a standard
    tableau of nu relabelled by S in order, and v one of mu relabelled by
    the rest."""
    size, total = sum(nu), sum(nu) + sum(mu)
    lefts = [_reading_word(rows) for rows in _standard_rows(nu)]
    rights = [_reading_word(rows) for rows in _standard_rows(mu)]
    letters = bytes(range(1, total + 1))
    for chosen in itertools.combinations(letters, size):
        rest = bytes(a for a in letters if a not in chosen)
        to_left = bytes.maketrans(letters[:size], bytes(chosen))
        to_right = bytes.maketrans(letters[: total - size], rest)
        right = [v.translate(to_right) for v in rights]
        for u in lefts:
            u = u.translate(to_left)
            yield from (u + v for v in right)


def lr_expand(nu: tuple[int, ...], mu: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Expand the quotient image of S_nu * S_mu in the plactic Schur basis.

    Knuth classes are the fibers of Schensted insertion, so the image counts
    the product words u + v by their insertion tableaux
    (`KNUTH.congruence.key`).  The image of S_lambda holds each tableau of
    shape lambda once and no other, so the image is the sum of c_lambda
    S_lambda exactly when, for each shape lambda, all its tableaux occur,
    each c_lambda times (Lascoux and Schützenberger 1981).

    The words come from the smaller of two listings (`lr_route`), and the
    tableaux of a shape are counted for that listing:

    - the semistandard products over {1..m}, m = min(n, l(nu) + l(mu)),
      with `ssyt_count(lambda, m)` tableaux of shape lambda.  A c_lambda is
      nonzero only for lambda of at most l(nu) + l(mu) rows, and does not
      depend on the alphabet, so m letters give every shape of at most n
      rows;
    - the standard products: those over {1..N}, N = |nu| + |mu|, that hold
      each letter once, with `standard_count(lambda)` tableaux of shape
      lambda.  Insertion keeps the letters of a word, so their tableaux
      are the standard ones, each c_lambda times, and P(std w) = std P(w)
      carries the counts to every alphabet.  The listing is the same at
      every n.

    The coefficients are read off those counts, for the shapes of at most
    n rows.  Every listed shape is checked: one that misses a tableau or
    counts two of them differently raises ValueError.
    """
    key = KNUTH.congruence.key
    _, m = lr_route(nu, mu, n)
    if m is None:
        tableaux = Counter(map(key, _standard_products(nu, mu)))
    else:
        right = free_schur(mu, m).terms
        tableaux = Counter(key(u + v) for u in free_schur(nu, m).terms for v in right)
    # shape -> {multiplicity: tableaux of the shape that occur that often}
    by_shape: dict[tuple[int, ...], Counter] = {}
    for rows, count in tableaux.items():
        by_shape.setdefault(tuple(map(len, rows)), Counter())[count] += 1
    out: dict[tuple[int, ...], int] = {}
    for shape, multiplicities in sorted(by_shape.items(), reverse=True):
        expected = standard_count(shape) if m is None else ssyt_count(shape, m)
        if len(multiplicities) != 1 or sum(multiplicities.values()) != expected:
            raise ValueError(
                f"shape {shape} is not a multiple of its Schur sum: tableaux by "
                f"multiplicity {dict(multiplicities)}, of {expected} tableaux of the shape"
            )
        if len(shape) <= n:
            (out[shape],) = multiplicities
    return out
