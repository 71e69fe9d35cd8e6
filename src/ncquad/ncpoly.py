"""Words and polynomials in the free algebra, degree-lex order, linear
substitutions, and the cyclic operators behind potential algebras.

A word is a tuple of 0-based generator indices; a polynomial is a mapping
from words to nonzero field elements.  The monomial order compares by total
degree first, then left-to-right by generator precedence (index 0 largest by
default), and is compatible with multiplication on both sides.

Text syntax: `+`/`-`-joined terms of `*`-separated factors, such as
`x*y - 1/2*w*y*x + 3*zz`.  A factor is a scalar literal of the field, a unit
of the field (`w` over Q(w)), a generator name, or a juxtaposed run of
generator names.  There are no parentheses, so every sign starts a term.
Coefficients are read and written by their field (`Field.parse`,
`Field.units`, `Field.parts`); this module only places them on words.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    MixedFieldsError,
    ParseError,
    UnknownGeneratorError,
)
from .linalg import mat_inverse, mat_mul
from .scalars import write_terms

Word = tuple  # tuple of generator indices


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-lex order given by a precedence table: rank 0 is the largest generator."""

    precedence: tuple

    def key(self, word):
        # ranks negated so that bigger key means bigger word
        return (len(word), tuple(-self.precedence[g] for g in word))

    def gens_descending(self):
        return sorted(range(len(self.precedence)), key=lambda g: self.precedence[g])

    def digits(self):
        """Each generator's digit in the packed word codes of the exact engines.

        With B = ngens + 1, generator g is the digit ngens - rank(g), which
        lies in 1..ngens, and the word g_1...g_n is the base-B number with
        digits g_1, ..., g_n, most significant first.  So distinct words, of
        any lengths, have distinct codes, deg-lex order is integer order, and
        the empty word is 0.
        """
        n = len(self.precedence)
        return [n - rank for rank in self.precedence]


def degree_lex(ngens):
    """Default order: generator 0 > generator 1 > ... (x > y > z)."""
    return MonomialOrder(tuple(range(ngens)))


class NcPoly:
    """Polynomial in the free algebra: dict word -> nonzero coefficient."""

    __slots__ = ("field", "ngens", "terms")

    def __init__(self, field, ngens, terms=None):
        self.field = field
        self.ngens = ngens
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, field, ngens):
        return cls(field, ngens)

    @classmethod
    def monomial(cls, field, ngens, word, coeff=None):
        coeff = field.one if coeff is None else coeff
        return cls(field, ngens, {tuple(word): coeff})

    @classmethod
    def gen(cls, field, ngens, j):
        return cls.monomial(field, ngens, (j,))

    @classmethod
    def from_pairs(cls, field, ngens, pairs):
        """Sum of (word, coefficient) pairs: the one accumulator behind +, -
        and *.  The constructor drops the words whose sum is zero."""
        terms = {}
        for w, c in pairs:
            w = tuple(w)
            acc = terms.get(w)
            terms[w] = c if acc is None else acc + c
        return cls(field, ngens, terms)

    def _check(self, other):
        if self.field != other.field:
            raise MixedFieldsError(f"{self.field.name()} vs {other.field.name()}")
        if self.ngens != other.ngens:
            raise DimensionMismatchError("generator counts differ")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.ngens == other.ngens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.ngens, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        return NcPoly.from_pairs(self.field, self.ngens, itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        self._check(other)
        negated = [(w, -c) for w, c in other.terms.items()]
        return NcPoly.from_pairs(self.field, self.ngens, itertools.chain(self.terms.items(), negated))

    def __neg__(self):
        return NcPoly(self.field, self.ngens, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            products = [(w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()]
            return NcPoly.from_pairs(self.field, self.ngens, products)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything; words never reach here
        return self.scale(other)

    def scale(self, c):
        if not c:
            return NcPoly.zero(self.field, self.ngens)
        return NcPoly(self.field, self.ngens, {w: c * v for w, v in self.terms.items()})

    def degree(self):
        """Degree of the polynomial, or None for zero."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def is_homogeneous(self):
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d):
        return NcPoly(self.field, self.ngens, {w: c for w, c in self.terms.items() if len(w) == d})

    def sorted_terms(self, order):
        return sorted(self.terms.items(), key=lambda wc: order.key(wc[0]), reverse=True)

    def leading_word(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order):
        return self.terms[self.leading_word(order)]

    def coeff(self, word):
        return self.terms.get(tuple(word), self.field.zero)

    def __repr__(self):
        names = _default_names(self.ngens)
        return f"NcPoly({render_poly(self, names)})"


def _default_names(ngens):
    if ngens <= 3:
        return ("x", "y", "z")[:ngens]
    return tuple(f"x{i}" for i in range(ngens))


# ---------------------------------------------------------------------------
# cyclic operators


def cyclic_shift(f: NcPoly) -> NcPoly:
    """Linear extension of the rotation sending a word g.u to u.g (fixes 1)."""
    return NcPoly.from_pairs(
        f.field, f.ngens, ((w[1:] + w[:1], c) for w, c in f.terms.items())
    )


def cyclize(f: NcPoly) -> NcPoly:
    """Sum of the d rotations of each degree-d word, extended linearly."""
    pairs = []
    for w, c in f.terms.items():
        for i in range(1, len(w) + 1):
            pairs.append((w[i:] + w[:i], c))
        if not w:
            pairs.append((w, c))
    return NcPoly.from_pairs(f.field, f.ngens, pairs)


def cyclic_derivative(f: NcPoly, j: int) -> NcPoly:
    """Drop the leading letter of every word starting with generator j."""
    return NcPoly.from_pairs(
        f.field, f.ngens, ((w[1:], c) for w, c in f.terms.items() if w and w[0] == j)
    )


def is_cyclically_invariant(f: NcPoly) -> bool:
    return cyclic_shift(f) == f


# ---------------------------------------------------------------------------
# linear substitutions


@dataclass(frozen=True, slots=True)
class LinearSub:
    """Linear change of generators; column j of `matrix` is the image of generator j."""

    field: object
    matrix: tuple  # rows; matrix[i][j] = coefficient of generator i in image of j

    @classmethod
    def from_columns(cls, field, columns):
        n = len(columns)
        rows = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
        return cls(field, rows)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def ngens(self):
        return len(self.matrix)

    def image(self, j) -> NcPoly:
        n = self.ngens
        return NcPoly(self.field, n, {(i,): self.matrix[i][j] for i in range(n) if self.matrix[i][j]})

    def apply(self, f: NcPoly) -> NcPoly:
        """Replace each generator j by column j of the matrix, expanded and
        canonical.

        Pass k rewrites the letter at position k of every word through its
        image column and accumulates into one dict; words of length at most k,
        the constant word included, pass through unchanged.  A dense degree-d
        form in n generators costs d·n^(d+1) scalar products this way (243 for
        the cubic potential in three), against the n^d (n + n^2 + ... + n^d)
        of expanding every word as a product of images.
        """
        if f.ngens != self.ngens:
            raise DimensionMismatchError("substitution size does not match generator count")
        if f.field != self.field:
            raise MixedFieldsError("substitution and polynomial over different fields")
        m = self.matrix
        n = len(m)
        columns = [[(i, m[i][j]) for i in range(n) if m[i][j]] for j in range(n)]
        terms = f.terms
        for k in range(max(map(len, terms), default=0)):
            out = {}
            for w, c in terms.items():
                if len(w) <= k:
                    out[w] = c
                    continue
                head, tail = w[:k], w[k + 1 :]
                for i, s in columns[w[k]]:
                    v = head + (i,) + tail
                    acc = out.get(v)
                    out[v] = c * s if acc is None else acc + c * s
            terms = out
        return NcPoly(f.field, f.ngens, terms)

    def compose(self, other: "LinearSub") -> "LinearSub":
        """Substitution equal to applying `other` first, then self."""
        return LinearSub(self.field, tuple(map(tuple, mat_mul(self.matrix, other.matrix, self.field))))

    def inverse(self) -> "LinearSub":
        return LinearSub(self.field, tuple(map(tuple, mat_inverse(self.matrix, self.field))))


def apply_sub(f: NcPoly, sub: LinearSub) -> NcPoly:
    """Replace each generator by its image under `sub`, expanded and canonical."""
    return sub.apply(f)


# ---------------------------------------------------------------------------
# text syntax


def render_word(word, names):
    if not word:
        return "1"
    return "*".join(names[g] for g in word)


def render_poly(f: NcPoly, names, order=None) -> str:
    """Canonical text form, terms in descending order; each coefficient is
    written as its field's parts."""
    order = order or degree_lex(f.ngens)
    terms = (
        (v, u, render_word(w, names) if w else "")
        for w, c in f.sorted_terms(order)
        for v, u in f.field.parts(c)
    )
    return write_terms(terms, " ")


def _split_word_token(token, names):
    """Split a juxtaposed generator token like `xyz` into generator names."""
    out = []
    i = 0
    while i < len(token):
        for name in sorted(names, key=len, reverse=True):
            if token.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise UnknownGeneratorError(f"unknown generator in {token!r}")
    return out


def parse_poly(text, field, names) -> NcPoly:
    """Parse the text syntax above into a polynomial over `field`."""
    index = {n: i for i, n in enumerate(names)}
    units = field.units
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    # every sign starts a term (no parentheses, no signs inside factors);
    # only the first sign may have no text before it
    first, *rest = re.split(r"([+-])", s)
    terms = ([("+", first)] if first else []) + list(zip(rest[::2], rest[1::2]))
    if not all(chunk.strip() for _, chunk in terms):
        raise ParseError(f"dangling sign in {text!r}")

    pairs = []
    for sign, chunk in terms:
        chunk = chunk.strip()
        coeff = field.one
        word = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if factor in index:
                word.append(index[factor])
            elif factor in units:
                coeff = coeff * units[factor]
            elif factor[0].isdigit():
                coeff = coeff * field.parse(factor)
            else:
                word.extend(index[p] for p in _split_word_token(factor, index))
        pairs.append((word, -coeff if sign == "-" else coeff))
    return NcPoly.from_pairs(field, len(names), pairs)
