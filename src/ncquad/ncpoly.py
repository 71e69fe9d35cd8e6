"""Words and polynomials in the free algebra, degree-lex order, linear
substitutions, and the cyclic operators behind potential algebras.

A word is a tuple of 0-based generator indices; a polynomial is a mapping
from words to nonzero field elements.  The monomial order compares by total
degree first, then left-to-right by generator precedence (index 0 largest by
default), and is compatible with multiplication on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    MixedFieldsError,
    ParseError,
    UnknownGeneratorError,
)
from .linalg import mat_inverse, mat_mul

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
        terms = {}
        for w, c in pairs:
            w = tuple(w)
            acc = terms.get(w)
            acc = c if acc is None else acc + c
            if acc:
                terms[w] = acc
            else:
                terms.pop(w, None)
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
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w)
            acc = c if acc is None else acc + c
            if acc:
                terms[w] = acc
            else:
                del terms[w]
        return NcPoly(self.field, self.ngens, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NcPoly(self.field, self.ngens, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            terms = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    c = c1 * c2
                    acc = terms.get(w)
                    acc = c if acc is None else acc + c
                    if acc:
                        terms[w] = acc
                    else:
                        del terms[w]
            return NcPoly(self.field, self.ngens, terms)
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

    def monic(self, order):
        if not self.terms:
            return self
        inv = self.field.one / self.leading_coeff(order)
        return self.scale(inv)

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


def _coeff_sign_parts(c):
    """Split a coefficient into (is_negative, magnitude); only Q has signs."""
    from fractions import Fraction

    if isinstance(c, Fraction):
        return (c < 0, -c if c < 0 else c)
    return (False, c)


def render_poly(f: NcPoly, names, order=None) -> str:
    """Canonical text form; Q(w) coefficients split into rational and w-parts."""
    from .scalars import ThetaRational

    if not f.terms:
        return "0"
    order = order or degree_lex(f.ngens)
    pieces = []  # (sign, text) with sign in {+1, -1}
    for w, c in f.sorted_terms(order):
        if isinstance(c, ThetaRational):
            if c.a:
                pieces.append(_render_term(c.a, w, names))
            if c.b:
                neg, mag = _coeff_sign_parts(c.b)
                body = render_word(w, names)
                if mag == 1:
                    text = f"w*{body}" if w else "w"
                else:
                    text = f"{mag}*w*{body}" if w else f"{mag}*w"
                pieces.append((-1 if neg else 1, text))
        else:
            pieces.append(_render_term(c, w, names))
    out = []
    for i, (sign, text) in enumerate(pieces):
        if i == 0:
            out.append(f"-{text}" if sign < 0 else text)
        else:
            out.append(f"- {text}" if sign < 0 else f"+ {text}")
    return " ".join(out)


def _render_term(c, w, names):
    neg, mag = _coeff_sign_parts(c)
    body = render_word(w, names)
    if mag == 1 and w:
        return (-1 if neg else 1, body)
    if not w:
        return (-1 if neg else 1, str(mag))
    return (-1 if neg else 1, f"{mag}*{body}")


def _split_word_token(token, names, name_set):
    """Split a juxtaposed generator token like `xyz` into generator names."""
    out = []
    i = 0
    while i < len(token):
        for name in sorted(name_set, key=len, reverse=True):
            if token.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise UnknownGeneratorError(f"unknown generator in {token!r}")
    return out


def parse_poly(text, field, names) -> NcPoly:
    """Parse `+/-`-joined terms of `*`-separated factors.

    A factor is a scalar literal (integer, num/den, or `w` over Q(w)), a
    generator name, or a juxtaposed run of single-character generator names.
    """
    from .scalars import ThetaField, ThetaRational

    names = list(names)
    name_set = set(names)
    index = {n: i for i, n in enumerate(names)}
    ngens = len(names)
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return NcPoly.zero(field, ngens)

    # split into signed terms; the grammar has no parentheses and no signs
    # inside factors, so every +/- starts a new term
    terms = []
    cur = []
    sign = 1
    for idx, ch in enumerate(s):
        if ch in "+-":
            chunk = "".join(cur).strip()
            if chunk:
                terms.append((sign, chunk))
            elif idx != 0:
                raise ParseError(f"dangling sign in {text!r}")
            sign = 1 if ch == "+" else -1
            cur = []
        else:
            cur.append(ch)
    chunk = "".join(cur).strip()
    if not chunk:
        raise ParseError(f"dangling sign in {text!r}")
    terms.append((sign, chunk))

    poly = NcPoly.zero(field, ngens)
    for sgn, chunk in terms:
        coeff = field.one
        word = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if factor in index:
                word.append(index[factor])
            elif factor == "w" and isinstance(field, ThetaField):
                coeff = coeff * ThetaRational(0, 1)
            elif factor[0].isdigit():
                coeff = coeff * field.parse(factor)
            else:
                parts = _split_word_token(factor, names, name_set)
                word.extend(index[p] for p in parts)
        if sgn < 0:
            coeff = -coeff
        poly = poly + NcPoly.monomial(field, ngens, tuple(word), coeff)
    return poly
