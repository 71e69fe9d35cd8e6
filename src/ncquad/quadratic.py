"""Quadratic-algebra structure: the dual algebra, truncated Koszulity
certificates, the finite degree-3/4 criterion, and annihilator detection.

Koszulity itself is never asserted: finite computation certifies the series
identity up to a degree bound and the finitely checkable hypotheses that
bridge from there, and callers combine the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteBasisError
from .groebner import (
    GroebnerBasis,
    Presentation,
    complete,
    hilbert_coeffs,
    normal_words_by_degree,
)
# rank is unused here but stays a module attribute: the traced benchmark run
# (perfbench/tracing.py) wraps it at this import site
from .linalg import SparseEchelon, nullspace, rank, rref  # noqa: F401
from .ncpoly import NcPoly


def _degree2_words(ngens, order):
    words = [(i, j) for i in range(ngens) for j in range(ngens)]
    return sorted(words, key=order.key, reverse=True)


class QuadraticAlgebra:
    """Presentation with purely quadratic relations, reduced to a canonical
    independent relation list on construction."""

    def __init__(self, presentation: Presentation):
        for r in presentation.relations:
            if r.degree() != 2:
                raise ValueError("quadratic algebra needs degree-2 relations")
        self._words = _degree2_words(presentation.ngens, presentation.order)
        field = presentation.field
        rows = [[r.coeff(w) for w in self._words] for r in presentation.relations]
        reduced, _ = rref(rows, field)
        relations = tuple(
            NcPoly.from_pairs(field, presentation.ngens, zip(self._words, row))
            for row in reduced
        )
        self.presentation = Presentation(
            field, presentation.ngens, relations, presentation.order, presentation.names
        )
        self.rdim = len(relations)
        self._basis: GroebnerBasis | None = None
        self._dual: QuadraticAlgebra | None = None

    @property
    def field(self):
        return self.presentation.field

    @property
    def ngens(self):
        return self.presentation.ngens

    def relation_matrix(self):
        return [[r.coeff(w) for w in self._words] for r in self.presentation.relations]

    def groebner(self, degree_bound: int) -> GroebnerBasis:
        """A basis certified at least to `degree_bound`.  The algebra keeps
        the one with the highest bound asked for so far; a higher bound
        extends it (`GroebnerBasis.extend`) instead of completing again."""
        if self._basis is None:
            self._basis = complete(self.presentation, degree_bound)
        elif self._basis.degree_bound < degree_bound:
            self._basis = self._basis.extend(degree_bound)
        return self._basis

    def hilbert(self, degree: int):
        return hilbert_coeffs(self.groebner(degree), degree)

    def dual(self) -> QuadraticAlgebra:
        """The dual algebra (`dual_algebra`), built on first use and kept, so
        the Koszul checks share it and its basis."""
        if self._dual is None:
            self._dual = dual_algebra(self)
        return self._dual


def dual_algebra(algebra: QuadraticAlgebra) -> QuadraticAlgebra:
    """The quadratic algebra on the orthogonal complement of the relation
    space under the monomial dot pairing on degree-2 words."""
    field = algebra.field
    words = algebra._words
    perp = nullspace(algebra.relation_matrix(), len(words), field)
    relations = tuple(
        NcPoly.from_pairs(field, algebra.ngens, zip(words, row)) for row in perp
    )
    pres = Presentation(
        field, algebra.ngens, relations, algebra.presentation.order, algebra.presentation.names
    )
    return QuadraticAlgebra(pres)


def koszul_defect(algebra: QuadraticAlgebra, degree: int):
    """Smallest k <= degree where H_A(-t) * H_dual(t) deviates from 1, or None.

    By the general theory a deviation, if any, first occurs at k >= 4.
    """
    h = algebra.hilbert(degree)
    hd = algebra.dual().hilbert(degree)
    for k in range(degree + 1):
        c = sum((-1) ** i * h[i] * hd[k - i] for i in range(k + 1))
        if c != (1 if k == 0 else 0):
            return k
    return None


@dataclass(frozen=True)
class DualHypotheses:
    """The finitely checkable dual-algebra hypotheses, both annihilator sides."""

    dual4_zero: bool
    dual3_dim: int
    no_dual_degree1_left_annihilator: bool
    no_dual_degree1_right_annihilator: bool


def _stacked_kernel_dim(basis: GroebnerBasis, vectors, products):
    """dim of {sum c_j v_j : its product with every multiplier m_i is 0},
    where vectors[j] is the word v_j and products[j][i] is the word of v_j
    times m_i.

    Preconditions, each checked: the vector words are distinct and have one
    length; every product puts its multiplier on the same side, and column i
    holds the same multiplier m_i in every row; the basis is certified
    through the longest product.

    Lead-word certificate: if every v_j has some multiplier whose product
    word is normal, the kernel is 0, and no product is reduced.  Take
    u = sum c_j v_j != 0 with largest word v* and v* m normal.  Deg-lex is
    multiplicative, so every other v_j m is a smaller word, and its normal
    form holds only words at or below it; so u m has coefficient c* at v* m,
    and u is not in the kernel.  The same holds for m v_j.  The normality
    test reads the basis's lead words.

    Otherwise row j holds the products of v_j reduced, keyed by (multiplier
    index, normal word); the rows span the image, so the kernel dimension is
    the number of vectors minus their rank, found by sparse elimination.
    """
    if not vectors:
        return 0
    n = len(vectors[0])
    if len(set(vectors)) != len(vectors) or any(len(v) != n for v in vectors):
        raise ValueError("the vector words must be distinct and have one length")
    if len(products) != len(vectors):
        raise ValueError("one row of products per vector word")
    rows = list(zip(vectors, products))
    right = [p[n:] for p in products[0]]
    left = [p[: len(p) - n] for p in products[0]]
    on_right = all(list(row) == [v + m for m in right] for v, row in rows)
    if not (on_right or all(list(row) == [m + v for m in left] for v, row in rows)):
        raise ValueError("each product must be its vector times the column's multiplier, on one side")
    degree = n + max(map(len, right), default=0)
    if degree > basis.degree_bound:
        raise IncompleteBasisError(f"products of degree {degree}, basis certified to {basis.degree_bound}")
    if all(any(map(basis.index.is_normal, row)) for row in products):
        return 0
    field, ngens = basis.field, basis.presentation.ngens
    ech = SparseEchelon(field)
    for row in products:
        stacked = {}
        for mi, w in enumerate(row):
            reduced = basis.reduce(NcPoly.monomial(field, ngens, w))
            stacked.update(((mi, u), c) for u, c in reduced.terms.items())
        ech.add(stacked)
    return len(products) - ech.rank


def dual_hypotheses(algebra: QuadraticAlgebra) -> DualHypotheses:
    """Check the dual-algebra hypotheses: dual degree 4 vanishes, degree 3 is
    one-dimensional, and no nonzero dual degree-1 element annihilates the dual
    degree-2 component from either side.

    The annihilator sides multiply the generator words by the normal words
    of dual degree 2 (`_stacked_kernel_dim`); a side with a normal product
    for every generator is settled from the lead words alone.
    """
    dual = algebra.dual()
    g = dual.groebner(4)
    levels = normal_words_by_degree(g, 4)
    gens = [(j,) for j in range(dual.ngens)]
    left_ann = _stacked_kernel_dim(g, gens, [[x + m for m in levels[2]] for x in gens])
    right_ann = _stacked_kernel_dim(g, gens, [[m + x for m in levels[2]] for x in gens])
    return DualHypotheses(
        dual4_zero=not levels[4],
        dual3_dim=len(levels[3]),
        no_dual_degree1_left_annihilator=left_ann == 0,
        no_dual_degree1_right_annihilator=right_ann == 0,
    )


def right_annihilator_dim(algebra: QuadraticAlgebra, degree: int) -> int:
    """dim of {u in A_d : x_i * u = 0 for every generator}: the kernel of the
    stacked left multiplications on the normal words of degree d.

    When every such word u has a generator with x_i * u normal (as when x_i
    starts no lead word), the answer 0 comes from the lead words without a
    reduction; otherwise the kernel is computed exactly
    (`_stacked_kernel_dim`).
    """
    g = algebra.groebner(degree + 1)
    words = normal_words_by_degree(g, degree)[degree]
    return _stacked_kernel_dim(g, words, [[(i,) + u for i in range(algebra.ngens)] for u in words])
