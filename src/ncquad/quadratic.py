"""Quadratic-algebra structure: the dual algebra, truncated Koszulity
certificates, the finite degree-3/4 criterion, and annihilator detection.

Koszulity itself is never asserted: finite computation certifies the series
identity up to a degree bound and the finitely checkable hypotheses that
bridge from there, and callers combine the two.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def field(self):
        return self.presentation.field

    @property
    def ngens(self):
        return self.presentation.ngens

    def relation_matrix(self):
        return [[r.coeff(w) for w in self._words] for r in self.presentation.relations]

    def groebner(self, degree_bound: int) -> GroebnerBasis:
        """A basis certified at least to `degree_bound`; only the one with the
        highest bound asked for so far is kept."""
        if self._basis is None or self._basis.degree_bound < degree_bound:
            self._basis = complete(self.presentation, degree_bound)
        return self._basis

    def hilbert(self, degree: int):
        return hilbert_coeffs(self.groebner(degree), degree)


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
    hd = dual_algebra(algebra).hilbert(degree)
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


def _stacked_kernel_dim(basis: GroebnerBasis, vectors, multipliers, vector_side):
    """dim of {sum c_j vectors[j] : its product with every multiplier is 0}.

    `vector_side` says which side of the product the vector sits on.  Row j
    holds the reduced products of vectors[j] with each multiplier, keyed by
    (multiplier index, normal word); the rows span the image, so the kernel
    dimension is len(vectors) minus their rank, found by sparse elimination.
    """
    ech = SparseEchelon(basis.field, lambda col: col)
    for v in vectors:
        row = {}
        for mi, m in enumerate(multipliers):
            prod = v * m if vector_side == "left" else m * v
            row.update(((mi, w), c) for w, c in basis.reduce(prod).terms.items())
        ech.add(row)
    return len(vectors) - ech.rank


def dual_hypotheses(algebra: QuadraticAlgebra) -> DualHypotheses:
    """Check the dual-algebra hypotheses: dual degree 4 vanishes, degree 3 is
    one-dimensional, and no nonzero dual degree-1 element annihilates the dual
    degree-2 component from either side."""
    dual = dual_algebra(algebra)
    g = dual.groebner(4)
    levels = normal_words_by_degree(g, 4)
    dual2 = [NcPoly.monomial(dual.field, dual.ngens, w) for w in levels[2]]
    gens = [NcPoly.gen(dual.field, dual.ngens, j) for j in range(dual.ngens)]
    left_ann = _stacked_kernel_dim(g, gens, dual2, "left")
    right_ann = _stacked_kernel_dim(g, gens, dual2, "right")
    return DualHypotheses(
        dual4_zero=not levels[4],
        dual3_dim=len(levels[3]),
        no_dual_degree1_left_annihilator=left_ann == 0,
        no_dual_degree1_right_annihilator=right_ann == 0,
    )


def right_annihilator_dim(algebra: QuadraticAlgebra, degree: int) -> int:
    """dim of {u in A_d : x_i * u = 0 for every generator}, by exact kernel
    computation of the stacked left-multiplication maps."""
    g = algebra.groebner(degree + 1)
    words = normal_words_by_degree(g, degree)[degree]
    vectors = [NcPoly.monomial(algebra.field, algebra.ngens, w) for w in words]
    gens = [NcPoly.gen(algebra.field, algebra.ngens, j) for j in range(algebra.ngens)]
    return _stacked_kernel_dim(g, vectors, gens, "right")
