"""Degree-truncated reduced Groebner bases for two-sided ideals in the free
algebra, normal-word enumeration, Hilbert series coefficients, and an
independent linear-algebra dimension oracle.

The completion is degree-graded: all overlap obstructions of degree d are
resolved before degree d+1, so the truncated basis coincides with the
degree-<=D part of the unique reduced basis and the output is canonical --
independent of the order the defining relations were given in.  Completion
of a noncommutative ideal need not terminate; `degree_bound` records how far
the result is certified.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import HomogeneityError, IncompleteBasisError, MixedFieldsError
from .linalg import SparseEchelon
from .ncpoly import MonomialOrder, NcPoly, _default_names, degree_lex


@dataclass(frozen=True)
class Presentation:
    """Generators and homogeneous defining relations over an exact field."""

    field: object
    ngens: int
    relations: tuple
    order: MonomialOrder = None
    names: tuple = None
    potential: NcPoly = None

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", degree_lex(self.ngens))
        if self.names is None:
            object.__setattr__(self, "names", _default_names(self.ngens))
        object.__setattr__(self, "relations", tuple(self.relations))
        for r in self.relations:
            if r.field != self.field:
                raise MixedFieldsError("relation field differs from presentation field")
            if not r:
                raise ValueError("zero relation")
            if not r.is_homogeneous():
                raise HomogeneityError(f"relation {r!r} is not homogeneous")
            if r.degree() < 1:
                raise HomogeneityError("relations must have degree >= 1")

    def max_degree(self):
        return max((r.degree() for r in self.relations), default=0)


class LeadIndex:
    """Elements keyed by leading word, with the lead lengths longest first."""

    def __init__(self, order, elements=()):
        self.order = order
        self.by_lead = {}
        self.lengths = []
        for g in elements:
            self.add(g)

    def add(self, g) -> tuple:
        """Index g under its leading word, replacing any element with that lead."""
        lead = g.leading_word(self.order)
        self.by_lead[lead] = g
        if len(lead) not in self.lengths:
            self.lengths.append(len(lead))
            self.lengths.sort(reverse=True)
        return lead

    def reduce(self, f: NcPoly) -> NcPoly:
        return NcPoly(f.field, f.ngens, _normal_form_terms(f.terms, self))


class GroebnerBasis:
    """Truncated reduced basis: monic elements, certified up to `degree_bound`."""

    def __init__(self, presentation, elements, degree_bound):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.degree_bound = degree_bound
        self.index = LeadIndex(presentation.order, self.elements)

    @property
    def order(self):
        return self.presentation.order

    @property
    def field(self):
        return self.presentation.field

    def lead_words(self):
        return tuple(g.leading_word(self.order) for g in self.elements)

    def reduce(self, f: NcPoly) -> NcPoly:
        return self.index.reduce(f)


def _find_redex(word, by_lead, lengths):
    """Leftmost position first; at a position, the longest (largest) lead wins."""
    n = len(word)
    for i in range(n):
        for L in lengths:
            if i + L <= n and word[i : i + L] in by_lead:
                return i, word[i : i + L]
    return None


def _normal_form_terms(terms, index):
    """Fully reduce a term dict; deterministic leftmost-largest strategy."""
    by_lead = index.by_lead
    lengths = index.lengths
    prec = index.order.precedence
    out = {}
    work = dict(terms)
    # heap pops words in descending monomial order; reductions only create
    # strictly smaller words, so each word is finalized when popped
    heap = [(-len(w), tuple(prec[g] for g in w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, _, w = heapq.heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue
        hit = _find_redex(w, by_lead, lengths)
        if hit is None:
            out[w] = c
            continue
        i, lead = hit
        g = by_lead[lead]
        left = w[:i]
        right = w[i + len(lead) :]
        for t, ct in g.terms.items():
            if t == lead:
                continue
            u = left + t + right
            acc = work.get(u)
            nv = -(c * ct) if acc is None else acc - c * ct
            if nv:
                if acc is None:
                    heapq.heappush(heap, (-len(u), tuple(prec[g2] for g2 in u), u))
                work[u] = nv
            else:
                work.pop(u, None)
    return out


def normal_form(f: NcPoly, basis: GroebnerBasis) -> NcPoly:
    """Normal form of f modulo a GroebnerBasis."""
    return basis.reduce(f)


def _interreduce(polys, order):
    """Unique fully reduced, monic generating set of the same ideal slice."""
    elems = [p.monic(order) for p in polys if p]
    while True:
        elems.sort(key=lambda g: order.key(g.leading_word(order)))
        for i in range(len(elems)):
            h = LeadIndex(order, elems[:i] + elems[i + 1 :]).reduce(elems[i])
            if h != elems[i]:
                if h:
                    elems[i] = h.monic(order)
                else:
                    del elems[i]
                break
        else:
            return elems


def _proper_overlaps(w1, w2):
    """Overlap lengths k: a proper suffix of w1 of length k is a prefix of w2."""
    out = []
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k :] == w2[:k]:
            out.append(k)
    return out


def complete(presentation: Presentation, degree_bound: int) -> GroebnerBasis:
    """Reduced Groebner basis of the relation ideal, certified to `degree_bound`."""
    order = presentation.order
    field = presentation.field
    maxrel = presentation.max_degree()
    if presentation.relations and degree_bound < maxrel:
        raise ValueError(f"degree bound {degree_bound} below relation degree {maxrel}")

    basis = _interreduce(presentation.relations, order)
    index = LeadIndex(order)
    leads = [index.add(g) for g in basis]

    # obstructions keyed by overlap degree; processing degree d only ever
    # enqueues obstructions of degree > d, so a single sweep suffices
    queue: dict[int, list] = {}

    def enqueue(i, j):
        wi, wj = leads[i], leads[j]
        for k in _proper_overlaps(wi, wj):
            d = len(wi) + len(wj) - k
            if d <= degree_bound:
                queue.setdefault(d, []).append((wi + wj[k:], i, j, k))

    for i in range(len(basis)):
        for j in range(len(basis)):
            enqueue(i, j)

    for d in range(2, degree_bound + 1):
        items = queue.pop(d, [])
        items.sort(key=lambda item: (order.key(item[0]), item[1], item[2], item[3]))
        new_idx = []
        for _, i, j, k in items:
            gi, gj = basis[i], basis[j]
            wi = leads[i]
            right = NcPoly.monomial(field, presentation.ngens, leads[j][k:])
            left = NcPoly.monomial(field, presentation.ngens, wi[: len(wi) - k])
            spoly = gi * right - left * gj
            h = index.reduce(spoly)
            if not h:
                continue
            h = h.monic(order)
            basis.append(h)
            leads.append(index.add(h))
            m = len(basis) - 1
            new_idx.append(m)
            for e in range(len(basis)):
                enqueue(m, e)
                if e != m:
                    enqueue(e, m)
        # tail-reduce the degree-d additions against the full basis; their
        # leads are normal for each other, only tails can interact
        for m in new_idx:
            lead = leads[m]
            tail = NcPoly(field, basis[m].ngens, {w: c for w, c in basis[m].terms.items() if w != lead})
            red = index.reduce(tail)
            if red != tail:
                g = NcPoly.monomial(field, basis[m].ngens, lead) + red
                basis[m] = g
                index.add(g)

    elements = sorted(
        basis, key=lambda g: (len(g.leading_word(order)), tuple(order.precedence[c] for c in g.leading_word(order)))
    )
    return GroebnerBasis(presentation, elements, degree_bound)


def normal_words_by_degree(basis: GroebnerBasis, degree: int):
    """Normal words for every degree 0..degree, each level in descending order."""
    if degree > basis.degree_bound:
        raise IncompleteBasisError(
            f"normal words requested to degree {degree}, basis certified to {basis.degree_bound}"
        )
    order = basis.order
    lead_set = basis.index.by_lead
    lengths = basis.index.lengths
    gens = order.gens_descending()
    levels = [[()]]
    level = [()]
    for _ in range(degree):
        nxt = []
        for w in level:
            for g in gens:
                u = w + (g,)
                n = len(u)
                # w is already normal, so any forbidden factor must end at the
                # last letter of u
                if any(L <= n and u[n - L :] in lead_set for L in lengths):
                    continue
                nxt.append(u)
        levels.append(nxt)
        level = nxt
    return levels


def normal_words(basis: GroebnerBasis, degree: int):
    """All degree-d words with no basis leading word as a factor, descending."""
    return normal_words_by_degree(basis, degree)[degree]


def hilbert_coeffs(basis: GroebnerBasis, degree: int):
    """dim A_d for 0 <= d <= degree, as counts of normal words."""
    return [len(level) for level in normal_words_by_degree(basis, degree)]


def graded_dim_oracle(presentation: Presentation, degree: int) -> int:
    """dim A_d without Groebner machinery: ngens^d minus the rank of the
    spanning set {u * r * v} in monomial coordinates, by exact row reduction."""
    n = presentation.ngens
    if degree == 0:
        return 1
    order = presentation.order
    ech = SparseEchelon(presentation.field, order.key)
    for r in presentation.relations:
        e = r.degree()
        if e > degree:
            continue
        items = list(r.terms.items())
        for udeg in range(degree - e + 1):
            vdeg = degree - e - udeg
            for u in itertools.product(range(n), repeat=udeg):
                for v in itertools.product(range(n), repeat=vdeg):
                    ech.add({u + w + v: c for w, c in items})
    return n**degree - ech.rank
