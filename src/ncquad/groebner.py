"""Degree-truncated reduced Groebner bases for two-sided ideals in the free
algebra, normal words and Hilbert series coefficients from an automaton over
the lead words, and an independent linear-algebra dimension oracle.

The completion is degree-graded: all overlap obstructions of degree d are
resolved before degree d+1, so the truncated basis coincides with the
degree-<=D part of the unique reduced basis and the output is canonical --
independent of the order the defining relations were given in.  Completion
of a noncommutative ideal need not terminate; `degree_bound` records how far
the result is certified.
"""

from __future__ import annotations

import heapq
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


def _lead_automaton(basis: GroebnerBasis, degree: int):
    """Aho-Corasick automaton of the lead words, for words up to `degree`.

    The states are the proper prefixes of the lead words, numbered with the
    empty word as state 0.  After a normal word w the automaton sits at the
    longest suffix of w that is a state; appending a generator g is dead when
    some suffix of state+(g,) is a lead word, and otherwise moves to the
    longest suffix of state+(g,) that is a state.  Returns, per state, the
    live moves (g, next state) with g in descending generator order.
    """
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    if degree > basis.degree_bound:
        raise IncompleteBasisError(
            f"normal words requested to degree {degree}, basis certified to {basis.degree_bound}"
        )
    leads = basis.index.by_lead
    states = {lead[:k] for lead in leads for k in range(len(lead))} | {()}
    number = {s: i for i, s in enumerate(sorted(states, key=len))}
    gens = basis.order.gens_descending()
    table = []
    for s in number:
        moves = []
        for g in gens:
            u = s + (g,)
            # a lead factor of w+(g,) ends at g and, minus g, is a prefix of a
            # lead, so it is a suffix of state+(g,)
            if any(u[k:] in leads for k in range(len(u) + 1)):
                continue
            moves.append((g, next(number[u[k:]] for k in range(len(u) + 1) if u[k:] in number)))
        table.append(moves)
    return table


def normal_words_by_degree(basis: GroebnerBasis, degree: int):
    """Normal words for every degree 0..degree, each level in descending order."""
    table = _lead_automaton(basis, degree)
    levels = [[()]]
    level = [((), 0)]
    for _ in range(degree):
        level = [(w + (g,), t) for w, s in level for g, t in table[s]]
        levels.append([w for w, _ in level])
    return levels


def normal_words(basis: GroebnerBasis, degree: int):
    """All degree-d words with no basis leading word as a factor, descending."""
    return normal_words_by_degree(basis, degree)[degree]


def hilbert_coeffs(basis: GroebnerBasis, degree: int):
    """dim A_d for 0 <= d <= degree: the number of normal words of degree d,
    counted through the lead-word automaton without listing any word, in
    O(degree * states * ngens) steps and O(states) memory."""
    table = _lead_automaton(basis, degree)
    counts = [1] + [0] * (len(table) - 1)  # normal words ending in each state
    coeffs = [1]
    for _ in range(degree):
        nxt = [0] * len(table)
        for s, c in enumerate(counts):
            for _, t in table[s]:
                nxt[t] += c
        counts = nxt
        coeffs.append(sum(counts))
    return coeffs


def _graded_dims(presentation: Presentation, degree: int) -> list:
    """[dim A_0, ..., dim A_degree] from one degree-by-degree sweep.

    A_k is spanned by the products x_i*b, for x_i a generator and b a basis
    word of A_{k-1}; these are the columns, labelled by the word (i,)+b.  The
    rows are r*u, for r a relation of degree e and u a basis word of A_{k-e}:
    the row of r*u is sum_w c_w x_{w0}*[w1...w_{e-1}*u], where the class in
    brackets comes from the left-multiplication tables L_i: A_{j-1} -> A_j,
    applied right to left.  The non-pivot columns are the basis of A_k, and
    the table at degree k sends each column to its remainder against the
    degree-k echelon.  Nothing here touches the completion engine.
    """
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    field = presentation.field
    one = field.one
    gens = presentation.order.gens_descending()
    relations = [(r.degree(), list(r.terms.items())) for r in presentation.relations]
    bases = [[()]]  # basis words of A_j, in descending order
    tables = [None]  # tables[j][i][b]: class of x_i*b in A_j, for b in bases[j-1]
    dims = [1]
    for k in range(1, degree + 1):
        # deg-lex compares the first letter first, so this is descending
        # order.key; a column's key is minus its position
        columns = [(i,) + b for i in gens for b in bases[k - 1]]
        position = {c: -j for j, c in enumerate(columns)}
        ech = SparseEchelon(field, position.__getitem__)
        for e, terms in relations:
            if e > k:
                continue
            for u in bases[k - e]:
                row = {}
                for w, c in terms:
                    coords = {u: one}
                    for j in range(e - 1, 0, -1):
                        coords = _apply(tables[k - j][w[j]], coords)
                    head = (w[0],)
                    for b, v in coords.items():
                        col = head + b
                        acc = row.get(col)
                        row[col] = c * v if acc is None else acc + c * v
                ech.add(row)
        dims.append(len(columns) - ech.rank)
        if k < degree:
            bases.append([c for c in columns if c not in ech.rows])
            tables.append(
                [{b: ech.reduce({(i,) + b: one}) for b in bases[k - 1]} for i in range(presentation.ngens)]
            )
    return dims


def _apply(table, coords):
    """Image of the element sum_b coords[b] * b under a multiplication table."""
    out = {}
    for b, c in coords.items():
        for w, v in table[b].items():
            acc = out.get(w)
            out[w] = c * v if acc is None else acc + c * v
    return {w: v for w, v in out.items() if v}


def graded_dim_oracle(presentation: Presentation, degree: int) -> int:
    """dim A_d without Groebner machinery: each graded piece A_k is built from
    the products of generators with a basis of A_{k-1}, modulo the relation
    rows, by exact sparse row reduction.  The cost is polynomial in
    ngens * dim A_{d-1}."""
    return _graded_dims(presentation, degree)[degree]
