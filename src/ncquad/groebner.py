"""Degree-truncated reduced Groebner bases for two-sided ideals in the free
algebra, normal words and Hilbert series coefficients from an automaton over
the lead words, and an independent linear-algebra dimension oracle.

The completion is degree-graded: the relations and all overlap obstructions
of degree d are resolved before degree d+1, so the truncated basis coincides
with the degree-<=D part of the unique reduced basis and the output is
canonical -- independent of the order the defining relations were given in
and of the redex the reduction kernel picks.  An overlap whose word holds a
lead strictly inside is resolved through two smaller ambiguities (Bergman's
diamond lemma) and is skipped unreduced.  Completion of a noncommutative
ideal need not terminate; `degree_bound` records how far the result is
certified.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DimensionMismatchError, HomogeneityError, IncompleteBasisError, MixedFieldsError
from .linalg import SparseEchelon
from .ncpoly import MonomialOrder, NcPoly, _default_names, degree_lex
from .scalars import _ModPBase


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
            if r.ngens != self.ngens:
                raise DimensionMismatchError(f"relation in {r.ngens} generators, presentation in {self.ngens}")
            if not r:
                raise ValueError("zero relation")
            if not r.is_homogeneous():
                raise HomogeneityError(f"relation {r!r} is not homogeneous")
            if r.degree() < 1:
                raise HomogeneityError("relations must have degree >= 1")


class LeadIndex:
    """Elements keyed by leading word, with the lead lengths longest first.

    `steps` counts the reduction steps taken through the index.  `tails`
    holds, per lead, the element's other terms with negated coefficients and
    precedence keys; over GF(p) a negated coefficient is the int residue
    p - v, not a field element.  An entry is built the first time a
    reduction rewrites with that element, so an index that never reduces
    holds none.
    """

    def __init__(self, order, elements=()):
        self.order = order
        self.by_lead = {}
        self.lengths = []
        self.tails = {}
        self.steps = 0
        self._fits = []
        for g in elements:
            self.add(g)

    def add(self, g) -> tuple:
        """Index g under its leading word, replacing any element with that lead."""
        lead = g.leading_word(self.order)
        self.by_lead[lead] = g
        self.tails.pop(lead, None)
        if len(lead) not in self.lengths:
            self.lengths.append(len(lead))
            self.lengths.sort(reverse=True)
            self._fits = []
        return lead

    def fits(self, n):
        """Entry r, for r <= n: the lead lengths of at most r letters, longest first."""
        table = self._fits
        for r in range(len(table), n + 1):
            table.append(tuple([L for L in self.lengths if L <= r]))
        return table

    def reduce(self, f: NcPoly) -> NcPoly:
        return NcPoly(f.field, f.ngens, _normal_form_terms(f.terms, self))


class GroebnerBasis:
    """Truncated reduced basis: monic elements, certified up to `degree_bound`.

    `stats` holds one `DegreeStats` per degree that `complete` processed
    (empty for a basis built directly).
    """

    def __init__(self, presentation, elements, degree_bound, stats=()):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.degree_bound = degree_bound
        self.stats = tuple(stats)
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
        """Normal form of f; f must lie over the basis's field and generators,
        and may not exceed the certified degree, since above it the basis is
        incomplete and the remainder not unique."""
        if f.field != self.field:
            raise MixedFieldsError(f"reduction of a {f.field.name()} polynomial by a {self.field.name()} basis")
        if f.ngens != self.presentation.ngens:
            raise DimensionMismatchError(
                f"reduction of a {f.ngens}-generator polynomial by a {self.presentation.ngens}-generator basis"
            )
        if f and f.degree() > self.degree_bound:
            raise IncompleteBasisError(
                f"reduction of a degree-{f.degree()} polynomial, basis certified to {self.degree_bound}"
            )
        return self.index.reduce(f)


class DegreeStats(NamedTuple):
    """What `complete` did at one degree: the overlap obstructions reduced,
    the relations and S-polynomials that reduced to zero, the reduction steps
    (tail reductions included), the elements added, and the overlaps skipped
    unreduced because a lead word lies strictly inside their word."""

    degree: int
    obstructions: int
    zero_reductions: int
    steps: int
    new_elements: int
    redundant: int


def _find_redex(word, by_lead, fits):
    """Rightmost start position first; at a position, the longest lead wins.

    `fits[r]` lists the lead lengths of at most r letters, longest first, so
    a lead that would run past the end of the word is never looked up.
    """
    n = len(word)
    for i in range(n - 1, -1, -1):
        for L in fits[n - i]:
            lead = word[i : i + L]
            if lead in by_lead:
                return i, lead
    return None


def _normal_form_terms(terms, index):
    """Fully reduce a term dict, rewriting each word at its rightmost redex.

    Words are popped from a heap in descending monomial order; a step only
    creates strictly smaller words, so a word is final when popped.  Modulo
    a basis that is complete through the degree of the input, the normal
    form is unique (Bergman's diamond lemma), so the redex choice changes
    the number of steps, not the result.  Rewriting at the right end takes
    about a third of the steps of the leftmost choice on the staircase
    completions.  A new word's heap key is spliced from the popped word's
    key and the tail term's precomputed key.

    Over GF(p), told by the coefficients' type, the kernel works on plain
    ints: a step adds c * (p - v) to a word with no reduction, and the sum
    is reduced mod p once, when the word is popped (delayed reduction, as
    in Monagan and Pearce's heap division); field elements are built only
    for the output.  For every field a word whose coefficient sums to zero
    is skipped at the pop.  Such a word is never rewritten, so the steps
    are the same as with a zero test at every sum.
    """
    if not terms:
        return {}
    ctype = type(next(iter(terms.values())))
    p = ctype.p if issubclass(ctype, _ModPBase) else 0
    by_lead = index.by_lead
    tails = index.tails
    prec = index.order.precedence
    fits = index.fits(max(map(len, terms)))
    out = {}
    work = {w: c.v for w, c in terms.items()} if p else dict(terms)
    heap = [(-len(w), tuple([prec[g] for g in w]), w) for w in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, key, w = heapq.heappop(heap)
        c = work.pop(w)
        if p:
            c %= p
        if not c:
            continue
        hit = _find_redex(w, by_lead, fits)
        if hit is None:
            out[w] = c
            continue
        steps += 1
        i, lead = hit
        tail = tails.get(lead)
        if tail is None:
            terms_g = by_lead[lead].terms.items()
            tail = tails[lead] = [
                (t, p - ct.v if p else -ct, tuple([prec[x] for x in t])) for t, ct in terms_g if t != lead
            ]
        j = i + len(lead)
        left, right = w[:i], w[j:]
        key_left, key_right = key[:i], key[j:]
        for t, nct, key_t in tail:
            u = left + t + right
            acc = work.get(u)
            if acc is None:
                heapq.heappush(heap, (-len(u), key_left + key_t + key_right, u))
                work[u] = c * nct
            else:
                work[u] = acc + c * nct
    index.steps += steps
    if p:
        return {w: ctype(c) for w, c in out.items()}
    return out


def _has_interior_lead(word, index):
    """Some lead of the index occurs in `word` after its first letter and
    before its last."""
    return _find_redex(word[1:-1], index.by_lead, index.fits(len(word))) is not None


def _proper_overlaps(w1, w2):
    """Overlap lengths k: a proper suffix of w1 of length k is a prefix of w2."""
    out = []
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k :] == w2[:k]:
            out.append(k)
    return out


def complete(presentation: Presentation, degree_bound: int) -> GroebnerBasis:
    """Reduced Groebner basis of the relation ideal, certified to `degree_bound`.

    Degree by degree: the relations and the overlap obstructions of degree d
    are reduced against a basis that is complete below d, and the nonzero
    remainders join it; at the end of the degree their tails are reduced
    against the basis, now complete through d.  Each degree therefore ends
    with the elements of the unique reduced basis, whatever the redex choice
    or the order in which the relations were given.  The ideal is
    homogeneous, so relations above `degree_bound` do not enter.

    An overlap of leads i and j on the word w is skipped when a lead l occurs
    in w after its first letter and before its last.  Then S(i, j) is the sum
    of multiples of the ambiguities (i, l) and (l, j), and each of those has
    a shorter word, resolved at an earlier degree, or disjoint occurrences.
    So the skipped overlap is resolvable relative to the order (Bergman's
    diamond lemma), and the reduced basis is the same as when every overlap
    is reduced.
    """
    order = presentation.order
    field = presentation.field
    ngens = presentation.ngens
    if degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound} is negative")

    index = LeadIndex(order)
    basis = []
    leads = []
    relations: dict[int, list] = {}
    for r in presentation.relations:
        relations.setdefault(r.degree(), []).append(r)

    # obstructions keyed by overlap degree; an overlap is longer than both of
    # its leads, so processing degree d only enqueues degrees above d and
    # only uses elements that are already final
    queue: dict[int, list] = {}

    def enqueue(i, j):
        wi, wj = leads[i], leads[j]
        for k in _proper_overlaps(wi, wj):
            d = len(wi) + len(wj) - k
            if d <= degree_bound:
                queue.setdefault(d, []).append((wi + wj[k:], i, j, k))

    stats = []
    for d in range(1, degree_bound + 1):
        # the index holds every lead below d, and no degree-d lead fits
        # strictly inside a word of length d, so one check per degree suffices
        queued = queue.pop(d, [])
        items = [item for item in queued if not _has_interior_lead(item[0], index)]
        items.sort(key=lambda item: (order.key(item[0]), item[1], item[2], item[3]))
        spolys = (
            basis[i] * NcPoly.monomial(field, ngens, leads[j][k:])
            - NcPoly.monomial(field, ngens, leads[i][: len(leads[i]) - k]) * basis[j]
            for _, i, j, k in items
        )
        new_idx = []
        zero = 0
        steps_before = index.steps
        for f in itertools.chain(relations.get(d, ()), spolys):
            h = index.reduce(f)
            if not h:
                zero += 1
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
            tail = NcPoly(field, ngens, {w: c for w, c in basis[m].terms.items() if w != lead})
            red = index.reduce(tail)
            if red != tail:
                g = NcPoly.monomial(field, ngens, lead) + red
                basis[m] = g
                index.add(g)
        stats.append(
            DegreeStats(d, len(items), zero, index.steps - steps_before, len(new_idx), len(queued) - len(items))
        )

    elements = sorted(
        basis, key=lambda g: (len(g.leading_word(order)), tuple(order.precedence[c] for c in g.leading_word(order)))
    )
    return GroebnerBasis(presentation, elements, degree_bound, stats)


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
