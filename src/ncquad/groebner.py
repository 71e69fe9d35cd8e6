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
from .ncpoly import MonomialOrder, NcPoly, _default_names, degree_lex, render_poly


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
            check_relation(r, self.field, self.ngens, self.names)


def check_relation(r: NcPoly, field, ngens: int, names) -> None:
    """Refuse what cannot be a relation of a presentation over `field` in the
    generators `names`; the file parser runs it per line, to name the line."""
    if r.field != field:
        raise MixedFieldsError("relation field differs from presentation field")
    if r.ngens != ngens:
        raise DimensionMismatchError(f"relation in {r.ngens} generators, presentation in {ngens}")
    if not r:
        raise ValueError("zero relation")
    if not r.is_homogeneous():
        raise HomogeneityError(f"relation {render_poly(r, names)} is not homogeneous")
    if r.degree() < 1:
        raise HomogeneityError("relations must have degree >= 1")


class LeadIndex:
    """Elements keyed by leading word, with the lead lengths longest first.

    `steps` counts the reduction steps taken through the index.

    The reduction kernel carries each word as one int, its packed code in
    base B = ngens + 1 (`MonomialOrder.digits`): deg-lex order is integer
    order, and the empty word is 0.  The first reduction, `is_normal` test
    or degree of `complete` builds the packed tables (`tables`):
    `codes` sends the code of each lead to its element, and `tails` holds,
    per lead code, the element's other terms as two tuples: their
    (code, B^length) pairs and the values of their negated coefficients,
    each value being `field.lift` of it (`scalars.Field`).  A tail is built
    the first time a reduction rewrites with its element or an S-polynomial
    (`s_polynomial`) reads it.  An index that never reduces or tests a word
    holds none of this.

    `memo` is None, or the kernel's memo of rewrites (`_normal_form`),
    keyed by negated word codes: a reducible word maps to the tuple of the
    negated codes its step writes and the lead's shared tail values, a
    normal word to a mark.  `complete` gives its index a new memo at each
    degree; any other reduction keeps its memo for one call only.  The
    memo stays sound while no added lead is shorter than a memoized word,
    which `complete` keeps, since a degree meets only words of its length.
    `add` drops what goes stale: a new lead was a normal word, so its mark
    goes; an element replaced with a new tail empties the memo once some
    entry may have rewritten with it, that is, once its tail was built.

    The index decodes each word it outputs once, so the normal forms it
    returns and the elements `monic` makes share their word tuples; they
    take their coefficients from `field.element`, which over GF(p) builds
    one object per residue.
    """

    # callers keep bases, and with them their indexes, so neither has a dict
    __slots__ = (
        "order", "by_lead", "lengths", "steps", "codes", "memo", "tails",
        "_base", "_digit", "_letter", "_powers", "_suffixes", "_words",
    )

    def __init__(self, order, elements=(), leads=None):
        self.order = order
        self.by_lead = {}
        self.lengths = []
        self.steps = 0
        self.codes = None
        self.memo = None
        for g, lead in zip(elements, leads or itertools.repeat(None)):
            self.add(g, lead)

    def add(self, g, lead=None) -> tuple:
        """Index g under its leading word, replacing any element with that
        lead.  A caller that knows the lead passes it, and g is not scanned."""
        if lead is None:
            lead = g.leading_word(self.order)
        self.by_lead[lead] = g
        if len(lead) not in self.lengths:
            self.lengths.append(len(lead))
            self.lengths.sort(reverse=True)
            self._suffixes = []  # its rows depend on the lead lengths
        if self.codes is not None:
            code = self.encode(lead)
            self.codes[code] = g
            rewrote = self.tails.pop(code, None) is not None
            if self.memo:
                if rewrote:
                    self.memo.clear()
                else:
                    self.memo.pop(-code, None)
        return lead

    def tables(self, n):
        """(codes, tails, suffixes) for words of at most n letters.

        `suffixes` has one row per suffix length r, from the shortest lead
        length to n: B^(r-1), which a word of at least r letters reaches,
        B^r, and B^(r - L) for the lead lengths L <= r, longest first, the
        divisors that cut a lead of L letters off the front of the suffix.
        It and the powers of B grow on demand.
        """
        if self.codes is None:
            self._digit = self.order.digits()
            self._base = len(self._digit) + 1
            self._letter = [None] * self._base
            for g, d in enumerate(self._digit):
                self._letter[d] = g
            self._powers = [1]
            self._suffixes = []
            self._words = {}
            self.codes = {self.encode(lead): g for lead, g in self.by_lead.items()}
            self.tails = {}
        powers = self._powers
        while len(powers) <= n:
            powers.append(powers[-1] * self._base)
        rows = self._suffixes
        shortest = self.lengths[-1] if self.lengths else 1
        for r in range(shortest + len(rows), n + 1):
            rows.append((powers[r - 1], powers[r], tuple([powers[r - L] for L in self.lengths if L <= r])))
        return self.codes, self.tails, rows

    def encode(self, word) -> int:
        base, digit = self._base, self._digit
        code = 0
        for g in word:
            code = code * base + digit[g]
        return code

    def is_normal(self, word) -> bool:
        """No lead word of the index occurs in `word`: one packed redex
        search, no reduction."""
        codes, _, suffixes = self.tables(len(word))
        return _find_redex(self.encode(word), codes, suffixes) is None

    def tail(self, code, lift):
        """The packed tail of the element whose lead has this code."""
        powers, encode = self._powers, self.encode
        words, values = [], []
        for t, c in self.codes[code].terms.items():
            if (u := encode(t)) != code:
                words.append((u, powers[len(t)]))
                values.append(lift(-c))
        self.tails[code] = tail = (tuple(words), tuple(values))
        return tail

    def s_polynomial(self, code, d, a, b, lift):
        """The S-polynomial tail_i.R - L.tail_j of the overlap w = w_i.R =
        L.w_j, of d letters and with this code, of leads of a and b letters,
        as packed work read off the leads' packed tails."""
        powers, tails = self._powers, self.tails
        shift = powers[d - a]
        ci, right = divmod(code, shift)
        left, cj = divmod(code, powers[b])
        words_i, values_i = tails.get(ci) or self.tail(ci, lift)
        words_j, values_j = tails.get(cj) or self.tail(cj, lift)
        # the stored values are lift(-c), so the terms of tail_i are negated
        work = {-(t * shift + right): -v for (t, _), v in zip(words_i, values_i)}
        for (t, tshift), v in zip(words_j, values_j):
            u = -(left * tshift + t)
            acc = work.get(u)
            work[u] = v if acc is None else acc + v
        return work

    def unpack(self, out, field):
        """Terms of a packed normal form with settled values, each word
        decoded once per index."""
        words, base, letter, element = self._words, self._base, self._letter, field.element
        terms = {}
        for code, c in out.items():
            w = words.get(code)
            if w is None:
                digits = []
                rest = code
                while rest:
                    rest, d = divmod(rest, base)
                    digits.append(letter[d])
                w = words[code] = tuple(reversed(digits))
            terms[w] = element(c)
        return terms

    def reduce(self, f: NcPoly) -> NcPoly:
        return NcPoly(f.field, f.ngens, _normal_form_terms(f.terms, self, f.field))

    def monic(self, f: NcPoly, lead) -> NcPoly:
        """f divided by the coefficient of its lead word, computed on the
        field's values."""
        field = f.field
        lift, settle, element = field.lift, field.settle, field.element
        inv = lift(f.terms[lead] ** -1)
        return NcPoly(field, f.ngens, {w: element(settle(lift(c) * inv)) for w, c in f.terms.items()})


class GroebnerBasis:
    """Truncated reduced basis: monic elements, certified up to `degree_bound`.

    `stats` holds one `DegreeStats` per degree that `complete` processed
    (empty for a basis built directly).  A basis from `complete` also keeps
    `insertion`: the k-th element was the insertion[k]-th that the
    completion added, which is all `extend` needs besides the elements and
    their leads; a basis built directly has None there.  `leads`, when
    given, are the elements' lead words, so the index scans none.
    """

    __slots__ = ("presentation", "elements", "degree_bound", "stats", "insertion", "index", "_automaton")

    def __init__(self, presentation, elements, degree_bound, stats=(), leads=None, insertion=None):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.degree_bound = degree_bound
        self.stats = tuple(stats)
        self.insertion = insertion
        self.index = LeadIndex(presentation.order, self.elements, leads)
        self._automaton = None

    def extend(self, degree_bound: int) -> GroebnerBasis:
        """This basis certified to `degree_bound`: the degrees above its
        bound go through `complete`'s loop, which resumes from the elements
        in the order the completion added them.  The overlaps above the
        bound are recomputed from the leads, so the result equals
        `complete(presentation, degree_bound)` element for element, with
        the same `DegreeStats` at every degree.  A bound at or below this
        one returns this basis."""
        if self.insertion is None:
            raise ValueError("a basis built directly, not by complete, cannot be extended")
        if degree_bound <= self.degree_bound:
            return self
        # the index holds the elements in order, under distinct leads
        added = [None] * len(self.elements)
        for pair, m in zip(self.index.by_lead.items(), self.insertion):
            added[m] = pair
        return _complete_degrees(self.presentation, added, self.degree_bound, degree_bound, self.stats)

    def automaton(self, degree: int):
        """The lead-word automaton (`_lead_automaton`) for normal words up to
        `degree`.  It depends only on the leads, so each basis builds it
        once, on first use, and keeps it."""
        if degree < 0:
            raise ValueError(f"degree {degree} is negative")
        if degree > self.degree_bound:
            raise IncompleteBasisError(
                f"normal words requested to degree {degree}, basis certified to {self.degree_bound}"
            )
        if self._automaton is None:
            self._automaton = _lead_automaton(self.index.by_lead, self.order.gens_descending())
        return self._automaton

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


def _find_redex(code, codes, suffixes):
    """The redex of a packed word: the rightmost start first, and at a start
    the longest lead.

    The suffix of r letters is code mod B^r, and the lead of L letters at
    its front is that suffix divided by B^(r - L), so a lead that would run
    past the end of the word is never looked up.  Returns the lead's code,
    B^r and B^(r - L), or None for a normal word.
    """
    for low, high, divisors in suffixes:
        if code < low:  # the word is shorter than the suffix
            return None
        suffix = code % high
        for q in divisors:
            if (lead := suffix // q) in codes:
                return lead, high, q
    return None


_NORMAL = object()  # the memo's mark of a normal word


def _normal_form_terms(terms, index, field):
    """Fully reduce a term dict: its words encoded as packed work for
    `_normal_form`."""
    if not terms:
        return {}
    n = max(map(len, terms))
    index.tables(n)  # the encoding is built with the tables
    encode, lift = index.encode, field.lift
    return _normal_form({-encode(w): lift(c) for w, c in terms.items()}, n, index, field)


def _normal_form(work, n, index, field):
    """Fully reduce packed work, rewriting each word at its rightmost redex.

    `work` maps the negated packed codes (`LeadIndex`) of words of at most
    n letters to their unsettled values (`field.lift`); the reduction
    consumes it.  The negated codes key the work dict and fill a heap, so
    words pop in descending monomial order; a step only creates strictly
    smaller words, so a word is final when popped.  Modulo a basis that is
    complete through n, the normal form is unique (Bergman's diamond
    lemma), so the redex choice changes the number of steps, not the
    result.  Rewriting at the right end takes about a third of the steps of
    the leftmost choice on the staircase completions.  A step writes
    w = left.lead.right as u = (left * B^|t| + t) * B^|right| + right for
    each tail term t.

    The redex search and those codes depend only on w, so they are
    memoized in `index.memo` (a memo for this call alone when it is None):
    the first pop of w stores its rewrite, the negated codes u with the
    lead's shared tail values, or the normal mark, and each later pop of w
    replays it.  Within one call no word is popped twice; the memo pays
    across the reductions of one degree of `complete`.  A monomial
    element's rewrite is empty, which is a step to zero, not the mark.

    A step adds c * lift(-ct) to a word unsettled, and the sum is settled
    once, when the word is popped; over GF(p) that is one reduction mod p
    per word (delayed reduction, as in Monagan and Pearce's heap division).
    The index decodes the output words and builds the output elements, each
    once.  A word whose coefficient settles to zero is skipped at the pop.
    Such a word is never rewritten, so the steps are the same as with a
    zero test at every sum.
    """
    lift, settle = field.lift, field.settle
    # the lead lengths may have changed since the last call, and with them
    # the rows of the redex search
    codes, tails, suffixes = index.tables(n)
    memo = index.memo
    if memo is None:
        memo = {}
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    out = {}
    steps = 0
    while heap:
        key = heappop(heap)
        c = settle(work.pop(key))
        if not c:
            continue
        rewrite = memo.get(key)
        if rewrite is None:
            code = -key
            hit = _find_redex(code, codes, suffixes)
            if hit is None:
                rewrite = memo[key] = _NORMAL
            else:
                lead, high, q = hit
                tail = tails.get(lead)
                if tail is None:
                    tail = index.tail(lead, lift)
                left, right = code // high, code % q
                words, values = tail
                rewrite = memo[key] = (tuple([-((left * shift + t) * q + right) for t, shift in words]), values)
        if rewrite is _NORMAL:
            out[-key] = c
            continue
        steps += 1
        us, values = rewrite
        for u, nct in zip(us, values):
            acc = work.get(u)
            if acc is None:
                heappush(heap, u)
                work[u] = c * nct
            else:
                work[u] = acc + c * nct
    index.steps += steps
    return index.unpack(out, field)


def _has_interior_lead(code, d, index):
    """Some lead of the index occurs in the packed word of d letters after
    its first letter and before its last."""
    codes, _, suffixes = index.tables(d)
    return _find_redex(code % index._powers[d - 1] // index._base, codes, suffixes) is not None


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

    Every reduction takes packed work (`_normal_form`), and the leads are
    packed codes too.  A proper suffix of k letters of lead i (a letters,
    code c_i) is a prefix of lead j (b letters) when c_i mod B^k equals
    c_j div B^(b-k), and the overlap word is c_i.B^(b-k) + c_j mod B^(b-k).
    For the overlap of leads L.w_j = w_i.R, the S-polynomial
    tail_i.R - L.tail_j is read off the two elements' packed tails in the
    index, with no polynomial arithmetic: a tail word t of i becomes
    t.B^|R| + code(R), with its stored value lift(-c) negated, and a tail
    word t of j becomes code(L).B^|t| + t, with its stored value.  The
    obstructions of a degree go in (code, i, j) order, i and j being the
    order in which the leads joined: packed-code order is deg-lex order.
    The kernel returns the words of a normal form in descending order, so
    the lead of a new element is its first word, the largest code, and is
    never searched for.

    The reductions of one degree share one memo of rewrites (`LeadIndex`),
    which the next degree replaces; the returned basis holds none, and
    `GroebnerBasis.extend` continues it through the same loop.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound {degree_bound} is negative")
    return _complete_degrees(presentation, (), 0, degree_bound, ())


def _complete_degrees(presentation, added, low, high, stats) -> GroebnerBasis:
    """Degrees low+1 through high of `complete`, after a completion through
    `low` that added the (lead, element) pairs `added`, in that order, and
    recorded `stats`."""
    order = presentation.order
    field = presentation.field
    ngens = presentation.ngens
    basis = [g for _, g in added]
    leads = [lead for lead, _ in added]
    index = LeadIndex(order, basis, leads)
    index.tables(high)
    powers = index._powers
    codes = [index.encode(lead) for lead in leads]
    relations: dict[int, list] = {}
    for r in presentation.relations:
        if low < r.degree():
            relations.setdefault(r.degree(), []).append(r)

    # obstructions keyed by overlap degree; an overlap is longer than both of
    # its leads, so processing degree d only enqueues degrees above d and
    # only uses elements that are already final
    queue: dict[int, list] = {}

    def enqueue(i, j):
        a, b = len(leads[i]), len(leads[j])
        ci, cj = codes[i], codes[j]
        # overlaps of k letters make words of a + b - k letters, in (low, high]
        for k in range(max(1, a + b - high), min(a, b, a + b - low)):
            shift = powers[b - k]
            if ci % powers[k] == cj // shift:
                queue.setdefault(a + b - k, []).append((ci * shift + cj % shift, i, j))

    # a resumed completion recomputes the overlaps above `low` of the leads
    # it starts from; their insertion order fixes the (code, i, j) order
    for i in range(len(basis)):
        for j in range(len(basis)):
            enqueue(i, j)

    lift = field.lift
    stats = list(stats)
    for d in range(low + 1, high + 1):
        # the reductions of degree d meet only words of length d, so the
        # rewrites of lower degrees are of no further use
        index.memo = {}
        # the index holds every lead below d, and no degree-d lead fits
        # strictly inside a word of length d, so one check per degree
        # suffices
        queued = queue.pop(d, [])
        items = sorted(item for item in queued if not _has_interior_lead(item[0], d, index))
        spolys = (index.s_polynomial(code, d, len(leads[i]), len(leads[j]), lift) for code, i, j in items)
        reduced = itertools.chain(
            (_normal_form_terms(r.terms, index, field) for r in relations.get(d, ())),
            (_normal_form(work, d, index, field) for work in spolys),
        )
        new_idx = []
        zero = 0
        steps_before = index.steps
        for h in reduced:
            if not h:
                zero += 1
                continue
            lead = next(iter(h))  # the kernel's words come in descending order
            g = index.monic(NcPoly(field, ngens, h), lead)
            index.add(g, lead)
            basis.append(g)
            leads.append(lead)
            codes.append(index.encode(lead))
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
            terms = basis[m].terms
            tail = {w: c for w, c in terms.items() if w != lead}
            red = _normal_form_terms(tail, index, field)
            if red != tail:
                basis[m] = g = NcPoly(field, ngens, {lead: terms[lead], **red})
                index.add(g, lead)
        stats.append(
            DegreeStats(d, len(items), zero, index.steps - steps_before, len(new_idx), len(queued) - len(items))
        )

    # by lead length, then descending deg-lex, which is descending code
    insertion = sorted(range(len(basis)), key=lambda m: (len(leads[m]), -codes[m]))
    return GroebnerBasis(
        presentation,
        [basis[m] for m in insertion],
        high,
        stats,
        leads=[leads[m] for m in insertion],
        insertion=tuple(insertion),
    )


def _lead_automaton(leads, gens):
    """Aho-Corasick automaton of the lead words, with `gens` the generators
    in descending order.

    The states are the proper prefixes of the lead words, numbered with the
    empty word as state 0.  After a normal word w the automaton sits at the
    longest suffix of w that is a state; appending a generator g is dead when
    some suffix of state+(g,) is a lead word, and otherwise moves to the
    longest suffix of state+(g,) that is a state.  Returns one flat tuple,
    since a basis keeps it: entry s * len(gens) + i is the state that
    appending gens[i] to state s moves to, or -1 for a dead move.
    """
    states = {lead[:k] for lead in leads for k in range(len(lead))} | {()}
    number = {s: i for i, s in enumerate(sorted(states, key=len))}
    table = []
    for s in number:
        for g in gens:
            u = s + (g,)
            # a lead factor of w+(g,) ends at g and, minus g, is a prefix of a
            # lead, so it is a suffix of state+(g,)
            if any(u[k:] in leads for k in range(len(u) + 1)):
                table.append(-1)
            else:
                table.append(next(number[u[k:]] for k in range(len(u) + 1) if u[k:] in number))
    return tuple(table)


def normal_words_by_degree(basis: GroebnerBasis, degree: int):
    """Normal words for every degree 0..degree, each level in descending order."""
    table = basis.automaton(degree)
    gens = basis.order.gens_descending()
    n = len(gens)
    levels = [[()]]
    level = [((), 0)]
    for _ in range(degree):
        level = [(w + (g,), t) for w, s in level for g, t in zip(gens, table[s * n : s * n + n]) if t >= 0]
        levels.append([w for w, _ in level])
    return levels


def normal_words(basis: GroebnerBasis, degree: int):
    """All degree-d words with no basis leading word as a factor, descending."""
    return normal_words_by_degree(basis, degree)[degree]


def hilbert_coeffs(basis: GroebnerBasis, degree: int):
    """dim A_d for 0 <= d <= degree: the number of normal words of degree d,
    counted through the lead-word automaton without listing any word, in
    O(degree * states * ngens) steps and O(states) memory besides the
    automaton, which the basis keeps."""
    table = basis.automaton(degree)
    n = basis.presentation.ngens
    states = len(table) // n if n else 1  # with no generator, only the empty word
    counts = [1] + [0] * (states - 1)  # normal words ending in each state
    coeffs = [1]
    for _ in range(degree):
        nxt = [0] * states
        for s, c in enumerate(counts):
            for t in table[s * n : s * n + n]:
                if t >= 0:
                    nxt[t] += c
        counts = nxt
        coeffs.append(sum(counts))
    return coeffs


def _graded_dims(presentation: Presentation, degree: int) -> list:
    """[dim A_0, ..., dim A_degree] from one degree-by-degree sweep.

    The sweep labels words by their packed codes (`MonomialOrder.digits`),
    so deg-lex order is integer order.  A_k is spanned by the products
    x_i*b, for x_i a generator and b a basis word of A_{k-1}; these are the
    columns, labelled by the code of the word (i,)+b, which is
    digit(i) * B^(k-1) + code(b).  The rows are r*u, for r a relation of
    degree e and u a basis word of A_{k-e}: the row of r*u is
    sum_w c_w x_{w0}*[w1...w_{e-1}*u], where the class in brackets comes
    from the left-multiplication tables L_i: A_{j-1} -> A_j, applied right
    to left; the first factor, L_{w_{e-1}} of u, is one table entry.  A
    row's pivot is its largest column, the largest word, and the non-pivot
    columns are the basis of A_k.  The table at degree k sends each column
    to its class in A_k, read off one back-substitution of the degree-k
    echelon: a free column's class is its unit vector and a pivot column's
    class is minus its reduced tail.

    With relations of top degree e, degree k + 1 reads only the tables of
    degrees k - e + 2 .. k and the bases of degrees k + 1 - e .. k, so the
    sweep drops each table and basis once no later degree reads it.  The
    sweep, the tables and the echelon carry the field's values
    (`field.lift`, settled by `field.settle`), and no field element is
    made.  Nothing here touches the completion engine.
    """
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    field = presentation.field
    lift, settle = field.lift, field.settle
    one = lift(field.one)
    digit = presentation.order.digits()
    base = len(digit) + 1
    relations = [(r.degree(), [(w, lift(c)) for w, c in r.terms.items()]) for r in presentation.relations]
    top = max((e for e, _ in relations), default=1)
    bases = {0: [0]}  # codes of the basis words of A_j, in descending order
    tables = {}  # tables[j][g][b]: class of x_g*b in A_j, for b in bases[j-1]
    dims = [1]
    shift = 1  # B^(k-1), the place of a column's first letter
    for k in range(1, degree + 1):
        # a larger first letter makes a larger word, so the columns come in
        # descending order
        columns = [d * shift + b for d in range(base - 1, 0, -1) for b in bases[k - 1]]
        ech = SparseEchelon(field)
        for e, terms in relations:
            if e > k:
                continue
            for u in bases[k - e]:
                row = {}
                for w, c in terms:
                    if e == 1:
                        coords = {u: one}
                    else:
                        coords = tables[k - e + 1][w[e - 1]][u]
                        for j in range(e - 2, 0, -1):
                            coords = _apply(tables[k - j][w[j]], coords, settle)
                    head = digit[w[0]] * shift
                    for b, v in coords.items():
                        col = head + b
                        acc = row.get(col)
                        row[col] = c * v if acc is None else acc + c * v
                ech.add(row)
        dims.append(len(columns) - ech.rank)
        if k < degree:
            bases[k] = [c for c in columns if c not in ech.rows]
            # a pivot column's class is minus its reduced tail, a free
            # column's is its unit vector
            classes = {c: {w: settle(-v) for w, v in tail.items()} for c, tail in ech.back_substitute().items()}
            for c in bases[k]:
                classes[c] = {c: one}
            tables[k] = [{b: classes[d * shift + b] for b in bases[k - 1]} for d in digit]
            # degree k + 1 reads the bases from k + 1 - top and the tables
            # from k + 2 - top on
            bases.pop(k - top, None)
            tables.pop(k + 1 - top, None)
        shift *= base
    return dims


def _apply(table, coords, settle):
    """Image of the element sum_b coords[b] * b under a multiplication
    table, in settled values."""
    out = {}
    for b, c in coords.items():
        for w, v in table[b].items():
            acc = out.get(w)
            out[w] = c * v if acc is None else acc + c * v
    return {w: r for w, v in out.items() if (r := settle(v))}


def graded_dim_oracle(presentation: Presentation, degree: int) -> int:
    """dim A_d without Groebner machinery: each graded piece A_k is built from
    the products of generators with a basis of A_{k-1}, modulo the relation
    rows, by exact sparse row reduction.  The cost is polynomial in
    ngens * dim A_{d-1}."""
    return _graded_dims(presentation, degree)[degree]
