"""Completion, normal forms, normal words, Hilbert coefficients, oracle."""

import heapq
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ncquad import GF, QQ, QQ_THETA, DimensionMismatchError, IncompleteBasisError, MixedFieldsError
from ncquad import groebner
from ncquad.cli import parse_presentation
from ncquad.groebner import (
    GroebnerBasis,
    LeadIndex,
    Presentation,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
    normal_words,
    normal_words_by_degree,
)
from ncquad.linalg import SparseEchelon
from ncquad.ncpoly import MonomialOrder, NcPoly, degree_lex, parse_poly, render_word
from ncquad.scalars import ThetaRational
from ncquad.sklyanin import (
    RecursionOutcome,
    coefficient_recursion,
    in_m_set,
    staircase_presentation,
    substitution_chain,
)

NAMES = ("x", "y", "z")
X, Y, Z = 0, 1, 2
CORPUS = Path(__file__).resolve().parent.parent / "presentations"


def pres(relation_texts, field=QQ):
    rels = [parse_poly(t, field, NAMES) for t in relation_texts]
    return Presentation(field, 3, tuple(rels))


def sklyanin_pres(field, p, q, r):
    texts = []
    rels = []
    pairs = [
        [((Y, Z), p), ((Z, Y), q), ((X, X), r)],
        [((Z, X), p), ((X, Z), q), ((Y, Y), r)],
        [((X, Y), p), ((Y, X), q), ((Z, Z), r)],
    ]
    for pr in pairs:
        f = NcPoly.from_pairs(field, 3, pr)
        if f:
            rels.append(f)
    return Presentation(field, 3, tuple(rels))


W_RELATIONS = ["x*x - z*x + z*y", "x*y - y*y", "y*z - z*x + z*y"]


def triangular_pres(alpha, gamma, field=QQ):
    a = field.parse(alpha) if isinstance(alpha, str) else alpha
    g = field.parse(gamma) if isinstance(gamma, str) else gamma
    one = field.one
    rels = [
        NcPoly.from_pairs(field, 3, [((X, X), one), ((Z, X), -one), ((Z, Y), one), ((Z, Z), a)]),
        NcPoly.from_pairs(field, 3, [((X, Y), one), ((Y, Y), -one), ((Z, X), -a), ((Z, Z), g)]),
        NcPoly.from_pairs(field, 3, [((Y, Z), one), ((Z, X), -one), ((Z, Y), one), ((Z, Z), a)]),
    ]
    return Presentation(field, 3, tuple(r for r in rels if r))


def test_normal_form_single_step():
    p = triangular_pres(QQ.one, QQ.one)
    g = complete(p, 4)
    xx = NcPoly.monomial(QQ, 3, (X, X))
    assert g.reduce(xx) == parse_poly("z*x - z*y - z*z", QQ, NAMES)


def test_normal_form_untouched_and_self():
    p = pres(W_RELATIONS)
    g = complete(p, 5)
    zzz = NcPoly.monomial(QQ, 3, (Z, Z, Z))
    assert g.reduce(zzz) == zzz
    for e in g.elements:
        assert not g.reduce(e)
    for r in p.relations:
        assert not g.reduce(r)


def test_normal_form_custom_order():
    order = MonomialOrder((1, 0))  # y > x
    f = parse_poly("x*x*y - y*y*y", QQ, ("x", "y"))
    g = complete(Presentation(QQ, 2, (f,), order), 4)
    yyy = NcPoly.monomial(QQ, 2, (1, 1, 1))
    assert g.reduce(yyy) == parse_poly("x*x*y", QQ, ("x", "y"))


def test_free_algebra_basis_empty():
    p = Presentation(QQ, 3, ())
    g = complete(p, 6)
    assert g.elements == ()
    assert hilbert_coeffs(g, 4) == [1, 3, 9, 27, 81]


def test_finite_basis_when_p_cubed_equals_q_cubed():
    # (p,q,r) = (1,w,2): q^3 = 1 and r^3 differs from p^3, so the basis is the
    # three defining relations plus yyz - q^2 zyy and yzz - q^2 zzy
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    half = one / (one * 2)
    p = sklyanin_pres(QQ_THETA, one, w, one * 2)
    g = complete(p, 5)
    expected = [
        NcPoly.from_pairs(QQ_THETA, 3, [((X, X), one), ((Y, Z), half), ((Z, Y), w * half)]),
        parse_poly("x*y + w*y*x + 2*z*z", QQ_THETA, NAMES),
        NcPoly.from_pairs(QQ_THETA, 3, [((X, Z), one), ((Y, Y), 2 * w * w), ((Z, X), w * w)]),
        NcPoly.from_pairs(QQ_THETA, 3, [((Y, Y, Z), one), ((Z, Y, Y), -(w * w))]),
        NcPoly.from_pairs(QQ_THETA, 3, [((Y, Z, Z), one), ((Z, Z, Y), -(w * w))]),
    ]
    assert list(g.elements) == expected
    assert list(g.lead_words()) == [(X, X), (X, Y), (X, Z), (Y, Y, Z), (Y, Z, Z)]


def test_cube_equal_parameters_are_monomial_like():
    # (1,w,1) has p^3 = q^3 = r^3, so the defining relations already form the
    # basis and the series is the degenerate one
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    g = complete(sklyanin_pres(QQ_THETA, one, w, one), 5)
    assert len(g.elements) == 3
    assert hilbert_coeffs(g, 5) == [1, 3, 6, 12, 24, 48]
    assert graded_dim_oracle(sklyanin_pres(QQ_THETA, one, w, one), 3) == 12


def test_finite_basis_normal_words_degree3():
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    g = complete(sklyanin_pres(QQ_THETA, one, w, one * 2), 5)
    words = normal_words(g, 3)
    # z^k (yz)^m y^l x^e of degree 3
    expected = set()
    for k in range(4):
        for m in range(2):
            for L in range(4):
                for e in range(2):
                    if k + 2 * m + L + e == 3:
                        expected.add((Z,) * k + (Y, Z) * m + (Y,) * L + (X,) * e)
    assert set(words) == expected
    assert len(words) == 10


def test_algebra_w_basis():
    # degree-4 element carries the tail -xzzx + xzzy: the bare monomial xzyx
    # is not in the ideal (checked against the linear-algebra oracle below)
    g = complete(pres(W_RELATIONS), 6)
    expected = [
        parse_poly("x*x - z*x + z*y", QQ, NAMES),
        parse_poly("x*y - y*y", QQ, NAMES),
        parse_poly("y*z - z*x + z*y", QQ, NAMES),
        parse_poly("x*z*x - x*z*y + z*y*x - z*z*x + z*z*y", QQ, NAMES),
        parse_poly("y*y*y", QQ, NAMES),
        parse_poly("x*z*y*x - x*z*z*x + x*z*z*y", QQ, NAMES),
    ]
    assert list(g.elements) == expected


def test_w_degree4_element_membership():
    p = pres(W_RELATIONS)
    rows = []
    for r in p.relations:
        for udeg in range(3):
            vdeg = 2 - udeg
            for u in itertools.product(range(3), repeat=udeg):
                for v in itertools.product(range(3), repeat=vdeg):
                    rows.append({u + w + v: c for w, c in r.terms.items()})

    def in_ideal_degree4(vec):
        # words of one length are labels ordered among themselves
        ech = SparseEchelon(QQ)
        for row in rows:
            ech.add(dict(row))
        return not ech.add(vec)

    assert not in_ideal_degree4({(X, Z, Y, X): QQ.one})
    assert in_ideal_degree4(
        {(X, Z, Y, X): QQ.one, (X, Z, Z, X): -QQ.one, (X, Z, Z, Y): QQ.one}
    )


def test_hilbert_quantum_polynomials():
    g = complete(sklyanin_pres(QQ, QQ.one, QQ.one, QQ.zero), 5)
    assert hilbert_coeffs(g, 5) == [1, 3, 6, 10, 15, 21]


def test_hilbert_monomial_case():
    g = complete(sklyanin_pres(QQ, QQ.zero, QQ.zero, QQ.one), 4)
    assert hilbert_coeffs(g, 4) == [1, 3, 6, 12, 24]


def expand_series(num, den, degree):
    """Coefficients of num/den as a power series (den[0] == 1)."""
    out = []
    for n in range(degree + 1):
        c = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c)
    return out


def test_hilbert_w():
    # (1+t)(1+t^2)(1+t+t^2) / (1 - t - t^3 - 2t^4)
    num = [1, 2, 3, 3, 2, 1]
    den = [1, -1, 0, -1, -2]
    g = complete(pres(W_RELATIONS), 6)
    assert hilbert_coeffs(g, 4) == [1, 3, 6, 10, 17]
    assert hilbert_coeffs(g, 6) == expand_series(num, den, 6)


def test_incomplete_basis_guard():
    g = complete(pres(W_RELATIONS), 4)
    with pytest.raises(IncompleteBasisError):
        hilbert_coeffs(g, 5)
    with pytest.raises(IncompleteBasisError):
        normal_words(g, 5)
    with pytest.raises(IncompleteBasisError):
        normal_words_by_degree(g, 5)
    # within the bound the remainder is unique; above it, it is not
    assert not g.reduce(NcPoly.monomial(QQ, 3, (X, Y, Y, Y)))
    with pytest.raises(IncompleteBasisError):
        g.reduce(NcPoly.monomial(QQ, 3, (X, Y, Y, Y, Y)))
    with pytest.raises(IncompleteBasisError):
        g.reduce(NcPoly.monomial(QQ, 3, (Z, Z, Z, Z, Z)) + NcPoly.monomial(QQ, 3, (Z,)))


def test_normal_words_match_factor_search():
    # hand-picked lead sets, not reduced: a lead inside another, self-overlaps,
    # a lead ending in a prefix of another, and a non-default generator order
    cases = [
        ([(X, Y), (X, Y, Z), (Z, Z, Z), (Y, X, Y, X)], degree_lex(3)),
        ([(X, X, Y), (X, Y, X), (Y, Y), (Z, X, Z, Y)], MonomialOrder((2, 0, 1))),
        ([(Z,), (X, Y, X, Y)], MonomialOrder((1, 2, 0))),
    ]
    for leads, order in cases:
        p = Presentation(QQ, 3, (), order=order)
        g = GroebnerBasis(p, [NcPoly.monomial(QQ, 3, w) for w in leads], 7)
        expected = []
        for d in range(8):
            words = [
                w
                for w in itertools.product(range(3), repeat=d)
                if not any(w[i : i + len(u)] == u for u in leads for i in range(d - len(u) + 1))
            ]
            expected.append(sorted(words, key=order.key, reverse=True))
        assert normal_words_by_degree(g, 7) == expected, leads
        assert hilbert_coeffs(g, 7) == [len(level) for level in expected], leads


def test_oracle_examples():
    assert graded_dim_oracle(sklyanin_pres(QQ, QQ.one, QQ.parse("2"), QQ.one), 2) == 6
    assert graded_dim_oracle(sklyanin_pres(QQ, QQ.one, QQ.parse("2"), QQ.one), 3) == 10
    assert graded_dim_oracle(Presentation(QQ, 3, ()), 3) == 27


def test_oracle_matches_hilbert():
    cases = [
        sklyanin_pres(QQ, QQ.one, QQ.parse("2"), QQ.one),
        pres(W_RELATIONS),
        sklyanin_pres(QQ, QQ.one, QQ.one, QQ.zero),
    ]
    for p in cases:
        g = complete(p, 5)
        h = hilbert_coeffs(g, 5)
        for d in range(6):
            assert graded_dim_oracle(p, d) == h[d]


def test_negative_degree_rejected():
    p = pres(W_RELATIONS)
    with pytest.raises(ValueError):
        graded_dim_oracle(p, -1)
    g = complete(p, 4)
    with pytest.raises(ValueError):
        normal_words_by_degree(g, -1)
    with pytest.raises(ValueError):
        hilbert_coeffs(g, -1)
    with pytest.raises(ValueError):
        complete(Presentation(QQ, 3, ()), -1)


def test_oracle_independent_of_completion(monkeypatch):
    expected = [graded_dim_oracle(pres(W_RELATIONS), d) for d in range(7)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the completion engine")

    for name in ("_normal_form", "complete", "normal_words_by_degree", "normal_words"):
        monkeypatch.setattr(groebner, name, refuse)
    monkeypatch.setattr(LeadIndex, "reduce", refuse)
    assert [graded_dim_oracle(pres(W_RELATIONS), d) for d in range(7)] == expected == [1, 3, 6, 10, 17, 30, 52]
    assert groebner._graded_dims(pres(W_RELATIONS), 6) == expected


def test_oracle_tables_match_per_column_reduction(monkeypatch):
    # each degree's multiplication table is read off one back-substitution
    # of the echelon, a pivot column's class being minus its reduced tail;
    # the reference reduces the unit vector of every pivot column against
    # the echelon, one `reduce` per column (free columns keep their unit
    # vector either way)
    rng = random.Random(1313)
    cases = [(parse_presentation(path.read_text()), 6) for path in sorted(CORPUS.glob("*.alg"))]
    for field, value in (
        (GF(31), lambda: GF(31).from_int(rng.randrange(1, 31))),
        (QQ, lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))),
        (QQ_THETA, lambda: ThetaRational(rng.randint(-4, 4), rng.randint(1, 4))),
    ):
        cases.append((sklyanin_pres(field, value(), value(), value()), 6))
    cases.append((staircase_pairs(1313)[1], 10))  # the k = 2 finite branch
    f7 = GF(7)
    mixed = ["x", "y*z*y + 3*z*z*x", "2*x*y*z*z + z*z*z*y"]  # degrees 1, 3 and 4
    cases.append((Presentation(f7, 3, tuple(parse_poly(t, f7, NAMES) for t in mixed)), 7))

    seen = []
    back_substitute = SparseEchelon.back_substitute

    def recorded(ech):
        reduced = back_substitute(ech)
        seen.append((ech, reduced))
        return reduced

    monkeypatch.setattr(SparseEchelon, "back_substitute", recorded)
    for p, D in cases:
        seen.clear()
        groebner._graded_dims(p, D)
        assert len(seen) == D - 1  # one table per degree below D
        field = p.field
        for ech, reduced in seen:
            assert reduced.keys() == ech.rows.keys()
            for piv, tail in reduced.items():
                assert {c: -field.element(v) for c, v in tail.items()} == ech.reduce({piv: field.one}), (p, piv)


def test_completion_canonical_under_permutation():
    rng = random.Random(3)
    base = pres(W_RELATIONS)
    g0 = complete(base, 6)
    rels = list(base.relations)
    for _ in range(4):
        rng.shuffle(rels)
        scaled = tuple(r.scale(Fraction(rng.randint(1, 5))) for r in rels)
        g1 = complete(Presentation(QQ, 3, scaled), 6)
        assert list(g1.elements) == list(g0.elements)


def test_confluence_random_reduction_orders():
    rng = random.Random(17)
    g = complete(sklyanin_pres(QQ, QQ.one, QQ.parse("2"), QQ.one), 6)
    order = g.order
    by_lead = {e.leading_word(order): e for e in g.elements}

    def random_reduce(f):
        while True:
            hits = []
            for w in f.terms:
                for i in range(len(w)):
                    for lead in by_lead:
                        if w[i : i + len(lead)] == lead:
                            hits.append((w, i, lead))
            if not hits:
                return f
            w, i, lead = rng.choice(hits)
            c = f.terms[w]
            gpoly = by_lead[lead]
            left = NcPoly.monomial(QQ, 3, w[:i], c)
            right = NcPoly.monomial(QQ, 3, w[i + len(lead) :])
            f = f - left * gpoly * right

    for _ in range(10):
        word = tuple(rng.randrange(3) for _ in range(5))
        f = NcPoly.monomial(QQ, 3, word)
        assert random_reduce(f) == g.reduce(f)


def test_sklyanin_lower_bound():
    rng = random.Random(23)
    f31 = GF(31)
    for _ in range(5):
        p, q, r = (f31.from_int(rng.randrange(31)) for _ in range(3))
        g = complete(sklyanin_pres(f31, p, q, r), 6)
        h = hilbert_coeffs(g, 6)
        for n in range(7):
            assert h[n] >= (n + 1) * (n + 2) // 2


def reference_normal_form_terms(terms, index, starts):
    """Reference reducer: at the first position of `starts(n)` that holds a
    lead, the longest lead there, with tuple words and the heap key rebuilt
    for every new word.  It does field-element arithmetic at every step."""
    by_lead = {index.decode(code): g for code, g in index.codes.items()}
    lengths, prec = index.lengths, index.order.precedence
    out, work = {}, dict(terms)
    heap = [(-len(w), tuple(prec[g] for g in w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, _, w = heapq.heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue
        n = len(w)
        hits = ((i, w[i : i + L]) for i in starts(n) for L in lengths if i + L <= n)
        hit = next(((i, u) for i, u in hits if u in by_lead), None)
        if hit is None:
            out[w] = c
            continue
        index.steps += 1
        i, lead = hit
        for t, ct in by_lead[lead].terms.items():
            if t == lead:
                continue
            u = w[:i] + t + w[i + len(lead) :]
            acc = work.get(u)
            nv = -(c * ct) if acc is None else acc - c * ct
            if nv:
                if acc is None:
                    heapq.heappush(heap, (-len(u), tuple(prec[g] for g in u), u))
                work[u] = nv
            else:
                work.pop(u, None)
    return out


def reference_entry(starts, calls):
    """The reference reducer in place of the kernel's packed entry
    `_normal_form`, which relations, S-polynomials and tail reductions all
    reach: it decodes the work to its nonzero elements, returns the normal
    form packed as the kernel does (codes in descending order, mapped to
    their values) and appends each call to `calls`.  It takes no memo, so
    it ignores the one `complete` shares."""

    def entry(work, n, index, field, memo=None):
        calls.append(n)
        settle, lift = field.settle, field.lift
        terms = index.unpack({-key: r for key, v in work.items() if (r := settle(v))}, field)
        out = reference_normal_form_terms(terms, index, starts)
        return {code: lift(c) for code, c in sorted(((index.encode(w), c) for w, c in out.items()), reverse=True)}

    return entry


def leftmost(calls):
    """The reference at the leftmost redex.  The kernel rewrites at the
    rightmost redex instead; below the certified degree both must give the
    same normal forms and bases."""
    return reference_entry(range, calls)


def rightmost(calls):
    """The reference at the kernel's redex, so it takes the kernel's steps."""
    return reference_entry(lambda n: range(n - 1, -1, -1), calls)


def obstructions(bases):
    return sum(s.obstructions for g in bases for s in g.stats)


def staircase_pairs(seed):
    """One GF(31) staircase presentation per recursion branch: generic
    through k = 6, and finite entered at k = 2 and at k = 5."""
    f31 = GF(31)
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(31) for b in range(31)]
    rng.shuffle(pairs)
    found = {}
    for a, b in pairs:
        a, b = f31.from_int(a), f31.from_int(b)
        if not in_m_set(f31, a, b) or not (a + b) or a**3 == b**3:
            continue
        res = substitution_chain(f31, a, b)
        states = coefficient_recursion(f31, res.alpha, res.gamma, 6)
        generic = len(states) == 7 and all(s.outcome is RecursionOutcome.CONTINUE for s in states)
        branch = "generic" if generic else states[-1].k
        if branch in ("generic", 2, 5):
            found.setdefault(branch, staircase_presentation(f31, res.alpha, res.gamma))
        if len(found) == 3:
            return [found["generic"], found[2], found[5]]
    raise AssertionError("GF(31) lacks a staircase pair for some branch")


def test_rightmost_redex_keeps_the_bases(monkeypatch):
    rng = random.Random(505)
    cases = [(parse_presentation(path.read_text()), 10) for path in sorted(CORPUS.glob("*.alg"))]
    cases += [(p, 8) for p in staircase_pairs(505)]
    for _ in range(2):
        p, q, r = (ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
        cases.append((sklyanin_pres(QQ_THETA, p, q, r), 7))
    texts = ["x - z", "y*y*x - x*y*y + x*y*x", "y*x*y*x + x*x*y*y - y*y*y*x"]
    rels = tuple(parse_poly(t, QQ, NAMES) for t in texts)
    mixed = Presentation(QQ, 3, rels, order=MonomialOrder((1, 2, 0)))
    cases.append((mixed, 9))
    kernel = [complete(p, D) for p, D in cases]
    calls = []
    monkeypatch.setattr(groebner, "_normal_form", leftmost(calls))
    reference = [complete(p, D) for p, D in cases]
    assert len(calls) >= obstructions(reference) > 0
    for (p, D), new, old in zip(cases, kernel, reference):
        assert list(new.elements) == list(old.elements), p
    assert len(kernel[-1].elements) > len(mixed.relations)


def random_sparse_presentation(rng, field):
    """A few sparse homogeneous relations of degree 2 and 3 in 2 or 3
    generators, under a random generator order."""
    n = rng.choice((2, 3))
    rels = []
    for deg in rng.choice([(2,), (2, 2), (2, 3), (3, 3), (2, 2, 3)]):
        words = {tuple(rng.randrange(n) for _ in range(deg)) for _ in range(rng.randint(2, 4))}
        f = NcPoly(field, n, {w: field.from_int(rng.randrange(1, 7)) for w in words})
        if f:
            rels.append(f)
    return Presentation(field, n, tuple(rels), order=MonomialOrder(tuple(rng.sample(range(n), n))))


def test_overlap_skip_keeps_the_bases(monkeypatch):
    # an overlap holding a lead strictly inside is the sum of two smaller
    # ambiguities (Bergman's diamond lemma), so skipping it cannot change
    # the basis; the reference reduces every overlap
    rng = random.Random(808)
    cases = [(parse_presentation(path.read_text()), 10) for path in sorted(CORPUS.glob("*.alg"))]
    cases += [(p, 8) for p in staircase_pairs(505)]
    for field, D in ((GF(31), 10), (QQ, 8), (QQ_THETA, 7)):
        for _ in range(2):
            p, q, r = (field.from_int(rng.randint(-4, 4)) for _ in range(3))
            cases.append((sklyanin_pres(field, p, q, r), D))
    cases.append((sklyanin_pres(QQ_THETA, *map(ThetaRational, (1, 2, 5))), 8))
    texts = ["x - z", "y*y*x - x*y*y + x*y*x", "y*x*y*x + x*x*y*y - y*y*y*x"]
    rels = tuple(parse_poly(t, QQ, NAMES) for t in texts)
    cases.append((Presentation(QQ, 3, rels, order=MonomialOrder((1, 2, 0))), 9))
    for k in range(40):
        cases.append((random_sparse_presentation(rng, (GF(7), GF(31), QQ, QQ_THETA)[k % 4]), 7))
    skipping = [complete(p, D) for p, D in cases]
    monkeypatch.setattr(groebner, "_has_interior_lead", lambda code, d, index: False)
    every = [complete(p, D) for p, D in cases]
    for (p, D), new, old in zip(cases, skipping, every):
        assert list(new.elements) == list(old.elements), p
        assert hilbert_coeffs(new, D) == hilbert_coeffs(old, D), p
        assert [s.obstructions + s.redundant for s in new.stats] == [s.obstructions for s in old.stats], p
        assert all(s.redundant == 0 for s in old.stats)
    assert sum(s.redundant for g in skipping for s in g.stats) > 0


def test_completion_stats(monkeypatch):
    p = staircase_pairs(505)[0]
    g = complete(p, 8)
    # every field, steps included: a word whose coefficient sums to zero is
    # never rewritten, so the counts do not depend on where the kernel tests
    # for zero
    assert [tuple(s) for s in g.stats] == [
        (1, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 3, 0),
        (3, 3, 1, 13, 2, 0),
        (4, 5, 3, 58, 2, 0),
        (5, 7, 5, 256, 2, 0),
        (6, 9, 7, 1206, 2, 0),
        (7, 11, 9, 3854, 2, 0),
        (8, 13, 11, 9692, 2, 0),
    ]
    for s in g.stats:
        relations = sum(r.degree() == s.degree for r in p.relations)
        assert s.obstructions + relations == s.zero_reductions + s.new_elements
    # the staircase leads xx, xy, yz, xz^kx, xz^ky never lie strictly
    # inside an overlap, so every overlap is reduced
    assert all(s.redundant == 0 for s in g.stats)
    qw = complete(sklyanin_pres(QQ_THETA, *map(ThetaRational, (1, 2, 5))), 8)
    assert sum(s.redundant for s in qw.stats) > 0
    assert [tuple(s) for s in qw.stats] == [
        (1, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 3, 0),
        (3, 3, 1, 12, 2, 0),
        (4, 5, 3, 37, 2, 0),
        (5, 8, 5, 127, 3, 0),
        (6, 13, 10, 380, 3, 3),
        (7, 15, 11, 596, 4, 6),
        (8, 21, 17, 1355, 4, 11),
    ]
    assert len(g.elements) == sum(s.new_elements for s in g.stats)
    steps = sum(s.steps for s in g.stats)
    calls = []
    monkeypatch.setattr(groebner, "_normal_form", leftmost(calls))
    old = complete(p, 8)
    assert len(calls) >= obstructions([old]) > 0
    # the redex choice moves only the step counts
    assert [s._replace(steps=0) for s in old.stats] == [s._replace(steps=0) for s in g.stats]
    assert steps < sum(s.steps for s in old.stats) / 2
    assert GroebnerBasis(p, g.elements, 8).stats == ()


def test_long_staircase_stats():
    # GF(31) pair (0, 2) enters the finite branch at k = 26: its leads grow
    # with the degree, and the tail-reduction pass replaces elements at most
    # degrees, so it is the memo's hardest case in the suite
    f31 = GF(31)
    res = substitution_chain(f31, f31.from_int(0), f31.from_int(2))
    last = coefficient_recursion(f31, res.alpha, res.gamma, 30)[-1]
    assert (last.k, last.outcome) == (26, RecursionOutcome.SIGMA)
    p = staircase_presentation(f31, res.alpha, res.gamma)
    g = complete(p, 10)
    pinned = [
        (1, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 3, 0),
        (3, 3, 1, 13, 2, 0),
        (4, 5, 3, 59, 2, 0),
        (5, 7, 5, 252, 2, 0),
        (6, 9, 7, 1238, 2, 0),
        (7, 11, 9, 3965, 2, 0),
        (8, 13, 11, 10463, 2, 0),
        (9, 15, 13, 26056, 2, 0),
        (10, 17, 15, 64287, 2, 0),
    ]
    assert [tuple(s) for s in g.stats] == pinned
    assert sum(s.steps for s in g.stats) == 106333
    assert len(g.elements) == 19 and hilbert_coeffs(g, 10)[-1] == 66
    # the oracle's packed sweep, with its tables and bases pruned, counts the
    # same series
    assert groebner._graded_dims(p, 10) == hilbert_coeffs(g, 10)
    # resumed from degree 6, the completion does the same work per degree
    resumed = complete(p, 6).extend(10)
    assert [tuple(s) for s in resumed.stats] == pinned and resumed.elements == g.elements


def assert_same_basis(new, fresh):
    assert new.degree_bound == fresh.degree_bound
    assert list(new.elements) == list(fresh.elements)
    assert new.stats == fresh.stats
    assert new.lead_words() == fresh.lead_words() == tuple(g.leading_word(new.order) for g in new.elements)


def test_extend_equals_a_fresh_completion():
    # a basis resumes from its elements, their leads and the order the
    # completion added them; the overlaps above its bound are recomputed
    cases = [(parse_presentation(path.read_text()), 4, 8) for path in sorted(CORPUS.glob("*.alg"))]
    rng = random.Random(2222)
    for field in (GF(31), QQ, QQ_THETA):
        for _ in range(2):
            p, q, r = (field.from_int(rng.randint(-4, 4)) for _ in range(3))
            cases.append((sklyanin_pres(field, p, q, r), 3, 7))
    f31 = GF(31)
    res = substitution_chain(f31, f31.from_int(2), f31.from_int(5))
    cases.append((staircase_presentation(f31, res.alpha, res.gamma), 6, 12))
    for p, low, high in cases:
        basis = complete(p, low)
        fresh = complete(p, high)
        assert_same_basis(basis.extend(high), fresh)
        # in steps, and with the lower basis left as it was
        assert_same_basis(basis.extend((low + high) // 2).extend(high), fresh)
        assert_same_basis(basis, complete(p, low))
        assert basis.extend(low) is basis and basis.extend(low - 1) is basis
    # a relation above the bound enters when the extension reaches it
    texts = ["x*x + 5*z*z", "3*y*z*z*x + 3*z*x*x*y"]
    f7 = GF(7)
    p = Presentation(f7, 3, tuple(parse_poly(t, f7, NAMES) for t in texts), order=MonomialOrder((2, 1, 0)))
    for low in (0, 2, 3, 4):
        assert_same_basis(complete(p, low).extend(6), complete(p, 6))


def test_extend_resumes_a_basis_built_directly():
    # the obstructions of a degree go in the order of their word and leads'
    # codes, so a basis resumes from its elements in any order
    cases = [(parse_presentation(path.read_text()), 4, 8) for path in sorted(CORPUS.glob("*.alg"))]
    f31 = GF(31)
    res = substitution_chain(f31, f31.from_int(2), f31.from_int(5))
    cases.append((staircase_presentation(f31, res.alpha, res.gamma), 6, 12))
    rng = random.Random(3333)
    for field in (GF(31), QQ, QQ_THETA):
        for _ in range(2):
            p, q, r = (field.from_int(rng.randint(-4, 4)) for _ in range(3))
            cases.append((sklyanin_pres(field, p, q, r), 3, 7))
    for p, low, high in cases:
        g = complete(p, low)
        shuffled = list(g.elements)
        rng.shuffle(shuffled)
        assert_same_basis(GroebnerBasis(p, shuffled, low, g.stats).extend(high), complete(p, high))


def test_extend_refuses_a_basis_that_is_not_reduced():
    # the index keeps one element per lead, and a completion resumes only
    # from monic elements whose other words hold no lead
    f7 = GF(7)
    p = pres(W_RELATIONS, f7)
    g = complete(p, 4)
    e0, *rest = g.elements
    e1 = next(e for e in rest if e.degree() == 2)
    lead = render_word(e0.leading_word(p.order), NAMES)
    with pytest.raises(ValueError, match=f"two elements have the lead {re.escape(lead)}"):
        GroebnerBasis(p, [e0, 2 * e0, *rest], 4, g.stats)
    for first, reason in ((2 * e0, "not monic"), (e0 + e1, "not reduced")):
        h = GroebnerBasis(p, [first, *rest], 4, g.stats)
        with pytest.raises(ValueError, match=f"lead {re.escape(lead)} is {reason}"):
            h.extend(6)
    assert_same_basis(GroebnerBasis(p, [e0, *rest], 4, g.stats).extend(6), complete(p, 6))


def test_lazy_residues_match_reference(monkeypatch):
    # the kernel carries GF(p) coefficients as ints reduced once per word;
    # the reference does field-object arithmetic at every step
    rng = random.Random(909)
    cases = [(p, 8) for p in staircase_pairs(505)]
    for field in (GF(7), GF(31), GF(1000003)):
        for _ in range(2):
            p, q, r = (field.from_int(rng.randint(-4, 4)) for _ in range(3))
            cases.append((sklyanin_pres(field, p, q, r), 8))
    # GF(1000000000039): a product of two residues passes 64 bits
    fields = (GF(7), GF(31), GF(1000003), GF(1000000000039))
    for k in range(40):
        cases.append((random_sparse_presentation(rng, fields[k % 4]), 7))
    # packed words: longer than 64 letters, in base B = 11, under a
    # non-default generator order, and inputs of mixed degrees with the
    # empty word; the D-letter words of an input are permutations of one
    # another, so their normal forms collide
    f31 = GF(31)
    x, y = NcPoly.gen(f31, 2, X), NcPoly.gen(f31, 2, Y)
    commutative = Presentation(f31, 2, (x * y - y * x,))
    # three relations in the first four generators, five in all ten
    rel_words = [tuple(rng.randrange(4) for _ in range(2)) for _ in range(9)]
    rel_words += [tuple(rng.sample(range(10), 2)) for _ in range(15)]
    rels = tuple(
        NcPoly(f31, 10, {w: f31.from_int(rng.randrange(1, 31)) for w in rel_words[k : k + 3]}) for k in range(0, 24, 3)
    )
    ten = Presentation(f31, 10, rels, order=MonomialOrder(tuple(rng.sample(range(10), 10))))
    cases += [(commutative, 72), (ten, 6)]
    lazy = [complete(p, D) for p, D in cases]
    inputs = []
    for g, (p, D) in zip(lazy[-2:], cases[-2:]):
        # D letters of the leads written one after another, which start with a redex
        letters = list(itertools.islice(itertools.cycle(itertools.chain(*g.lead_words())), D))
        words = [tuple(letters)] + [tuple(rng.sample(letters, d)) for d in (D, D, D - 1, 3, 1, 0)]
        inputs.append(NcPoly(f31, p.ngens, {w: f31.from_int(rng.randrange(1, 31)) for w in words}))

    def reduce_inputs():
        out = []
        for g, f in zip(lazy[-2:], inputs):
            index = LeadIndex(g.order, g.elements)
            out.append((index.reduce(f), index.steps))
        return out

    packed = reduce_inputs()
    assert all(steps > 0 for _, steps in packed)
    calls = []
    monkeypatch.setattr(groebner, "_normal_form", rightmost(calls))
    assert reduce_inputs() == packed
    monkeypatch.setattr(groebner, "_normal_form", leftmost(calls))
    assert [h for h, _ in reduce_inputs()] == [h for h, _ in packed]
    del calls[:]
    reference = [complete(p, D) for p, D in cases]
    assert len(calls) >= obstructions(reference) > 0
    for (p, D), new, old in zip(cases, lazy, reference):
        assert list(new.elements) == list(old.elements), p
        modulus, element_type = p.field.characteristic(), type(p.field.one)
        for e in new.elements:
            assert all(type(c) is element_type and 0 < c.v < modulus for c in e.terms.values()), e


def test_normal_forms_share_words_and_elements():
    # the index decodes each word once, and `PrimeField.element` gives one
    # object per residue of a field object, so the index's normal forms
    # share words and elements, and so do the elements of a basis from
    # `complete`
    p = staircase_pairs(505)[1]
    g = complete(p, 10)
    f31 = p.field
    rng = random.Random(1010)
    words = [tuple(rng.randrange(3) for _ in range(8)) for _ in range(6)]
    f = NcPoly(f31, 3, {w: f31.from_int(rng.randrange(1, 31)) for w in words})
    index = LeadIndex(p.order, g.elements)
    first = index.reduce(f)
    second = index.reduce(f + NcPoly.monomial(f31, 3, tuple(rng.randrange(3) for _ in range(8))))
    words = {w: w for w in first.terms}
    common = [w for w in second.terms if w in words]
    assert len(common) >= 2 and all(words[w] is w for w in common)
    elements = {int(c): c for c in first.terms.values()}
    common = [c for c in second.terms.values() if int(c) in elements]
    assert len(common) >= 2 and all(elements[int(c)] is c for c in common)
    tails = [(w, c) for e, lead in zip(g.elements, g.lead_words()) for w, c in e.terms.items() if w != lead]
    words, elements = {}, {}
    for w, c in tails:
        assert words.setdefault(w, w) is w and elements.setdefault(int(c), c) is c
    assert len(words) < len(tails) and len(elements) <= 30


def reduce_all(index, polys):
    """The normal forms of `polys`, each with a memo of its own."""
    return [index.reduce(f) for f in polys]


def reduce_sharing(index, polys, memo):
    """The normal forms of `polys` from the packed kernel, with one memo
    shared across them."""
    out = []
    for f in polys:
        work = {-index.encode(w): f.field.lift(c) for w, c in f.terms.items()}
        packed = groebner._normal_form(work, f.degree(), index, f.field, memo)
        out.append(NcPoly(f.field, f.ngens, index.unpack(packed, f.field)))
    return out


def test_kernel_returns_packed_normal_forms():
    # the kernel returns int codes in descending order with settled values,
    # and `LeadIndex.reduce` is the boundary that unpacks them
    p = staircase_pairs(505)[0]
    g = complete(p, 8)
    f31 = p.field
    rng = random.Random(2828)
    index = LeadIndex(p.order, g.elements)
    for n in (3, 5, 8):
        words = {tuple(rng.randrange(3) for _ in range(n)) for _ in range(6)}
        f = NcPoly(f31, 3, {w: f31.from_int(rng.randrange(1, 31)) for w in words})
        work = {-index.encode(w): int(c) for w, c in f.terms.items()}
        out = groebner._normal_form(work, n, index, f31)
        codes = list(out)
        assert out and all(type(c) is int for c in codes) and codes == sorted(codes, reverse=True)
        assert all(type(v) is int and 0 < v < 31 for v in out.values())
        assert index.unpack(out, f31) == index.reduce(f).terms


def test_memo_drops_rewrites_of_a_replaced_element():
    # the tail-reduction pass of `complete` replaces an element by one with
    # the same lead and a new tail, so it reduces each tail with a memo of
    # its own: a memo shared across the replacement would replay the
    # rewrites taken with the old element, at the lead's length or above it
    p = staircase_pairs(505)[1]
    g = complete(p, 6)
    f31, order = p.field, p.order
    e = next(e for e in g.elements if len(e.leading_word(order)) == 3)
    lead = e.leading_word(order)
    quadratic = next(q for q in g.elements if q.degree() == 2)
    m = quadratic.leading_word(order)
    # one more term in the tail: e plus a multiple of a smaller word's element
    sides = [((a,), ()) for a in range(3)] + [((), (a,)) for a in range(3)]
    left, right = next((u, v) for u, v in sides if order.key(u + m + v) < order.key(lead))
    shifted = NcPoly.monomial(f31, 3, left, f31.from_int(3)) * quadratic * NcPoly.monomial(f31, 3, right)
    unreduced = e + shifted
    assert unreduced.leading_word(order) == lead and unreduced != e
    rng = random.Random(1111)
    polys = []
    for n in (3, 4, 6):
        # the lead at every position of a word of n letters, and random words
        around = tuple(rng.randrange(3) for _ in range(n - 3))
        words = {around[:k] + lead + around[k:] for k in range(n - 2)}
        words |= {tuple(rng.randrange(3) for _ in range(n)) for _ in range(4)}
        polys.append(NcPoly(f31, 3, {w: f31.from_int(rng.randrange(1, 31)) for w in words}))
    index = LeadIndex(order, [unreduced if x is e else x for x in g.elements])
    shared = {}
    before = reduce_sharing(index, polys, shared)
    fresh = LeadIndex(order, g.elements)
    assert before == reduce_all(fresh, polys) and index.steps != fresh.steps
    assert index.add(e) == lead
    index.steps = 0
    assert reduce_all(index, polys) == before and index.steps == fresh.steps
    # the shared memo still rewrites with the old tail
    index.steps = 0
    assert reduce_sharing(index, polys, shared) == before and index.steps != fresh.steps


def test_memo_forgets_a_new_lead_was_normal():
    # a lead added in the middle of a degree was a normal word, and the word
    # equal to it must reduce from then on
    p = parse_presentation((CORPUS / "w.alg").read_text())
    g = complete(p, 4)
    field, order = p.field, p.order
    cubic = g.elements[3]
    lead = cubic.leading_word(order)
    assert lead == (X, Z, X) and len(cubic.terms) > 1
    index = LeadIndex(order, [e for e in g.elements if e.degree() == 2])
    memo = {}
    word = NcPoly.monomial(field, 3, lead)
    assert reduce_sharing(index, [word], memo) == [word]
    index.add(cubic)
    # kept, the normal mark replays; `complete` drops it as the lead joins
    assert reduce_sharing(index, [word], dict(memo)) == [word]
    memo.pop(-index.encode(lead))
    assert reduce_sharing(index, [word], memo) == [LeadIndex(order, g.elements).reduce(word)] != [word]


def test_memo_rewrites_a_monomial_element_to_zero():
    # w.alg's y*y*y is a monomial element: its rewrite is empty, which is
    # not the mark of a normal word, from the memo or not
    p = parse_presentation((CORPUS / "w.alg").read_text())
    g = complete(p, 4)
    field, order = p.field, p.order
    yyy = NcPoly.monomial(field, 3, (Y, Y, Y))
    assert yyy in g.elements
    index = LeadIndex(order, g.elements)
    memo = {}
    for _ in range(2):
        steps = index.steps
        assert reduce_sharing(index, [yyy], memo) == [NcPoly.zero(field, 3)]
        assert index.steps == steps + 1
    assert memo


def test_bases_hold_no_memo():
    # the memo lives for one degree of one `complete` call, which holds it;
    # an index has none
    p = parse_presentation((CORPUS / "w.alg").read_text())
    g = complete(p, 6)
    assert "memo" not in LeadIndex.__slots__ and not hasattr(g.index, "memo")
    f = NcPoly(p.field, 3, {w: p.field.one for w in itertools.product(range(3), repeat=5)})
    assert g.reduce(f) != f and g.index.steps > 0


def test_contributions_summing_to_p_cancel():
    # over GF(7), x*x and y*y rewrite to 3*y*z and 4*y*z: the residues sum
    # to 7 in y*z, which then has a zero coefficient and is not rewritten
    f7 = GF(7)
    rels = tuple(parse_poly(t, f7, NAMES) for t in ("x*x + 4*y*z", "y*y + 3*y*z", "y*z - z*z"))
    g = GroebnerBasis(Presentation(f7, 3, rels), rels, 2)
    assert g.lead_words() == ((X, X), (Y, Y), (Y, Z))
    assert g.reduce(parse_poly("x*x + y*y", f7, NAMES)) == NcPoly.zero(f7, 3)
    assert g.index.steps == 2
    rem = g.reduce(parse_poly("x*x + y*y + y*z", f7, NAMES))
    assert rem == NcPoly.monomial(f7, 3, (Z, Z)) and type(rem.terms[(Z, Z)]) is type(f7.one)
    assert g.index.steps == 5


def test_reduce_rejects_other_field():
    f7, f31 = GF(7), GF(31)
    bases = {field: complete(pres(W_RELATIONS, field), 4) for field in (f7, QQ)}
    for basis_field, field in ((f7, f31), (f7, QQ), (QQ, QQ_THETA)):
        g = bases[basis_field]
        lead = g.lead_words()[0]
        normal = normal_words(g, 2)[-1]
        for word in (lead, normal):
            f = NcPoly.monomial(field, 3, word)
            with pytest.raises(MixedFieldsError):
                g.reduce(f)
        assert g.reduce(NcPoly.monomial(basis_field, 3, normal)) == NcPoly.monomial(basis_field, 3, normal)
        assert g.reduce(NcPoly.monomial(basis_field, 3, lead)) != NcPoly.monomial(basis_field, 3, lead)


def test_reduce_rejects_other_generator_count():
    g = complete(pres(W_RELATIONS), 4)
    assert (X, X) in g.lead_words() and (Y, Y) in normal_words(g, 2)
    # x*x has a redex in the three-generator basis, y*y has none
    for ngens in (2, 4):
        for word in ((X, X), (Y, Y)):
            f = NcPoly.monomial(QQ, ngens, word)
            with pytest.raises(DimensionMismatchError):
                g.reduce(f)


def test_presentation_rejects_other_generator_count():
    with pytest.raises(DimensionMismatchError):
        Presentation(QQ, 3, (parse_poly("x*y + y*x", QQ, ("x", "y")),))
    with pytest.raises(DimensionMismatchError):
        Presentation(QQ, 2, (parse_poly("z*z + x*y", QQ, NAMES),))


def is_reduced(g):
    """Monic elements, and no term divisible by a lead other than its own lead."""
    leads = g.lead_words()
    for e, lead in zip(g.elements, leads):
        if e.terms[lead] != e.field.one:
            return False
        for w in e.terms:
            for u in leads:
                if (w, u) != (lead, lead) and any(w[i : i + len(u)] == u for i in range(len(w) - len(u) + 1)):
                    return False
    return True


def test_mixed_degree_relations_complete_reduced():
    # z*x*x*y, the lead of the quartic relation, contains z*x*x, the lead of
    # an element that only appears in degree 3; the relation has to be
    # reduced there too, leaving the lead y*x*x*x
    f7 = GF(7)
    texts = ["x*x + 5*z*z", "3*y*z*z*x + 3*z*x*x*y"]
    p = Presentation(f7, 3, tuple(parse_poly(t, f7, NAMES) for t in texts), order=MonomialOrder((2, 1, 0)))
    leads = [(Z, Z), (Z, X, X), (Y, X, X, X)]
    # below the quartic's degree the quartic does not enter
    for D in (2, 3):
        g = complete(p, D)
        assert list(g.lead_words()) == leads[: D - 1]
        assert hilbert_coeffs(g, D) == groebner._graded_dims(p, D)
    g = complete(p, 6)
    assert list(g.lead_words()) == leads
    assert hilbert_coeffs(g, 6) == groebner._graded_dims(p, 6) == [1, 3, 8, 21, 54, 138, 352]
    rng = random.Random(606)
    for _ in range(40):
        rels = []
        for deg in rng.choice([(2, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4), (2, 4)]):
            words = [tuple(rng.randrange(3) for _ in range(deg)) for _ in range(rng.randint(2, 4))]
            rels.append(NcPoly(f7, 3, {w: f7.from_int(rng.randrange(1, 7)) for w in words}))
        p = Presentation(f7, 3, tuple(rels), order=MonomialOrder(tuple(rng.sample(range(3), 3))))
        g = complete(p, 6)
        assert is_reduced(g), rels
        assert hilbert_coeffs(g, 6) == groebner._graded_dims(p, 6), rels
