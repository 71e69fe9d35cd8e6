"""Completion, normal forms, normal words, Hilbert coefficients, oracle."""

import heapq
import itertools
import random
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
from ncquad.ncpoly import MonomialOrder, NcPoly, degree_lex, parse_poly
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
    import itertools

    from ncquad.linalg import SparseEchelon

    p = pres(W_RELATIONS)
    order = degree_lex(3)
    rows = []
    for r in p.relations:
        for udeg in range(3):
            vdeg = 2 - udeg
            for u in itertools.product(range(3), repeat=udeg):
                for v in itertools.product(range(3), repeat=vdeg):
                    rows.append({u + w + v: c for w, c in r.terms.items()})

    def in_ideal_degree4(vec):
        ech = SparseEchelon(QQ, order.key)
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

    for name in ("_normal_form_terms", "complete", "normal_words_by_degree", "normal_words"):
        monkeypatch.setattr(groebner, name, refuse)
    monkeypatch.setattr(LeadIndex, "reduce", refuse)
    assert [graded_dim_oracle(pres(W_RELATIONS), d) for d in range(7)] == expected == [1, 3, 6, 10, 17, 30, 52]
    assert groebner._graded_dims(pres(W_RELATIONS), 6) == expected


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


def leftmost_normal_form_terms(terms, index):
    """Reference reducer: the leftmost position first, and at a position the
    longest lead, with the heap key rebuilt for every new word.  The kernel
    in `groebner` rewrites at the rightmost redex instead; below the
    certified degree both must give the same normal forms and bases."""
    by_lead, lengths, prec = index.by_lead, index.lengths, index.order.precedence
    out, work = {}, dict(terms)
    heap = [(-len(w), tuple(prec[g] for g in w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, _, w = heapq.heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue
        n = len(w)
        hits = ((i, w[i : i + L]) for i in range(n) for L in lengths if i + L <= n)
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
    rightmost = [complete(p, D) for p, D in cases]
    monkeypatch.setattr(groebner, "_normal_form_terms", leftmost_normal_form_terms)
    leftmost = [complete(p, D) for p, D in cases]
    for (p, D), new, old in zip(cases, rightmost, leftmost):
        assert list(new.elements) == list(old.elements), p
    assert len(rightmost[-1].elements) > len(mixed.relations)


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
    monkeypatch.setattr(groebner, "_has_interior_lead", lambda word, index: False)
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
    monkeypatch.setattr(groebner, "_normal_form_terms", leftmost_normal_form_terms)
    old = complete(p, 8)
    # the redex choice moves only the step counts
    assert [s._replace(steps=0) for s in old.stats] == [s._replace(steps=0) for s in g.stats]
    assert steps < sum(s.steps for s in old.stats) / 2
    assert GroebnerBasis(p, g.elements, 8).stats == ()


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
    lazy = [complete(p, D) for p, D in cases]
    monkeypatch.setattr(groebner, "_normal_form_terms", leftmost_normal_form_terms)
    reference = [complete(p, D) for p, D in cases]
    for (p, D), new, old in zip(cases, lazy, reference):
        assert list(new.elements) == list(old.elements), p
        modulus, element_type = p.field.characteristic(), type(p.field.one)
        for e in new.elements:
            assert all(type(c) is element_type and 0 < c.v < modulus for c in e.terms.values()), e


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
