"""Completion, normal forms, normal words, Hilbert coefficients, oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from ncquad import GF, QQ, QQ_THETA, IncompleteBasisError
from ncquad import groebner
from ncquad.groebner import (
    GroebnerBasis,
    LeadIndex,
    Presentation,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
    normal_form,
    normal_words,
    normal_words_by_degree,
)
from ncquad.ncpoly import MonomialOrder, NcPoly, degree_lex, parse_poly

NAMES = ("x", "y", "z")
X, Y, Z = 0, 1, 2


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
    assert normal_form(xx, g) == parse_poly("z*x - z*y - z*z", QQ, NAMES)


def test_normal_form_untouched_and_self():
    p = pres(W_RELATIONS)
    g = complete(p, 5)
    zzz = NcPoly.monomial(QQ, 3, (Z, Z, Z))
    assert normal_form(zzz, g) == zzz
    for e in g.elements:
        assert not normal_form(e, g)
    for r in p.relations:
        assert not normal_form(r, g)


def test_normal_form_custom_order():
    order = MonomialOrder((1, 0))  # y > x
    f = parse_poly("x*x*y - y*y*y", QQ, ("x", "y"))
    g = complete(Presentation(QQ, 2, (f,), order), 4)
    yyy = NcPoly.monomial(QQ, 2, (1, 1, 1))
    assert normal_form(yyy, g) == parse_poly("x*x*y", QQ, ("x", "y"))


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
        assert random_reduce(f) == normal_form(f, g)


def test_sklyanin_lower_bound():
    rng = random.Random(23)
    f31 = GF(31)
    for _ in range(5):
        p, q, r = (f31.from_int(rng.randrange(31)) for _ in range(3))
        g = complete(sklyanin_pres(f31, p, q, r), 6)
        h = hilbert_coeffs(g, 6)
        for n in range(7):
            assert h[n] >= (n + 1) * (n + 2) // 2
