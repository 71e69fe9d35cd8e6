"""Dual algebras, truncated Koszulity certificates, annihilator detection."""

import random
from fractions import Fraction

from ncquad import GF, QQ
from ncquad.groebner import Presentation, graded_dim_oracle
from ncquad.linalg import row_space_equal
from ncquad.ncpoly import NcPoly, parse_poly
from ncquad.quadratic import (
    QuadraticAlgebra,
    dual_hypotheses,
    dual_algebra,
    koszul_defect,
    right_annihilator_dim,
)

NAMES = ("x", "y", "z")
X, Y, Z = 0, 1, 2


def sklyanin(field, p, q, r):
    pairs = [
        [((Y, Z), p), ((Z, Y), q), ((X, X), r)],
        [((Z, X), p), ((X, Z), q), ((Y, Y), r)],
        [((X, Y), p), ((Y, X), q), ((Z, Z), r)],
    ]
    rels = [NcPoly.from_pairs(field, 3, pr) for pr in pairs]
    return QuadraticAlgebra(Presentation(field, 3, tuple(f for f in rels if f)))


def algebra_w():
    rels = tuple(
        parse_poly(t, QQ, NAMES)
        for t in ("x*x - z*x + z*y", "x*y - y*y", "y*z - z*x + z*y")
    )
    return QuadraticAlgebra(Presentation(QQ, 3, rels))


FREE = QuadraticAlgebra(Presentation(QQ, 3, ()))
S121 = sklyanin(QQ, QQ.one, Fraction(2), QQ.one)
MONO = sklyanin(QQ, QQ.zero, QQ.zero, QQ.one)


def test_dual_of_free_algebra():
    dual = dual_algebra(FREE)
    assert dual.rdim == 9
    assert dual.hilbert(4) == [1, 3, 0, 0, 0]


def test_dual_of_generic_sklyanin():
    dual = dual_algebra(S121)
    assert dual.rdim == 6
    assert dual.hilbert(4) == [1, 3, 3, 1, 0]


def test_dual_of_monomial_case():
    dual = dual_algebra(MONO)
    assert dual.hilbert(4) == [1, 3, 3, 3, 3]


def test_double_dual_is_identity():
    rng = random.Random(31)
    for _ in range(10):
        rels = []
        for _ in range(rng.randint(1, 4)):
            pairs = [
                (
                    (rng.randrange(3), rng.randrange(3)),
                    Fraction(rng.randint(-3, 3)),
                )
                for _ in range(3)
            ]
            f = NcPoly.from_pairs(QQ, 3, pairs)
            if f:
                rels.append(f)
        if not rels:
            continue
        a = QuadraticAlgebra(Presentation(QQ, 3, tuple(rels)))
        dd = dual_algebra(dual_algebra(a))
        words = a._words
        ra = [[r.coeff(w) for w in words] for r in a.presentation.relations]
        rb = [[r.coeff(w) for w in words] for r in dd.presentation.relations]
        assert row_space_equal(ra, rb, QQ)
        assert a.rdim + dual_algebra(a).rdim == 9


def test_koszul_defect_generic_none():
    assert koszul_defect(S121, 8) is None


def test_koszul_defect_free_none():
    assert koszul_defect(FREE, 8) is None


def test_koszul_defect_w_is_four():
    assert koszul_defect(algebra_w(), 6) == 4


def test_defect_never_below_four():
    rng = random.Random(77)
    f31 = GF(31)
    for _ in range(15):
        p, q, r = (f31.from_int(rng.randrange(31)) for _ in range(3))
        alg = sklyanin(f31, p, q, r)
        k = koszul_defect(alg, 5)
        assert k is None or k >= 4


def test_dual_hypotheses_generic():
    report = dual_hypotheses(S121)
    assert report.dual4_zero
    assert report.dual3_dim == 1
    assert report.no_dual_degree1_left_annihilator
    assert report.no_dual_degree1_right_annihilator


def test_dual_hypotheses_free():
    report = dual_hypotheses(FREE)
    assert report.dual4_zero
    assert report.dual3_dim == 0
    assert not report.no_dual_degree1_left_annihilator
    assert not report.no_dual_degree1_right_annihilator


def test_dual_hypotheses_w():
    report = dual_hypotheses(algebra_w())
    assert report.dual4_zero
    assert report.dual3_dim == 1


def test_right_annihilators():
    quantum = sklyanin(QQ, QQ.one, QQ.one, QQ.zero)
    assert right_annihilator_dim(quantum, 3) == 0
    for d in range(1, 6):
        assert right_annihilator_dim(S121, d) == 0
    assert right_annihilator_dim(FREE, 3) == 0


def test_w_dual_has_annihilator_structure():
    # the dual of W is finite dimensional: its top element annihilates
    dual = dual_algebra(algebra_w())
    assert dual.hilbert(4) == [1, 3, 3, 1, 0]
    assert right_annihilator_dim(dual, 3) == 1
    # A^!_4 = 0: no vectors, so no kernel
    assert right_annihilator_dim(dual, 4) == 0


def test_one_completion_kept():
    # the basis with the highest bound asked for serves every lower bound
    alg = algebra_w()
    g5 = alg.groebner(5)
    assert alg.groebner(3) is g5 and alg.groebner(5) is g5
    g6 = alg.groebner(6)
    assert g6.degree_bound == 6 and alg.groebner(4) is g6


def test_dim3_from_dual_dims():
    # dim A_3 = d1*dim A_2 - d2*dim A_1 + d3 via the degree-3 series identity
    for alg, expected in ((FREE, 27), (MONO, 12), (S121, 10)):
        h = alg.hilbert(3)
        hd = dual_algebra(alg).hilbert(3)
        a3 = h[2] * hd[1] - h[1] * hd[2] + hd[3]
        assert a3 == expected == graded_dim_oracle(alg.presentation, 3)
        assert h[3] == expected


def test_relation_independence_reduction():
    # dependent relation lists are reduced on construction
    r1 = parse_poly("x*y - y*x", QQ, NAMES)
    r2 = parse_poly("2*x*y - 2*y*x", QQ, NAMES)
    a = QuadraticAlgebra(Presentation(QQ, 3, (r1, r2)))
    assert a.rdim == 1
