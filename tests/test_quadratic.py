"""Dual algebras, truncated Koszulity certificates, annihilator detection."""

import random
from fractions import Fraction

import pytest

from ncquad import GF, QQ, QQ_THETA
from ncquad.errors import IncompleteBasisError
from ncquad.groebner import GroebnerBasis, Presentation, complete, graded_dim_oracle, normal_words
from ncquad.linalg import row_space_equal
from ncquad.ncpoly import NcPoly, parse_poly
from ncquad.quadratic import (
    QuadraticAlgebra,
    _stacked_kernel_dim,
    degree2_rows,
    dual_hypotheses,
    dual_algebra,
    koszul_defect,
    right_annihilator_dim,
)
from test_acceptance import CORPUS, dense_kernel_dim, pres_text, random_sparse_quadratic, random_triple
from test_groebner import staircase_pairs

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
        _, ra = degree2_rows(a.presentation.relations, a.presentation.order)
        _, rb = degree2_rows(dd.presentation.relations, a.presentation.order)
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


def test_one_completion_kept(monkeypatch):
    # the basis with the highest bound asked for serves every lower bound,
    # and a higher bound extends it instead of completing again
    import ncquad.quadratic as quadratic

    degrees = []
    monkeypatch.setattr(quadratic, "complete", lambda pres, d: degrees.append(d) or complete(pres, d))
    alg = algebra_w()
    g5 = alg.groebner(5)
    assert alg.groebner(3) is g5 and alg.groebner(5) is g5
    g6 = alg.groebner(6)
    assert g6.degree_bound == 6 and alg.groebner(4) is g6
    assert degrees == [5]
    fresh = complete(alg.presentation, 6)
    assert g6.elements == fresh.elements and g6.stats == fresh.stats


def test_one_automaton_per_basis(monkeypatch):
    # the lead-word automaton depends only on the leads, so each basis
    # builds it once.  In the CLI's order the bases are the algebra's and
    # the dual's to degree 6; with the hypotheses first, the dual's
    # degree-4 basis comes before its extension to 6
    import ncquad.groebner as groebner

    built = []
    build = groebner._lead_automaton
    monkeypatch.setattr(groebner, "_lead_automaton", lambda leads, gens: built.append(leads) or build(leads, gens))
    for path in sorted(CORPUS.glob("*.alg")):
        del built[:]
        alg = QuadraticAlgebra(pres_text(path.name))
        expected = (koszul_defect(alg, 6), dual_hypotheses(alg), [right_annihilator_dim(alg, d) for d in range(1, 6)])
        assert len(built) == 2 and len({id(leads) for leads in built}) == 2, path.name
        del built[:]
        alg = QuadraticAlgebra(pres_text(path.name))
        got = (dual_hypotheses(alg), koszul_defect(alg, 6), [right_annihilator_dim(alg, d) for d in range(1, 6)])
        assert len(built) == 3 and len({id(leads) for leads in built}) == 3, path.name
        assert (got[1], got[0], got[2]) == expected


def test_one_dual_kept(monkeypatch):
    # the Koszul checks build the dual once, through the module attribute
    # that the traced benchmark wraps, and share it with its basis
    import ncquad.quadratic as quadratic

    built = []
    monkeypatch.setattr(quadratic, "dual_algebra", lambda alg: built.append(dual_algebra(alg)) or built[-1])
    alg = algebra_w()
    report = dual_hypotheses(alg)
    assert koszul_defect(alg, 6) == 4 and koszul_defect(alg, 4) == 4
    assert report == dual_hypotheses(alg)
    assert len(built) == 1 and alg.dual() is built[0]
    assert built[0].groebner(4).degree_bound == 6


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


def annihilator_algebras():
    """The set of `test_acceptance.test_annihilators_match_dense_rank`: the
    corpus, two seeded triples each over GF(31), Q and Q(w), and six sparse
    GF(31) algebras."""
    rng = random.Random(511)
    algebras = [(name, QuadraticAlgebra(pres_text(name))) for name in sorted(p.name for p in CORPUS.glob("*.alg"))]
    for field in (GF(31), QQ, QQ_THETA):
        for _ in range(2):
            t = random_triple(field, rng)
            algebras.append((t, QuadraticAlgebra(t.presentation())))
    algebras += [(f"sparse {i}", random_sparse_quadratic(rng)) for i in range(6)]
    return algebras


def every_vector_has_a_normal_product(products, normal):
    return all(any(w in normal for w in row) for row in products)


def count_reductions(monkeypatch):
    calls = []
    reduce = GroebnerBasis.reduce

    def counted(self, f):
        calls.append(f)
        return reduce(self, f)

    monkeypatch.setattr(GroebnerBasis, "reduce", counted)
    return calls


def test_lead_word_certificate_is_sound():
    # wherever every vector word has a normal product (normality read off
    # the listed normal words), the dense rank of the reduced products
    # leaves no kernel
    certified = fallbacks = 0
    for label, alg in annihilator_algebras():
        field = alg.field
        gens = [NcPoly.gen(field, 3, j) for j in range(3)]
        g = complete(alg.presentation, 6)
        for d in range(6):
            words = normal_words(g, d)
            products = [[(i,) + u for i in range(3)] for u in words]
            normal = set(normal_words(g, d + 1))
            # the helper's normality test agrees with the listed words
            assert all(g.index.is_normal(w) == (w in normal) for row in products for w in row), (label, d)
            if words and every_vector_has_a_normal_product(products, normal):
                certified += 1
                vectors = [NcPoly.monomial(field, 3, w) for w in words]
                assert dense_kernel_dim(g, [[x * v for x in gens] for v in vectors]) == 0, (label, d)
            else:
                fallbacks += 1

        gd = complete(dual_algebra(alg).presentation, 4)
        dual2 = normal_words(gd, 2)
        dual3 = set(normal_words(gd, 3))
        monomials = [NcPoly.monomial(field, 3, w) for w in dual2]
        for products, dense in (
            ([[(j,) + m for m in dual2] for j in range(3)], [[x * m for m in monomials] for x in gens]),
            ([[m + (j,) for m in dual2] for j in range(3)], [[m * x for m in monomials] for x in gens]),
        ):
            if every_vector_has_a_normal_product(products, dual3):
                certified += 1
                assert dense_kernel_dim(gd, dense) == 0, label
            else:
                fallbacks += 1
    assert (certified, fallbacks) == (119, 41)


def test_lead_word_certificate_is_taken(monkeypatch):
    # z starts no lead word in each of these, so x_i * u is normal for
    # x_i = z and no product is reduced
    rng = random.Random(1901)
    algebras = [
        QuadraticAlgebra(pres_text("free.alg")),
        QuadraticAlgebra(pres_text("sklyanin_1_w_2.alg")),
        QuadraticAlgebra(random_triple(QQ_THETA, rng).presentation()),
        QuadraticAlgebra(staircase_pairs(1313)[1]),  # the k = 2 staircase
    ]
    calls = count_reductions(monkeypatch)
    for alg in algebras:
        assert all(lead[0] != Z for lead in alg.groebner(6).lead_words())
        assert [right_annihilator_dim(alg, d) for d in range(6)] == [0] * 6
    assert calls == []


def test_lead_word_certificate_falls_back(monkeypatch):
    calls = count_reductions(monkeypatch)
    w_dual = QuadraticAlgebra(pres_text("w_dual.alg"))
    for d, expected in ((1, 0), (2, 0), (3, 1)):
        calls.clear()
        assert right_annihilator_dim(w_dual, d) == expected
        assert calls, d

    # the dual of the free algebra has no degree-2 words: no multiplier, so
    # each generator is in the kernel on both sides
    g = dual_algebra(FREE).groebner(4)
    gens = [(j,) for j in range(3)]
    assert normal_words(g, 2) == []
    assert _stacked_kernel_dim(g, gens, [], left=False) == 3
    assert _stacked_kernel_dim(g, [], [], left=True) == 0


def test_stacked_kernel_preconditions():
    g = complete(S121.presentation, 3)
    with pytest.raises(IncompleteBasisError):  # zzzz is normal for the leads to degree 3
        _stacked_kernel_dim(g, [(Z, Z, Z)], [(Z,)], left=False)
