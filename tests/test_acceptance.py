"""Acceptance suite: one test per criterion, exact expectations throughout.

Degree bound 8, fields Q, Q(w) and GF(31).  Each test prints a PASS line on
success (visible with `pytest -s`).  Where a source-text value failed
independent verification, the test asserts the oracle-verified value and
additionally asserts the discrepancy itself, so nothing is silently
corrected; the decisions ledger documents each case.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from ncquad import GF, QQ, QQ_THETA, ThetaRational
from ncquad.cli import parse_presentation
from ncquad.groebner import (
    Presentation,
    _graded_dims,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
    normal_words,
    normal_words_by_degree,
)
from ncquad.linalg import SparseEchelon, row_space_equal, rref
from ncquad.ncpoly import MonomialOrder, NcPoly, apply_sub, degree_lex, parse_poly
from ncquad.quadratic import (
    QuadraticAlgebra,
    dual_hypotheses,
    dual_algebra,
    koszul_defect,
    right_annihilator_dim,
)
from ncquad.sklyanin import (
    ParamTriple,
    RecursionOutcome,
    SklyaninKind,
    are_isomorphic,
    classify,
    expected_normal_words,
    group_invariants,
    in_m_set,
    iso_group_orbit,
    coefficient_recursion,
    sklyanin_presentation,
    staircase_presentation,
    staircase_relations,
    substitution_chain,
)
from test_linalg import dense_rank

NAMES = ("x", "y", "z")
ORD3 = degree_lex(3)
WORDS2 = sorted(((i, j) for i in range(3) for j in range(3)), key=ORD3.key, reverse=True)
X, Y, Z = 0, 1, 2
CORPUS = Path(__file__).resolve().parent.parent / "presentations"

BINOMIALS = [(d + 1) * (d + 2) // 2 for d in range(9)]
POWERS_OF_3 = [3**d for d in range(9)]
MONOMIAL_SERIES = [1] + [3 * 2 ** (d - 1) for d in range(1, 9)]  # (1+t)/(1-2t)

F31 = GF(31)


def pres_text(name):
    return parse_presentation((CORPUS / name).read_text())


def random_triple(field, rng):
    """Uniform over GF(p); integer parts in [-4, 4] over Q and Q(w)."""
    if field is QQ_THETA:
        vals = [ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
    elif field is QQ:
        vals = [QQ.from_int(rng.randint(-4, 4)) for _ in range(3)]
    else:
        vals = [field.from_int(rng.randrange(field.characteristic())) for _ in range(3)]
    return ParamTriple(field, *vals)


def expand_series(num, den, degree):
    """Power-series coefficients of num/den with den[0] == 1: the independent
    series oracle used to pin expected Hilbert values."""
    out = []
    for n in range(degree + 1):
        c = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c)
    return out


def degree_ideal_rows(presentation, degree):
    """Every u*r*v of the given degree in monomial coordinates: the
    exponential reference the degree-by-degree oracle is checked against."""
    rows = []
    gens = range(presentation.ngens)
    for r in presentation.relations:
        e = r.degree()
        for udeg in range(degree - e + 1):
            vdeg = degree - e - udeg
            for u in itertools.product(gens, repeat=udeg):
                for v in itertools.product(gens, repeat=vdeg):
                    rows.append({u + w + v: c for w, c in r.terms.items()})
    return rows


def in_degree_ideal(presentation, poly):
    rows = degree_ideal_rows(presentation, poly.degree())
    # words of one length are labels ordered among themselves
    ech = SparseEchelon(presentation.field)
    for row in rows:
        ech.add(dict(row))
    return not ech.add(dict(poly.terms))


def test_acceptance_01_hilbert_dichotomy():
    rng = random.Random(101)
    samples = [random_triple(F31, rng) for _ in range(50)]
    samples += [random_triple(QQ_THETA, rng) for _ in range(10)]
    # make sure every classification row actually occurs
    samples += [
        ParamTriple.make(F31, 0, 0, 0),
        ParamTriple.make(F31, 1, 0, 0),
        ParamTriple.make(F31, 0, 0, 1),
        ParamTriple.make(F31, 1, 1, 1),
        ParamTriple.make(F31, 1, 1, 0),
        ParamTriple.make(QQ_THETA, 1, 1, 1),
    ]
    seen = set()
    for t in samples:
        cls = classify(t)
        seen.add(cls.kind)
        h = hilbert_coeffs(complete(t.presentation(), 8), 8)
        if cls.kind in (SklyaninKind.QUANTUM_POLY, SklyaninKind.GENERIC_M1):
            assert h == BINOMIALS
        elif cls.kind is SklyaninKind.FREE_ALGEBRA:
            assert h == POWERS_OF_3
        else:
            assert h == MONOMIAL_SERIES
    assert seen == set(SklyaninKind)
    print(f"\nACCEPTANCE 1 PASS: series dichotomy on {len(samples)} triples at degree 8")


REPRESENTATIVES = {
    "free": (QQ, (0, 0, 0), [1, 3, 0, 0, 0, 0, 0], 27),
    "monomial": (QQ, (0, 0, 1), [1, 3, 3, 3, 3, 3, 3], 12),
    "generic": (QQ, (1, 2, 1), [1, 3, 3, 1, 0, 0, 0], 10),
}


def test_acceptance_02_dual_series_table():
    for row, (field, triple, dual_series, _) in REPRESENTATIVES.items():
        alg = QuadraticAlgebra(sklyanin_presentation(field, *(field.from_int(v) for v in triple)))
        assert dual_algebra(alg).hilbert(6) == dual_series, row
    print("\nACCEPTANCE 2 PASS: dual Hilbert series match all three rows")


def test_acceptance_03_dim3_trichotomy():
    for row, (field, triple, _, dim3) in REPRESENTATIVES.items():
        pres = sklyanin_presentation(field, *(field.from_int(v) for v in triple))
        assert graded_dim_oracle(pres, 3) == dim3, row
        h = hilbert_coeffs(complete(pres, 4), 3)
        assert h[3] == dim3, row
    print("\nACCEPTANCE 3 PASS: degree-3 dimensions are 27 / 12 / 10")


def test_acceptance_04a_finite_basis_instance():
    # q^3 = 1 with r^3 distinct from p^3; the instance with r = 1 has all
    # parameter cubes equal and falls in the monomial-series row instead
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    half = one / (one * 2)
    pres = sklyanin_presentation(QQ_THETA, one, w, one * 2)
    g = complete(pres, 6)
    expected = [
        NcPoly.from_pairs(QQ_THETA, 3, [((X, X), one), ((Y, Z), half), ((Z, Y), w * half)]),
        parse_poly("x*y + w*y*x + 2*z*z", QQ_THETA, NAMES),
        NcPoly.from_pairs(QQ_THETA, 3, [((X, Z), one), ((Y, Y), 2 * w * w), ((Z, X), w * w)]),
        NcPoly.from_pairs(QQ_THETA, 3, [((Y, Y, Z), one), ((Z, Y, Y), -(w * w))]),
        NcPoly.from_pairs(QQ_THETA, 3, [((Y, Z, Z), one), ((Z, Z, Y), -(w * w))]),
    ]
    assert list(g.elements) == expected
    assert hilbert_coeffs(g, 6) == BINOMIALS[:7]
    # the all-cubes-equal instance is degenerate: its relations alone are the
    # complete basis and the series is the monomial one
    g1 = complete(sklyanin_presentation(QQ_THETA, one, w, one), 6)
    assert len(g1.elements) == 3
    assert hilbert_coeffs(g1, 6) == MONOMIAL_SERIES[:7]
    print("\nACCEPTANCE 4a PASS: five-element basis at (1, w, 2); (1, w, 1) is degenerate")


def test_acceptance_04b_algebra_w_basis():
    pres = pres_text("w.alg")
    g = complete(pres, 6)
    expected = [
        parse_poly("x*x - z*x + z*y", QQ, NAMES),
        parse_poly("x*y - y*y", QQ, NAMES),
        parse_poly("y*z - z*x + z*y", QQ, NAMES),
        parse_poly("x*z*x - x*z*y + z*y*x - z*z*x + z*z*y", QQ, NAMES),
        parse_poly("y*y*y", QQ, NAMES),
        parse_poly("x*z*y*x - x*z*z*x + x*z*z*y", QQ, NAMES),
    ]
    assert list(g.elements) == expected
    # the degree-4 element genuinely needs its tail: the bare monomial is not
    # in the ideal, the tailed element is
    assert not in_degree_ideal(pres, NcPoly.monomial(QQ, 3, (X, Z, Y, X)))
    assert in_degree_ideal(pres, expected[5])
    print("\nACCEPTANCE 4b PASS: six-element basis of the degenerate-potential algebra")


def test_acceptance_04c_w_dual_basis():
    pres = pres_text("w_dual.alg")
    g = complete(pres, 6)
    expected = [
        parse_poly("x*x + y*z - z*y", QQ, NAMES),
        parse_poly("x*y + y*y", QQ, NAMES),
        parse_poly("x*z", QQ, NAMES),
        parse_poly("y*x", QQ, NAMES),
        parse_poly("z*x + z*y", QQ, NAMES),
        parse_poly("z*z", QQ, NAMES),
        parse_poly("y*y*y", QQ, NAMES),
        parse_poly("y*y*z - z*y*y", QQ, NAMES),
        parse_poly("y*z*y - z*y*y", QQ, NAMES),
        parse_poly("z*y*z", QQ, NAMES),
    ]
    assert list(g.elements) == expected
    # the unreduced spelling xx + yz + zx of the first element differs from
    # the reduced one by the zx + zy element and presents the same ideal
    assert in_degree_ideal(pres, parse_poly("x*x + y*z + z*x", QQ, NAMES))
    levels = normal_words_by_degree(g, 6)
    flat = [w for level in levels for w in level]
    assert flat == [(), (X,), (Y,), (Z,), (Y, Y), (Y, Z), (Z, Y), (Z, Y, Y)]
    assert hilbert_coeffs(g, 6) == [1, 3, 3, 1, 0, 0, 0]
    # this is the dual of the w.alg algebra
    dual = dual_algebra(QuadraticAlgebra(pres_text("w.alg")))
    assert row_space_equal(
        [[r.coeff(w) for w in WORDS2] for r in dual.presentation.relations],
        [[r.coeff(w) for w in WORDS2] for r in pres.relations],
        QQ,
    )
    print("\nACCEPTANCE 4c PASS: ten-element dual basis, eight normal words, series (1+t)^3")


def test_acceptance_05_non_koszulity_of_w():
    pres = pres_text("w.alg")
    alg = QuadraticAlgebra(pres)
    assert koszul_defect(alg, 6) == 4
    series = expand_series([1, 2, 3, 3, 2, 1], [1, -1, 0, -1, -2], 6)
    assert series[4] == 17
    for d in range(7):
        assert graded_dim_oracle(pres, d) == series[d]
    assert hilbert_coeffs(complete(pres, 6), 6) == series
    print("\nACCEPTANCE 5 PASS: series defect 4, dimension 17 in degree 4")


def sample_chain_pairs(count, seed, require_case1_through=None):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = F31.from_int(rng.randrange(31)), F31.from_int(rng.randrange(31))
        if not in_m_set(F31, a, b) or not (a + b) or a**3 == b**3:
            continue
        if require_case1_through is not None:
            res = substitution_chain(F31, a, b)
            states = coefficient_recursion(F31, res.alpha, res.gamma, require_case1_through)
            if not all(s.outcome is RecursionOutcome.CONTINUE for s in states):
                continue
        pairs.append((a, b))
    return pairs


def test_acceptance_06_substitution_chain():
    for a, b in sample_chain_pairs(20, seed=606):
        res = substitution_chain(F31, a, b)
        moved = [apply_sub(rel, res.composed) for rel in sklyanin_presentation(F31, a, b, F31.one).relations]
        rows = [[m.coeff(w) for w in WORDS2] for m in moved]
        reduced, pivots = rref(rows, F31)
        assert [WORDS2[c] for c in pivots] == [(X, X), (X, Y), (Y, Z)]
        target = [[r.coeff(w) for w in WORDS2] for r in staircase_relations(F31, res.alpha, res.gamma)]
        assert row_space_equal(rows, target, F31)
        assert res.alpha or res.gamma
        assert res.alpha_matches_formula
    print("\nACCEPTANCE 6 PASS: 20 chains land on the staircase shape with matching formulas")


def test_acceptance_07_recursion_vs_groebner():
    # on every sampled pair the recursion and the completed basis must agree;
    # the generic-branch claims are then checked on 20 pairs that stay in the
    # generic branch through k = 6 (over GF(31) the finite branch has sizable
    # probability, so plain sampling cannot make all 20 generic)
    for a, b in sample_chain_pairs(20, seed=606):
        res = substitution_chain(F31, a, b)
        states = coefficient_recursion(F31, res.alpha, res.gamma, 6)
        g = complete(staircase_presentation(F31, res.alpha, res.gamma), 8)
        by_lead = {e.leading_word(ORD3): e for e in g.elements}
        for s in states:
            if s.outcome is RecursionOutcome.CONTINUE and s.k < 6:
                ex = by_lead[(X,) + (Z,) * s.k + (X,)]
                ey = by_lead[(X,) + (Z,) * s.k + (Y,)]
                assert ex.coeff((X,) + (Z,) * (s.k + 1)) == -s.a
                assert ey.coeff((X,) + (Z,) * (s.k + 1)) == -s.b
        assert all(s.outcome is not RecursionOutcome.RANK_ANOMALY for s in states)
        assert hilbert_coeffs(g, 8) == BINOMIALS

    for a, b in sample_chain_pairs(20, seed=707, require_case1_through=6):
        res = substitution_chain(F31, a, b)
        states = coefficient_recursion(F31, res.alpha, res.gamma, 6)
        assert len(states) == 7
        assert all(s.outcome is RecursionOutcome.CONTINUE for s in states)
        g = complete(staircase_presentation(F31, res.alpha, res.gamma), 8)
        for d in range(9):
            assert normal_words(g, d) == expected_normal_words(d)

    # the finite branch at (0, 1): entered immediately, basis closes up; the
    # seventh element is forced (without it the degree-5 normal-word count
    # would exceed the exact dimension by one)
    states = coefficient_recursion(QQ, QQ.zero, QQ.one, 8)
    assert len(states) == 1 and states[0].outcome is RecursionOutcome.SIGMA
    pres = staircase_presentation(QQ, QQ.zero, QQ.one)
    g = complete(pres, 10)
    leads = [e.leading_word(ORD3) for e in g.elements]
    assert leads == [
        (X, X), (X, Y), (Y, Z), (X, Z, X), (X, Z, Z), (X, Z, Y, X), (X, Z, Y, Y, Y),
    ]
    assert in_degree_ideal(pres, g.elements[6])
    six_leads = leads[:6]
    count5 = sum(
        1
        for word in itertools.product(range(3), repeat=5)
        if not any(word[i : i + len(l)] == l for i in range(5) for l in six_leads)
    )
    assert count5 == graded_dim_oracle(pres, 5) + 1
    print("\nACCEPTANCE 7 PASS: recursion matches completion in both branches")


def test_acceptance_08_oracle_equivalence():
    for name in sorted(p.name for p in CORPUS.glob("*.alg")):
        pres = pres_text(name)
        # bounds 0 and 1 lie below the relation degree: no relation enters
        for D in (0, 1, 6):
            h = hilbert_coeffs(complete(pres, D), D)
            for d in range(D + 1):
                assert graded_dim_oracle(pres, d) == h[d], (name, D, d)
    print("\nACCEPTANCE 8 PASS: basis counts equal oracle dimensions on the whole corpus")


def test_oracle_matches_uvr_rank():
    rng = random.Random(808)
    cases = [(name, pres_text(name), 5) for name in sorted(p.name for p in CORPUS.glob("*.alg"))]
    triples = [random_triple(field, rng) for field in (F31, QQ_THETA, QQ) for _ in range(3)]
    for t in triples:
        cases.append((t, sklyanin_presentation(t.field, t.p, t.q, t.r), 5))
    # relations of degree 1, 3 and 4, and a non-default generator order
    mixed = [
        (["x*y*z - z*y*x + x*x*x", "y*y*x - x*y*y", "z*z - x*y"], MonomialOrder((2, 0, 1))),
        (["x - z", "y*y*z*x + x*y*y*y"], None),
    ]
    for texts, order in mixed:
        rels = tuple(parse_poly(t, QQ, NAMES) for t in texts)
        cases.append((texts, Presentation(QQ, 3, rels, order=order), 5))
    # the packed codes' edges: ten generators, so that a digit is 10 and the
    # base 11, under a shuffled order that gives digit 10 to x2; and two
    # generators, base 3
    names10 = tuple(f"x{i}" for i in range(10))
    texts10 = [
        "x0*x9 - 3*x9*x0",
        "x1*x2 - x2*x1 + x0*x0",
        "x9*x9 - x5*x3",
        "x0*x1 - x1*x0 - x7*x7",
        "x8*x0 + x0*x8",
        "x3*x4*x5 - 2*x5*x4*x3 + x9*x9*x9",
    ]
    rels10 = tuple(parse_poly(t, F31, names10) for t in texts10)
    order10 = MonomialOrder((3, 9, 0, 7, 1, 5, 8, 2, 6, 4))
    cases.append((texts10, Presentation(F31, 10, rels10, order=order10, names=names10), 4))
    texts2 = ["x*y - 2*y*x - y*y", "x*x*y - y*x*y"]
    rels2 = tuple(parse_poly(t, QQ, NAMES[:2]) for t in texts2)
    cases.append((texts2, Presentation(QQ, 2, rels2), 8))
    for label, pres, D in cases:
        brute = []
        for d in range(D + 1):
            # words of one length are labels ordered among themselves
            ech = SparseEchelon(pres.field)
            for row in degree_ideal_rows(pres, d):
                ech.add(row)
            brute.append(pres.ngens**d - ech.rank)
        assert _graded_dims(pres, D) == brute, label


def test_oracle_matches_completion_to_degree_10():
    for name in sorted(p.name for p in CORPUS.glob("*.alg")):
        pres = pres_text(name)
        g = complete(pres, 10)
        counted = hilbert_coeffs(g, 10)
        assert _graded_dims(pres, 10) == counted, name
        assert counted == [len(level) for level in normal_words_by_degree(g, 10)], name


def test_counted_series_matches_listed_words():
    rng = random.Random(410)
    bases = []
    for field, bound in ((F31, 10), (QQ_THETA, 8)):
        for _ in range(2):
            t = random_triple(field, rng)
            bases.append((t, complete(t.presentation(), bound)))
    for _ in range(2):
        alpha, gamma = (F31.from_int(rng.randrange(31)) for _ in range(2))
        bases.append(((alpha, gamma), complete(staircase_presentation(F31, alpha, gamma), 8)))
    for label, g in bases:
        D = g.degree_bound
        assert hilbert_coeffs(g, D) == [len(level) for level in normal_words_by_degree(g, D)], label


def test_high_degree_series_counted():
    free = hilbert_coeffs(complete(pres_text("free.alg"), 30), 30)
    assert free == [3**d for d in range(31)]
    mono = hilbert_coeffs(complete(pres_text("sklyanin_0_0_1.alg"), 30), 30)
    assert mono == [1] + [3 * 2 ** (d - 1) for d in range(1, 31)]


def dense_kernel_dim(basis, products):
    """dim of {sum c_j v_j : its product with every multiplier is 0}, where
    products[j] lists the products of the vector v_j with each multiplier,
    by the dense rank of the stacked product matrix: the reference for the
    annihilator checks."""
    rows = []
    for prods in products:
        row = {}
        for mi, prod in enumerate(prods):
            row.update(((mi, w), c) for w, c in basis.reduce(prod).terms.items())
        rows.append(row)
    cols = sorted({col for row in rows for col in row})
    zero = basis.field.zero
    return len(products) - dense_rank([[row.get(col, zero) for col in cols] for row in rows], basis.field)


def random_sparse_quadratic(rng):
    """Five to seven GF(31) relations, each on one or two degree-2 words:
    small algebras whose annihilators are often nonzero, on one side only."""
    rels = []
    for _ in range(rng.randint(5, 7)):
        support = rng.sample(WORDS2, rng.randint(1, 2))
        rels.append(NcPoly.from_pairs(F31, 3, [(w, F31.from_int(rng.randrange(1, 31))) for w in support]))
    return QuadraticAlgebra(Presentation(F31, 3, tuple(rels)))


def test_annihilators_match_dense_rank():
    rng = random.Random(511)
    algebras = [(name, QuadraticAlgebra(pres_text(name))) for name in sorted(p.name for p in CORPUS.glob("*.alg"))]
    for field in (F31, QQ, QQ_THETA):
        for _ in range(2):
            t = random_triple(field, rng)
            algebras.append((t, QuadraticAlgebra(t.presentation())))
    algebras += [(f"sparse {i}", random_sparse_quadratic(rng)) for i in range(6)]
    for label, alg in algebras:
        gens = [NcPoly.gen(alg.field, 3, j) for j in range(3)]
        g = complete(alg.presentation, 6)
        # degree 0 needs a basis certified to 1, below the relation degree
        for d in range(6):
            words = normal_words(g, d)
            vectors = [NcPoly.monomial(alg.field, 3, w) for w in words]
            expected = dense_kernel_dim(g, [[x * v for x in gens] for v in vectors]) if words else 0
            assert right_annihilator_dim(alg, d) == expected, (label, d)

        dual = dual_algebra(alg)
        dims = _graded_dims(dual.presentation, 4)
        gd = complete(dual.presentation, 4)
        dual2 = [NcPoly.monomial(dual.field, 3, w) for w in normal_words(gd, 2)]
        if dual2:
            left = dense_kernel_dim(gd, [[x * m for m in dual2] for x in gens])
            right = dense_kernel_dim(gd, [[m * x for m in dual2] for x in gens])
        else:
            left = right = 3
        report = dual_hypotheses(alg)
        assert (
            report.dual4_zero,
            report.dual3_dim,
            report.no_dual_degree1_left_annihilator,
            report.no_dual_degree1_right_annihilator,
        ) == (dims[4] == 0, dims[3], left == 0, right == 0), label


def test_acceptance_09_isomorphism_group():
    inv = group_invariants()
    assert inv.order == 24
    assert inv.center_order == 2
    assert max(inv.element_orders) == 6
    assert inv.element_orders == inv.sl2_f3_element_orders
    assert inv.matches_sl2_f3

    f = QQ_THETA
    th = f.theta()
    a, b = f.parse("2"), f.parse("3")
    orbit = iso_group_orbit(f, a, b)
    assert len(orbit) == 24
    family = set()
    for j in range(3):
        family.add((th**j * a, th**j * b))
        family.add((th**j * b, th**j * a))
    # fractional maps: distinct numerator twists j != k, denominator twist
    # n = j + k + m; the constant-twist triple (j, k, m) runs over all m
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            for m in range(3):
                d = a + b + th ** ((j + k + m) % 3)
                family.add(((th**j * a + th**k * b + th**m) / d, (th**k * a + th**j * b + th**m) / d))
    assert family == set(orbit)

    reference = hilbert_coeffs(complete(sklyanin_presentation(f, a, b, f.one), 6), 6)
    assert reference == BINOMIALS[:7]
    for u, v in orbit:
        h = hilbert_coeffs(complete(sklyanin_presentation(f, u, v, f.one), 6), 6)
        assert h == reference
    print("\nACCEPTANCE 9 PASS: 24-element group with SL2(F3) invariants; orbit series agree")


def test_acceptance_10_isomorphism_decisions():
    f = QQ_THETA
    cases = [
        ((1, 1, 1), (0, 0, 1), True),
        ((1, -2, 0), (2, -1, 0), True),
        ((1, 2, 1), (2, 1, 1), True),
        ((1, 2, 1), (1, 5, 1), False),
    ]
    for left, right, expected in cases:
        t1, t2 = ParamTriple.make(f, *left), ParamTriple.make(f, *right)
        decision = are_isomorphic(t1, t2)
        assert decision.isomorphic is expected, (left, right)
        if expected:
            moved = [apply_sub(rel, decision.witness) for rel in t1.presentation().relations]
            assert row_space_equal(
                [[m.coeff(w) for w in WORDS2] for m in moved],
                [[r.coeff(w) for w in WORDS2] for r in t2.presentation().relations],
                f,
            )
    print("\nACCEPTANCE 10 PASS: worked isomorphism decisions with exact witnesses")


def test_acceptance_11_dual_hypotheses():
    alg = QuadraticAlgebra(sklyanin_presentation(QQ, QQ.one, Fraction(2), QQ.one))
    report = dual_hypotheses(alg)
    assert report.dual4_zero
    assert report.dual3_dim == 1
    assert report.no_dual_degree1_left_annihilator
    assert report.no_dual_degree1_right_annihilator
    for d in range(1, 6):
        assert right_annihilator_dim(alg, d) == 0
    print("\nACCEPTANCE 11 PASS: dual hypotheses and vanishing annihilators on (1, 2, 1)")
