"""Classification, the substitution chain, the recursion, orbits, isomorphism."""

import itertools
import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from ncquad import (
    GF,
    QQ,
    QQ_THETA,
    DegenerateDenominatorError,
    NoCubeRootError,
    PreconditionViolatedError,
    ThetaRational,
)
from ncquad import sklyanin
from ncquad.groebner import complete, graded_dim_oracle, hilbert_coeffs, normal_words
from ncquad.linalg import nullspace, row_space_equal, rref
from ncquad.ncpoly import LinearSub, apply_sub, degree_lex
from ncquad.sklyanin import (
    _orbit_edges,
    _pair_moves,
    _path_witness,
    _ray,
    _triple_moves,
    _verified,
    ParamTriple,
    RecursionOutcome,
    RecursionState,
    SklyaninKind,
    are_isomorphic,
    classify,
    expected_normal_words,
    group_invariants,
    in_m_set,
    iso_group_orbit,
    one_dimensional_representations,
    coefficient_recursion,
    root1_sub,
    root2_sub,
    sklyanin_presentation,
    staircase_presentation,
    staircase_relations,
    substitution_chain,
)

ORD3 = degree_lex(3)
WORDS2 = sorted(((i, j) for i in range(3) for j in range(3)), key=ORD3.key, reverse=True)
X, Y, Z = 0, 1, 2


def relation_rows(polys):
    return [[f.coeff(w) for w in WORDS2] for f in polys]


def spans_equal(polys_a, polys_b, field):
    return row_space_equal(relation_rows(polys_a), relation_rows(polys_b), field)


def transported(sub, presentation):
    return [apply_sub(rel, sub) for rel in presentation.relations]


def check_witness(sub, t_from, t_to):
    assert spans_equal(
        transported(sub, t_from.presentation()), list(t_to.presentation().relations), t_from.field
    )


# ---------------------------------------------------------------------------
# classification


def test_classify_requires_cube_root():
    with pytest.raises(NoCubeRootError):
        classify(ParamTriple.make(QQ, 1, 1, 1))


def test_classify_free():
    c = classify(ParamTriple.make(QQ_THETA, 0, 0, 0))
    assert c.kind is SklyaninKind.FREE_ALGEBRA


def test_classify_symmetric_is_mono_xx():
    t = ParamTriple.make(QQ_THETA, 1, 1, 1)
    c = classify(t)
    assert c.kind is SklyaninKind.MONO_XX
    check_witness(c.witness, t, c.canonical)


def test_classify_two_zero_cases():
    for triple, kind in (
        ((1, 0, 0), SklyaninKind.MONO_XY),
        ((0, 1, 0), SklyaninKind.MONO_XY),
        ((0, 0, 1), SklyaninKind.MONO_XX),
    ):
        t = ParamTriple.make(QQ_THETA, *triple)
        c = classify(t)
        assert c.kind is kind
        check_witness(c.witness, t, c.canonical)


def test_classify_cube_equal_distinct_is_mono_xy():
    w = QQ_THETA.theta()
    t = ParamTriple(QQ_THETA, QQ_THETA.one, w, w * w)
    c = classify(t)
    assert c.kind is SklyaninKind.MONO_XY
    check_witness(c.witness, t, c.canonical)


def test_classify_quantum_r_zero():
    t = ParamTriple.make(QQ_THETA, 1, 2, 0)
    c = classify(t)
    assert c.kind is SklyaninKind.QUANTUM_POLY
    assert c.alpha == QQ_THETA.parse("-2")
    check_witness(c.witness, t, c.canonical)


def test_classify_quantum_sum_cube_case():
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    t = ParamTriple.make(QQ_THETA, 2, -1, -1)
    c = classify(t)
    assert c.kind is SklyaninKind.QUANTUM_POLY
    assert c.alpha == w * (one * 2 + w * w) / (one * 2 + w)
    check_witness(c.witness, t, c.canonical)


def test_classify_generic():
    t = ParamTriple.make(QQ_THETA, 1, 2, 1)
    c = classify(t)
    assert c.kind is SklyaninKind.GENERIC_M1
    assert c.pair == (QQ_THETA.one, QQ_THETA.parse("2"))


def test_classification_partition():
    rng = random.Random(313)
    f = GF(31)
    for _ in range(200):
        t = ParamTriple(f, *(f.from_int(rng.randrange(31)) for _ in range(3)))
        kinds = [t.is_free(), t.is_degenerate(), t.in_m1(), t.in_m2()]
        if t.is_free():
            assert t.is_degenerate() and not t.in_m1() and not t.in_m2()
        elif t.is_degenerate():
            assert not t.in_m1() and not t.in_m2()
        else:
            assert t.in_m1() != t.in_m2()
        classify(t)  # must not raise


def reference_in_m1(t):
    """M1 stated on the triple itself rather than through the normalized pair."""
    p, q, r = t.p, t.q, t.r
    cubes_equal = p**3 == q**3 and q**3 == r**3
    return bool(r and (p or q) and (p + q) ** 3 + r**3 and not cubes_equal and t.in_m0())


def test_in_m1_matches_triple_conditions():
    triples = []
    for f in (GF(7), GF(13)):
        residues = range(f.characteristic())
        triples += [ParamTriple(f, *map(f.from_int, c)) for c in itertools.product(residues, repeat=3)]
    rng = random.Random(131)
    triples += [t for ts in seeded_triples_by_kind(QQ_THETA, rng, per_shape=6).values() for t in ts]
    triples += [ParamTriple(QQ_THETA, *(random_scalar(QQ_THETA, rng) for _ in range(3))) for _ in range(100)]
    seen = Counter()
    for t in triples:
        assert t.in_m1() == reference_in_m1(t), t
        if t.is_degenerate():
            assert not t.in_m1() and not t.in_m2()
        else:
            assert t.in_m1() != t.in_m2()
        seen[t.is_degenerate(), t.in_m1()] += 1
    assert len(seen) == 3


def test_ray_lemma_exhaustive_gf7():
    f = GF(7)
    triples = [ParamTriple(f, *map(f.from_int, c)) for c in itertools.product(range(7), repeat=3)]
    rows = {t: relation_rows(t.presentation().relations) for t in triples}
    reps = {}
    for t in triples:
        reps.setdefault(_ray(t), t)
    # the 57 points of the projective plane over GF(7), and the free triple
    assert len(reps) == 58
    # equal row spaces is an equivalence, so comparing each triple with one
    # member of every ray decides it for every pair
    for t in triples:
        for ray, rep in reps.items():
            assert (_ray(t) == ray) == row_space_equal(rows[t], rows[rep], f)


def test_ray_lemma_seeded_qw():
    f = QQ_THETA
    rng = random.Random(71)
    free = ParamTriple.make(f, 0, 0, 0)

    def param():
        return f.zero if rng.random() < 0.3 else nonzero_scalar(f, rng)

    outcomes = Counter()
    for i in range(200):
        s = free if i == 0 else ParamTriple(f, param(), param(), param())
        if i % 10 in (0, 1):
            t = free
        elif i % 2:
            c = nonzero_scalar(f, rng)
            t = ParamTriple(f, c * s.p, c * s.q, c * s.r)
        else:
            t = ParamTriple(f, param(), param(), param())
        same = spans_equal(s.presentation().relations, t.presentation().relations, f)
        assert (_ray(s) == _ray(t)) == same, (s, t)
        outcomes[same] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_series_dichotomy_samples():
    rng = random.Random(59)
    f = GF(31)
    binom = [(d + 1) * (d + 2) // 2 for d in range(7)]
    for _ in range(12):
        t = ParamTriple(f, *(f.from_int(rng.randrange(31)) for _ in range(3)))
        g = complete(t.presentation(), 6)
        h = hilbert_coeffs(g, 6)
        c = classify(t)
        if c.kind in (SklyaninKind.QUANTUM_POLY, SklyaninKind.GENERIC_M1):
            assert h == binom
        elif c.kind is SklyaninKind.FREE_ALGEBRA:
            assert h == [3**d for d in range(7)]
        else:
            assert h == [1] + [3 * 2 ** (d - 1) for d in range(1, 7)]


# ---------------------------------------------------------------------------
# elementary moves


def test_root1_examples():
    w = QQ_THETA.theta()
    t, sub = root1_sub(ParamTriple.make(QQ_THETA, 1, 1, 1))
    assert (t.p, t.q, t.r) == (QQ_THETA.one, QQ_THETA.one, w)
    t0, sub0 = root1_sub(ParamTriple.make(QQ_THETA, 2, 5, 0))
    assert (t0.p, t0.q, t0.r) == (QQ_THETA.parse("2"), QQ_THETA.parse("5"), QQ_THETA.zero)
    t2, _ = root1_sub(t)
    assert t2.r == w * w


def test_root2_examples():
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    t, sub = root2_sub(ParamTriple.make(QQ_THETA, 1, 1, 1))
    assert (t.p, t.q, t.r) == (QQ_THETA.zero, QQ_THETA.zero, one * 3)
    # with the canonical cube root, (1, w, w^2) lands on (3w^2, 0, 0), in the
    # same class as the monomial xy-type algebra
    t2, _ = root2_sub(ParamTriple(QQ_THETA, one, w, w * w))
    assert (t2.p, t2.q, t2.r) == (3 * w * w, QQ_THETA.zero, QQ_THETA.zero)
    t3, _ = root2_sub(ParamTriple.make(QQ_THETA, 0, 0, 0))
    assert t3.is_free()


# ---------------------------------------------------------------------------
# the substitution chain


def test_chain_on_one_two():
    f = QQ_THETA
    res = substitution_chain(f, f.one, f.parse("2"))
    ap, bp = res.ab_coeffs
    assert ap == ThetaRational(Fraction(-135, 28), Fraction(-27, 28))
    assert bp == ThetaRational(Fraction(-108, 28), Fraction(27, 28))
    assert res.alpha == f.parse("-7")
    assert res.gamma == f.parse("49")
    assert res.alpha_matches_formula
    assert res.gamma_matches_formula


def test_chain_transport_and_leads():
    rng = random.Random(6161)
    f = GF(31)
    done = 0
    while done < 8:
        a, b = f.from_int(rng.randrange(31)), f.from_int(rng.randrange(31))
        if not in_m_set(f, a, b) or not (a + b) or a**3 == b**3:
            continue
        res = substitution_chain(f, a, b)
        moved = transported(res.composed, sklyanin_presentation(f, a, b, f.one))
        _, pivots = rref([[m.coeff(w) for w in WORDS2] for m in moved], f)
        assert [WORDS2[c] for c in pivots] == [(X, X), (X, Y), (Y, Z)]
        assert spans_equal(moved, staircase_relations(f, res.alpha, res.gamma), f)
        assert res.alpha or res.gamma
        assert res.alpha_matches_formula and res.gamma_matches_formula
        done += 1


def test_chain_preconditions():
    f = QQ_THETA
    with pytest.raises(PreconditionViolatedError):
        substitution_chain(f, f.one, -f.one)  # a + b = 0
    with pytest.raises(PreconditionViolatedError):
        substitution_chain(f, f.parse("2"), f.parse("2"))  # a^3 = b^3
    with pytest.raises(PreconditionViolatedError):
        substitution_chain(f, f.zero, f.zero)  # outside the admissible set


# ---------------------------------------------------------------------------
# the recursion and normal words


def test_recursion_sigma_immediately():
    states = coefficient_recursion(QQ, QQ.zero, QQ.one, 8)
    assert len(states) == 1
    assert states[0].outcome is RecursionOutcome.SIGMA
    assert (states[0].a, states[0].b) == (QQ.zero, QQ.zero)


def test_recursion_rejects_zero_parameters():
    with pytest.raises(PreconditionViolatedError):
        coefficient_recursion(QQ, QQ.zero, QQ.zero, 5)


def test_recursion_rejects_negative_kmax():
    with pytest.raises(ValueError):
        coefficient_recursion(QQ, QQ.zero, QQ.one, -2)
    assert len(coefficient_recursion(GF(31), GF(31).from_int(4), GF(31).from_int(4), 0)) == 1


def test_recursion_generic_continues():
    f = GF(31)
    states = coefficient_recursion(f, f.from_int(4), f.from_int(4), 8)
    assert len(states) == 9
    assert all(s.outcome is RecursionOutcome.CONTINUE for s in states)


def nullspace_recursion(field, alpha, gamma, kmax):
    """The recursion with each step's 3x3 system solved by `nullspace`:
    the reference for the closed form of `coefficient_recursion`."""
    one = field.one
    a, b = field.zero, field.zero
    states = []
    for k in range(kmax):
        m = [[-one, one, b + alpha], [alpha, b - a, -gamma], [a - one, one, alpha]]
        if not any(m[i][0] * m[j][1] - m[i][1] * m[j][0] for i, j in ((0, 1), (0, 2), (1, 2))):
            return states + [RecursionState(k, a, b, RecursionOutcome.SIGMA)]
        kernel = nullspace(m, 3, field)
        if not kernel:
            return states + [RecursionState(k, a, b, RecursionOutcome.RANK_ANOMALY)]
        vec = kernel[0]
        assert vec[2]
        states.append(RecursionState(k, a, b, RecursionOutcome.CONTINUE))
        a, b = vec[0] / vec[2], vec[1] / vec[2]
    return states + [RecursionState(kmax, a, b, RecursionOutcome.CONTINUE)]


def test_recursion_matches_nullspace_reference():
    # seeded pairs, and over GF(7) and GF(13) every pair the chain reaches
    rng = random.Random(1212)
    outcomes = Counter()
    for field in (QQ, QQ_THETA, GF(7), GF(13), GF(31)):
        pairs = []
        for _ in range(40):
            if field is QQ:
                pair = tuple(QQ.parse(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}") for _ in range(2))
            elif field is QQ_THETA:
                pair = tuple(ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2))
            else:
                pair = tuple(field.from_int(rng.randrange(field.p)) for _ in range(2))
            pairs.append(pair)
        if field in (GF(7), GF(13)):
            for a, b in itertools.product(range(field.p), repeat=2):
                a, b = field.from_int(a), field.from_int(b)
                if in_m_set(field, a, b) and (a + b) and a**3 != b**3:
                    res = substitution_chain(field, a, b)
                    pairs.append((res.alpha, res.gamma))
        for alpha, gamma in pairs:
            if not (alpha or gamma):
                continue
            states = coefficient_recursion(field, alpha, gamma, 12)
            assert states == nullspace_recursion(field, alpha, gamma, 12), (field, alpha, gamma)
            outcomes[states[-1].outcome] += 1
    assert outcomes[RecursionOutcome.SIGMA] > 0 and outcomes[RecursionOutcome.CONTINUE] > 0, outcomes


def test_recursion_never_reaches_full_rank():
    # the determinant of the recursion's system stays 0 from a = b = 0 on
    # (the proof is in `coefficient_recursion`'s docstring): over GF(7) and
    # GF(13), every pair (alpha, gamma) != (0, 0) runs p*p steps without a
    # full-rank system, and each ends in the finite branch
    for field in (GF(7), GF(13)):
        p = field.p
        for alpha, gamma in itertools.product(range(p), repeat=2):
            if not (alpha or gamma):
                continue
            states = coefficient_recursion(field, field.from_int(alpha), field.from_int(gamma), p * p)
            assert all(s.outcome is not RecursionOutcome.RANK_ANOMALY for s in states), (p, alpha, gamma)
            assert states[-1].outcome is RecursionOutcome.SIGMA, (p, alpha, gamma)


def test_recursion_matches_basis_coefficients():
    # the element with leading word x z^k x carries -a_k on x z^{k+1}, and
    # likewise for y
    f = GF(31)
    al, ga = f.from_int(4), f.from_int(4)
    states = coefficient_recursion(f, al, ga, 6)
    g = complete(staircase_presentation(f, al, ga), 8)
    by_lead = {e.leading_word(ORD3): e for e in g.elements}
    for s in states[:7]:
        ex = by_lead[(X,) + (Z,) * s.k + (X,)]
        ey = by_lead[(X,) + (Z,) * s.k + (Y,)]
        assert ex.coeff((X,) + (Z,) * (s.k + 1)) == -s.a
        assert ey.coeff((X,) + (Z,) * (s.k + 1)) == -s.b


def test_case1_normal_words_and_counts():
    f = GF(31)
    g = complete(staircase_presentation(f, f.from_int(4), f.from_int(4)), 8)
    for d in range(9):
        words = expected_normal_words(d)
        assert len(words) == (d + 1) * (d + 2) // 2
        assert normal_words(g, d) == words
    leads = set(g.lead_words())
    expected_leads = {(Y, Z)} | {(X,) + (Z,) * k + (g2,) for k in range(7) for g2 in (X, Y)}
    assert leads == expected_leads


def test_case1_word_shapes():
    words = expected_normal_words(2)
    assert set(words) == {(Z, Z), (Z, Y), (Y, Y), (Z, X), (Y, X), (X, Z)}


def test_case2_count_property():
    for k in (0, 1, 2):
        for d in range(9):
            assert len(expected_normal_words(d, sigma_k=k)) == (d + 1) * (d + 2) // 2


def test_sigma_zero_one_finite_basis():
    # the ideal for (0,1) closes up with seven elements: the six with the
    # short staircase leads plus an oracle-verified element with lead xzyyy
    f = QQ
    g = complete(staircase_presentation(f, f.zero, f.one), 10)
    leads = [e.leading_word(ORD3) for e in g.elements]
    assert leads == [
        (X, X),
        (X, Y),
        (Y, Z),
        (X, Z, X),
        (X, Z, Z),
        (X, Z, Y, X),
        (X, Z, Y, Y, Y),
    ]
    assert hilbert_coeffs(g, 8) == [(d + 1) * (d + 2) // 2 for d in range(9)]


def test_sigma_extra_element_is_forced():
    # without the seventh element the degree-5 normal-word count would exceed
    # the exact dimension, so a six-element basis cannot be complete
    f = QQ
    pres = staircase_presentation(f, f.zero, f.one)
    oracle_dim5 = graded_dim_oracle(pres, 5)
    g = complete(pres, 10)
    short_leads = [w for w in g.lead_words() if w != (X, Z, Y, Y, Y)]
    count = 0
    for word in itertools.product(range(3), repeat=5):
        if not any(
            word[i : i + len(l)] == l
            for i in range(5)
            for l in short_leads
        ):
            count += 1
    assert count == oracle_dim5 + 1


def test_case2_family_agrees_through_low_degrees():
    # the combinatorial family matches the actual normal words up to the
    # degree where the extra element enters (k + 5)
    f = QQ
    g = complete(staircase_presentation(f, f.zero, f.one), 10)
    for d in range(5):
        assert normal_words(g, d) == expected_normal_words(d, sigma_k=0)
    assert normal_words(g, 5) != expected_normal_words(5, sigma_k=0)
    assert len(normal_words(g, 5)) == len(expected_normal_words(5, sigma_k=0))


# ---------------------------------------------------------------------------
# orbits, the group, isomorphism


def test_orbit_size_and_members():
    f = QQ_THETA
    w = f.theta()
    two, three = f.parse("2"), f.parse("3")
    orbit = iso_group_orbit(f, two, three)
    assert len(orbit) == 24
    assert (three, two) in set(orbit)
    assert (w * two, w * three) in set(orbit)
    for a, b in orbit:
        assert in_m_set(f, a, b)


def test_orbit_closure_and_swap_symmetry():
    f = QQ_THETA
    w = f.theta()
    one = f.one
    orbit = set(iso_group_orbit(f, f.parse("2"), f.parse("3")))
    for a, b in orbit:
        assert (b, a) in orbit
        assert (w * a, w * b) in orbit
        d = a + b + one
        assert ((w * a + w * w * b + one) / d, (w * w * a + w * b + one) / d) in orbit


def test_orbit_matches_map_family():
    # 3 rescalings, 3 swapped rescalings, 18 fractional maps with numerator
    # twists j != k and denominator twist n = j + k + m
    f = QQ_THETA
    th = f.theta()
    one = f.one
    a, b = f.parse("2"), f.parse("3")
    family = set()
    for j in range(3):
        family.add((th**j * a, th**j * b))
        family.add((th**j * b, th**j * a))
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            for m in range(3):
                n = (j + k + m) % 3
                d = a + b + th**n
                family.add(((th**j * a + th**k * b + th**m) / d, (th**k * a + th**j * b + th**m) / d))
    assert len(family) == 24
    assert family == set(iso_group_orbit(f, a, b))


PAIR_GROUP_FIELDS = [QQ_THETA, GF(7), GF(31), GF(1000003)]


@pytest.mark.parametrize("field", PAIR_GROUP_FIELDS, ids=["Qw", "GF7", "GF31", "GF1000003"])
def test_pair_moves_are_triple_moves_on_the_chart_r_one(field):
    # the scale and mix maps are root1 and root2 at t = theta^2 read on r = 1;
    # where root2 sends r to 0, a + b + 1 = 0 and the mix map refuses
    rng = random.Random(41)
    one = field.one
    th = field.theta()
    root1, root2 = _triple_moves(field)[2:4]
    (scale_map, scale_sub), (mix_map, mix_sub) = _pair_moves(field)
    pairs = [(random_scalar(field, rng), random_scalar(field, rng)) for _ in range(140)]
    pairs += [(a, -a - one) for a, _ in pairs[:10]]
    degenerate = 0
    for a, b in pairs:
        for pair_map, (triple_map, _) in ((scale_map, root1), (mix_map, root2)):
            image = triple_map(ParamTriple(field, a, b, one))
            if image.r:
                assert pair_map((a, b)) == (image.p / image.r, image.q / image.r)
            else:
                degenerate += 1
                with pytest.raises(DegenerateDenominatorError):
                    pair_map((a, b))
    assert degenerate >= 10
    assert scale_sub == root1[1]
    symmetric = LinearSub.from_columns(field, [[th, th * th, one], [th * th, th, one], [one, one, one]])
    assert mix_sub.compose(symmetric) == LinearSub.identity(field, 3)


def test_orbit_rejects_inadmissible_pair():
    f = QQ_THETA
    with pytest.raises(PreconditionViolatedError):
        iso_group_orbit(f, f.zero, f.zero)


def test_group_invariants():
    inv = group_invariants()
    assert inv.order == 24
    assert inv.center_order == 2
    assert max(inv.element_orders) == 6
    assert inv.element_orders == inv.sl2_f3_element_orders
    assert inv.sl2_f3_order == 24 and inv.sl2_f3_center_order == 2
    assert inv.matches_sl2_f3


def test_orbit_members_share_hilbert_series():
    f = QQ_THETA
    orbit = iso_group_orbit(f, f.parse("2"), f.parse("3"))
    reference = None
    for a, b in orbit[:5]:
        g = complete(sklyanin_presentation(f, a, b, f.one), 5)
        h = hilbert_coeffs(g, 5)
        reference = reference or h
        assert h == reference


def test_are_isomorphic_examples():
    f = QQ_THETA
    dec = are_isomorphic(ParamTriple.make(f, 1, 1, 1), ParamTriple.make(f, 0, 0, 1))
    assert dec.isomorphic
    dec = are_isomorphic(ParamTriple.make(f, 1, -2, 0), ParamTriple.make(f, 2, -1, 0))
    assert dec.isomorphic
    dec = are_isomorphic(ParamTriple.make(f, 1, 2, 1), ParamTriple.make(f, 2, 1, 1))
    assert dec.isomorphic
    dec = are_isomorphic(ParamTriple.make(f, 1, 2, 1), ParamTriple.make(f, 1, 5, 1))
    assert not dec.isomorphic


def test_are_isomorphic_witnesses_transport():
    f = QQ_THETA
    pairs = [
        ((1, 1, 1), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, -2, 0), (2, -1, 0)),
        ((1, 2, 1), (2, 1, 1)),
    ]
    for a, b in pairs:
        t1, t2 = ParamTriple.make(f, *a), ParamTriple.make(f, *b)
        dec = are_isomorphic(t1, t2)
        assert dec.isomorphic
        check_witness(dec.witness, t1, t2)


def reference_pair_moves(field):
    """The scale and mix maps with their witnesses, written out apart from
    `sklyanin._pair_moves`; the mix witness is the inverse of the symmetric
    theta matrix, found by elimination."""
    th = field.theta()
    th2 = th * th
    one, zero = field.one, field.zero

    def scale_map(pair):
        a, b = pair
        return (th * a, th * b)

    def mix_map(pair):
        a, b = pair
        d = a + b + one
        return ((th * a + th2 * b + one) / d, (th2 * a + th * b + one) / d)

    scale_sub = LinearSub.from_columns(field, [[one, zero, zero], [zero, one, zero], [zero, zero, th]])
    mix_sub = LinearSub.from_columns(field, [[th, th2, one], [th2, th, one], [one, one, one]]).inverse()
    return [(scale_map, scale_sub), (mix_map, mix_sub)]


def eager_orbit_witnesses(field, a, b):
    """Reference closure that composes every member's witness as the
    breadth-first search reaches it."""
    start = (a, b)
    out = {start: LinearSub.identity(field, 3)}
    frontier = deque([start])
    while frontier:
        pair = frontier.popleft()
        for fn, sub in reference_pair_moves(field):
            nxt = fn(pair)
            if nxt not in out:
                out[nxt] = sub.compose(out[pair])
                frontier.append(nxt)
    return out


ORBIT_FIELDS = [QQ_THETA, GF(31), GF(1000003)]
ORBIT_FIELD_IDS = ["Qw", "GF31", "GF1000003"]


def random_scalar(field, rng):
    if field is QQ_THETA:
        return ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4))
    return field.from_int(rng.randrange(field.characteristic()))


def seeded_generic_pairs(field, rng, count):
    pairs = []
    while len(pairs) < count:
        a, b = random_scalar(field, rng), random_scalar(field, rng)
        if classify(ParamTriple(field, a, b, field.one)).kind is SklyaninKind.GENERIC_M1:
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=ORBIT_FIELD_IDS)
def test_orbit_path_witnesses_transport(field):
    rng = random.Random(17)
    for a, b in seeded_generic_pairs(field, rng, 2):
        edges = _orbit_edges(field, a, b)
        eager = eager_orbit_witnesses(field, a, b)
        assert list(edges) == list(eager)
        source = ParamTriple(field, a, b, field.one)
        for pair in edges:
            witness = _path_witness(field, edges, pair, _pair_moves(field))
            assert witness.matrix == eager[pair].matrix
            check_witness(witness, source, ParamTriple(field, *pair, field.one))


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=ORBIT_FIELD_IDS)
def test_are_isomorphic_witness_matches_eager_reference(field):
    rng = random.Random(23)
    for a, b in seeded_generic_pairs(field, rng, 2):
        eager = eager_orbit_witnesses(field, a, b)
        members = sorted(eager, key=lambda pr: (field.render(pr[0]), field.render(pr[1])))
        for u, v in rng.sample(members, min(4, len(members))):
            lam = mu = field.zero
            while not (lam and mu):
                lam, mu = random_scalar(field, rng), random_scalar(field, rng)
            t1 = ParamTriple(field, lam * a, lam * b, lam)
            t2 = ParamTriple(field, mu * u, mu * v, mu)
            dec = are_isomorphic(t1, t2)
            c1, c2 = classify(t1), classify(t2)
            reference = c2.witness.inverse().compose(eager[(u, v)]).compose(c1.witness)
            assert dec.isomorphic
            assert dec.witness.matrix == reference.matrix


def reference_signature(triple):
    rows = [[rel.coeff(w) for w in WORDS2] for rel in triple.presentation().relations]
    reduced, pivots = rref(rows, triple.field)
    return tuple(pivots), tuple(tuple(row) for row in reduced)


def reference_swap(field):
    one, zero = field.one, field.zero
    return LinearSub.from_columns(field, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])


def reference_root_moves(triple, t):
    f = triple.field
    p, q, r = triple.p, triple.q, triple.r
    one, zero = f.one, f.zero
    t2 = t * t
    root1 = LinearSub.from_columns(f, [[one, zero, zero], [zero, one, zero], [zero, zero, t2]])
    root2 = LinearSub.from_columns(f, [[one, one, one], [one, t, t2], [one, t2, t]])
    return (
        (ParamTriple(f, p, q, t * r), root1),
        (ParamTriple(f, t2 * p + t * q + r, t * p + t2 * q + r, p + q + r), root2),
    )


def reference_iso_moves(triple):
    """(image, substitution) for each elementary move, built at every node."""
    f = triple.field
    th = f.theta()
    return [
        *reference_root_moves(triple, th),
        *reference_root_moves(triple, th * th),
        (ParamTriple(f, triple.q, triple.p, triple.r), reference_swap(f)),
    ]


def reference_search_witness(source, target):
    """Breadth-first search over the moves, keyed by relation-space
    signatures, composing the substitutions along the path found."""
    f = source.field
    target_sig = reference_signature(target)
    start_sig = reference_signature(source)
    if start_sig == target_sig:
        return LinearSub.identity(f, 3)
    edges = {start_sig: None}
    frontier = deque([(source, start_sig)])
    while frontier:
        triple, parent = frontier.popleft()
        for nxt, step in reference_iso_moves(triple):
            sig = reference_signature(nxt)
            if sig in edges:
                continue
            edges[sig] = (parent, step)
            if sig == target_sig:
                steps = []
                while edges[sig] is not None:
                    sig, step = edges[sig]
                    steps.append(step)
                acc = LinearSub.identity(f, 3)
                for step in reversed(steps):
                    acc = step.compose(acc)
                return acc
            frontier.append((nxt, sig))
    raise AssertionError("no witness found")


def reference_class_witness(triple):
    c = classify(triple)
    if c.kind in (SklyaninKind.FREE_ALGEBRA, SklyaninKind.GENERIC_M1):
        return LinearSub.identity(triple.field, 3)
    return reference_search_witness(triple, c.canonical)


def reference_iso_witness(t1, t2):
    f = t1.field
    c1, c2 = classify(t1), classify(t2)
    out = reference_class_witness(t2).inverse()
    if c1.kind is SklyaninKind.GENERIC_M1:
        out = out.compose(eager_orbit_witnesses(f, *c1.pair)[c2.pair])
    elif c1.kind is SklyaninKind.QUANTUM_POLY and c1.alpha != c2.alpha:
        out = out.compose(reference_swap(f))
    return out.compose(reference_class_witness(t1))


def nonzero_scalar(field, rng):
    v = field.zero
    while not v:
        v = random_scalar(field, rng)
    return v


def seeded_triples_by_kind(field, rng, per_shape=3):
    """Seeded triples from shapes that between them reach all five kinds,
    grouped by kind."""
    th, zero = field.theta(), field.zero

    def equal_cubes():
        lam = nonzero_scalar(field, rng)
        return tuple(lam * th ** rng.randrange(3) for _ in range(3))

    def sum_cube():
        # (p + q)^3 + r^3 = 0 with r != 0: quantum unless degenerate
        p, q = nonzero_scalar(field, rng), nonzero_scalar(field, rng)
        return (p, q, -(p + q) * th ** rng.randrange(3))

    shapes = [
        lambda: tuple(random_scalar(field, rng) for _ in range(3)),
        lambda: (nonzero_scalar(field, rng), nonzero_scalar(field, rng), zero),
        sum_cube,
        equal_cubes,
        lambda: tuple(rng.sample([nonzero_scalar(field, rng), zero, zero], 3)),
        lambda: (zero, zero, zero),
    ]
    by_kind = {kind: [] for kind in SklyaninKind}
    for shape in shapes:
        for _ in range(per_shape):
            t = ParamTriple(field, *shape())
            by_kind[classify(t).kind].append(t)
    assert all(by_kind.values())
    return by_kind


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=ORBIT_FIELD_IDS)
def test_classify_witness_matches_reference_search(field):
    by_kind = seeded_triples_by_kind(field, random.Random(29))
    # already canonical: the search's start is its target
    triples = [t for ts in by_kind.values() for t in ts] + [ParamTriple.make(field, 0, 0, 1)]
    for t in triples:
        c = classify(t)
        assert c.witness.matrix == reference_class_witness(t).matrix
        check_witness(c.witness, t, c.canonical)


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=ORBIT_FIELD_IDS)
def test_are_isomorphic_witness_matches_reference(field):
    rng = random.Random(31)
    by_kind = seeded_triples_by_kind(field, rng)
    pairs = []
    for kind in (SklyaninKind.FREE_ALGEBRA, SklyaninKind.MONO_XY, SklyaninKind.MONO_XX):
        ts = by_kind[kind] + [classify(by_kind[kind][0]).canonical]
        pairs += list(zip(ts, ts[1:]))
    for t in by_kind[SklyaninKind.QUANTUM_POLY]:
        alpha = classify(t).alpha
        lam = nonzero_scalar(field, rng)
        pairs.append((t, ParamTriple(field, lam, -lam * alpha, field.zero)))
        pairs.append((t, ParamTriple(field, lam, -lam / alpha, field.zero)))
    for t in by_kind[SklyaninKind.GENERIC_M1]:
        image = t
        for _ in range(3):
            image = rng.choice(reference_iso_moves(image))[0]
        pairs.append((t, image))
    reasons = set()
    for t1, t2 in pairs:
        dec = are_isomorphic(t1, t2)
        assert dec.isomorphic, (t1, t2)
        assert dec.witness.matrix == reference_iso_witness(t1, t2).matrix
        reasons.add(dec.reason.split(" (")[0])
    assert {"quantum parameters equal", "quantum parameters reciprocal"} <= reasons
    assert "normalized pairs lie in one orbit" in reasons


@pytest.mark.parametrize("field", [QQ_THETA, GF(31)])
def test_identity_witness_still_checks_the_span(field, monkeypatch):
    # the identity is checked on the source rows as they are, without
    # transporting them, but the row spaces are still compared
    calls = []

    def counting_apply_sub(rel, sub):
        calls.append(sub)
        return apply_sub(rel, sub)

    monkeypatch.setattr(sklyanin, "apply_sub", counting_apply_sub)
    one, two, three, five = (field.from_int(c) for c in (1, 2, 3, 5))
    source = sklyanin_presentation(field, one, two, five)
    other = sklyanin_presentation(field, one, three, five)
    identity = LinearSub.identity(field, 3)
    assert _verified(identity, source, source, "identity") is identity
    with pytest.raises(AssertionError):
        _verified(identity, source, other, "identity")
    assert calls == []
    with pytest.raises(AssertionError):
        _verified(reference_swap(field), source, source, "swap")
    assert len(calls) == len(source.relations)


def test_degenerate_never_isomorphic_to_nondegenerate():
    f = QQ_THETA
    dec = are_isomorphic(ParamTriple.make(f, 1, 1, 1), ParamTriple.make(f, 1, 2, 1))
    assert not dec.isomorphic
    dec = are_isomorphic(ParamTriple.make(f, 1, 0, 0), ParamTriple.make(f, 1, 1, 0))
    assert not dec.isomorphic


def test_quantum_never_isomorphic_to_generic():
    f = QQ_THETA
    dec = are_isomorphic(ParamTriple.make(f, 1, 1, 0), ParamTriple.make(f, 1, 2, 1))
    assert not dec.isomorphic
    assert not are_isomorphic(ParamTriple.make(f, 1, 2, 1), ParamTriple.make(f, 1, 1, 0)).isomorphic


def test_quantum_distinct_parameters_not_isomorphic():
    f = QQ_THETA
    dec = are_isomorphic(ParamTriple.make(f, 1, -2, 0), ParamTriple.make(f, 1, -3, 0))
    assert not dec.isomorphic


def test_isomorphism_preserves_series():
    f = QQ_THETA
    t1 = ParamTriple.make(f, 1, 2, 1)
    t2 = ParamTriple.make(f, 2, 1, 1)
    assert are_isomorphic(t1, t2).isomorphic
    h1 = hilbert_coeffs(complete(t1.presentation(), 5), 5)
    h2 = hilbert_coeffs(complete(t2.presentation(), 5), 5)
    assert h1 == h2


# ---------------------------------------------------------------------------
# one-dimensional representations


def check_rep(t, rep):
    a, b, c = rep
    p, q, r = t.p, t.q, t.r
    assert (p + q) * a * b == -r * c * c
    assert (p + q) * b * c == -r * a * a
    assert (p + q) * a * c == -r * b * b


def test_one_dim_reps_trivial_on_m1():
    rng = random.Random(404)
    f = GF(31)
    found = 0
    while found < 10:
        t = ParamTriple(f, *(f.from_int(rng.randrange(31)) for _ in range(3)))
        if not t.in_m1():
            continue
        assert one_dimensional_representations(t) == []
        found += 1


def test_one_dim_reps_exhaustive_cross_check():
    rng = random.Random(405)
    f = GF(7)
    for _ in range(20):
        t = ParamTriple(f, *(f.from_int(rng.randrange(7)) for _ in range(3)))
        witnesses = one_dimensional_representations(t)
        brute = []
        for vals in itertools.product(range(7), repeat=3):
            if not any(vals):
                continue
            a, b, c = (f.from_int(v) for v in vals)
            if (
                (t.p + t.q) * a * b == -t.r * c * c
                and (t.p + t.q) * b * c == -t.r * a * a
                and (t.p + t.q) * a * c == -t.r * b * b
            ):
                brute.append((a, b, c))
        assert bool(witnesses) == bool(brute)
        for wit in witnesses:
            check_rep(t, wit)


def test_one_dim_reps_quantum_has_witness():
    f = QQ_THETA
    t = ParamTriple.make(f, 1, 1, 0)
    reps = one_dimensional_representations(t)
    assert reps
    check_rep(t, reps[0])
