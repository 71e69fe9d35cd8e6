"""Potentials, cyclic derivatives, and the relation spans they generate."""

import warnings
from fractions import Fraction

import pytest

from ncquad import QQ, QQ_THETA
from ncquad.linalg import row_space_equal
from ncquad.ncpoly import LinearSub, NcPoly, apply_sub, degree_lex, is_cyclically_invariant, parse_poly
from ncquad.potential import (
    relations_from_potential,
    sklyanin_potential,
    staircase_potential,
    sum_cube_potential,
)
from ncquad.sklyanin import sklyanin_presentation, staircase_relations

NAMES = ("x", "y", "z")
ORD3 = degree_lex(3)
WORDS2 = sorted(((i, j) for i in range(3) for j in range(3)), key=ORD3.key, reverse=True)


def span_rows(polys):
    return [[f.coeff(w) for w in WORDS2] for f in polys]


def spans_equal(a, b, field):
    return row_space_equal(span_rows(a), span_rows(b), field)


def test_potential_requires_cyclic_invariance():
    with pytest.raises(ValueError):
        relations_from_potential(parse_poly("x*x*y", QQ, NAMES))
    assert len(relations_from_potential(parse_poly("x*x*y + x*y*x + y*x*x", QQ, ("x", "y")))) == 2


def test_sklyanin_potential_relations():
    p, q, r = Fraction(2), Fraction(5), Fraction(7)
    rels = relations_from_potential(sklyanin_potential(QQ, p, q, r))
    expected = list(sklyanin_presentation(QQ, p, q, r).relations)
    assert len(rels) == 3
    # the derivatives are the defining relations verbatim, not just span-equal
    assert sorted(span_rows(rels), key=str) == sorted(span_rows(expected), key=str)
    assert spans_equal(rels, expected, QQ)


def test_zero_potential_gives_free_algebra():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rels = relations_from_potential(sklyanin_potential(QQ, QQ.zero, QQ.zero, QQ.zero))
    assert rels == []


def test_symmetric_potential_relations():
    rels = relations_from_potential(sklyanin_potential(QQ, QQ.one, QQ.one, QQ.one))
    expected = list(sklyanin_presentation(QQ, QQ.one, QQ.one, QQ.one).relations)
    assert spans_equal(rels, expected, QQ)


def test_staircase_potential_matches_relations():
    for alpha, gamma in ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-3)), (Fraction(-7), Fraction(49))):
        pot = staircase_potential(QQ, alpha, gamma)
        rels = relations_from_potential(pot)
        assert spans_equal(rels, staircase_relations(QQ, alpha, gamma), QQ)


def test_staircase_zero_parameters_is_w():
    rels = relations_from_potential(staircase_potential(QQ, QQ.zero, QQ.zero))
    w_rels = [
        parse_poly("x*x - z*x + z*y", QQ, NAMES),
        parse_poly("x*y - y*y", QQ, NAMES),
        parse_poly("y*z - z*x + z*y", QQ, NAMES),
    ]
    assert spans_equal(rels, w_rels, QQ)


def test_cube_normalization_regression():
    # the plain cube contributes its square to the derivative once, so the
    # x-derivative of the three-parameter potential carries coefficient r on
    # xx, matching the standard relation scaling
    r = Fraction(5)
    pot = sklyanin_potential(QQ, Fraction(2), Fraction(3), r)
    dx = relations_from_potential(pot)[0]
    assert dx.coeff((0, 0)) == r


def test_substitution_commutes_with_derivatives():
    # the chain workflow: substituting in the potential and then taking
    # derivatives spans the same space as substituting in the relations
    w = QQ_THETA.theta()
    one, zero = QQ_THETA.one, QQ_THETA.zero
    subs = [
        LinearSub.from_columns(QQ_THETA, [[one, one, one], [one, w, w * w], [one, w * w, w]]),
        LinearSub.from_columns(QQ_THETA, [[-one / 3, zero, zero], [zero, one, zero], [zero, zero, one]]),
        LinearSub.from_columns(QQ_THETA, [[one, zero, zero], [w, one, -one], [zero, zero, one]]),
    ]
    p, q = one * 2, one * 5
    pot = sklyanin_potential(QQ_THETA, p, q, one)
    rels = relations_from_potential(pot)
    for sub in subs:
        moved_pot = apply_sub(pot, sub)
        assert is_cyclically_invariant(moved_pot)
        via_potential = relations_from_potential(moved_pot)
        via_relations = [apply_sub(f, sub) for f in rels]
        assert spans_equal(via_potential, via_relations, QQ_THETA)


def test_relations_are_homogeneous_quadratics():
    pot = sum_cube_potential(QQ, Fraction(3), Fraction(-2))
    for rel in relations_from_potential(pot):
        assert rel.is_homogeneous() and rel.degree() == 2


def test_dropped_derivative_warns():
    f = NcPoly.monomial(QQ, 3, (0, 0, 0))  # x^3: y and z derivatives vanish
    with pytest.warns(UserWarning):
        rels = relations_from_potential(f)
    assert len(rels) == 1
