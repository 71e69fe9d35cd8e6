#!/usr/bin/env python3
"""Quadratic duals and bounded Koszulity certificates.

A Koszul algebra satisfies H_A(-t) H_dual(t) = 1.  The engine reports the
first degree where the truncated product deviates, together with the
finitely checkable dual-algebra hypotheses that let the deviation decide
Koszulity.  The cubic potential with both staircase parameters zero gives a
quadratic potential algebra where the identity genuinely fails.
"""

from fractions import Fraction

from ncquad import (
    QQ,
    QuadraticAlgebra,
    dual_hypotheses,
    dual_algebra,
    koszul_defect,
    relations_from_potential,
    render_poly,
    right_annihilator_dim,
    sklyanin_presentation,
    staircase_potential,
    Presentation,
)

generic = QuadraticAlgebra(sklyanin_presentation(QQ, QQ.one, Fraction(2), QQ.one))
print("generic presentation (1, 2, 1):")
print("   dual series:", dual_algebra(generic).hilbert(5))
print("   series-identity defect up to degree 8:", koszul_defect(generic, 8))
print("   dual hypotheses:", dual_hypotheses(generic))

pot = staircase_potential(QQ, QQ.zero, QQ.zero)
rels = relations_from_potential(pot)
pres = Presentation(QQ, 3, tuple(rels))
print("\npotential-algebra counterexample, relations:")
for rel in rels:
    print("   ", render_poly(rel, pres.names))
alg = QuadraticAlgebra(pres)
print("   series (engine):", alg.hilbert(6))
print("   dual series:    ", dual_algebra(alg).hilbert(6))
print("   first defect of H(-t) H_dual(t):", koszul_defect(alg, 6))
print("   right annihilators in degrees 1..4:",
      [right_annihilator_dim(alg, d) for d in range(1, 5)])
