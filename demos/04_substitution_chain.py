#!/usr/bin/env python3
"""The change-of-variables chain onto the staircase presentation.

Four substitutions drive a normalized presentation onto one whose relations
have leading words xx, xy, yz.  From there a two-term coefficient recursion
predicts the whole infinite reduced basis, element by element -- or detects
the finite-basis branch.  Both predictions are checked against the actual
completion.
"""

from ncquad import (
    QQ_THETA,
    complete,
    expected_normal_words,
    normal_words,
    coefficient_recursion,
    render_word,
    staircase_presentation,
    substitution_chain,
)

field = QQ_THETA
a, b = field.one, field.parse("2")
res = substitution_chain(field, a, b)
ap, bp = res.ab_coeffs
print(f"chain from the normalized pair (1, 2):")
print(f"   intermediate coefficients: {field.render(ap)} and {field.render(bp)}")
print(f"   staircase parameters: alpha = {field.render(res.alpha)}, gamma = {field.render(res.gamma)}")
print(f"   closed forms agree: alpha {res.alpha_matches_formula}, gamma {res.gamma_matches_formula}")

states = coefficient_recursion(field, res.alpha, res.gamma, 8)
print("\nrecursion trace:")
for s in states:
    print(f"   k={s.k}  a_k={field.render(s.a):>4}  b_k={field.render(s.b):>4}  {s.outcome.value}")

pres = staircase_presentation(field, res.alpha, res.gamma)
basis = complete(pres, 8)
print(f"\ncompleted basis to degree 8: {len(basis.elements)} elements, leading words")
print("   ", " ".join(render_word(g.leading_word(basis.order), pres.names) for g in basis.elements))

generic = coefficient_recursion(field, field.parse("4"), field.parse("4"), 8)
print("\na generic parameter pair stays in the infinite branch:")
print("   outcomes:", [s.outcome.value for s in generic])
gpres = staircase_presentation(field, field.parse("4"), field.parse("4"))
gbasis = complete(gpres, 8)
match = all(normal_words(gbasis, d) == expected_normal_words(d) for d in range(9))
print("   normal words match the predicted two-parameter family:", match)
