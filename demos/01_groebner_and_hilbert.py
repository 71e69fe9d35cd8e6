#!/usr/bin/env python3
"""Truncated Groebner bases and Hilbert series, cross-checked two ways.

We complete a three-generator quadratic presentation to a degree bound,
enumerate its normal words, and compare the resulting dimension counts with
an independent oracle that never looks at the basis: it builds each graded
piece from generators times a basis of the previous one, modulo the relation
rows, by exact row reduction.
"""

from ncquad import (
    GF,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
    normal_words,
    render_poly,
    render_word,
    sklyanin_presentation,
)

field = GF(31)
p, q, r = field.from_int(1), field.from_int(2), field.from_int(1)
pres = sklyanin_presentation(field, p, q, r)

print("defining relations over", field.name())
for rel in pres.relations:
    print("   ", render_poly(rel, pres.names))

basis = complete(pres, 8)
print(f"\nreduced basis certified to degree {basis.degree_bound}:"
      f" {len(basis.elements)} elements")
for g in basis.elements[:8]:
    print("   ", render_poly(g, pres.names))
print("    ...")

print("\nnormal words of degree 3:")
print("   ", " ".join(render_word(w, pres.names) for w in normal_words(basis, 3)))

h = hilbert_coeffs(basis, 8)
print("\ndimensions from normal words:", h)
print("dimensions from the oracle:   ", [graded_dim_oracle(pres, d) for d in range(7)], "(degrees 0..6)")
print("commutative-polynomial counts:", [(d + 1) * (d + 2) // 2 for d in range(9)])
