"""Potential algebras: relations as cyclic derivatives of a cyclically
invariant element, and the specific cubic potentials the Sklyanin layer
works with.

A potential is a plain `NcPoly`.  The constructors below build theirs from
plain cubes and cyclizations, so they are invariant by construction;
`relations_from_potential` checks invariance, since that is where a
potential from outside comes in.

The convention fixed here stores plain powers like x^3 as the monomial
itself (not as a third of its cyclization), and the derivative simply drops
the first letter of every word starting with the chosen generator.  Under
this convention the three-parameter potential below reproduces the standard
Sklyanin relations verbatim.
"""

from __future__ import annotations

import warnings

from .ncpoly import NcPoly, cyclic_derivative, cyclize, is_cyclically_invariant

X, Y, Z = 0, 1, 2


def relations_from_potential(f: NcPoly) -> list:
    """One relation per generator: the cyclic derivative by that generator.

    Raises ValueError unless f is cyclically invariant.  Vanishing
    derivatives are dropped with a warning, since they present the same
    algebra with fewer relations.
    """
    if not is_cyclically_invariant(f):
        raise ValueError("potential is not cyclically invariant")
    out = []
    for j in range(f.ngens):
        d = cyclic_derivative(f, j)
        if d:
            out.append(d)
        else:
            warnings.warn(f"derivative by generator {j} vanishes; relation dropped")
    return out


def sklyanin_potential(field, p, q, r) -> NcPoly:
    """r(x^3+y^3+z^3) + p(xyz + yzx + zxy) + q(xzy + zyx + yxz)."""
    cubes = NcPoly.from_pairs(
        field, 3, [((X, X, X), r), ((Y, Y, Y), r), ((Z, Z, Z), r)]
    )
    return (
        cubes
        + cyclize(NcPoly.monomial(field, 3, (X, Y, Z), p))
        + cyclize(NcPoly.monomial(field, 3, (X, Z, Y), q))
    )


def sum_cube_potential(field, a, b) -> NcPoly:
    """(x+y+z)^3 + a(xyz + yzx + zxy) + b(xzy + zyx + yxz)."""
    s = NcPoly.from_pairs(field, 3, [((X,), field.one), ((Y,), field.one), ((Z,), field.one)])
    return (
        s * s * s
        + cyclize(NcPoly.monomial(field, 3, (X, Y, Z), a))
        + cyclize(NcPoly.monomial(field, 3, (X, Z, Y), b))
    )


def staircase_potential(field, alpha, gamma) -> NcPoly:
    """The cubic potential whose derivative span is the staircase relation
    space with leading words xx, xy, yz:

        x^3 - (xyz)~ + (yyz)~ + alpha (yzz)~ - (gamma - alpha^2) z^3

    where ~ denotes cyclization.  The derivatives come out as g1 - g3, g3 and
    alpha g3 - g2 for the three staircase relations g1, g2, g3.
    """
    one = field.one
    return (
        NcPoly.monomial(field, 3, (X, X, X), one)
        - cyclize(NcPoly.monomial(field, 3, (X, Y, Z), one))
        + cyclize(NcPoly.monomial(field, 3, (Y, Y, Z), one))
        + cyclize(NcPoly.monomial(field, 3, (Y, Z, Z), alpha))
        - NcPoly.monomial(field, 3, (Z, Z, Z), gamma - alpha * alpha)
    )
