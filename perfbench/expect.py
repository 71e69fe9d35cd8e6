"""Expected answers computed without the code the benchmark times.

Every operation's output is compared against values from this module:
closed-form Hilbert series, the class of a Sklyanin triple read off its
parameters, the 24-point orbit written out as explicit fractional maps, and a
primitive cube root found by exponentiation. None of it calls `complete`,
the dimension oracle, the quadratic layer or the classification code.
"""

from fractions import Fraction

from ncquad.linalg import row_space_equal
from ncquad.ncpoly import apply_sub, degree_lex
from ncquad.scalars import ThetaRational, _ModPBase

X, Y, Z = 0, 1, 2
WORDS2 = sorted(((i, j) for i in range(3) for j in range(3)), key=degree_lex(3).key, reverse=True)
STAIRCASE_LEADS = [(X, X), (X, Y), (Y, Z)]


def binomial_series(degree):
    return [(d + 1) * (d + 2) // 2 for d in range(degree + 1)]


def free_series(degree):
    return [3**d for d in range(degree + 1)]


def monomial_series(degree):
    """(1 + t) / (1 - 2t): the two monomial Sklyanin classes."""
    return [1] + [3 * 2 ** (d - 1) for d in range(1, degree + 1)]


def expand_series(num, den, degree):
    """Power-series coefficients of num/den, den[0] == 1."""
    out = []
    for n in range(degree + 1):
        c = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c)
    return out


def w_series(degree):
    """The paper's series of w.alg, (1+2t+3t^2+3t^3+2t^4+t^5)/(1-t-t^3-2t^4)."""
    return expand_series([1, 2, 3, 3, 2, 1], [1, -1, 0, -1, -2], degree)


def w_dual_series(degree):
    return [[1, 3, 3, 1][d] if d < 4 else 0 for d in range(degree + 1)]


# Koszul data per series class: (koszul_defect at degree 6, dual hypotheses as
# (dual4_zero, dual3_dim, no left annihilator, no right annihilator), right
# annihilator dimensions for d = 1..5). Non-degenerate Sklyanin algebras are
# Koszul domains with dual series (1+t)^3 and a Frobenius dual; monomial ones
# have dual series 1+3t+3t^2+...; the w.alg rows follow by hand from the
# bases of acceptance 4b/4c and the series above (dual3_dim of w_dual is
# dim A_3 = 10 of w.alg). The w.alg annihilator row has no closed form and is
# the value recorded when this benchmark was written.
KOSZUL = {
    "free": (None, (True, 0, False, False), [0] * 5),
    "monomial": (None, (False, 3, True, True), [0] * 5),
    "binomial": (None, (True, 1, True, True), [0] * 5),
    "w": (4, (True, 1, True, True), [0] * 5),
    "w_dual": (4, (False, 10, True, True), [0, 0, 1, 0, 0]),
}

SERIES = {
    "free": free_series,
    "monomial": monomial_series,
    "binomial": binomial_series,
    "w": w_series,
    "w_dual": w_dual_series,
}


def sklyanin_class(p, q, r):
    """'free', 'monomial', 'quantum' or 'generic' for the triple (p, q, r),
    from the parameter conditions of the classification."""
    if not (p or q or r):
        return "free"
    if not (p * q or p * r or q * r) or (p**3 == q**3 and q**3 == r**3):
        return "monomial"
    if r and (p or q) and (p + q) ** 3 + r**3:
        return "generic"
    return "quantum"


def series_class(kind):
    return {"free": "free", "monomial": "monomial"}.get(kind, "binomial")


def cube_root(field):
    """A primitive cube root of unity: w in Q(w), g^((p-1)/3) in GF(p)."""
    p = field.characteristic()
    if p == 0:
        return ThetaRational(0, 1)
    for g in range(2, p):
        t = pow(g, (p - 1) // 3, p)
        if t != 1:
            return field.from_int(t)
    raise ValueError(f"GF({p}) has no primitive cube root of unity")


def orbit_family(a, b, th, one):
    """The orbit of the normalized pair (a, b) under the 24-element group,
    written out as the explicit maps of acceptance 9."""
    powers = [one, th, th * th]
    fam = set()
    for j in range(3):
        fam.add((powers[j] * a, powers[j] * b))
        fam.add((powers[j] * b, powers[j] * a))
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            for m in range(3):
                d = a + b + powers[(j + k + m) % 3]
                fam.add(
                    (
                        (powers[j] * a + powers[k] * b + powers[m]) / d,
                        (powers[k] * a + powers[j] * b + powers[m]) / d,
                    )
                )
    return fam


def relation_rows(relations):
    return [[rel.coeff(w) for w in WORDS2] for rel in relations]


def transports(sub, source, target):
    """True if `sub` carries the relation space of `source` onto `target`'s."""
    moved = [apply_sub(rel, sub) for rel in source.relations]
    return row_space_equal(relation_rows(moved), relation_rows(target.relations), source.field)


def recursion_consistent(states, alpha, gamma):
    """Each Continue step's successor solves the step's 3x3 system, and a Sigma
    step has proportional first two columns."""
    for s, nxt in zip(states, states[1:]):
        a, b = s.a, s.b
        m = [[-1, 1, b + alpha], [alpha, b - a, -gamma], [a - 1, 1, alpha]]
        v = (nxt.a, nxt.b, 1)
        if any(row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in m):
            return False
    last = states[-1]
    if last.outcome.value == "Sigma":
        a, b = last.a, last.b
        col0, col1 = (-1, alpha, a - 1), (1, b - a, 1)
        return not any(col0[i] * col1[j] - col0[j] * col1[i] for i in range(3) for j in range(i + 1, 3))
    return last.outcome.value == "Continue"


def scalar_bits(c):
    """Size of an exact scalar in bits: the largest numerator or denominator."""
    if isinstance(c, ThetaRational):
        return max(scalar_bits(c.a), scalar_bits(c.b))
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, _ModPBase):
        return c.v.bit_length()
    return int(c).bit_length()
