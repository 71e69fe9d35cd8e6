"""Free-algebra polynomials, the monomial order, substitutions, cyclic maps."""

import random
from fractions import Fraction

import pytest

from ncquad import GF, QQ, QQ_THETA, MixedFieldsError, ParseError, ThetaRational, UnknownGeneratorError
from ncquad.ncpoly import (
    LinearSub,
    NcPoly,
    apply_sub,
    cyclic_derivative,
    cyclic_shift,
    cyclize,
    degree_lex,
    is_cyclically_invariant,
    parse_poly,
    render_poly,
)

NAMES = ("x", "y", "z")
ORD3 = degree_lex(3)
X, Y, Z = 0, 1, 2


def poly(text, field=QQ):
    return parse_poly(text, field, NAMES)


def mono(word, field=QQ):
    return NcPoly.monomial(field, 3, word)


def test_poly_arith_examples():
    assert poly("x*y + y*x") - poly("y*x") == poly("x*y")
    assert mono((X,)) * mono((Y, Z)) == mono((X, Y, Z))
    assert poly("x + y") * poly("x - y") == poly("x*x - x*y + y*x - y*y")


def test_arith_matches_reference_sums():
    # +, - and * all sum through from_pairs; the reference adds word by word
    # and drops zeros at the end, and GF(7) makes many sums cancel
    f7 = GF(7)
    rng = random.Random(11)

    def random_poly():
        words = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))) for _ in range(6)]
        return NcPoly(f7, 2, {w: f7.from_int(rng.randrange(7)) for w in words})

    def reference(pairs):
        out = {}
        for w, c in pairs:
            out[w] = out.get(w, f7.zero) + c
        return {w: c for w, c in out.items() if c}

    for _ in range(200):
        f, g = random_poly(), random_poly()
        assert (f + g).terms == reference([*f.terms.items(), *g.terms.items()])
        assert (f - g).terms == reference([*f.terms.items(), *((w, -c) for w, c in g.terms.items())])
        assert (f * g).terms == reference([(u + v, a * b) for u, a in f.terms.items() for v, b in g.terms.items()])
        assert not f - f


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldsError):
        poly("x") + poly("x", QQ_THETA)


def test_compare_words():
    key = ORD3.key
    assert key((X, Y)) > key((Z, Z))
    assert key((X,)) < key((Y, Z))
    assert key((X, Y)) == key((X, Y))
    # xx > xy > yz, the leading words of the triangular presentation
    ws = sorted([(X, Y), (Y, Z), (X, X)], key=ORD3.key, reverse=True)
    assert ws == [(X, X), (X, Y), (Y, Z)]


def random_word(rng, maxlen=4):
    return tuple(rng.randrange(3) for _ in range(rng.randint(0, maxlen)))


def test_order_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        u, v = random_word(rng), random_word(rng)
        if ORD3.key(u) == ORD3.key(v):
            continue
        if ORD3.key(u) > ORD3.key(v):
            u, v = v, u
        a, b = random_word(rng, 3), random_word(rng, 3)
        assert ORD3.key(a + u + b) < ORD3.key(a + v + b)


def test_cyclic_shift_examples():
    assert cyclic_shift(mono((X, Y, Z))) == mono((Y, Z, X))
    assert cyclic_shift(mono(())) == mono(())
    assert cyclic_shift(mono((X,))) == mono((X,))


def test_cyclize_examples():
    x4 = mono((X, X, X, X))
    assert cyclize(x4) == x4.scale(Fraction(4))
    assert cyclize(mono((X, X, Y))) == poly("x*x*y + x*y*x + y*x*x")
    assert cyclize(mono((X, Y, Z))) == poly("x*y*z + y*z*x + z*x*y")


def test_cyclize_shift_invariance():
    rng = random.Random(5)
    for _ in range(50):
        f = NcPoly.from_pairs(
            QQ, 3, [(random_word(rng), Fraction(rng.randint(-3, 3))) for _ in range(4)]
        )
        assert cyclize(cyclic_shift(f)) == cyclize(f)
        assert is_cyclically_invariant(cyclize(f))


def test_shift_period():
    rng = random.Random(6)
    for _ in range(50):
        w = random_word(rng)
        f = mono(w)
        g = f
        for _ in range(max(len(w), 1)):
            g = cyclic_shift(g)
        assert g == f


def test_cyclic_derivative_examples():
    assert cyclic_derivative(mono((X, Y, Z)), X) == mono((Y, Z))
    assert not cyclic_derivative(mono((X, Y, Z)), Y)
    assert cyclic_derivative(cyclize(mono((X, X, Y))), X) == poly("x*y + y*x")


def test_cyclically_invariant_examples():
    assert is_cyclically_invariant(cyclize(mono((X, X, Y))))
    assert not is_cyclically_invariant(mono((X, X, Y)))
    f = (
        poly("x*x*x + y*y*y + z*z*z")
        + cyclize(mono((X, Y, Z)))
        + cyclize(mono((X, Z, Y)))
    )
    assert is_cyclically_invariant(f)


def theta_sub_root2():
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    return LinearSub.from_columns(
        QQ_THETA,
        [[one, one, one], [one, w, w * w], [one, w * w, w]],
    )


def sklyanin_relations(field, p, q, r):
    pairs = [
        [((Y, Z), p), ((Z, Y), q), ((X, X), r)],
        [((Z, X), p), ((X, Z), q), ((Y, Y), r)],
        [((X, Y), p), ((Y, X), q), ((Z, Z), r)],
    ]
    return [NcPoly.from_pairs(field, 3, pr) for pr in pairs]


def span_matrix(polys, field):
    from ncquad.linalg import rref

    words = [(i, j) for i in range(3) for j in range(3)]
    cols = sorted(words, key=ORD3.key, reverse=True)
    rows = [[f.coeff(wd) for wd in cols] for f in polys]
    return rref(rows, field)


def test_identity_sub():
    f = poly("x*y - 2*z*z")
    assert apply_sub(f, LinearSub.identity(QQ, 3)) == f


def test_root_of_unity_sub_transports_relations():
    # x,y,z -> x+y+z, x+wy+w^2z, x+w^2y+wz turns parameters (p,q,r) into
    # (w^2 p + w q + r, w p + w^2 q + r, p + q + r)
    w = QQ_THETA.theta()
    one = QQ_THETA.one
    p, q, r = one * 2, one * 5, one * 3
    sub = theta_sub_root2()
    src = sklyanin_relations(QQ_THETA, p, q, r)
    moved = [apply_sub(f, sub) for f in src]
    pp = w * w * p + w * q + r
    qp = w * p + w * w * q + r
    rp = p + q + r
    target = sklyanin_relations(QQ_THETA, pp, qp, rp)
    assert span_matrix(moved, QQ_THETA) == span_matrix(target, QQ_THETA)


def test_scaling_sub_transports_relations():
    # z -> w^2 z sends (p,q,r) to (p,q,wr)
    w = QQ_THETA.theta()
    one, zero = QQ_THETA.one, QQ_THETA.zero
    sub = LinearSub.from_columns(
        QQ_THETA, [[one, zero, zero], [zero, one, zero], [zero, zero, w * w]]
    )
    p, q, r = one * 2, one * 3, one * 4
    moved = [apply_sub(f, sub) for f in sklyanin_relations(QQ_THETA, p, q, r)]
    target = sklyanin_relations(QQ_THETA, p, q, w * r)
    assert span_matrix(moved, QQ_THETA) == span_matrix(target, QQ_THETA)


def test_sub_composition_and_degree():
    rng = random.Random(9)
    for _ in range(20):
        f = NcPoly.from_pairs(
            QQ, 3, [(random_word(rng), Fraction(rng.randint(-3, 3))) for _ in range(3)]
        )
        m1 = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        s1 = LinearSub(QQ, tuple(map(tuple, m1)))
        s2 = LinearSub(QQ, tuple(map(tuple, m2)))
        assert apply_sub(apply_sub(f, s1), s2) == apply_sub(f, s2.compose(s1))
        g = f.homogeneous_component(3)
        if g:
            h = apply_sub(g, s1)
            assert (not h) or (h.is_homogeneous() and h.degree() == 3)


def expand_reference(sub, f):
    """The word-by-word expansion `LinearSub.apply` replaced: every word is
    the product of its letters' image polynomials, summed with `+`."""
    images = [sub.image(j) for j in range(sub.ngens)]
    out = NcPoly.zero(f.field, f.ngens)
    for w, c in f.terms.items():
        prod = NcPoly.monomial(f.field, f.ngens, (), c)
        for g in w:
            prod = prod * images[g]
        out = out + prod
    return out


def random_coeff(field, rng):
    """A random scalar of `field`, zero one time in four."""
    if rng.random() < 0.25:
        return field.zero
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if field is QQ_THETA:
        return ThetaRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-3, 3))
    return field.from_int(rng.randrange(31))


def random_sub(field, n, rng, shape):
    """An n x n substitution: dense, singular (one column a multiple of
    another) or with a zero column."""
    cols = [[random_coeff(field, rng) for _ in range(n)] for _ in range(n)]
    j, k = rng.sample(range(n), 2)
    if shape == "singular":
        c = random_coeff(field, rng)
        cols[k] = [c * v for v in cols[j]]
    elif shape == "zero column":
        cols[k] = [field.zero] * n
    return LinearSub.from_columns(field, cols)


@pytest.mark.parametrize("field", [GF(31), QQ, QQ_THETA], ids=["GF31", "Q", "Qw"])
def test_apply_matches_word_expansion(field):
    rng = random.Random(21)
    for n in (2, 3, 4):
        names = tuple(f"x{i}" for i in range(n))
        for trial in range(24):
            size = 0 if trial == 0 else rng.randint(1, 8)
            pairs = [
                (tuple(rng.randrange(n) for _ in range(rng.randint(0, 4))), random_coeff(field, rng))
                for _ in range(size)
            ]
            if trial % 3 == 1:
                pairs.append(((), field.one))
            f = NcPoly.from_pairs(field, n, pairs)
            for shape in ("dense", "singular", "zero column"):
                sub = random_sub(field, n, rng, shape)
                got, want = apply_sub(f, sub), expand_reference(sub, f)
                assert got == want
                assert render_poly(got, names) == render_poly(want, names)


def test_render_parse_round_trip():
    rng = random.Random(13)
    for field in (QQ, QQ_THETA, GF(31)):
        for _ in range(60):
            if field is QQ:
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(4)]
            elif field is QQ_THETA:
                coeffs = [
                    ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)
                ]
            else:
                coeffs = [field.from_int(rng.randrange(31)) for _ in range(4)]
            f = NcPoly.from_pairs(field, 3, [(random_word(rng), c) for c in coeffs])
            if not f:
                continue
            assert parse_poly(render_poly(f, NAMES), field, NAMES) == f


def test_render_exact_strings():
    gf = GF(31)
    q, t = Fraction, ThetaRational
    cases = [
        (QQ, [], "0"),
        (QQ, [((), q(-3, 2))], "-3/2"),
        (QQ, [((X, Y), q(1)), ((), q(2))], "x*y + 2"),
        (QQ, [((X, Y), q(-1)), ((Z,), q(1, 2))], "-x*y + 1/2*z"),
        (QQ_THETA, [((), t(0, 1))], "w"),
        (QQ_THETA, [((), t(0, -1))], "-w"),
        (QQ_THETA, [((), t(0, 3))], "3*w"),
        (QQ_THETA, [((), t(2, -1))], "2 - w"),
        (QQ_THETA, [((X, Y), t(0, 1))], "w*x*y"),
        (QQ_THETA, [((X,), t(0, q(-1, 2)))], "-1/2*w*x"),
        (QQ_THETA, [((X, Y), t(1, 1))], "x*y + w*x*y"),
        (QQ_THETA, [((X, Y), t(-1, -2)), ((Z,), t(0, 1))], "-x*y - 2*w*x*y + w*z"),
        (gf, [((X, Y), gf.one), ((Z,), gf.from_int(30))], "x*y + 30*z"),
        (gf, [((), gf.from_int(30)), ((), gf.from_int(2))], "1"),
    ]
    for field, pairs, text in cases:
        f = NcPoly.from_pairs(field, 3, pairs)
        assert render_poly(f, NAMES) == text
        assert parse_poly(text, field, NAMES) == f


def test_parse_juxtaposed_words():
    assert poly("xyz") == mono((X, Y, Z))
    assert poly("x*y*z") == mono((X, Y, Z))
    assert poly("3*xy - z*z") == mono((X, Y)).scale(Fraction(3)) - mono((Z, Z))


def test_juxtaposed_run_splits_in_one_way():
    # a run reads only as its unique split into names, not greedily
    names = ("a", "ab", "bcd")
    assert parse_poly("abcd", QQ, names) == NcPoly.monomial(QQ, 3, (0, 2))
    assert parse_poly("ab", QQ, names) == NcPoly.monomial(QQ, 3, (1,))  # a name stays that name
    names = tuple(f"x{k}" for k in range(12))
    assert parse_poly("x10x1 + x1x10x0", QQ, names) == NcPoly.from_pairs(
        QQ, 12, [((10, 1), QQ.one), ((1, 10, 0), QQ.one)]
    )
    for names, text, readings in (
        (("a", "ab", "bc", "c"), "abc", "a*bc and as ab*c"),
        (("x", "xx"), "xxx - xx*x", "x*x*x and as x*xx"),
        (("x", "xx"), "3*yxx", None),
    ):
        kind = ParseError if readings else UnknownGeneratorError
        with pytest.raises(kind) as exc:
            parse_poly(text, QQ, names)
        assert type(exc.value) is kind
        if readings:
            assert str(exc.value) == f"ambiguous word {text.split()[0]!r}: reads as {readings}"


def test_parse_theta_coefficient():
    w = QQ_THETA.theta()
    f = parse_poly("x*y + w*y*x + z*z", QQ_THETA, NAMES)
    assert f.coeff((Y, X)) == w
    assert f.coeff((X, Y)) == QQ_THETA.one
