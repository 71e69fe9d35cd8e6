"""Field arithmetic over Q, Q(w) and GF(p)."""

import math
import random
import time
from fractions import Fraction

import pytest

from ncquad import (
    GF,
    QQ,
    QQ_THETA,
    CharThreeError,
    MixedFieldsError,
    NoCubeRootError,
    ParseError,
    ThetaRational,
    parse_field,
)
from ncquad import scalars


def brute_force_inverse(v, p):
    for k in range(1, p):
        if (k * v) % p == 1:
            return k
    raise AssertionError("not invertible")


def test_theta_inverse_is_theta_squared():
    w = QQ_THETA.theta()
    assert w.inverse() == w * w
    assert w * w == ThetaRational(-1, -1)


def test_one_plus_theta_times_minus_theta_is_one():
    w = QQ_THETA.theta()
    assert (1 + w) * (-w) == QQ_THETA.one


def test_gf31_inverse_matches_scan():
    f = GF(31)
    x = f.from_int(5)
    assert x.inverse() == f.from_int(brute_force_inverse(5, 31))
    assert x.inverse().v == 25


def test_theta_cubed_and_minimal_polynomial():
    for field in (QQ_THETA, GF(31), GF(7), GF(13)):
        th = field.theta()
        assert th ** 3 == field.one
        assert th != field.one
        assert th * th + th + field.one == field.zero


def test_theta_pow_matches_repeated_multiplication():
    rng = random.Random(8)
    values = [QQ_THETA.theta(), ThetaRational(-1)]
    values += [
        ThetaRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(8)
    ]
    for x in values:
        if not x:
            continue
        for n in range(-6, 10):
            base = x.inverse() if n < 0 else x
            expected = ThetaRational(1)
            for _ in range(abs(n)):
                expected = expected * base
            assert x**n == expected


def pair_mul(x, y):
    """(a + bw)(c + dw) on Fraction pairs, with w^2 = -1 - w."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def pair_inverse(x):
    a, b = x
    n = a * a - a * b + b * b
    return (a - b) / n, -b / n


def test_theta_operators_match_fraction_pairs():
    # the operators store their Fraction results as they are; the values,
    # the component types and the hashes must be those of the pair formulas
    rng = random.Random(17)
    parts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 7)]
    parts += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
    pairs = [(a, b) for a in parts for b in parts]
    others = [0, 1, -1, 3, Fraction(-2, 5)]

    def check(got, expected):
        assert type(got) is ThetaRational
        assert type(got.a) is Fraction and type(got.b) is Fraction
        assert (got.a, got.b) == expected
        if not expected[1]:
            assert hash(got) == hash(expected[0]) and got == expected[0]

    for x in pairs:
        tx = ThetaRational(*x)
        check(-tx, (-x[0], -x[1]))
        if any(x):
            check(tx.inverse(), pair_inverse(x))
        for y in rng.sample(pairs, 12):
            ty = ThetaRational(*y)
            check(tx + ty, (x[0] + y[0], x[1] + y[1]))
            check(tx - ty, (x[0] - y[0], x[1] - y[1]))
            check(tx * ty, pair_mul(x, y))
            if any(y):
                check(tx / ty, pair_mul(x, pair_inverse(y)))
            assert (tx == ty) == (x == y)
        for n in others:
            check(tx + n, (x[0] + n, x[1]))
            check(n + tx, (x[0] + n, x[1]))
            check(tx - n, (x[0] - n, x[1]))
            check(n - tx, (n - x[0], -x[1]))
            check(tx * n, (x[0] * n, x[1] * n))
            check(n * tx, (x[0] * n, x[1] * n))
            assert (tx == n) == (x == (n, 0))


def test_theta_pow_of_zero():
    zero = ThetaRational(0)
    assert zero**0 == 1
    assert zero**5 == 0
    with pytest.raises(ZeroDivisionError):
        zero**-1


@pytest.mark.parametrize("p", [7, 31])
def test_modp_pow_matches_repeated_multiplication(p):
    f = GF(p)
    for x in map(f.from_int, range(1, p)):
        for n in range(-6, 10):
            base = x.inverse() if n < 0 else x
            expected = f.one
            for _ in range(abs(n)):
                expected = expected * base
            assert x**n == expected
    zero = f.zero
    assert zero**0 == 1
    assert zero**5 == 0
    with pytest.raises(ZeroDivisionError):
        zero**-1


@pytest.mark.parametrize("field", [QQ_THETA, GF(7), GF(31)])
def test_reflected_operators_match_forward_ones(field):
    rng = random.Random(31 + field.characteristic())
    others = [-3, 0, 1, 5]
    if field is QQ_THETA:
        others += [Fraction(2, 3), Fraction(-7, 5)]
    for _ in range(30):
        x = random_scalar(field, rng)
        for c in others:
            lifted = ThetaRational(c) if field is QQ_THETA else field.from_int(c)
            assert c - x == lifted - x == -(x - c)
            if x:
                assert c / x == lifted / x == lifted * x.inverse()


@pytest.mark.parametrize("field", [QQ_THETA, GF(31)])
def test_unsupported_operand_raises_type_error(field):
    x = field.theta()
    for op in (
        lambda: x - 1.5,
        lambda: 1.5 - x,
        lambda: x / 1.5,
        lambda: 1.5 / x,
        lambda: x / "2",
        lambda: "2" / x,
        lambda: x**1.5,
        lambda: x ** field.one,
    ):
        with pytest.raises(TypeError):
            op()


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_cube_root_smallest_residue():
    assert GF(31).theta().v == 5
    assert GF(7).theta().v == 2
    for p in range(7, 20000, 3):
        if trial_division_is_prime(p):
            scan = next(r for r in range(2, p) if pow(r, 3, p) == 1)
            assert GF(p).theta().v == scan, p
    assert GF(2147483647).theta().v == 634005911


def test_modp_hash_agrees_with_int_equality():
    x = GF(31).from_int(1)
    assert len({x, 1}) == 1
    assert hash(x) == hash(x.v)
    assert x == 1
    assert x != 32


def test_cube_root_unavailable():
    with pytest.raises(NoCubeRootError):
        QQ.theta()
    with pytest.raises(NoCubeRootError):
        GF(5).theta()


def test_char_three_rejected():
    with pytest.raises(CharThreeError):
        GF(3)
    with pytest.raises(ValueError):
        GF(10)


def test_prime_field_size_is_bounded(monkeypatch):
    assert GF(2147483647).p == 2**31 - 1
    assert GF(1000000000039).theta() ** 3 == 1

    def no_test(n):
        raise AssertionError("primality test started")

    # 2^89 - 1 is prime, but above the limit, and the limit psi_13 itself
    # passes all 13 Miller-Rabin bases though it is 1287836182261 *
    # 2575672364521: both are refused before any primality test, with the
    # limit in the message
    psi13 = 1287836182261 * 2575672364521
    assert psi13 == scalars._PRIME_LIMIT == 3317044064679887385961981 and scalars._is_prime(psi13)
    monkeypatch.setattr(scalars, "_is_prime", no_test)
    for p in (2**89 - 1, psi13):
        with pytest.raises(ValueError, match="needs p < 3317044064679887385961981"):
            GF(p)


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(10**5) if scalars._is_prime(n)] == [n for n in range(10**5) if trial_division_is_prime(n)]
    # strong pseudoprimes to the first 4, 5, 6 and 8 prime bases
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not scalars._is_prime(n), n
    assert scalars._is_prime(2**61 - 1) and not scalars._is_prime((2**31 - 1) * (2**61 - 1))


def test_largest_prime_field_builds_at_once():
    # 3317044064679887385961813 is the largest prime below the limit, and
    # 99999999999973 the largest below the old limit 10^14, which trial
    # division took 0.83 s to accept
    for p in (3317044064679887385961813, 99999999999973):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert GF(p).p == p
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01
    assert not any(scalars._is_prime(n) for n in range(3317044064679887385961815, scalars._PRIME_LIMIT, 2))


def test_rational_values_are_ints_where_integral():
    # int arithmetic takes no gcd, so an engine computes with the int of an
    # integral rational and settles an integral sum back to one
    assert type(QQ.lift(QQ.parse("-6"))) is int and QQ.lift(QQ.parse("-6")) == -6
    assert type(QQ.lift(QQ.parse("3/4"))) is Fraction
    assert type(QQ.settle(Fraction(1, 2) + Fraction(3, 2))) is int
    assert QQ.settle(Fraction(1, 3) * 2) == Fraction(2, 3)
    assert type(QQ.element(5)) is Fraction


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ_THETA.one / QQ_THETA.zero
    with pytest.raises(ZeroDivisionError):
        GF(31).one / GF(31).zero


def test_mixed_prime_fields_rejected():
    with pytest.raises(MixedFieldsError):
        GF(31).one + GF(7).one


@pytest.mark.parametrize("field", [QQ, QQ_THETA, GF(31), GF(7)])
def test_inverse_involution(field):
    rng = random.Random(20240 + field.characteristic())
    for _ in range(50):
        x = random_scalar(field, rng)
        if not x:
            continue
        assert x.inverse().inverse() == x if hasattr(x, "inverse") else True
        assert x * (field.one / x) == field.one
        assert (field.one / x) * x == field.one


def random_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if field is QQ_THETA:
        return ThetaRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
    return field.from_int(rng.randrange(field.characteristic()))


@pytest.mark.parametrize("field", [QQ, QQ_THETA, GF(31)])
def test_render_parse_round_trip(field):
    rng = random.Random(7 + field.characteristic())
    for _ in range(100):
        x = random_scalar(field, rng)
        assert field.parse(field.render(x)) == x


def test_theta_literals():
    assert QQ_THETA.parse("w") == ThetaRational(0, 1)
    assert QQ_THETA.parse("-w") == ThetaRational(0, -1)
    assert QQ_THETA.parse("2*w") == ThetaRational(0, 2)
    assert QQ_THETA.parse("1/2-3*w") == ThetaRational(Fraction(1, 2), -3)
    assert QQ_THETA.parse("-1+w") == ThetaRational(-1, 1)
    assert QQ_THETA.render(ThetaRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*w"
    with pytest.raises(ParseError):
        QQ_THETA.parse("1w")
    with pytest.raises(ParseError):
        QQ.parse("0.5")
    for field, text in ((QQ_THETA, "w+1"), (QQ_THETA, "2*w*w"), (GF(31), "1/2")):
        with pytest.raises(ParseError) as exc:
            field.parse(text)
        assert str(exc.value) == f"bad {field.name()} literal {text!r}"


def test_zero_denominator_is_a_parse_error():
    for field, text in ((QQ, "1/0"), (QQ, "-3/0"), (QQ_THETA, "1/0"), (QQ_THETA, "1+1/0*w"), (QQ_THETA, "1/0-w")):
        with pytest.raises(ParseError):
            field.parse(text)


def test_parse_field_names():
    assert parse_field("Q") is QQ
    assert parse_field("Q(w)") is QQ_THETA
    assert parse_field("GF(31)") == GF(31)
    with pytest.raises(ParseError):
        parse_field("R")
    # a GF(n) that is no field the package takes is refused at the text
    # boundary; the constructor keeps its ValueError
    for text, detail in (("GF(4)", "4 is not prime"), ("GF(1)", "1 is not prime"),
                         ("GF(3317044064679887385961981)", "needs p < 3317044064679887385961981")):
        with pytest.raises(ParseError, match=detail.replace("^", r"\^")):
            parse_field(text)
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(CharThreeError):
        parse_field("GF(3)")


@pytest.mark.parametrize("field", [QQ, QQ_THETA, GF(7), GF(31), GF(1000003), GF(10**13 + 37)])
def test_field_value_hooks(field):
    # the exact engines compute on lift(x), settle sums and build elements
    # back with element(); for every field this must be field arithmetic
    rng = random.Random(41 + field.characteristic())
    lift, settle, element = field.lift, field.settle, field.element
    p = field.characteristic()
    element_type = type(field.one)
    for _ in range(200):
        a, b, c = (random_scalar(field, rng) for _ in range(3))
        if rng.random() < 0.25:
            c = -(a * b)  # a sum that is zero, over GF(p) a nonzero multiple of p
        v = settle(lift(a) * lift(b) + lift(c))
        assert element(v) == a * b + c
        assert type(element(v)) is element_type
        assert bool(v) == bool(a * b + c)
        assert element(settle(lift(a))) == a
        if p:
            assert type(v) is int and 0 <= v < p
            assert element(v) is element(v)  # one object per residue
    assert not settle(lift(field.zero)) and settle(lift(field.one))
