"""Field arithmetic over Q, Q(w) and GF(p)."""

import math
import random
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

    def no_division(n):
        raise AssertionError("trial division started")

    # 2^89 - 1 is prime, but trial division would take 2^44 steps: it is
    # refused before any division, with the limit in the message
    monkeypatch.setattr(scalars, "_is_prime", no_division)
    for p in (2**89 - 1, 10**14):
        with pytest.raises(ValueError, match=r"10\^14"):
            GF(p)


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
