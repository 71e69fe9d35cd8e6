"""Exact coefficient fields: Q, Q(w) with w a primitive cube root of unity, GF(p).

Elements are plain arithmetic objects -- `fractions.Fraction` for Q,
`ThetaRational` for Q(w), and per-prime modular integers for GF(p) -- all
supporting +, -, *, /, ** and truth testing, so the rest of the package can
stay field-generic.  The two classes defined here each write their own hot
operators (+, -, *, unary -, ==, hash, truth and `inverse`) and share one
body each of reflected subtraction, division and powers, in `_Element`.
Field objects describe the domain, build and parse elements, and hand out
the cube root of unity where one exists.

Exact engines (the reduction kernel, the sparse echelon, the dimension
oracle) compute on values, not elements, through three hooks of the field:
`lift(x)` is the value of an element, sums and products of values stay
unsettled, `settle(v)` makes a sum canonical (false exactly at zero), and
`element(v)` turns a settled value back into an element; `lift` of a value
is that value.  Over Q(w) all three return their argument.  Over Q a value
is an int where the rational is integral, since int arithmetic takes no
gcd, and the `Fraction` otherwise; `settle` turns an integral `Fraction`
back into an int.  Over GF(p) a value is an int, settled to its residue in
[0, p), so a sum is reduced mod p once, when it is read, and `element`
returns one object per residue.

Text syntax for scalars (presentation files and the command line): an
integer, `num/den`, or `a+b*w` / `a-b*w` where `w` denotes the cube root.
Each field owns the text of its coefficients: `Field.parts` splits an
element into (value, unit) pairs, `Field.units` maps each unit name a
polynomial may use as a factor (`w` over Q(w)) to its element, and
`write_terms` is the one writer of signed terms, for scalars and
polynomials alike.  Rendering is the canonical inverse of parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import CharThreeError, MixedFieldsError, NoCubeRootError, ParseError

_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


class _Element:
    """Operators a field element derives from its own `_coerce`, `-`, `*` and
    `inverse`; each scalar class defines those and the other hot operators."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        # repeated squaring from the base: x**3 takes 2 products, x**8 takes 3
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self._coerce(1) if out is None else out


class ThetaRational(_Element):
    """Element a + b*w of Q[w]/(w^2 + w + 1), components reduced fractions.

    The operators build their results with `_theta`, which stores two
    `Fraction`s as they are; the public constructor converts its arguments.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __repr__(self):
        return f"ThetaRational({self.a!r}, {self.b!r})"

    def __str__(self):
        return QQ_THETA.render(self)

    def _coerce(self, other):
        if isinstance(other, ThetaRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ThetaRational(other)
        return None

    def __add__(self, other):
        if type(other) is not ThetaRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _theta(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ThetaRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _theta(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return _theta(-self.a, -self.b)

    def __mul__(self, other):
        if type(other) is not ThetaRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # (a + bw)(c + dw) with w^2 = -1 - w; a rational factor needs two
        # products, and otherwise b*d is formed once
        a, b, c, d = self.a, self.b, other.a, other.b
        if not d:
            return _theta(a * c, b * c)
        if not b:
            return _theta(a * c, a * d)
        bd = b * d
        return _theta(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inverse(self):
        # norm (a + bw)(a + bw^2) = a^2 - ab + b^2, zero only at 0
        a, b = self.a, self.b
        n = a * a - a * b + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return _theta((a - b) / n, -b / n)

    def __eq__(self, other):
        if type(other) is not ThetaRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)


_new = object.__new__


def _theta(a, b):
    """The element a + b*w for two `Fraction`s, stored without conversion."""
    x = _new(ThetaRational)
    x.a = a
    x.b = b
    return x


class _ModPBase(_Element):
    """Residue in GF(p); concrete subclasses carry p as a class attribute."""

    __slots__ = ("v",)
    p = 0

    def __init__(self, v):
        self.v = v % self.p

    def __repr__(self):
        return f"GF({self.p})({self.v})"

    def __str__(self):
        return str(self.v)

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, int):
            return type(self)(other)
        if isinstance(other, _ModPBase):
            raise MixedFieldsError(f"GF({self.p}) vs GF({other.p})")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.v - o.v)

    def __neg__(self):
        return type(self)(-self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.v * o.v)

    __rmul__ = __mul__

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return type(self)(pow(self.v, -1, self.p))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v


_modp_classes: dict[int, type] = {}


def _modp_class(p: int) -> type:
    cls = _modp_classes.get(p)
    if cls is None:
        cls = type(f"Mod{p}", (_ModPBase,), {"__slots__": (), "p": p})
        _modp_classes[p] = cls
    return cls


# Miller-Rabin with the first 13 primes as bases is exact below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86,
# 2017), so GF(p) takes the primes below it.  psi_13 itself is the product
# 1287836182261 * 2575672364521 and passes all 13 bases.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the three coefficient domains."""

    # unit name -> element, for the units `parts` writes besides ""
    units = {}

    def from_int(self, n: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def characteristic(self) -> int:
        raise NotImplementedError

    def lift(self, x):
        """The value an exact engine computes with in place of the element x;
        a value lifts to itself."""
        return x

    def settle(self, v):
        """The canonical value of a sum or product of values; false exactly at zero."""
        return v

    def element(self, v):
        """The field element of a settled value."""
        return v

    def theta(self):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def parts(self, x):
        """The (value, unit) pairs whose sum is x: value a signed rational or
        a residue, unit "" or a key of `units`; no pair for zero."""
        return [(x, "")] if x else []

    def render(self, x) -> str:
        raise NotImplementedError

    def name(self) -> str:
        raise NotImplementedError


def write_terms(terms, sep) -> str:
    """Text of a sum of (value, unit, word) terms, `sep` around each sign.

    A magnitude of 1 is dropped when a unit or a word follows it; the empty
    sum is "0".
    """
    out = ""
    for value, unit, word in terms:
        neg = value < 0
        mag = -value if neg else value
        factors = (unit, word) if mag == 1 and (unit or word) else (str(mag), unit, word)
        text = "*".join(f for f in factors if f)
        if out:
            out += f"{sep}{'-' if neg else '+'}{sep}{text}"
        else:
            out = f"-{text}" if neg else text
    return out or "0"


def _parse_fraction(text: str) -> Fraction:
    if not _FRACTION_RE.fullmatch(text):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def parse_theta(text: str) -> ThetaRational:
    s = text.replace(" ", "")
    if "w" not in s:
        return ThetaRational(_parse_fraction(s))
    # split off a trailing [+-]b*w / [+-]w part
    m = re.fullmatch(r"(?P<a>[+-]?\d+(?:/\d+)?)?(?P<sign>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*)?w", s)
    if m is None:
        raise ParseError(f"bad Q(w) literal {text!r}")
    a = _parse_fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = _parse_fraction(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("sign") == "-":
        b = -b
    if m.group("a") and m.group("sign") is None:
        raise ParseError(f"bad Q(w) literal {text!r}")
    return ThetaRational(a, b)


@dataclass(frozen=True)
class RationalField(Field):
    def from_int(self, n):
        return Fraction(n)

    # a value is an int where the rational is integral, since int arithmetic
    # takes no gcd, and a `Fraction` otherwise; settling is the same rule
    def lift(self, x):
        return x.numerator if x.denominator == 1 else x

    settle = lift

    def element(self, v):
        return Fraction(v)

    def characteristic(self):
        return 0

    def theta(self):
        raise NoCubeRootError("Q has no primitive cube root of unity")

    def parse(self, text):
        return _parse_fraction(text.strip())

    def render(self, x):
        return str(x)

    def name(self):
        return "Q"


@dataclass(frozen=True)
class ThetaField(Field):
    units = {"w": ThetaRational(0, 1)}

    def from_int(self, n):
        return ThetaRational(n)

    def characteristic(self):
        return 0

    def theta(self):
        return ThetaRational(0, 1)

    def parse(self, text):
        return parse_theta(text.strip())

    def parts(self, x):
        return [(v, u) for v, u in ((x.a, ""), (x.b, "w")) if v]

    def render(self, x):
        return write_terms(((v, u, "") for v, u in self.parts(x)), "")

    def name(self):
        return "Q(w)"


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if self.p == 3:
            raise CharThreeError("characteristic 3 is unsupported")
        if self.p >= _PRIME_LIMIT:
            raise ValueError(f"GF(p) needs p < {_PRIME_LIMIT}, where the primality test is exact, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        # `element` builds one object per residue for this field object, so
        # what the engines return shares its coefficients
        object.__setattr__(self, "_elements", {})

    def from_int(self, n):
        return _modp_class(self.p)(n)

    def characteristic(self):
        return self.p

    def lift(self, x):
        return int(x)

    def settle(self, v):
        return v % self.p

    def element(self, v):
        e = self._elements.get(v)
        if e is None:
            e = self._elements[v] = _modp_class(self.p)(v)
        return e

    def theta(self):
        if self.p % 3 != 1:
            raise NoCubeRootError(f"GF({self.p}) has no primitive cube root of unity")
        # g^((p-1)/3) != 1 is one primitive cube root and its square the
        # other; return the smaller residue, for reproducible output
        e = (self.p - 1) // 3
        g = 2
        while pow(g, e, self.p) == 1:
            g += 1
        t = pow(g, e, self.p)
        return self.from_int(min(t, t * t % self.p))

    def parse(self, text):
        s = text.strip()
        if not re.fullmatch(r"[+-]?\d+", s):
            raise ParseError(f"bad GF({self.p}) literal {text!r}")
        return self.from_int(int(s))

    def parts(self, x):
        return [(x.v, "")] if x.v else []

    def render(self, x):
        return str(x.v)

    def name(self):
        return f"GF({self.p})"


QQ = RationalField()
QQ_THETA = ThetaField()
GF = PrimeField


def parse_field(text: str) -> Field:
    """Parse a field name: Q, Q(w), or GF(p).  GF(n) with n not a prime
    below 3317044064679887385961981 (about 3.3 * 10^24, the bound below
    which the primality test is exact) is a `ParseError`; GF(3) stays a
    `CharThreeError`."""
    s = text.strip()
    if s == "Q":
        return QQ
    if s == "Q(w)":
        return QQ_THETA
    m = re.fullmatch(r"GF\((\d+)\)", s)
    if m:
        try:
            return PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {text!r} (expected Q, Q(w) or GF(p))")
