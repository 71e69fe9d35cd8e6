"""Exact coefficient fields: Q, Q(w) with w a primitive cube root of unity, GF(p).

Elements are plain arithmetic objects -- `fractions.Fraction` for Q,
`ThetaRational` for Q(w), and per-prime modular integers for GF(p) -- all
supporting +, -, *, /, ** and truth testing, so the rest of the package can
stay field-generic.  The two classes defined here each write their own hot
operators (+, -, *, unary -, ==, hash, truth and `inverse`) and share one
body each of reflected subtraction, division and powers, in `_Element`.
Field objects describe the domain, build and parse elements, and hand out
the cube root of unity where one exists.

Text syntax for scalars (presentation files and the command line): an
integer, `num/den`, or `a+b*w` / `a-b*w` where `w` denotes the cube root.
Rendering is the canonical inverse of parsing.
"""

from __future__ import annotations

import math
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
    """Element a + b*w of Q[w]/(w^2 + w + 1), components reduced fractions."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __repr__(self):
        return f"ThetaRational({self.a!r}, {self.b!r})"

    def __str__(self):
        return render_theta(self)

    def _coerce(self, other):
        if isinstance(other, ThetaRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ThetaRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ThetaRational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ThetaRational(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return ThetaRational(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bw)(c + dw) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, o.a, o.b
        return ThetaRational(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def inverse(self):
        # norm (a + bw)(a + bw^2) = a^2 - ab + b^2, zero only at 0
        a, b = self.a, self.b
        n = a * a - a * b + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return ThetaRational((a - b) / n, -b / n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)


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


_modp_classes: dict[int, type] = {}


def _modp_class(p: int) -> type:
    cls = _modp_classes.get(p)
    if cls is None:
        cls = type(f"Mod{p}", (_ModPBase,), {"__slots__": (), "p": p})
        _modp_classes[p] = cls
    return cls


# primality is checked by trial division, at most 10^7 divisions below this
_PRIME_LIMIT = 10**14


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class Field:
    """Common interface of the three coefficient domains."""

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

    def theta(self):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def render(self, x) -> str:
        raise NotImplementedError

    def name(self) -> str:
        raise NotImplementedError


def _parse_fraction(text: str) -> Fraction:
    if not _FRACTION_RE.fullmatch(text):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def render_theta(x: ThetaRational) -> str:
    a, b = x.a, x.b
    if not b:
        return str(a)
    if b == 1:
        wpart = "w"
    elif b == -1:
        wpart = "-w"
    else:
        wpart = f"{b}*w"
    if not a:
        return wpart
    sign = "+" if b > 0 else "-"
    mag = abs(b)
    wmag = "w" if mag == 1 else f"{mag}*w"
    return f"{a}{sign}{wmag}"


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
    def from_int(self, n):
        return ThetaRational(n)

    def characteristic(self):
        return 0

    def theta(self):
        return ThetaRational(0, 1)

    def parse(self, text):
        return parse_theta(text.strip())

    def render(self, x):
        return render_theta(x)

    def name(self):
        return "Q(w)"


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if self.p == 3:
            raise CharThreeError("characteristic 3 is unsupported")
        if self.p >= _PRIME_LIMIT:
            raise ValueError(f"GF(p) needs p < 10^14 for its trial-division primality test, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def from_int(self, n):
        return _modp_class(self.p)(n)

    def characteristic(self):
        return self.p

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

    def render(self, x):
        return str(x.v)

    def name(self):
        return f"GF({self.p})"


QQ = RationalField()
QQ_THETA = ThetaField()
GF = PrimeField


def parse_field(text: str) -> Field:
    """Parse a field name: Q, Q(w), or GF(p)."""
    s = text.strip()
    if s == "Q":
        return QQ
    if s == "Q(w)":
        return QQ_THETA
    m = re.fullmatch(r"GF\((\d+)\)", s)
    if m:
        return PrimeField(int(m.group(1)))
    raise ParseError(f"unknown field {text!r} (expected Q, Q(w) or GF(p))")
