"""Scalar domains shared by every matrix routine.

Values are plain Python objects (int, Fraction, float); a domain object
bundles the arithmetic, parsing, formatting, and comparison conventions for
one value type so the matrix and determinant code can stay generic over all
three. Integer values use Python's arbitrary precision throughout; nothing
here ever truncates to a machine word.
"""
from __future__ import annotations

import math
import operator
import re
from enum import IntEnum
from fractions import Fraction


class ScalarError(ValueError):
    """Base error for bad scalar input or misuse of a domain."""


class ScalarParseError(ScalarError):
    """Text does not belong to the domain's literal grammar."""


class ExactDivisionError(ScalarError):
    """Division by zero, or an integer quotient that left a remainder."""


class CapabilityError(ScalarError):
    """Operation not available at this domain's capability tier."""


class Tier(IntEnum):
    """Capability ladder: every domain is a commutative ring; integral
    domains add exact division by known divisors; fields add inversion."""

    RING = 1
    INTEGRAL_DOMAIN = 2
    FIELD = 3


_INT_RE = re.compile(r"-?[0-9]+$")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)$")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")

# CPython refuses int(text) past 4300 digits by default (the process-wide
# int_max_str_digits limit); longer literals are converted in chunks this
# long, which leaves the limit itself alone.
_DIGIT_CHUNK = 4000


def _long_int(text: str) -> int:
    """int(text) for a decimal integer literal of any length, in chunks."""
    digits = text.lstrip("-")
    head = len(digits) % _DIGIT_CHUNK or _DIGIT_CHUNK
    value = int(digits[:head])
    scale = 10**_DIGIT_CHUNK
    for i in range(head, len(digits), _DIGIT_CHUNK):
        value = value * scale + int(digits[i:i + _DIGIT_CHUNK])
    return -value if text[0] == "-" else value


class Domain:
    """Arithmetic, parsing, and equality for one scalar value type.

    Shared instances (INTEGER, RATIONAL, FLOAT) do no bookkeeping; call
    :meth:`counting` to get a fresh instance that tallies operations.
    """

    name = "ring"
    tag = "ring"
    tier = Tier.RING
    approximate = False
    zero: object = 0
    one: object = 1

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def dot(self, u, v):
        """Sum of the products of two equal-length, non-empty vectors."""
        return sum(map(operator.mul, u, v))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def exact_div(self, a, b):
        raise CapabilityError(f"{self.name} scalars do not support division")

    def elimination_step(self, pivot_row, rows, d):
        """One fraction-free elimination step below a pivot.

        With p = pivot_row[0], each row r becomes
        [(p*x - r[0]*y) / d for x, y in zip(r[1:], pivot_row[1:])], one column
        shorter, every quotient exact. Exact domains only; the float
        oracle eliminates with partial pivoting instead.
        """
        raise CapabilityError(f"{self.name} scalars have no fraction-free elimination")

    def invert(self, a):
        raise CapabilityError(f"{self.name} scalars have no multiplicative inverses")

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, value) -> str:
        return str(value)

    def counting(self) -> "Domain":
        """Fresh instance of the same domain that counts operations.

        Counters live on the returned instance only, so every measured
        invocation gets its own tallies: `mults` covers multiplication,
        exact division, and inversion; `adds` covers addition, subtraction,
        and negation. Equality tests and parsing are not arithmetic and are
        never counted.
        """
        raise NotImplementedError


class IntegerDomain(Domain):
    """Arbitrary-precision integers: an integral domain, not a field."""

    name = "integer"
    tag = "int"
    tier = Tier.INTEGRAL_DOMAIN
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScalarError(f"integer domain cannot hold {value!r}")
        return value

    def exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{a} is not divisible by {b}")
        return q

    def elimination_step(self, pivot_row, rows, d):
        if d == 0:
            raise ExactDivisionError("division by zero")
        p, tail = pivot_row[0], pivot_row[1:]
        out = []
        for r in rows:
            b = r[0]
            row = []
            for x, y in zip(r[1:], tail):
                q, rem = divmod(p * x - b * y, d)
                if rem:
                    raise ExactDivisionError(f"{p * x - b * y} is not divisible by {d}")
                row.append(q)
            out.append(row)
        return out

    def parse(self, text: str):
        if not _INT_RE.fullmatch(text):
            raise ScalarParseError(f"not an integer literal: {text!r}")
        try:
            return int(text)
        except ValueError:  # past the int/str digit limit
            return _long_int(text)

    def counting(self):
        return CountingIntegerDomain()


class RationalDomain(Domain):
    """Exact rationals kept normalized (positive denominator, lowest terms)."""

    name = "rational"
    tag = "rational"
    tier = Tier.FIELD
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise ScalarError(f"rational domain cannot hold {value!r}")

    def exact_div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero")
        return a / b

    def elimination_step(self, pivot_row, rows, d):
        if d == 0:
            raise ExactDivisionError("division by zero")
        p, tail = pivot_row[0], pivot_row[1:]
        out = []
        for r in rows:
            b = r[0]
            out.append([(p * x - b * y) / d for x, y in zip(r[1:], tail)])
        return out

    def invert(self, a):
        if a == 0:
            raise ExactDivisionError("zero has no inverse")
        return 1 / a

    def parse(self, text: str):
        m = _FRACTION_RE.fullmatch(text)
        try:
            if m:
                return Fraction(int(m.group(1)), int(m.group(2)))
            if _INT_RE.fullmatch(text):
                return Fraction(int(text))
        except ValueError:  # past the int/str digit limit
            return Fraction(*map(_long_int, text.split("/")))
        if re.fullmatch(r"-?[0-9]+/0+", text):
            raise ScalarParseError(f"zero denominator: {text!r}")
        raise ScalarParseError(f"not a rational literal: {text!r}")

    def counting(self):
        return CountingRationalDomain()


class FloatDomain(Domain):
    """IEEE binary64 with tolerant equality.

    Two values compare equal within relative tolerance 1e-9, or absolute
    tolerance 1e-12 for values near zero.
    """

    name = "float"
    tag = "float"
    tier = Tier.FIELD
    approximate = True
    zero = 0.0
    one = 1.0
    rel_tol = 1e-9
    abs_tol = 1e-12

    def coerce(self, value):
        if isinstance(value, float):
            if math.isfinite(value):
                return value
            raise ScalarError(f"float domain holds finite values only, got {value!r}")
        if isinstance(value, int) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                raise ScalarError(f"{value.bit_length()}-bit integer is too large for a float") from None
        raise ScalarError(f"float domain cannot hold {value!r}")

    def eq(self, a, b) -> bool:
        return math.isclose(a, b, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def exact_div(self, a, b):
        if b == 0.0:
            raise ExactDivisionError("division by zero")
        return a / b

    def invert(self, a):
        if a == 0.0:
            raise ExactDivisionError("zero has no inverse")
        return 1.0 / a

    def parse(self, text: str):
        if not _FLOAT_RE.fullmatch(text):
            raise ScalarParseError(f"not a float literal: {text!r}")
        value = float(text)
        if not math.isfinite(value):
            raise ScalarParseError(f"float literal out of range: {text!r}")
        return value

    def format(self, value) -> str:
        return f"{value:.12g}"

    def counting(self):
        return CountingFloatDomain()


class _CountingMixin:
    """Tallies arithmetic on the instance; see Domain.counting.

    The add/sub/neg/mul/dot operators act identically on int, Fraction, and
    float values, so the mixin performs them inline rather than delegating;
    only division semantics differ and those live in the concrete classes.
    elimination_step tallies three multiplications (the division among
    them) and one subtraction per entry it produces, then delegates.
    """

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def add(self, a, b):
        self.adds += 1
        return a + b

    def sub(self, a, b):
        self.adds += 1
        return a - b

    def neg(self, a):
        self.adds += 1
        return -a

    def mul(self, a, b):
        self.mults += 1
        return a * b

    def dot(self, u, v):
        self.mults += len(u)
        self.adds += len(u) - 1
        return sum(map(operator.mul, u, v))

    def elimination_step(self, pivot_row, rows, d):
        entries = len(rows) * (len(pivot_row) - 1)
        self.mults += 3 * entries
        self.adds += entries
        return super().elimination_step(pivot_row, rows, d)

    def counting(self):
        return type(self)()


class CountingIntegerDomain(_CountingMixin, IntegerDomain):
    def exact_div(self, a, b):
        self.mults += 1
        if b == 0:
            raise ExactDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{a} is not divisible by {b}")
        return q


class CountingRationalDomain(_CountingMixin, RationalDomain):
    def exact_div(self, a, b):
        self.mults += 1
        if b == 0:
            raise ExactDivisionError("division by zero")
        return a / b

    def invert(self, a):
        self.mults += 1
        if a == 0:
            raise ExactDivisionError("zero has no inverse")
        return 1 / a


class CountingFloatDomain(_CountingMixin, FloatDomain):
    def exact_div(self, a, b):
        self.mults += 1
        if b == 0.0:
            raise ExactDivisionError("division by zero")
        return a / b

    def invert(self, a):
        self.mults += 1
        if a == 0.0:
            raise ExactDivisionError("zero has no inverse")
        return 1.0 / a


INTEGER = IntegerDomain()
RATIONAL = RationalDomain()
FLOAT = FloatDomain()

DOMAINS = {d.tag: d for d in (INTEGER, RATIONAL, FLOAT)}


def get_domain(tag: str) -> Domain:
    try:
        return DOMAINS[tag]
    except KeyError:
        raise ScalarError(f"unknown scalar domain {tag!r}; expected one of {sorted(DOMAINS)}") from None
