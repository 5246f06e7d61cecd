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
import struct
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
    domains add exact division by known divisors; in fields exact_div
    divides by any nonzero value."""

    RING = 1
    INTEGRAL_DOMAIN = 2
    FIELD = 3


# The literal grammars, matched with fullmatch. Each pattern has exactly one
# way to match a given text, so a pattern that repeats one of them over a
# whole CSV line (see matio) fails in time linear in the line.
_INT_RE = re.compile(r"-?[0-9]+")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

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


# The packed sandwich (IntegerDomain.skew_product) beats one dot per entry
# from this many columns on, at slot widths up to this many bits; README
# holds the measured table. Slots of 8 to 64 bits unpack as struct formats.
_PACK_MIN_COLS = 10
_PACK_MAX_SLOT = 192
_SLOT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _slot_width(bound: int) -> int:
    """Bits per slot that hold every integer in [-bound, bound] in two's
    complement: a struct width when one is enough, else whole bytes."""
    bits = bound.bit_length() + 1
    return next((s for s in _SLOT_FORMATS if bits <= s), -(-bits // 8) * 8)


class Domain:
    """Arithmetic, parsing, and equality for one scalar value type.

    Shared instances (INTEGER, RATIONAL, FLOAT) do no bookkeeping; call
    :meth:`counting` to get a fresh instance that tallies operations.

    Besides the scalar operations, the hot loops run as bulk operations,
    one comprehension or map per row, which a counting instance tallies in
    one step per call with the same counts as the scalar operations they
    stand for: :meth:`skew_product` (the sandwich, one dot product per
    entry against :meth:`kernel_column`), :meth:`negate` (the skew check),
    :meth:`congruence_step` and :meth:`condensation_step` (the two O(m^3)
    Pfaffian engines, which keep their working matrix in its strict upper
    triangle), and :meth:`elimination_step` (Bareiss, for square blocks and
    the minor-sum oracle). :meth:`parse_row` is the bulk form of parse and,
    like it, is not counted.
    """

    name = "ring"
    tag = "ring"
    tier = Tier.RING
    approximate = False
    zero: object = 0
    one: object = 1
    literal: re.Pattern  # the grammar parse accepts, for fullmatch

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

    def negate(self, values):
        """The negations of `values`, as a tuple."""
        return tuple(map(operator.neg, values))

    def kernel_column(self, col):
        """K times one column, for the skew kernel K of
        matrix.skew_kernel_matrix, in O(n) additions and no multiplications.

        With b_j = (-1)^j a_j, S their total and P_i the prefix sum before i,
        row i of c = K a is (-1)^(i+1) (S - 2 P_i - b_i). Consecutive rows then
        satisfy c_{i+1} = a_{i+1} - a_i - c_i, two subtractions each, starting
        from c_1 = a_2 - a_3 + a_4 - ... (indices 1-based).
        """
        if len(col) == 1:
            return [self.zero]
        c = col[1]
        for minus, plus in zip(col[2::2], col[3::2]):
            c = c - minus + plus
        if len(col) % 2:
            c = c - col[-1]
        out = [c]
        for lo, hi in zip(col, col[1:]):
            c = (hi - lo) - c
            out.append(c)
        return out

    def skew_product(self, cols):
        """Rows of the k x k skew product A^T K A of the k columns of A
        against the skew kernel K: entry (p,q) for p < q is column p dotted
        with K times column q (kernel_column), entry (q,p) its negation,
        and the diagonal zero. For columns of n entries that is
        n k(k-1)/2 multiplications, one dot per entry."""
        z = self.zero
        k = len(cols)
        rows = [[z] * k for _ in range(k)]
        for q in range(1, k):
            kq = self.kernel_column(cols[q])
            for p in range(q):
                v = sum(map(operator.mul, cols[p], kq))
                rows[p][q] = v
                rows[q][p] = -v
        return rows

    def congruence_step(self, rows, u, f):
        """The field elimination's update of the trailing block, in place.

        `rows` is the working skew matrix as lists, of which only the
        strict upper triangle is read or written; `u` is the leading row of
        the pair just eliminated and `f` the quotients v[j] / p over the
        block's indices, which start at off = len(rows) - len(f). Every
        B[i][j] with off <= i < j becomes B[i][j] + (f[i]*u[j] - u[i]*f[j]),
        which keeps the block skew.
        """
        off = len(rows) - len(f)
        for t in range(len(f) - 1):
            i = off + t
            fi, ui = f[t], u[i]
            rows[i][i + 1:] = [x + (fi * uj - ui * fj)
                               for x, uj, fj in zip(rows[i][i + 1:], u[i + 1:], f[t + 1:])]

    def condensation_step(self, rows, base, d):
        """One step of the fraction-free Pfaffian condensation, in place.

        With leading rows c0 = rows[base], c1 = rows[base+1] and pivot
        p = c0[base+1], every B[i][j] with base+2 <= i < j becomes
        ((p*B[i][j] - c0[i]*c1[j]) + c0[j]*c1[i]) / d, every quotient exact.
        Like congruence_step, it reads and writes the strict upper triangle
        only. Needs exact division.
        """
        raise CapabilityError(f"{self.name} scalars have no fraction-free condensation")

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
        shorter, every quotient exact. Integers only: rationals run it on
        their column-cleared integers, and the float oracle eliminates with
        partial pivoting instead.
        """
        raise CapabilityError(f"{self.name} scalars have no fraction-free elimination")

    def parse(self, text: str):
        raise NotImplementedError

    def parse_row(self, cells):
        """Values of cells that each fullmatch `literal`, with blanks (spaces
        and tabs) allowed around them, or None when one of them needs
        parse itself to get its value or to name the fault."""
        raise NotImplementedError

    def format(self, value) -> str:
        return str(value)

    def counting(self) -> "Domain":
        """Fresh instance of the same domain that counts operations.

        Counters live on the returned instance only, so every measured
        invocation gets its own tallies: `mults` covers multiplication
        and exact division; `adds` covers addition, subtraction,
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
    literal = _INT_RE

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

    def condensation_step(self, rows, base, d):
        if d == 0:
            raise ExactDivisionError("division by zero")
        c0, c1 = rows[base], rows[base + 1]
        p = c0[base + 1]
        for i in range(base + 2, len(rows) - 1):
            c0i, c1i = c0[i], c1[i]
            quotients, remainders = zip(*[
                divmod((p * x - c0i * b1j) + b0j * c1i, d)
                for x, b0j, b1j in zip(rows[i][i + 1:], c0[i + 1:], c1[i + 1:])])
            if any(remainders):
                t = next(t for t, r in enumerate(remainders) if r)
                raise ExactDivisionError(
                    f"{quotients[t] * d + remainders[t]} is not divisible by {d}")
            rows[i][i + 1:] = quotients

    def skew_product(self, cols):
        """The skew product by Kronecker substitution: equal entry for entry
        to Domain.skew_product, with C-level big-int work in place of one
        dot per entry.

        Row i of A packs into one integer, sum_q a_iq 2^(s q) for a slot
        width of s bits, and K applies to the packed rows as to any column
        of integers, which packs the rows of C = K A. Row p of the product
        is then sum_i a_ip C_i = sum_q Y_pq 2^(s q), one multiply-add per
        row of A, and its slots are the entries. |c_iq| <= ||a_q||_1, so
        |Y_pq| <= ||a_p||_1 ||a_q||_1 bounds every slot, and s holds that
        bound in two's complement. Adding 2^(s-1) to every slot and xoring
        it back gives each slot in two's complement; the bytes unpack with
        one struct call per row when s <= 64 and one int.from_bytes per
        slot otherwise.

        Few columns or wide slots run the dot products instead: below
        _PACK_MIN_COLS the per-row packing and unpacking cost more than the
        dots save, and past _PACK_MAX_SLOT the packed multiplies carry more
        limbs than the dots do.
        """
        k = len(cols)
        if k < _PACK_MIN_COLS:
            return super().skew_product(cols)
        norms = [sum(map(abs, col)) for col in cols]
        s = _slot_width(max(norms[:-1]) * max(norms[1:]))
        if s > _PACK_MAX_SLOT:
            return super().skew_product(cols)
        w = s // 8
        shifts = range(0, s * k, s)
        packed = self.kernel_column([sum(map(operator.lshift, row, shifts))
                                     for row in zip(*cols)])
        offset = int.from_bytes((bytes(w - 1) + b"\x80") * k, "little")
        fmt = _SLOT_FORMATS.get(s)
        rows = []
        for p in range(k - 1):
            total = sum(map(operator.mul, cols[p], packed))
            raw = ((total + offset) ^ offset).to_bytes(w * k, "little")
            if fmt:
                upper = struct.unpack_from(f"<{k - 1 - p}{fmt}", raw, w * (p + 1))
            else:
                upper = [int.from_bytes(raw[j:j + w], "little", signed=True)
                         for j in range(w * (p + 1), w * k, w)]
            rows.append([0] * (p + 1) + list(upper))
        rows.append([0] * k)
        for q, col in enumerate(list(zip(*rows))):
            rows[q][:q] = map(operator.neg, col[:q])
        return rows

    def parse(self, text: str):
        if not _INT_RE.fullmatch(text):
            raise ScalarParseError(f"not an integer literal: {text!r}")
        try:
            return int(text)
        except ValueError:  # past the int/str digit limit
            return _long_int(text)

    def parse_row(self, cells):
        try:
            return list(map(int, cells))
        except ValueError:  # past the int/str digit limit
            return None

    def counting(self):
        return CountingIntegerDomain()


class RationalDomain(Domain):
    """Exact rationals kept normalized (positive denominator, lowest terms).

    `integers` is the domain the numerators live in: the determinant route
    and the minor-sum oracle each clear every column's denominators and
    compute over it.
    """

    name = "rational"
    tag = "rational"
    tier = Tier.FIELD
    zero = Fraction(0)
    one = Fraction(1)
    literal = _RATIONAL_RE

    @property
    def integers(self) -> Domain:
        return INTEGER

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

    def condensation_step(self, rows, base, d):
        if d == 0:
            raise ExactDivisionError("division by zero")
        c0, c1 = rows[base], rows[base + 1]
        p = c0[base + 1]
        for i in range(base + 2, len(rows) - 1):
            c0i, c1i = c0[i], c1[i]
            rows[i][i + 1:] = [((p * x - c0i * b1j) + b0j * c1i) / d
                               for x, b0j, b1j in zip(rows[i][i + 1:], c0[i + 1:], c1[i + 1:])]

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

    def parse_row(self, cells):
        try:
            return [Fraction(*map(int, cell.split("/"))) for cell in cells]
        except ValueError:  # past the int/str digit limit
            return None

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
    literal = _FLOAT_RE
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

    # the same quotients as the rationals' step, with float division
    condensation_step = RationalDomain.condensation_step

    def parse(self, text: str):
        if not _FLOAT_RE.fullmatch(text):
            raise ScalarParseError(f"not a float literal: {text!r}")
        value = float(text)
        if not math.isfinite(value):
            raise ScalarParseError(f"float literal out of range: {text!r}")
        return value

    def parse_row(self, cells):
        values = list(map(float, cells))
        return values if all(map(math.isfinite, values)) else None

    def format(self, value) -> str:
        if not math.isfinite(value):
            raise ScalarError(f"float domain holds finite values only, got {value!r}")
        return f"{value:.12g}"

    def counting(self):
        return CountingFloatDomain()


class _CountingMixin:
    """Tallies arithmetic on the instance; see Domain.counting.

    The add/sub/neg/mul operators act identically on int, Fraction, and
    float values, so the mixin performs them inline rather than delegating;
    exact_div counts one multiplication and delegates, since division
    semantics differ per domain. The bulk operations tally what their
    scalar form would, then delegate:
    negate one addition per value; elimination_step three multiplications
    (the division among them) and one subtraction per entry it produces;
    skew_product, for k columns of n entries, 3n - 4 additions per K times
    a column (k - 1 of them, none when n = 1) and, per entry above the
    diagonal, the n multiplications and n - 1 additions of its dot plus
    one negation for the entry below; congruence_step two multiplications
    and three additions per updated entry above the diagonal;
    condensation_step four multiplications (the division among them) and
    three additions per such entry. In both Pfaffian steps the third
    addition is the nominal negation of the mirrored entry below the
    diagonal, which the upper-triangular engines no longer write.

    skew_product delegates to the shared, uncounted instance of its
    domain, so the tallies stand for the dot loop whichever form (packed or
    dot) runs.
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

    def exact_div(self, a, b):
        self.mults += 1
        return super().exact_div(a, b)

    def negate(self, values):
        self.adds += len(values)
        return super().negate(values)

    def elimination_step(self, pivot_row, rows, d):
        entries = len(rows) * (len(pivot_row) - 1)
        self.mults += 3 * entries
        self.adds += entries
        return super().elimination_step(pivot_row, rows, d)

    def skew_product(self, cols):
        n, k = len(cols[0]), len(cols)
        entries = k * (k - 1) // 2
        self.mults += n * entries
        self.adds += (k - 1) * (3 * n - 4 if n > 1 else 0) + n * entries
        return DOMAINS[self.tag].skew_product(cols)

    def congruence_step(self, rows, u, f):
        entries = len(f) * (len(f) - 1) // 2
        self.mults += 2 * entries
        self.adds += 3 * entries
        return super().congruence_step(rows, u, f)

    def condensation_step(self, rows, base, d):
        w = len(rows) - base - 2
        entries = w * (w - 1) // 2
        self.mults += 4 * entries
        self.adds += 3 * entries
        return super().condensation_step(rows, base, d)

    def counting(self):
        return type(self)()


class CountingIntegerDomain(_CountingMixin, IntegerDomain):
    pass


class CountingRationalDomain(_CountingMixin, RationalDomain):
    @property
    def integers(self) -> Domain:
        """Counting integers whose tallies land on this instance: the view
        shares this instance's attributes, its counters among them."""
        view = CountingIntegerDomain.__new__(CountingIntegerDomain)
        view.__dict__ = self.__dict__
        return view


class CountingFloatDomain(_CountingMixin, FloatDomain):
    pass


INTEGER = IntegerDomain()
RATIONAL = RationalDomain()
FLOAT = FloatDomain()

DOMAINS = {d.tag: d for d in (INTEGER, RATIONAL, FLOAT)}


def get_domain(tag: str) -> Domain:
    try:
        return DOMAINS[tag]
    except KeyError:
        raise ScalarError(f"unknown scalar domain {tag!r}; expected one of {sorted(DOMAINS)}") from None
