"""Algebraic number literals evaluated lazily at configurable precision.

Configs and the CLI accept coordinate values like ``"sqrt(2)-1"`` or
``"(sqrt(5)-1)/2"``.  The grammar is

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom
    atom   := NUMBER | "sqrt" "(" expr ")" | "(" expr ")"
    NUMBER := digits ["." digits] [("e"|"E") ["+"|"-"] digits]

Numbers parse exactly (decimal strings become exact rationals), so a
literal denotes an exact mathematical value.  Rendering to a float or to a
fixed-point integer brackets the value in integer interval arithmetic
(``_bounds``) at escalating binary precision until the rounding is decided;
the float is computed once and cached.
"""

from __future__ import annotations

import os
import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import PrecisionExhaustedError, ValidationError

#: Working precision used when the caller does not specify one.  Roughly
#: 57 decimal digits; always at least double-double territory.
_FALLBACK_PRECISION_BITS = 192

#: Fixed-point scale used for orbit generation and ||n*alpha|| scans.
DEFAULT_FIXED_SCALE = 192


def default_precision_bits() -> int:
    """Working precision in bits, overridable via TORUSFLOW_PRECISION_BITS."""
    raw = os.environ.get("TORUSFLOW_PRECISION_BITS")
    if raw is None:
        return _FALLBACK_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValidationError(f"TORUSFLOW_PRECISION_BITS is not an integer: {raw!r}")
    if bits < 64:
        raise ValidationError(f"TORUSFLOW_PRECISION_BITS too small: {bits} (need >= 64)")
    return bits


# ---------------------------------------------------------------------------
# expression tree
#
# Nodes are plain tuples:  ("num", Fraction) | ("sqrt", node)
#                        | ("add"|"sub"|"mul"|"div", left, right) | ("neg", node)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[()+\-*/]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValidationError(f"cannot tokenize literal at {text[pos:]!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, text = self.take()
        if text != value:
            raise ValidationError(f"expected {value!r}, got {text!r}")

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            raise ValidationError(f"trailing input after literal: {self.tokens[self.i:]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.take()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        kind, text = self.take()
        if kind == "num":
            return ("num", Fraction(Decimal(text)))
        if kind == "name":
            if text != "sqrt":
                raise ValidationError(f"unknown function {text!r} in literal")
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return ("sqrt", inner)
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ValidationError(f"unexpected token {text!r} in literal")


def _node_fraction(node) -> Fraction | None:
    """Exact rational value of a node, or None if (syntactically) irrational."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "neg":
        v = _node_fraction(node[1])
        return None if v is None else -v
    if op == "sqrt":
        v = _node_fraction(node[1])
        if v is None:
            return None
        if v < 0:
            raise ValidationError("sqrt of a negative value in literal")
        rn, rd = isqrt(v.numerator), isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            return Fraction(rn, rd)
        return None
    lhs = _node_fraction(node[1])
    rhs = _node_fraction(node[2])
    if op == "div" and rhs == 0:
        raise ValidationError("division by zero in literal")
    if lhs is None or rhs is None:
        return None
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        return lhs / rhs
    raise AssertionError(op)


def _bounds(node, p: int) -> tuple[int, int]:
    """Integers lo <= value * 2**p <= hi, by interval arithmetic on the tree.

    PrecisionExhaustedError if a divisor's interval contains 0 or a
    radicand's reaches below 0; a larger p may separate it.
    """
    op = node[0]
    if op == "num":
        num, den = node[1].numerator << p, node[1].denominator
        return num // den, -(-num // den)
    if op == "neg":
        lo, hi = _bounds(node[1], p)
        return -hi, -lo
    if op == "sqrt":
        lo, hi = _bounds(node[1], p)
        if hi < 0:
            raise ValidationError("sqrt of a negative value in literal")
        if lo < 0:
            raise PrecisionExhaustedError(f"radicand not separated from 0 at {p} bits")
        top = isqrt(hi << p)
        return isqrt(lo << p), top + (top * top < hi << p)
    a_lo, a_hi = _bounds(node[1], p)
    b_lo, b_hi = _bounds(node[2], p)
    if op == "add":
        return a_lo + b_lo, a_hi + b_hi
    if op == "sub":
        return a_lo - b_hi, a_hi - b_lo
    if op == "mul":
        corners = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return min(corners) >> p, -(-max(corners) >> p)
    if op == "div":
        if b_lo <= 0 <= b_hi:
            raise PrecisionExhaustedError(f"divisor not separated from 0 at {p} bits")
        # a/b is monotone in each argument on these intervals
        corners = [(a << p, b) for a in (a_lo, a_hi) for b in (b_lo, b_hi)]
        return min(a // b for a, b in corners), max(-(-a // b) for a, b in corners)
    raise AssertionError(op)


def _brackets(node, base: int):
    """(guard, lo, hi) with lo <= value * 2**(base + guard) <= hi for guards
    64, 128, ..., 4096, skipping those that leave a divisor or a radicand
    undecided."""
    for guard in (64 << k for k in range(7)):
        try:
            lo, hi = _bounds(node, base + guard)
        except PrecisionExhaustedError:
            continue
        yield guard, lo, hi


def _node_repr(node) -> str:
    op = node[0]
    if op == "num":
        f = node[1]
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if op == "neg":
        return f"-({_node_repr(node[1])})"
    if op == "sqrt":
        return f"sqrt({_node_repr(node[1])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"({_node_repr(node[1])}{sym}{_node_repr(node[2])})"


class AlgebraicValue:
    """A lazily evaluated number built from rationals and square roots."""

    __slots__ = ("_node", "_frac", "_float", "_text")

    def __init__(self, node, text: str | None = None):
        self._node = node
        self._frac = _node_fraction(node)
        self._float: float | None = None
        self._text = text

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AlgebraicValue":
        node = _Parser(_tokenize(text)).parse()
        return cls(node, text=text)

    @classmethod
    def from_rational(cls, value) -> "AlgebraicValue":
        return cls(("num", Fraction(value)))

    @classmethod
    def coerce(cls, value) -> "AlgebraicValue":
        """Accept literals, ints, Fractions, floats (exact binary value)."""
        if isinstance(value, AlgebraicValue):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(value)
        if isinstance(value, float):
            return cls.from_rational(Fraction(value))
        raise ValidationError(f"cannot interpret {value!r} as a number")

    # -- queries ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    def as_fraction(self) -> Fraction | None:
        return self._frac

    def fixed(self, scale_bits: int = DEFAULT_FIXED_SCALE) -> int:
        """Nearest integer to value * 2**scale_bits (ties round up).

        Rational values round exactly.  Irrational values are bracketed in
        integer interval arithmetic with guard bits below the scale; the guard
        doubles from 64 to 4096 until both ends round to the same integer.
        """
        if self._frac is not None:
            num = self._frac.numerator << scale_bits
            q, r = divmod(num, self._frac.denominator)
            return q + (1 if 2 * r >= self._frac.denominator else 0)
        for guard, lo, hi in _brackets(self._node, scale_bits):
            half = 1 << (guard - 1)
            if (lo + half) >> guard == (hi + half) >> guard:
                return (lo + half) >> guard
        raise PrecisionExhaustedError(
            f"fixed-point rounding of {self!r} at scale {scale_bits} is ambiguous"
        )

    def __float__(self) -> float:
        """The correctly rounded float, computed once: int true division
        rounds correctly, so ends that round alike pin the value's float."""
        if self._float is None:
            try:
                for guard, lo, hi in _brackets(self._node, 0):
                    if lo / (1 << guard) == hi / (1 << guard):
                        self._float = hi / (1 << guard)  # +0.0 for a zero value
                        break
                else:
                    raise PrecisionExhaustedError(f"float of {self!r} undecided at 4096 bits")
            except OverflowError:
                raise ValidationError(
                    f"literal {self.literal()!r} is outside the float range") from None
        return self._float

    # -- arithmetic (builds new trees) ---------------------------------

    def _combine(self, other, op):
        other = AlgebraicValue.coerce(other)
        return AlgebraicValue((op, self._node, other._node))

    def __add__(self, other):
        return self._combine(other, "add")

    def __sub__(self, other):
        return self._combine(other, "sub")

    def __mul__(self, other):
        return self._combine(other, "mul")

    def __truediv__(self, other):
        return self._combine(other, "div")

    def __neg__(self):
        return AlgebraicValue(("neg", self._node))

    def __radd__(self, other):
        return AlgebraicValue.coerce(other)._combine(self, "add")

    def __rsub__(self, other):
        return AlgebraicValue.coerce(other)._combine(self, "sub")

    def __rmul__(self, other):
        return AlgebraicValue.coerce(other)._combine(self, "mul")

    def sqrt(self) -> "AlgebraicValue":
        return AlgebraicValue(("sqrt", self._node))

    def literal(self) -> str:
        return self._text if self._text is not None else _node_repr(self._node)

    def __repr__(self) -> str:
        return f"AlgebraicValue({self.literal()!r})"


def parse_literal(text: str) -> AlgebraicValue:
    return AlgebraicValue.parse(text)


# ---------------------------------------------------------------------------
# fixed-point orbit helpers
#
# The k-th Kronecker point {s + k*alpha} is computed from exact integers
# r_k = (s_fix + k*alpha_fix) mod 2**scale, never by accumulating floats,
# so there is no error growth in k beyond the one-time rounding of alpha.
# ---------------------------------------------------------------------------


def frac_orbit_floats(step_fixed: int, scale_bits: int, count: int,
                      start_fixed: int = 0, k0: int = 0):
    """Float64 array of {start + k*step} for k = k0 .. k0+count-1."""
    out = np.empty(max(count, 0), dtype=np.float64)
    for i, residues in _orbit(step_fixed, scale_bits, count, start_fixed + k0 * step_fixed):
        out[i:i + _CHUNK] = _to_floats(residues, scale_bits)
    return out


def frac_point(step_fixed: int, scale_bits: int, k: int, start_fixed: int = 0) -> float:
    mask = (1 << scale_bits) - 1
    return ((start_fixed + k * step_fixed) & mask) * 2.0 ** -scale_bits


# ---------------------------------------------------------------------------
# exact residue kernel
#
# Residues (offset + sum_k n_k * step_k) mod 2**scale are held as
# little-endian 64-bit limbs: a uint64 array of shape (limbs, count) whose
# column i stands for sum_j limbs[j, i] * 2**(64 j).  Every residue array
# in the package is formed here; frac_point is the scalar form.
# ---------------------------------------------------------------------------

#: Orbit residues are formed this many at a time, which bounds the numpy
#: temporaries.
_CHUNK = 1 << 16

_COORD_BITS = 16


def _digits(x: int, count: int, bits: int = 32) -> np.ndarray:
    """The low ``count`` base-2**bits digits of an int >= 0, as a uint64 column."""
    return np.array([(x >> (bits * j)) & ((1 << bits) - 1) for j in range(count)],
                    dtype=np.uint64)[:, None]


def _residues(coords: np.ndarray, steps, scale_bits: int, offset: int = 0) -> np.ndarray:
    """(offset + sum_k coords[k] * steps[k]) mod 2**scale_bits as limbs.

    ``coords`` is int64 with one row per axis and |coords| < 2**63.  Each
    coordinate is split into 16-bit digits; a digit times a 32-bit digit of
    step * 2**(16 p) stays below 2**48, so the products (at most four per
    axis) accumulate in uint64 slots of 32-bit digits without carries, and
    one carry pass at the end normalises them.  A negative coordinate multiplies its
    magnitude by the digits of -step instead.
    """
    full = 1 << scale_bits
    n_digits = -(-scale_bits // 32)
    acc = np.empty((n_digits, coords.shape[1]), dtype=np.uint64)
    acc[:] = _digits(offset % full, n_digits)
    for n, step in zip(coords, steps):
        neg = n < 0
        mag = np.abs(n).view(np.uint64)
        for shift in range(0, int(mag.max(initial=0)).bit_length(), _COORD_BITS):
            part = (mag >> np.uint64(shift)) & np.uint64((1 << _COORD_BITS) - 1)
            m = (step << shift) % full
            digits = _digits(m, n_digits)
            if neg.any():
                digits = np.where(neg, _digits(-m % full, n_digits), digits)
            acc += digits * part
    for j in range(n_digits - 1):
        acc[j + 1] += acc[j] >> np.uint64(32)
        acc[j] &= np.uint64(0xFFFF_FFFF)
    acc[-1] &= np.uint64((1 << (scale_bits - 32 * (n_digits - 1))) - 1)
    limbs = acc[0::2].copy()
    limbs[:len(acc[1::2])] |= acc[1::2] << np.uint64(32)
    return limbs


def _orbit(step: int, scale_bits: int, count: int, start: int = 0):
    """Residues of start + k*step for k = 0 .. count-1, as (k, limbs) chunks.

    Each chunk is formed from its own first residue, so its coordinates stay
    within one 16-bit digit.
    """
    ks = np.arange(min(max(count, 0), _CHUNK), dtype=np.int64)[None]
    for i in range(0, max(count, 1), _CHUNK):
        yield i, _residues(ks[:, :count - i], [step], scale_bits, start + i * step)


def _multiple_distances(step: int, scale_bits: int, count: int) -> np.ndarray:
    """Distances to the nearest integer of n * step for n = 1 .. count, as limbs."""
    return np.concatenate([_dist_to_int(residues, scale_bits)
                           for _, residues in _orbit(step, scale_bits, count, step)], axis=1)


def _to_ints(limbs: np.ndarray) -> list[int]:
    rows = limbs.tolist()
    ints = rows[-1]
    for row in reversed(rows[:-1]):
        ints = [(hi << 64) | lo for hi, lo in zip(ints, row)]
    return ints


def _to_floats(limbs: np.ndarray, scale_bits: int) -> np.ndarray:
    """limbs * 2**-scale_bits, correctly rounded: r * 2.0 ** -scale_bits.

    A top limb of at least 2**54 carries 55 or more significant bits, so
    or-ing a sticky bit for the lower limbs into it rounds exactly as the
    whole value would.  Shorter values are rare in orbits and distances
    (0.1-0.2% at 192 bits), and a few convert fastest as ints; many are
    normalised in numpy, whose fixed cost is that of about 32 ints.
    """
    top = limbs[-1]
    sticky = (limbs[:-1] != 0).any(axis=0)
    out = (top | sticky).astype(np.float64) * 2.0 ** (64 * (len(limbs) - 1) - scale_bits)
    short = np.flatnonzero(top < np.uint64(1 << 54))
    if len(short) > 32:
        out[short] = _normalized_floats(limbs[:, short], scale_bits)
    elif len(short):
        out[short] = [r * 2.0 ** -scale_bits for r in _to_ints(limbs[:, short])]
    return out


def _normalized_floats(limbs: np.ndarray, scale_bits: int) -> np.ndarray:
    """limbs * 2**-scale_bits, correctly rounded, for values of any size.

    The word is the 64 bits from the leading one down (shifts by 64 give 0
    in numpy); every bit below it joins the sticky bit.
    """
    cols = np.arange(limbs.shape[1])
    lead = np.zeros(len(cols), dtype=np.int64)  # the highest nonzero limb, or 0
    for j in range(1, len(limbs)):
        lead[limbs[j] != 0] = j
    hi = limbs[lead, cols]
    lo = np.where(lead > 0, limbs[lead - 1, cols], np.uint64(0))
    # the bit length of hi, or one more where the float rounds up to a power
    # of two; the word then still holds 63 significant bits
    bits = np.minimum(np.frexp(hi.astype(np.float64))[1], 64).astype(np.uint64)
    word = (hi << (np.uint64(64) - bits)) | (lo >> bits)
    below = np.arange(len(limbs))[:, None] < lead - 1
    sticky = ((lo << (np.uint64(64) - bits)) != 0) | ((limbs != 0) & below).any(axis=0)
    exponent = 64 * lead + bits.astype(np.int64) - 64 - scale_bits
    return np.ldexp((word | sticky).astype(np.float64), exponent.astype(np.int32))


def _reciprocals(limbs: np.ndarray, scale_bits: int) -> np.ndarray:
    """2**scale_bits / r for nonzero r, correctly rounded."""
    full = 1 << scale_bits
    return np.array([full / r for r in _to_ints(limbs)], dtype=np.float64)


def _less(limbs: np.ndarray, t: int) -> np.ndarray:
    """Elementwise ``value < t`` against an integer constant."""
    if not 0 < t < 1 << (64 * len(limbs)):
        return np.full(limbs.shape[1], t > 0)
    less = np.zeros(limbs.shape[1], dtype=bool)
    for x, c in zip(limbs, _digits(t, len(limbs), 64)):
        less = (x < c) | ((x == c) & less)
    return less


def _dist_to_int(limbs: np.ndarray, scale_bits: int) -> np.ndarray:
    """min(r, 2**scale_bits - r): the distance to the nearest integer, scaled."""
    comp = _sub(np.zeros_like(limbs), limbs)
    comp[-1] &= np.uint64(((1 << 64) - 1) >> (64 * len(limbs) - scale_bits))
    return np.where(_less(limbs, (1 << (scale_bits - 1)) + 1), limbs, comp)


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b elementwise, modulo 2**(64 * limbs)."""
    out = a - b
    borrow = np.zeros(a.shape[1], dtype=bool)
    for x, y, d in zip(a, b, out):
        d -= borrow
        borrow = (x < y) | ((x == y) & borrow)
    return out


def _argmin(limbs: np.ndarray) -> int:
    """Index of the first smallest value."""
    idx = np.arange(limbs.shape[1])
    for limb in limbs[::-1]:
        vals = limb[idx]
        idx = idx[vals == vals.min()]
    return int(idx[0])


def _quotients(num: int, den: int) -> list[int]:
    """Partial quotients of num/den for den > 0: Euclid's algorithm."""
    quotients = []
    while den:
        q, r = divmod(num, den)
        quotients.append(q)
        num, den = den, r
    return quotients
