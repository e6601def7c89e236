"""Exact scalar arithmetic: literals, fixed-point residues, orbit points."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from torusflow.algebraic import (
    AlgebraicValue,
    _bounds,
    _dist_to_int,
    _less,
    _normalized_floats,
    _residues,
    _sub,
    _to_floats,
    _to_ints,
    default_precision_bits,
    frac_orbit_floats,
    frac_point,
    parse_literal,
)
from torusflow.errors import PrecisionExhaustedError, ValidationError

SCALE = 192


def test_literal_values():
    cases = {
        "sqrt(2) - 1": 2.0 ** 0.5 - 1.0,
        "(sqrt(5) - 1) / 2": (5.0 ** 0.5 - 1.0) / 2.0,
        "sqrt(3) - 1": 3.0 ** 0.5 - 1.0,
        "3/7": 3.0 / 7.0,
        "0.25": 0.25,
        "2": 2.0,
        "-1/2": -0.5,
    }
    for text, want in cases.items():
        np.testing.assert_allclose(float(parse_literal(text)), want, rtol=1e-15)


def test_literal_rationality_flags():
    assert parse_literal("3/7").is_rational
    assert parse_literal("0.125").is_rational
    assert parse_literal("3/7").as_fraction() == Fraction(3, 7)
    assert not parse_literal("sqrt(2) - 1").is_rational
    assert parse_literal("sqrt(2) - 1").as_fraction() is None


@pytest.mark.parametrize("bad", ["sqrt(-1)", "2**3", "sqrt(2", "1/0", "sqrt(2)/(1 - 1)", "",
                                 "two"])
def test_malformed_literals_rejected(bad):
    with pytest.raises(ValidationError):
        parse_literal(bad)


def test_sqrt_int_high_precision():
    """fixed(220) is the nearest integer to sqrt(2) * 2**220, not a float64 value."""
    assert parse_literal("sqrt(2)").fixed(220) == (isqrt(8 << 440) + 1) >> 1


def test_values_that_cancel_exactly():
    """A zero written with square roots rounds to +0.0 and 0.  A radicand
    written with square roots is rejected once evaluation shows it negative,
    also when it is tiny, and one that no precision separates from 0 is
    undecided."""
    assert repr(float(parse_literal("sqrt(2) - sqrt(2)"))) == "0.0"
    assert parse_literal("sqrt(8) - 2*sqrt(2)").fixed(192) == 0
    for text in ("sqrt(1 - sqrt(2))", "sqrt(sqrt(2) - sqrt(2) - 1e-300)"):
        with pytest.raises(ValidationError):
            parse_literal(text).fixed(192)
    with pytest.raises(PrecisionExhaustedError):
        parse_literal("sqrt(sqrt(2) - sqrt(2))").fixed(192)


def _floor_sqrt(b, n):
    """floor(b * sqrt(n)) for integers b and n >= 0."""
    r = isqrt(b * b * n)
    return r if b >= 0 else -r - (r * r != b * b * n)


def _not_square(n):
    return isqrt(n) ** 2 != n


# (literal, a, b, d, c) with value (a + b sqrt(d)) / c: random surds, and
# sqrt(n^2 + c) - n, whose digits cancel against n
_surds = st.one_of(
    st.builds(lambda a, b, d, c: (f"({a} + {b}*sqrt({d}))/{c}", a, b, d, c),
              st.integers(-10 ** 6, 10 ** 6), st.integers(-100, 100).filter(bool),
              st.integers(2, 10 ** 4).filter(_not_square), st.integers(1, 1000)),
    st.builds(lambda n, c: (f"sqrt({n}*{n} + {c}) - {n}", -n, 1, n * n + c, 1),
              st.integers(50, 10 ** 40), st.integers(1, 100)),
)
_CANCELLING = [(f"sqrt(1e{2 * e} + 3) - 1e{e}", -10 ** e, 1, 10 ** (2 * e) + 3, 1)
               for e in (20, 26, 40)]
# the product widens the bracket to about 2**100 units, past the first guard
_AMPLIFIED = ("(sqrt(1e52 + 3) - 1e26) * 1e30", -10 ** 56, 10 ** 30, 10 ** 52 + 3, 1)


@given(surd=_surds, scale=st.integers(64, 320))
@example(surd=_CANCELLING[1], scale=192)
@example(surd=_CANCELLING[2], scale=64)
@example(surd=_AMPLIFIED, scale=64)
def test_fixed_equals_integer_square_roots(surd, scale):
    """fixed rounds (a + b sqrt(d)) / c * 2**scale to nearest, also where
    the digits of a literal cancel."""
    text, a, b, d, c = surd
    want = ((a << (scale + 1)) + c + _floor_sqrt(b << (scale + 1), d)) // (2 * c)
    assert parse_literal(text).fixed(scale) == want


@given(surd=_surds, p=st.integers(0, 320))
def test_bounds_bracket_the_value(surd, p):
    """_bounds brackets value * 2**p, also with the value built from
    rational coefficients, whose products and quotients are inexact."""
    text, a, b, d, c = surd
    floor = ((a << p) + _floor_sqrt(b << p, d)) // c  # of an irrational value * 2**p
    built = (AlgebraicValue.from_rational(Fraction(a, c))
             + AlgebraicValue.from_rational(Fraction(b, c)) * parse_literal(f"sqrt({d})"))
    for value in (parse_literal(text), built):
        lo, hi = _bounds(value._node, p)
        assert lo <= floor < hi


@given(surd=_surds)
@example(surd=_CANCELLING[0])
def test_float_is_correctly_rounded(surd):
    """float() is the float nearest the value: floor(value * 2**bits) and
    one more round to the same float once bits suffice."""
    text, a, b, d, c = surd
    bits = 64
    while True:
        lo = ((a << bits) + _floor_sqrt(b << bits, d)) // c
        want = float(Fraction(lo, 1 << bits))
        if want == float(Fraction(lo + 1, 1 << bits)):
            break
        bits *= 2
    assert float(parse_literal(text)) == want


def test_fixed_point_rounding_and_determinism(silver):
    f1 = silver.fixed(SCALE)
    f2 = silver.fixed(SCALE)
    assert f1 == f2
    with mpmath.workprec(SCALE + 60):
        target = (mpmath.sqrt(2) - 1) * mpmath.mpf(2) ** SCALE
        assert abs(mpmath.mpf(f1) - target) <= 1.0


def test_orbit_points_match_reference(silver):
    """{k * alpha} from the fixed-point orbit vs. 300-bit arithmetic."""
    step = silver.fixed(SCALE)
    with mpmath.workprec(300):
        a = mpmath.sqrt(2) - 1
        for k in (1, 2, 17, 1000, 10 ** 6):
            want = float(mpmath.frac(k * a))
            got = frac_point(step, SCALE, k)
            assert abs(got - want) < 1e-13, k


def test_orbit_window_consistency(silver):
    step = silver.fixed(SCALE)
    window = frac_orbit_floats(step, SCALE, 25, k0=40)
    singles = [frac_point(step, SCALE, k) for k in range(40, 65)]
    np.testing.assert_allclose(window, singles, atol=0.0)


def test_orbit_start_offset(silver):
    step = silver.fixed(SCALE)
    start = parse_literal("1/3").fixed(SCALE)
    pts = frac_orbit_floats(step, SCALE, 8, start_fixed=start)
    expect = [(1.0 / 3.0 + k * float(silver)) % 1.0 for k in range(8)]
    np.testing.assert_allclose(pts, expect, atol=1e-12)


def test_kernel_distance_at_convergent_denominators(silver):
    """||q * alpha|| should be tiny exactly at the convergent denominators."""
    step = silver.fixed(SCALE)
    qs = (2, 5, 12, 29, 70, 169, 3)
    dists = _to_ints(_dist_to_int(_residues(np.array([qs]), [step], SCALE), SCALE))
    with mpmath.workprec(300):
        a = mpmath.sqrt(2) - 1
        for q, got in zip(qs[:-1], dists):
            want = abs(mpmath.frac(q * a + mpmath.mpf(1) / 2) - mpmath.mpf(1) / 2)
            assert abs(got / mpmath.mpf(2) ** SCALE - want) < 1e-40
    # off-denominator sanity: q = 3 is not a convergent, so the distance is large
    assert dists[-1] / 2.0 ** SCALE > 0.2


def test_coerce_and_from_rational():
    v = AlgebraicValue.coerce(0.3251)
    assert v.is_rational and float(v) == 0.3251
    w = AlgebraicValue.coerce(v)
    assert float(w) == float(v)
    r = AlgebraicValue.from_rational(Fraction(7, 9))
    assert r.as_fraction() == Fraction(7, 9)


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("TORUSFLOW_PRECISION_BITS", "320")
    assert default_precision_bits() == 320
    monkeypatch.delenv("TORUSFLOW_PRECISION_BITS")
    assert default_precision_bits() >= 64


# -- the residue kernel against Python ints ---------------------------------
#
# ``_reference_orbit`` is the scalar loop frac_orbit_floats used to be; the
# kernel must reproduce it, and plain Python-int arithmetic, bit for bit.

KERNEL_SCALES = (192, 250, 256, 320)


def _reference_orbit(step_fixed, scale_bits, count, start_fixed=0, k0=0):
    mask = (1 << scale_bits) - 1
    inv = 2.0 ** -scale_bits
    r = (start_fixed + k0 * step_fixed) & mask
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        out[i] = r * inv
        r = (r + step_fixed) & mask
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def _as_limbs(values, scale):
    """Kernel limbs holding the given residues, each formed as an offset."""
    zero = np.zeros((1, 1), dtype=np.int64)
    return np.concatenate([_residues(zero, [0], scale, v) for v in values], axis=1)


@pytest.mark.parametrize("scale", KERNEL_SCALES)
def test_orbit_floats_match_reference_loop(scale):
    """Counts beyond one kernel chunk, negative and unreduced starts,
    steps that park residues near 0, 1/2 and 1, and an orbit whose residues
    are all below 2**-26, so every top limb is short."""
    full = 1 << scale
    cases = [
        (parse_literal("sqrt(2) - 1").fixed(scale), 70_000, 0, 0),
        (parse_literal("(sqrt(5) - 1) / 2").fixed(scale), 1000, -12345, 10 ** 6),
        (-parse_literal("sqrt(3)").fixed(scale), 500, full + 7, 3),
        (full // 2, 64, 1, 0),
        (1, 64, full - 32, 0),
        (full - 1, 64, 40, 0),
        (1 << (scale - 80), 300, 0, 5),
        ((1 << (scale - 39)) + 12345, 4096, 7, 0),
    ]
    for step, count, start, k0 in cases:
        got = frac_orbit_floats(step, scale, count, start_fixed=start, k0=k0)
        want = _reference_orbit(step, scale, count, start_fixed=start, k0=k0)
        assert _hex(got) == _hex(want)
        assert got[-1] == frac_point(step, scale, k0 + count - 1, start)


coordinate = st.integers(-(2 ** 62), 2 ** 62)


@st.composite
def _residue_problem(draw):
    scale = draw(st.sampled_from(KERNEL_SCALES))
    full = 1 << scale
    dim = draw(st.integers(1, 3))
    steps = draw(st.lists(st.integers(-2 * full, 2 * full), min_size=dim, max_size=dim))
    columns = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                            min_size=1, max_size=12))
    offset = draw(st.integers(-full, 2 * full))
    return scale, steps, columns, offset


@given(_residue_problem())
def test_kernel_matches_python_ints(problem):
    scale, steps, columns, offset = problem
    full = 1 << scale
    want = [(offset + sum(n * s for n, s in zip(col, steps))) % full for col in columns]
    limbs = _residues(np.array(columns, dtype=np.int64).T, steps, scale, offset)
    assert _to_ints(limbs) == want
    assert _hex(_to_floats(limbs, scale)) == _hex(r * 2.0 ** -scale for r in want)
    dist = _dist_to_int(limbs, scale)
    assert _to_ints(dist) == [min(r, full - r) for r in want]
    assert _hex(_to_floats(dist, scale)) == _hex(min(r, full - r) * 2.0 ** -scale
                                                 for r in want)
    for t in (0, want[0], want[0] + 1, full, 1 << (64 * len(limbs))):
        assert _less(limbs, t).tolist() == [r < t for r in want]
    lo, hi = min(want), max(want)
    assert _to_ints(_sub(_as_limbs([hi], scale), _as_limbs([lo], scale))) == [hi - lo]


@st.composite
def _values_of_any_length(draw):
    scale = draw(st.sampled_from((64,) + KERNEL_SCALES))  # 64: a single limb
    lengths = st.integers(0, scale).flatmap(lambda b: st.integers(0, (1 << b) - 1))
    return scale, draw(st.lists(lengths, min_size=1, max_size=40))


@given(_values_of_any_length())
@example((64, [(1 << 63) + (1 << 10), 3]))  # a round-half-even tie in one limb
def test_normalized_floats_match_python_ints(case):
    """The numpy conversion _to_floats uses when many values are short, on
    values of every bit length."""
    scale, values = case
    got = _normalized_floats(_as_limbs(values, scale), scale)
    assert _hex(got) == _hex(v * 2.0 ** -scale for v in values)


@pytest.mark.parametrize("scale", KERNEL_SCALES)
def test_kernel_float_conversion_on_edge_values(scale):
    """At every bit position: powers of two and their neighbours, and
    round-half-even ties in both directions; also zero top limbs, and 1/2,
    where the distance folds."""
    full = 1 << scale
    values = [0, full - 1, full // 2, full // 2 + 1]
    for e in range(scale):
        values += [(1 << e) - 1, 1 << e, (1 << e) + 1]
        if e >= 53:
            tie = (1 << e) + (1 << (e - 53))
            values += [tie, tie + 1, tie + (1 << (e - 52))]
    limbs = _as_limbs(values, scale)
    assert _to_ints(limbs) == values
    assert _hex(_to_floats(limbs, scale)) == _hex(v * 2.0 ** -scale for v in values)
    assert _to_ints(_dist_to_int(limbs, scale)) == [min(v, full - v) for v in values]
