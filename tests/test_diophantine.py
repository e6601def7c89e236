"""Continued fractions, the weighted reciprocal series, and dyadic audits."""
from __future__ import annotations

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.algebraic import DEFAULT_FIXED_SCALE, AlgebraicValue, parse_literal
from torusflow.diophantine import (
    ApproximationHit,
    AuditResult,
    DyadicBlock,
    ExponentScan,
    SchmidtHit,
    SchmidtScan,
    _expansion,
    approximation_exponent_scan,
    block_capacity,
    continued_fraction,
    diophantine_series,
    dyadic_spacing_audit,
    materialize_dyadic_block,
    schmidt_inequality_scan,
)
from torusflow.errors import (
    PrecisionExhaustedError,
    TailNotCertifiableError,
    ValidationError,
)

# Partial sum of sum_{n<=10^4} 1/(n^2 ||n alpha||) for alpha = sqrt(2) - 1,
# computed independently with mpmath at 50 significant digits.
SERIES_HEAD_1E4 = 6.4879890140002380460952184389508275371021017830236
# Direct continuation of the same series over 10^4 < n <= 10^5 (the certified
# tail bound must dominate this).
SERIES_CONTINUATION_1E4_1E5 = 0.0020884223948037220538


def test_silver_ratio_quotients(silver):
    cf = continued_fraction(silver, 40)
    assert cf.partial_quotients[0] == 0
    assert set(cf.partial_quotients[1:]) == {2}
    assert cf.depth == 40
    assert not cf.exact
    assert cf.max_quotient == 2
    assert cf.convergents[:6] == ((0, 1), (1, 2), (2, 5), (5, 12), (12, 29), (29, 70))


def test_sqrt2_integer_part():
    cf = continued_fraction(parse_literal("sqrt(2)"), 9)
    assert cf.partial_quotients[0] == 1
    assert set(cf.partial_quotients[1:]) == {2}
    assert cf.denominators[:10] == (1, 2, 5, 12, 29, 70, 169, 408, 985, 2378)


def test_golden_ratio_fibonacci_denominators():
    cf = continued_fraction(parse_literal("(sqrt(5) - 1) / 2"), 30)
    assert set(cf.partial_quotients[1:]) == {1}
    assert cf.denominators[:10] == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_rational_expansion_terminates():
    cf = continued_fraction(parse_literal("3/7"), 40)
    assert cf.partial_quotients == (0, 2, 3)
    assert cf.exact
    assert cf.convergents[-1] == (3, 7)
    cf13 = continued_fraction(parse_literal("1/3"), 40)
    assert cf13.partial_quotients == (0, 3)
    assert cf13.exact


def test_depth_beyond_precision_raises(silver):
    # q_ell grows like 2.414^ell, so ~200 quotients need more than 192 bits
    with pytest.raises(PrecisionExhaustedError):
        continued_fraction(silver, 200, prec_bits=192)


def test_convergent_error_bracket(silver):
    """The returned interval must bracket |q*x - p| and stay below 1/q_{l+1}."""
    cf = continued_fraction(silver, 12)
    with mpmath.workprec(400):
        x = mpmath.sqrt(2) - 1
        for ell in range(1, 9):
            p, q = cf.convergents[ell]
            lo, hi = cf.convergent_error_bounds(ell)
            true = abs(q * x - p)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= true
            assert true <= mpmath.mpf(hi.numerator) / hi.denominator
            assert hi < 1.0 / cf.denominators[ell + 1]


def _bracket_holds(cf, surd):
    """cf.lo <= (p + sqrt(d)) / q <= cf.hi for q > 0, in exact arithmetic:
    r <= x  <=>  r*q - p <= sqrt(d)."""
    p, d, q = surd
    below, above = cf.lo * q - p, cf.hi * q - p
    return (below <= 0 or below * below <= d) and above >= 0 and above * above >= d


def _periodic_quotients(p, d, q, count):
    """Partial quotients of (p + sqrt(d)) / q, d not a square, by the exact
    recurrence on complete quotients (P + sqrt(D)) / Q with Q | D - P^2."""
    p, d, q = p * abs(q), d * q * q, q * abs(q)
    root = math.isqrt(d)
    out = []
    for _ in range(count):
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return out


def test_cancelling_literal_quotient():
    """1/x = (sqrt(10^52 + 3) + 10^26) / 3 lies just above 2/3 * 10^26."""
    cf = continued_fraction(parse_literal("sqrt(1e52 + 3) - 1e26"), 2)
    assert cf.partial_quotients[:2] == (0, int("6" * 26))
    assert _bracket_holds(cf, (-10 ** 26, 10 ** 52 + 3, 1))


_non_squares = st.integers(2, 10 ** 4).filter(lambda d: math.isqrt(d) ** 2 != d)


@given(st.one_of(
    st.tuples(st.integers(-10 ** 4, 10 ** 4), _non_squares, st.integers(1, 500)),
    st.builds(lambda n, c: (-n, n * n + c, 1), st.integers(50, 10 ** 40), st.integers(1, 100))))
def test_quotients_follow_the_exact_recurrence(surd):
    """Every quotient the bracket at a scale decides is the true one, and the
    bracket holds the true value."""
    p, d, q = surd
    value = parse_literal(f"({p} + sqrt({d})) / {q}")
    depths = []
    for scale in (192, 320, 1024):
        cf = _expansion(value, scale)
        assert cf.partial_quotients == tuple(_periodic_quotients(p, d, q, cf.depth + 1))
        assert _bracket_holds(cf, surd)
        depths.append(cf.depth)
    assert depths == sorted(depths) and depths[-1] >= 2


def test_series_partial_sum_matches_reference(silver):
    sb = diophantine_series(silver, 10000)
    np.testing.assert_allclose(sb.partial_sum, SERIES_HEAD_1E4, rtol=1e-14)
    assert sb.tail_bound >= SERIES_CONTINUATION_1E4_1E5


def test_series_doubles_its_depth_until_the_denominator_clears():
    """q_32 of the golden ratio is about 3.5e6, below (1e6)**2; q_64 is past it."""
    golden = parse_literal("(sqrt(5) - 1) / 2")
    assert diophantine_series(golden, 1000).depth_used == 64
    assert diophantine_series(parse_literal("sqrt(2) - 1"), 1000).depth_used == 32


def test_series_monotone_in_cutoff(silver):
    small = diophantine_series(silver, 1000)
    large = diophantine_series(silver, 10000)
    assert small.partial_sum < large.partial_sum
    assert small.tail_bound > large.tail_bound


def test_series_rejects_rational():
    with pytest.raises(ValidationError):
        diophantine_series(parse_literal("1/3"), 100)


def test_series_rejects_shallow_expansion(silver):
    shallow = continued_fraction(silver, 6)
    with pytest.raises(TailNotCertifiableError):
        diophantine_series(silver, 10000, cf=shallow)


def test_exponent_scan(silver):
    scan = approximation_exponent_scan(silver, 10000, 1.5)
    assert [h.n for h in scan.hits] == [1, 2, 5]
    np.testing.assert_allclose(scan.worst_exponent, 2.5431066063272243, rtol=1e-12)
    for h in scan.hits:
        assert h.distance < h.n ** -1.5
        assert h.threshold == pytest.approx(h.n ** -1.5)
    header = scan.to_csv().splitlines()[0]
    assert "n" in header and "distance" in header


def test_schmidt_scan_and_dyadic_audit(silver):
    form = np.array([1.0])
    scan = schmidt_inequality_scan([silver], [form], 0.5, 10000)
    np.testing.assert_allclose(scan.fitted_c, 0.72792206135785542, rtol=1e-12)
    assert len(scan.hits) == 6
    for ell in range(2, 7):
        block = materialize_dyadic_block([form], 0.5, scan.fitted_c, ell, [ell], dim=1)
        assert block.capacity == block_capacity(scan.fitted_c, 0.5, ell, (ell,))
        sizes = np.abs(np.asarray(block.members))  # members carry both signs
        assert sizes.min() >= 2 ** ell and sizes.max() < 2 ** (ell + 1)
        result = dyadic_spacing_audit([silver], block)
        assert result.passed and not result.violations
        assert result.min_gap > 0


def test_profile_summary(silver):
    scan = approximation_exponent_scan(silver, 2000, 1.5)
    np.testing.assert_allclose(scan.worst_exponent, 2.5431066063272243, rtol=1e-10)
    assert continued_fraction(silver, 48).max_quotient == 2
    assert diophantine_series(silver, 2000).n_max == 2000


# -- the vectorised dyadic block and audit against the pure-Python loops ----
#
# The two functions below are the loop implementations the numpy versions
# replaced; the numpy code must reproduce them field by field, including
# the float minima and every violation string.


def _reference_block(forms, gamma, c, ell, ell_ks, dim):
    form_rows = [tuple(float(x) for x in f) for f in forms]
    lo2, hi2 = 4 ** ell, 4 ** (ell + 1)
    members = []

    def rec(prefix, axis):
        if axis == dim:
            norm2 = sum(v * v for v in prefix)
            if not (lo2 <= norm2 < hi2):
                return
            for row, lk in zip(form_rows, ell_ks):
                size = abs(sum(c_ * v for c_, v in zip(row, prefix))) + 1.0
                if not (2.0 ** lk <= size < 2.0 ** (lk + 1)):
                    return
            members.append(tuple(prefix))
            return
        limit = 2 ** (ell + 1)
        for v in range(-limit, limit + 1):
            rec(prefix + [v], axis + 1)

    rec([], 0)
    return DyadicBlock(ell=ell, ell_ks=tuple(ell_ks), members=tuple(members),
                       capacity=block_capacity(c, gamma, ell, ell_ks))


def _reference_audit(alpha_values, block, scale_bits=DEFAULT_FIXED_SCALE):
    steps = [AlgebraicValue.coerce(a).fixed(scale_bits) for a in alpha_values]
    mask = (1 << scale_bits) - 1
    half = 1 << (scale_bits - 1)
    full = 1 << scale_bits
    h = block.capacity
    signed = []
    for n in block.members:
        r = sum(ni * si for ni, si in zip(n, steps)) & mask
        signed.append((r if r <= half else r - full, n))
    violations = []
    inv = 2.0 ** -scale_bits
    min_abs = float("inf")
    for rho, n in signed:
        min_abs = min(min_abs, abs(rho) * inv)
        if h * abs(rho) < full:
            violations.append(f"|g({n})| = {abs(rho) * inv:.3e} < 1/{h}")
    signed.sort()
    min_gap = float("inf")
    for (r1, n1), (r2, n2) in zip(signed, signed[1:]):
        gap = r2 - r1
        min_gap = min(min_gap, gap * inv)
        if h * gap <= full:
            violations.append(f"|g({n2}) - g({n1})| = {gap * inv:.3e} <= 1/{h}")
    return AuditResult(passed=not violations, block=block, min_abs=min_abs,
                       min_gap=min_gap, violations=tuple(violations))


def _assert_audit_identical(alpha_values, block):
    want = _reference_audit(alpha_values, block)
    got = dyadic_spacing_audit(alpha_values, block)
    assert got == want
    assert got.min_abs.hex() == want.min_abs.hex()
    assert got.min_gap.hex() == want.min_gap.hex()
    return got


def _assert_block_identical(forms, gamma, c, ell, ell_ks, dim):
    want = _reference_block(forms, gamma, c, ell, ell_ks, dim)
    got = materialize_dyadic_block(forms, gamma, c, ell, ell_ks, dim)
    assert got == want
    assert all(type(v) is int for n in got.members for v in n)
    return got


SILVER_FIT = 0.72792206135785542  # fitted_c of the |n| <= 10^4 silver scan


@pytest.mark.parametrize("ell", range(2, 13))
def test_dyadic_block_and_audit_match_loops_1d(silver, ell):
    block = _assert_block_identical([np.array([1.0])], 0.5, SILVER_FIT, ell, [ell], 1)
    assert len(block.members) == 2 ** (ell + 1) - 2
    assert _assert_audit_identical([silver], block).passed


def test_dyadic_block_and_audit_match_loops_2d(silver):
    """The fitted constant gives clean blocks; c = 10 shrinks the capacity
    until both kinds of violation appear, so their strings are compared."""
    values = [silver, parse_literal("sqrt(3) - 1")]
    form = np.array([1.0, 0.0])
    fit = schmidt_inequality_scan(values, [form], 0.5, 16)
    for c, clean in ((fit.fitted_c, True), (10.0, False)):
        for ell in (2, 3, 4):
            block = _assert_block_identical([form], 0.5, c, ell, [ell], 2)
            assert _assert_audit_identical(values, block).passed == clean


def test_dyadic_audit_matches_loops_on_half_residues():
    """alpha = 1/2 puts every odd n at residue 2**191, which must map to
    rho = +1/2 for both signs of n; even n sit at 0.  Gaps are zero, so
    ties in rho are broken by n, also for members in reverse order."""
    half = parse_literal("1/2")
    for ell in range(2, 6):
        block = _assert_block_identical([np.array([1.0])], 0.5, 0.7, ell, [ell], 1)
        result = _assert_audit_identical([half], block)
        assert result.min_gap == 0.0 and result.min_abs == 0.0
        reverse = DyadicBlock(ell=ell, ell_ks=(ell,), members=block.members[::-1],
                              capacity=block.capacity)
        _assert_audit_identical([half], reverse)
    odd = DyadicBlock(ell=0, ell_ks=(0,), members=((3,), (-3,), (1,)), capacity=1)
    result = _assert_audit_identical([half], odd)
    assert result.min_abs == 0.5
    assert result.violations[-2:] == ("|g((1,)) - g((-3,))| = 0.000e+00 <= 1/1",
                                      "|g((3,)) - g((1,))| = 0.000e+00 <= 1/1")
    # H = 2 puts the thresholds exactly on the residues: H * |1/2| = 1 is not
    # below 1, while H * gap = 1 for the gap 0 -> 1/2 is at most 1
    edge = DyadicBlock(ell=0, ell_ks=(0,), members=((2,), (1,), (-1,)), capacity=2)
    assert _assert_audit_identical([half], edge).violations == (
        "|g((2,))| = 0.000e+00 < 1/2",
        "|g((-1,)) - g((2,))| = 5.000e-01 <= 1/2",
        "|g((1,)) - g((-1,))| = 0.000e+00 <= 1/2")
    # 1/3 rounds to floor(2**192 / 3), and 3 * floor(2**192 / 3) < 2**192
    third = DyadicBlock(ell=0, ell_ks=(0,), members=((-1,), (1,)), capacity=3)
    assert _assert_audit_identical([parse_literal("1/3")], third).violations == (
        "|g((-1,))| = 3.333e-01 < 1/3", "|g((1,))| = 3.333e-01 < 1/3")


def test_dyadic_audit_matches_loops_on_wide_coordinates(silver):
    """Coordinates beyond 32 bits take the high-digit products; a negative
    alpha takes the digits of -step for positive n."""
    members = ((-(2 ** 62) + 1, 5), (-(2 ** 40), -(2 ** 33) - 7), (3, 2 ** 32),
               (2 ** 45 + 11, -1), (2 ** 62, 2 ** 61))
    for capacity in (1, 10 ** 6):
        block = DyadicBlock(ell=0, ell_ks=(0,), members=members, capacity=capacity)
        _assert_audit_identical([silver, parse_literal("-7/3")], block)


def test_dyadic_audit_rejects_ragged_members(silver):
    block = DyadicBlock(ell=0, ell_ks=(0,), members=((1,), (2, 3)), capacity=1)
    with pytest.raises(ValidationError):
        dyadic_spacing_audit([silver, silver], block)


# -- series head, exponent scan and Schmidt scan against the scalar loops ---
#
# The loops below are the implementations the residue kernel replaced; the
# kernel versions must reproduce them bit for bit.


def _reference_series_head(value, n_max, bits):
    scale = max(bits, DEFAULT_FIXED_SCALE)
    alpha_fixed = value.fixed(scale)
    mask = (1 << scale) - 1
    half = 1 << (scale - 1)
    pow_scale = mpmath.mpf(2) ** scale
    with mpmath.workprec(bits + 32):
        def _terms():
            r = 0
            for n in range(1, n_max + 1):
                r = (r + alpha_fixed) & mask
                d = r if r <= half else (1 << scale) - r
                if d <= 2 * n:
                    raise PrecisionExhaustedError(
                        f"||{n}*alpha|| indistinguishable from 0 at scale {scale}")
                yield pow_scale / (n * n * d)

        return float(mpmath.fsum(_terms()))


@pytest.mark.parametrize("literal, n_max, bits", [
    ("sqrt(2) - 1", 10000, 192),
    ("(sqrt(5) - 1) / 2", 3000, 250),
    ("sqrt(3) - 1", 2000, 256),
    ("sqrt(7) / 3", 1500, 320),
])
def test_series_head_matches_loop(literal, n_max, bits):
    value = parse_literal(literal)
    got = diophantine_series(value, n_max, prec_bits=bits)
    want_sum = _reference_series_head(value, n_max, bits)
    assert got.scale_bits == max(bits, DEFAULT_FIXED_SCALE)
    assert got.partial_sum.hex() == want_sum.hex()


@pytest.mark.parametrize("literal, n_max", [
    ("(20 + 3*sqrt(11))/30", 446),
    ("(14 + 2*sqrt(5))/19", 1000),
    ("(4 + 2*sqrt(6))/9", 1000),
])
def test_series_falls_back_to_the_deepest_first_expansion(literal, n_max):
    """A depth-32 expansion is undecided at 192 bits for these surds; the
    series keeps the deepest expansion 192 bits decide, as it does for its
    later doublings."""
    value = parse_literal(literal)
    with pytest.raises(PrecisionExhaustedError, match="undecided at 192 bits"):
        continued_fraction(value, 32, prec_bits=192)
    got = diophantine_series(value, n_max, prec_bits=192)
    assert 1 <= got.depth_used < 32
    want_sum = _reference_series_head(value, n_max, 192)
    assert got.partial_sum.hex() == want_sum.hex()
    assert 0 < got.tail_bound < math.inf


def test_series_head_reports_first_unresolved_term():
    """||3 alpha|| is about 4e-60 here, below the 2n/2**192 resolution of
    the head; the expansion comes from 400 bits so the tail is certifiable."""
    value = parse_literal("1/3 + sqrt(2) * 1e-60")
    cf = continued_fraction(value, 3, prec_bits=400)
    with pytest.raises(PrecisionExhaustedError) as want:
        _reference_series_head(value, 100, 192)
    with pytest.raises(PrecisionExhaustedError) as got:
        diophantine_series(value, 100, prec_bits=192, cf=cf)
    assert str(got.value) == str(want.value) == (
        "||3*alpha|| indistinguishable from 0 at scale 192")


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 19]), b=st.integers(1, 6),
       c=st.integers(2, 40), j=st.integers(0, 10 ** 6), n_max=st.integers(1, 3000),
       bits=st.sampled_from([192, 256, 320]))
def test_series_head_matches_loop_on_random_surds(d, b, c, j, n_max, bits):
    """(a + b sqrt(d)) / c in (0, 1): a + b sqrt(d) = frac(b sqrt(d)) + j % c.
    The expansion comes from 1024 bits, so only the head depends on bits."""
    value = parse_literal(f"({j % c - math.isqrt(b * b * d)} + {b}*sqrt({d})) / {c}")
    cf = continued_fraction(value, 24, prec_bits=1024)
    try:
        want = _reference_series_head(value, n_max, bits)
    except PrecisionExhaustedError as exc:
        with pytest.raises(PrecisionExhaustedError, match=re.escape(str(exc))):
            diophantine_series(value, n_max, prec_bits=bits, cf=cf)
        return
    got = diophantine_series(value, n_max, prec_bits=bits, cf=cf)
    assert got.partial_sum.hex() == want.hex()


def _reference_exponent_scan(alpha1, n_max, eta, scale_bits=DEFAULT_FIXED_SCALE):
    value = AlgebraicValue.coerce(alpha1)
    step = value.fixed(scale_bits)
    mask = (1 << scale_bits) - 1
    half = 1 << (scale_bits - 1)
    inv = 2.0 ** -scale_bits
    hits = []
    worst = float("-inf")
    r = 0
    for n in range(1, n_max + 1):
        r = (r + step) & mask
        d = r if r <= half else (1 << scale_bits) - r
        dist = d * inv
        threshold = n ** (-eta)
        if dist < threshold:
            hits.append(ApproximationHit(n=n, distance=dist, threshold=threshold))
        if n >= 2:
            expo = float("inf") if dist == 0.0 else -math.log(dist) / math.log(n)
            if expo > worst:
                worst = expo
    return ExponentScan(alpha=value.literal(), eta=eta, n_max=n_max, hits=tuple(hits),
                        worst_exponent=worst if worst != float("-inf") else float("nan"))


@pytest.mark.parametrize("literal, n_max, eta, scale", [
    ("sqrt(2) - 1", 10000, 1.5, 192),
    ("(sqrt(5) - 1) / 2", 70000, 1.0, 192),
    ("-sqrt(3)", 5000, 1.2, 250),
    ("sqrt(7) / 3", 3000, 0.5, 320),
    ("1/7", 100, 1.5, 192),
    ("0", 5, 1.5, 192),
    ("sqrt(2) - 1", 1, 1.5, 192),
    ("sqrt(2) - 1", 0, 1.5, 192),
])
def test_exponent_scan_matches_loop(literal, n_max, eta, scale):
    got = approximation_exponent_scan(parse_literal(literal), n_max, eta, scale_bits=scale)
    want = _reference_exponent_scan(parse_literal(literal), n_max, eta, scale_bits=scale)
    assert got.to_csv() == want.to_csv()
    assert got.hits == want.hits
    assert got.worst_exponent.hex() == want.worst_exponent.hex()


def _reference_schmidt_scan(alpha_values, forms, gamma, n_max,
                            scale_bits=DEFAULT_FIXED_SCALE):
    values = [AlgebraicValue.coerce(a) for a in alpha_values]
    steps = [v.fixed(scale_bits) for v in values]
    dim = len(values)
    mask = (1 << scale_bits) - 1
    form_rows = [tuple(float(c) for c in f) for f in forms]
    inv = 2.0 ** -scale_bits
    half = 1 << (scale_bits - 1)
    full = 1 << scale_bits

    def lattice(prefix, acc, axis):
        if axis == dim:
            if any(prefix):
                yield tuple(prefix), acc & mask
            return
        base = (acc - (n_max + 1) * steps[axis]) & mask
        for c in range(-n_max, n_max + 1):
            base = (base + steps[axis]) & mask
            yield from lattice(prefix + [c], base, axis + 1)

    hits = []
    fitted_c = float("inf")
    for n, r in lattice([], 0, 0):
        d = r if r <= half else full - r
        dist = d * inv
        prod = 1.0
        for row in form_rows:
            prod *= abs(sum(c * ni for c, ni in zip(row, n))) + 1.0
        norm = math.sqrt(sum(ni * ni for ni in n))
        lhs = dist * prod
        rhs = norm ** (-gamma)
        if lhs < rhs:
            hits.append(SchmidtHit(n=n, lhs=lhs, rhs=rhs))
        scaled = lhs * norm ** gamma
        if scaled < fitted_c:
            fitted_c = scaled
    return SchmidtScan(gamma=gamma, n_max=n_max, hits=tuple(hits), fitted_c=fitted_c)


@pytest.mark.parametrize("literals, forms, gamma, n_max", [
    (["sqrt(2) - 1"], [[1.0]], 0.5, 2000),
    (["sqrt(2) - 1", "sqrt(3) - 1"], [[1.0, 0.0]], 0.5, 16),
    (["sqrt(2) - 1", "-sqrt(5)"], [[0.5, -1.25], [0.1, 0.3]], 0.75, 12),
    (["sqrt(2) - 1", "sqrt(3) - 1", "sqrt(5) - 2"], [[1.0, 0.0, 0.0]], 1.0, 3),
    (["1/2", "1/3"], [[1.0, 1.0]], 0.5, 4),
    (["sqrt(2) - 1"], [[1.0]], 0.5, 0),
])
def test_schmidt_scan_matches_loop(literals, forms, gamma, n_max):
    values = [parse_literal(a) for a in literals]
    got = schmidt_inequality_scan(values, forms, gamma, n_max)
    want = _reference_schmidt_scan(values, forms, gamma, n_max)
    assert got.hits == want.hits
    assert all(type(v) is int for h in got.hits for v in h.n)
    assert [(h.lhs.hex(), h.rhs.hex()) for h in got.hits] == [
        (h.lhs.hex(), h.rhs.hex()) for h in want.hits]
    assert got.fitted_c.hex() == want.fitted_c.hex()
    assert got.to_csv() == want.to_csv()
