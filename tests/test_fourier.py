"""Exact Fourier coefficients, decay bounds, flag forms, and majorants."""
from __future__ import annotations

import numpy as np
import pytest

from torusflow.algebraic import AlgebraicValue, parse_literal
from torusflow.diophantine import diophantine_series
from torusflow.errors import ValidationError
from torusflow.fourier import (
    coefficients_csv,
    coefficients_csv_3d,
    envelope_fit,
    flag_forms,
    flag_forms_of_arrangement,
    fourier_coeff_exact_2d,
    fourier_coeff_exact_3d,
    fourier_coeffs_2d,
    fourier_majorant_2d,
    flag_decay_envelope,
    per_coefficient_bound,
    polygon_discrepancy_bound,
    polygon_exponential_integral,
    projection_chain_norms,
)

# Coefficients of the reference triangle section, verified against midpoint
# Riemann sums with 2e5 nodes (agreement ~2e-12).
COEFF_1 = 0.0519351904214 - 0.0787042679689j
COEFF_7 = -0.00216250177031 - 0.000170335075816j
COEFF_100 = 3.50081859975e-06 - 8.82975298429e-07j
PER_COEFF_K = 1.0590600488361335
# (1,1) coefficient of the box [0, 0.4]^3 instance, from the separable
# closed form for products of interval indicators.
BOX3_COEFF_11 = 0.012052401426860211065 - 0.022169117715490812023j
UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def _riemann_coeff(sec, n, m=200000):
    xs = (np.arange(m) + 0.5) / m
    return np.mean(sec(xs) * np.exp(-2j * np.pi * n * xs))


def test_mean_coefficient(triangle_section, triangle):
    c0 = fourier_coeff_exact_2d(triangle_section, 0)
    np.testing.assert_allclose(c0.value, triangle.volume, atol=1e-14)


def test_frozen_coefficients(triangle_section):
    for n, want in ((1, COEFF_1), (7, COEFF_7), (100, COEFF_100)):
        got = fourier_coeff_exact_2d(triangle_section, n).value
        np.testing.assert_allclose(got, want, atol=1e-9)
        np.testing.assert_allclose(got, _riemann_coeff(triangle_section, n), atol=1e-8)


def test_vectorised_coefficients_match_singles(triangle_section):
    vec = fourier_coeffs_2d(triangle_section, 64)
    singles = [fourier_coeff_exact_2d(triangle_section, n).value for n in range(1, 65)]
    np.testing.assert_allclose(vec, singles, atol=1e-14)


def test_conjugate_symmetry(triangle_section):
    for n in (1, 3, 11):
        plus = fourier_coeff_exact_2d(triangle_section, n).value
        minus = fourier_coeff_exact_2d(triangle_section, -n).value
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-15)


def test_per_coefficient_bound(triangle, silver_direction, triangle_section):
    k = per_coefficient_bound(triangle, silver_direction)
    np.testing.assert_allclose(k, PER_COEFF_K, rtol=1e-12)
    ns = np.arange(1, 2001)
    mags = np.abs(fourier_coeffs_2d(triangle_section, 2000))
    assert np.all(mags <= k / ns ** 2 * (1 + 1e-12))


def test_bound_certificate_structure(triangle, silver_direction, silver):
    series = diophantine_series(silver, 2000)
    cert = polygon_discrepancy_bound(triangle, silver_direction, series)
    assert cert.valid
    np.testing.assert_allclose(
        cert.bound_value,
        cert.additive + cert.cot_factor * (cert.series_partial + cert.series_tail),
        rtol=1e-14)
    assert cert.additive == 2.0
    no_add = polygon_discrepancy_bound(triangle, silver_direction, series,
                                       drop_additive=True)
    assert no_add.additive == 0.0
    np.testing.assert_allclose(no_add.bound_value, cert.bound_value - 2.0, rtol=1e-14)
    blob = cert.to_json()
    assert "bound_value" in blob and "assumptions" in blob


def test_majorant_construction(triangle_section, silver):
    series = diophantine_series(silver, 500)
    k = PER_COEFF_K
    m = fourier_majorant_2d(triangle_section, silver, 500, series=series,
                            per_coeff_k=k)
    assert m.rigorous
    np.testing.assert_allclose(m.value, m.head + m.tail, rtol=1e-15)
    assert m.tail > 0
    # head agrees with a direct float evaluation of the truncated sum
    ns = np.arange(1, 501)
    mags = np.abs(fourier_coeffs_2d(triangle_section, 500))
    dist = np.abs((ns * float(silver)) % 1.0)
    dist = np.minimum(dist, 1.0 - dist)
    np.testing.assert_allclose(m.head, np.sum(mags / dist), rtol=1e-9)


def test_majorant_requires_matching_series(triangle_section, silver):
    series = diophantine_series(silver, 500)
    with pytest.raises(ValidationError):
        fourier_majorant_2d(triangle_section, silver, 1000, series=series,
                            per_coeff_k=PER_COEFF_K)
    bare = fourier_majorant_2d(triangle_section, silver, 500)
    assert not bare.rigorous and bare.tail == 0.0


def _reference_majorant_head(sec, alpha1, n_max, scale_bits=192):
    """The scalar loop the 2d majorant head was computed with."""
    coeffs = fourier_coeffs_2d(sec, n_max)
    alpha_fix = AlgebraicValue.coerce(alpha1).fixed(scale_bits)
    full = 1 << scale_bits
    half = full >> 1
    mask = full - 1
    inv = []
    r = 0
    for n in range(1, n_max + 1):
        r = (r + alpha_fix) & mask
        dist = r if r <= half else full - r
        if dist == 0:
            raise ValidationError(f"||{n} alpha|| = 0 at working scale; alpha rational?")
        inv.append(full / dist)
    return float(np.sum(np.abs(coeffs) * np.array(inv)))


@pytest.mark.parametrize("literal, n_max, scale", [
    ("sqrt(2) - 1", 500, 192),
    ("(sqrt(5) - 1) / 2", 2000, 250),
    ("sqrt(3) - 1", 300, 320),
])
def test_majorant_head_matches_loop(triangle_section, literal, n_max, scale):
    alpha = parse_literal(literal)
    got = fourier_majorant_2d(triangle_section, alpha, n_max, scale_bits=scale)
    want = _reference_majorant_head(triangle_section, alpha, n_max, scale)
    assert got.head.hex() == want.hex()


def test_majorant_rejects_zero_distance(triangle_section):
    with pytest.raises(ValidationError) as want:
        _reference_majorant_head(triangle_section, parse_literal("3/8"), 50)
    with pytest.raises(ValidationError) as got:
        fourier_majorant_2d(triangle_section, parse_literal("3/8"), 50)
    assert str(got.value) == str(want.value) == (
        "||8 alpha|| = 0 at working scale; alpha rational?")


def test_unit_square_flags():
    forms = flag_forms(UNIT_SQUARE)
    assert forms.total_flags == 8
    assert len(forms) == 2
    assert sorted(f.multiplicity for f in forms.forms) == [4, 4]
    for f in forms.forms:
        vecs = np.asarray(f.vectors)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(gram, np.eye(len(vecs)), atol=1e-12)


def test_triangle_flags(triangle):
    forms = flag_forms(np.asarray(triangle.vertices, dtype=float))
    assert forms.total_flags == 6
    assert 1 <= len(forms) <= 6


def test_envelope_properties():
    forms = flag_forms(UNIT_SQUARE)
    vals = [flag_decay_envelope(forms, (n, 0)) for n in (1, 2, 4, 8)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    np.testing.assert_allclose(flag_decay_envelope(forms, (3, 5)),
                               flag_decay_envelope(forms, (-3, -5)), rtol=1e-14)


def test_projection_chain_norms_monotone():
    forms = flag_forms(UNIT_SQUARE)
    for f in forms.forms:
        norms = projection_chain_norms(f, (5, 3))
        assert list(norms) == sorted(norms, reverse=True)
        assert norms[-1] >= 0


def test_polygon_exponential_integral():
    # n = 0 returns the plain area
    np.testing.assert_allclose(polygon_exponential_integral(UNIT_SQUARE, (0, 0)),
                               1.0, atol=1e-14)
    # over the full square a pure x-harmonic integrates to zero
    np.testing.assert_allclose(polygon_exponential_integral(UNIT_SQUARE, (1, 0)),
                               0.0, atol=1e-12)
    tri = np.array([(0.1, 0.1), (0.7, 0.2), (0.3, 0.8)])
    m = 600
    g = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(g, g)

    # half-plane test for triangle membership
    def inside(px, py):
        sign = np.ones_like(px, dtype=bool)
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            sign &= cross >= 0
        return sign
    mask = inside(xx, yy)
    ref = np.sum(np.exp(-2j * np.pi * (2 * xx + 3 * yy)) * mask) / m ** 2
    got = polygon_exponential_integral(tri, (2, 3))
    np.testing.assert_allclose(got, ref, atol=2e-5)


def test_box3_coefficients(box3_arrangement):
    arr = box3_arrangement
    c00 = fourier_coeff_exact_3d(arr, (0, 0))
    np.testing.assert_allclose(c00.value, arr.mean(), atol=1e-14)
    c11 = fourier_coeff_exact_3d(arr, (1, 1))
    np.testing.assert_allclose(c11.value, BOX3_COEFF_11, atol=1e-12)


def test_box3_coefficients_separable_reference(box3_arrangement):
    """For a box, the section transform factors into interval transforms."""
    b = 0.4
    a1 = 2 ** 0.5 - 1
    a2 = 3 ** 0.5 - 1

    def interval_hat(n):
        if n == 0:
            return b
        return (1 - np.exp(-2j * np.pi * n * b)) / (2j * np.pi * n)

    def axis_factor(beta):
        if abs(beta) < 1e-15:
            return b
        return (np.exp(2j * np.pi * beta * b) - 1) / (2j * np.pi * beta)

    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            want = (interval_hat(n1) * interval_hat(n2)
                    * axis_factor(n1 * a1 + n2 * a2))
            got = fourier_coeff_exact_3d(box3_arrangement, (n1, n2)).value
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=str((n1, n2)))


def test_box3_resonant_coefficient(box3_arrangement):
    # 5 * 0.4 = 2, so the second interval factor vanishes at n2 = 5
    got = fourier_coeff_exact_3d(box3_arrangement, (7, 5)).value
    assert abs(got) < 1e-14


def test_arrangement_flags_and_fit(box3_arrangement):
    forms = flag_forms_of_arrangement(box3_arrangement)
    assert len(forms) == 3
    assert forms.total_flags == 1000
    fit = envelope_fit(box3_arrangement, forms, inner=(0, 8), outer=(8, 16))
    assert fit.c_inner > 0 and fit.c_outer > 0
    expected = fit.c_outer <= 2 * fit.c_inner and fit.c_inner <= 2 * fit.c_outer
    assert fit.stable == expected


def test_coefficient_csv_outputs(triangle_section, triangle, silver_direction,
                                 box3_arrangement):
    txt = coefficients_csv(triangle_section, triangle, silver_direction, 32)
    lines = txt.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 33
    cols = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    assert np.all(cols[:, 4] >= cols[:, 3] * (1 - 1e-12))  # bound dominates |f|
    forms = flag_forms_of_arrangement(box3_arrangement)
    txt3 = coefficients_csv_3d(box3_arrangement, forms, 4)
    rows3 = txt3.strip().splitlines()
    assert rows3[0].startswith("n1,n2,")
    assert len(rows3) > 4
