"""Exact Fourier coefficients, decay bounds, flag forms, and majorants."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.algebraic import AlgebraicValue, parse_literal
from torusflow.diophantine import diophantine_series
from torusflow.engine import FlowInstance, delta_T_exact
from torusflow.errors import DegeneratePolytopeError, ValidationError
from torusflow.fourier import (
    _CHUNK,
    _edge_sums,
    _edge_table,
    _lattice_shell,
    coefficients_3d,
    coefficients_csv,
    coefficients_csv_3d,
    envelope_fit,
    flag_forms_of_arrangement,
    fourier_coeff_exact_2d,
    fourier_coeffs_2d,
    fourier_majorant_2d,
    flag_decay_envelopes,
    per_coefficient_bound,
    polygon_discrepancy_bound,
)
from torusflow.geometry import (
    BREAKPOINT_TOL,
    Arrangement,
    ArrangementCell,
    Direction,
    Polytope,
    SectionFunction2D,
    arrangement_cells,
    random_polygon,
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


def _reference_coeff_2d(sec, n):
    """The scalar loop single 2d coefficients were computed with."""
    c, a = sec.breakpoints, sec.slopes
    phases = [cmath.exp(-2j * math.pi * math.fmod(n * x, 1.0)) for x in c]
    return sum(a[j] * (phases[j + 1] - phases[j])
               for j in range(len(a))) / (4.0 * math.pi ** 2 * n * n)


def test_vectorised_coefficients_match_singles(triangle_section):
    vec = fourier_coeffs_2d(triangle_section, 64)
    singles = [fourier_coeff_exact_2d(triangle_section, n).value for n in range(1, 65)]
    np.testing.assert_allclose(vec, singles, atol=1e-14)
    reference = [_reference_coeff_2d(triangle_section, n) for n in range(1, 65)]
    np.testing.assert_allclose(vec, reference, atol=1e-14)


def test_discontinuous_section_rejected(triangle_section):
    values = np.array(triangle_section.values, dtype=float)
    values[-1] += 1e-3
    with pytest.raises(ValidationError, match="not periodic"):
        SectionFunction2D(triangle_section.breakpoints, values)


@st.composite
def _section_problem(draw):
    """alpha_1, a seed, and a body: a box with a corner at the origin, whose
    section kinks at the wrap, or a random polygon of 3 to 7 corners.
    alpha_1 is a quadratic surd (a + b sqrt(D))/c of either sign, 1 or -1/2."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
    root = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    c = draw(st.integers(1, 6))
    alpha1 = draw(st.sampled_from([f"({a} + {b} * sqrt({root})) / {c}", "1", "-1/2"]))
    body = draw(st.sampled_from(["box", 3, 4, 5, 6, 7]))
    return alpha1, draw(st.integers(0, 2 ** 32 - 1)), body


def _window_tol(inst) -> float:
    """Allowance between the kink table and a clipped length at one x.

    A clipped length sums hi - lo over the k reachable translates.  Each
    end is a quotient r/b with |r| = |c + <nu, eps> - nu_1 x| <= m + 3 for
    unit normals nu and reach m, so with s = 1/min|b| it is within
    (m + 3) s eps + eps of exact, and the length within w = 2k((m + 3) s + 1)
    eps.  Every slope of f is at most 2ks, so a kink changes the slope by at
    most 4ks.  The table holds clipped lengths at breakpoints within
    BREAKPOINT_TOL of the kinks, and np.interp rounds within 3 eps of the
    exact interpolant of [0, 1]-valued data: the interpolant is within
    w + 4ks BREAKPOINT_TOL + 3 eps of f, and within one more w of a clipped
    length.
    """
    ev = inst.evaluator
    k, m, s = len(ev.translates), ev.m_reach, 1.0 / np.abs(ev.facet_b).min()
    eps = np.finfo(float).eps
    w = 2 * k * ((m + 3) * s + 1) * eps
    return 2 * w + 4 * k * s * BREAKPOINT_TOL + 3 * eps


@settings(max_examples=25)
@given(_section_problem())
def test_kink_table_matches_the_clipper(problem):
    """For alpha_1 of any sign the kink table interpolates the clipper, has
    the body's volume as its mean and the reference coefficients, and
    gives the engine the same Delta_T as clipping every window.

    Both engine runs clip the same partial windows and sum n = T + 1 full
    windows, which differ by at most _window_tol each; each computed sum of
    n terms of size at most 1 is within gamma_n n <= 1.01 n^2 eps / 2 of
    its exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., eq. 4.4), so the runs differ by at most n _window_tol + 1.01
    n^2 eps.
    """
    alpha1, seed, body = problem
    rng = np.random.default_rng(seed)
    poly = (Polytope.box((0.0, 0.0), tuple(rng.uniform(0.1, 0.9, 2))) if body == "box"
            else random_polygon(rng, body))
    direction = [parse_literal(alpha1), parse_literal("1")]
    zero = (parse_literal("0"), parse_literal("0"))
    inst = FlowInstance.build(direction, zero, poly)
    clipped = FlowInstance.build(direction, zero, poly, want_section=False)
    sec = inst.section
    xs = rng.random(64)
    np.testing.assert_allclose(sec(xs), inst.evaluator.lengths(xs), rtol=0, atol=1e-12)
    assert abs(sec.mean() - poly.volume) <= 1e-12
    reference = [_reference_coeff_2d(sec, n) for n in range(1, 33)]
    np.testing.assert_allclose(fourier_coeffs_2d(sec, 32), reference, rtol=0, atol=1e-14)
    for t in (10, 1000):
        n = t + 1
        tol = n * _window_tol(inst) + 1.01 * n * n * np.finfo(float).eps
        assert abs(delta_T_exact(inst, t) - delta_T_exact(clipped, t)) <= tol


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


def _one_cell(vertices):
    return Arrangement(cells=(ArrangementCell(
        vertices=np.asarray(vertices, dtype=float), gradient=np.zeros(2), offset=0.0,
        fit_residual=0.0),), lines=())


def _polygon_integral(vertices, n):
    """Integral of e(-<n, x>) over one CCW polygon through the edge kernel."""
    start, vec, _, area = _edge_table([vertices])
    n_sq = float(np.dot(n, n))
    if n_sq == 0.0:
        return complex(area[0])
    ns = np.array([n], dtype=np.float64)
    return complex(_edge_sums(start, vec, ns, 1.0)[0] / (-2j * math.pi * n_sq))


def test_unit_square_flags():
    forms = flag_forms_of_arrangement(_one_cell(UNIT_SQUARE))
    assert sum(f.multiplicity for f in forms.forms) == 8
    assert len(forms) == 2
    assert sorted(f.multiplicity for f in forms.forms) == [4, 4]
    for f in forms.forms:
        vecs = np.asarray(f.vectors)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(gram, np.eye(len(vecs)), atol=1e-12)


def test_triangle_flags(triangle):
    forms = flag_forms_of_arrangement(_one_cell(triangle.vertices))
    assert sum(f.multiplicity for f in forms.forms) == 6
    assert 1 <= len(forms) <= 6


def test_envelope_properties():
    forms = flag_forms_of_arrangement(_one_cell(UNIT_SQUARE))
    vals = flag_decay_envelopes(forms, [(n, 0) for n in (1, 2, 4, 8)])
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    pair = flag_decay_envelopes(forms, [(3, 5), (-3, -5)])
    np.testing.assert_allclose(pair[0], pair[1], rtol=1e-14)


def test_polygon_exponential_integral():
    # n = 0 returns the plain area
    np.testing.assert_allclose(_polygon_integral(UNIT_SQUARE, (0, 0)),
                               1.0, atol=1e-14)
    # over the full square a pure x-harmonic integrates to zero
    np.testing.assert_allclose(_polygon_integral(UNIT_SQUARE, (1, 0)),
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
    got = _polygon_integral(tri, (2, 3))
    np.testing.assert_allclose(got, ref, atol=2e-5)
    np.testing.assert_allclose(_polygon_integral(tri, (0, 0)), 0.2, rtol=1e-14)
    with pytest.raises(DegeneratePolytopeError):
        _polygon_integral(tri[::-1], (1, 0))
    with pytest.raises(ValidationError):
        _polygon_integral(tri[:2], (1, 0))


def test_box3_coefficients(box3_arrangement):
    arr = box3_arrangement
    c00, c11 = coefficients_3d(arr, [(0, 0), (1, 1)])
    np.testing.assert_allclose(c00, arr.mean(), atol=1e-14)
    np.testing.assert_allclose(c11, BOX3_COEFF_11, atol=1e-12)


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
            got = coefficients_3d(box3_arrangement, [(n1, n2)])[0]
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=str((n1, n2)))


def test_box3_resonant_coefficient(box3_arrangement):
    # 5 * 0.4 = 2, so the second interval factor vanishes at n2 = 5
    got = coefficients_3d(box3_arrangement, [(7, 5)])[0]
    assert abs(got) < 1e-14


def test_arrangement_flags_and_fit(box3_arrangement):
    forms = flag_forms_of_arrangement(box3_arrangement)
    assert len(forms) == 3
    assert sum(f.multiplicity for f in forms.forms) == 1000
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


# -- the one-pass 3d kernel against the per-vector loop ----------------------

_U = 2.0 ** -53
# Quadrilateral with binary-exact vertices; its first edge (0.375, -0.25) is
# orthogonal to (2, 3), so <n, v> is exactly 0 there.
ORTHO_QUAD = np.array([(0.125, 0.5), (0.5, 0.25), (0.75, 0.625), (0.25, 0.875)])
# Triangle whose first edge has <(2, 3), v> of about 3e-9: the series branch
# of E with a nonzero argument.
NEAR_ORTHO_TRI = np.array([(0.1, 0.5), (0.4, 0.3 + 1e-9), (0.6, 0.8)])


def _reference_polygon_integral(verts, n):
    """The per-edge loop polygon integrals were computed with."""
    n_vec = np.asarray(n, dtype=np.float64)
    n_sq = float(np.dot(n_vec, n_vec))
    total = 0.0j
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        edge = q - p
        length = float(np.linalg.norm(edge))
        if length < 1e-15:
            continue
        outward = np.array([edge[1], -edge[0]]) / length
        flux = float(np.dot(n_vec, outward))
        if flux == 0.0:
            continue
        z = float(np.dot(n_vec, edge))
        w = -2j * math.pi * z
        if abs(z) < 1e-8:
            factor = 1.0 + w / 2.0 + w * w / 6.0 + w * w * w / 24.0
        else:
            factor = (cmath.exp(-2j * math.pi * math.fmod(z, 1.0)) - 1.0) / w
        phase = cmath.exp(-2j * math.pi * math.fmod(float(np.dot(n_vec, p)), 1.0))
        total += flux * length * phase * factor
    return total / (-2j * math.pi * n_sq)


def _reference_coeff_3d(arr, n):
    """The per-vector, per-cell loop the 3d coefficients were computed with."""
    n_vec = np.asarray(n, dtype=np.float64)
    if not n_vec.any():
        return complex(arr.mean())
    n_sq = float(np.dot(n_vec, n_vec))
    total = 0.0j
    for cell in arr.cells:
        grad = float(np.dot(cell.gradient, n_vec))
        if grad == 0.0:
            continue
        total += grad * _reference_polygon_integral(np.asarray(cell.vertices), n_vec)
    return total / (2j * math.pi * n_sq)


def _reference_envelope(forms, n):
    """The scalar loop the decay envelope was computed with."""
    n = np.asarray(n, dtype=np.float64)
    norm = float(np.linalg.norm(n))
    total = 0.0
    for f in forms.forms:
        denom = norm
        for v in f.vectors:
            denom *= abs(float(np.dot(np.asarray(v), n))) + 1.0
        total += 1.0 / denom
    return total


def _edge_sum_tolerance(polygons, weights, ns):
    """Bound on the difference of the two edge sums sum_e t_e at each row n of
    ns.

    Both implementations sum, over the edges p_e + s v_e of each polygon j,
    t_e = g_j (n x v_e) e(-<n, p_e>) E(<n, v_e>) with |g_j| <= weights[k, j]
    at row k; they differ only in rounding (unit roundoff u).  With
    |e(.)| = 1 and |E| <= 1, T_e = weights[k, j] |n| |v_e| bounds |t_e|, and
    each factor is off by at most, relative to T_e and to first order in u:
      - g_j, a two-term dot product: 2u; the loop also divides its cell integral
        by -2 pi i |n|^2 and its sum by 2 pi i |n|^2 (6u);
      - n x v_e: 2u; the loop's unit normal, dot product and rescaling: 8u;
      - e(-<n, p_e>): <n, p_e> is off by 2u |n| |p_e|, the phase by 2 pi times
        that, plus 2 pi u for the angle and 2u for exp (15u);
      - E(z), z = <n, v_e>: z is off by 2u |n| |v_e| and |E'| <= pi; for
        |z| >= 1e-8, exp(-2 pi i fmod(z, 1)) - 1 is off by (2 pi + 4)u, which E
        divides by 2 pi |z| (2u / |z|); the division itself 4u.  The series
        used below 1e-8 truncates at (2 pi 1e-8)^4 / 120 < u;
      - three products: 6u.
    That is (41 + 4 pi |n| (|p_e| + |v_e|) + 2 / |z_e|) u T_e per edge.  A sum
    of m terms adds at most 2 m u sum_e T_e (Higham's gamma_m, for real and
    imaginary parts).  Both implementations err, so the bound doubles:
        2u sum_e T_e (2m + 48 + 4 pi |n| (|p_e| + |v_e|) + 2 / |z_e|).
    """
    ns = np.asarray(ns, dtype=np.float64)
    norm = np.hypot(ns[:, 0], ns[:, 1])[:, None]
    verts = [np.asarray(v, dtype=np.float64) for v in polygons]
    start = np.concatenate(verts)
    vec = np.concatenate([np.roll(v, -1, axis=0) - v for v in verts])
    owner = np.repeat(np.arange(len(verts)), [len(v) for v in verts])
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    z = np.abs(ns @ vec.T)
    cond = np.where(z >= 1e-8, 2.0 / np.maximum(z, 1e-8), 0.0)
    per_edge = (2 * len(start) + 48
                + 4 * np.pi * norm * (np.hypot(start[:, 0], start[:, 1]) + lengths) + cond)
    weight = np.asarray(weights, dtype=np.float64)[:, owner]
    return 2 * _U * norm[:, 0] * np.sum(weight * lengths * per_edge, axis=1)


def _coeff_tolerance(arr, ns):
    """Bound on |coefficients_3d - _reference_coeff_3d| at each nonzero row
    of ns: the edge sums above with g_j = <a_j, n>, so weights |a_j| |n|,
    divided by 4 pi^2 |n|^4."""
    ns = np.asarray(ns, dtype=np.float64).reshape(-1, 2)
    norm = np.hypot(ns[:, 0], ns[:, 1])
    grads = np.array([np.linalg.norm(c.gradient) for c in arr.cells])
    sums = _edge_sum_tolerance([c.vertices for c in arr.cells], norm[:, None] * grads, ns)
    return sums / (4 * np.pi ** 2 * norm ** 4)


def _envelope_rtol(forms, n):
    """Relative bound on |flag_decay_envelopes - _reference_envelope|.

    |n| is exact for integer n up to one rounding of the square root.  Each
    L_k(n), a two-term dot product with a unit vector, is off by 2u |n|, so
    |L_k| + 1 is off by (2 |n| + 1) u relative; a form with k vectors
    multiplies k + 1 factors and takes a reciprocal, and summing F positive
    terms adds F u.  Both implementations err, so the bound doubles.
    """
    norm = float(np.linalg.norm(n))
    k = max(len(f.vectors) for f in forms.forms)
    return 2 * _U * (len(forms) + (k + 1) * (2 * norm + 3))


def _check_against_reference(arr, ns):
    ns = np.asarray(ns)
    got = coefficients_3d(arr, ns)
    zero = ~ns.any(axis=1)
    assert np.all(got[zero] == _reference_coeff_3d(arr, (0, 0)))
    tols = _coeff_tolerance(arr, ns[~zero])
    for n, c, tol in zip(ns[~zero], got[~zero], tols):
        want = _reference_coeff_3d(arr, n)
        assert abs(c - want) <= tol, (tuple(n), c, want, tol)


@pytest.mark.parametrize("name", ["box3_arrangement", "tetra3_arrangement"])
def test_coefficients_3d_match_reference_loop(request, name):
    arr = request.getfixturevalue(name)
    ns = np.vstack([[(0, 0)], _lattice_shell(0, 4), [(25, -17), (-50, 49)]])
    _check_against_reference(arr, ns)
    assert coefficients_3d(arr, [(0, 0)])[0] == complex(arr.mean())


def test_coefficients_3d_axis_vectors(box3_arrangement):
    """Axis vectors make every vertical (or horizontal) edge of the box
    cells carry zero flux, and the other edges take the series branch."""
    ns = np.array([(1, 0), (0, 1), (-3, 0), (0, 7), (13, 0)])
    vec = np.concatenate([np.roll(c.vertices, -1, axis=0) - c.vertices
                          for c in box3_arrangement.cells])
    assert np.any(vec[:, 1] == 0) and np.any(vec[:, 0] == 0)
    _check_against_reference(box3_arrangement, ns)


def test_edge_orthogonal_to_vector_takes_series_branch():
    for verts, n in ((ORTHO_QUAD, (2, 3)), (ORTHO_QUAD, (-4, -6)),
                     (NEAR_ORTHO_TRI, (2, 3)), (NEAR_ORTHO_TRI, (6, 9))):
        z = float(np.dot(verts[1] - verts[0], n))
        assert abs(z) < 1e-8
        want = _reference_polygon_integral(verts, n)
        tol = _edge_sum_tolerance([verts], [[1.0]], [n])[0] / (2 * np.pi * np.dot(n, n))
        assert abs(_polygon_integral(verts, n) - want) <= tol
    arr = Arrangement(cells=(
        ArrangementCell(vertices=ORTHO_QUAD, gradient=np.array([0.3, -0.7]),
                        offset=0.1, fit_residual=0.0),
        ArrangementCell(vertices=NEAR_ORTHO_TRI, gradient=np.array([-1.1, 0.4]),
                        offset=0.2, fit_residual=0.0),
    ), lines=())
    _check_against_reference(arr, np.array([(2, 3), (-2, -3), (4, 6), (1, 0)]))


def test_coefficients_3d_past_one_chunk(box3_arrangement):
    ns = _lattice_shell(0, 24)
    assert len(ns) > 2 * _CHUNK
    full = coefficients_3d(box3_arrangement, ns)
    # each row is computed on its own, so chunk boundaries change no bit
    window = slice(_CHUNK - 40, _CHUNK + 40)
    assert np.array_equal(coefficients_3d(box3_arrangement, ns[window]), full[window])
    assert np.array_equal(coefficients_3d(box3_arrangement, ns[::-1]), full[::-1])
    picks = [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, len(ns) - 1]
    _check_against_reference(box3_arrangement, ns[picks])


def test_csv_3d_rows_match_reference(box3_arrangement):
    forms = flag_forms_of_arrangement(box3_arrangement)
    rows = [r.split(",") for r in
            coefficients_csv_3d(box3_arrangement, forms, 3).strip().splitlines()]
    assert rows[0] == ["n1", "n2", "re", "im", "abs", "envelope"]
    order = [(n1, n2) for n1 in range(-3, 4) for n2 in range(-3, 4) if (n1, n2) != (0, 0)]
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == order
    tols = _coeff_tolerance(box3_arrangement, order)
    for (n1, n2), r, tol in zip(order, rows[1:], tols):
        want = _reference_coeff_3d(box3_arrangement, (n1, n2))
        got = complex(float(r[2]), float(r[3]))
        assert abs(got - want) <= tol
        env = _reference_envelope(forms, (n1, n2))
        assert abs(float(r[5]) - env) <= _envelope_rtol(forms, (n1, n2)) * env


@pytest.fixture(scope="module")
def box3_forms(box3_arrangement):
    return flag_forms_of_arrangement(box3_arrangement)


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
                .filter(lambda n: n != (0, 0)), min_size=1, max_size=20))
def test_lattice_symmetry_and_envelope_property(box3_arrangement, box3_forms, vectors):
    ns = np.array(vectors)
    plus = coefficients_3d(box3_arrangement, ns)
    minus = coefficients_3d(box3_arrangement, -ns)
    forms = box3_forms
    envs = flag_decay_envelopes(forms, ns)
    tols = _coeff_tolerance(box3_arrangement, ns)
    for n, c_plus, c_minus, env, tol in zip(vectors, plus, minus, envs, tols):
        assert abs(c_minus - np.conj(c_plus)) <= tol
        assert env == flag_decay_envelopes(forms, [n])[0]
        want = _reference_envelope(forms, n)
        assert abs(env - want) <= _envelope_rtol(forms, n) * want


@pytest.mark.parametrize("bad", [
    [(0.5, 0.2)], [(1.7, 2.0)], [(np.nan, 1.0)], [(np.inf, 0.0)],
    [(1, 2, 3)], [1, 2], [[[1, 2]]], [("a", 1)],
])
def test_lattice_functions_reject_bad_vectors(box3_arrangement, bad):
    forms = flag_forms_of_arrangement(box3_arrangement)
    with pytest.raises(ValidationError):
        coefficients_3d(box3_arrangement, bad)
    with pytest.raises(ValidationError):
        flag_decay_envelopes(forms, bad)


# -- flag forms from one edge pass against the per-flag chains ---------------


def _reference_flag_chains(polygon_vertices):
    """The per-flag loop: the Gram-Schmidt (edge normal, endpoint) chain of
    every complete flag of a convex polygon."""
    verts = np.asarray(polygon_vertices, dtype=np.float64)
    m = len(verts)
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        edge = q - p
        if np.linalg.norm(edge) < 1e-13:
            raise DegeneratePolytopeError("zero-length polygon edge")
        chain = []
        for r in (np.array([edge[1], -edge[0]]), edge):  # outward normal, into q
            v = r.copy()
            for u in chain:
                v -= np.dot(v, u) * u
            if np.linalg.norm(v) < 1e-10:
                raise DegeneratePolytopeError("flag normals are linearly dependent")
            chain.append(v / np.linalg.norm(v))
        yield chain
        yield [chain[0], -chain[1]]  # the same flag towards p


def _reference_merge_chains(chains):
    """Chains merged by a 9-digit key of each vector, its first component
    above 1e-12 made positive, with a multiplicity count, in order of first
    appearance: [(vectors, multiplicity)]."""
    seen = {}
    for chain in chains:
        key = []
        for v in chain:
            lead = v[np.abs(v) > 1e-12]
            key.append(tuple(np.round(-v if len(lead) and lead[0] < 0 else v, 9)))
        seen.setdefault(tuple(key), [chain, 0])[1] += 1
    return [(np.array(chain), mult) for chain, mult in seen.values()]


def _random_bodies(rng, count):
    """Random boxes and perturbed tetrahedra inside the unit cube."""
    for i in range(count):
        if i % 2 == 0:
            lo = rng.uniform(0.05, 0.45, 3)
            yield Polytope.box(tuple(lo), tuple(lo + rng.uniform(0.1, 0.5, 3)))
        else:
            base = np.array([(0.1, 0.1, 0.1), (0.8, 0.2, 0.15),
                             (0.3, 0.85, 0.2), (0.35, 0.3, 0.9)])
            yield Polytope.from_vertices(base + rng.uniform(-0.05, 0.05, base.shape))


def test_flag_forms_match_reference_chains(box3_arrangement, tetra3_arrangement):
    """Same forms, order and multiplicities as the per-flag chains, and
    vectors within 4u.  Both sides divide an edge vector by its rounded
    length (the chains' norm goes through a dot product, so it may round
    differently), and the chains' tangent also subtracts a projection of
    order u; 2u has been seen."""
    surds = ["sqrt(2) - 1", "sqrt(3) - 1", "sqrt(5) - 2", "sqrt(7) - 2", "(sqrt(5) - 1) / 2"]
    rng = np.random.default_rng(808)
    arrangements = [box3_arrangement, tetra3_arrangement]
    for body in _random_bodies(rng, 24):
        a, b = rng.choice(len(surds), size=2, replace=False)
        direction = Direction.make([parse_literal(surds[a]), parse_literal(surds[b]),
                                    parse_literal("1")])
        arrangements.append(arrangement_cells(body, direction))
    for arr in arrangements:
        got = flag_forms_of_arrangement(arr)
        want = _reference_merge_chains(
            chain for cell in arr.cells for chain in _reference_flag_chains(cell.vertices))
        assert [f.multiplicity for f in got.forms] == [m for _, m in want]
        for form, (vectors, _) in zip(got.forms, want):
            assert np.max(np.abs(np.array(form.vectors) - vectors)) <= 4 * _U
    assert len(flag_forms_of_arrangement(box3_arrangement)) == 3


def test_flag_forms_reject_short_edges():
    for gap in (0.0, 1e-14, 5e-11):
        square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, gap), (1.0, 1.0), (0.0, 1.0)])
        with pytest.raises(DegeneratePolytopeError):
            flag_forms_of_arrangement(_one_cell(square))
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-9), (1.0, 1.0), (0.0, 1.0)])
    assert len(flag_forms_of_arrangement(_one_cell(square))) == 2
