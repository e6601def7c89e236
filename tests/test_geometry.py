"""Polytopes, transversality, section functions, and planar arrangements."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from torusflow.algebraic import parse_literal
from torusflow.errors import DegeneratePolytopeError, TransversalityError, ValidationError
from torusflow.geometry import (
    Box,
    Direction,
    Polytope,
    SectionEvaluator,
    _cell_sample_points,
    arrangement_cells,
    build_piecewise_linear_section,
    cot_angles,
    polygon_moments,
    random_polygon,
    require_transversal,
    shared_edge_checks,
    validate_transversality,
)

# Parallelogram with two sides parallel to (sqrt(2), 1): the second side is
# u * (sqrt(2), 1) with u = 0.55 / sqrt(3).
PARALLELOGRAM = [(0.05, 0.05), (0.35, 0.05),
                 (0.7990731195102494, 0.3675426480542942),
                 (0.4990731195102494, 0.3675426480542942)]


def _section_jumps(sec):
    """Largest mismatch of adjacent pieces at interior breakpoints plus the
    wraparound mismatch f(1) vs f(0)."""
    bp = np.asarray(sec.breakpoints)
    right = sec.intercepts[:-1] + sec.slopes[:-1] * bp[1:-1]
    left = sec.intercepts[1:] + sec.slopes[1:] * bp[1:-1]
    interior = np.max(np.abs(right - left)) if len(bp) > 2 else 0.0
    wrap = abs((sec.intercepts[-1] + sec.slopes[-1] * 1.0) - sec.intercepts[0])
    return max(float(interior), float(wrap))


def test_triangle_basic_properties(triangle):
    assert triangle.d == 2
    assert triangle.n_facets == 3
    np.testing.assert_allclose(triangle.volume, 0.32, rtol=1e-14)
    assert triangle.contains((0.2, 0.2))
    assert not triangle.contains((0.8, 0.8))


def test_halfspace_and_box_constructors():
    sq = Polytope.from_halfspaces(
        np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]),
        np.array([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_allclose(sq.volume, 1.0, rtol=1e-14)
    cube = Polytope.unit_cube(3)
    np.testing.assert_allclose(cube.volume, 1.0, rtol=1e-14)
    b = Polytope.box((0.2, 0.3), (0.7, 0.8))
    np.testing.assert_allclose(b.volume, 0.25, rtol=1e-14)


def test_collinear_vertices_rejected():
    with pytest.raises(DegeneratePolytopeError):
        Polytope.from_vertices([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])


def test_box_half_open_membership():
    box = Box.make((0.25,), (0.75,))
    inside = box.contains_fracs(np.array([[0.25], [0.5], [0.74999]]))
    outside = box.contains_fracs(np.array([[0.75], [0.2], [0.9]]))
    assert inside.all()
    assert not outside.any()
    np.testing.assert_allclose(box.volume, 0.5)


def test_direction_normalization():
    raw = Direction.make([parse_literal("sqrt(2)"), parse_literal("1")])
    raw.require_normalized()  # last coordinate is already one
    flipped = Direction.make([parse_literal("1"), parse_literal("sqrt(2)")])
    with pytest.raises(ValidationError):
        flipped.require_normalized()
    np.testing.assert_allclose(raw.floats(), [2 ** 0.5, 1.0], rtol=1e-15)
    assert raw.d == 2


def test_transversality_report(triangle, silver_direction):
    rep = validate_transversality(triangle, silver_direction)
    assert rep.ok
    assert rep.min_normal_component > 0.1
    assert not rep.violating_facets

    par = Polytope.from_vertices(PARALLELOGRAM)
    bad = Direction.make([parse_literal("sqrt(2)"), parse_literal("1")])
    rep2 = validate_transversality(par, bad)
    assert not rep2.ok
    assert len(rep2.violating_facets) == 2
    with pytest.raises(TransversalityError):
        require_transversal(par, bad)


def test_cot_angles_shape(triangle, silver_direction):
    cots = cot_angles(triangle, silver_direction)
    assert cots.shape == (3,)
    assert np.all(np.isfinite(cots))


def test_section_function_invariants(triangle_section, triangle):
    sec = triangle_section
    assert sec.n_pieces <= 4
    assert _section_jumps(sec) < 1e-12
    np.testing.assert_allclose(sec.mean(), triangle.volume, atol=1e-12)
    # vectorised evaluation against the per-piece affine formula
    xs = np.linspace(0.0, 0.999, 73)
    idx = np.searchsorted(sec.breakpoints, xs, side="right") - 1
    manual = sec.intercepts[idx] + sec.slopes[idx] * xs
    np.testing.assert_allclose(sec(xs), manual, atol=1e-14)
    # values column matches the breakpoints and wraps around
    np.testing.assert_allclose(sec.values[0], sec.values[-1], atol=1e-12)


def test_random_polygon_contract(rng):
    for _ in range(40):
        n = int(rng.integers(3, 9))
        poly = random_polygon(rng, n)
        verts = np.asarray(poly.vertices, dtype=np.float64)
        assert len(verts) == n
        assert len(ConvexHull(verts).vertices) == n
        assert verts.min() >= 0.05 - 1e-12 and verts.max() <= 0.95 + 1e-12
        assert poly.volume >= 0.02


def test_random_polygon_deterministic():
    a = random_polygon(np.random.default_rng(5), 6)
    b = random_polygon(np.random.default_rng(5), 6)
    np.testing.assert_allclose(np.asarray(a.vertices, dtype=float),
                               np.asarray(b.vertices, dtype=float), atol=0)


def test_segment_length_additive_and_matches_quadrature(triangle, silver_direction, rng):
    ev = SectionEvaluator(triangle, silver_direction)
    alpha = np.array([float(v) for v in silver_direction.values])
    for _ in range(3):
        x = float(rng.uniform(0, 1))
        total = ev.length((x,))
        t_mid = float(rng.uniform(0.2, 0.8))
        part = ev.length((x,), 0.0, t_mid) + ev.length((x,), t_mid, 1.0)
        np.testing.assert_allclose(total, part, atol=1e-12)
        # midpoint-rule reference along the lifted segment
        ts = (np.arange(200000) + 0.5) / 200000.0
        pts = (np.array([x, 0.0]) + ts[:, None] * alpha) % 1.0
        ref = float(np.mean(triangle.contains(pts)))
        np.testing.assert_allclose(total, ref, atol=5e-5)


def test_polygon_moments():
    area, mx, my = polygon_moments(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    np.testing.assert_allclose([area, mx, my], [1.0, 0.5, 0.5], atol=1e-14)
    area, mx, my = polygon_moments(np.array([(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)]))
    np.testing.assert_allclose(area, 0.32, rtol=1e-12)
    np.testing.assert_allclose([mx / area, my / area], [11.0 / 30.0, 11.0 / 30.0], rtol=1e-12)


def test_arrangement_invariants(box3_arrangement, box3):
    arr = box3_arrangement
    assert len(arr.cells) == 132
    np.testing.assert_allclose(arr.total_area(), 1.0, atol=1e-12)
    np.testing.assert_allclose(arr.mean(), box3.volume, atol=1e-12)
    assert max(c.fit_residual for c in arr.cells) < 1e-12
    mismatches = [abs(a - b) for _, a, b in shared_edge_checks(arr)]
    assert max(mismatches) < 1e-12


@pytest.mark.parametrize("body", ["box3", "tetra3"])
def test_arrangement_fits_match_per_cell_evaluation(request, box3_direction, body):
    """The arrangement evaluates every cell's sample points in one batch; each
    cell's fit must equal the fit from its own evaluator call, bit for bit."""
    arr = request.getfixturevalue(f"{body}_arrangement")
    ev = SectionEvaluator(request.getfixturevalue(body), box3_direction)
    for cell in arr.cells:
        pts = _cell_sample_points(cell.vertices)
        f = ev.lengths(pts)
        design = np.c_[pts, np.ones(len(pts))]
        coef, *_ = np.linalg.lstsq(design, f, rcond=None)
        assert np.array_equal(cell.gradient, coef[:2])
        assert cell.offset == float(coef[2])
        assert cell.fit_residual == float(np.max(np.abs(design @ coef - f)))


def test_evaluator_batch_matches_singles(triangle, silver_direction, rng):
    ev = SectionEvaluator(triangle, silver_direction)
    xs = rng.uniform(0, 1, (20, 1))
    batch = ev.lengths(xs)
    singles = [ev.length(x) for x in xs]
    np.testing.assert_allclose(batch, singles, atol=1e-14)
