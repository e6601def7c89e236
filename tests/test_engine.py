"""Continuous and discrete discrepancy evaluation."""
from __future__ import annotations

import numpy as np
import pytest

from torusflow.algebraic import AlgebraicValue, parse_literal
from torusflow.engine import (
    FlowInstance,
    box_discrepancy_profile,
    box_discrepancy_sup,
    delta_T_exact,
    delta_T_quadrature,
    discrepancy_trace,
    discrete_decade_maxima,
    discrete_discrepancy,
    quadrature_delta_profile,
)
from torusflow.errors import TransversalityError, ValidationError
from torusflow.geometry import Box, Direction, Polytope, random_polygon

ZERO = parse_literal("0")
PARALLELOGRAM = [(0.05, 0.05), (0.35, 0.05),
                 (0.7990731195102494, 0.3675426480542942),
                 (0.4990731195102494, 0.3675426480542942)]
# Grid sup frozen from an independent per-box evaluation (each grid box run
# through the generic exact engine separately).
BOX_SUP_G3_T11 = 0.1311327607339301
GOLDEN_DECADES_1E4 = [(10, 1.0), (100, 1.5), (1000, 1.5), (10000, 2.0)]


def test_instance_metadata(triangle_instance):
    inst = triangle_instance
    assert inst.d == 2
    assert inst.transversality_ok
    assert inst.permutation is None  # already normalized, nothing applied
    np.testing.assert_allclose(inst.time_scale, 1.0)
    h = inst.polytope_hash()
    assert len(h) == 16 and h == inst.polytope_hash()


def test_instance_normalizes_direction(triangle):
    # dominant component already last: identity permutation, rescale by sqrt(2)
    inst = FlowInstance.build([parse_literal("1"), parse_literal("sqrt(2)")],
                              (ZERO, ZERO), triangle)
    assert inst.permutation == (0, 1)
    np.testing.assert_allclose(inst.time_scale, 2 ** 0.5, rtol=1e-15)
    np.testing.assert_allclose(float(inst.direction.values[0]), 2 ** -0.5, rtol=1e-15)
    # dominant component first: the axes really are swapped
    swapped = FlowInstance.build([parse_literal("sqrt(2)"), parse_literal("1/2")],
                                 (ZERO, ZERO), triangle)
    assert swapped.permutation == (1, 0)
    np.testing.assert_allclose(swapped.time_scale, 2 ** 0.5, rtol=1e-15)


def test_delta_zero_time(triangle_instance):
    assert delta_T_exact(triangle_instance, 0.0) == 0.0


def test_unit_cube_is_a_null_set(rng):
    for d in (2, 3):
        vals = [AlgebraicValue.coerce(float(v)) for v in rng.uniform(0.1, 0.9, d)]
        start = [AlgebraicValue.coerce(float(v)) for v in rng.uniform(0, 1, d)]
        inst = FlowInstance.build(vals, start, Polytope.unit_cube(d))
        for t in rng.uniform(0.5, 80.0, 3):
            assert abs(delta_T_exact(inst, float(t))) < 1e-12


def test_trace_matches_pointwise_evaluation(triangle_instance):
    trace = discrepancy_trace(triangle_instance, 200.0, n_samples=40)
    singles = [delta_T_exact(triangle_instance, float(t)) for t in trace.times]
    np.testing.assert_allclose(trace.deltas, singles, atol=1e-11)


def test_delta_lipschitz_in_time(triangle_instance, triangle, rng):
    lip = max(triangle.volume, 1.0 - triangle.volume)
    for _ in range(25):
        a, b = rng.uniform(0, 300, 2)
        da = delta_T_exact(triangle_instance, float(a))
        db = delta_T_exact(triangle_instance, float(b))
        assert abs(da - db) <= lip * abs(a - b) + 1e-9


def test_flow_cocycle(triangle_instance, silver_direction, triangle, rng):
    """Delta_{t+u}(s) = Delta_t(s) + Delta_u(s + t*alpha)."""
    for _ in range(4):
        t, u = rng.uniform(1, 40, 2)
        mid = triangle_instance.flow_point(float(t))
        shifted = FlowInstance.build(
            silver_direction,
            [AlgebraicValue.coerce(float(c)) for c in mid],
            triangle)
        lhs = delta_T_exact(triangle_instance, float(t + u))
        rhs = (delta_T_exact(triangle_instance, float(t))
               + delta_T_exact(shifted, float(u)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_quadrature_error_bound_is_honest(rng):
    dirs = [Direction.make([parse_literal("sqrt(2) - 1"), parse_literal("1")]),
            Direction.make([parse_literal("sqrt(3) - 1"), parse_literal("1")])]
    for i in range(5):
        poly = random_polygon(rng, int(rng.integers(3, 7)))
        inst = FlowInstance.build(dirs[i % 2], (ZERO, ZERO), poly)
        t = float(rng.uniform(5, 60))
        exact = delta_T_exact(inst, t)
        est = delta_T_quadrature(inst, t, step=1e-3)
        assert abs(exact - est.value) <= est.error_bound
        assert abs(exact - est.value) < 3e-3


def test_quadrature_complement_flips_sign(triangle_instance):
    est = delta_T_quadrature(triangle_instance, 33.7, step=1e-3)
    comp = delta_T_quadrature(triangle_instance, 33.7, step=1e-3, complement=True)
    np.testing.assert_allclose(comp.value, -est.value, atol=1e-13)
    assert comp.crossings == est.crossings


def test_quadrature_profile_shape(triangle_instance):
    trace = quadrature_delta_profile(triangle_instance, 50.0, step=1e-3,
                                     sample_every=200)
    assert trace.meta["engine"] == "quadrature"
    assert trace.meta["err_bound"] > 0
    assert len(trace.times) == 250
    assert trace.sup() >= 0


def test_discrete_golden_rotation():
    gold = parse_literal("(sqrt(5) - 1) / 2")
    box = Box.make((0.0,), (0.5,))
    assert discrete_discrepancy([gold], [ZERO], box, 0) == 0.0
    np.testing.assert_allclose(discrete_discrepancy([gold], [ZERO], box, 100), 1.0,
                               atol=1e-12)
    # float reference for a short orbit
    pts = (np.arange(500) * float(gold)) % 1.0
    ref = np.sum(pts < 0.5) - 500 * 0.5
    np.testing.assert_allclose(discrete_discrepancy([gold], [ZERO], box, 500),
                               ref, atol=1e-9)


def test_discrete_closed_target_agrees_off_boundary():
    gold = parse_literal("(sqrt(5) - 1) / 2")
    open_box = Box.make((0.0,), (0.5,))
    closed = Polytope.box((0.0,), (0.5,))
    a = discrete_discrepancy([gold], [ZERO], open_box, 400)
    b = discrete_discrepancy([gold], [ZERO], closed, 400)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_decade_maxima_golden_prefix():
    gold = parse_literal("(sqrt(5) - 1) / 2")
    rows = discrete_decade_maxima([gold], [ZERO], Box.make((0.0,), (0.5,)), 10 ** 4)
    assert [(n, m) for n, m in rows] == GOLDEN_DECADES_1E4


def test_discrete_functions_validate_dimensions_and_length():
    """alpha and s need one coordinate each per axis and the orbit length
    must be nonnegative; zipping them would drop the extra alpha."""
    alpha = [parse_literal("sqrt(2) - 1"), parse_literal("sqrt(3) - 1")]
    box2 = Box.make((0.0, 0.0), (0.5, 0.5))
    for s in ([ZERO], [ZERO, ZERO, ZERO]):
        with pytest.raises(ValidationError, match="alpha and s dimension mismatch"):
            discrete_decade_maxima(alpha, s, box2, 1000)
        with pytest.raises(ValidationError, match="alpha and s dimension mismatch"):
            discrete_discrepancy(alpha, s, box2, 1000)
    with pytest.raises(ValidationError, match="negative orbit length"):
        discrete_decade_maxima(alpha, [ZERO, ZERO], box2, -1)
    with pytest.raises(ValidationError, match="negative orbit length"):
        discrete_discrepancy(alpha, [ZERO, ZERO], box2, -1)
    with pytest.raises(ValidationError, match="box dimension mismatch"):
        discrete_decade_maxima(alpha, [ZERO, ZERO], Box.make((0.0,), (0.5,)), 10)
    rows = discrete_decade_maxima(alpha, [ZERO, ZERO], box2, 1000)
    assert rows[-1] == (1000, 4.5)
    assert discrete_decade_maxima(alpha, [ZERO, ZERO], box2, 0) == []


def test_box_sup_value_and_argmax():
    direction = [parse_literal("sqrt(2)"), parse_literal("1")]
    r = box_discrepancy_sup(direction, [ZERO, ZERO], 11, 3)
    np.testing.assert_allclose(r.sup, BOX_SUP_G3_T11, atol=1e-12)
    assert r.grid == 3 and r.t == 11
    # the reported argmax box reproduces the sup through the generic engine
    inst = FlowInstance.build(direction, (ZERO, ZERO),
                              Polytope.box(r.box_lo, r.box_hi))
    np.testing.assert_allclose(abs(delta_T_exact(inst, 11.0)), r.sup, atol=1e-12)


def test_box_profile_matches_single_sups():
    direction = [parse_literal("sqrt(2)"), parse_literal("1")]
    ts = np.arange(1, 41, dtype=np.int64)
    sups = box_discrepancy_profile(direction, ts, 4)
    for t in (1, 7, 23, 40):
        r = box_discrepancy_sup(direction, [ZERO, ZERO], t, 4)
        np.testing.assert_allclose(sups[t - 1], r.sup, atol=1e-12)


def test_box_sup_rejects_zero_coordinate():
    with pytest.raises(ValidationError):
        box_discrepancy_sup([parse_literal("0"), parse_literal("1")],
                            [ZERO, ZERO], 5, 3)


def test_trace_csv_and_metadata(triangle_instance):
    trace = discrepancy_trace(triangle_instance, 100.0, n_samples=25)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "T,delta,engine,err_bound"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[2] == "exact" and float(first[3]) == 0.0
    meta = trace.meta
    assert meta["engine"] == "exact"
    assert meta["permutation"] is None
    assert len(meta["polytope_hash"]) == 16
    np.testing.assert_allclose(meta["volume"], 0.32, rtol=1e-12)


def test_trace_schedules(triangle_instance):
    lin = discrepancy_trace(triangle_instance, 100.0, n_samples=11, schedule="linear")
    assert np.all(np.diff(lin.times) > 0)
    geo = discrepancy_trace(triangle_instance, 100.0, n_samples=11, schedule="geometric")
    ratios = geo.times[1:] / geo.times[:-1]
    assert np.all(ratios > 1)
    whole = discrepancy_trace(triangle_instance, 100.0, n_samples=20, schedule="integer")
    assert np.all(whole.times == np.round(whole.times))


def test_exact_engine_rejects_tangent_facets():
    par = Polytope.from_vertices(PARALLELOGRAM)
    inst = FlowInstance.build([parse_literal("sqrt(2)"), parse_literal("1")],
                              (ZERO, ZERO), par)
    assert not inst.transversality_ok
    with pytest.raises(TransversalityError):
        delta_T_exact(inst, 10.0)
    with pytest.raises(TransversalityError):
        inst.require_exact_capable()
    # the quadrature engine still works on the same instance
    est = delta_T_quadrature(inst, 10.0, step=1e-3)
    assert np.isfinite(est.value)


def test_orbit_accessors(triangle_instance):
    mat = triangle_instance.orbit_matrix(0, 6)
    assert mat.shape == (6, 1)
    for k in range(6):
        np.testing.assert_allclose(mat[k], triangle_instance.orbit_point(k), atol=0)
    vals = triangle_instance.section_values(mat)
    assert vals.shape == (6,)
    assert np.all((vals >= 0) & (vals <= 1))
