"""Continuous and discrete discrepancy evaluation."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.algebraic import AlgebraicValue, frac_orbit_floats, frac_point, parse_literal
from torusflow.engine import (
    FlowInstance,
    QuadratureEstimate,
    _INT_SNAP,
    _box_sweep,
    _exact_deltas,
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
        t_val = AlgebraicValue.coerce(float(t))
        mid = [float(s + t_val * a) % 1.0 for s, a in
               zip(triangle_instance.s_values, triangle_instance.direction.values)]
        shifted = FlowInstance.build(
            silver_direction, [AlgebraicValue.coerce(c) for c in mid], triangle)
        lhs = delta_T_exact(triangle_instance, float(t + u))
        rhs = (delta_T_exact(triangle_instance, float(t))
               + delta_T_exact(shifted, float(u)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


# -- the exact window kernel against the two evaluations it replaced ---------


def _reference_point(inst, k):
    return np.array([frac_point(inst.alpha_fixed[i], inst.scale_bits, k, inst.x0_fixed[i])
                     for i in range(inst.d - 1)])


def _reference_split(t_end):
    k = math.floor(t_end)
    frac = t_end - k
    if frac < _INT_SNAP:
        frac = 0.0
    elif frac > 1.0 - _INT_SNAP:
        k += 1
        frac = 0.0
    return k, frac


def _reference_exact(inst, t):
    """The evaluation delta_T_exact used to run, one time at a time."""
    if t == 0:
        return 0.0
    t_norm = t * inst.time_scale
    lam = inst.polytope.volume
    s_d = inst.s_last
    ev = inst.evaluator
    x0 = _reference_point(inst, 0)
    k_end, theta = _reference_split(t_norm + s_d)
    if k_end == 0:
        return (ev.length(x0, s_d, s_d + t_norm) - t_norm * lam) / inst.time_scale
    parts = [ev.length(x0, s_d, 1.0) - (1.0 - s_d) * lam]
    if k_end >= 2:
        f = inst.section_values(inst.orbit_matrix(1, k_end - 1))
        parts.append(float(np.sum(f - lam)))
    if theta > 0.0:
        parts.append(ev.length(_reference_point(inst, k_end), 0.0, theta) - theta * lam)
    return math.fsum(parts) / inst.time_scale


def _reference_trace(inst, times):
    """The per-sample loop discrepancy_trace used to run: the full windows
    as one running cumsum, each sample adding its two partial windows."""
    lam = inst.polytope.volume
    s_d = inst.s_last
    ev = inst.evaluator
    k_max, _ = _reference_split(float(np.max(times)) * inst.time_scale + s_d)
    prefix = np.zeros(max(k_max, 1))
    if k_max >= 2:
        prefix[1:k_max] = np.cumsum(inst.section_values(inst.orbit_matrix(1, k_max - 1)) - lam)
    x0 = _reference_point(inst, 0)
    first_full = ev.length(x0, s_d, 1.0) - (1.0 - s_d) * lam
    deltas = np.empty(len(times))
    for i, t in enumerate(times):
        t_norm = t * inst.time_scale
        k_end, theta = _reference_split(t_norm + s_d)
        if k_end == 0:
            deltas[i] = ev.length(x0, s_d, s_d + t_norm) - t_norm * lam
        else:
            val = first_full + prefix[min(k_end - 1, len(prefix) - 1)]
            if theta > 0.0:
                val += ev.length(_reference_point(inst, k_end), 0.0, theta) - theta * lam
            deltas[i] = val
        deltas[i] /= inst.time_scale
    return deltas


def _trace_tol(inst, t):
    """Allowance between two summation orders of the same window terms.

    In normalized time a sample at t sums at most n = t*time_scale + 3
    terms: the full windows f(x_j) - lam and the two partial windows, each
    of size at most 1 because a unit window holds at most unit time in the
    body.  Any order of summing n terms is within gamma_{n-1} = (n-1)u /
    (1 - (n-1)u) times the sum of their sizes of the exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 4.4), so
    two orders differ by at most 2 * gamma_n * n, below n**2 * eps * 1.01
    with u = eps / 2.  Both results are divided by time_scale, and so is
    the allowance; twice it covers the final roundings of each.
    """
    n = np.asarray(t) * inst.time_scale + 3.0
    return 2.0 * n * n * np.finfo(float).eps / inst.time_scale


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _kernel_instances(tetra3, box3_direction):
    """2d polygons under a normalized surd direction with rational starts,
    a non-normalized direction whose dominant axis comes first, the tetra3
    body and a 3d box."""
    rng = np.random.default_rng(20261018)
    silver = Direction.make([parse_literal("sqrt(2) - 1"), parse_literal("1")])
    out = [FlowInstance.build(silver, (parse_literal("1/3"), parse_literal("2/7")),
                              random_polygon(rng, n)) for n in (3, 5, 7)]
    out.append(FlowInstance.build([parse_literal("sqrt(3)"), parse_literal("1/2")],
                                  (parse_literal("1/5"), parse_literal("3/4")),
                                  random_polygon(rng, 4)))
    out.append(FlowInstance.build(box3_direction, (ZERO, parse_literal("1/9"),
                                                   parse_literal("5/11")), tetra3))
    out.append(FlowInstance.build(box3_direction, (ZERO, ZERO, ZERO),
                                  Polytope.box((0.1, 0.2, 0.3), (0.6, 0.5, 0.9))))
    return out


def _kernel_times(inst):
    """Times whose window ends land in the first window, on exact integers,
    and just inside and just outside _INT_SNAP of an integer on both sides."""
    s_d, scale = inst.s_last, inst.time_scale
    ends = [s_d + 0.25, 0.999, 1.0, 2.0, 17.0, 17.5, 230.25]
    for n in (1.0, 5.0, 64.0):
        ends += [n - 0.5 * _INT_SNAP, n + 0.5 * _INT_SNAP, n - 4 * _INT_SNAP, n + 4 * _INT_SNAP]
    times = [(e - s_d) / scale for e in ends if e > s_d]
    return times + [0.0, 3.0, 40.0, 1e-9, (1.0 - s_d) / scale]


def test_exact_kernel_is_hex_identical_to_the_reference(tetra3, box3_direction):
    for inst in _kernel_instances(tetra3, box3_direction):
        for t in _kernel_times(inst):
            assert _hex(delta_T_exact(inst, t)) == _hex(_reference_exact(inst, t)), t


def test_exact_kernel_on_unsorted_repeated_times(triangle_instance):
    """Order and repeats do not change a sample; samples in windows 0, 1 and
    one later window match per-time calls bit for bit."""
    inst = triangle_instance
    times = np.array([17.25, 0.5, 1.75, 17.25, 0.0, 17.5, 0.5, 1.0])
    got = _exact_deltas(inst, times)
    assert _hex(got) == _hex([delta_T_exact(inst, t) for t in times])
    times = np.array([90.5, 3.25, 400.0, 3.25, 90.5, 12.0, 400.0, 0.0])
    uniq, where = np.unique(times, return_inverse=True)
    assert _hex(_exact_deltas(inst, times)) == _hex(_exact_deltas(inst, uniq)[where])


@pytest.mark.parametrize("schedule", ["linear", "geometric", "integer"])
def test_trace_matches_reference_loop(tetra3, box3_direction, schedule):
    for inst in _kernel_instances(tetra3, box3_direction):
        trace = discrepancy_trace(inst, 1500.0, n_samples=300, schedule=schedule)
        want = _reference_trace(inst, trace.times)
        assert np.all(np.abs(trace.deltas - want) <= _trace_tol(inst, trace.times))


@st.composite
def _surd_trace_problem(draw):
    """A surd direction (normalized or not), a rational start, a random
    polygon's seed and size, and a trace length and schedule."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
    root = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    c = draw(st.integers(1, 6))
    last = draw(st.sampled_from(["1", "1", "2/3", "-5/4"]))
    start = [f"{draw(st.integers(0, 12))}/{draw(st.integers(13, 20))}" for _ in range(2)]
    return ([f"({a} + {b} * sqrt({root})) / {c}", last], start,
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, 7)),
            draw(st.floats(0.5, 300.0)), draw(st.sampled_from(["linear", "geometric", "integer"])))


@given(_surd_trace_problem())
def test_trace_samples_equal_pointwise_exact(problem):
    direction, start, seed, corners, t_max, schedule = problem
    poly = random_polygon(np.random.default_rng(seed), corners)
    inst = FlowInstance.build([parse_literal(v) for v in direction],
                              [parse_literal(v) for v in start], poly)
    trace = discrepancy_trace(inst, t_max, n_samples=6, schedule=schedule)
    singles = np.array([delta_T_exact(inst, t) for t in trace.times])
    assert np.all(np.abs(trace.deltas - singles) <= _trace_tol(inst, trace.times))


@pytest.mark.parametrize("t", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_bad_times_are_rejected(triangle_instance, t):
    with pytest.raises(ValidationError, match="time must be finite and non-negative"):
        delta_T_exact(triangle_instance, t)
    with pytest.raises(ValidationError, match="time must be finite and non-negative"):
        delta_T_quadrature(triangle_instance, t)
    with pytest.raises(ValidationError, match="t_max must be positive and finite"):
        discrepancy_trace(triangle_instance, t)


def test_quadrature_at_time_zero(triangle_instance):
    assert delta_T_quadrature(triangle_instance, 0.0, step=1e-3) == \
        QuadratureEstimate(0.0, 0.0, 0, 1e-3)


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


def test_quadrature_profile_shape(triangle_instance):
    trace = quadrature_delta_profile(triangle_instance, 50.0, step=1e-3,
                                     sample_every=200)
    assert trace.meta["engine"] == "quadrature"
    assert trace.meta["err_bound"] > 0
    assert len(trace.times) == 250
    assert trace.sup() >= 0


# -- the midpoint kernel against the two loops it replaced -------------------


def _reference_indicator(inst, t_mids):
    alpha = inst.direction.floats()
    s = np.array([float(v) for v in inst.s_values])
    pts = np.mod(s[None, :] + t_mids[:, None] * alpha[None, :], 1.0)
    return inst.polytope.contains(pts).astype(np.float64)


def _reference_quadrature(inst, t, step):
    """The loop delta_T_quadrature used to run: (value, error_bound,
    crossings, step)."""
    t_norm = t * inst.time_scale
    lam = inst.polytope.volume
    n = max(1, int(math.ceil(t_norm / step)))
    h = t_norm / n
    total = 0.0
    crossings = 0
    last = None
    chunk = 1 << 18
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=np.float64)
        chi = _reference_indicator(inst, (idx + 0.5) * h)
        total += float(chi.sum())
        flips = int(np.sum(chi[1:] != chi[:-1]))
        if last is not None and len(chi) and chi[0] != last:
            flips += 1
        crossings += flips
        if len(chi):
            last = chi[-1]
    value = (h * total - t_norm * lam) / inst.time_scale
    err = h * (0.5 * crossings + 2.0) / inst.time_scale
    return value, err, crossings, h


def _reference_profile(inst, t_max, step, sample_every):
    """The loop quadrature_delta_profile used to run, with its chunk growing
    with sample_every: (times, deltas, crossings)."""
    t_norm = t_max * inst.time_scale
    n = int(round(t_norm / step))
    lam = inst.polytope.volume
    ts, deltas = [], []
    running = 0.0
    crossings = 0
    last = None
    chunk = sample_every * max(1, (1 << 18) // sample_every)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        idx = np.arange(start, stop, dtype=np.float64)
        chi = _reference_indicator(inst, (idx + 0.5) * step)
        flips = int(np.sum(chi[1:] != chi[:-1]))
        if last is not None and len(chi) and chi[0] != last:
            flips += 1
        crossings += flips
        if len(chi):
            last = chi[-1]
        c = np.cumsum(chi)
        marks = np.arange(sample_every - 1 - (start % sample_every), stop - start,
                          sample_every, dtype=np.int64)
        for m in marks:
            t_here = (start + m + 1) * step
            ts.append(t_here / inst.time_scale)
            deltas.append((running + c[m]) * step - t_here * lam)
        running += float(c[-1]) if len(c) else 0.0
    return np.array(ts), np.array(deltas) / inst.time_scale, crossings


def _assert_profile_matches(inst, t_max, step, sample_every):
    trace = quadrature_delta_profile(inst, t_max, step, sample_every=sample_every)
    times, deltas, crossings = _reference_profile(inst, t_max, step, sample_every)
    assert np.array_equal(trace.times, times) and trace.times.dtype == times.dtype
    assert np.array_equal(trace.deltas, deltas)
    assert trace.meta["crossings"] == crossings
    assert trace.meta["err_bound"] == step * (0.5 * crossings + 2.0) / inst.time_scale
    return trace


def test_quadrature_matches_reference_loop():
    """Criterion 02's ten polygons (at a coarser step), bit for bit."""
    rng = np.random.default_rng(20260817)
    dirs = [Direction.make([parse_literal("sqrt(2) - 1"), parse_literal("1")]),
            Direction.make([parse_literal("sqrt(3) - 1"), parse_literal("1")])]
    for i in range(10):
        poly = random_polygon(rng, int(rng.integers(3, 8)))
        inst = FlowInstance.build(dirs[i % 2], (ZERO, ZERO), poly)
        est = delta_T_quadrature(inst, 50.0, step=1e-4)
        assert (est.value, est.error_bound, est.crossings, est.step) == \
            _reference_quadrature(inst, 50.0, 1e-4)
        _assert_profile_matches(inst, 50.0, 1e-4, 250)


def test_quadrature_matches_reference_on_tangent_body():
    """Criterion 10's parallelogram, a sample spacing above one 2**18-point
    chunk, and a direction rescaled to last coordinate 1 (time scale 3)."""
    par = Polytope.from_vertices(PARALLELOGRAM)
    inst = FlowInstance.build([parse_literal("sqrt(2)"), parse_literal("1")],
                              (ZERO, ZERO), par)
    trace = _assert_profile_matches(inst, 1000.0, 1e-3, 250)
    assert len(trace.times) == 4000
    est = delta_T_quadrature(inst, 1000.0, step=1e-3)
    assert (est.value, est.error_bound, est.crossings, est.step) == \
        _reference_quadrature(inst, 1000.0, 1e-3)
    every = (1 << 18) + 12345  # marks fall inside the second and third chunks
    trace = _assert_profile_matches(inst, 800.0, 1e-3, every)
    assert len(trace.times) == 2
    tri = Polytope.from_vertices([(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)])
    scaled = FlowInstance.build([parse_literal("1"), parse_literal("3")],
                                (ZERO, ZERO), tri)
    assert scaled.time_scale == 3.0
    _assert_profile_matches(scaled, 200.0, 1e-3, 700)
    est = delta_T_quadrature(scaled, 200.0, step=1e-3)
    assert (est.value, est.error_bound, est.crossings, est.step) == \
        _reference_quadrature(scaled, 200.0, 1e-3)


def test_quadrature_profile_edge_cases(triangle_instance):
    with pytest.raises(ValidationError, match="shorter than one sample spacing"):
        quadrature_delta_profile(triangle_instance, 0.1, 1e-3, sample_every=1000)
    for t_max in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="t_max must be positive"):
            quadrature_delta_profile(triangle_instance, t_max, 1e-3)
    _assert_profile_matches(triangle_instance, 1.0, 1e-3, 1000)
    _assert_profile_matches(triangle_instance, 3.0, 1e-3, 1)
    _assert_profile_matches(triangle_instance, 3.0, 1e-3, 3000)


def test_quadrature_counts_a_flip_on_a_chunk_edge(triangle_instance):
    """Step chosen so the flow leaves or enters the body between the last
    midpoint of the first 2**18-point chunk and the first of the second."""
    inst = triangle_instance
    grid = np.arange(1, 5001) * 1e-3
    hit = _reference_indicator(inst, grid)
    i = int(np.flatnonzero(hit[1:] != hit[:-1])[0])
    lo, hi = grid[i], grid[i + 1]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _reference_indicator(inst, np.array([mid]))[0] == hit[i] else (lo, mid)
    h = 0.5 * (lo + hi) / (1 << 18)
    edge = _reference_indicator(inst, np.array([(1 << 18) - 0.5, (1 << 18) + 0.5]) * h)
    assert edge[0] != edge[1]
    _assert_profile_matches(inst, h * ((1 << 18) + 500), h, 1000)
    est = delta_T_quadrature(inst, h * ((1 << 18) + 500), step=h)
    assert est.crossings == _reference_quadrature(inst, h * ((1 << 18) + 500), h)[2]


# -- the counting kernel against the walk, off the paths above ---------------


def _assert_quadrature_matches(inst, t, step):
    est = delta_T_quadrature(inst, t, step=step)
    assert (est.value, est.error_bound, est.crossings, est.step) == \
        _reference_quadrature(inst, t, step)
    return est


def _build(direction, start, poly):
    return FlowInstance.build([parse_literal(v) for v in direction],
                              [parse_literal(v) for v in start], poly)


def test_counting_kernel_on_boxes_and_the_unit_cube(box3_direction):
    """In the unit cube every midpoint hits and nothing flips; a 3d box
    touching two cube faces, from a rational start."""
    for d, start in ((2, ["1/3", "0"]), (3, ["0", "2/7", "5/9"])):
        direction = ["sqrt(2) - 1", "sqrt(3) - 1", "1"][-d:]
        cube = _build(direction, start, Polytope.unit_cube(d))
        est = _assert_quadrature_matches(cube, 37.5, 1e-3)
        assert est.crossings == 0 and est.value == 37.5 * 1e-3 / 1e-3 - 37.5
        trace = _assert_profile_matches(cube, 20.0, 1e-3, 300)
        assert not trace.deltas.any()
    box = Polytope.box((0.0, 0.2, 0.3), (0.6, 1.0, 0.9))
    inst = FlowInstance.build(box3_direction, [parse_literal(v) for v in ("1/7", "0", "2/9")],
                              box)
    assert _assert_quadrature_matches(inst, 40.0, 1e-3).crossings > 0
    _assert_profile_matches(inst, 40.0, 1e-3, 250)


@pytest.mark.parametrize("direction", [["-(sqrt(2) - 1)", "1"], ["sqrt(3)", "-sqrt(2)"],
                                       ["1", "sqrt(2)"], ["sqrt(3)", "1/2"]])
def test_counting_kernel_on_negative_and_scaled_directions(direction):
    """A negative normalized coordinate, a reflected last axis and time
    scales sqrt(2) and 2 sqrt(3), from rational starts."""
    inst = _build(direction, ["2/9", "5/7"], Polytope.from_vertices(
        [(0.15, 0.2), (0.85, 0.1), (0.7, 0.8), (0.2, 0.6)]))
    assert (inst.time_scale != 1.0) == (direction[-1] != "1")
    _assert_quadrature_matches(inst, 60.0, 1e-3)
    _assert_profile_matches(inst, 60.0, 1e-3, 400)


def test_counting_kernel_with_marks_far_apart(triangle_instance):
    """Marks 2**18 + 777 midpoints apart, from a rational start."""
    inst = _build(["sqrt(2) - 1", "1"], ["1/3", "2/7"],
                  triangle_instance.polytope)
    trace = _assert_profile_matches(inst, 800.0, 1e-3, (1 << 18) + 777)
    assert len(trace.times) == 3


def test_counting_kernel_walks_an_orbit_along_a_facet():
    """The orbit runs exactly along a facet (start on x = 1/4, no motion in
    x) or along a cube face that the body touches (x = 0): rounding decides
    each midpoint there, so those pieces are walked midpoint by midpoint."""
    body = Polytope.box((0.25, 0.1), (0.75, 0.6))
    for start in (["1/4", "0"], ["3/4", "1/3"]):
        inst = _build(["0", "1"], start, body)
        assert _assert_quadrature_matches(inst, 30.0, 1e-3).crossings == 60
    edge = _build(["0", "1"], ["0", "0"], Polytope.box((0.0, 0.1), (0.5, 0.6)))
    _assert_quadrature_matches(edge, 30.0, 1e-3)
    _assert_profile_matches(edge, 30.0, 1e-3, 500)


@pytest.mark.parametrize("start, lo, hi, m", [
    (["0", "0"], (0.25, 0.5), (0.75, 0.9), 999),
    (["0", "0"], (0.25, 0.5), (0.75, 0.9), 4095),
    (["0", "7/10"], (0.0, 0.5), (1.0, 1.0), 1665),
])
def test_counting_kernel_on_midpoints_that_land_on_facets(start, lo, hi, m):
    """With direction (1/2, 1), start 0 and step 1/m for odd m, every
    midpoint at a half-integer time lies on x = 1/4 or 3/4 and on y = 1/2 up
    to rounding, so rounding decides it in the walk; the kernel must decide
    it the same way.  From y = 7/10 with m = 1665, 40 midpoints are wraps of
    y instead: rounding puts 16 of them at y = 1 - ulp, in the body, and 24
    at y = 0, outside it."""
    inst = _build(["1/2", "1"], start, Polytope.box(lo, hi))
    _assert_quadrature_matches(inst, 40.0, 1.0 / m)
    _assert_profile_matches(inst, 40.0, 40.0 / round(40.0 * m), 49)


@pytest.mark.parametrize("direction, start, lo, hi, step", [
    (["sqrt(2) - 1", "1"], ["12345678/7", "1/3"], (0.2857144, 0.1), (0.9, 0.9), 2e-12),
    (["sqrt(2) - 1", "1"], ["12345678/7", "17636679999999/10000000"],
     (0.2, 0.0), (0.6, 0.5), 1e-12),
    (["-(sqrt(2) - 1)", "sqrt(3) - 1", "1"], ["123456780000001/10000000", "1/5", "98765432/9"],
     (0.0, 0.1, 0.1), (0.5, 0.9, 0.9), 2e-12),
])
def test_counting_kernel_far_from_the_origin(direction, start, lo, hi, step):
    """Starts near 1.8e6 and 1.2e7, where a coordinate's ulp is 2.3e-10 or
    1.9e-9: at these steps the walk's point stays put for hundreds of
    midpoints, so rounding alone decides where it crosses the facet
    x = 0.2857144, or wraps y forwards or x backwards into a body that
    touches the face at 0.  Only the slack tolerance and the wrap band
    cover errors that large."""
    inst = _build(direction, start, Polytope.box(lo, hi))
    assert _assert_quadrature_matches(inst, 2e5 * step, step).crossings == 1
    _assert_profile_matches(inst, 2e5 * step, step, 1000)


@st.composite
def _quadrature_problem(draw):
    """A surd direction (normalized or not), a rational start, a random
    polygon's seed and size, a time and a step with at most 2e5 midpoints."""
    a = draw(st.integers(-4, 4))
    root = draw(st.sampled_from([2, 3, 5, 7]))
    last = draw(st.sampled_from(["1", "1", "2/3", "-5/4"]))
    start = [f"{draw(st.integers(0, 12))}/{draw(st.integers(13, 20))}" for _ in range(2)]
    t = draw(st.floats(0.5, 40.0))
    step = draw(st.floats(max(1e-4, t / 2e5), 0.5))
    return ([f"({a} + sqrt({root})) / 5", last], start, draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.integers(3, 7)), t, step, draw(st.integers(1, 3000)))


@settings(max_examples=25)
@given(_quadrature_problem())
def test_counting_kernel_equals_the_walk(problem):
    direction, start, seed, corners, t, step, every = problem
    inst = _build(direction, start, random_polygon(np.random.default_rng(seed), corners))
    _assert_quadrature_matches(inst, t, step)
    if every <= round(t * inst.time_scale / step):
        _assert_profile_matches(inst, t, step, every)


@pytest.mark.parametrize("step", [0.0, -1.0, -1e-3, float("nan"), float("inf")])
def test_quadrature_rejects_bad_step(triangle_instance, step):
    with pytest.raises(ValidationError, match="step"):
        delta_T_quadrature(triangle_instance, 50.0, step=step)
    with pytest.raises(ValidationError, match="step"):
        quadrature_delta_profile(triangle_instance, 50.0, step)


@pytest.mark.parametrize("every", [0, -3])
def test_quadrature_profile_rejects_bad_sample_spacing(triangle_instance, every):
    with pytest.raises(ValidationError, match="sample_every"):
        quadrature_delta_profile(triangle_instance, 50.0, 1e-3, sample_every=every)


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


def test_box_functions_validate_times_and_grid():
    """Times are checked before any cast: 1.7 used to run as t = 1, 1e19
    wrapped to a negative int64 and zeroed every sup, and an infinite single
    time raised OverflowError."""
    direction = [parse_literal("sqrt(2)"), parse_literal("1")]
    for bad in ([1.7, 2.2], [0, 3], [-2], [np.nan], [np.inf], [1e19, 3.0], [[1, 2]], ["3"]):
        with pytest.raises(ValidationError, match="positive integers"):
            box_discrepancy_profile(direction, np.array(bad), 4)
    for bad in (np.inf, np.nan, -1):
        with pytest.raises(ValidationError, match="finite"):
            box_discrepancy_sup(direction, [ZERO, ZERO], bad, 4)
    with pytest.raises(ValidationError, match="grid"):
        box_discrepancy_profile(direction, [1, 2], 0)
    empty = box_discrepancy_profile(direction, [], 16)
    assert empty.shape == (0,)
    np.testing.assert_array_equal(box_discrepancy_profile(direction, [2.0, 1.0], 4),
                                  box_discrepancy_profile(direction, [2, 1], 4))


def _reference_sweep(inst, grid, t_values):
    """The O(g^4) grid-box sweep: every grid box's Delta_t as a 4-term
    combination of the running matrix, minus t times the box area."""
    g = grid
    alpha1 = float(inst.direction.values[0])
    levels = np.arange(g + 1) / g
    shifts = levels * alpha1
    lo_idx, hi_idx = np.triu_indices(g + 1, k=1)
    width = levels[hi_idx] - levels[lo_idx]
    area = np.outer(width, width)  # rows: t-axis pair, cols: x-axis pair
    t_values = np.asarray(t_values, dtype=np.int64)
    t_max = int(t_values.max())
    sups = np.zeros(len(t_values))
    carry = np.zeros((g + 1, g + 1))
    order = np.argsort(t_values)
    pos = 0
    for start in range(0, t_max, 4096):
        count = min(4096, t_max - start)
        x = frac_orbit_floats(inst.alpha_fixed[0], inst.scale_bits, count,
                              start_fixed=inst.x0_fixed[0], k0=start)
        u = x[:, None] + shifts[None, :]
        fl = np.floor(u)
        fr = u - fl
        b = (fl[:, :, None] * levels[None, None, :]
             + np.minimum(fr[:, :, None], levels[None, None, :]))
        cum = np.cumsum(b, axis=0)
        cum += carry[None, :, :]
        while pos < len(order) and t_values[order[pos]] <= start + count:
            j = order[pos]
            pos += 1
            row = cum[t_values[j] - start - 1]
            p2 = row[hi_idx, :] - row[lo_idx, :]
            q = p2[:, hi_idx] - p2[:, lo_idx]
            sups[j] = np.abs(q / alpha1 - float(t_values[j]) * area).max()
        carry = cum[-1].copy()
    return sups


def _sweep_tol(t, alpha1):
    """Rounding allowance between two sweeps that share the running matrix.

    The entries of E = running/alpha1 - t*outer(L, L) are below 2m with
    m = t*(1 + 1/|alpha1|), since every running entry is a sum of t terms of
    size at most |alpha1| + 2.  Either sweep rounds each of the four entries
    a box uses at most three times and then takes differences below 8m,
    which stays within 20 ulps of m; the two together within 40.
    """
    return 40 * np.spacing(t * (1 + 1 / abs(alpha1)))


def _exact_tol(t, alpha1):
    """Allowance between a sweep and delta_T_exact for the same box: the
    running sums add t terms one after another, so each of the four entries
    a box uses carries up to gamma_t times t*(|alpha1| + 2) (Higham's
    bound), divided by |alpha1|; the pairwise window sum of the exact
    engine is far inside that."""
    eps = np.finfo(float).eps
    return 2 * eps * t * t * (1 + 2 / abs(alpha1)) + _sweep_tol(t, alpha1)


SWEEP_TIMES = np.array([4097, 3, 4096, 1, 4095, 3, 8193, 112, 4097, 4096]
                       + list(range(200, 0, -7)))


@pytest.mark.parametrize("alpha", ["sqrt(2)", "sqrt(11) - 3", "-sqrt(3) / 7"])
def test_box_sweep_matches_reference(alpha):
    """The O(g^3) sweep against the O(g^4) one, at times that cross the
    4096-point chunk boundary and arrive unsorted and repeated; each argmax
    box is a grid box and reproduces its sup through the exact engine."""
    direction = [parse_literal(alpha), parse_literal("1")]
    alpha1 = float(direction[0])
    inst = FlowInstance.build(direction, (ZERO, ZERO), Polytope.unit_cube(2),
                              want_section=False)
    tol = _sweep_tol(SWEEP_TIMES, alpha1)
    exact_tol = _exact_tol(SWEEP_TIMES, alpha1)
    for g in (1, 2, 3, 4, 16):
        sups, boxes = _box_sweep(direction, g, SWEEP_TIMES, want_argmax=True)
        want = _reference_sweep(inst, g, SWEEP_TIMES)
        assert np.all(np.abs(sups - want) <= tol)
        assert np.all(boxes[:, 0] < boxes[:, 1])
        np.testing.assert_array_equal(boxes * g, np.round(boxes * g))
        for t, sup, (lo, hi), atol in zip(SWEEP_TIMES, sups, boxes, exact_tol):
            box = FlowInstance.build(direction, (ZERO, ZERO),
                                     Polytope.box(tuple(lo), tuple(hi)))
            assert abs(abs(delta_T_exact(box, float(t))) - sup) <= atol


@st.composite
def _surd_box_problem(draw):
    """A quadratic-surd slope (a + b*sqrt(D))/c, a grid of at most 8 and a
    grid box on it, and an integer time of at most 300."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
    root = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    c = draw(st.integers(1, 6))
    grid = draw(st.integers(1, 8))
    x = sorted(draw(st.lists(st.integers(0, grid), min_size=2, max_size=2, unique=True)))
    y = sorted(draw(st.lists(st.integers(0, grid), min_size=2, max_size=2, unique=True)))
    t = draw(st.integers(1, 300))
    return f"({a} + {b} * sqrt({root})) / {c}", grid, (x[0], y[0]), (x[1], y[1]), t


@given(_surd_box_problem())
def test_box_sup_bounds_every_grid_box(problem):
    """The grid sup is at least |Delta_t| of any one grid box."""
    alpha, grid, lo, hi, t = problem
    direction = [parse_literal(alpha), parse_literal("1")]
    alpha1 = float(direction[0])
    box = FlowInstance.build(direction, (ZERO, ZERO),
                             Polytope.box(tuple(np.divide(lo, grid)),
                                          tuple(np.divide(hi, grid))))
    observed = abs(delta_T_exact(box, float(t)))
    r = box_discrepancy_sup(direction, [ZERO, ZERO], t, grid)
    assert r.sup >= observed - _exact_tol(t, alpha1)


def _reference_box_sup(direction, s, t, grid):
    """Every grid box through the exact engine, one FlowInstance per box, in
    (g(g+1)/2)^d builds.  Returns the sup and the first box in product order
    that attains it."""
    levels = [i / grid for i in range(grid + 1)]
    pairs = [(levels[i], levels[j]) for i in range(grid + 1) for j in range(i + 1, grid + 1)]
    best_sup, best_lo, best_hi = -1.0, None, None
    for combo in itertools.product(pairs, repeat=len(direction)):
        lo = tuple(c[0] for c in combo)
        hi = tuple(c[1] for c in combo)
        inst = FlowInstance.build(direction, s, Polytope.box(lo, hi))
        val = abs(delta_T_exact(inst, t))
        if val > best_sup:
            best_sup, best_lo, best_hi = val, lo, hi
    return best_sup, best_lo, best_hi


def _corner_tol(direction, t):
    """Allowance between a sup read off the orthant corner table and one
    box's delta_T_exact.

    Each corner value F, like the one box value, is a delta_T_exact call at
    normalized time tau = t * scale: a sum of at most tau + 1 window values
    in [0, 1], each clipped within a few ulps of 1/a for the smallest
    normalized coordinate a, minus tau times the volume.  _exact_tol(tau, a)
    allows t sequential additions of terms up to 1 + 2/a, which covers that
    for tau >= 1; below 1 its spacing term still covers a few clips.  A grid
    box's value is a signed sum of its 2^d corner values, so with the other
    side's own error the two differ by at most 2^d + 1 such allowances.
    """
    normalized, _, scale = Direction.make(direction).normalize()
    alphas = np.abs(normalized.floats())
    return (2 ** len(alphas) + 1) * _exact_tol(max(t * float(scale), 1.0), alphas.min())


CORNER_CASES = {
    "rational start": (["sqrt(2) - 1", "1"], ["1/3", "1/5"], 50, 4),
    "dominant first": (["1", "sqrt(2)"], ["0", "0"], 50, 4),
    "negative last": (["sqrt(3)", "-sqrt(2)"], ["0", "0"], 50, 4),
    "real time": (["sqrt(2)", "1"], ["0", "0"], 99.25, 3),
    "zero time": (["sqrt(2)", "1"], ["1/7", "0"], 0, 3),
    "3d box": (["sqrt(2) - 1", "sqrt(3) - 1", "1"], ["1/2", "1/3", "1/4"], 13, 3),
}


@pytest.mark.parametrize("case", list(CORNER_CASES))
def test_corner_table_matches_per_box_loop(case):
    """Off the sweep path the corner table gives the per-box loop's sup, and
    its argmax box, a grid box, reproduces that sup; where the boxes differ
    they tie (at T = 0 every box is 0)."""
    literals, start, t, grid = CORNER_CASES[case]
    direction = [parse_literal(v) for v in literals]
    s = [parse_literal(v) for v in start]
    tol = _corner_tol(direction, t)
    r = box_discrepancy_sup(direction, s, t, grid)
    want, _, _ = _reference_box_sup(direction, s, t, grid)
    assert abs(r.sup - want) <= tol
    assert all(type(v) is float for v in r.box_lo + r.box_hi)
    np.testing.assert_array_equal(np.multiply(r.box_lo + r.box_hi, grid),
                                  np.round(np.multiply(r.box_lo + r.box_hi, grid)))
    inst = FlowInstance.build(direction, s, Polytope.box(r.box_lo, r.box_hi))
    assert abs(abs(delta_T_exact(inst, t)) - r.sup) <= tol
    if t == 0:
        assert r.sup == 0.0


@st.composite
def _corner_box_problem(draw):
    """A planar direction, a rational start in [0, 1)^2, a real time of at
    most 60, a grid of at most 4 and one grid box on it."""
    direction = draw(st.sampled_from([["sqrt(2) - 1", "1"], ["1", "sqrt(2)"],
                                      ["sqrt(3)", "-sqrt(2)"], ["(1 + sqrt(5)) / 2", "1"]]))
    start = []
    for _ in range(2):
        q = draw(st.integers(1, 12))
        start.append(f"{draw(st.integers(0, q - 1))}/{q}")
    t = draw(st.floats(0, 60))
    grid = draw(st.integers(1, 4))
    x = sorted(draw(st.lists(st.integers(0, grid), min_size=2, max_size=2, unique=True)))
    y = sorted(draw(st.lists(st.integers(0, grid), min_size=2, max_size=2, unique=True)))
    return direction, start, t, grid, (x[0], y[0]), (x[1], y[1])


@settings(max_examples=25)
@given(_corner_box_problem())
def test_corner_sup_bounds_every_grid_box(problem):
    """From any rational start at any real time, the grid sup is at least
    |Delta_t| of any one grid box."""
    literals, start, t, grid, lo, hi = problem
    direction = [parse_literal(v) for v in literals]
    s = [parse_literal(v) for v in start]
    box = FlowInstance.build(direction, s, Polytope.box(tuple(np.divide(lo, grid)),
                                                        tuple(np.divide(hi, grid))))
    observed = abs(delta_T_exact(box, t))
    r = box_discrepancy_sup(direction, s, t, grid)
    assert r.sup >= observed - _corner_tol(direction, t)


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
        np.testing.assert_array_equal(mat[k], _reference_point(triangle_instance, k))
    vals = triangle_instance.section_values(mat)
    assert vals.shape == (6,)
    assert np.all((vals >= 0) & (vals <= 1))
