"""Discrepancy evaluation along linear torus flows.

Exact evaluation decomposes time into an initial partial wrap of the last
coordinate, a run of full unit-time windows handled by the section
function, and a final partial wrap; only segment clipping touches the
partial windows, so there is no +-O(1) slack anywhere.  Orbit points come
from exact fixed-point integers (one rounding of alpha, then integer
arithmetic), never from accumulated float additions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .algebraic import (
    DEFAULT_FIXED_SCALE,
    AlgebraicValue,
    frac_orbit_floats,
)
from .errors import TransversalityError, ValidationError
from .geometry import (
    Box,
    Direction,
    Polytope,
    SectionEvaluator,
    SectionFunction2D,
    build_piecewise_linear_section,
    validate_transversality,
)

_INT_SNAP = 1e-12


def _normalize_problem(direction: Direction, s_vals, polytope: Polytope):
    """Permute/reflect coordinates so the dominant component is last and
    positive, then rescale it to 1.  Returns the transformed problem, the
    time scale a (original Delta_T equals transformed Delta_{aT} / a), and
    the permutation applied.
    """
    new_dir, perm, scale = direction.normalize()
    s_list = [s_vals[k] for k in perm]
    verts = polytope.vertices[:, list(perm)]
    normals = polytope.normals[:, list(perm)]
    offsets = polytope.offsets.copy()

    if direction.floats()[perm[-1]] < 0:
        # reflect the last axis: x -> 1 - x keeps the unit cube invariant
        s_list[-1] = AlgebraicValue.from_rational(1) - s_list[-1]
        verts = verts.copy()
        verts[:, -1] = 1.0 - verts[:, -1]
        offsets = offsets - normals[:, -1]
        normals = normals.copy()
        normals[:, -1] = -normals[:, -1]

    new_poly = Polytope(verts, normals, offsets, polytope.volume)
    return new_dir, tuple(s_list), new_poly, float(scale), perm


@dataclass
class FlowInstance:
    """A flow problem in normalized coordinates (last direction component 1).

    ``time_scale`` converts caller time to normalized time; it is 1.0 when
    the input direction was already normalized.
    """

    direction: Direction
    s_values: tuple[AlgebraicValue, ...]
    polytope: Polytope
    time_scale: float
    scale_bits: int
    evaluator: SectionEvaluator | None
    section: SectionFunction2D | None
    transversality_ok: bool
    permutation: tuple[int, ...] | None = None
    alpha_fixed: list[int] = field(repr=False, default_factory=list)
    x0_fixed: list[int] = field(repr=False, default_factory=list)

    @classmethod
    def build(cls, direction, s, polytope: Polytope, *,
              scale_bits: int = DEFAULT_FIXED_SCALE,
              want_section: bool = True) -> "FlowInstance":
        if not isinstance(direction, Direction):
            direction = Direction.make(direction)
        s_vals = tuple(AlgebraicValue.coerce(v) for v in s)
        if len(s_vals) != direction.d or polytope.d != direction.d:
            raise ValidationError("direction, start point, and polytope dimensions differ")
        polytope.validate()

        time_scale = 1.0
        permutation = None
        if not direction.normalized:
            direction, s_vals, polytope, time_scale, permutation = _normalize_problem(
                direction, s_vals, polytope
            )

        report = validate_transversality(polytope, direction)
        evaluator = SectionEvaluator(polytope, direction) if report.ok else None

        section = None
        if want_section and report.ok and polytope.d == 2:
            section = build_piecewise_linear_section(polytope, direction)

        d = direction.d
        s_d = s_vals[-1]
        alpha_fixed = [direction.values[k].fixed(scale_bits) for k in range(d - 1)]
        x0_fixed = [
            (s_vals[k] - s_d * direction.values[k]).fixed(scale_bits)
            for k in range(d - 1)
        ]
        return cls(
            direction=direction,
            s_values=s_vals,
            polytope=polytope,
            time_scale=time_scale,
            scale_bits=scale_bits,
            evaluator=evaluator,
            section=section,
            transversality_ok=report.ok,
            permutation=permutation,
            alpha_fixed=alpha_fixed,
            x0_fixed=x0_fixed,
        )

    @property
    def d(self) -> int:
        return self.direction.d

    @property
    def s_last(self) -> float:
        return float(self.s_values[-1])

    def polytope_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.round(self.polytope.vertices, 12).tobytes())
        h.update(np.float64(self.polytope.volume).tobytes())
        return h.hexdigest()[:16]

    def require_exact_capable(self):
        if self.evaluator is None:
            raise TransversalityError(
                "exact engine needs a transversal instance; use the quadrature engine"
            )

    # -- orbit helpers -------------------------------------------------

    def orbit_matrix(self, k0: int, count: int) -> np.ndarray:
        """Projected orbit points x_k for k = k0 .. k0+count-1, shape (count, d-1)."""
        cols = [
            frac_orbit_floats(self.alpha_fixed[i], self.scale_bits, count,
                              start_fixed=self.x0_fixed[i], k0=k0)
            for i in range(self.d - 1)
        ]
        return np.stack(cols, axis=1)

    def section_values(self, xs: np.ndarray) -> np.ndarray:
        if self.section is not None:
            return self.section(xs[:, 0] if xs.ndim == 2 else xs)
        return self.evaluator.lengths(xs)


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------


def _check_times(times) -> np.ndarray:
    """``times`` as a float array, after rejecting any that is negative or
    not finite."""
    times = np.asarray(times, dtype=np.float64)
    bad = times[~((times >= 0) & (times < math.inf))]
    if bad.size:
        raise ValidationError(f"time must be finite and non-negative, got {float(bad[0])!r}")
    return times


def _exact_deltas(inst: FlowInstance, times) -> np.ndarray:
    """Delta_t for every t of ``times`` (any order, repeats allowed).

    Lifted time [s_d, s_d + t] splits at integers into a first partial
    window from s_d, full unit windows 1 .. k - 1 and a last partial window
    [0, theta] at orbit point x_k; ends within _INT_SNAP of an integer snap
    to it.  All partial windows are clipped in one ``lengths`` call, and
    each run of full windows between consecutive distinct k is summed once
    into a running total.  A sample's parts are joined with one fsum, so a
    single time gets the same sums as a direct evaluation.
    """
    times = _check_times(times)
    inst.require_exact_capable()
    t_norm = times * inst.time_scale
    lam = inst.polytope.volume
    s_d = inst.s_last

    end = t_norm + s_d
    k = np.floor(end)
    theta = end - k
    up = theta > 1.0 - _INT_SNAP
    k[up] += 1
    theta[up | (theta < _INT_SNAP)] = 0.0
    xs = inst.orbit_matrix(0, int(k.max(initial=0)) + 1)
    k = k.astype(np.int64)
    first = k == 0

    clip = inst.evaluator.lengths(xs[np.concatenate(([0], k))],
                                  np.concatenate(([s_d], np.where(first, s_d, 0.0))),
                                  np.concatenate(([1.0], np.where(first, end, theta))))
    head = np.where(first, 0.0, clip[0] - (1.0 - s_d) * lam)
    last = clip[1:] - np.where(first, t_norm, theta) * lam

    full = inst.section_values(xs[1:-1]) - lam  # windows 1 .. k_max - 1
    runs, run_of = np.unique(k, return_inverse=True)
    edges = np.concatenate(([0], np.maximum(runs, 1) - 1))
    size = np.diff(edges)
    sums = np.zeros(len(runs))  # an empty run sums to 0.0
    sums[size == 1] = full[edges[:-1][size == 1]]  # what np.sum of one element returns
    many = np.flatnonzero(size > 1)
    # np.add.reduce is what np.sum runs, without its Python wrapper
    sums[many] = [np.add.reduce(full[a:b])
                  for a, b in zip(edges[many].tolist(), edges[many + 1].tolist())]
    sums = np.cumsum(sums)
    parts = zip(head.tolist(), sums[run_of].tolist(), last.tolist())
    deltas = np.array([math.fsum(p) for p in parts]) / inst.time_scale
    deltas[times == 0] = 0.0  # even where a start within _INT_SNAP of 1 snaps a window
    return deltas


def delta_T_exact(inst: FlowInstance, t: float) -> float:
    """Time integral of the indicator along the flow minus t * volume."""
    return float(_exact_deltas(inst, [t])[0])


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    error_bound: float
    crossings: int
    step: float


def _check_step(step: float):
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"quadrature step must be finite and positive, got {step!r}")


# Midpoints decided per contains() call, and coordinate wraps per block of
# midpoints: both bound the numpy temporaries of the counting kernel.
_CHUNK = 1 << 18
_BLOCK_WRAPS = 1 << 16


def _joined_runs(starts: np.ndarray, ends: np.ndarray):
    """Sorted disjoint runs [start, end], with runs that touch joined."""
    new = np.ones(len(starts), dtype=bool)
    new[1:] = starts[1:] > ends[:-1] + 1
    last = np.ones(len(starts), dtype=bool)
    last[:-1] = new[1:]
    return starts[new], ends[last]


def _walked_runs(poly: Polytope, alpha, s, h: float, lo: np.ndarray, hi: np.ndarray):
    """Runs (starts, ends) of hits among the midpoints of the sorted,
    disjoint index ranges lo..hi, each midpoint k decided by the walk's
    float predicate contains(mod(s + ((k + 1/2) h) alpha, 1))."""
    size = hi - lo + 1
    stop = np.cumsum(size)
    total = int(stop[-1]) if len(stop) else 0
    runs = []
    for c0 in range(0, total, _CHUNK):
        pos = np.arange(c0, min(c0 + _CHUNK, total))
        r = np.searchsorted(stop, pos, side="right")
        k = lo[r] + pos - (stop[r] - size[r])
        k = k[poly.contains(np.mod(s + ((k + 0.5) * h)[:, None] * alpha, 1.0))]
        runs.append(_joined_runs(k, k))
    return runs


def _block_runs(poly: Polytope, alpha, s, h: float, k0: int, k1: int,
                slack_tol: np.ndarray, coord_tol: np.ndarray):
    """Runs (starts, ends) of hits among the midpoints k0 <= k < k1.

    Cuts the time axis at every wrap of a coordinate.  A piece's interior
    leaves out the band around each cut in which coordinate i is within
    ``coord_tol[i]`` of the integer, where rounding may put the point on
    either side of it.  On an interior the point is base + t alpha, so the
    times at which every facet slack is at least +slack_tol, or at least
    -slack_tol, are one interval each.  Midpoints in the first interval
    are hits and midpoints outside the second are misses.  The rest and
    the bands are walked.  The tolerances are wide enough to absorb the
    rounding of each interval end and of its midpoint index.
    """
    t0, t1 = k0 * h, k1 * h
    cuts, bands = [], []
    for i in np.flatnonzero(alpha):
        lo, hi = sorted((s[i] + t0 * alpha[i], s[i] + t1 * alpha[i]))
        j = np.arange(math.floor(lo) - 1, math.ceil(hi) + 2, dtype=np.float64)
        cuts.append((j - s[i]) / alpha[i])
        bands.append(np.full(len(j), coord_tol[i] / abs(alpha[i])))
    order = np.argsort(np.concatenate(cuts))
    cuts = np.concatenate(cuts)[order]
    bands = np.concatenate(bands)[order]

    def first(t):  # index of the first midpoint at or after t
        return np.ceil(np.clip(t, t0 - h, t1 + h) / h - 0.5).astype(np.int64)

    def last(t):  # index of the last midpoint at or before t
        return np.floor(np.clip(t, t0 - h, t1 + h) / h - 0.5).astype(np.int64)

    ka = np.maximum(first(cuts[:-1] + bands[:-1]), k0)
    kb = np.minimum(last(cuts[1:] - bands[1:]), k1 - 1)
    base = s - np.floor(s + 0.5 * (cuts[:-1] + cuts[1:])[:, None] * alpha)

    def window(margin):  # times on each piece at which every slack >= margin
        lo = np.full(len(base), -np.inf)
        hi = np.full(len(base), np.inf)
        for nu, c, m in zip(poly.normals, poly.offsets, margin):
            r = (c - m) - base @ nu
            b = float(nu @ alpha)
            if b > 0:
                np.minimum(hi, r / b, out=hi)
            elif b < 0:
                np.maximum(lo, r / b, out=lo)
            else:
                lo[r < 0] = np.inf
        return lo, hi

    in_lo, in_hi = window(slack_tol)
    may_lo, may_hi = window(-slack_tol)
    ca = np.maximum(first(in_lo), ka)
    cb = np.minimum(last(in_hi), kb)
    ma = np.maximum(first(may_lo), ka)
    mb = np.minimum(last(may_hi), kb)
    inside = ca <= cb
    interior = ka <= kb  # the bands are what the interiors leave out
    lo = np.concatenate(([k0], kb[interior] + 1, ma, np.where(inside, cb + 1, mb + 1)))
    hi = np.concatenate((ka[interior] - 1, [k1 - 1], np.where(inside, ca - 1, mb), mb))
    keep = lo <= hi
    order = np.argsort(lo[keep])
    return [(ca[inside], cb[inside])] + _walked_runs(poly, alpha, s, h, lo[keep][order],
                                                     hi[keep][order])


def _midpoint_hits(inst: FlowInstance, h: float, n: int, marks: np.ndarray):
    """Midpoint rule in normalized time: of the midpoints (k + 1/2) h, k < n,
    the number in the body among the first m, for each m of the ascending
    ``marks`` (each in 1..n), and the number of hit/miss flips between
    neighbouring midpoints.

    Counts midpoints per exact interval between coordinate wraps: between
    two times at which a coordinate of s + t alpha crosses an integer the
    point runs along one segment, so its time in the body is one interval,
    clipped against all facets at once.  Each interval's midpoints are
    counted as an index range.  The few midpoints that rounding could put
    on either side of a range end or a wrap are decided by the float
    predicate of a midpoint-by-midpoint walk, so every hit is the walk's
    hit.  Steps of more than half a wrap walk every midpoint instead.  Work
    is O(min(wraps, n) + marks), and memory is bounded by blocks of 2**16
    wraps.
    """
    alpha = inst.direction.floats()
    s = np.array([float(v) for v in inst.s_values])
    poly = inst.polytope
    # The walk's point is off in coordinate i by at most eps * reach[i], and
    # a facet slack by (d + 1) eps sum_i |nu_i| reach[i]; the clip rounds
    # within the same order.  8 (d + 1) eps covers both twice over.
    reach = np.abs(s) + n * h * np.abs(alpha) + 2.0
    tol = 8 * (len(alpha) + 1) * np.finfo(np.float64).eps
    slack_tol = tol * (np.abs(poly.offsets) + np.abs(poly.normals) @ (2.0 * reach))
    wraps_per_step = h * np.abs(alpha).sum()
    if wraps_per_step > 0.5:
        # Counting costs more than walking from about 0.5 wraps per step on
        # (2e5 midpoints: even at 0.5-0.6, 1.4-2.5x at 1, 5-7.5x at 4), and a
        # block holds at least one step, so its cut arrays would grow with it.
        runs = _walked_runs(poly, alpha, s, h, np.array([0]), np.array([n - 1]))
    else:
        width = max(1, int(_BLOCK_WRAPS / wraps_per_step))
        runs = [run for k0 in range(0, n, width)
                for run in _block_runs(poly, alpha, s, h, k0, min(k0 + width, n),
                                       slack_tol, tol * reach)]
    starts, ends = (np.concatenate(part) for part in zip(*runs))
    order = np.argsort(starts)
    starts, ends = _joined_runs(starts[order], ends[order])
    done = np.concatenate(([0], np.cumsum(ends - starts + 1)))
    j = np.searchsorted(starts, marks)  # runs that start below each mark
    counts = done[j] - np.maximum(np.concatenate(([-1], ends))[j] + 1 - marks, 0)
    crossings = 2 * len(starts)  # run ends, except at the first and last midpoint
    if len(starts):
        crossings -= int(starts[0] == 0) + int(ends[-1] == n - 1)
    return counts, crossings


def delta_T_quadrature(inst: FlowInstance, t: float, step: float = 1e-3) -> QuadratureEstimate:
    """Midpoint-rule estimate of the discrepancy at time t.

    The midpoints in the body are counted per exact interval between
    coordinate wraps (``_midpoint_hits``), so the cost grows with the wraps,
    not the midpoints, and every hit is that of a midpoint-by-midpoint walk.
    Works on non-transversal instances too.  The reported error bound is
    step * (crossings/2 + 2), counting hit/miss flips between neighbouring
    midpoints.
    """
    _check_step(step)
    if _check_times(t) == 0:
        return QuadratureEstimate(0.0, 0.0, 0, step)
    t_norm = t * inst.time_scale
    n = max(1, int(math.ceil(t_norm / step)))
    h = t_norm / n
    counts, crossings = _midpoint_hits(inst, h, n, np.array([n]))
    value = (h * float(counts[0]) - t_norm * inst.polytope.volume) / inst.time_scale
    err = h * (0.5 * crossings + 2.0) / inst.time_scale
    return QuadratureEstimate(value=value, error_bound=err, crossings=crossings, step=h)


def quadrature_delta_profile(inst: FlowInstance, t_max: float, step: float,
                             sample_every: int = 250) -> "DiscrepancyTrace":
    """Running quadrature discrepancy sampled every ``sample_every`` steps.

    The trace metadata carries a single conservative error bound (full-run
    crossing count); each prefix sample obeys the same bound.  A t_max that
    leaves no sample is rejected.
    """
    _check_step(step)
    if sample_every < 1:
        raise ValidationError(f"sample_every must be >= 1, got {sample_every!r}")
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max!r}")
    t_norm = t_max * inst.time_scale
    n = int(round(t_norm / step))
    marks = np.arange(sample_every, n + 1, sample_every, dtype=np.int64)
    if not len(marks):
        raise ValidationError(f"t_max = {t_max!r} is shorter than one sample spacing "
                              f"({sample_every} steps of {step!r})")
    counts, crossings = _midpoint_hits(inst, step, n, marks)
    t_here = marks * step
    deltas = counts * step - t_here * inst.polytope.volume
    meta = {
        "engine": "quadrature",
        "err_bound": step * (0.5 * crossings + 2.0) / inst.time_scale,
        "step": step,
        "crossings": crossings,
        "t_max": t_max,
        "complement": False,  # kept so trace.meta.json stays byte-identical
        **_instance_meta(inst),
    }
    return DiscrepancyTrace(times=t_here / inst.time_scale,
                            deltas=deltas / inst.time_scale, meta=meta)


# ---------------------------------------------------------------------------
# discrete orbits
# ---------------------------------------------------------------------------


def _discrete_orbit(alpha, s, n: int, scale_bits: int) -> np.ndarray:
    """Points {s + k*alpha} for k < n, one row each, after checking that
    alpha and s have one coordinate each per axis and that n >= 0."""
    alpha_vals = list(np.atleast_1d(np.asarray(alpha, dtype=object)))
    s_vals = list(np.atleast_1d(np.asarray(s, dtype=object)))
    if len(alpha_vals) != len(s_vals):
        raise ValidationError("alpha and s dimension mismatch")
    if n < 0:
        raise ValidationError("negative orbit length")
    cols = [frac_orbit_floats(AlgebraicValue.coerce(a).fixed(scale_bits), scale_bits, n,
                              start_fixed=AlgebraicValue.coerce(v).fixed(scale_bits))
            for a, v in zip(alpha_vals, s_vals)]
    return np.stack(cols, axis=1)


def discrete_discrepancy(alpha, s, target, n: int,
                         scale_bits: int = DEFAULT_FIXED_SCALE) -> float:
    """Birkhoff-sum discrepancy of the Kronecker sequence s + k*alpha.

    ``target`` may be a Box (half-open membership) or a Polytope (closed).
    Works in any dimension >= 1; no normalization convention applies to
    translations.
    """
    pts = _discrete_orbit(alpha, s, n, scale_bits)
    if n == 0:
        return 0.0

    if isinstance(target, Box):
        if target.d != pts.shape[1]:
            raise ValidationError("box dimension mismatch")
        hits = target.contains_fracs(pts)
        return float(hits.sum()) - n * target.volume
    if isinstance(target, Polytope):
        if target.d != pts.shape[1]:
            raise ValidationError("polytope dimension mismatch")
        hits = target.contains(pts)
        return float(hits.sum()) - n * target.volume
    raise ValidationError(f"unsupported target {type(target).__name__}")


def discrete_decade_maxima(alpha, s, target: Box, n_max: int,
                           scale_bits: int = DEFAULT_FIXED_SCALE):
    """Per-decade maxima of |D_N| for N <= n_max.

    Returns a list of (decade_upper, max_abs_D) over decades
    (1, 10], (10, 100], ... up to n_max.
    """
    pts = _discrete_orbit(alpha, s, n_max, scale_bits)
    if target.d != pts.shape[1]:
        raise ValidationError("box dimension mismatch")
    hits = target.contains_fracs(pts).astype(np.float64)
    d_n = np.cumsum(hits) - target.volume * np.arange(1, n_max + 1)
    out = []
    lo = 1
    hi = 10
    while lo <= n_max:
        hi_eff = min(hi, n_max)
        seg = np.abs(d_n[lo - 1:hi_eff])
        out.append((hi_eff, float(seg.max())))
        lo, hi = hi + 1, hi * 10
    return out


# ---------------------------------------------------------------------------
# box-family discrepancy over a grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxSup:
    sup: float
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    t: float
    grid: int


def _check_box_args(direction: Direction, grid: int):
    for v in direction.values:
        fr = v.as_fraction()
        if (fr is not None and fr == 0) or float(v) == 0.0:
            raise ValidationError("box discrepancy needs every direction coordinate nonzero")
    if grid < 1:
        raise ValidationError("grid must be >= 1")


def _corner_sup(e: np.ndarray, want_argmax: bool):
    """Grid-box sups of a batch of planar corner tables e[b, i2, i1].

    On grid levels L, the box [L[i1], L[j1]] x [L[i2], L[j2]] takes the sum
    e[j2, j1] - e[j2, i1] - e[i2, j1] + e[i2, i1].  On rows i2 < j2 the
    best box spans the argmin and argmax of D = e[j2] - e[i2], with value
    max(D) - min(D): O(g^3) work per table.  Returns the sups and, if
    asked, each argmax box as grid indices [[lo1, lo2], [hi1, hi2]].
    """
    g = e.shape[-1] - 1
    # axes (level 1, level 2, batch), so each range reduces whole rows
    et = np.ascontiguousarray(e.transpose(2, 1, 0))
    ranges = np.concatenate([np.ptp(et[:, i2 + 1:] - et[:, i2, None], axis=0)
                             for i2 in range(g)])  # row pairs in triu order
    sups = ranges.max(axis=0)
    if not want_argmax:
        return sups, None
    lo_idx, hi_idx = np.triu_indices(g + 1, k=1)
    pair = ranges.argmax(axis=0)
    k = np.arange(len(e))
    row = e[k, hi_idx[pair]] - e[k, lo_idx[pair]]
    j1 = row.argmax(axis=1)
    i1 = row.argmin(axis=1)
    i1[i1 == j1] = g  # D is flat: every box on the rows is 0
    lo1, hi1 = np.sort([i1, j1], axis=0)
    return sups, np.array([[lo1, lo_idx[pair]], [hi1, hi_idx[pair]]]).transpose(2, 0, 1)


def _box_sweep(direction, grid: int, t_values, want_argmax: bool = False,
               scale_bits: int = DEFAULT_FIXED_SCALE):
    """Grid box sups in the plane at integer times, s = 0, and if asked each
    argmax box as [[lo1, lo2], [hi1, hi2]] in an array of shape (times, 2, 2).

    For a box [a1,b1] x [a2,b2] the unit-window section value at x is
    (G(x + b2*q) - G(x + a2*q)) / q with q = alpha_1 and
    G(u) = floor(u)*len + (clamped fractional part), which splits over grid
    values: summing B(u, c) = floor(u)*c + min(u - floor(u), c) over the
    orbit for each (shift c2, cap c1) pair gives one (g+1) x (g+1) running
    matrix.  The area term t*(b2 - a2)*(b1 - a1) is a rectangle sum of
    t * outer(L, L) over the grid levels L, so E = running/q - that outer
    product is a corner table for _corner_sup at each time.
    """
    inst = FlowInstance.build(direction, (0, 0), Polytope.unit_cube(2),
                              scale_bits=scale_bits, want_section=False)
    alpha1 = float(inst.direction.values[0])
    levels = np.arange(grid + 1) / grid
    shifts = levels * alpha1
    level_area = np.outer(levels, levels)
    times = np.asarray(t_values)
    if times.ndim != 1 or times.dtype.kind not in "iuf" or not np.all(
            np.isfinite(times) & (times == np.floor(times)) & (times >= 1)
            & (times < 2.0 ** 63)):
        raise ValidationError("box sweep times must be positive integers below 2**63")
    order = np.argsort(times)
    sorted_t = times[order].astype(np.int64)
    t_max = int(sorted_t.max(initial=0))
    sups = np.zeros(len(times))
    boxes = np.zeros((len(times), 2, 2), dtype=np.int64)

    carry = np.zeros((grid + 1, grid + 1))
    chunk = 4096
    eval_batch = 256
    for start in range(0, t_max, chunk):
        count = min(chunk, t_max - start)
        x = frac_orbit_floats(inst.alpha_fixed[0], inst.scale_bits, count,
                              start_fixed=inst.x0_fixed[0], k0=start)
        u = x[:, None] + shifts[None, :]
        fl = np.floor(u)
        fr = u - fl
        b = (fl[:, :, None] * levels[None, None, :]
             + np.minimum(fr[:, :, None], levels[None, None, :]))
        cum = np.cumsum(b, axis=0)
        cum += carry[None, :, :]

        first, stop = np.searchsorted(sorted_t, [start + 1, start + count + 1])
        for i in range(first, stop, eval_batch):
            ts = sorted_t[i:min(i + eval_batch, stop)]
            at = order[i:i + len(ts)]
            e = cum[ts - start - 1] / alpha1 - ts[:, None, None] * level_area
            sups[at], best = _corner_sup(e, want_argmax)
            if want_argmax:
                boxes[at] = best
        carry = cum[-1].copy()
    return sups, (levels[boxes] if want_argmax else None)


def box_discrepancy_sup(direction, s, t, grid: int,
                        scale_bits: int = DEFAULT_FIXED_SCALE) -> BoxSup:
    """Largest |Delta_t| over all boxes with corners on the (1/grid) grid.

    A grid sup is a lower bound for the box-family sup.  Delta_t is additive
    over disjoint boxes, so a grid box is a signed sum of F(u) = Delta_t([0, u))
    at its 2^d corners, and one corner table decides every sup: the sweep's
    (planar, start 0, integer t), or else g^d exact orthant evaluations with
    axes 3..d folded over level pairs into the batch, at O(g^(2d-1)) cost.
    """
    if not isinstance(direction, Direction):
        direction = Direction.make(direction)
    _check_box_args(direction, grid)
    _check_times(t)
    s_vals = tuple(AlgebraicValue.coerce(v) for v in s)
    s_zero = all(v.as_fraction() == 0 for v in s_vals)

    if (direction.d == 2 and s_zero and float(t) == int(t) and t >= 1
            and direction.normalized):
        sups, best = _box_sweep(direction, grid, np.array([int(t)]), want_argmax=True,
                                scale_bits=scale_bits)
        sup, (lo, hi) = sups[0], best[0].tolist()
    else:
        d = direction.d
        levels = np.arange(grid + 1) / grid
        f = np.zeros((grid + 1,) * d)  # f[i1, .., id] = Delta_t([0, L[i]))
        for u in np.ndindex(*(grid,) * d):
            corner = np.add(u, 1)
            box = Polytope.box(np.zeros(d), levels[corner])
            inst = FlowInstance.build(direction, s_vals, box, scale_bits=scale_bits)
            f[tuple(corner)] = delta_T_exact(inst, t)
        lo_idx, hi_idx = np.triu_indices(grid + 1, k=1)
        e = f.transpose(*range(2, d), 1, 0)
        for axis in range(d - 2):
            e = e.take(hi_idx, axis=axis) - e.take(lo_idx, axis=axis)
        sups, boxes = _corner_sup(e.reshape(-1, grid + 1, grid + 1), want_argmax=True)
        b = int(sups.argmax())
        pairs = np.unravel_index(b, (len(lo_idx),) * (d - 2))
        sup = sups[b]
        lo = levels[[*boxes[b, 0], *(lo_idx[p] for p in pairs)]].tolist()
        hi = levels[[*boxes[b, 1], *(hi_idx[p] for p in pairs)]].tolist()
    return BoxSup(sup=float(sup), box_lo=tuple(lo), box_hi=tuple(hi), t=float(t), grid=grid)


def box_discrepancy_profile(direction, t_values, grid: int,
                            scale_bits: int = DEFAULT_FIXED_SCALE):
    """Grid box sup at many integer times (planar, start 0) in one sweep."""
    if not isinstance(direction, Direction):
        direction = Direction.make(direction)
    _check_box_args(direction, grid)
    direction.require_normalized()
    sups, _ = _box_sweep(direction, grid, t_values, scale_bits=scale_bits)
    return sups


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _instance_meta(inst: FlowInstance) -> dict:
    """The trace metadata that describes the instance, shared by both engines."""
    return {
        "direction": inst.direction.literals(),
        "start": [v.literal() for v in inst.s_values],
        "volume": inst.polytope.volume,
        "polytope_hash": inst.polytope_hash(),
        "time_scale": inst.time_scale,
        "permutation": list(inst.permutation) if inst.permutation else None,
    }


@dataclass(frozen=True)
class DiscrepancyTrace:
    times: np.ndarray
    deltas: np.ndarray
    meta: dict

    def sup(self) -> float:
        return float(np.max(np.abs(self.deltas)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["T", "delta", "engine", "err_bound"])
        engine = self.meta.get("engine", "exact")
        err = self.meta.get("err_bound", 0.0)
        errs = err if np.ndim(err) else np.full(len(self.times), float(err))
        for t, v, e in zip(self.times, self.deltas, errs):
            w.writerow([f"{t:.17g}", f"{v:.17g}", engine, f"{e:.6g}"])
        return buf.getvalue()


def _sample_times(t_max: float, n_samples: int, schedule: str) -> np.ndarray:
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if schedule == "linear":
        return np.linspace(t_max / n_samples, t_max, n_samples)
    if schedule == "geometric":
        ts = np.geomspace(max(1.0, t_max / 10 ** 6), t_max, n_samples)
        return np.unique(ts)
    if schedule == "integer":
        step = max(1, int(t_max // n_samples))
        return np.arange(step, int(t_max) + 1, step, dtype=np.float64)
    raise ValidationError(f"unknown schedule {schedule!r}")


def discrepancy_trace(inst: FlowInstance, t_max: float, n_samples: int = 1000,
                      schedule: str = "linear") -> DiscrepancyTrace:
    """Sampled discrepancy curve with O(t_max) total section work.

    Every sample runs through the exact window kernel at once: each full
    unit window is evaluated and summed once, and the partial windows of
    all samples are clipped in one pass.
    """
    inst.require_exact_capable()
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max!r}")
    times = _sample_times(t_max, n_samples, schedule)
    meta = {
        "engine": "exact",
        "err_bound": 0.0,
        "t_max": t_max,
        "n_samples": len(times),
        "schedule": schedule,
        "scale_bits": inst.scale_bits,
        **_instance_meta(inst),
    }
    return DiscrepancyTrace(times=times, deltas=_exact_deltas(inst, times), meta=meta)
