"""Convex polytopes in the unit cube and their flow sections.

The flow direction is normalized so the last coordinate is exactly 1; a
unit of flow time then advances the last coordinate through one full wrap,
and the section function f(x) measures how long the lifted unit-time
segment starting at (x, 0) spends inside the body (summed over the integer
translates the segment can reach).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebraic import AlgebraicValue
from .errors import (
    DegeneratePolytopeError,
    TransversalityError,
    ValidationError,
)

TRANSVERSALITY_TOL = 1e-10
BREAKPOINT_TOL = 1e-12
_FEAS_TOL = 1e-14


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """Flow direction with lazily evaluated extended-precision coordinates."""

    values: tuple[AlgebraicValue, ...]

    @classmethod
    def make(cls, coords) -> "Direction":
        vals = tuple(AlgebraicValue.coerce(c) for c in coords)
        if len(vals) < 2:
            raise ValidationError("a flow direction needs at least 2 coordinates")
        return cls(vals)

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def normalized(self) -> bool:
        last = self.values[-1].as_fraction()
        return last == Fraction(1)

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=np.float64)

    def literals(self) -> list[str]:
        return [v.literal() for v in self.values]

    def normalize(self) -> tuple["Direction", tuple[int, ...], AlgebraicValue]:
        """This direction with its dominant coordinate moved last and scaled
        to 1: the new direction, the axis permutation applied, and the positive
        factor every coordinate was divided by (the dominant coordinate, negated
        if it was negative)."""
        alpha_f = self.floats()
        j = int(np.argmax(np.abs(alpha_f)))
        if abs(alpha_f[j]) < 1e-15:
            raise ValidationError("direction is (numerically) zero")
        perm = tuple(k for k in range(self.d) if k != j) + (j,)
        scale = -self.values[j] if alpha_f[j] < 0 else self.values[j]
        values = tuple(self.values[k] / scale for k in perm[:-1])
        return Direction(values + (AlgebraicValue.from_rational(1),)), perm, scale

    def require_normalized(self):
        if not self.normalized:
            raise ValidationError(
                f"direction {self.literals()} is not normalized (last coordinate != 1)"
            )


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, CCW, strictly convex vertices only."""
    pts = sorted(map(tuple, points))
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if len(pts) < 3:
        raise DegeneratePolytopeError("need at least 3 distinct points in the plane")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegeneratePolytopeError("points are collinear")
    return np.array(hull, dtype=np.float64)


def _merge_facet_planes(normals, offsets, tol=1e-9):
    """Deduplicate facet planes given as unit normal + offset."""
    kept_n, kept_c = [], []
    for n, c in zip(normals, offsets):
        dup = False
        for kn, kc in zip(kept_n, kept_c):
            if np.linalg.norm(n - kn) < tol and abs(c - kc) < tol:
                dup = True
                break
        if not dup:
            kept_n.append(n)
            kept_c.append(c)
    return np.array(kept_n), np.array(kept_c)


class Polytope:
    """Convex polytope as vertices plus facet halfspaces nu.x <= c.

    Vertices of planar polytopes are stored in CCW order; in higher
    dimension the order is whatever the hull computation produced.
    """

    def __init__(self, vertices, normals, offsets, volume):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.normals = np.asarray(normals, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.float64)
        self.volume = float(volume)

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_facets(self) -> int:
        return len(self.offsets)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_vertices(cls, points) -> "Polytope":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise DegeneratePolytopeError("vertex array must be 2-dimensional")
        d = pts.shape[1]
        if d == 2:
            verts = _hull_2d(pts)
            m = len(verts)
            normals = np.empty((m, 2))
            offsets = np.empty(m)
            for i in range(m):
                u = verts[(i + 1) % m] - verts[i]
                n = np.array([u[1], -u[0]])
                norm = np.linalg.norm(n)
                if norm < 1e-14:
                    raise DegeneratePolytopeError("zero-length edge in hull")
                n /= norm
                normals[i] = n
                offsets[i] = n @ verts[i]
            vol = _shoelace_area(verts)
            return cls(verts, normals, offsets, vol)

        from scipy.spatial import ConvexHull

        try:
            hull = ConvexHull(pts)
        except Exception as exc:  # qhull raises its own error type
            raise DegeneratePolytopeError(f"hull construction failed: {exc}") from exc
        verts = pts[hull.vertices]
        eqs = hull.equations  # rows (normal, offset) with normal.x + offset <= 0
        normals = eqs[:, :d]
        offsets = -eqs[:, d]
        scale = np.linalg.norm(normals, axis=1)
        normals = normals / scale[:, None]
        offsets = offsets / scale
        normals, offsets = _merge_facet_planes(normals, offsets)
        centroid = verts.mean(axis=0)
        vol = 0.0
        fact = math.factorial(d)
        for simplex in hull.simplices:
            mat = pts[simplex] - centroid
            vol += abs(np.linalg.det(mat)) / fact
        return cls(verts, normals, offsets, vol)

    @classmethod
    def from_halfspaces(cls, normals, offsets) -> "Polytope":
        from scipy.optimize import linprog
        from scipy.spatial import HalfspaceIntersection

        a = np.asarray(normals, dtype=np.float64)
        b = np.asarray(offsets, dtype=np.float64)
        m, d = a.shape
        # Chebyshev center: maximize r with a.x + r|a_i| <= b
        row_norms = np.linalg.norm(a, axis=1)
        res = linprog(
            c=np.r_[np.zeros(d), -1.0],
            A_ub=np.c_[a, row_norms],
            b_ub=b,
            bounds=[(None, None)] * d + [(0, None)],
            method="highs",
        )
        if not res.success or res.x[-1] <= 1e-12:
            raise DegeneratePolytopeError("halfspace system has empty interior")
        interior = res.x[:d]
        hs = HalfspaceIntersection(np.c_[a, -b], interior)
        return cls.from_vertices(hs.intersections)

    @classmethod
    def box(cls, lo, hi) -> "Polytope":
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if np.any(hi <= lo):
            raise DegeneratePolytopeError("box needs lo < hi in every axis")
        d = len(lo)
        verts = np.array(list(itertools.product(*zip(lo, hi))), dtype=np.float64)
        if d == 2:
            return cls.from_vertices(verts)
        normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.r_[hi, -lo]
        return cls(verts, normals, offsets, float(np.prod(hi - lo)))

    @classmethod
    def unit_cube(cls, d: int) -> "Polytope":
        return cls.box(np.zeros(d), np.ones(d))

    # -- queries ----------------------------------------------------------

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        inside = np.all(pts @ self.normals.T <= self.offsets[None, :] + tol, axis=1)
        return bool(inside[0]) if single else inside

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def validate(self):
        """Raise unless facets/vertices are mutually consistent.

        Checks: every vertex satisfies every facet to 1e-12, every facet
        touches at least d vertices, the vertex centroid has positive slack,
        and the body sits inside [0, 1]^d.
        """
        d = self.d
        slack = self.offsets[None, :] - self.vertices @ self.normals.T
        if slack.min() < -1e-12:
            raise ValidationError(
                f"vertex violates a facet by {-slack.min():.3e}"
            )
        on_facet = (np.abs(slack) <= 1e-9).sum(axis=0)
        if np.any(on_facet < d):
            raise ValidationError("a facet touches fewer than d vertices")
        centroid = self.vertices.mean(axis=0)
        c_slack = self.offsets - self.normals @ centroid
        if c_slack.min() <= 1e-9:
            raise DegeneratePolytopeError(
                f"no interior: centroid slack {c_slack.min():.3e}"
            )
        lo, hi = self.bbox()
        if lo.min() < -1e-12 or hi.max() > 1 + 1e-12:
            raise ValidationError("polytope is not contained in the unit cube")
        if self.volume <= 0:
            raise DegeneratePolytopeError("volume is not positive")

    def __repr__(self):
        return f"Polytope(d={self.d}, vertices={len(self.vertices)}, facets={self.n_facets})"


def random_polygon(rng, n_vertices: int, margin: float = 0.05,
                   min_area: float = 0.02) -> Polytope:
    """A random convex polygon with exactly n_vertices corners, inside
    [margin, 1-margin]^2 (Valtr's construction: pair up sorted coordinate
    gaps into edge vectors and chain them by angle).
    """
    if n_vertices < 3:
        raise ValidationError("polygons need at least 3 vertices")
    for _ in range(200):
        xs = np.sort(rng.random(n_vertices))
        ys = np.sort(rng.random(n_vertices))

        def gaps(v):
            inner = v[1:-1]
            side = rng.random(len(inner)) < 0.5
            lo = np.concatenate([[v[0]], inner[side], [v[-1]]])
            hi = np.concatenate([[v[0]], inner[~side], [v[-1]]])
            return np.concatenate([np.diff(lo), -np.diff(hi)])

        vec = np.stack([gaps(xs), gaps(ys)], axis=1)
        rng.shuffle(vec[:, 1])
        order = np.argsort(np.arctan2(vec[:, 1], vec[:, 0]))
        pts = np.cumsum(vec[order], axis=0)
        pts -= pts.min(axis=0)
        span = pts.max(axis=0)
        if np.any(span < 1e-9):
            continue
        scale = (1.0 - 2.0 * margin) / span
        pts = margin + pts * scale * rng.uniform(0.6, 1.0, size=2)
        pts += rng.random(2) * (1.0 - margin - pts.max(axis=0))
        try:
            poly = Polytope.from_vertices(pts)
        except (ValidationError, DegeneratePolytopeError):
            continue
        if len(poly.vertices) == n_vertices and poly.volume >= min_area:
            return poly
    raise ValidationError("could not generate a random polygon with the requested size")


def _shoelace_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_moments(verts: np.ndarray) -> tuple[float, float, float]:
    """(area, integral of x, integral of y) over a CCW polygon."""
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    area = 0.5 * float(np.sum(w))
    ix = float(np.sum((x + xn) * w)) / 6.0
    iy = float(np.sum((y + yn) * w)) / 6.0
    return area, ix, iy


@dataclass(frozen=True)
class Box:
    """Axis-parallel box; discrete membership treats it half-open [lo, hi)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @classmethod
    def make(cls, lo, hi) -> "Box":
        lo_t = tuple(float(v) for v in np.atleast_1d(lo))
        hi_t = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo_t) != len(hi_t) or any(b <= a for a, b in zip(lo_t, hi_t)):
            raise ValidationError("box needs lo < hi per axis")
        return cls(lo_t, hi_t)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def contains_fracs(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.all((pts >= lo) & (pts < hi), axis=1)


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalityReport:
    ok: bool
    min_normal_component: float
    violating_facets: tuple[int, ...]


def validate_transversality(p: Polytope, direction: Direction,
                            tol: float = TRANSVERSALITY_TOL) -> TransversalityReport:
    """Check no facet normal is orthogonal to the flow direction."""
    alpha = direction.floats()
    comps = np.abs(p.normals @ alpha) / np.linalg.norm(alpha)
    bad = tuple(int(i) for i in np.nonzero(comps <= tol)[0])
    return TransversalityReport(
        ok=not bad,
        min_normal_component=float(comps.min()),
        violating_facets=bad,
    )


def require_transversal(p: Polytope, direction: Direction,
                        tol: float = TRANSVERSALITY_TOL):
    report = validate_transversality(p, direction, tol)
    if not report.ok:
        raise TransversalityError(
            f"facets {list(report.violating_facets)} are parallel to the flow "
            f"(min |<nu, alpha>|/|alpha| = {report.min_normal_component:.3e})",
            facets=report.violating_facets,
        )
    return report


# ---------------------------------------------------------------------------
# unit-time segment clipping
# ---------------------------------------------------------------------------


class SectionEvaluator:
    """Clips lifted unit-time segments g_x(t) = (x + t*alpha_star, t) against
    the integer translates of the polytope that such segments can reach.

    The translate list is pruned with a bounding-box sweep test.
    """

    def __init__(self, p: Polytope, direction: Direction):
        direction.require_normalized()
        self.polytope = p
        self.direction = direction
        alpha = direction.floats()
        self.alpha = alpha
        self.alpha_star = alpha[:-1]
        d = p.d
        if direction.d != d:
            raise ValidationError(f"direction dimension {direction.d} != polytope {d}")

        self.m_reach = max(1, int(math.ceil(np.max(np.abs(alpha[:-1])))) if d > 1 else 1)
        sweep_lo = np.array([min(0.0, a) for a in alpha[:-1]] + [0.0])
        sweep_hi = np.array([1.0 + max(0.0, a) for a in alpha[:-1]] + [1.0])
        blo, bhi = p.bbox()

        translates = []
        rng = range(-self.m_reach, self.m_reach + 1)
        for eps in itertools.product(rng, repeat=d):
            e = np.array(eps, dtype=np.float64)
            if np.any(bhi + e < sweep_lo - 1e-9) or np.any(blo + e > sweep_hi + 1e-9):
                continue
            translates.append(e)
        self.translates = np.array(translates)

        # facet data: constraint on t is A(x) + t*B <= c + <nu, eps>
        self.facet_b = p.normals @ alpha                     # (m,)
        self.normals_star = p.normals[:, :-1]                # (m, d-1)
        self.offsets_by_translate = (
            p.offsets[None, :] + self.translates @ p.normals.T  # (n_eps, m)
        )

    def length(self, x, t0: float = 0.0, t1: float = 1.0) -> float:
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
        return float(self.lengths(pt, t0, t1)[0])

    def lengths(self, xs: np.ndarray, t0=0.0, t1=1.0) -> np.ndarray:
        """Vectorized segment lengths for points xs of shape (n, d-1), each
        segment clipped to times [t0, t1].  t0 and t1 may also be arrays of
        shape (n,), one window per row: they are broadcast through np.full.

        A 1-dimensional array is taken as n scalar points (valid when the
        body is planar); higher-dimensional sections need explicit rows.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim == 1:
            if self.polytope.d != 2:
                raise ValidationError("1-d point array is ambiguous for d > 2 sections")
            xs = xs[:, None]
        # <nu*, x> per facet, summed in axis order: BLAS rounds one row and a
        # batch of rows differently, and a row must not depend on its batch
        cols = xs.T
        proj = [sum((c * v for c, v in zip(cols[1:], nu[1:])), cols[0] * nu[0])
                for nu in self.normals_star]
        n = len(xs)
        total = np.zeros(n)
        for e_idx in range(len(self.translates)):
            lo = np.full(n, t0)
            hi = np.full(n, t1)
            rhs_row = self.offsets_by_translate[e_idx]
            for f in range(len(self.facet_b)):
                b = self.facet_b[f]
                r = rhs_row[f] - proj[f]
                if abs(b) <= _FEAS_TOL:
                    # facet parallel to the flow: feasibility decided by offset sign
                    infeasible = r < 0
                    hi = np.where(infeasible, lo, hi)
                elif b > 0:
                    np.minimum(hi, r / b, out=hi)
                else:
                    np.maximum(lo, r / b, out=lo)
            total += np.clip(hi - lo, 0.0, None)
        return total


# ---------------------------------------------------------------------------
# piecewise-linear section in d = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionFunction2D:
    """Continuous periodic piecewise-linear section function on [0, 1],
    stored as a kink table: its values at the breakpoints, interpolated
    linearly.  Piece j (1-based in reports) covers
    [breakpoints[j-1], breakpoints[j]].
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        gap = abs(self.values[0] - self.values[-1])
        if gap > 1e-8:
            raise ValidationError(f"section values at 0 and 1 differ by {gap:.3e}; "
                                  "the section is not periodic")

    @property
    def n_pieces(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def intercepts(self) -> np.ndarray:
        return self.values[:-1] - self.slopes * self.breakpoints[:-1]

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=np.float64), self.breakpoints, self.values)

    def mean(self) -> float:
        """The trapezoid sum, which is exact for the interpolant."""
        v = self.values
        return float(np.sum(np.diff(self.breakpoints) * (v[1:] + v[:-1])) / 2.0)


def cot_angles(p: Polytope, direction: Direction) -> np.ndarray:
    """Cotangent of the positive rotation angle from the direction to each
    edge line of a planar polytope."""
    if p.d != 2:
        raise ValidationError("cot_angles is defined for planar polytopes")
    alpha = direction.floats()
    cots = np.empty(len(p.vertices))
    verts = p.vertices
    scale = np.linalg.norm(alpha)
    for i in range(len(verts)):
        u = verts[(i + 1) % len(verts)] - verts[i]
        cross = alpha[0] * u[1] - alpha[1] * u[0]
        if abs(cross) <= TRANSVERSALITY_TOL * scale * np.linalg.norm(u):
            raise TransversalityError(f"edge {i} is parallel to the flow", facets=(i,))
        if cross < 0:
            u = -u
            cross = -cross
        cots[i] = float(np.dot(alpha, u) / cross)
    return cots


def build_piecewise_linear_section(p: Polytope, direction: Direction) -> SectionFunction2D:
    """Exact piecewise-linear section of a planar polytope, for any alpha_1.

    The section is a kink table read off the segment clipper.  A clipped
    segment's ends change facets only where the segment passes a vertex, so
    the breakpoints are 0, 1 and the vertex projections
    (v_1 - alpha_1 v_2) mod 1, merged within BREAKPOINT_TOL; the values
    there are SectionEvaluator.lengths.  As an independent check, the
    clipped length at each piece's midpoint must equal the interpolant.
    """
    direction.require_normalized()
    if p.d != 2 or direction.d != 2:
        raise ValidationError("piecewise-linear sections are planar only")
    require_transversal(p, direction)
    ev = SectionEvaluator(p, direction)
    alpha1 = float(direction.values[0])
    proj = np.mod(p.vertices[:, 0] - alpha1 * p.vertices[:, 1], 1.0)
    pts = np.sort(np.concatenate(([0.0, 1.0], proj)))
    bps = [pts[0]]
    for t in pts[1:]:
        if t - bps[-1] > BREAKPOINT_TOL:
            bps.append(t)
    bps[-1] = 1.0

    c = np.array(bps)
    sec = SectionFunction2D(breakpoints=c, values=ev.lengths(c))
    mids = 0.5 * (c[1:] + c[:-1])
    defect = float(np.max(np.abs(ev.lengths(mids) - sec(mids))))
    if defect > 1e-8:
        raise ValidationError(f"section is not linear between breakpoints (defect "
                              f"{defect:.3e}); geometry is degenerate")
    return sec


# ---------------------------------------------------------------------------
# d = 3: projected edge arrangement and cellwise affine data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrangementCell:
    vertices: np.ndarray
    gradient: np.ndarray  # (2,)
    offset: float
    fit_residual: float

    @property
    def area(self) -> float:
        return _shoelace_area(self.vertices)

    def value(self, pt) -> float:
        return float(self.gradient @ np.asarray(pt) + self.offset)


@dataclass(frozen=True)
class Arrangement:
    cells: tuple[ArrangementCell, ...]
    lines: tuple[tuple[float, float, float], ...]  # (n1, n2, offset)

    def mean(self) -> float:
        total = 0.0
        for cell in self.cells:
            area, ix, iy = polygon_moments(cell.vertices)
            total += cell.gradient[0] * ix + cell.gradient[1] * iy + cell.offset * area
        return total

    def total_area(self) -> float:
        return sum(cell.area for cell in self.cells)


def _true_edges(p: Polytope, tol: float = 1e-9):
    """Vertex pairs spanning the 1-dimensional faces of a 3-polytope."""
    edges = []
    m = p.n_facets
    for i in range(m):
        on_i = np.abs(p.vertices @ p.normals[i] - p.offsets[i]) <= tol
        for j in range(i + 1, m):
            on_j = np.abs(p.vertices @ p.normals[j] - p.offsets[j]) <= tol
            shared = np.nonzero(on_i & on_j)[0]
            if len(shared) < 2:
                continue
            pts = p.vertices[shared]
            u = pts - pts[0]
            direction = pts[np.argmax(np.linalg.norm(u, axis=1))] - pts[0]
            t = u @ direction
            lo, hi = shared[np.argmin(t)], shared[np.argmax(t)]
            edges.append((int(lo), int(hi)))
    # dedup (an edge can be reported by exactly one plane pair for simple
    # polytopes, but keep this safe for merged/coplanar configurations)
    return sorted(set(tuple(sorted(e)) for e in edges))


def _split_polygon(verts: np.ndarray, n: np.ndarray, off: float, tol: float = 1e-12):
    """Split a convex CCW polygon by the line n.x = off into (plus, minus)."""
    s = verts @ n - off
    if np.all(s >= -tol):
        return verts, None
    if np.all(s <= tol):
        return None, verts
    plus, minus = [], []
    k = len(verts)
    for i in range(k):
        vi, si = verts[i], s[i]
        vj, sj = verts[(i + 1) % k], s[(i + 1) % k]
        on_i = abs(si) <= tol
        if si >= -tol:
            plus.append(vi)
        if si <= tol:
            minus.append(vi)
        if not on_i and abs(sj) > tol and (si > 0) != (sj > 0):
            t = si / (si - sj)
            cut = vi + t * (vj - vi)
            plus.append(cut)
            minus.append(cut)
    out = []
    for poly in (plus, minus):
        if len(poly) >= 3 and abs(_shoelace_area(np.array(poly))) > 1e-13:
            out.append(np.array(poly))
        else:
            out.append(None)
    return out[0], out[1]


def _cell_sample_points(verts: np.ndarray) -> np.ndarray:
    centroid = verts.mean(axis=0)
    pts = [centroid]
    for v in verts:
        pts.append(centroid + 0.5 * (v - centroid))
    for i in range(len(verts)):
        mid = 0.5 * (verts[i] + verts[(i + 1) % len(verts)])
        pts.append(centroid + 0.5 * (mid - centroid))
    return np.array(pts)


def arrangement_cells(p: Polytope, direction: Direction) -> Arrangement:
    """Subdivide [0, 1]^2 by the projected edges of the reachable translates
    of a 3-polytope and fit the (affine) section on every cell.

    The fit is over-determined on purpose: its residual certifies that the
    cell really is a linearity region of the section.
    """
    direction.require_normalized()
    if p.d != 3:
        raise ValidationError("arrangement_cells expects a 3-dimensional body")
    require_transversal(p, direction)
    ev = SectionEvaluator(p, direction)
    alpha = direction.floats()

    edges = _true_edges(p)
    lines: dict[tuple[int, int, int], tuple[float, float, float]] = {}
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for eps in ev.translates:
        shift = np.array([eps[0] - alpha[0] * eps[2], eps[1] - alpha[1] * eps[2]])
        for i, j in edges:
            a3 = p.vertices[i]
            b3 = p.vertices[j]
            pa = np.array([a3[0] - alpha[0] * a3[2], a3[1] - alpha[1] * a3[2]]) + shift
            w = np.array([
                (b3[0] - a3[0]) - alpha[0] * (b3[2] - a3[2]),
                (b3[1] - a3[1]) - alpha[1] * (b3[2] - a3[2]),
            ])
            wn = np.linalg.norm(w)
            if wn < 1e-12:
                # an edge parallel to the flow would contradict transversality
                raise TransversalityError("projected edge degenerates to a point")
            n = np.array([-w[1], w[0]]) / wn
            if n[0] < -1e-12 or (abs(n[0]) <= 1e-12 and n[1] < 0):
                n = -n
            off = float(n @ pa)
            svals = square @ n - off
            if svals.min() > 1e-12 or svals.max() < -1e-12:
                continue  # line misses the unit square (tangential lines kept)
            key = (round(n[0] * 1e9), round(n[1] * 1e9), round(off * 1e9))
            lines.setdefault(key, (float(n[0]), float(n[1]), off))

    cells = [square]
    for n1, n2, off in lines.values():
        n = np.array([n1, n2])
        new_cells = []
        for cell in cells:
            plus, minus = _split_polygon(cell, n, off)
            if plus is not None:
                new_cells.append(plus)
            if minus is not None:
                new_cells.append(minus)
        cells = new_cells

    samples = [_cell_sample_points(verts) for verts in cells]
    values = np.split(ev.lengths(np.concatenate(samples)),
                      np.cumsum([len(pts) for pts in samples])[:-1])
    fitted = []
    for verts, pts, f in zip(cells, samples, values):
        design = np.c_[pts, np.ones(len(pts))]
        coef, *_ = np.linalg.lstsq(design, f, rcond=None)
        residual = float(np.max(np.abs(design @ coef - f)))
        fitted.append(ArrangementCell(
            vertices=verts,
            gradient=coef[:2].copy(),
            offset=float(coef[2]),
            fit_residual=residual,
        ))

    return Arrangement(
        cells=tuple(fitted),
        lines=tuple(sorted(lines.values())),
    )


def shared_edge_checks(arr: Arrangement, tol: float = 1e-9):
    """Midpoints of edges shared by two cells with both affine values there.

    Yields (midpoint, value_left, value_right) for continuity testing.
    """
    seen: dict[tuple[int, int, int, int], tuple[int, np.ndarray]] = {}
    out = []
    for idx, cell in enumerate(arr.cells):
        verts = cell.vertices
        k = len(verts)
        for i in range(k):
            a, b = verts[i], verts[(i + 1) % k]
            key_pts = sorted([(round(a[0] * 1e7), round(a[1] * 1e7)),
                              (round(b[0] * 1e7), round(b[1] * 1e7))])
            key = (key_pts[0][0], key_pts[0][1], key_pts[1][0], key_pts[1][1])
            mid = 0.5 * (a + b)
            if key in seen:
                other_idx, other_mid = seen[key]
                if np.linalg.norm(mid - other_mid) <= tol:
                    out.append((
                        mid,
                        arr.cells[other_idx].value(mid),
                        cell.value(mid),
                    ))
            else:
                seen[key] = (idx, mid)
    return out
