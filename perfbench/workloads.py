"""The four seeded request streams, the library calls they make, and oracles.

Request `i` of a workload is generated from `(seed, i)` alone, so a request
stream is reproducible without running it.  Request sizes (horizons, orbit
lengths, block depths, lattice shells) follow a seeded golden-ratio Kronecker
sequence rather than independent draws: every seed then sees nearly the same
mix of small and large requests, which keeps the latency percentiles steady
from seed to seed while geometry, directions and start points stay random.

Directions come from a small pool of quadratic-surd literals, so literals
repeat across requests; polytopes are drawn fresh for every request (the
`flow` quadrature requests deliberately reuse the criterion-10 tangent
parallelogram).

Each oracle avoids the code path it checks: independent float64, 256-bit
integer or mpmath recomputation, the quadrature engine against the exact
engine, the direct segment clipper against the arrangement's Fourier
coefficients, and the integer `(P + sqrt(D))/Q` recurrence against the
interval continued fraction.  Oracles return a list of problems; an empty
list accepts.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
from pathlib import Path

import mpmath
import numpy as np

PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Direction pool: literal text and (P, D, Q) with value (P + sqrt(D)) / Q.
SURDS = (
    ("sqrt(2) - 1", -1, 2, 1),
    ("(sqrt(5) - 1)/2", -1, 5, 2),
    ("sqrt(3) - 1", -1, 3, 1),
    ("sqrt(7) - 2", -2, 7, 1),
    ("(sqrt(13) - 3)/2", -3, 13, 2),
    ("sqrt(11) - 3", -3, 11, 1),
)

#: Criterion-10 parallelogram: two sides parallel to the flow (sqrt(2), 1).
TANGENT_PARALLELOGRAM = [[0.05, 0.05], [0.35, 0.05],
                         [0.7990731195102494, 0.3675426480542942],
                         [0.4990731195102494, 0.3675426480542942]]


# ---------------------------------------------------------------------------
# seeded input helpers
# ---------------------------------------------------------------------------


def _stratum(seed: int, stream: int, j: int) -> float:
    """j-th point of a seeded Kronecker sequence in [0, 1)."""
    offset = np.random.default_rng([seed, 7919, stream]).random()
    return (offset + j * PHI) % 1.0


def _surd_float(k: int) -> float:
    _, p, d, q = SURDS[k]
    return (p + math.sqrt(d)) / q


def _distinct_pair(rng) -> tuple[int, int]:
    a, b = rng.choice(len(SURDS), size=2, replace=False)
    return int(a), int(b)


def _rational(rng) -> str:
    return f"{int(rng.integers(0, 97))}/97"


def _literal_float(text: str) -> float:
    num, den = text.split("/")
    return int(num) / int(den)


def _polygon(rng) -> list[list[float]]:
    """Convex polygon with 3..8 vertices on a random ellipse inside the cube."""
    n = int(rng.integers(3, 9))
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.r_[ang, ang[0] + 2.0 * np.pi])
        if gaps.min() > 0.25 and gaps.max() < np.pi - 0.1:
            break
    centre = rng.uniform(0.35, 0.65, 2)
    radii = rng.uniform(0.12, 0.3, 2)
    return np.c_[centre[0] + radii[0] * np.cos(ang),
                 centre[1] + radii[1] * np.sin(ang)].tolist()


def _box3(rng):
    lo = rng.uniform(0.02, 0.35, 3)
    hi = np.minimum(lo + rng.uniform(0.25, 0.6, 3), 0.98)
    return lo.tolist(), hi.tolist()


def _tetrahedron(rng) -> tuple[list, float]:
    while True:
        pts = rng.uniform(0.05, 0.95, (4, 3))
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        if vol >= 0.01:
            return pts.tolist(), float(vol)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


class Workload:
    """A seeded request stream: `make` builds request i, `run` makes its
    library calls, `check` is its oracle, `key_outputs` feeds reference.json."""

    name = ""

    def cleanup(self, req: dict, tmp: Path) -> None:
        """Remove whatever the request left under tmp."""

    def violations(self, out: dict) -> int:
        return 0


# ---------------------------------------------------------------------------
# flow: trace / compute / discrete commands plus quadrature traces
# ---------------------------------------------------------------------------


class Flow(Workload):
    name = "flow"

    def make(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        kind = "trace compute discrete quadrature".split()[i % 4]
        j = i // 4
        u = _stratum(seed, i % 4, j)
        req = {"index": i, "kind": kind, "start": [_rational(rng), _rational(rng)]}
        if kind == "trace":
            req.update(alpha=int(rng.integers(len(SURDS))), vertices=_polygon(rng),
                       t_max=float(round(10 ** (3.0 + 2.0 * u))))
        elif kind == "compute":
            shape = ("polygon", "box", "polygon", "cube")[j % 4]
            d = 3 if shape == "box" or (shape == "cube" and (j // 4) % 2) else 2
            a, b = _distinct_pair(rng)
            if shape == "polygon":
                poly = {"vertices": _polygon(rng)}
            elif shape == "box":
                poly = {"box": list(_box3(rng))}
            else:
                poly = {"unit_cube": d}
            req.update(shape=shape, direction=[a, b][:d - 1], polytope=poly,
                       start=[_rational(rng) for _ in range(d)],
                       t=float(round(10 ** ((5.0 if d == 2 else 4.6) + u))))
        elif kind == "discrete":
            dim = 1 + j % 2
            lo = rng.uniform(0.0, 0.5, dim)
            hi = lo + rng.uniform(0.2, 0.5, dim)
            a, b = _distinct_pair(rng)
            req.update(alpha=[a, b][:dim], start=[_rational(rng) for _ in range(dim)],
                       lo=lo.tolist(), hi=hi.tolist(),
                       n_max=int(10 ** (5.0 + (1.0 if dim == 1 else 0.7) * u)))
        else:
            req.update(t_max=10 ** (2.6 + 0.6 * u))
        return req

    def run(self, lib, req: dict, tmp: Path) -> dict:
        kind = req["kind"]
        if kind == "trace":
            cfg = lib.cli.ExperimentConfig(
                name=f"flow-{req['index']}", direction=[SURDS[req["alpha"]][0], "1"],
                start=req["start"], polytope={"vertices": req["vertices"]},
                schedule={"t_max": req["t_max"], "n_samples": 1000, "kind": "integer"},
                series_n_max=10_000, out=str(tmp / f"req{req['index']}"))
            summary = lib.cli.run_experiment(cfg)
            inst = cfg.build_instance()
            coeffs = lib.fourier.coefficients_csv(inst.section, inst.polytope,
                                                  inst.direction, cfg.fourier_n_max)
            return {"summary": summary, "coefficients": coeffs}
        if kind == "compute":
            cfg = self._compute_config(lib, req)
            inst = cfg.build_instance()
            return {"delta": lib.engine.delta_T_exact(inst, req["t"])}
        if kind == "discrete":
            parse = lib.algebraic.AlgebraicValue.parse
            box = lib.geometry.Box.make(req["lo"], req["hi"])
            maxima = lib.engine.discrete_decade_maxima(
                [parse(SURDS[k][0]) for k in req["alpha"]],
                [parse(s) for s in req["start"]], box, req["n_max"])
            return {"maxima": maxima}
        inst = self._tangent_instance(lib, req)
        trace = lib.engine.quadrature_delta_profile(inst, req["t_max"], 1e-3,
                                                    sample_every=250)
        return {"trace": trace}

    @staticmethod
    def _compute_config(lib, req):
        return lib.cli.ExperimentConfig(
            name=f"compute-{req['index']}",
            direction=[SURDS[k][0] for k in req["direction"]] + ["1"],
            start=req["start"], polytope=req["polytope"])

    @staticmethod
    def _tangent_instance(lib, req):
        return lib.engine.FlowInstance.build(
            ["sqrt(2)", "1"], req["start"],
            lib.geometry.Polytope.from_vertices(TANGENT_PARALLELOGRAM))

    def key_outputs(self, req: dict, out: dict) -> list[float]:
        kind = req["kind"]
        if kind == "trace":
            rows = _csv_rows(out["coefficients"])[:4]
            return ([out["summary"]["sup_abs_delta"], out["summary"]["bound_value"]]
                    + [float(r[k]) for r in rows for k in (1, 2)])
        if kind == "compute":
            return [out["delta"]]
        if kind == "discrete":
            return [m for _, m in out["maxima"]]
        return [out["trace"].sup(), float(out["trace"].deltas[-1])]

    def check(self, lib, req: dict, out: dict) -> list[str]:
        return getattr(self, f"_check_{req['kind']}")(lib, req, out)

    def _check_trace(self, lib, req, out):
        problems = []
        summary = out["summary"]
        if not summary["sup_abs_delta"] <= summary["bound_value"]:
            problems.append(f"trace sup {summary['sup_abs_delta']} exceeds certificate "
                            f"bound {summary['bound_value']}")
        rows = _csv_rows(out["coefficients"])
        for n, _, _, mag, bound in rows:
            if float(mag) > float(bound) * (1 + 1e-12):
                problems.append(f"|f_hat({n})| = {mag} above its closed-form bound {bound}")
                break
        # f_hat(1) against a midpoint rule over the direct segment clipper.  The
        # section f is continuous and piecewise linear with at most 2n + 2
        # kinks, so for g = f e(-x) the rule errs by at most J h^2 / 8 per kink
        # (slope jump J <= 2S) plus h^2 max|g''| / 24 on the linear pieces;
        # S and max f are read off the samples, with a safety factor 2.
        ev = lib.geometry.SectionEvaluator(
            lib.geometry.Polytope.from_vertices(req["vertices"]),
            lib.geometry.Direction.make([SURDS[req["alpha"]][0], "1"]))
        m = 16384
        h = 1.0 / m
        xs = (np.arange(m) + 0.5) * h
        f = ev.lengths(xs)
        ref = np.mean(f * np.exp(-2j * np.pi * xs))
        slope = np.abs(np.diff(f)).max() / h
        kinks = 2 * len(req["vertices"]) + 2
        tol = 2 * h * h * (kinks * slope / 4
                           + (4 * np.pi * slope + 4 * np.pi ** 2 * f.max()) / 24)
        c1 = complex(float(rows[0][1]), float(rows[0][2]))
        if abs(c1 - ref) > tol:
            problems.append(f"f_hat(1) = {c1} but midpoint quadrature gives {ref} "
                            f"(tolerance {tol:.3g})")
        return problems

    def _check_compute(self, lib, req, out):
        problems = []
        if req["shape"] == "cube" and abs(out["delta"]) > 1e-9:
            problems.append(f"unit cube |Delta_T| = {abs(out['delta'])} > 1e-9")
        inst = self._compute_config(lib, req).build_instance()
        exact = lib.engine.delta_T_exact(inst, 20.0)
        quad = lib.engine.delta_T_quadrature(inst, 20.0, step=1e-4)
        if abs(exact - quad.value) > quad.error_bound:
            problems.append(f"Delta_20 exact {exact} vs quadrature {quad.value} "
                            f"beyond its error bound {quad.error_bound}")
        return problems

    def _check_discrete(self, lib, req, out):
        # float64 orbit: k * alpha carries < 2e-10 absolute error for k <= 1e6,
        # so only points within 1e-9 of a box edge (mod 1) may be classified
        # differently from the exact fixed-point orbit.
        n = req["n_max"]
        k = np.arange(n, dtype=np.float64)
        lo, hi = np.array(req["lo"]), np.array(req["hi"])
        inside = np.ones(n, dtype=bool)
        near = np.zeros(n, dtype=bool)
        for axis, (a, s) in enumerate(zip(req["alpha"], req["start"])):
            x = _literal_float(s) + k * _surd_float(a)
            x -= np.floor(x)
            inside &= (x >= lo[axis]) & (x < hi[axis])
            for edge in (lo[axis], hi[axis]):
                dist = np.abs(x - edge % 1.0)
                near |= np.minimum(dist, 1.0 - dist) < 1e-9
        d_n = np.cumsum(inside) - float(np.prod(hi - lo)) * np.arange(1, n + 1)
        slack = np.cumsum(near)
        problems = []
        lo_n = 1
        for upper, value in out["maxima"]:
            ref = float(np.abs(d_n[lo_n - 1:upper]).max())
            if abs(value - ref) > slack[upper - 1] + 1e-9:
                problems.append(f"decade <= {upper}: max |D_N| {value} vs float64 {ref}")
            lo_n = upper + 1
        expected = [min(10 ** e, n) for e in range(1, math.ceil(math.log10(n)) + 1)]
        if [u for u, _ in out["maxima"]] != expected:
            problems.append(f"decade boundaries {[u for u, _ in out['maxima']]}")
        return problems

    def _check_quadrature(self, lib, req, out):
        trace = out["trace"]
        t_last = float(trace.times[-1])
        quad = lib.engine.delta_T_quadrature(self._tangent_instance(lib, req), t_last,
                                             step=1e-3)
        tol = trace.meta["err_bound"] + quad.error_bound
        if abs(float(trace.deltas[-1]) - quad.value) > tol:
            return [f"profile end {trace.deltas[-1]} vs delta_T_quadrature {quad.value}"]
        return []

    def cleanup(self, req: dict, tmp: Path) -> None:
        shutil.rmtree(tmp / f"req{req['index']}", ignore_errors=True)


# ---------------------------------------------------------------------------
# boxsup: grid-box sweep (criterion 04, scaled down)
# ---------------------------------------------------------------------------


class BoxSup(Workload):
    name = "boxsup"
    grid = 16

    def make(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        probes = []
        for _ in range(3):
            a1, b1 = np.sort(rng.choice(self.grid + 1, size=2, replace=False))
            a2, b2 = np.sort(rng.choice(self.grid + 1, size=2, replace=False))
            probes.append(([a1 / self.grid, a2 / self.grid], [b1 / self.grid, b2 / self.grid]))
        return {"index": i, "alpha": int(rng.integers(len(SURDS))),
                "t": 100 + int(100 * _stratum(seed, 0, i)), "probes": probes}

    def run(self, lib, req: dict, tmp: Path) -> dict:
        direction = [SURDS[req["alpha"]][0], "1"]
        profile = lib.engine.box_discrepancy_profile(direction, np.arange(1, req["t"] + 1),
                                                     self.grid)
        best = lib.engine.box_discrepancy_sup(direction, ["0", "0"], req["t"], self.grid)
        return {"profile": profile, "best": best}

    def key_outputs(self, req: dict, out: dict) -> list[float]:
        best = out["best"]
        return [best.sup, float(out["profile"].max()), float(out["profile"][-1]),
                *best.box_lo, *best.box_hi]

    def _abs_delta(self, lib, req, lo, hi) -> float:
        inst = lib.engine.FlowInstance.build([SURDS[req["alpha"]][0], "1"], ["0", "0"],
                                             lib.geometry.Polytope.box(lo, hi))
        return abs(lib.engine.delta_T_exact(inst, float(req["t"])))

    def check(self, lib, req: dict, out: dict) -> list[str]:
        problems = []
        best, last = out["best"], float(out["profile"][-1])
        if abs(best.sup - last) > 1e-12 * max(1.0, last):
            problems.append(f"sup {best.sup} differs from the profile's last value {last}")
        exact = self._abs_delta(lib, req, best.box_lo, best.box_hi)
        if abs(exact - best.sup) > 1e-9 * max(1.0, best.sup):
            problems.append(f"argmax box gives |Delta_T| = {exact}, sweep sup {best.sup}")
        for lo, hi in req["probes"]:
            value = self._abs_delta(lib, req, lo, hi)
            if value > best.sup + 1e-9:
                problems.append(f"grid box {lo}..{hi} has |Delta_T| = {value} > sup {best.sup}")
        return problems


# ---------------------------------------------------------------------------
# lattice3d: arrangement, flag forms and 3d coefficients (criterion 08 calls)
# ---------------------------------------------------------------------------


def _moments(v: np.ndarray) -> tuple[float, float, float]:
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    return 0.5 * w.sum(), ((x + xn) * w).sum() / 6.0, ((y + yn) * w).sum() / 6.0


class Lattice3D(Workload):
    name = "lattice3d"

    def make(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        a, b = _distinct_pair(rng)
        req = {"index": i, "direction": [a, b],
               "n_max": 1 + int(3 * _stratum(seed, i % 2, i // 2))}
        if i % 2 == 0:
            lo, hi = _box3(rng)
            req.update(shape="box", lo=lo, hi=hi, volume=float(np.prod(np.subtract(hi, lo))))
        else:
            pts, vol = _tetrahedron(rng)
            req.update(shape="tetrahedron", vertices=pts, volume=vol)
        probe = [0, 0]
        while probe == [0, 0]:
            probe = rng.integers(-1, 2, size=2).tolist()
        req["probe"] = probe
        return req

    def _body(self, lib, req):
        direction = lib.geometry.Direction.make(
            [SURDS[k][0] for k in req["direction"]] + ["1"])
        if req["shape"] == "box":
            return direction, lib.geometry.Polytope.box(req["lo"], req["hi"])
        return direction, lib.geometry.Polytope.from_vertices(req["vertices"])

    def run(self, lib, req: dict, tmp: Path) -> dict:
        direction, body = self._body(lib, req)
        arr = lib.geometry.arrangement_cells(body, direction)
        forms = lib.fourier.flag_forms_of_arrangement(arr)
        text = lib.fourier.coefficients_csv_3d(arr, forms, req["n_max"])
        fit = lib.fourier.envelope_fit(arr, forms, inner=(0, 1), outer=(1, 2))
        return {"arrangement": arr, "csv": text, "fit": fit}

    def key_outputs(self, req: dict, out: dict) -> list[float]:
        values = [float(r[k]) for r in _csv_rows(out["csv"]) for k in (2, 3)]
        return [len(out["arrangement"].cells), *values, out["fit"].c_inner, out["fit"].c_outer]

    def check(self, lib, req: dict, out: dict) -> list[str]:
        problems = []
        cells = out["arrangement"].cells
        area = mean = 0.0
        for cell in cells:
            a, ix, iy = _moments(np.asarray(cell.vertices))
            area += a
            mean += cell.gradient[0] * ix + cell.gradient[1] * iy + cell.offset * a
        if abs(area - 1.0) > 1e-9:
            problems.append(f"arrangement area {area} != 1")
        if abs(mean - req["volume"]) > 1e-9:
            problems.append(f"f_hat(0) = {mean} != volume {req['volume']}")

        # continuity across every edge that two cells share
        edges: dict[tuple, int] = {}
        shared, worst = 0, 0.0
        for idx, cell in enumerate(cells):
            v = np.asarray(cell.vertices)
            for e in range(len(v)):
                p, q = v[e], v[(e + 1) % len(v)]
                key = tuple(sorted((tuple(np.round(p, 7)), tuple(np.round(q, 7)))))
                other = edges.setdefault(key, idx)
                if other == idx:
                    continue
                shared += 1
                for pt in (p, q, 0.5 * (p + q)):
                    worst = max(worst, abs(cells[other].value(pt) - cell.value(pt)))
        if len(cells) > 1 and shared == 0:
            problems.append("no shared edges found between cells")
        if worst > 1e-9:
            problems.append(f"section jumps by {worst} across a shared edge")

        coeffs = {(int(r[0]), int(r[1])): complex(float(r[2]), float(r[3]))
                  for r in _csv_rows(out["csv"])}
        for (n1, n2), c in coeffs.items():
            if abs(coeffs[(-n1, -n2)] - c.conjugate()) > 1e-12:
                problems.append(f"f_hat(-n) != conj f_hat(n) at n = ({n1}, {n2})")
                break

        # One coefficient against a midpoint rule over the direct segment
        # clipper.  The section is continuous and affine between the L kink
        # lines; a line with gradient jump J <= 2G crosses at most 2/h + 2 grid
        # cells and costs at most J h^3 / sqrt(2) in each, and the affine parts
        # cost h^2 max|g''| / 12 for g = f e(-<n, x>).  G and max f are read
        # off the samples, with a safety factor 2.
        direction, body = self._body(lib, req)
        ev = lib.geometry.SectionEvaluator(body, direction)
        m = 256
        h = 1.0 / m
        g = (np.arange(m) + 0.5) * h
        xs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        f = ev.lengths(xs)
        n = np.array(req["probe"], dtype=np.float64)
        ref = np.mean(f * np.exp(-2j * np.pi * (xs @ n)))
        grid = f.reshape(m, m)
        grad = math.hypot(np.abs(np.diff(grid, axis=0)).max(),
                          np.abs(np.diff(grid, axis=1)).max()) / h
        nn = float(np.linalg.norm(n))
        lines = len(out["arrangement"].lines)
        tol = 2 * h * h * (lines * 2 * grad * math.sqrt(2) * (1 + h)
                           + (4 * np.pi * nn * grad + 4 * np.pi ** 2 * nn * nn * f.max()) / 12)
        c = coeffs[tuple(req["probe"])]
        if abs(c - ref) > tol:
            problems.append(f"f_hat{tuple(req['probe'])} = {c} but quadrature gives {ref} "
                            f"(tolerance {tol:.3g})")
        return problems


# ---------------------------------------------------------------------------
# audit: the dioph and audit commands (criterion 09, scaled down)
# ---------------------------------------------------------------------------


def _fixed_surd(k: int, bits: int) -> int:
    """floor(SURDS[k] * 2**bits), from integer square roots alone."""
    _, p, d, q = SURDS[k]
    return ((p << bits) + math.isqrt(d << (2 * bits))) // q


def _periodic_quotients(p: int, d: int, q: int, count: int) -> list[int]:
    """Partial quotients of (p + sqrt(d)) / q by the exact integer recurrence."""
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    root = math.isqrt(d)
    out = []
    for _ in range(count):
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return out


class Audit(Workload):
    name = "audit"
    series_n_max = 10_000

    def __init__(self):
        self._series_reference: dict[int, mpmath.mpf] = {}

    def make(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        a, b = _distinct_pair(rng)
        return {"index": i, "alpha": a, "beta": b,
                "levels": 10 + int(3 * _stratum(seed, 0, i))}

    def run(self, lib, req: dict, tmp: Path) -> dict:
        dio = lib.diophantine
        alpha = lib.algebraic.parse_literal(SURDS[req["alpha"]][0])
        beta = lib.algebraic.parse_literal(SURDS[req["beta"]][0])
        cf = dio.continued_fraction(alpha, 40)
        series = dio.diophantine_series(alpha, self.series_n_max)
        scan = dio.approximation_exponent_scan(alpha, self.series_n_max, eta=1.5)
        audits = []
        for values, form, n_scan, ells in (
                ([alpha], np.array([1.0]), 2000, range(2, req["levels"] + 1)),
                ([alpha, beta], np.array([1.0, 0.0]), 16, range(2, 5))):
            fit = dio.schmidt_inequality_scan(values, [form], 0.5, n_scan)
            for ell in ells:
                block = dio.materialize_dyadic_block([form], 0.5, fit.fitted_c, ell, [ell],
                                                     dim=len(values))
                audits.append((fit.fitted_c, dio.dyadic_spacing_audit(values, block)))
        return {"cf": cf, "series": series, "scan": scan, "audits": audits}

    def key_outputs(self, req: dict, out: dict) -> list[float]:
        values = [*out["cf"].partial_quotients, out["series"].partial_sum,
                  out["series"].tail_bound, out["scan"].worst_exponent]
        for c, result in out["audits"]:
            values += [c, result.min_abs, result.min_gap, len(result.block.members)]
        return values

    def violations(self, out: dict) -> int:
        return sum(len(result.violations) for _, result in out["audits"])

    def _reference_sum(self, k: int) -> mpmath.mpf:
        if k not in self._series_reference:
            with mpmath.workprec(256):
                _, p, d, q = SURDS[k]
                alpha = (p + mpmath.sqrt(d)) / q
                total = mpmath.mpf(0)
                for n in range(1, self.series_n_max + 1):
                    x = n * alpha
                    total += 1 / (n * n * abs(x - mpmath.nint(x)))
                self._series_reference[k] = total
        return self._series_reference[k]

    def check(self, lib, req: dict, out: dict) -> list[str]:
        problems = []
        _, p, d, q = SURDS[req["alpha"]]
        expected = _periodic_quotients(p, d, q, 41)
        if list(out["cf"].partial_quotients) != expected:
            problems.append(f"partial quotients {out['cf'].partial_quotients[:8]}... "
                            f"!= periodic expansion {expected[:8]}...")
        partial = out["series"].partial_sum
        ref = float(self._reference_sum(req["alpha"]))
        if _rel(partial, ref) > 1e-12:
            problems.append(f"series head {partial} vs 256-bit direct sum {ref}")
        for _, result in out["audits"]:
            problems += self._check_block(req, result)
        return problems

    def _check_block(self, req, result) -> list[str]:
        """min |g| and the minimum gap over every block member, recomputed in
        256-bit integer fixed point from an independent rounding of alpha."""
        members = result.block.members
        if not members:
            return []
        bits = 256
        steps = [_fixed_surd(k, bits) for k in (req["alpha"], req["beta"])[:len(members[0])]]
        full, half = 1 << bits, 1 << (bits - 1)
        rho = []
        for n in members:
            r = sum(c * s for c, s in zip(n, steps)) % full
            rho.append(r if r <= half else r - full)
        problems = []
        min_abs = min(abs(r) for r in rho) / full
        if _rel(result.min_abs, min_abs) > 1e-9:
            problems.append(f"min |g| {result.min_abs} vs 256-bit {min_abs}")
        if len(rho) >= 2:
            rho.sort()
            min_gap = min(b - a for a, b in zip(rho, rho[1:])) / full
            if _rel(result.min_gap, min_gap) > 1e-9:
                problems.append(f"min gap {result.min_gap} vs 256-bit {min_gap}")
        return problems


WORKLOADS = {w.name: w for w in (Flow, BoxSup, Lattice3D, Audit)}
