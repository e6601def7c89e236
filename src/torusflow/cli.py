"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Every run is reproducible from its config alone — directions and start
points are algebraic literals, randomness enters only through an explicit
seed, and the manifest records a canonical hash of the config next to the
library versions that produced the outputs.

Exit codes: 0 success, 2 invalid input (including transversality and
degenerate geometry), 3 precision exhaustion (including an uncertifiable
series tail).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .algebraic import AlgebraicValue, default_precision_bits
from .diophantine import (
    approximation_exponent_scan,
    continued_fraction,
    diophantine_series,
    dyadic_spacing_audit,
    materialize_dyadic_block,
    schmidt_inequality_scan,
)
from .engine import (
    FlowInstance,
    _check_step,
    box_discrepancy_sup,
    delta_T_exact,
    delta_T_quadrature,
    discrepancy_trace,
    discrete_decade_maxima,
    discrete_discrepancy,
    quadrature_delta_profile,
)
from .errors import PrecisionError, TorusflowError, ValidationError
from .fourier import (
    coefficients_csv,
    coefficients_csv_3d,
    flag_forms_of_arrangement,
    fourier_coeffs_2d,
    polygon_discrepancy_bound,
)
from .geometry import (
    Box,
    Direction,
    Polytope,
    arrangement_cells,
    random_polygon,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


#: Numeric config fields, and whether each must be an integer.
_NUMERIC_FIELDS = {"quadrature_step": False, "series_n_max": True, "fourier_n_max": True,
                   "grid": True, "precision_bits": True, "schedule.t_max": False,
                   "schedule.n_samples": True, "audit.gamma": False,
                   "audit.scan_n_max": True, "discrete.n_max": True}


def _check_number(name: str, value, integral: bool):
    """A finite int or float, or an int where ``integral``; bool is neither."""
    if (isinstance(value, bool) or not isinstance(value, int if integral else (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        kind = "an integer" if integral else "a finite number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    name: str = "experiment"
    direction: list[str] = field(default_factory=lambda: ["sqrt(2) - 1", "1"])
    start: list[str] = field(default_factory=lambda: ["0", "0"])
    polytope: dict = field(default_factory=lambda: {"unit_cube": 2})
    engine: str = "exact"
    schedule: dict = field(default_factory=lambda: {
        "t_max": 100.0, "n_samples": 1000, "kind": "linear"})
    precision_bits: int | None = None
    quadrature_step: float = 1e-3
    series_n_max: int = 10000
    fourier_n_max: int = 256
    grid: int = 8
    seed: int | None = None
    discrete: dict | None = None
    audit: dict | None = None
    out: str | None = None

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        for section in ("schedule", "discrete", "audit"):
            value = getattr(cfg, section)
            if not isinstance(value, dict) and (value is not None or section == "schedule"):
                raise ValidationError(f"{section} must be a JSON object")
        for name, integral in _NUMERIC_FIELDS.items():
            section, _, key = name.rpartition(".")
            values = (getattr(cfg, section) or {}) if section else raw
            if key in values and (values[key] is not None or name != "precision_bits"):
                _check_number(name, values[key], integral)
        return cfg

    def serialize(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def sha256(self) -> str:
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- builders --------------------------------------------------------

    def build_direction(self) -> Direction:
        return Direction.make(self.direction)

    def build_polytope(self) -> Polytope:
        spec = self.polytope
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ValidationError(
                "polytope spec must be one of: vertices, halfspaces, box, "
                "unit_cube, random")
        kind, val = next(iter(spec.items()))
        try:
            if kind == "vertices":
                return Polytope.from_vertices(np.asarray(val, dtype=np.float64))
            if kind == "halfspaces":
                return Polytope.from_halfspaces(
                    np.asarray(val["normals"], dtype=np.float64),
                    np.asarray(val["offsets"], dtype=np.float64))
            if kind == "box":
                # accepted shapes: {"lo": [...], "hi": [...]} or [lo, hi]
                lo, hi = ((val["lo"], val["hi"]) if isinstance(val, dict)
                          else (val[0], val[1]))
                return Polytope.box(lo, hi)
            if kind == "unit_cube":
                return Polytope.unit_cube(int(val))
            if kind == "random":
                rng = np.random.default_rng(self.seed)
                return random_polygon(rng, int(val.get("n_vertices", 5)))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed {kind!r} polytope spec: {exc}") from exc
        raise ValidationError(f"unknown polytope kind {kind!r}")

    def build_instance(self) -> FlowInstance:
        return FlowInstance.build(self.build_direction(), self.start_values(),
                                  self.build_polytope())

    def start_values(self):
        return tuple(AlgebraicValue.parse(s) if isinstance(s, str)
                     else AlgebraicValue.coerce(s) for s in self.start)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    if path:
        cfg = ExperimentConfig.parse(Path(path).read_text())
    else:
        cfg = ExperimentConfig()
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if cfg.precision_bits is None:
        cfg.precision_bits = default_precision_bits()
    if not isinstance(cfg.precision_bits, int) or cfg.precision_bits < 64:
        raise ValidationError(f"precision_bits must be an integer >= 64, "
                              f"got {cfg.precision_bits!r}")
    return cfg


def _manifest(cfg: ExperimentConfig) -> dict:
    return {
        "config_sha256": cfg.sha256(),
        "name": cfg.name,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "precision_bits": cfg.precision_bits,
    }


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _write_manifest(out_dir: Path, cfg: ExperimentConfig) -> Path:
    return _write(out_dir, "manifest.json",
                  json.dumps(_manifest(cfg), indent=2, sort_keys=True))


def _discrete_setup(cfg: ExperimentConfig, n_max_default: int):
    """(alpha, start, box, n_max) of the config's discrete section; alpha
    defaults to the first direction coordinate, start to the origin."""
    dcfg = cfg.discrete or {}
    try:
        alpha = [AlgebraicValue.parse(a) for a in dcfg.get("alpha", [cfg.direction[0]])]
        start = [AlgebraicValue.parse(s) for s in dcfg.get("start", ["0"] * len(alpha))]
        box = Box.make(dcfg.get("box_lo", [0.0] * len(alpha)),
                       dcfg.get("box_hi", [0.5] * len(alpha)))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed 'discrete' config: {exc}") from exc
    return alpha, start, box, int(dcfg.get("n_max", n_max_default))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Trace + (planar) bound certificate + manifest, written to cfg.out.

    Returns a summary dict; raises torusflow errors for the caller (or the
    CLI wrapper) to map to exit codes.
    """
    out_dir = Path(cfg.out) if cfg.out else None
    inst = cfg.build_instance()
    sched = cfg.schedule
    t_max = float(sched.get("t_max", 100.0))
    n_samples = int(sched.get("n_samples", 1000))
    kind = sched.get("kind", "linear")

    if cfg.engine == "exact":
        inst.require_exact_capable()
        trace = discrepancy_trace(inst, t_max, n_samples=n_samples, schedule=kind)
    elif cfg.engine == "quadrature":
        _check_step(cfg.quadrature_step)
        if n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
        every = max(1, int(round(t_max / cfg.quadrature_step / n_samples)))
        trace = quadrature_delta_profile(inst, t_max, cfg.quadrature_step,
                                         sample_every=every)
    else:
        raise ValidationError(f"unknown engine {cfg.engine!r}")

    summary = {
        "name": cfg.name,
        "engine": cfg.engine,
        "sup_abs_delta": trace.sup(),
        "n_samples": len(trace.times),
    }

    certificate = None
    if inst.d == 2 and inst.transversality_ok and inst.direction.values[0].as_fraction() is None:
        series = diophantine_series(inst.direction.values[0], cfg.series_n_max,
                                    prec_bits=cfg.precision_bits)
        certificate = polygon_discrepancy_bound(inst.polytope, inst.direction, series)
        summary["bound_value"] = certificate.bound_value

    if out_dir is not None:
        _write(out_dir, "trace.csv", trace.to_csv())
        _write(out_dir, "trace.meta.json",
               json.dumps(trace.meta, indent=2, sort_keys=True, default=str))
        if certificate is not None:
            _write(out_dir, "certificate.json", certificate.to_json())
        _write_manifest(out_dir, cfg)
        summary["out"] = str(out_dir)
    return summary


def compare_discrete_continuous(cfg: ExperimentConfig) -> dict:
    """Per-decade growth table: continuous sup |Delta_T| next to the
    discrete max |D_N| of a matched one-dimensional rotation."""
    sched = cfg.schedule
    t_max = float(sched.get("t_max", 0.0))
    n_samples = int(sched.get("n_samples", 0))
    rows = []
    if t_max > 0 and n_samples > 0:
        inst = cfg.build_instance()
        trace = discrepancy_trace(inst, t_max, n_samples=n_samples,
                                  schedule=sched.get("kind", "geometric"))
        discrete = dict(discrete_decade_maxima(*_discrete_setup(cfg, int(t_max))))
        prev = 0.0
        hi = 10.0
        while prev < t_max:
            hi_eff = min(hi, t_max)
            mask = (trace.times > prev) & (trace.times <= hi_eff)
            cont = float(np.max(np.abs(trace.deltas[mask]))) if np.any(mask) else float("nan")
            rows.append({
                "decade_upper": hi_eff,
                "continuous_sup": cont,
                "discrete_max": discrete.get(int(hi_eff), float("nan")),
            })
            prev, hi = hi_eff, hi * 10.0
    report = {"name": cfg.name, "rows": rows}
    if cfg.out:
        lines = ["decade_upper,continuous_sup,discrete_max"]
        for r in rows:
            lines.append(f"{r['decade_upper']:.17g},{r['continuous_sup']:.17g},"
                         f"{r['discrete_max']:.17g}")
        _write(Path(cfg.out), "compare.csv", "\n".join(lines) + "\n")
        _write_manifest(Path(cfg.out), cfg)
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compute(cfg: ExperimentConfig) -> int:
    inst = cfg.build_instance()
    t = float(cfg.schedule.get("t_max", 100.0))
    if cfg.engine == "quadrature":
        est = delta_T_quadrature(inst, t, step=cfg.quadrature_step)
        print(f"delta_T({t:g}) = {est.value:.12g}  (quadrature, "
              f"err <= {est.error_bound:.3g}, {est.crossings} crossings)")
    else:
        value = delta_T_exact(inst, t)
        print(f"delta_T({t:g}) = {value:.15g}  (exact)")
    return EXIT_OK


def _cmd_trace(cfg: ExperimentConfig) -> int:
    summary = run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_boxsup(cfg: ExperimentConfig) -> int:
    t = float(cfg.schedule.get("t_max", 100.0))
    res = box_discrepancy_sup(cfg.build_direction(), cfg.start_values(), t,
                              cfg.grid)
    print(f"sup over {cfg.grid}-grid boxes at T={t:g}: {res.sup:.12g}")
    print(f"argmax box: {res.box_lo} .. {res.box_hi}")
    if cfg.out:
        _write(Path(cfg.out), "boxsup.json", json.dumps({
            "sup": res.sup, "box_lo": res.box_lo, "box_hi": res.box_hi,
            "t": res.t, "grid": res.grid}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_discrete(cfg: ExperimentConfig) -> int:
    alpha, start, box, n_max = _discrete_setup(cfg, 10000)
    value = discrete_discrepancy(alpha, start, box, n_max)
    print(f"D_N(N={n_max}) = {value:.12g}")
    maxima = discrete_decade_maxima(alpha, start, box, n_max)
    for hi, mx in maxima:
        print(f"  decade <= {hi:>9}: max |D_N| = {mx:.12g}")
    if cfg.out:
        lines = ["decade_upper,max_abs_D"] + [f"{h},{m:.17g}" for h, m in maxima]
        _write(Path(cfg.out), "discrete.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bound(cfg: ExperimentConfig) -> int:
    inst = cfg.build_instance()
    if inst.d != 2:
        raise ValidationError("the closed-form bound applies to planar instances")
    inst.require_exact_capable()
    series = diophantine_series(inst.direction.values[0], cfg.series_n_max,
                                prec_bits=cfg.precision_bits)
    cert = polygon_discrepancy_bound(inst.polytope, inst.direction, series)
    print(cert.to_json())
    if cfg.out:
        _write(Path(cfg.out), "certificate.json", cert.to_json())
        _write_manifest(Path(cfg.out), cfg)
    return EXIT_OK


def _cmd_fourier(cfg: ExperimentConfig) -> int:
    inst = cfg.build_instance()
    inst.require_exact_capable()
    if inst.d == 2:
        text = coefficients_csv(inst.section, inst.polytope, inst.direction,
                                cfg.fourier_n_max)
        coeffs = fourier_coeffs_2d(inst.section, min(cfg.fourier_n_max, 8))
        for i, c in enumerate(coeffs, start=1):
            print(f"f_hat({i}) = {c.real:+.9e} {c.imag:+.9e}i")
    elif inst.d == 3:
        arr = arrangement_cells(inst.polytope, inst.direction)
        forms = flag_forms_of_arrangement(arr)
        text = coefficients_csv_3d(arr, forms, cfg.fourier_n_max)
        print(f"{len(arr.cells)} cells, {len(forms)} distinct flag forms")
    else:
        raise ValidationError("coefficient dumps cover d = 2 and d = 3")
    if cfg.out:
        _write(Path(cfg.out), "coefficients.csv", text)
    else:
        sys.stdout.write(text if len(text) < 4000 else text[:4000] + "...\n")
    return EXIT_OK


def _cmd_dioph(cfg: ExperimentConfig) -> int:
    alpha1 = AlgebraicValue.parse(cfg.direction[0])
    cf = continued_fraction(alpha1, 40, prec_bits=cfg.precision_bits)
    print(f"partial quotients (first 20): {list(cf.partial_quotients[:20])}")
    print(f"convergent denominators (first 10): {list(cf.denominators[:10])}")
    scan = approximation_exponent_scan(alpha1, cfg.series_n_max, eta=1.5)
    print(f"worst approximation exponent observed: {scan.worst_exponent:.6g}")
    if not alpha1.is_rational:
        series = diophantine_series(alpha1, cfg.series_n_max,
                                    prec_bits=cfg.precision_bits)
        print(f"series head (n <= {series.n_max}): {series.partial_sum:.9g}")
        print(f"series tail bound: {series.tail_bound:.9g}")
    if cfg.out:
        _write(Path(cfg.out), "exponent_scan.csv", scan.to_csv())
    return EXIT_OK


def _cmd_compare(cfg: ExperimentConfig) -> int:
    report = compare_discrete_continuous(cfg)
    if not report["rows"]:
        print("empty schedule: nothing to compare")
        return EXIT_OK
    print(f"{'decade':>10} | {'continuous sup':>16} | {'discrete max':>14}")
    for r in report["rows"]:
        print(f"{r['decade_upper']:>10.0f} | {r['continuous_sup']:>16.6g} | "
              f"{r['discrete_max']:>14.6g}")
    return EXIT_OK


def _cmd_audit(cfg: ExperimentConfig) -> int:
    acfg = cfg.audit or {}
    gamma = float(acfg.get("gamma", 0.5))
    n_scan = int(acfg.get("scan_n_max", 2000))
    alpha_star = [AlgebraicValue.parse(a) for a in cfg.direction]
    if len(alpha_star) >= 2:
        # the audit lives on the rotation lattice: normalize as a flow
        # instance does and drop the last coordinate, which is then 1
        direction = Direction.make(alpha_star)
        if not direction.normalized:
            direction = direction.normalize()[0]
        alpha_star = list(direction.values[:-1])
    dim = len(alpha_star)
    try:
        # d-2 coordinate forms unless the config says else
        forms = acfg.get("forms")
        form_vecs = ([np.asarray(f, dtype=np.float64) for f in forms]
                     if forms is not None
                     else [np.eye(dim)[k] for k in range(dim - 1)])
        if any(vec.shape != (dim,) for vec in form_vecs):
            raise ValueError(f"each form needs {dim} coefficients, one per axis")
        levels = acfg.get("levels", [[ell, [ell] * len(form_vecs)] for ell in (2, 3, 4)])
        for ell, ell_ks in levels:
            if not all(type(v) is int and v >= 0 for v in [ell, *ell_ks]):
                raise ValueError(f"levels must be non-negative integers, got {[ell, ell_ks]}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed 'audit' config: {exc}") from exc
    scan = schmidt_inequality_scan(alpha_star, form_vecs, gamma, n_scan)
    c_fit = scan.fitted_c
    print(f"fitted c = {c_fit:.6g} at gamma = {gamma} (scan |n| <= {n_scan})")
    total_violations = 0
    for ell, ell_ks in levels:
        block = materialize_dyadic_block(form_vecs, gamma, c_fit, ell, ell_ks, dim=dim)
        result = dyadic_spacing_audit(alpha_star, block)
        v = len(result.violations)
        total_violations += v
        print(f"block ell={ell} ell_ks={ell_ks}: {block.coords.shape[1]} members, "
              f"capacity {block.capacity}, violations {v}")
    print("audit:", "PASS" if total_violations == 0 else "FAIL")
    return EXIT_OK if total_violations == 0 else EXIT_VALIDATION


_COMMANDS = {
    "compute": _cmd_compute,
    "trace": _cmd_trace,
    "boxsup": _cmd_boxsup,
    "discrete": _cmd_discrete,
    "bound": _cmd_bound,
    "fourier": _cmd_fourier,
    "dioph": _cmd_dioph,
    "compare": _cmd_compare,
    "audit": _cmd_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Discrepancy experiments for linear flows on the torus.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--precision", type=int, dest="precision_bits",
                        help="working precision in bits (>= 64)")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--engine", choices=["exact", "quadrature"])
    parser.add_argument("--seed", type=int,
                        help="seed for randomized instance generation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "precision_bits": args.precision_bits,
        "out": args.out,
        "engine": args.engine,
        "seed": args.seed,
    }
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrecisionError as exc:
        print(f"error (precision): {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except TorusflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
