"""Spans around every public callable of the torusflow layers, from outside.

`Tracer.install` enumerates each layer module, wraps every public function
and every public method of the classes defined there (plus `__call__`, and
`__init__` of hand-written classes), and rebinds each wrapper wherever a
torusflow module binds the original, so `engine.frac_orbit_floats` is traced
as the `algebraic` function it is.  Because wrappers are found by
enumeration, a function renamed or removed later only changes which spans
exist; the layer totals stay valid and a vanished function's sub-metric
reads 0.

Each span records its function, parent span, request id, start, end and
whether it raised.  Spans are kept in compact arrays, written out at the end
of the run, and self time (duration minus the time covered by child spans)
is computed from those arrays.  Work counts come from the arguments and
results seen at each wrapped call, so they repeat exactly on the same inputs.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("algebraic", "geometry", "engine", "fourier", "diophantine", "cli")

#: Sub-metric groups: self time summed over the matching functions.
GROUPS = {
    "algebraic.orbit": ("algebraic.frac_orbit_floats", "algebraic.frac_point"),
    "algebraic.fixed": ("algebraic.AlgebraicValue.fixed",),
    "algebraic.eval": ("algebraic.AlgebraicValue.eval_mpf",),
    "geometry.section_eval": ("geometry.SectionEvaluator.length",
                              "geometry.SectionEvaluator.lengths",
                              "geometry.SectionFunction2D.__call__"),
    "geometry.section_build": ("geometry.build_piecewise_linear_section",
                               "geometry.cot_angles"),
    "geometry.instance": ("geometry.Polytope.__init__", "geometry.Polytope.from_*",
                          "geometry.Polytope.box", "geometry.Polytope.unit_cube",
                          "geometry.Polytope.validate", "geometry.Polytope.bbox",
                          "geometry.Direction.*", "geometry.Box.make",
                          "geometry.SectionEvaluator.__init__",
                          "geometry.validate_transversality",
                          "geometry.require_transversal"),
    "geometry.arrangement": ("geometry.arrangement_cells",),
    "engine.exact": ("engine.delta_T_exact", "engine.discrepancy_trace"),
    "engine.quadrature": ("engine.quadrature_delta_profile",
                          "engine.delta_T_quadrature"),
    "engine.discrete": ("engine.discrete_decade_maxima",
                        "engine.discrete_discrepancy"),
    "engine.boxsweep": ("engine.box_discrepancy_profile",
                        "engine.box_discrepancy_sup"),
    "fourier.coeff3d": ("fourier.fourier_coeff_exact_3d",
                        "fourier.polygon_exponential_integral"),
    "fourier.flags": ("fourier.flag_forms", "fourier.flag_forms_of_arrangement",
                      "fourier.flag_decay_envelope", "fourier.FlagForm.*",
                      "fourier.FlagFormSet.*"),
    "fourier.coeff2d": ("fourier.fourier_coeffs_2d", "fourier.fourier_coeff_exact_2d"),
    "fourier.bound": ("fourier.polygon_discrepancy_bound",
                      "fourier.per_coefficient_bound"),
    "diophantine.series": ("diophantine.diophantine_series",),
    "diophantine.cf": ("diophantine.continued_fraction",),
    "diophantine.scan": ("diophantine.approximation_exponent_scan",
                         "diophantine.schmidt_inequality_scan"),
    "diophantine.block": ("diophantine.materialize_dyadic_block",),
    "diophantine.audit": ("diophantine.dyadic_spacing_audit",),
}

#: (name, numerator count, denominator group) of each reported work rate.
RATES = (
    ("algebraic.orbit.points_per_s", "algebraic.orbit.points", "algebraic.orbit"),
    ("geometry.section_eval.windows_per_s", "geometry.section_eval.windows",
     "geometry.section_eval"),
    ("engine.boxsweep.box_times_per_s", "engine.boxsweep.box_times", "engine.boxsweep"),
    ("fourier.coeff3d.vectors_per_s", "fourier.coeff3d.vectors", "fourier.coeff3d"),
    ("diophantine.series.terms_per_s", "diophantine.series.terms", "diophantine.series"),
    ("diophantine.audit.members_per_s", "diophantine.audit.members",
     "diophantine.audit"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _box_pairs(grid):
    return (grid * (grid + 1) // 2) ** 2


def _artifacts(result):
    out = result.get("out") if isinstance(result, dict) else None
    if not out:
        return []
    files = [e for e in os.scandir(out) if e.is_file()]
    return [("cli.artifacts", len(files)),
            ("cli.artifact_bytes", sum(e.stat().st_size for e in files))]


#: Work counts per traced function: (args, kwargs, result) -> [(metric, n)].
COUNTERS = {
    "algebraic.frac_orbit_floats": lambda a, k, r: [("algebraic.orbit.points", len(r))],
    "algebraic.frac_point": lambda a, k, r: [("algebraic.orbit.points", 1)],
    "algebraic.AlgebraicValue.fixed": lambda a, k, r: [("algebraic.fixed.calls", 1)],
    "geometry.SectionEvaluator.lengths":
        lambda a, k, r: [("geometry.section_eval.windows", len(r))],
    "geometry.SectionFunction2D.__call__":
        lambda a, k, r: [("geometry.section_eval.windows", int(np.size(r)))],
    "geometry.build_piecewise_linear_section":
        lambda a, k, r: [("geometry.section_build.pieces", r.n_pieces)],
    "geometry.arrangement_cells": lambda a, k, r: [("geometry.arrangement.cells", len(r.cells))],
    "engine.delta_T_exact": lambda a, k, r: [(
        "engine.exact.windows",
        math.ceil(_arg(a, k, 1, "t") * _arg(a, k, 0, "inst").time_scale))],
    "engine.discrepancy_trace": lambda a, k, r: [
        ("engine.exact.windows",
         math.ceil(_arg(a, k, 1, "t_max") * _arg(a, k, 0, "inst").time_scale)),
        ("engine.trace.samples", len(r.times))],
    "engine.quadrature_delta_profile": lambda a, k, r: [(
        "engine.quadrature.steps",
        round(_arg(a, k, 1, "t_max") * _arg(a, k, 0, "inst").time_scale
              / _arg(a, k, 2, "step")))],
    "engine.delta_T_quadrature": lambda a, k, r: [(
        "engine.quadrature.steps",
        round(_arg(a, k, 1, "t") * _arg(a, k, 0, "inst").time_scale / r.step)
        if r.step else 0)],
    "engine.discrete_decade_maxima": lambda a, k, r: [(
        "engine.discrete.points",
        _arg(a, k, 3, "n_max") * np.atleast_1d(np.asarray(_arg(a, k, 0, "alpha"),
                                                          dtype=object)).size)],
    "engine.discrete_discrepancy": lambda a, k, r: [(
        "engine.discrete.points",
        _arg(a, k, 3, "n") * np.atleast_1d(np.asarray(_arg(a, k, 0, "alpha"),
                                                      dtype=object)).size)],
    "engine.box_discrepancy_profile": lambda a, k, r: [(
        "engine.boxsweep.box_times", len(r) * _box_pairs(_arg(a, k, 2, "grid")))],
    "engine.box_discrepancy_sup": lambda a, k, r: [(
        "engine.boxsweep.box_times", _box_pairs(_arg(a, k, 3, "grid")))],
    "fourier.fourier_coeff_exact_3d": lambda a, k, r: [("fourier.coeff3d.vectors", 1)],
    "fourier.polygon_exponential_integral":
        lambda a, k, r: [("fourier.coeff3d.cell_evals", 1)],
    "fourier.fourier_coeffs_2d": lambda a, k, r: [("fourier.coeff2d.coefficients", len(r))],
    "fourier.fourier_coeff_exact_2d":
        lambda a, k, r: [("fourier.coeff2d.coefficients", 1)],
    "diophantine.diophantine_series": lambda a, k, r: [("diophantine.series.terms", r.n_max)],
    "diophantine.continued_fraction":
        lambda a, k, r: [("diophantine.cf.quotients", r.depth)],
    "diophantine.approximation_exponent_scan":
        lambda a, k, r: [("diophantine.scan.residues", r.n_max)],
    "diophantine.schmidt_inequality_scan": lambda a, k, r: [(
        "diophantine.scan.residues",
        (2 * r.n_max + 1) ** len(_arg(a, k, 0, "alpha_values")) - 1)],
    "diophantine.materialize_dyadic_block": lambda a, k, r: [
        ("diophantine.block.candidates",
         (2 ** (_arg(a, k, 3, "ell") + 2) + 1) ** _arg(a, k, 5, "dim")),
        ("diophantine.block.members", len(r.members))],
    "diophantine.dyadic_spacing_audit": lambda a, k, r: [
        ("diophantine.audit.members", len(r.block.members)),
        ("diophantine.audit.violations", len(r.violations))],
    "cli.run_experiment": lambda a, k, r: _artifacts(r),
}

COUNT_NAMES = sorted({"algebraic.orbit.points", "algebraic.fixed.calls",
                      "geometry.section_eval.windows", "geometry.section_build.pieces",
                      "geometry.arrangement.cells", "engine.exact.windows",
                      "engine.trace.samples", "engine.quadrature.steps",
                      "engine.discrete.points", "engine.boxsweep.box_times",
                      "fourier.coeff3d.vectors", "fourier.coeff3d.cell_evals",
                      "fourier.coeff2d.coefficients", "diophantine.series.terms",
                      "diophantine.cf.quotients", "diophantine.scan.residues",
                      "diophantine.block.candidates", "diophantine.block.members",
                      "diophantine.audit.members", "diophantine.audit.violations",
                      "cli.artifacts", "cli.artifact_bytes"})

class Tracer:
    """Records spans while `active`; wrappers pass straight through otherwise,
    so oracles and untraced replays run outside any span."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.current = -1
        self.request_id = -1
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self.count_failures = 0
        self.unmatched: list[str] = []  # sub-metric groups whose functions are gone

    # -- installation ---------------------------------------------------

    def install(self, package: str = "torusflow") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, key, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer: str) -> None:
        keep = {"__call__"} | (set() if dataclasses.is_dataclass(cls) else {"__init__"})
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in keep:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qual))

    def _wrap(self, fn, layer: str, qual: str):
        fid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(LAYERS.index(layer))
        count = COUNTERS.get(qual)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.current
            idx = len(tracer.fid)
            tracer.fid.append(fid)
            tracer.parent.append(parent)
            tracer.request.append(tracer.request_id)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer.current = idx
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = clock()
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.current = parent
            tracer.end[idx] = clock()
            if count is not None:
                try:
                    for name, n in count(args, kwargs, result):
                        tracer.counts[name] += int(n)
                except Exception:  # a changed signature drops the count, not the run
                    tracer.count_failures += 1
            return result

        return traced

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "request": np.frombuffer(self.request, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS),
                 layer_of=np.array(self.layer_of), **self.arrays())

    def summarize(self, request_seconds: float) -> dict[str, float]:
        """Per-layer and per-group self time, calls, errors and counts."""
        sp = self.arrays()
        n_fn = len(self.names)
        dur = sp["end"] - sp["start"]
        child = sp["parent"] >= 0
        covered = np.bincount(sp["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        fn_self = np.bincount(sp["fid"], weights=self_time, minlength=n_fn)
        fn_calls = np.bincount(sp["fid"], minlength=n_fn)
        fn_errors = np.bincount(sp["fid"], weights=sp["failed"], minlength=n_fn)
        layer_of = np.array(self.layer_of, dtype=np.int64)

        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            sel = layer_of == i
            out[f"{layer}.self_s"] = float(fn_self[sel].sum())
            out[f"{layer}.calls"] = int(fn_calls[sel].sum())
            out[f"{layer}.errors"] = int(fn_errors[sel].sum())
        for group, patterns in GROUPS.items():
            sel = [f for f, q in enumerate(self.names)
                   if any(fnmatch.fnmatchcase(q, p) for p in patterns)]
            if not sel:
                self.unmatched.append(group)
            out[f"{group}.self_s"] = float(fn_self[sel].sum())
        for name in COUNT_NAMES:
            out[name] = int(self.counts.get(name, 0))
        for name, count, group in RATES:
            busy = out[f"{group}.self_s"]
            out[name] = out[count] / busy if busy > 0 else 0.0
        roots = sp["parent"] < 0
        out["trace.coverage"] = float(dur[roots].sum()) / request_seconds
        return out
