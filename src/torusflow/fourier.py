"""Fourier-side analysis of section functions.

Coefficients are closed-form (never FFT): integration by parts for the
circle case, a divergence-theorem reduction to edge integrals for the
planar cells of a three-dimensional instance.  The certified bound is a
fully itemized certificate — additive constant, cotangent factor, and the
split of the small-denominator series into an exactly summed head and a
continued-fraction tail bound.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebraic import (
    DEFAULT_FIXED_SCALE,
    AlgebraicValue,
    _less,
    _multiple_distances,
    _reciprocals,
)
from .diophantine import SeriesBound
from .errors import DegeneratePolytopeError, ValidationError
from .geometry import (
    Arrangement,
    Direction,
    Polytope,
    SectionFunction2D,
    cot_angles,
    polygon_moments,
)

_TWO_PI = 2.0 * math.pi


def _unit_phase(theta: float) -> complex:
    """e^{-2*pi*i*theta} computed from theta mod 1 (phase stays accurate
    even when theta itself is large)."""
    return cmath.exp(-2j * math.pi * math.fmod(theta, 1.0))


@dataclass(frozen=True)
class FourierCoefficient:
    n: tuple[int, ...]
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


# ---------------------------------------------------------------------------
# circle sections (planar instances)
# ---------------------------------------------------------------------------


def fourier_coeff_exact_2d(sec: SectionFunction2D, n: int) -> FourierCoefficient:
    """Exact Fourier coefficient of a piecewise-linear circle function.

    Two integrations by parts leave only the slope sum
    sum_j a_j (e(-n c_j) - e(-n c_{j-1})) / (4 pi^2 n^2); the by-parts
    boundary telescope vanishes for a continuous periodic function and is
    recomputed numerically here as a guard.
    """
    if n == 0:
        return FourierCoefficient((0,), complex(sec.mean()))
    c = np.asarray(sec.breakpoints)
    a = np.asarray(sec.slopes)
    b = np.asarray(sec.intercepts)
    phases = np.array([_unit_phase(n * x) for x in c])

    telescope = 0.0j
    for j in range(len(a)):
        hi = a[j] * c[j + 1] + b[j]
        lo = a[j] * c[j] + b[j]
        telescope += hi * phases[j + 1] - lo * phases[j]
    if abs(telescope) > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
        raise ValidationError(
            f"boundary telescope {abs(telescope):.3e} is not negligible; "
            "section is discontinuous or not periodic"
        )

    total = complex(np.sum(a * (phases[1:] - phases[:-1])))
    value = total / (4.0 * math.pi ** 2 * n * n)
    return FourierCoefficient((n,), value)


def fourier_coeffs_2d(sec: SectionFunction2D, n_max: int) -> np.ndarray:
    """Vector of exact coefficients for n = 1..n_max (complex array)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    c = np.asarray(sec.breakpoints)
    a = np.asarray(sec.slopes)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    theta = np.mod(ns[:, None] * c[None, :], 1.0)
    phases = np.exp(-2j * np.pi * theta)
    sums = (phases[:, 1:] - phases[:, :-1]) @ a.astype(np.complex128)
    return sums / (4.0 * np.pi ** 2 * ns * ns)


def per_coefficient_bound(p: Polytope, direction: Direction) -> float:
    """The closed-form constant K with |f_hat(n)| <= K / n^2 for a polygon
    section: (N+1) * max spread of edge cotangents / (pi^2 |alpha|)."""
    cots = cot_angles(p, direction)
    spread = float(np.max(cots) - np.min(cots))
    n_verts = len(p.vertices)
    alpha_norm = float(np.linalg.norm(direction.floats()))
    return (n_verts + 1) * spread / (math.pi ** 2 * alpha_norm)


# ---------------------------------------------------------------------------
# certified bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """Itemized uniform bound on |Delta_T| for a planar polygon instance."""

    bound_value: float
    additive: float
    cot_factor: float
    series_partial: float
    series_tail: float
    n_max: int
    valid: bool
    instance: dict
    assumptions: tuple[str, ...]

    def to_json(self) -> str:
        payload = {
            "bound_value": self.bound_value,
            "components": {
                "additive": self.additive,
                "cot_factor": self.cot_factor,
                "series_partial": self.series_partial,
                "series_tail": self.series_tail,
                "n_max": self.n_max,
            },
            "valid": self.valid,
            "instance": self.instance,
            "assumptions": list(self.assumptions),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def polygon_discrepancy_bound(p: Polytope, direction: Direction, series: SeriesBound,
                              drop_additive: bool = False) -> BoundCertificate:
    """Uniform discrepancy bound 2 + K * sum_{n>=1} 1/(n^2 ||n alpha_1||).

    K = (N+1) max|cot spread| / (pi^2 |alpha|).  The additive 2 covers
    arbitrary start and real time; with the second start coordinate 0 and
    integer times it can be dropped.
    """
    if p.d != 2:
        raise ValidationError("the closed-form bound is planar")
    direction.require_normalized()
    k_factor = per_coefficient_bound(p, direction)
    additive = 0.0 if drop_additive else 2.0
    bound = additive + k_factor * (series.partial_sum + series.tail_bound)
    assumptions = (
        "series tail assumes bounded partial quotients beyond the certified depth",
    ) if series.quotient_cap is not None else ()
    instance = {
        "direction": direction.literals(),
        "n_vertices": int(len(p.vertices)),
        "volume": p.volume,
    }
    return BoundCertificate(
        bound_value=bound,
        additive=additive,
        cot_factor=k_factor,
        series_partial=series.partial_sum,
        series_tail=series.tail_bound,
        n_max=series.n_max,
        valid=True,
        instance=instance,
        assumptions=assumptions,
    )


@dataclass(frozen=True)
class MajorantResult:
    value: float
    head: float
    tail: float
    n_max: int
    rigorous: bool
    note: str = ""


def fourier_majorant_2d(sec: SectionFunction2D, alpha1, n_max: int,
                        series: SeriesBound | None = None,
                        per_coeff_k: float | None = None,
                        scale_bits: int = DEFAULT_FIXED_SCALE) -> MajorantResult:
    """sum over 0<|n|<=n_max of |f_hat(n)| / (2 ||n alpha_1||), plus tail.

    Majorizes sup_T |Delta_T| over integer times from a start with last
    coordinate 0.  With a SeriesBound whose head covers n_max and a
    per-coefficient constant, the tail is certified; otherwise only the
    truncated head is returned (rigorous=False).
    """
    coeffs = fourier_coeffs_2d(sec, n_max)
    alpha_fix = AlgebraicValue.coerce(alpha1).fixed(scale_bits)
    dist = _multiple_distances(alpha_fix, scale_bits, n_max)
    zero = np.flatnonzero(_less(dist, 1))
    if len(zero):
        raise ValidationError(f"||{zero[0] + 1} alpha|| = 0 at working scale; alpha rational?")
    inv = _reciprocals(dist, scale_bits)
    # signed lattice: n and -n contribute equally, cancelling the 1/2
    head = float(np.sum(np.abs(coeffs) * inv))

    tail = 0.0
    rigorous = False
    note = "tail omitted (no series bound supplied)"
    if series is not None and per_coeff_k is not None:
        if series.n_max != n_max:
            raise ValidationError("series head and coefficient head must match")
        tail = per_coeff_k * series.tail_bound
        rigorous = True
        note = "tail via per-coefficient decay and continued-fraction series bound"
    return MajorantResult(value=head + tail, head=head, tail=tail,
                          n_max=n_max, rigorous=rigorous, note=note)


# ---------------------------------------------------------------------------
# flags and the envelope (planar cells of 3-d instances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlagForm:
    """One orthogonal tuple of linear forms from a complete face flag."""

    vectors: tuple[tuple[float, ...], ...]
    multiplicity: int = 1

    def evaluate(self, n) -> tuple[float, ...]:
        n = np.asarray(n, dtype=np.float64)
        return tuple(float(np.dot(np.asarray(v), n)) for v in self.vectors)


@dataclass(frozen=True)
class FlagFormSet:
    forms: tuple[FlagForm, ...]

    def __len__(self) -> int:
        return len(self.forms)

    @property
    def total_flags(self) -> int:
        return sum(f.multiplicity for f in self.forms)


def _gram_schmidt(rows: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for r in rows:
        v = r.astype(np.float64).copy()
        for u in out:
            v -= np.dot(v, u) * u
        norm = np.linalg.norm(v)
        if norm < 1e-10:
            raise DegeneratePolytopeError("flag normals are linearly dependent")
        out.append(v / norm)
    return out


def _dedup_key(vectors: list[np.ndarray]) -> tuple:
    key = []
    for v in vectors:
        w = v.copy()
        for comp in w:
            if abs(comp) > 1e-12:
                if comp < 0:
                    w = -w
                break
        key.append(tuple(np.round(w, 9)))
    return tuple(key)


def flag_forms(polygon_vertices: np.ndarray) -> FlagFormSet:
    """All complete flags (edge, endpoint) of a convex polygon, as
    orthonormal form tuples; duplicates by direction are merged with a
    multiplicity count.
    """
    verts = np.asarray(polygon_vertices, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValidationError("flags need a planar polygon with >= 3 vertices")
    m = len(verts)
    seen: dict[tuple, list] = {}
    order = []
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        edge = q - p
        if np.linalg.norm(edge) < 1e-13:
            raise DegeneratePolytopeError("zero-length polygon edge")
        normal = np.array([edge[1], -edge[0]])  # outward for CCW order
        for w, other in ((q, p), (p, q)):
            into_w = w - other  # endpoint's outward direction within the edge
            chain = _gram_schmidt([normal, into_w])
            key = _dedup_key(chain)
            if key in seen:
                seen[key][1] += 1
            else:
                seen[key] = [chain, 1]
                order.append(key)
    forms = tuple(
        FlagForm(vectors=tuple(tuple(v) for v in seen[k][0]), multiplicity=seen[k][1])
        for k in order
    )
    return FlagFormSet(forms=forms)


def flag_forms_of_arrangement(arr: Arrangement) -> FlagFormSet:
    """Union of the flag forms of every cell, deduplicated by direction."""
    seen: dict[tuple, list] = {}
    order = []
    for cell in arr.cells:
        fs = flag_forms(cell.vertices)
        for f in fs.forms:
            chain = [np.asarray(v) for v in f.vectors]
            key = _dedup_key(chain)
            if key in seen:
                seen[key][1] += f.multiplicity
            else:
                seen[key] = [chain, f.multiplicity]
                order.append(key)
    forms = tuple(
        FlagForm(vectors=tuple(tuple(v) for v in seen[k][0]), multiplicity=seen[k][1])
        for k in order
    )
    return FlagFormSet(forms=forms)


def flag_decay_envelope(forms: FlagFormSet, n) -> float:
    """Decay envelope sum over form tuples of 1/(|n| prod_k (|L_k(n)|+1)).

    The union across cells is treated as a set: each distinct direction
    tuple contributes once regardless of multiplicity.
    """
    n = np.asarray(n, dtype=np.float64)
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValidationError("envelope undefined at n = 0")
    total = 0.0
    for f in forms.forms:
        denom = norm
        for val in f.evaluate(n):
            denom *= abs(val) + 1.0
        total += 1.0 / denom
    return total


def projection_chain_norms(form: FlagForm, n) -> list[float]:
    """Norms of n after successively removing components along the flag's
    orthonormal vectors; non-increasing by construction."""
    v = np.asarray(n, dtype=np.float64).copy()
    norms = [float(np.linalg.norm(v))]
    for u in form.vectors:
        u = np.asarray(u)
        v = v - np.dot(v, u) * u
        norms.append(float(np.linalg.norm(v)))
    return norms


# ---------------------------------------------------------------------------
# planar cell integrals (3-d instances)
# ---------------------------------------------------------------------------


def _edge_factor(z: float) -> complex:
    """E(z) = (e^{-2 pi i z} - 1)/(-2 pi i z) with a series branch near 0."""
    w = -2j * math.pi * z
    if abs(z) < 1e-8:
        return 1.0 + w / 2.0 + w * w / 6.0 + w * w * w / 24.0
    return (cmath.exp(-2j * math.pi * math.fmod(z, 1.0)) - 1.0) / w


def polygon_exponential_integral(vertices, n) -> complex:
    """Exact integral of e^{-2 pi i <n,x>} over a convex polygon.

    One divergence-theorem pass converts the area integral into edge
    integrals with closed-form antiderivatives.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    n_vec = np.asarray(n, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValidationError("polygon integral needs >= 3 planar vertices")
    area, _, _ = polygon_moments(verts)
    if area <= 0:
        raise DegeneratePolytopeError("polygon must be counterclockwise with positive area")
    n_sq = float(np.dot(n_vec, n_vec))
    if n_sq == 0.0:
        return complex(area)

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
        total += flux * length * _unit_phase(float(np.dot(n_vec, p))) * _edge_factor(z)
    return total / (-2j * math.pi * n_sq)


def fourier_coeff_exact_3d(arr: Arrangement, n) -> FourierCoefficient:
    """Exact coefficient of a piecewise-affine torus function given by an
    arrangement: sum_j <a_j, n> / (2 pi i |n|^2) * int_{A_j} e(-<n,x>).
    """
    n_t = tuple(int(v) for v in np.atleast_1d(n))
    if len(n_t) != 2:
        raise ValidationError("cell coefficients take a 2-d lattice vector")
    if n_t == (0, 0):
        return FourierCoefficient(n_t, complex(arr.mean()))
    n_vec = np.asarray(n_t, dtype=np.float64)
    n_sq = float(np.dot(n_vec, n_vec))
    total = 0.0j
    for cell in arr.cells:
        grad = float(np.dot(cell.gradient, n_vec))
        if grad == 0.0:
            continue
        total += grad * polygon_exponential_integral(cell.vertices, n_vec)
    return FourierCoefficient(n_t, total / (2j * math.pi * n_sq))


# ---------------------------------------------------------------------------
# envelope fit and the heuristic 3-d majorant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    c_inner: float
    c_outer: float
    inner_shell: tuple[int, int]
    outer_shell: tuple[int, int]

    @property
    def stable(self) -> bool:
        lo, hi = sorted((self.c_inner, self.c_outer))
        return hi <= 2.0 * lo if lo > 0 else False


def envelope_fit(arr: Arrangement, forms: FlagFormSet,
                 inner: tuple[int, int] = (0, 25),
                 outer: tuple[int, int] = (25, 50)) -> EnvelopeFit:
    """Fit max |f_hat(n)| / envelope(n) over two sup-norm shells."""

    def shell_fit(lo: int, hi: int) -> float:
        best = 0.0
        for n1 in range(-hi, hi + 1):
            for n2 in range(-hi, hi + 1):
                r = max(abs(n1), abs(n2))
                if r <= lo or r > hi:
                    continue
                coeff = fourier_coeff_exact_3d(arr, (n1, n2))
                env = flag_decay_envelope(forms, (n1, n2))
                if env > 0:
                    best = max(best, coeff.magnitude / env)
        return best

    return EnvelopeFit(
        c_inner=shell_fit(*inner),
        c_outer=shell_fit(*outer),
        inner_shell=inner,
        outer_shell=outer,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def coefficients_csv(sec: SectionFunction2D, p: Polytope, direction: Direction,
                     n_max: int) -> str:
    """Dump n, re, im, abs, and the closed-form per-coefficient bound."""
    coeffs = fourier_coeffs_2d(sec, n_max)
    k = per_coefficient_bound(p, direction)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "re", "im", "abs", "bound"])
    for i, c in enumerate(coeffs, start=1):
        w.writerow([i, f"{c.real:.17g}", f"{c.imag:.17g}",
                    f"{abs(c):.17g}", f"{k / (i * i):.17g}"])
    return buf.getvalue()


def coefficients_csv_3d(arr: Arrangement, forms: FlagFormSet, n_max: int) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n1", "n2", "re", "im", "abs", "envelope"])
    for n1 in range(-n_max, n_max + 1):
        for n2 in range(-n_max, n_max + 1):
            if n1 == 0 and n2 == 0:
                continue
            c = fourier_coeff_exact_3d(arr, (n1, n2)).value
            env = flag_decay_envelope(forms, (n1, n2))
            w.writerow([n1, n2, f"{c.real:.17g}", f"{c.imag:.17g}",
                        f"{abs(c):.17g}", f"{env:.17g}"])
    return buf.getvalue()
