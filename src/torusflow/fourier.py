"""Fourier-side analysis of section functions.

Coefficients are closed-form (never FFT): integration by parts for the
circle case, a divergence-theorem reduction to edge integrals for the
planar cells of a three-dimensional instance.  The certified bound is a
fully itemized certificate — additive constant, cotangent factor, and the
split of the small-denominator series into an exactly summed head and a
continued-fraction tail bound.
"""

from __future__ import annotations

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
)


@dataclass(frozen=True)
class FourierCoefficient:
    n: tuple[int, ...]
    value: complex


# ---------------------------------------------------------------------------
# circle sections (planar instances)
# ---------------------------------------------------------------------------


def _coeffs_2d(sec: SectionFunction2D, ns: np.ndarray) -> np.ndarray:
    """Exact coefficients of a continuous periodic piecewise-linear circle
    function at the nonzero integers ns.

    Two integrations by parts and a summation by parts leave the kink sum
    f_hat(n) = -sum_j kappa_j e(-n b_j) / (4 pi^2 n^2), where kappa_j is the
    slope change at breakpoint b_j; the first is taken across the wrap.
    """
    c = np.asarray(sec.breakpoints)[:-1]
    a = sec.slopes
    kinks = a - np.roll(a, 1)
    phases = np.exp(-2j * np.pi * np.mod(ns[:, None] * c[None, :], 1.0))
    return -(phases @ kinks.astype(np.complex128)) / (4.0 * np.pi ** 2 * ns * ns)


def fourier_coeff_exact_2d(sec: SectionFunction2D, n: int) -> FourierCoefficient:
    """The coefficient at one integer n; the mean at n = 0."""
    if n == 0:
        return FourierCoefficient((0,), complex(sec.mean()))
    return FourierCoefficient((n,), complex(_coeffs_2d(sec, np.array([float(n)]))[0]))


def fourier_coeffs_2d(sec: SectionFunction2D, n_max: int) -> np.ndarray:
    """Vector of exact coefficients for n = 1..n_max (complex array)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    return _coeffs_2d(sec, np.arange(1, n_max + 1, dtype=np.float64))


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


@dataclass(frozen=True)
class FlagFormSet:
    forms: tuple[FlagForm, ...]

    def __len__(self) -> int:
        return len(self.forms)


def flag_forms_of_arrangement(arr: Arrangement) -> FlagFormSet:
    """Flag forms of every cell, merged by direction.

    A complete flag of a cell is an edge and one of its endpoints; its form
    is the edge's unit outward normal and the unit vector along the edge
    into the endpoint.  Forms equal up to the sign of each vector, to 9
    digits, are merged, so there is one form per direction of cell edges:
    the vectors of the first such edge in cell order, towards its end, with
    multiplicity two flags per edge.
    """
    polygons = [cell.vertices for cell in arr.cells]
    _, vec, _, _ = _edge_table(polygons)  # leaves out edges shorter than 1e-15
    length = np.sqrt(vec[:, 0] * vec[:, 0] + vec[:, 1] * vec[:, 1])
    if len(vec) < sum(len(v) for v in polygons) or np.any(length < 1e-10):
        raise DegeneratePolytopeError("flags need cell edges of length >= 1e-10")
    normal = np.stack([vec[:, 1], -vec[:, 0]], axis=1) / length[:, None]
    vectors = np.stack([normal, vec / length[:, None]], axis=1)
    # the first component above 1e-12 made positive; + 0.0 turns -0.0 into 0.0
    lead = np.where(np.abs(vectors[..., :1]) > 1e-12, vectors[..., :1], vectors[..., 1:])
    keys = np.round(np.where(lead < 0, -vectors, vectors), 9).reshape(-1, 4) + 0.0
    _, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return FlagFormSet(forms=tuple(
        FlagForm(vectors=tuple(map(tuple, vectors[e].tolist())), multiplicity=2 * int(c))
        for e, c in zip(first[order], counts[order])))


def _lattice_vectors(ns) -> np.ndarray:
    """ns as a (K, 2) float array, checked to hold finite integers."""
    try:
        vecs = np.asarray(ns, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"lattice vectors must be numeric: {exc}") from None
    if (vecs.ndim != 2 or vecs.shape[1] != 2 or not np.all(np.isfinite(vecs))
            or np.any(vecs != np.round(vecs))):
        raise ValidationError(f"lattice vectors must be a (K, 2) array of finite "
                              f"integers, got shape {vecs.shape}")
    return vecs


def _lattice_shell(lo: int, hi: int) -> np.ndarray:
    """Lattice vectors with lo < |n|_inf <= hi, in lexicographic (n1, n2) order."""
    return np.array([(n1, n2) for n1 in range(-hi, hi + 1) for n2 in range(-hi, hi + 1)
                     if lo < max(abs(n1), abs(n2)) <= hi], dtype=np.int64).reshape(-1, 2)


def flag_decay_envelopes(forms: FlagFormSet, ns) -> np.ndarray:
    """Decay envelope sum over form tuples of 1/(|n| prod_k (|L_k(n)|+1)) at
    every row of a (K, 2) array of nonzero lattice vectors.

    The union across cells is treated as a set: each distinct direction
    tuple contributes once regardless of multiplicity.
    """
    ns = _lattice_vectors(ns)
    n1, n2 = ns[:, 0], ns[:, 1]
    norm = np.sqrt(n1 * n1 + n2 * n2)
    if np.any(norm == 0.0):
        raise ValidationError("envelope undefined at n = 0")
    total = np.zeros(len(ns))
    for f in forms.forms:
        denom = norm.copy()
        for v1, v2 in f.vectors:
            denom *= np.abs(v1 * n1 + v2 * n2) + 1.0
        total += 1.0 / denom
    return total


# ---------------------------------------------------------------------------
# planar cell integrals (3-d instances)
# ---------------------------------------------------------------------------

# Lattice vectors per pass of the edge kernel: at 500 edges each (chunk,
# edges) complex temporary takes 8 MB.
_CHUNK = 1024


def _edge_table(polygons):
    """Start points p, vectors v and owning polygon of the edges p + s v of
    CCW polygons, and the polygon areas.  Checks each polygon once (>= 3 planar
    vertices, positive area); edges shorter than 1e-15 carry no flux and are left out."""
    verts = [np.asarray(v, dtype=np.float64) for v in polygons]
    if any(v.ndim != 2 or v.shape[1] != 2 or len(v) < 3 for v in verts):
        raise ValidationError("polygon integral needs >= 3 planar vertices")
    counts = np.array([len(v) for v in verts])
    first = np.cumsum(counts) - counts
    start = np.concatenate(verts)
    nxt = np.arange(1, len(start) + 1)
    nxt[first + counts - 1] = first
    end = start[nxt]
    vec = end - start
    area = 0.5 * np.add.reduceat(start[:, 0] * end[:, 1] - end[:, 0] * start[:, 1], first)
    if np.any(area <= 0):
        raise DegeneratePolytopeError("polygon must be counterclockwise with positive area")
    keep = np.hypot(vec[:, 0], vec[:, 1]) >= 1e-15
    owner = np.repeat(np.arange(len(verts)), counts)
    return start[keep], vec[keep], owner[keep], area


def _edge_sums(start, vec, ns: np.ndarray, weight) -> np.ndarray:
    """sum_e weight_e (n x v_e) e(-<n, p_e>) E(<n, v_e>) for every row n of ns,
    with E(z) = (e(-z) - 1)/(-2 pi i z) and a series branch near z = 0.

    By the divergence theorem the integral of e(-<n, x>) over a polygon is
    the sum over its edges of the outward flux <n, normal_e> |v_e| = n x v_e
    times the edge integral e(-<n, p_e>) E(<n, v_e>), divided by
    -2 pi i |n|^2.  Every product is taken elementwise, so a row's result
    does not depend on the other rows.  np.modf(x)[0] is fmod(x, 1), bit
    for bit, at a sixth of the cost.
    """
    n1, n2 = ns[:, :1], ns[:, 1:]
    flux = n1 * vec[:, 1] - n2 * vec[:, 0]
    z = n1 * vec[:, 0] + n2 * vec[:, 1]
    phase = np.exp(-2j * np.pi * np.modf(n1 * start[:, 0] + n2 * start[:, 1])[0])
    w = -2j * np.pi * z
    small = np.abs(z) < 1e-8
    factor = (np.exp(-2j * np.pi * np.modf(z)[0]) - 1.0) / np.where(small, 1.0, w)
    ws = w[small]
    factor[small] = 1.0 + ws / 2.0 + ws * ws / 6.0 + ws * ws * ws / 24.0
    return np.sum(weight * flux * phase * factor, axis=1)


def coefficients_3d(arr: Arrangement, ns) -> np.ndarray:
    """Exact coefficients of the piecewise-affine torus function given by an
    arrangement, at every row of a (K, 2) array of lattice vectors.

    f_hat(n) = sum_j <a_j, n> / (2 pi i |n|^2) * int_{A_j} e(-<n,x>) for
    n != 0, and the mean at n = 0.  With the cell integrals written as edge
    sums this is one sum over the edges of all cells, each weighted by its
    cell's <a_j, n>, divided by 4 pi^2 |n|^4.
    """
    ns = _lattice_vectors(ns)
    start, vec, owner, _ = _edge_table([cell.vertices for cell in arr.cells])
    grads = np.array([cell.gradient for cell in arr.cells])
    out = np.empty(len(ns), dtype=np.complex128)
    for lo in range(0, len(ns), _CHUNK):
        chunk = ns[lo:lo + _CHUNK]
        weight = chunk[:, :1] * grads[:, 0] + chunk[:, 1:] * grads[:, 1]
        out[lo:lo + _CHUNK] = _edge_sums(start, vec, chunk, weight[:, owner])
    n_sq = ns[:, 0] * ns[:, 0] + ns[:, 1] * ns[:, 1]
    zero = n_sq == 0.0
    out[~zero] /= 4.0 * math.pi ** 2 * n_sq[~zero] ** 2
    if zero.any():
        out[zero] = arr.mean()
    return out


# ---------------------------------------------------------------------------
# envelope fit (3-d instances)
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
        ns = _lattice_shell(lo, hi)
        env = flag_decay_envelopes(forms, ns)
        positive = env > 0
        ratios = np.abs(coefficients_3d(arr, ns))[positive] / env[positive]
        return float(ratios.max(initial=0.0))

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
    ns = _lattice_shell(0, n_max)
    coeffs = coefficients_3d(arr, ns)
    envs = flag_decay_envelopes(forms, ns)
    for (n1, n2), c, env in zip(ns.tolist(), coeffs, envs):
        w.writerow([n1, n2, f"{c.real:.17g}", f"{c.imag:.17g}",
                    f"{abs(c):.17g}", f"{env:.17g}"])
    return buf.getvalue()
