"""Continued fractions and small-denominator statistics of ||n*alpha||.

Everything here works on the distance-to-nearest-integer function evaluated
through exact fixed-point integers: alpha is rounded once to r/2**scale and
all residues n*alpha mod 1 are integer arithmetic after that, so scans do
not accumulate floating-point drift in n.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebraic import (
    DEFAULT_FIXED_SCALE,
    AlgebraicValue,
    _argmin,
    _dist_to_int,
    _less,
    _multiple_distances,
    _quotients,
    _residues,
    _sub,
    _to_floats,
    _to_ints,
    default_precision_bits,
)
from .errors import PrecisionExhaustedError, TailNotCertifiableError, ValidationError


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_0..a_L of a real with convergents p/q.

    ``exact`` marks a rational input whose expansion terminated before the
    requested depth.  ``lo``/``hi`` bracket the true value rigorously; every
    reported quotient is provably the quotient of any number in [lo, hi].
    """

    value: AlgebraicValue
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool
    scale_bits: int
    lo: Fraction = field(repr=False, default=Fraction(0))
    hi: Fraction = field(repr=False, default=Fraction(0))

    @property
    def depth(self) -> int:
        return len(self.partial_quotients) - 1

    def q(self, ell: int) -> int:
        return self.convergents[ell][1]

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)

    @property
    def max_quotient(self) -> int:
        return max(self.partial_quotients[1:]) if len(self.partial_quotients) > 1 else 0

    def convergent_error_bounds(self, ell: int) -> tuple[Fraction, Fraction]:
        """Rigorous lower/upper bounds on |q_ell * alpha - p_ell|."""
        p, q = self.convergents[ell]
        e_lo = q * self.lo - p
        e_hi = q * self.hi - p
        if e_lo <= 0 <= e_hi or e_hi <= 0 <= e_lo:
            if self.exact and e_lo == e_hi:
                return abs(e_lo), abs(e_lo)
            raise PrecisionExhaustedError(
                f"convergent {ell} not separated from alpha at scale {self.scale_bits}"
            )
        bounds = sorted((abs(e_lo), abs(e_hi)))
        return bounds[0], bounds[1]


def continued_fraction(x, depth: int, prec_bits: int | None = None) -> ContinuedFraction:
    """First ``depth`` partial quotients (beyond a_0 = floor(x)) of a real.

    A rational x expands exactly.  An irrational x is bracketed by
    [lo, hi] = [f - 1, f + 1] / 2**scale around its rounding f, and the
    quotients reported are those both ends share, which every number in
    [lo, hi] shares; if fewer than ``depth`` are decided,
    PrecisionExhaustedError is raised rather than guessing.
    """
    value = AlgebraicValue.coerce(x)
    bits = prec_bits if prec_bits is not None else default_precision_bits()
    whole = _expansion(value, max(bits, DEFAULT_FIXED_SCALE))
    if value.is_rational and whole.depth < depth:
        return replace(whole, exact=True)
    return _prefix(whole, depth)


def _expansion(value: AlgebraicValue, scale: int) -> ContinuedFraction:
    """Every partial quotient of value that its bracket at this scale decides."""
    frac = value.as_fraction()
    if frac is not None:
        lo = hi = frac
        quotients = _quotients(frac.numerator, frac.denominator)
    else:
        fixed = value.fixed(scale)
        lo, hi = Fraction(fixed - 1, 1 << scale), Fraction(fixed + 1, 1 << scale)
        ends = zip(_quotients(fixed - 1, 1 << scale), _quotients(fixed + 1, 1 << scale))
        quotients = [a for a, _ in itertools.takewhile(lambda ab: ab[0] == ab[1], ends)]
    convergents = []
    (p_prev, q_prev), (p, q) = (0, 1), (1, 0)  # (p_{-2}, q_{-2}), (p_{-1}, q_{-1})
    for a in quotients:
        (p_prev, q_prev), (p, q) = (p, q), (a * p + p_prev, a * q + q_prev)
        convergents.append((p, q))
    return ContinuedFraction(value=value, partial_quotients=tuple(quotients),
                             convergents=tuple(convergents), exact=False,
                             scale_bits=scale, lo=lo, hi=hi)


def _prefix(cf: ContinuedFraction, depth: int) -> ContinuedFraction:
    """The expansion to a_depth; PrecisionExhaustedError if cf stops short."""
    if cf.depth < depth:
        raise PrecisionExhaustedError(f"partial quotient {cf.depth + 1} of {cf.value!r} "
                                      f"undecided at {cf.scale_bits} bits")
    return replace(cf, partial_quotients=cf.partial_quotients[:depth + 1],
                   convergents=cf.convergents[:depth + 1])


# ---------------------------------------------------------------------------
# the series  sum_{n>=1} 1 / (n^2 ||n alpha||)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesBound:
    """Partial sum of sum 1/(n^2 ||n alpha||) plus an upper tail bound.

    The tail over a convergent block [q_l, q_{l+1}) is controlled by the
    separation of residues: any q_l consecutive integers below q_{l+1} have
    their n*alpha mod 1 pairwise at least |q_l alpha - p_l| apart and at
    least that far from 0, which caps the block at
    c * (1 + log(q_l/2 + 1)) / (q_l^2 * |q_l alpha - p_l|) summed over
    sub-chunks.  Beyond the computed expansion depth the same estimate is
    applied with partial quotients assumed bounded by ``quotient_cap``
    (recorded here; the assumption is empirical, not proved).

    The head is exact for alpha *rounded* to r/2**scale_bits:
    ``partial_sum`` is that head correctly rounded to a float.  Rounding
    alpha moves each ||n alpha|| by up to n * 2**-scale_bits; that effect is
    not in either bound.
    """

    partial_sum: float
    tail_bound: float
    n_max: int
    depth_used: int
    quotient_cap: int
    scale_bits: int


def _zeta2_from(i0: int) -> float:
    """Upper bound on sum_{i >= i0} 1/i^2."""
    if i0 <= 1:
        return math.pi ** 2 / 6.0
    return min(math.pi ** 2 / 6.0, 1.0 / (i0 - 1))


def _block_bound(q_l: int, delta_lo: float, n_min: int) -> float:
    """Upper bound on sum over n in [max(q_l, n_min), q_{l+1}) of 1/(n^2 ||n a||).

    Valid whenever delta_lo lower-bounds |q_l alpha - p_l|; chunks that
    overshoot q_{l+1} only add nonnegative slack.
    """
    harmonic = 1.0 + math.log(q_l / 2.0 + 1.0)
    i0 = max(1, n_min // q_l)
    return (2.0 * harmonic / delta_lo) * _zeta2_from(i0) / (q_l * q_l)


def diophantine_series(alpha1, n_max: int, prec_bits: int | None = None,
                       cf: ContinuedFraction | None = None) -> SeriesBound:
    """Partial sum of sum_{n=1}^{n_max} 1/(n^2 ||n alpha1||) with tail bound.

    Rational alpha1 is rejected: some ||n alpha1|| vanishes and the series
    diverges.  The tail bound beyond the computed continued-fraction depth
    assumes partial quotients stay below the largest quotient observed (at
    least 2); the assumption is recorded in the result as ``quotient_cap``.

    The head is summed in integers: with ||n alpha|| = d_n / 2**scale for
    the rounded alpha, the floors of 2**(scale+k) / (n^2 d_n) sum to s and
    the head lies in [s, s + n_max] * 2**-k.  k doubles from 128 until both
    ends give the same float; PrecisionExhaustedError if 1024
    does not settle them, or if some d_n <= 2n (the first such n is named).
    """
    value = AlgebraicValue.coerce(alpha1)
    if value.is_rational:
        raise ValidationError("diophantine_series diverges for rational alpha")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    bits = prec_bits if prec_bits is not None else default_precision_bits()
    scale = max(bits, DEFAULT_FIXED_SCALE)

    if cf is None:
        # take 32, 64, ... quotients until the last denominator comfortably
        # clears n_max; deeper is better because less weight rests on the
        # assumed cap.  Where the precision runs out first, keep every quotient
        # it decides.
        whole = _expansion(value, scale)
        depth, target = 32, max(n_max, 10 ** 6) ** 2
        while depth <= whole.depth and whole.q(depth) <= target:
            depth *= 2
        cf = _prefix(whole, max(1, min(depth, whole.depth)))
    if cf.q(cf.depth) <= n_max:
        raise TailNotCertifiableError(
            f"continued fraction reaches only q={cf.q(cf.depth)} <= n_max={n_max}"
        )

    limbs = _multiple_distances(value.fixed(scale), scale, n_max)
    unresolved = np.flatnonzero((limbs[1:] == 0).all(axis=0)
                                & (limbs[0] <= 2 * np.arange(1, n_max + 1, dtype=np.uint64)))
    if len(unresolved):
        raise PrecisionExhaustedError(
            f"||{int(unresolved[0]) + 1}*alpha|| indistinguishable from 0 at scale {scale}")

    # rounding to a float is monotone, so ends that round alike pin every
    # value between them
    squares = map(operator.mul, range(1, n_max + 1), range(1, n_max + 1))
    denominators = list(map(operator.mul, squares, _to_ints(limbs)))
    for k in (128, 256, 512, 1024):
        lo = sum(map(operator.floordiv, itertools.repeat(1 << (scale + k)), denominators))
        partial_sum = lo / (1 << k)
        if partial_sum == (lo + n_max) / (1 << k):
            break
    else:
        raise PrecisionExhaustedError(f"series head undecided at 2**-{k}")

    # blockwise tail over computed convergents
    cap = max(2, cf.max_quotient)
    qs = cf.denominators
    ell0 = max(ell for ell in range(len(qs)) if qs[ell] <= n_max)
    tail = 0.0
    for ell in range(ell0, cf.depth):
        delta_lo_frac, _ = cf.convergent_error_bounds(ell)
        delta_lo = float(delta_lo_frac) * (1.0 - 1e-12)
        if delta_lo <= 0:
            raise PrecisionExhaustedError(f"no positive bound on ||q_{ell} alpha||")
        tail += _block_bound(qs[ell], delta_lo, n_max + 1)

    # remainder beyond the expansion: Fibonacci-type lower bounds on q and
    # the assumed quotient cap give a summable overestimate.  Denominators
    # at least double every two steps, so once the explicit terms stop the
    # rest is below 10x the last term.
    const = (math.pi ** 2 / 3.0) * (cap + 2)
    u, v = (qs[-2] if len(qs) >= 2 else 1), qs[-1]
    remainder = 0.0
    last_term = const * (1.0 + math.log(v / 2.0 + 1.0)) / v
    for _ in range(400):
        last_term = const * (1.0 + math.log(v / 2.0 + 1.0)) / v
        remainder += last_term
        u, v = v, u + v
        if last_term < 1e-32:
            break
        if v > 1e120:
            v = 1e120  # keep float conversion finite; only loosens the bound
            u = min(u, v)
    tail += remainder + 10.0 * last_term

    return SeriesBound(
        partial_sum=partial_sum,
        tail_bound=tail,
        n_max=n_max,
        depth_used=cf.depth,
        quotient_cap=cap,
        scale_bits=scale,
    )


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationHit:
    n: int
    distance: float
    threshold: float


@dataclass(frozen=True)
class ExponentScan:
    alpha: str
    eta: float
    n_max: int
    hits: tuple[ApproximationHit, ...]
    worst_exponent: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "distance", "threshold"])
        for h in self.hits:
            w.writerow([h.n, f"{h.distance:.17g}", f"{h.threshold:.17g}"])
        return buf.getvalue()


def approximation_exponent_scan(alpha1, n_max: int, eta: float,
                                scale_bits: int = DEFAULT_FIXED_SCALE) -> ExponentScan:
    """All 1 <= n <= n_max with ||n alpha1|| < n**(-eta), plus the worst
    exponent log(1/||n alpha1||)/log n observed over n >= 2.

    Rational alpha is accepted; exact hits there report distance 0.
    """
    value = AlgebraicValue.coerce(alpha1)
    step = value.fixed(scale_bits)
    count = max(n_max, 0)
    dist = _to_floats(_multiple_distances(step, scale_bits, count), scale_bits)
    ns = np.arange(1, count + 1, dtype=np.float64)

    # numpy's pow and log may differ from libm's in the last bit, so they
    # only preselect candidates; reported values are Python float results
    hits = []
    for n in (np.flatnonzero(dist < ns ** (-eta) * (1.0 + 1e-9)) + 1).tolist():
        d, threshold = float(dist[n - 1]), n ** (-eta)
        if d < threshold:
            hits.append(ApproximationHit(n=n, distance=d, threshold=threshold))
    worst = float("-inf")
    if count >= 2:
        if not dist[1:].all():
            worst = float("inf")
        else:
            expo = -np.log(dist[1:]) / np.log(ns[1:])
            for n in (np.flatnonzero(expo >= expo.max() * (1.0 - 1e-9)) + 2).tolist():
                worst = max(worst, -math.log(dist[n - 1]) / math.log(n))
    return ExponentScan(
        alpha=value.literal(),
        eta=eta,
        n_max=n_max,
        hits=tuple(hits),
        worst_exponent=worst if worst != float("-inf") else float("nan"),
    )


# ---------------------------------------------------------------------------
# multi-dimensional small-denominator scan and dyadic spacing audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchmidtHit:
    n: tuple[int, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SchmidtScan:
    gamma: float
    n_max: int
    hits: tuple[SchmidtHit, ...]
    fitted_c: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        dim = len(self.hits[0].n) if self.hits else 0
        w.writerow([f"n{i + 1}" for i in range(max(dim, 1))] + ["lhs", "rhs"])
        for h in self.hits:
            w.writerow(list(h.n) + [f"{h.lhs:.17g}", f"{h.rhs:.17g}"])
        return buf.getvalue()


def schmidt_inequality_scan(alpha_values, forms, gamma: float, n_max: int,
                            scale_bits: int = DEFAULT_FIXED_SCALE) -> SchmidtScan:
    """Scan 0 < |n|_inf <= n_max for ||<n, alpha>|| * prod(|L_k(n)|+1) < |n|^-gamma.

    ``forms`` is a sequence of coefficient vectors for the linear forms L_k.
    Also fits the largest constant C with lhs >= C |n|^-gamma over the scan,
    which downstream dyadic audits take as their threshold.  Powers of |n|
    are Python float results, one per distinct norm.
    """
    values = [AlgebraicValue.coerce(a) for a in alpha_values]
    steps = [v.fixed(scale_bits) for v in values]
    form_rows = [tuple(float(c) for c in f) for f in forms]
    dim = len(values)

    hits = []
    fitted_c = float("inf")
    for pts in _cube(n_max, dim) if dim else ():
        pts = pts[:, (pts != 0).any(axis=0)]
        dist = _to_floats(_dist_to_int(_residues(pts, steps, scale_bits), scale_bits),
                          scale_bits)
        prod = np.ones(pts.shape[1])
        for row in form_rows:
            prod *= np.abs(_form_sizes(row, pts)) + 1.0
        lhs = dist * prod
        norm2, which = np.unique((pts * pts).sum(axis=0), return_inverse=True)
        norms = [math.sqrt(v) for v in norm2.tolist()]
        rhs = np.array([norm ** (-gamma) for norm in norms])[which]
        up = np.array([norm ** gamma for norm in norms])[which]
        fitted_c = float((lhs * up).min(initial=fitted_c))
        for i in np.flatnonzero(lhs < rhs).tolist():
            hits.append(SchmidtHit(n=tuple(pts[:, i].tolist()), lhs=float(lhs[i]),
                                   rhs=float(rhs[i])))
    return SchmidtScan(gamma=gamma, n_max=n_max, hits=tuple(hits), fitted_c=fitted_c)


@dataclass(frozen=True)
class DyadicBlock:
    """Lattice vectors with 2^ell <= |n| < 2^(ell+1) and dyadically pinned
    form sizes 2^(ell_k) <= |L_k(n)| + 1 < 2^(ell_k+1): int64 ``coords``, one
    column per vector, from which ``members`` builds Python int tuples on
    first use.  Blocks compare by level, form levels and capacity only."""

    ell: int
    ell_ks: tuple[int, ...]
    coords: np.ndarray = field(compare=False)
    capacity: int  # the H of the spacing claims

    def __post_init__(self):
        try:  # a ragged list raises ValueError, a float, object or uint64 array TypeError
            coords = np.asarray(self.coords).astype(np.int64, casting="safe", copy=False)
            if coords.ndim != 2:
                raise ValueError(f"got shape {coords.shape}")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"block coordinates must be a 2-d int64 array: {exc}") from exc
        object.__setattr__(self, "coords", coords)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.coords.tolist()))


def block_capacity(c: float, gamma: float, ell: int, ell_ks: tuple[int, ...]) -> int:
    if not 0 < c < math.inf:
        raise ValidationError(f"block capacity needs a positive finite fitted c, got {c!r}")
    log2_h = sum(lk + 2 for lk in ell_ks) + gamma * (ell + 2) - math.log2(c)
    return math.ceil(2.0 ** log2_h)


# Cube points (scans, dyadic blocks) and block members (audits) are
# processed this many at a time, which bounds the numpy temporaries.
_CHUNK = 1 << 18


def _cube(limit: int, dim: int):
    """The points of [-limit, limit]^dim in lexicographic order, as int64
    columns (one row per axis), a slab of first coordinates at a time."""
    side = range(-limit, limit + 1)  # a fractional limit raises here
    values = np.arange(side.start, side.stop, dtype=np.int64)
    rows = max(1, _CHUNK // max(len(values), 1) ** (dim - 1))
    for start in range(0, len(values), rows):
        grid = np.meshgrid(values[start:start + rows], *[values] * (dim - 1),
                           indexing="ij")
        yield np.stack([axis.ravel() for axis in grid])


def _form_sizes(row, pts: np.ndarray) -> np.ndarray:
    """L(n) for each column n, summed in float64 term by term in coefficient
    order: the same operations as a Python ``sum``."""
    size = np.zeros(pts.shape[1])
    for k, coeff in enumerate(row[:len(pts)]):
        size = size + coeff * pts[k].astype(np.float64)
    return size


def materialize_dyadic_block(forms, gamma: float, c: float, ell: int,
                             ell_ks: tuple[int, ...], dim: int) -> DyadicBlock:
    """Members of the cube [-2^(ell+1), 2^(ell+1)]^dim in lexicographic order.

    Norms are exact int64 and form sizes are summed as a Python ``sum``
    would, so membership at a boundary is decided identically.
    """
    form_rows = [tuple(float(x) for x in f) for f in forms]
    if len(form_rows) != len(ell_ks):
        raise ValidationError("one dyadic index per linear form is required")
    lo2, hi2 = 4 ** ell, 4 ** (ell + 1)
    pieces = []
    # the empty vector has norm 0 and is never a member
    for pts in _cube(2 ** (ell + 1), dim) if dim > 0 else ():
        norm2 = (pts * pts).sum(axis=0)
        pts = pts[:, (norm2 >= lo2) & (norm2 < hi2)]
        keep = np.ones(pts.shape[1], dtype=bool)
        for row, lk in zip(form_rows, ell_ks):
            size = np.abs(_form_sizes(row, pts)) + 1.0
            keep &= (2.0 ** lk <= size) & (size < 2.0 ** (lk + 1))
        pieces.append(pts[:, keep])
    return DyadicBlock(
        ell=ell,
        ell_ks=tuple(ell_ks),
        coords=(np.concatenate(pieces, axis=1) if pieces
                else np.zeros((dim, 0), dtype=np.int64)),
        capacity=block_capacity(c, gamma, ell, ell_ks),
    )


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    block: DyadicBlock
    min_abs: float
    min_gap: float
    violations: tuple[str, ...]


def dyadic_spacing_audit(alpha_values, block: DyadicBlock,
                         scale_bits: int = DEFAULT_FIXED_SCALE) -> AuditResult:
    """Check |g(n)| >= 1/H and pairwise |g(n) - g(m)| > 1/H on a block.

    g(n) is <n, alpha> mod 1 mapped to (-1/2, 1/2] (right closed).  The
    comparisons run on exact scaled integers: H * |rho| vs 2**scale, with
    rho the representative times 2**scale.  Members are sorted by (rho, n)
    and the gaps taken between neighbours.

    rho is held as key = rho + 2**(scale-1) - 1, which lies in
    [0, 2**scale) and orders like rho, as residue-kernel limbs; both tests become
    comparisons of keys or key differences with integer thresholds derived
    from 2**scale / H.  Python ints appear only for the minima and for the
    text of violations.
    """
    values = [AlgebraicValue.coerce(a) for a in alpha_values]
    steps = [v.fixed(scale_bits) for v in values]
    half = 1 << (scale_bits - 1)
    full = 1 << scale_bits
    offset = half - 1
    h = block.capacity
    inv = 2.0 ** -scale_bits
    coords = block.coords
    count = coords.shape[1]
    if not count:
        return AuditResult(passed=True, block=block, min_abs=float("inf"),
                           min_gap=float("inf"), violations=())

    key = np.concatenate([_residues(coords[:len(steps), i:i + _CHUNK], steps, scale_bits,
                                    offset)
                          for i in range(0, count, _CHUNK)], axis=1)

    def rho_of(i: int) -> int:
        return _to_ints(key[:, [i]])[0] - offset

    violations = []
    # h * |rho| < full  <=>  |rho| < ceil(full / h)  <=>  -t < rho < t;
    # t = full admits every rho, as h <= 0 does
    t = -(-full // h) if h > 0 else full
    small = _less(key, offset + t) & ~_less(key, offset - t + 1)
    for i in np.flatnonzero(small).tolist():
        n = tuple(coords[:, i].tolist())
        violations.append(f"|g({n})| = {abs(rho_of(i)) * inv:.3e} < 1/{h}")

    # order by (rho, n): one sort on the top limb unless it has ties
    order = np.argsort(key[-1])
    top = key[-1][order]
    if np.any(top[1:] == top[:-1]):
        order = np.lexsort((*coords[::-1], *key))
    ranked = key[:, order]
    negatives = int(np.count_nonzero(_less(key, offset)))
    nearest = [rho_of(int(order[i])) for i in (negatives - 1, negatives)
               if 0 <= i < count]
    min_abs = min(abs(r) for r in nearest) * inv

    min_gap = float("inf")
    if count > 1:
        gaps = _sub(ranked[:, 1:], ranked[:, :-1])
        min_gap = _to_ints(gaps[:, [_argmin(gaps)]])[0] * inv
        # h * gap <= full  <=>  gap < floor(full / h) + 1
        close = _less(gaps, full // h + 1 if h > 0 else full)
        for i in np.flatnonzero(close).tolist():
            n1, n2 = (tuple(coords[:, j].tolist()) for j in order[i:i + 2])
            gap = _to_ints(gaps[:, [i]])[0]
            violations.append(f"|g({n2}) - g({n1})| = {gap * inv:.3e} <= 1/{h}")

    return AuditResult(
        passed=not violations,
        block=block,
        min_abs=min_abs,
        min_gap=min_gap,
        violations=tuple(violations),
    )
