"""Linear slices of stable polynomials and the compression descent.

A slice is the set of stable monic degree-n polynomials whose coefficient
vector z satisfies L z = a.  This module provides membership, the
compactness bounds for slices pinning z1 and z2, kernel perturbation
directions (the convolution map chi), the maximal stable step along a
direction, and ``compress``, which walks a slice member down to a
representative with few distinct roots while preserving membership.

Directions returned by the kernel operations have the form c = chi(b),
the coefficient vector of h(T) * cofactor(T) for h built from b.  Because
z-coordinates are Vieta-signed, the cofactor handed to ``kernel_direction``
must be expanded from the *negated* roots of the frozen factor; see
``alternated_cofactor``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonConvergence
from .polynomials import (
    BOUNDARY_SCALE,
    CLUSTER_SCALE,
    Poly,
    RootProfile,
    _deflate,
    cluster_roots,
    find_roots,
    find_roots_rows,
    raw_to_z,
    vieta_from_roots,
    z_to_raw,
)
# upper_chart is imported only so that bench/tracing.py, which patches it by
# name, finds it; compress no longer uses a coefficient chart
from .regions import HalfPlane, upper_chart  # noqa: F401
from .stability import is_stable

NULLSPACE_SCALE = 1e-10
MEMBERSHIP_SCALE = 1e-9
# Fraction of boundary_tol left as headroom when the line search stops at
# a stability event; landed roots must not poke past the boundary band.
STEP_MARGIN = 0.5
# terminal width of the step search bracket; a fold crossed at parameter
# distance d leaves the colliding pair split by about sqrt(d * curvature),
# so the landing has to be resolved far below the clustering radius squared
STEP_REL_WIDTH = 1e-15
# relative distance of the two probes that verify a predicted step, one on
# each side of it.  Raw-root noise can move a landing this far from its
# prediction (1e-9 relative on a degree-9 mover factor); the probe then
# disagrees, and the doubling fallback brackets the step instead
STEP_VERIFY_DELTA = 1e-9
# largest step any search tries; a direction still stable there is
# reported unbounded
STEP_CAP = 1e9
# |Im t| / (1 + |t|) up to which a root t of the crossing polynomial counts
# as real: a spurious candidate only fails verification, a missed one could
# step over a crossing
_CROSSING_REAL_TOL = 1e-6
# ITP constants of the bracketing phase: kappa1 (scaled by the initial
# bracket width), kappa2 and the slack n0 over bisection's probe count
_ITP_KAPPA1 = 0.2
_ITP_KAPPA2 = 2.0
_ITP_N0 = 1
_EVENT_RADIUS_FACTOR = 1e3
_PHI_STREAM = 7
# micro-step allowance for the boundary position walk across all merges
_WALK_BUDGET = 20000


def membership_tolerance(target: np.ndarray) -> float:
    a = np.asarray(target, dtype=complex)
    top = float(np.max(np.abs(a))) if a.size else 0.0
    return MEMBERSHIP_SCALE * (1.0 + top)


@dataclasses.dataclass(frozen=True)
class Slice:
    """Linear constraint L z = a on Vieta coefficient vectors.

    ``rows`` is the k x n matrix L stored row-wise, ``target`` the vector a.
    """

    rows: tuple[tuple[complex, ...], ...]
    target: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.target):
            raise DimensionMismatch("row count does not match target length")
        widths = {len(row) for row in self.rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged constraint matrix")
        entries = [v for row in self.rows for v in row] + list(self.target)
        if entries and not np.all(np.isfinite(np.asarray(entries, dtype=complex).view(float))):
            raise ValueError("constraint entries must be finite")

    @classmethod
    def from_arrays(cls, matrix, target) -> "Slice":
        m = np.atleast_2d(np.asarray(matrix, dtype=complex))
        a = np.asarray(target, dtype=complex).ravel()
        if m.size == 0:
            m = m.reshape(0, m.shape[-1] if m.ndim == 2 and m.shape[-1] else 0)
        rows = tuple(tuple(complex(v) for v in row) for row in m)
        return cls(rows=rows, target=tuple(complex(v) for v in a))

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @cached_property
    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, 0), dtype=complex)
        return np.asarray(self.rows, dtype=complex)

    @cached_property
    def target_vector(self) -> np.ndarray:
        return np.asarray(self.target, dtype=complex)

    @cached_property
    def rank(self) -> int:
        if self.k == 0 or self.n == 0:
            return 0
        return _rank(self.matrix)

    def residual(self, z) -> float:
        if self.k == 0:
            return 0.0
        zv = _coeff_vector(z, self.n)
        return float(np.max(np.abs(self.matrix @ zv - self.target_vector)))


def _coeff_vector(z, n: int | None = None) -> np.ndarray:
    if isinstance(z, Poly):
        v = np.asarray(z.z, dtype=complex)
    else:
        v = np.asarray(z, dtype=complex).ravel()
    if n is not None and v.size != n:
        raise DimensionMismatch(f"expected length {n}, got {v.size}")
    return v


def slice_contains(S: Slice, p: Poly, halfplane: HalfPlane | None = None,
                   tol: float | None = None) -> bool:
    """Membership test: linear residual within tol and all roots in H."""
    if S.k and p.degree != S.n:
        raise DimensionMismatch("polynomial degree does not match slice dimension")
    if tol is None:
        tol = membership_tolerance(S.target_vector)
    if S.residual(p) > tol:
        return False
    return is_stable(p, halfplane).stable


@dataclasses.dataclass(frozen=True)
class Bounds:
    """A-priori root bounds for slices pinning z1 and z2.

    Imaginary parts of all roots lie in [im_lo, im_hi]; the sum of squared
    real parts is at most re_sq_bound.
    """

    im_hi: float
    re_sq_bound: float
    im_lo: float = 0.0


def compactness_bounds(a1: complex, a2: complex, n: int) -> Bounds | None:
    """Root box for the slice {z1 = a1, z2 = a2}; None when it is empty.

    Both bounds come from expanding power sums of the roots: the z1 row
    caps each imaginary part by Im(a1), and Re(p2) = Re(a1^2 - 2 a2)
    dominates the real-part square sum once the imaginary slack n*Im(a1)^2
    is added back.  A negative value on either side leaves no room for a
    sum of nonnegative terms, so no stable polynomial fits.

    For n = 2 the two pins determine the polynomial outright, so emptiness
    is decided exactly from the quadratic formula instead of the window
    heuristics.
    """
    if n < 2:
        raise ValueError("bounds need degree at least 2")
    a1 = complex(a1)
    a2 = complex(a2)
    im_hi = a1.imag
    re_sq = (a1 * a1 - 2.0 * a2).real + n * a1.imag ** 2
    if im_hi < 0.0 or re_sq < 0.0:
        return None
    if n == 2:
        disc = np.sqrt(complex(a1 * a1 - 4.0 * a2))
        margin = min(((a1 + disc) / 2.0).imag, ((a1 - disc) / 2.0).imag)
        if margin < -1e-12 * (1.0 + abs(a1) + abs(a2)):
            return None
    return Bounds(im_hi=im_hi, re_sq_bound=re_sq)


def _rank(A: np.ndarray, s: np.ndarray | None = None) -> int:
    """Count of singular values above NULLSPACE_SCALE times the largest.

    s, when given, holds the singular values of A already computed.
    """
    if s is None:
        s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > NULLSPACE_SCALE * s[0])) if s.size else 0


def _kernel_basis(A: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of the k x m matrix A, as columns."""
    if A.shape[0] == 0:
        return np.eye(m)
    # svd returns V conjugate-transposed; kernel vectors are columns of V
    _, s, vh = np.linalg.svd(A)
    return np.conj(vh[_rank(A, s):]).T


def _row_in_span(matrix: np.ndarray, row: np.ndarray) -> bool:
    if matrix.shape[0] == 0:
        return False
    return _rank(np.vstack([matrix, row])) == _rank(matrix)


def augment(S: Slice, z0) -> Slice:
    """Pin z1 and z2 to their current values unless already determined.

    The extra rows make every slice segment bounded (see
    ``compactness_bounds``), which is what lets the line searches in
    ``compress`` terminate.  Unit rows already in the row span of L are
    skipped.
    """
    z = _coeff_vector(z0, S.n if S.k else None)
    n = S.n if S.k else z.size
    rows = list(S.rows)
    target = list(S.target)
    matrix = S.matrix if S.k else np.zeros((0, n), dtype=complex)
    for j in range(min(2, n)):
        unit = np.zeros(n, dtype=complex)
        unit[j] = 1.0
        if _row_in_span(matrix, unit):
            continue
        rows.append(tuple(unit))
        target.append(complex(z[j]))
        matrix = np.vstack([matrix, unit])
    return Slice(rows=tuple(rows), target=tuple(target))


def alternated_cofactor(roots: Sequence[complex]) -> np.ndarray:
    """Raw coefficients of prod (T + x) over the given roots.

    Multiplying a direction through the chi map happens on raw
    coefficients, where the Vieta signs alternate; negating the frozen
    roots here is exactly what cancels that alternation, so the resulting
    direction c perturbs f by h_alt * prod (T - x).
    """
    out = np.ones(1, dtype=complex)
    for x in roots:
        out = np.convolve(out, np.array([1.0, complex(x)], dtype=complex))
    return out


def _convolution_matrix(cofactor: np.ndarray, m: int) -> np.ndarray:
    cof = np.asarray(cofactor, dtype=complex).ravel()
    n = cof.size - 1 + m
    X = np.zeros((n, m), dtype=complex)
    for j in range(m):
        X[j:j + cof.size, j] = cof
    return X


@dataclasses.dataclass(frozen=True)
class KernelDirection:
    b: tuple[complex, ...]
    c: tuple[complex, ...]


def kernel_direction(S: Slice, cofactor, m: int) -> KernelDirection | None:
    """Nonzero b with L(chi(b)) = 0, where chi(b) = coefficients of h * cofactor.

    h is the degree m-1 polynomial with coefficient vector b.  Returns
    None when the constraint matrix has full column rank, i.e. no kernel,
    or when c = chi(b) leaves the slice constraint numerically.
    """
    cof = np.asarray(cofactor, dtype=complex).ravel()
    if m < 1:
        raise DimensionMismatch("mover count must be positive")
    if S.k and S.n != cof.size - 1 + m:
        raise DimensionMismatch("cofactor degree does not match slice dimension")
    X = _convolution_matrix(cof, m)
    A = S.matrix @ X if S.k else np.zeros((0, m), dtype=complex)
    V = _kernel_basis(A, m)
    if V.shape[1] == 0:
        return None
    b = V[:, -1].astype(complex)
    b = b / b[int(np.argmax(np.abs(b)))]
    c = X @ b
    if S.k:
        lead = float(np.max(np.abs(S.matrix))) if S.matrix.size else 0.0
        limit = NULLSPACE_SCALE * max(1.0, lead) * max(float(np.max(np.abs(c))), 1e-300)
        if float(np.max(np.abs(S.matrix @ c))) > 10.0 * limit:
            return None
    return KernelDirection(b=tuple(b), c=tuple(c))


@dataclasses.dataclass(frozen=True)
class StepResult:
    epsilon: float
    event: str
    roots: tuple[complex, ...] = ()


def _min_distance(roots, halfplane: HalfPlane) -> float:
    return min(halfplane.signed_distance(x) for x in roots)


def _min_gap(roots) -> float:
    arr = np.asarray(roots, dtype=complex)
    if arr.size < 2:
        return float("inf")
    diff = np.abs(arr[:, None] - arr[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def _first_crossing(move_z: np.ndarray, move_b: np.ndarray, H: HalfPlane,
                    cut: float) -> float | None:
    """Predicted first epsilon at which a root of f_{move_z + eps move_b}
    reaches the line {signed distance = -cut}.

    On that line x = a + w t with t real.  With P and C the two members of
    the pencil composed with it, a root sits at t exactly when
    eps = -P(t)/C(t) is real, so t is a real root of the real polynomial
    F = Im(P conj C), of degree at most 2m - 1 for m roots (Fisk, arXiv
    math/0612833).
    Returns the smallest positive such eps, math.inf when there is none,
    and None when F vanishes to rounding.
    """
    w = cmath.exp(1j * H.theta)
    a = H.from_upper(-1j * cut)
    rows = np.stack((z_to_raw(move_z), z_to_raw(move_b)))
    rows[1, 0] = 0.0  # the direction leaves the monic leading term alone
    line = rows[:, :1]
    for j in range(1, rows.shape[1]):
        # Horner in t: line * (w t + a) + next coefficient
        nxt = np.zeros((2, j + 1), dtype=complex)
        nxt[:, :-1] = w * line
        nxt[:, 1:] += a * line
        nxt[:, -1] += rows[:, j]
        line = nxt
    P, C = line
    F = np.convolve(P, np.conj(C)).imag
    noise = 8.0 * F.size * np.finfo(float).eps * float(np.max(np.abs(P)) * np.max(np.abs(C)))
    above = np.flatnonzero(np.abs(F) > noise)
    if above.size == 0:
        return None
    # leading coefficients at rounding level only add roots near infinity
    t = np.roots(F[above[0]:])
    t = t.real[np.abs(t.imag) <= _CROSSING_REAL_TOL * (1.0 + np.abs(t))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = (-np.polyval(P, t) / np.polyval(C, t)).real
    eps = eps[np.isfinite(eps) & (eps > 0.0)]
    return float(eps.min()) if eps.size else math.inf


def max_stable_step(movers, b, frozen=(), halfplane: HalfPlane | None = None, *,
                    boundary_tol: float | None = None,
                    cluster_radius: float | None = None) -> StepResult:
    """Largest epsilon in [0, STEP_CAP] at which the moving factor, with
    coefficient vector vieta(movers) + epsilon*b, times the frozen factor
    prod (T - x) stays stable: predict, verify, then ITP.

    This is how ``compress`` steps: a kernel direction c = chi(b) only
    stirs the moving factor, so the search tracks the movers alone.  The
    frozen roots do not drift and, crucially, a frozen multiple root never
    has to be re-derived from the full coefficient vector, which
    simple-root iterations cannot do to full accuracy; they are appended
    unchanged to every reported configuration.

    The acceptance predicate allows roots a hair past the boundary
    (STEP_MARGIN of boundary_tol) so that the landed configuration stays
    stable under the full tolerance.  The first inadmissible step is
    predicted exactly from the crossing polynomial (``_first_crossing``)
    and verified by two raw probes, STEP_VERIFY_DELTA inside it and
    outside it; with no crossing predicted up to STEP_CAP, one probe there
    confirms the direction unbounded.  The ITP method then narrows the
    verified bracket on the margin (min signed distance + allowance).  It
    converges superlinearly where the margin is smooth and at worst spends
    _ITP_N0 probes more than bisection to the same width.  Only when there
    is no prediction or a probe disagrees with it does doubling from a
    tiny eps0 bracket the first inadmissible step instead; doubling can
    step over a window in which a root leaves and comes back.  The event
    reports what limited the step: an interior root reaching the boundary,
    two boundary roots merging, or no event up to STEP_CAP.
    """
    base_move = tuple(complex(x) for x in movers)
    frozen = tuple(complex(x) for x in frozen)
    move_z = np.asarray(vieta_from_roots(base_move).z, dtype=complex)
    move_b = _coeff_vector(b, len(base_move))
    H = halfplane if halfplane is not None else HalfPlane.upper()
    roots0 = base_move + frozen
    scale = 1.0 + max(abs(x) for x in roots0)
    btol = boundary_tol if boundary_tol is not None else BOUNDARY_SCALE * scale
    radius = cluster_radius if cluster_radius is not None else CLUSTER_SCALE * scale
    min0 = _min_distance(roots0, H)
    if min0 < -btol:
        raise ValueError("base point is not stable")
    cut = STEP_MARGIN * btol
    if min0 < 0.0:
        cut = max(cut, -min0 + 0.05 * btol)

    def probe_at(eps: float, warm):
        # raw iterates: near a collision the snapped double would report
        # "on the boundary" even from the unstable side, so the search
        # must see the unvarnished configuration
        return find_roots(Poly(tuple(move_z + eps * move_b)), initial=warm, raw=True)

    def settle_at(eps: float, warm):
        q = Poly(tuple(move_z + eps * move_b))
        try:
            settled = find_roots(q, initial=warm)
        except NonConvergence:
            settled = find_roots(q)
        return tuple(settled) + frozen

    def margin(roots) -> float:
        # continuous form of the acceptance predicate: admissible iff >= 0
        return _min_distance(roots, H) + cut

    lo, roots_lo, g_lo = 0.0, base_move, margin(base_move)
    hi = None
    predicted = _first_crossing(move_z, move_b, H, cut)
    if predicted is not None and predicted > STEP_CAP:
        probe = probe_at(STEP_CAP, base_move)
        if margin(probe) >= 0.0:
            final = settle_at(STEP_CAP, probe)
            return StepResult(epsilon=STEP_CAP, event="direction-unbounded", roots=tuple(final))
    elif predicted is not None:
        inner = predicted * (1.0 - STEP_VERIFY_DELTA)
        rt_in = probe_at(inner, base_move)
        g_in = margin(rt_in)
        if g_in >= 0.0:
            outer = min(STEP_CAP, predicted * (1.0 + STEP_VERIFY_DELTA))
            rt_out = probe_at(outer, rt_in)
            g_out = margin(rt_out)
            if g_out < 0.0:
                lo, roots_lo, g_lo, hi, g_hi = inner, rt_in, g_in, outer, g_out

    if hi is None:
        # fallback: no prediction, or a probe disagreed with it
        eps0 = min(STEP_CAP, 1e-8 * (1.0 + float(np.max(np.abs(move_z))))
                   / (1.0 + float(np.max(np.abs(move_b)))))
        probe = probe_at(eps0, base_move)
        g = margin(probe)
        if g >= 0.0:
            lo, roots_lo, g_lo = eps0, probe, g
            while lo < STEP_CAP:
                trial = min(STEP_CAP, lo * 2.0)
                rt = probe_at(trial, roots_lo)
                g = margin(rt)
                if g >= 0.0:
                    lo, roots_lo, g_lo = trial, rt, g
                    if trial >= STEP_CAP:
                        break
                else:
                    hi, g_hi = trial, g
                    break
            if hi is None:
                final = settle_at(STEP_CAP, roots_lo)
                return StepResult(epsilon=STEP_CAP, event="direction-unbounded", roots=tuple(final))
        else:
            hi, g_hi = eps0, g

    # ITP (Oliveira & Takahashi, ACM TOMS 47, 2020): a regula falsi point
    # truncated towards the midpoint and projected into the ball that keeps
    # bisection's worst-case probe count plus n0; the absolute tolerance is
    # the terminal width at lo, never wider than the one tested below
    width0 = hi - lo
    half_tol = 0.5 * STEP_REL_WIDTH * (1.0 + lo)
    n_max = math.ceil(math.log2(max(width0, half_tol) / (2.0 * half_tol))) + _ITP_N0
    j = 0
    while hi - lo > STEP_REL_WIDTH * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        radius_j = half_tol * 2.0 ** (n_max - j) - 0.5 * width
        delta = _ITP_KAPPA1 / width0 * width ** _ITP_KAPPA2
        x_f = lo + g_lo * width / (g_lo - g_hi)
        x_t = mid
        if math.isfinite(x_f):
            sigma = 1.0 if mid >= x_f else -1.0
            if delta <= abs(mid - x_f):
                x_t = x_f + sigma * delta
            # a truncation below the float spacing would probe an end again
            x_t = min(max(x_t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
            if abs(x_t - mid) > radius_j:
                x_t = mid - sigma * radius_j
        j += 1
        if not lo < x_t < hi:
            break
        rt = probe_at(x_t, roots_lo)
        g = margin(rt)
        if g >= 0.0:
            lo, roots_lo, g_lo = x_t, rt, g
        else:
            hi, g_hi = x_t, g

    final = settle_at(lo, roots_lo) if lo > 0.0 else roots0
    relaxed = radius * _EVENT_RADIUS_FACTOR
    before = cluster_roots(roots0, H, radius=relaxed, boundary_tol=btol)
    after = cluster_roots(final, H, radius=relaxed, boundary_tol=btol)
    if after.interior_total < before.interior_total:
        event = "root-hit-boundary"
    elif after.boundary_distinct < before.boundary_distinct:
        event = "real-roots-merged"
    elif _min_gap(final) < relaxed <= _min_gap(roots0):
        event = "real-roots-merged"
    else:
        event = "root-hit-boundary"
    return StepResult(epsilon=float(lo), event=event, roots=tuple(final))


@dataclasses.dataclass(frozen=True)
class CompressOptions:
    functional_seed: int = 0
    cluster_radius: float | None = None
    boundary_tol: float | None = None


@dataclasses.dataclass(frozen=True)
class CompressionStep:
    mode: str
    direction: tuple[complex, ...]
    step_size: float
    event: str
    measure_after: tuple[int, int]
    membership_residual: float
    stable: bool


@dataclasses.dataclass(frozen=True)
class CompressionReport:
    initial_profile: RootProfile
    final_profile: RootProfile
    final_z: Poly
    steps: tuple[CompressionStep, ...]
    iterations: int
    rank: int
    sharpened: bool
    targets: tuple[int, int]
    checkpoints: tuple[tuple[int, int], ...]
    origin_boundary_clusters: int

    @property
    def measure(self) -> tuple[int, int]:
        return self.final_profile.measure()


def _is_coordinate_prefix(matrix: np.ndarray, rank: int) -> bool:
    # Sharpened bounds apply only when the row space is exactly the span of
    # the first `rank` coordinate directions.
    if matrix.shape[0] == 0 or rank == 0:
        return False
    if rank >= matrix.shape[1]:
        return False
    tail = matrix[:, rank:]
    top = float(np.max(np.abs(matrix)))
    return float(np.max(np.abs(tail))) <= NULLSPACE_SCALE * (1.0 + top)


def _state_roots(x: np.ndarray, mu: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    moving = np.repeat(x.astype(complex), mu)
    return np.concatenate([moving, frozen]) if frozen.size else moving


def _position_tangents(x: np.ndarray, mu: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """Columns d z / d x_i for a root multiset parametrized by positions.

    Moving the whole multiplicity-mu_i stack at x_i perturbs the product
    by -mu_i * f / (T - x_i); the Vieta signs turn the raw coefficients of
    that quotient into the z-perturbation.
    """
    roots = _state_roots(x, mu, frozen)
    w = np.asarray(vieta_from_roots(roots).raw_coefficients(), dtype=complex)
    cols = np.empty((roots.size, x.size), dtype=complex)
    for i in range(x.size):
        q = _deflate(w, complex(x[i]))
        cols[:, i] = -float(mu[i]) * raw_to_z(np.concatenate(([0.0], q)))
    return cols


def _fiber_correct(x: np.ndarray, mu: np.ndarray, frozen: np.ndarray,
                   S2: Slice, H: HalfPlane,
                   tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Newton-project a walk state onto {L z(x) = a}, multiplicities fixed.

    Boundary positions move along the boundary line of H; the interior
    roots are free to absorb the part of the residual that the line-bound
    positions alone cannot reach, but they are weighted to move only when
    the positions cannot do the job.  Unlike a least-squares correction
    of the coefficient vector, moving positions can never split a stack,
    so the multiplicity structure survives the projection exactly.
    """
    nx, nfr, err = _fiber_correct_mixed(
        x, mu, frozen, np.ones(frozen.size, dtype=int), S2, H, tol,
        xc_weight=1e-3)
    ok = err <= tol
    if ok and nfr.size and float(np.min(H.signed_distances(nfr))) <= 0.0:
        ok = False
    return nx, nfr, ok


def _fiber_correct_mixed(xr: np.ndarray, mur: np.ndarray,
                         xc: np.ndarray, muc: np.ndarray,
                         S2: Slice, H: HalfPlane, tol: float,
                         xc_weight: float = 1.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton-project a mixed root state onto {L z(x) = a}.

    A boundary root is a real line coordinate t standing for the root
    H.from_upper(t), so it gets one degree of freedom along the boundary
    line; an interior root gets two.  Multiplicities never change, so
    stacks survive the projection.  A small xc_weight makes the interior
    positions expensive, so they only move when the line coordinates
    cannot reach the residual.  Returns the best line coordinates and
    interior positions found and the residual they achieve.
    """
    nr, nc = xr.size, xc.size
    t, xc = np.asarray(xr, dtype=float), np.asarray(xc, dtype=complex)
    mu = np.concatenate([mur, muc]).astype(int)
    w = cmath.exp(1j * H.theta)
    empty = np.zeros(0, dtype=complex)
    best, best_err = (t, xc), np.inf
    prev = np.inf
    for _ in range(16):
        pos = np.concatenate([H.from_upper(t), xc])
        zc = np.asarray(vieta_from_roots(_state_roots(pos, mu, empty)).z, dtype=complex)
        res = S2.matrix @ zc - S2.target_vector
        err = float(np.max(np.abs(res))) if res.size else 0.0
        if err < best_err:
            best, best_err = (t, xc), err
        if err <= 0.01 * tol or err > 0.9 * prev:
            break
        prev = err
        Jc = S2.matrix @ _position_tangents(pos, mu, empty)
        # a unit step in t moves the root by e^{i theta}
        Jc[:, :nr] *= w
        A = np.empty((2 * Jc.shape[0], nr + 2 * nc))
        A[:, :nr] = np.vstack([Jc[:, :nr].real, Jc[:, :nr].imag])
        A[:, nr::2] = np.vstack([Jc[:, nr:].real, Jc[:, nr:].imag])
        # the imaginary degree of freedom moves z along i times the column
        A[:, nr + 1::2] = np.vstack([-Jc[:, nr:].imag, Jc[:, nr:].real])
        A[:, nr:] *= xc_weight
        rhs = np.concatenate([res.real, res.imag])
        delta, *_ = np.linalg.lstsq(A, -rhs, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        delta[nr:] *= xc_weight
        t = t + delta[:nr]
        xc = xc + (delta[nr::2] + 1j * delta[nr + 1::2])
    return best[0], best[1], best_err


def _boundary_walk(x, mu, frozen, S2, H, functionals, t_bd, interior_count, *,
                   micro_budget: int):
    """Merge boundary root positions until at most t_bd remain.

    The state is the exact root multiset: line coordinates x, each
    standing for the boundary root H.from_upper(x), with multiplicities
    mu, plus interior roots that move only as much as the constraint
    projection demands.  Every micro step moves the positions
    along the steepest-descent direction of the fixed linear functional
    Re<u, z> inside the tangent kernel of the slice constraints, then
    Newton-projects back onto the constraint fiber.
    Stacks travel as units, so the distinct-value count only ever changes
    at collisions, where two positions merge and their multiplicities
    add.  The functional decreases throughout, which rules out cycles; a
    vanishing projected gradient under every descent mode means the walk
    sits at a critical point.  The last return value names why the walk
    stopped above t_bd, or is None when it reached it.
    """
    x = np.asarray(x, dtype=float).copy()
    mu = np.asarray(mu, dtype=int).copy()
    frozen = np.asarray(frozen, dtype=complex).copy()
    records: list[CompressionStep] = []
    ctol = 1e-12 * (1.0 + float(np.max(np.abs(S2.target_vector))))
    seg_dir: np.ndarray | None = None
    seg_len = 0.0
    # per-segment search state: which descent mode is active, the step cap
    # (shrunk whenever the direction flips across a critical point), and
    # the previous direction for detecting those flips
    mode_idx = 0
    h_cap: float | None = None
    v_prev: np.ndarray | None = None

    x, frozen, ok = _fiber_correct(x, mu, frozen, S2, H, ctol)
    if not ok:
        return x, mu, frozen, records, "boundary walk could not project onto the slice"

    while x.size > t_bd:
        if micro_budget <= 0:
            return x, mu, frozen, records, "boundary walk ran out of micro steps"
        span = float(np.max(x) - np.min(x)) if x.size > 1 else 0.0
        merge_tol = 1e-7 * (1.0 + span)
        order = np.argsort(x)
        gaps = np.diff(x[order])
        if gaps.size and float(gaps.min()) <= merge_tol:
            j = int(np.argmin(gaps))
            i1, i2 = int(order[j]), int(order[j + 1])
            w1, w2 = float(mu[i1]), float(mu[i2])
            center = (w1 * x[i1] + w2 * x[i2]) / (w1 + w2)
            keep = [t for t in range(x.size) if t not in (i1, i2)]
            x = np.append(x[keep], center)
            mu = np.append(mu[keep], mu[i1] + mu[i2])
            x, frozen, ok = _fiber_correct(x, mu, frozen, S2, H, ctol)
            if not ok:
                return x, mu, frozen, records, "boundary walk could not project a merge"
            zc = np.asarray(vieta_from_roots(_state_roots(H.from_upper(x), mu, frozen)).z,
                            dtype=complex)
            records.append(CompressionStep(
                mode="boundary",
                direction=tuple(seg_dir) if seg_dir is not None else (0.0,) * S2.n,
                step_size=seg_len,
                event="real-roots-merged",
                measure_after=(interior_count, int(x.size)),
                membership_residual=S2.residual(zc),
                stable=True,
            ))
            seg_dir = None
            seg_len = 0.0
            mode_idx = 0
            h_cap = None
            v_prev = None
            continue

        # a unit step in a line coordinate moves its root by e^{i theta}
        cols = _position_tangents(H.from_upper(x), mu, frozen) * cmath.exp(1j * H.theta)
        J = S2.matrix @ cols
        V = _kernel_basis(np.vstack([J.real, J.imag]), x.size)
        if V.shape[1] == 0:
            return x, mu, frozen, records, "boundary walk has no tangent direction"
        h0 = 0.05 * (1.0 + span)
        h_floor = 1e-9 * (1.0 + span)
        if h_cap is None:
            h_cap = h0
        # Descent modes, tried in order and persisting across micro steps:
        # steepest descent of the reference functionals first, then, once
        # those sit at critical points, directions that close the k-th
        # smallest adjacent gap.  Gap closing makes the chosen gap
        # strictly monotone, so each mode either reaches a collision or
        # pins at a tangency and hands over to the next.
        total_modes = len(functionals) + max(x.size - 1, 0)
        moved = False
        while mode_idx < total_modes:
            if mode_idx < len(functionals):
                grad = np.real(functionals[mode_idx] @ cols)
            else:
                k = mode_idx - len(functionals)
                ranks = np.argsort(gaps)
                j = int(ranks[k])
                grad = np.zeros(x.size)
                grad[int(order[j + 1])] = 1.0
                grad[int(order[j])] = -1.0
            w = V @ (V.T @ grad)
            norm = float(np.linalg.norm(w))
            if norm <= 1e-10 * (1.0 + float(np.linalg.norm(grad))):
                mode_idx += 1
                h_cap = h0
                v_prev = None
                continue
            v = -w / norm
            if v_prev is not None and float(v @ v_prev) < 0.0:
                # stepped across a critical point of this mode; bisect into
                # it and give up on the mode once the cap hits the floor
                h_cap *= 0.5
                if h_cap < h_floor:
                    mode_idx += 1
                    h_cap = h0
                    v_prev = None
                    continue
            # step to the first collision the direction produces, if any
            # lies within reach: landing just inside the merge tolerance
            # turns collisions into aimed events instead of lucky ones
            h = h_cap
            if gaps.size:
                closing = -(v[order][1:] - v[order][:-1])
                ahead = closing > 0
                if np.any(ahead):
                    times = (gaps[ahead] - 0.5 * merge_tol) / closing[ahead]
                    h = min(h_cap, max(float(times.min()), 0.0))
            ok = False
            for _ in range(8):
                trial, tfrozen, ok = _fiber_correct(x + h * v, mu, frozen, S2, H, ctol)
                if ok:
                    break
                h *= 0.25
            if not ok:
                mode_idx += 1
                h_cap = h0
                v_prev = None
                continue
            if seg_dir is None:
                tangent = cols @ v
                top = float(np.max(np.abs(tangent)))
                seg_dir = tangent / top if top > 0 else tangent
            x = trial
            frozen = tfrozen
            seg_len += h
            v_prev = v
            micro_budget -= 1
            moved = True
            break
        if not moved:
            return x, mu, frozen, records, "boundary walk stalled at a critical point"

    return x, mu, frozen, records, None


def compress(p0: Poly, S: Slice, halfplane: HalfPlane | None = None,
             options: CompressOptions | None = None) -> CompressionReport:
    """Descend to a slice member with few interior roots and few distinct
    boundary roots.

    After augmentation (rank r) the targets are interior_total <= r and
    boundary_distinct <= r when the augmented constraints form a
    coordinate prefix, else <= 2r.  Interior roots are removed first: each
    step freezes the boundary factor, takes a complex kernel direction
    that only stirs the interior roots, and walks to the stability
    boundary, where one of them lands on the boundary line.  The
    remaining boundary roots are then treated as line coordinates with
    multiplicities and flow along the constraint fiber until positions
    collide and their stacks merge, until at most the target number of
    distinct values remains.  Both phases move downhill for one fixed
    random linear functional, so the descent cannot revisit a state, and
    every recorded step strictly decreases the lexicographic measure
    (interior_total, boundary_distinct).

    The descent runs on the caller's slice in the caller's half-plane.
    The root multiset is the state: it is found once, for the starting
    point, and the report's final profile is the descent's last multiset,
    never re-found from final_z.  A descent that stops above its targets
    raises NonConvergence naming the cause.
    """
    opts = options if options is not None else CompressOptions()
    H = halfplane if halfplane is not None else HalfPlane.upper()
    n = p0.degree
    if S.k and S.n != n:
        raise DimensionMismatch("slice dimension does not match polynomial degree")

    initial_roots = find_roots(p0)
    initial_profile = cluster_roots(initial_roots, H,
                                    radius=opts.cluster_radius,
                                    boundary_tol=opts.boundary_tol)
    if initial_profile.outside_total:
        raise ValueError("starting point is not stable in the given half-plane")
    if S.residual(p0) > membership_tolerance(S.target_vector) * 1e3:
        raise ValueError("starting point does not satisfy the slice constraints")

    zc = np.asarray(p0.z, dtype=complex)
    S2 = augment(S, zc)
    r = S2.rank
    sharpened = _is_coordinate_prefix(S2.matrix, r)
    t_int = r
    t_bd = r if sharpened else 2 * r
    mem_tol = membership_tolerance(S2.target_vector)

    def stopped(cause: str, measure: tuple[int, int]) -> NonConvergence:
        return NonConvergence(f"compress stopped at measure {measure} above targets "
                              f"{(t_int, t_bd)}: {cause}")

    rng = np.random.default_rng([_PHI_STREAM, opts.functional_seed])
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u /= np.linalg.norm(u)
    u2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u2 /= np.linalg.norm(u2)

    roots = tuple(initial_roots)
    resid0 = S2.residual(zc)
    steps: list[CompressionStep] = []
    checkpoints: list[tuple[int, int]] = []
    iterations = 0

    while True:
        scale = 1.0 + max(abs(x) for x in roots)
        btol = opts.boundary_tol if opts.boundary_tol is not None else BOUNDARY_SCALE * scale
        radius = opts.cluster_radius if opts.cluster_radius is not None else CLUSTER_SCALE * scale
        profile = cluster_roots(roots, H, radius=radius, boundary_tol=btol)
        measure = profile.measure()
        if not checkpoints or measure < checkpoints[-1]:
            checkpoints.append(measure)
        if profile.interior_total <= t_int and profile.boundary_distinct <= t_bd:
            break
        if iterations >= max(4 * n, 64):
            raise stopped(f"{iterations} steps reached the iteration cap", measure)

        interior = [cl for cl in profile.clusters if cl.side == "interior"]
        boundary = [cl for cl in profile.clusters if cl.side == "boundary"]
        if profile.interior_total > t_int:
            movers = [x for cl in interior for x in cl.members]
            frozen = [x for cl in boundary for x in cl.members]
            cof = alternated_cofactor(frozen)
            kern = kernel_direction(S2, cof, len(movers))
            if kern is None:
                raise stopped("no kernel direction moves the interior roots", measure)
            c = np.asarray(kern.c, dtype=complex)
            b = np.asarray(kern.b, dtype=complex)
            norm = float(np.max(np.abs(c)))
            c /= norm
            b /= norm
            # any unit phase keeps c in the kernel; the one that points the
            # reference functional downhill makes phi decrease on interior
            # steps too, so phi is a Lyapunov function for the whole walk
            pairing = complex(np.sum(u * c))
            if abs(pairing) > 1e-12:
                phase = -np.conj(pairing) / abs(pairing)
                c = phase * c
                b = phase * b
            eps_min = 1e-11 * (1.0 + float(np.max(np.abs(zc))))
            st = max_stable_step(movers, b, frozen, H,
                                 boundary_tol=btol, cluster_radius=radius)
            if st.event == "direction-unbounded":
                raise stopped("the kernel direction is unbounded", measure)
            if st.epsilon <= eps_min:
                raise stopped(f"step {st.epsilon:.3e} at or below {eps_min:.3e}", measure)
            # The settled roots are the state; re-expanding them keeps the
            # coefficient vector at rounding distance from the exact
            # product, which is what lets multiple roots survive
            # re-examination.  The residual this leaves on the constraints
            # is repaired in position space: a coefficient correction of
            # size d would split an m-fold root by d**(1/m), while moving
            # positions keeps every stack intact.
            roots = np.asarray(st.roots, dtype=complex)
            after = cluster_roots(roots, H, radius=radius, boundary_tol=btol)
            bd = [cl for cl in after.clusters if cl.side == "boundary"]
            nb = [cl for cl in after.clusters if cl.side != "boundary"]
            xr = np.array([H.to_upper(cl.center).real for cl in bd], dtype=float)
            mur = np.array([cl.multiplicity for cl in bd], dtype=int)
            xcp = np.array([cl.center for cl in nb], dtype=complex)
            muc = np.array([cl.multiplicity for cl in nb], dtype=int)
            raw_err = S2.residual(np.asarray(vieta_from_roots(roots).z, dtype=complex))
            nxr, nxc, err = _fiber_correct_mixed(xr, mur, xcp, muc, S2, H, 0.1 * mem_tol)
            if err < raw_err:
                roots = np.concatenate([np.repeat(H.from_upper(nxr), mur),
                                        np.repeat(nxc, muc)])
                after = cluster_roots(roots, H, radius=radius, boundary_tol=btol)
            zc = np.asarray(vieta_from_roots(roots).z, dtype=complex)
            iterations += 1
            steps.append(CompressionStep(
                mode="interior",
                direction=tuple(c),
                step_size=float(st.epsilon),
                event=st.event,
                measure_after=after.measure(),
                membership_residual=S2.residual(zc),
                stable=after.outside_total == 0,
            ))
            roots = tuple(roots)
        else:
            xb = np.array([H.to_upper(cl.center).real for cl in boundary], dtype=float)
            mub = np.array([cl.multiplicity for cl in boundary], dtype=int)
            fr = np.array([x for cl in interior for x in cl.members], dtype=complex)
            xb, mub, fr, walk_steps, cause = _boundary_walk(
                xb, mub, fr, S2, H, (u, u2), t_bd, profile.interior_total,
                micro_budget=_WALK_BUDGET)
            if cause is not None:
                raise stopped(cause, (profile.interior_total, int(xb.size)))
            roots = tuple(_state_roots(H.from_upper(xb), mub, fr))
            zc = np.asarray(vieta_from_roots(roots).z, dtype=complex)
            for rec in walk_steps:
                steps.append(rec)
                iterations += 1
                if not checkpoints or rec.measure_after < checkpoints[-1]:
                    checkpoints.append(rec.measure_after)

    if iterations:
        drifted = S2.residual(zc)
        if drifted > resid0 + mem_tol:
            raise NonConvergence(
                f"slice membership residual grew to {drifted:.3e} during descent"
            )

    final_profile = cluster_roots(roots, H,
                                  radius=opts.cluster_radius,
                                  boundary_tol=opts.boundary_tol)
    origin = sum(1 for cl in final_profile.clusters
                 if cl.side == "boundary"
                 and abs(cl.center) <= 10.0 * final_profile.boundary_tol)
    return CompressionReport(
        initial_profile=initial_profile,
        final_profile=final_profile,
        final_z=Poly(tuple(zc)),
        steps=tuple(steps),
        iterations=iterations,
        rank=r,
        sharpened=sharpened,
        targets=(t_int, t_bd),
        checkpoints=tuple(checkpoints),
        origin_boundary_clusters=origin,
    )


@dataclasses.dataclass(frozen=True)
class SectionGrid:
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    members: tuple[tuple[bool, ...], ...]


def sample_slice_section(S: Slice, halfplane: HalfPlane | None, free_axes: tuple[int, int],
                         window: tuple[float, float, float, float],
                         resolution: tuple[int, int]) -> SectionGrid:
    """Membership grid over a 2-plane of the real coefficient chart.

    Axis 2k is Re(z_{k+1}), axis 2k+1 is Im(z_{k+1}); both free axes must
    be annihilated by L so the sampled plane stays inside the affine
    constraint set.  Rows of the grid follow the y coordinate.  Every
    pixel starts from find_roots' cold start, and all pixels iterate
    together (find_roots_rows); a pixel that this pass cannot settle, by a
    missed residual gate or a near-multiple root, gets find_roots and
    cluster_roots of its own.  A pixel whose roots a cold start cannot find
    raises NonConvergence rather than being reported as a non-member.
    """
    H = halfplane if halfplane is not None else HalfPlane.upper()
    n = S.n if S.k else (max(free_axes) // 2 + 1)
    ax_i, ax_j = free_axes
    if ax_i == ax_j or not (0 <= ax_i < 2 * n and 0 <= ax_j < 2 * n):
        raise DimensionMismatch("free axes must be two distinct chart coordinates")
    w, h = resolution
    if w < 1 or h < 1:
        raise ValueError("resolution must be positive")

    def axis_vector(axis: int) -> np.ndarray:
        v = np.zeros(n, dtype=complex)
        v[axis // 2] = 1.0 if axis % 2 == 0 else 1.0j
        return v

    vi, vj = axis_vector(ax_i), axis_vector(ax_j)
    if S.k:
        top = 1.0 + float(np.max(np.abs(S.matrix)))
        for v in (vi, vj):
            if float(np.max(np.abs(S.matrix @ v))) > MEMBERSHIP_SCALE * top:
                raise DimensionMismatch("free axis is not in the kernel of the slice map")
        base, *_ = np.linalg.lstsq(S.matrix, S.target_vector, rcond=None)
        linear_ok = S.residual(base) <= membership_tolerance(S.target_vector)
    else:
        base = np.zeros(n, dtype=complex)
        linear_ok = True
    for axis in (ax_i, ax_j):
        idx = axis // 2
        base[idx] = 1j * base[idx].imag if axis % 2 == 0 else base[idx].real

    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, w)
    ys = np.linspace(y0, y1, h)
    members = np.zeros(h * w, dtype=bool)
    if linear_ok:
        Z = (base + xs[None, :, None] * vi + ys[:, None, None] * vj).reshape(h * w, n)
        roots, clean = find_roots_rows(Z)
        # cluster_roots' verdict when every root is its own cluster
        btol = BOUNDARY_SCALE * (1.0 + np.max(np.abs(roots), axis=1))
        members = ~np.any(H.signed_distances(roots) < -btol[:, None], axis=1)
        for i in np.flatnonzero(~clean):
            members[i] = cluster_roots(find_roots(Poly(tuple(Z[i]))), H).outside_total == 0
    return SectionGrid(xs=tuple(float(v) for v in xs),
                       ys=tuple(float(v) for v in ys),
                       members=tuple(map(tuple, members.reshape(h, w).tolist())))
