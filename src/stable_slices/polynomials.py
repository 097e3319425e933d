"""Monic complex polynomials in root and signed-coefficient form.

A degree-n polynomial is stored through the vector z with

    f_z(T) = T^n - z_1 T^(n-1) + z_2 T^(n-2) - ... + (-1)^n z_n,

so z_i is exactly the i-th elementary symmetric function of the roots and
no sign bookkeeping leaks into callers.  Raw (unsigned, descending)
coefficient lists appear only at the edges: convolution products,
Moebius images and the conversion helpers below.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonConvergence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .regions import HalfPlane

# Scale factors behind the default tolerances.  Each is multiplied by
# (1 + magnitude of the data it guards).
RESIDUAL_SCALE = 1e-10
CLUSTER_SCALE = 1e-6
BOUNDARY_SCALE = 1e-8

_ABERTH_MAX_ITERATIONS = 400
_POLISH_STEPS = 2
# backward-error stop of _aberth: |p(x)| <= factor * n * eps * sum |a_i| |x|^i
_FLOOR_FACTOR = 4.0


def _as_complex_tuple(values: Iterable[complex], what: str) -> tuple[complex, ...]:
    out = tuple(complex(v) for v in values)
    for v in out:
        if not (cmath.isfinite(v)):
            raise ValueError(f"{what} must be finite, got {v!r}")
    return out


def z_to_raw(z) -> np.ndarray:
    """Descending raw coefficients [1, -z_1, +z_2, ...] of the monic f_z.

    A (rows, n) stack of z vectors gives one coefficient row per vector.
    """
    z = np.asarray(z, dtype=complex)
    w = np.empty(z.shape[:-1] + (z.shape[-1] + 1,), dtype=complex)
    w[..., 0] = 1.0
    w[..., 1:] = (-1.0) ** np.arange(1, z.shape[-1] + 1) * z
    return w


def raw_to_z(w: np.ndarray) -> np.ndarray:
    """Signed coefficient vector z of a monic descending raw vector w."""
    signs = (-1.0) ** np.arange(1, w.size)
    return signs * w[1:]


@dataclasses.dataclass(frozen=True)
class Poly:
    """Monic polynomial keyed by its elementary-symmetric coefficient vector."""

    z: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _as_complex_tuple(self.z, "coefficient"))
        if not self.z:
            raise ValueError("a polynomial needs degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.z)

    def raw_coefficients(self) -> np.ndarray:
        """Descending unsigned coefficients [1, -z_1, +z_2, ...]."""
        return z_to_raw(self.z)

    @classmethod
    def from_raw(cls, coefficients: Sequence[complex]) -> "Poly":
        """Build from descending raw coefficients; the leading one must be 1."""
        w = np.asarray(list(coefficients), dtype=complex)
        if w.size < 2:
            raise ValueError("need at least degree 1")
        lead = w[0]
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        return cls(tuple(raw_to_z(w / lead)))

    def scale(self) -> float:
        return 1.0 + float(max(abs(v) for v in self.z))


def vieta_rows(x) -> np.ndarray:
    """e_1, ..., e_n of every row of a (B, n) array, as a (B, n) array.

    No finiteness check: a row that overflows comes back non-finite.
    """
    # one row of e per index keeps each update a contiguous slice
    xt = np.asarray(x, dtype=complex).T
    n, batch = xt.shape
    e = np.zeros((n + 1, batch), dtype=complex)
    e[0] = 1.0
    for j in range(n):
        e[1:j + 2] += xt[j] * e[:j + 1]
    return e[1:].T


def vieta_from_roots(roots: Sequence[complex]) -> Poly:
    """Expand prod (T - x_j) and return the Poly carrying e_i(roots)."""
    xs = _as_complex_tuple(roots, "root")
    if not xs:
        raise ValueError("need at least one root")
    return Poly(tuple(vieta_rows([xs])[0]))


def _floor_reached(aw: list[float], x: np.ndarray, pv: np.ndarray, floor: float) -> bool:
    """Every |p(x_j)| within floor * sum |a_i| |x_j|^i (Bini 1996)."""
    # the first iterate alone, in scalar arithmetic, rejects iterates still
    # far from the roots, and those so far out that the bound overflows
    r, bound = abs(complex(x[0])), 0.0
    for a in aw:
        bound = bound * r + a
    if not abs(complex(pv[0])) <= floor * bound < math.inf:
        return False
    return bool(np.all(np.abs(pv) <= floor * np.polyval(aw, np.abs(x))))


# Iterates far from the roots overflow p(x) and the corrections.  The
# iterations catch a non-finite step and report it, so NumPy's warnings
# would only print to stderr, once per source line and process.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _aberth(w: np.ndarray, x: np.ndarray, max_iterations: int) -> tuple[np.ndarray, bool]:
    """Aberth iterates, and whether they stopped at the rounding floor."""
    n = x.size
    dw = _derivative(w)
    aw = np.abs(w).tolist()
    floor = _FLOOR_FACTOR * n * np.finfo(float).eps
    previous = np.inf
    stalled = False
    for _ in range(max_iterations):
        pv = np.polyval(w, x)
        # Once the steps stop shrinking fast, rounding may keep them above
        # the step-size test forever (multiple roots); stop as soon as every
        # residual is within the backward-error floor.
        if stalled and _floor_reached(aw, x, pv, floor):
            return x, True
        dpv = np.polyval(dw, x)
        dpv = np.where(np.abs(dpv) < 1e-300, 1e-300, dpv)
        newton = pv / dpv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        tiny = 1e-14 * (1.0 + float(np.max(np.abs(x))))
        diff = np.where(np.abs(diff) < tiny, tiny, diff)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = newton / denom
        x = x - step
        size = np.max(np.abs(step))
        if not np.isfinite(size):
            # one non-finite iterate turns every other one NaN through the
            # repulsion sums, so the remaining iterations cannot recover
            return np.full_like(x, np.nan), False
        if size <= 1e-14 * (1.0 + np.max(np.abs(x))):
            break
        stalled = size > 0.5 * previous
        previous = size
    return x, False


def _horner(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval row by row: w holds (rows, m) coefficients, x (rows, k) points."""
    y = np.zeros_like(x)
    for c in w.T[:, :, None]:
        y = y * x + c
    return y


def _floor_reached_rows(aw: np.ndarray, x: np.ndarray, pv: np.ndarray,
                        floor: float) -> np.ndarray:
    """_floor_reached on every row of a stack, as a (rows,) mask."""
    # _floor_reached screens the first iterate with Python's abs, which is
    # hypot and can differ from np.abs in the last bit
    first = _horner(aw, np.hypot(x[:, :1].real, x[:, :1].imag))[:, 0]
    screen = (np.hypot(pv[:, 0].real, pv[:, 0].imag) <= floor * first) & (floor * first < np.inf)
    return screen & np.all(np.abs(pv) <= floor * _horner(aw, np.abs(x)), axis=1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _aberth_rows(W: np.ndarray, X: np.ndarray, max_iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """_aberth on every row of a stack at once: W holds (rows, n + 1)
    coefficients, X (rows, n) starts.

    Each row gets the iterates, the stop and the result that _aberth gives
    it, bit for bit; a row leaves the batch as soon as it stops.  Returns
    the iterates and a (rows,) mask of the rows stopped at the floor.
    find_roots keeps _aberth: on a single row this is 1.3-2x slower.
    """
    rows, n = X.shape
    w, x = np.asarray(W, dtype=complex), np.array(X, dtype=complex)
    out = np.empty_like(x)
    floored = np.zeros(rows, dtype=bool)
    floor = _FLOOR_FACTOR * n * np.finfo(float).eps
    diagonal = np.arange(n)
    live = np.arange(rows)
    dw = _derivative(w)
    aw = np.abs(w)
    previous = np.full(rows, np.inf)
    stalled = np.zeros(rows, dtype=bool)
    for _ in range(max_iterations):
        pv = _horner(w, x)
        if stalled.any():
            stop = np.zeros(live.size, dtype=bool)
            stop[stalled] = _floor_reached_rows(aw[stalled], x[stalled], pv[stalled], floor)
            out[live[stop]] = x[stop]
            floored[live[stop]] = True
            keep = ~stop
            live, w, dw, aw, x, pv, previous = (
                a[keep] for a in (live, w, dw, aw, x, pv, previous))
            if not live.size:
                break
        dpv = _horner(dw, x)
        dpv = np.where(np.abs(dpv) < 1e-300, 1e-300, dpv)
        newton = pv / dpv
        diff = x[:, :, None] - x[:, None, :]
        diff[:, diagonal, diagonal] = np.inf
        tiny = (1e-14 * (1.0 + np.max(np.abs(x), axis=1)))[:, None, None]
        diff = np.where(np.abs(diff) < tiny, tiny, diff)
        repulsion = np.sum(1.0 / diff, axis=2)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = newton / denom
        x = x - step
        size = np.max(np.abs(step), axis=1)
        broken = ~np.isfinite(size)
        done = broken | (size <= 1e-14 * (1.0 + np.max(np.abs(x), axis=1)))
        out[live[done]] = np.where(broken[done, None], np.nan, x[done])
        stalled = size > 0.5 * previous
        keep = ~done
        live, w, dw, aw, x, previous, stalled = (
            a[keep] for a in (live, w, dw, aw, x, size, stalled))
        if not live.size:
            break
    out[live] = x
    return out, floored


def _circle_start(w: np.ndarray) -> np.ndarray:
    """find_roots' cold start, for one coefficient vector or a stack of rows:
    n points on a circle of radius 1 + max |a_i|, radii spread slightly."""
    n = w.shape[-1] - 1
    radius = 1.0 + np.max(np.abs(w), axis=-1, keepdims=True)
    k = np.arange(n)
    angles = 2.0 * np.pi * k / n + 0.4
    radii = radius * (1.0 + 1e-3 * (k + 1) / n)
    return radii * np.exp(1j * angles)


def _newton_polish_rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """find_roots' closing Newton steps on every row of a stack."""
    dw = _derivative(w)
    for _ in range(_POLISH_STEPS):
        pv = _horner(w, x)
        dpv = _horner(dw, x)
        safe = np.abs(dpv) > 1e-200
        x = np.where(safe, x - pv / np.where(safe, dpv, 1.0), x)
    return x


def _derivative(w: np.ndarray, order: int = 1) -> np.ndarray:
    """Descending coefficients of the order-th derivative of each
    descending coefficient vector along the last axis of w."""
    for _ in range(order):
        w = w[..., :-1] * np.arange(w.shape[-1] - 1, 0, -1)
    return w


def _deflate(w: np.ndarray, r: complex) -> np.ndarray:
    # synthetic division by (T - r); the remainder is discarded because r
    # is used as an exact root of the represented factor
    q = np.empty(w.size - 1, dtype=complex)
    acc = w[0]
    for i in range(w.size - 1):
        q[i] = acc
        acc = acc * r + w[i + 1]
    return q


def _collapse_refine(w: np.ndarray, z: np.ndarray, x: np.ndarray):
    """Snap near-coincident roots to polished multiple roots.

    Simple-root iterations smear an m-fold root over a cluster of width
    about eps^(1/m); the cluster mean recovers most of the lost accuracy
    and Newton on the (m-1)-th derivative recovers the rest.  Tried over a
    ladder of radii; the re-expansion residual picks the winner, so a
    wrong merge can only lose the comparison, never corrupt the result.
    """
    scale = 1.0 + float(np.max(np.abs(x)))
    best = None
    for factor in (1.0, 1e1, 1e2, 1e3, 1e4):
        groups = _single_linkage(x, CLUSTER_SCALE * scale * factor)
        if all(len(g) == 1 for g in groups):
            continue
        stacks: list[tuple[complex, int]] = []
        singles: list[complex] = []
        for g in groups:
            mu = complex(np.mean(x[g]))
            m = len(g)
            if m > 1:
                dw = _derivative(w, m - 1)
                ddw = _derivative(dw)
                for _ in range(3):
                    dpv = np.polyval(ddw, mu)
                    if abs(dpv) < 1e-200:
                        break
                    mu = mu - np.polyval(dw, mu) / dpv
                stacks.append((mu, m))
            else:
                singles.append(mu)
        # The surviving simple roots set the re-expansion floor once the
        # stacks are snapped, and evaluating w there is cancellation
        # limited.  Dividing the snapped stacks out first leaves a
        # quotient that is well conditioned at the companions.
        if singles:
            q = w
            for mu, m in stacks:
                for _ in range(m):
                    q = _deflate(q, mu)
            dq = _derivative(q)
            for i, mu in enumerate(singles):
                for _ in range(3):
                    dv = np.polyval(dq, mu)
                    if abs(dv) < 1e-200:
                        break
                    mu = mu - np.polyval(q, mu) / dv
                singles[i] = mu
        trial: list[complex] = []
        for mu, m in stacks:
            trial.extend([mu] * m)
        trial.extend(singles)
        arr = np.asarray(trial, dtype=complex)
        err = float(np.max(np.abs(np.asarray(vieta_from_roots(arr).z) - z)))
        if best is None or err < best[1]:
            best = (arr, err)
    return best


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NonConvergence("root iteration overflowed to a non-finite iterate")


def find_roots(
    p: Poly,
    *,
    initial: Sequence[complex] | None = None,
    raw: bool = False,
) -> tuple[complex, ...]:
    """All roots with multiplicity via simultaneous (Aberth) iteration.

    Deterministic: fixed initial configuration on a circle of radius
    1 + max |coefficient| unless warm-start values are supplied.  The
    iteration stops when the largest step falls to 1e-14 (1 + max |x|),
    or, once the steps no longer halve from one iteration to the next,
    when every residual is at the rounding floor
    |p(x_j)| <= 4 n eps sum_i |a_i| |x_j|^i (Bini 1996), and then skips
    the closing Newton polish.  The result is accepted only if
    re-expanding the computed roots reproduces the coefficient vector
    within the residual tolerance.

    With raw=True the single-pass iterates are returned as-is: no
    multiple-root snapping, no retry, no residual check.  Near a root
    collision the snapped representation can hide which side of the
    collision the polynomial is on, so step-size searches probe in raw
    mode and only the landed point gets the full treatment.
    """
    n = p.degree
    if n == 1:
        return (p.z[0],)
    w = p.raw_coefficients()
    if initial is not None:
        x = np.asarray(list(initial), dtype=complex)
        if x.size != n:
            raise DimensionMismatch("warm start must supply one value per root")
        # split coincident warm values so pairwise repulsion stays finite
        groups = _single_linkage(x, 1e-12 * (1.0 + float(np.max(np.abs(x)))))
        for g in groups:
            if len(g) > 1:
                spread = 1e-7 * (1.0 + abs(x[g[0]]))
                for t, idx in enumerate(g):
                    x[idx] += spread * np.exp(2j * np.pi * (t + 0.3) / len(g))
        # An all-real or conjugate-symmetric iterate set is invariant under
        # the iteration when the coefficients are real, which strands warm
        # starts on the wrong side of a root collision; a fixed asymmetric
        # nudge keeps every configuration reachable.
        k = np.arange(x.size)
        x = x + 1e-9 * (1.0 + np.abs(x)) * np.exp(1j * (0.6 + 1.7 * k))
    else:
        x = _circle_start(w)
    x, floored = _aberth(w, x, _ABERTH_MAX_ITERATIONS)

    # Newton cannot improve residuals already at the floor; inside a tight
    # cluster it would only blow the rounding noise up by 1/p'
    if not floored:
        dw = _derivative(w)
        for _ in range(_POLISH_STEPS):
            pv = np.polyval(w, x)
            dpv = np.polyval(dw, x)
            safe = np.abs(dpv) > 1e-200
            x = np.where(safe, x - pv / np.where(safe, dpv, 1.0), x)

    if raw:
        order = np.lexsort((x.imag, x.real))
        return tuple(complex(v) for v in x[order])

    _require_finite(x)
    tol = RESIDUAL_SCALE * p.scale()
    target = np.asarray(p.z)
    err = float(np.max(np.abs(np.asarray(vieta_from_roots(x).z) - target)))
    # Collapsing near-coincident iterates onto an exact multiple root wins
    # whenever the polynomial really has one; re-expansion error arbitrates.
    fixed = _collapse_refine(w, target, x)
    if fixed is not None and fixed[1] < err:
        x, err = fixed
    if err > tol and initial is None:
        # One retry with a rotated start often rescues stiff clusters.
        radius = 1.0 + float(np.max(np.abs(w)))
        k = np.arange(n)
        alt = radius * 1.3 * np.exp(1j * (2.0 * np.pi * k / n + 1.1))
        x, _ = _aberth(w, alt, 2 * _ABERTH_MAX_ITERATIONS)
        _require_finite(x)
        err = float(np.max(np.abs(np.asarray(vieta_from_roots(x).z) - target)))
        if err > tol:
            fixed = _collapse_refine(w, target, x)
            if fixed is not None and fixed[1] < err:
                x, err = fixed
    if err > tol:
        raise NonConvergence(
            f"root iteration residual {err:.3e} above tolerance {tol:.3e}"
        )
    order = np.lexsort((x.imag, x.real))
    return tuple(complex(v) for v in x[order])


# entries of the (rows, n, n) pair arrays that one lockstep block may hold
_BLOCK_ENTRIES = 1 << 18


def find_roots_rows(Z) -> tuple[np.ndarray, np.ndarray]:
    """Cold roots of every row of a (rows, n) stack of z vectors at once.

    Returns the roots, one row per polynomial, and a (rows,) mask of the
    clean rows: their roots pass find_roots' residual gate and no two lie
    within _collapse_refine's widest radius, so find_roots(Poly(z))
    returns exactly these roots, sorted, and cluster_roots finds each of
    them simple.  The other rows decide nothing: find their roots one
    polynomial at a time.
    """
    Z = np.asarray(Z, dtype=complex)
    rows, n = Z.shape
    if n == 1:
        return Z.copy(), np.ones(rows, dtype=bool)
    roots = np.empty_like(Z)
    clean = np.empty(rows, dtype=bool)
    diagonal = np.arange(n)
    block = max(1, _BLOCK_ENTRIES // (n * n))
    for lo in range(0, rows, block):
        z = Z[lo:lo + block]
        w = z_to_raw(z)
        x, floored = _aberth_rows(w, _circle_start(w), _ABERTH_MAX_ITERATIONS)
        x[~floored] = _newton_polish_rows(w[~floored], x[~floored])
        # Poly.scale takes Python's abs, which is hypot
        tol = RESIDUAL_SCALE * (1.0 + np.max(np.hypot(z.real, z.imag), axis=1))
        err = np.max(np.abs(vieta_rows(x) - z), axis=1)
        gap = np.abs(x[:, :, None] - x[:, None, :])
        gap[:, diagonal, diagonal] = np.inf
        # the top rung of _collapse_refine's radius ladder, rounded as there
        widest = CLUSTER_SCALE * (1.0 + np.max(np.abs(x), axis=1)) * 1e4
        roots[lo:lo + block] = x
        clean[lo:lo + block] = (err <= tol) & np.all(gap > widest[:, None, None], axis=(1, 2))
    return roots, clean


@dataclasses.dataclass(frozen=True)
class Cluster:
    """A group of numerically coincident roots with its region verdict."""

    center: complex
    multiplicity: int
    members: tuple[complex, ...]
    side: str  # "interior" | "boundary" | "outside"
    signed_distance: float


@dataclasses.dataclass(frozen=True)
class RootProfile:
    """Clustered root picture of a polynomial relative to a half-plane."""

    clusters: tuple[Cluster, ...]
    cluster_radius: float
    boundary_tol: float

    @property
    def interior_total(self) -> int:
        return sum(c.multiplicity for c in self.clusters if c.side == "interior")

    @property
    def boundary_distinct(self) -> int:
        return sum(1 for c in self.clusters if c.side == "boundary")

    @property
    def outside_total(self) -> int:
        return sum(c.multiplicity for c in self.clusters if c.side == "outside")

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    def measure(self) -> tuple[int, int]:
        """Lexicographic (interior_total, boundary_distinct)."""
        return (self.interior_total, self.boundary_distinct)


def _single_linkage(points: np.ndarray, radius: float) -> list[list[int]]:
    n = points.size
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def cluster_roots(
    roots: Sequence[complex],
    halfplane: "HalfPlane",
    *,
    radius: float | None = None,
    boundary_tol: float | None = None,
) -> RootProfile:
    """Single-linkage clustering plus interior/boundary/outside labels.

    Cluster centers are multiplicity-weighted means.  After linkage,
    clusters whose centers still fall within the radius are merged again
    so that surviving centers are pairwise separated by more than the
    radius.
    """
    xs = np.asarray(list(roots), dtype=complex)
    if xs.size == 0:
        raise ValueError("need at least one root")
    scale = 1.0 + float(np.max(np.abs(xs)))
    r = radius if radius is not None else CLUSTER_SCALE * scale
    btol = boundary_tol if boundary_tol is not None else BOUNDARY_SCALE * scale

    groups = _single_linkage(xs, r)
    centers = [complex(np.mean(xs[g])) for g in groups]
    # Chained 2-d clusters can leave centers closer than the radius; merge
    # until the separation invariant holds.
    changed = True
    while changed and len(groups) > 1:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if abs(centers[i] - centers[j]) <= r:
                    groups[i] = groups[i] + groups[j]
                    del groups[j]
                    centers = [complex(np.mean(xs[g])) for g in groups]
                    changed = True
                    break
            if changed:
                break

    clusters = []
    for g in groups:
        members = tuple(complex(xs[i]) for i in sorted(g))
        center = complex(np.mean(xs[list(g)]))
        dist = halfplane.signed_distance(center)
        side = halfplane.side(center, btol)
        clusters.append(Cluster(center, len(members), members, side, dist))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return RootProfile(tuple(clusters), r, btol)
