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
    """Signed coefficient vector z of a monic descending raw vector w, or
    one z row per row of a stack of them."""
    signs = (-1.0) ** np.arange(1, w.shape[-1])
    return signs * w[..., 1:]


def _compose_affine(rows: np.ndarray, w: complex, a: complex) -> np.ndarray:
    """Descending coefficients in t of p(w t + a), for the descending raw
    coefficients p of every row of a stack, by Horner's rule in t."""
    line = rows[..., :1]
    for j in range(1, rows.shape[-1]):
        # Horner in t: line * (w t + a) + next coefficient
        nxt = np.zeros(rows.shape[:-1] + (j + 1,), dtype=complex)
        nxt[..., :-1] = w * line
        nxt[..., 1:] += a * line
        nxt[..., -1] += rows[..., j]
        line = nxt
    return line


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
        """Build from descending raw coefficients, divided by the leading
        one, which must be nonzero."""
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


def _polyval(c: list, x: np.ndarray) -> np.ndarray:
    """np.polyval(c, x) bit for bit, for a list c of two or more Python
    scalars and finite points x.

    Horner in place.  np.polyval starts from y = 0 * x + c[0], which is
    c[0] at a finite x unless a part of c[0] is -0.0, and each step forms
    the same y * x + c[i], the product in that order.
    """
    y = c[0] * x
    y += c[1]
    for a in c[2:]:
        y *= x
        y += a
    return y


def _floor_reached(aw: list[float], x: np.ndarray, pv: np.ndarray, floor: float) -> bool:
    """Every |p(x_j)| within floor * sum |a_i| |x_j|^i (Bini 1996)."""
    # the first iterate alone, in scalar arithmetic, rejects iterates still
    # far from the roots, and those so far out that the bound overflows
    r, bound = abs(complex(x[0])), 0.0
    for a in aw:
        bound = bound * r + a
    if not abs(complex(pv[0])) <= floor * bound < math.inf:
        return False
    return bool(np.all(np.abs(pv) <= floor * _polyval(aw, np.abs(x))))


# Iterates far from the roots overflow p(x) and the corrections.  The
# iterations catch a non-finite step and report it, so NumPy's warnings
# would only print to stderr, once per source line and process.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _aberth(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Aberth iterates, and whether they stopped at the rounding floor."""
    n = x.size
    wl, dwl = w.tolist(), _derivative(w).tolist()
    aw = np.abs(w).tolist()
    floor = _FLOOR_FACTOR * n * np.finfo(float).eps
    previous = np.inf
    stalled = False
    xmax = np.abs(x).max()
    for _ in range(_ABERTH_MAX_ITERATIONS):
        pv = _polyval(wl, x)
        # Once the steps stop shrinking fast, rounding may keep them above
        # the step-size test forever (multiple roots); stop as soon as every
        # residual is within the backward-error floor.
        if stalled and _floor_reached(aw, x, pv, floor):
            return x, True
        dpv = _polyval(dwl, x)
        dpv = np.where(np.abs(dpv) < 1e-300, 1e-300, dpv)
        newton = pv / dpv
        diff = x[:, None] - x[None, :]
        diff.flat[::n + 1] = np.inf
        tiny = 1e-14 * (1.0 + xmax)
        diff = np.where(np.abs(diff) < tiny, tiny, diff)
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = newton / denom
        x = x - step
        size = np.abs(step).max()
        if not np.isfinite(size):
            # one non-finite iterate turns every other one NaN through the
            # repulsion sums, so the remaining iterations cannot recover
            return np.full_like(x, np.nan), False
        xmax = np.abs(x).max()
        if size <= 1e-14 * (1.0 + xmax):
            break
        stalled = size > 0.5 * previous
        previous = size
    return x, False


def _circle_start(w: np.ndarray) -> np.ndarray:
    """find_roots' cold start: n points on a circle of radius 1 + max |a_i|,
    radii spread slightly."""
    n = w.size - 1
    radius = 1.0 + np.max(np.abs(w))
    k = np.arange(n)
    angles = 2.0 * np.pi * k / n + 0.4
    radii = radius * (1.0 + 1e-3 * (k + 1) / n)
    return radii * np.exp(1j * angles)


def _rotated_start(w: np.ndarray) -> np.ndarray:
    """find_roots' second cold start: n points on a circle 1.3 times as wide
    as _circle_start's, turned by 0.7 against it."""
    n = w.size - 1
    angles = 2.0 * np.pi * np.arange(n) / n + 1.1
    return (1.0 + float(np.max(np.abs(w)))) * 1.3 * np.exp(1j * angles)


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


def _scalar_newton(f: np.ndarray, df: np.ndarray, mu: complex) -> complex:
    """mu after up to three Newton steps on f, stopped where f' vanishes."""
    for _ in range(3):
        dv = np.polyval(df, mu)
        if abs(dv) < 1e-200:
            break
        mu = mu - np.polyval(f, mu) / dv
    return mu


def _snapped(w: np.ndarray, z: np.ndarray, x: np.ndarray,
             groups: list[list[int]]) -> tuple[np.ndarray, float]:
    """The roots x with each group of several snapped to one polished
    multiple root and each other root polished as a simple one, and the
    error of their re-expansion against z."""
    stacks: list[tuple[complex, int]] = []
    singles: list[complex] = []
    for g in groups:
        mu = _center(x, g)
        m = len(g)
        if m > 1:
            dw = _derivative(w, m - 1)
            stacks.append((_scalar_newton(dw, _derivative(dw), mu), m))
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
        singles = [_scalar_newton(q, dq, mu) for mu in singles]
    arr = np.asarray([mu for mu, m in stacks for _ in range(m)] + singles, dtype=complex)
    return arr, float(np.max(np.abs(np.asarray(vieta_from_roots(arr).z) - z)))


def _collapse_refine(w: np.ndarray, z: np.ndarray, x: np.ndarray):
    """Snap near-coincident roots to polished multiple roots.

    Simple-root iterations smear an m-fold root over a cluster of width
    about eps^(1/m); the cluster mean recovers most of the lost accuracy
    and Newton on the (m-1)-th derivative recovers the rest.  Tried over a
    ladder of radii; the re-expansion residual picks the winner, so a
    wrong merge can only lose the comparison, never corrupt the result.
    """
    scale = 1.0 + float(np.max(np.abs(x)))
    gap = _gaps(x)
    # no pair within the widest rung: no rung links anything
    if not np.any(gap <= CLUSTER_SCALE * scale * 1e4):
        return None
    best = None
    # a trial depends on the grouping alone: a rung that links no pair, or
    # groups the roots as a lower rung did, has nothing new to try
    tried = [[k] for k in range(x.size)]
    for factor in (1.0, 1e1, 1e2, 1e3, 1e4):
        groups = _components(gap <= CLUSTER_SCALE * scale * factor)
        if groups == tried:
            continue
        tried = groups
        arr, err = _snapped(w, z, x, groups)
        if best is None or err < best[1]:
            best = (arr, err)
    return best


def find_roots(
    p: Poly,
    *,
    initial: Sequence[complex] | None = None,
    raw: bool = False,
) -> tuple[complex, ...]:
    """All roots with multiplicity via simultaneous (Aberth) iteration.

    Deterministic.  One pass runs from each start until one is accepted:
    a warm call's start is the supplied values, a cold call's the circle
    of _circle_start and, once that pass misses, _rotated_start's.  A pass
    iterates until the largest step falls to 1e-14 (1 + max |x|), or, once
    the steps no longer halve, until every residual is at the rounding
    floor |p(x_j)| <= 4 n eps sum_i |a_i| |x_j|^i (Bini 1996), and only in
    the first case polishes by Newton.  A non-finite iterate raises
    NonConvergence.  A pass is accepted when re-expanding its roots, with
    near-coincident ones snapped to multiple roots where that fits better,
    reproduces the coefficient vector within the residual tolerance; after
    the last start the residual raises NonConvergence.

    With raw=True the first pass's iterates are returned as-is: no
    multiple-root snapping, no second start, no residual check.  Near a
    root collision the snapped representation can hide which side of the
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
        # An all-real or conjugate-symmetric iterate set is invariant under
        # the iteration when the coefficients are real, which strands warm
        # starts on the wrong side of a root collision; a fixed asymmetric
        # nudge keeps every configuration reachable.  It also splits
        # coincident warm values: for n <= 100 no two of its phases are
        # closer than 0.013, and _aberth clamps the pair differences left.
        warm = x + 1e-9 * (1.0 + np.abs(x)) * np.exp(1j * (0.6 + 1.7 * np.arange(n)))
        starts = (lambda w: warm,)
    else:
        starts = (_circle_start, _rotated_start)
    for start in starts:
        x, floored = _aberth(w, start(w))
        # Newton cannot improve residuals already at the floor; inside a
        # tight cluster it would only blow the rounding noise up by 1/p'
        if not floored:
            wl, dwl = w.tolist(), _derivative(w).tolist()
            for _ in range(_POLISH_STEPS):
                pv = _polyval(wl, x)
                dpv = _polyval(dwl, x)
                safe = np.abs(dpv) > 1e-200
                x = np.where(safe, x - pv / np.where(safe, dpv, 1.0), x)
        if raw:
            break
        if not np.all(np.isfinite(x)):
            raise NonConvergence("root iteration overflowed to a non-finite iterate")
        tol = RESIDUAL_SCALE * p.scale()
        target = np.asarray(p.z)
        err = float(np.max(np.abs(np.asarray(vieta_from_roots(x).z) - target)))
        # Collapsing near-coincident iterates onto an exact multiple root wins
        # whenever the polynomial really has one; re-expansion error arbitrates.
        fixed = _collapse_refine(w, target, x)
        if fixed is not None and fixed[1] < err:
            x, err = fixed
        if err <= tol:
            break
    else:
        raise NonConvergence(f"root iteration residual {err:.3e} above tolerance {tol:.3e}")
    order = np.lexsort((x.imag, x.real))
    return tuple(complex(v) for v in x[order])


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


def _gaps(points: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of |x_i - x_j|, inf on the diagonal, each entry as
    Python's abs rounds it: hypot, where np.abs can differ in the last bit."""
    d = points[:, None] - points[None, :]
    gap = np.hypot(d.real, d.imag)
    gap.flat[::points.size + 1] = np.inf
    return gap


def _pairs(close: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j that a symmetric boolean matrix marks, row by row."""
    i, j = np.nonzero(close)
    upper = i < j
    return i[upper], j[upper]


def _components(close: np.ndarray) -> list[list[int]]:
    """Connected components of the graph whose edges a symmetric boolean
    matrix marks, ordered by their least member, each in ascending order."""
    n = close.shape[0]
    i, j = _pairs(close)
    if not i.size:
        return [[k] for k in range(n)]
    parent = list(range(n))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in zip(i.tolist(), j.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for k in range(n):
        groups.setdefault(find(k), []).append(k)
    return [groups[k] for k in sorted(groups)]


def _single_linkage(points: np.ndarray, radius: float) -> list[list[int]]:
    return _components(_gaps(points) <= radius)


def _center(xs: np.ndarray, g: list[int]) -> complex:
    """np.mean(xs[g]) for finite xs, without its cost on one member."""
    if len(g) == 1:
        # np.mean sums from 0, which turns a -0.0 part into +0.0
        return complex(xs[g[0]]) + 0j
    return complex(np.mean(xs[g]))


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
    centers = [_center(xs, g) for g in groups]
    # Chained 2-d clusters can leave centers closer than the radius; merge
    # the first such pair until the separation invariant holds.  While no
    # two roots are linked, the centers are the roots, which lie apart.
    while xs.size > len(groups) > 1:
        i, j = _pairs(_gaps(np.array(centers)) <= r)
        if not i.size:
            break
        i, j = i[0], j[0]
        groups[i] += groups.pop(j)
        del centers[j]
        centers[i] = _center(xs, groups[i])

    xl = xs.tolist()
    clusters = []
    for g, center in zip(groups, centers):
        members = tuple(xl[k] for k in sorted(g))
        dist = halfplane.signed_distance(center)
        side = halfplane.side(center, btol)
        clusters.append(Cluster(center, len(members), members, side, dist))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return RootProfile(tuple(clusters), r, btol)
