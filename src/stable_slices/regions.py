"""Closed half-planes and Moebius maps acting on polynomials."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .errors import DegenerateMap
from .polynomials import (
    BOUNDARY_SCALE,
    Poly,
    find_roots,
    raw_to_z,
    vieta_from_roots,
    z_to_raw,
)

MOEBIUS_DET_SCALE = 1e-12
_TRIM_SCALE = 1e-12


@dataclasses.dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {base + e^{i theta} u : Im(u) >= 0}.

    theta = 0, base = 0 is the closed upper half-plane; theta = pi/2 is
    the closed left half-plane.
    """

    theta: float = 0.0
    base: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and cmath.isfinite(complex(self.base))):
            raise ValueError("half-plane parameters must be finite")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))
        object.__setattr__(self, "base", complex(self.base))

    @classmethod
    def upper(cls) -> "HalfPlane":
        return cls(0.0, 0.0 + 0.0j)

    @classmethod
    def left(cls) -> "HalfPlane":
        return cls(math.pi / 2.0, 0.0 + 0.0j)

    def signed_distance(self, point: complex) -> float:
        """Positive inside, ~0 on the boundary line, negative outside."""
        return (cmath.exp(-1j * self.theta) * (complex(point) - self.base)).imag

    def signed_distances(self, points: np.ndarray) -> np.ndarray:
        """signed_distance of every entry of an array, to the last bit.

        Spelled out in real arithmetic as Python's complex product forms
        it; NumPy's complex product can round the imaginary part otherwise.
        """
        rot = cmath.exp(-1j * self.theta)
        d = np.asarray(points, dtype=complex) - self.base
        return rot.real * d.imag + rot.imag * d.real

    def side(self, point: complex, tol: float) -> str:
        """"boundary" within tol of the line, else "interior" or "outside"."""
        s = self.signed_distance(point)
        if abs(s) <= tol:
            return "boundary"
        return "interior" if s > tol else "outside"

    def from_upper(self, u: complex) -> complex:
        """Map a point, or an array of points, of the closed upper
        half-plane into this half-plane."""
        return self.base + cmath.exp(1j * self.theta) * u

    def to_upper(self, point: complex) -> complex:
        """Inverse of from_upper."""
        return cmath.exp(-1j * self.theta) * (complex(point) - self.base)


def halfplane_contains(
    halfplane: HalfPlane, point: complex, tol: float | None = None
) -> str:
    """Classify a point as "interior", "boundary" or "outside"."""
    if tol is None:
        tol = BOUNDARY_SCALE * (1.0 + abs(complex(point)))
    return halfplane.side(point, tol)


def to_upper_halfplane(halfplane: HalfPlane, p: Poly) -> Poly:
    """Conjugate p by the rigid map sending the half-plane to Im >= 0.

    Roots transform as x -> e^{-i theta} (x - base), so stability against
    the given half-plane becomes stability against the upper half-plane.
    """
    roots = find_roots(p)
    moved = [halfplane.to_upper(x) for x in roots]
    return vieta_from_roots(moved)


def upper_chart(halfplane: HalfPlane, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (A, b) with z_upper = A @ z + b on coefficient vectors.

    This is the coefficient-level counterpart of to_upper_halfplane: if q
    has roots e^{-i theta} (x_j - base) then q's coefficient vector equals
    A z + b, linearly in z.  Built column-by-column, so it is exact up to
    rounding and needs no root finding.
    """
    alpha = cmath.exp(-1j * halfplane.theta)
    beta = complex(halfplane.base)

    def transform_raw(w: np.ndarray) -> np.ndarray:
        # w: descending raw coefficients of f. Output: descending raw
        # coefficients of alpha^deg f(T/alpha + beta), whose roots are
        # alpha (x_j - beta).
        deg = w.size - 1
        # Taylor shift: repeated synthetic division by (T - beta) yields
        # f(T) = sum c_k (T - beta)^k, so f(T + beta) = sum c_k T^k.
        work = list(w)
        ascending = []
        while work:
            acc = work[0]
            quotient = [acc]
            for i in range(1, len(work)):
                acc = acc * beta + work[i]
                quotient.append(acc)
            ascending.append(quotient[-1])
            work = quotient[:-1]
        shifted_desc = np.array(ascending[::-1], dtype=complex)
        powers = alpha ** np.arange(0, deg + 1)
        return shifted_desc * powers  # coefficient of T^{deg-t} gains alpha^t

    zero = np.zeros(n, dtype=complex)
    b = raw_to_z(transform_raw(z_to_raw(zero)))
    cols = []
    for j in range(n):
        ej = np.zeros(n, dtype=complex)
        ej[j] = 1.0
        cols.append(raw_to_z(transform_raw(z_to_raw(ej))) - b)
    A = np.column_stack(cols)
    return A, b


@dataclasses.dataclass(frozen=True)
class Moebius:
    """Map T -> (a T + b) / (c T + d) with nonvanishing determinant."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a) * abs(self.d), abs(self.b) * abs(self.c), 1.0)
        if abs(det) <= MOEBIUS_DET_SCALE * scale:
            raise DegenerateMap(f"determinant {det!r} numerically zero")

    def __call__(self, point: complex) -> complex:
        num = self.a * point + self.b
        den = self.c * point + self.d
        if den == 0:
            return complex(math.inf, math.inf)
        return num / den

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other, as matrix product."""
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


@dataclasses.dataclass(frozen=True)
class MoebiusImage:
    """Raw coefficients of the transformed polynomial plus the degree drop."""

    coefficients: tuple[complex, ...]
    degree_drop: int


def moebius_transform_poly(moebius: Moebius, p: Poly) -> MoebiusImage:
    """Coefficients of (cT + d)^n f((aT + b)/(cT + d)).

    The result is not normalized to monic; leading coefficients that
    vanish numerically are trimmed and reported as a degree drop.  A drop
    happens exactly when a root of f is the image of infinity under the
    map, so callers must inspect it rather than rely on the degree.
    """
    n = p.degree
    w = p.raw_coefficients()
    num = np.array([moebius.a, moebius.b], dtype=complex)
    den = np.array([moebius.c, moebius.d], dtype=complex)

    num_pows: list[np.ndarray] = [np.array([1.0 + 0.0j])]
    den_pows: list[np.ndarray] = [np.array([1.0 + 0.0j])]
    for _ in range(n):
        num_pows.append(np.convolve(num_pows[-1], num))
        den_pows.append(np.convolve(den_pows[-1], den))

    acc = np.zeros(n + 1, dtype=complex)
    for t in range(n + 1):
        term = np.convolve(num_pows[n - t], den_pows[t]) * w[t]
        acc[n + 1 - term.size :] += term

    scale = float(np.max(np.abs(acc))) if acc.size else 0.0
    if scale == 0.0:
        return MoebiusImage((0.0 + 0.0j,), n)
    keep = np.abs(acc) > _TRIM_SCALE * scale
    first = int(np.argmax(keep))
    trimmed = acc[first:]
    return MoebiusImage(tuple(complex(v) for v in trimmed), first)
