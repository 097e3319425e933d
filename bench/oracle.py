"""Reference arithmetic for the output checks, written apart from the program.

Nothing here imports ``stable_slices``: every value a check compares
against is recomputed from the job's own inputs with plain NumPy.
Complex numbers travel as ``[re, im]`` pairs, as in the CLI documents.
"""

from __future__ import annotations

import cmath

import numpy as np


def pair(value) -> list[float]:
    z = complex(value)
    return [float(z.real), float(z.imag)]


def unpair(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def unpair_all(values) -> np.ndarray:
    return np.array([unpair(v) for v in values], dtype=complex)


def elementary(roots) -> np.ndarray:
    """e_1..e_n of the roots, by the recurrence e_t += x * e_{t-1}."""
    xs = np.asarray(roots, dtype=complex).ravel()
    e = np.zeros(xs.size + 1, dtype=complex)
    e[0] = 1.0
    for i, x in enumerate(xs):
        e[1:i + 2] = e[1:i + 2] + x * e[0:i + 1]
    return e[1:]


def abs_elementary(roots) -> np.ndarray:
    """e_1..e_n of |roots|: the size a rounding error in e_t is measured against."""
    return elementary(np.abs(np.asarray(roots, dtype=complex)).astype(complex)).real


def monic_raw(z) -> np.ndarray:
    """Descending coefficients [1, -z1, +z2, ...] of the Vieta-signed vector z."""
    zv = np.asarray(z, dtype=complex)
    signs = (-1.0) ** np.arange(1, zv.size + 1)
    return np.concatenate(([1.0 + 0.0j], signs * zv))


class HalfPlane:
    """Closed half-plane {base + e^{i theta} u : Im u >= 0}."""

    def __init__(self, theta: float = 0.0, base: complex = 0.0):
        self.theta = float(theta)
        self.base = complex(base)

    @classmethod
    def from_doc(cls, doc) -> "HalfPlane":
        if doc is None:
            return cls()
        if "name" in doc:
            return cls(np.pi / 2.0 if doc["name"] == "left" else 0.0)
        return cls(doc.get("theta", 0.0), unpair(doc.get("base", [0.0, 0.0])))

    def distance(self, point) -> float:
        """Signed distance: positive inside, negative outside."""
        return (cmath.exp(-1j * self.theta) * (complex(point) - self.base)).imag

    def from_upper(self, u) -> complex:
        return self.base + cmath.exp(1j * self.theta) * complex(u)


def boundary_tol(roots) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(np.asarray(roots, dtype=complex)))))


def rank(matrix, rel: float = 1e-8) -> int:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rel * s[0])) if s[0] > 0 else 0


def distinct_values(xs, rel: float = 1e-6) -> list[complex]:
    """Greedy grouping of values closer than rel * (1 + max |x|)."""
    arr = np.asarray(xs, dtype=complex)
    radius = rel * (1.0 + float(np.max(np.abs(arr)))) if arr.size else 0.0
    reps: list[complex] = []
    for x in arr:
        if not any(abs(x - r) <= radius for r in reps):
            reps.append(complex(x))
    return reps


def eval_terms(terms, w) -> complex:
    """Sparse polynomial sum c * prod w_i^p_i over (exponents, coefficient) pairs."""
    total = 0.0 + 0.0j
    for exps, coeff in terms:
        term = complex(coeff)
        for i, p in enumerate(exps):
            term *= w[i] ** p
        total += term
    return total


def abs_eval_terms(terms, w) -> float:
    total = 0.0
    for exps, coeff in terms:
        term = abs(complex(coeff))
        for i, p in enumerate(exps):
            term *= abs(w[i]) ** p
        total += term
    return total
