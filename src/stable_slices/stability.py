"""Stability predicates and the rotation between real and complex frames.

A polynomial is stable for a closed half-plane when every root lies in
it.  Real polynomials whose roots lie in the closed left half-plane
correspond, through the rotation implemented here, to upper-half-plane
stable polynomials with alternating real / imaginary coefficients; the
embed/unembed pair moves between the two pictures losslessly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NonRealInput, NotInImage
from .polynomials import (
    Poly,
    RootProfile,
    cluster_roots,
    find_roots,
)
from .regions import HalfPlane

_REALITY_SCALE = 1e-10


@dataclasses.dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    profile: RootProfile
    witness: tuple[complex, ...]

    @property
    def strict(self) -> bool:
        """True when every root cluster is interior (none on the boundary)."""
        return self.stable and self.profile.boundary_distinct == 0


def is_stable(p: Poly, halfplane: HalfPlane | None = None) -> StabilityVerdict:
    """Stable iff no root cluster is classified outside the half-plane."""
    region = halfplane if halfplane is not None else HalfPlane.upper()
    roots = find_roots(p)
    profile = cluster_roots(roots, region)
    return StabilityVerdict(profile.outside_total == 0, profile, roots)


def _require_real(p: Poly) -> list[float]:
    """Real parts of p's coefficients; NonRealInput if any is not real."""
    scale = p.scale()
    for v in p.z:
        if abs(v.imag) > _REALITY_SCALE * scale:
            raise NonRealInput(f"coefficient {v!r} has a non-real part")
    return [v.real for v in p.z]


def hurwitz_embed(p: Poly) -> Poly:
    """Rotate a real polynomial into its upper-half-plane counterpart.

    Coefficient k of the output is (-i)^k times coefficient k of the
    input; equivalently the roots are multiplied by -i, carrying the
    closed left half-plane onto the closed upper half-plane.
    """
    factors = (-1j) ** np.arange(1, p.degree + 1)
    return Poly(tuple(factors * np.asarray(_require_real(p), dtype=complex)))


def hurwitz_unembed(p: Poly) -> Poly:
    """Inverse rotation; rejects vectors without the alternating pattern."""
    factors = (1j) ** np.arange(1, p.degree + 1)
    candidate = factors * np.asarray(p.z, dtype=complex)
    scale = p.scale()
    worst = float(np.max(np.abs(candidate.imag))) if p.degree else 0.0
    if worst > _REALITY_SCALE * scale:
        raise NotInImage(
            f"imaginary residue {worst:.3e} exceeds {_REALITY_SCALE * scale:.3e}"
        )
    return Poly(tuple(complex(v.real) for v in candidate))


def is_weakly_hurwitz(p: Poly) -> StabilityVerdict:
    """All roots in the closed left half-plane (imaginary axis allowed)."""
    return is_stable(Poly(tuple(_require_real(p))), HalfPlane.left())
