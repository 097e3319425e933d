import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from stable_slices import (
    DegenerateMap,
    HalfPlane,
    Moebius,
    Poly,
    find_roots,
    halfplane_contains,
    is_stable,
    moebius_transform_poly,
    upper_chart,
    vieta_from_roots,
)


def match_roots(found, expected):
    found = np.asarray(found)
    expected = np.asarray(expected)
    cost = np.abs(found[:, None] - expected[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


small_complex = st.builds(
    complex, st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
)


class TestContains:
    def test_upper_interior(self):
        assert halfplane_contains(HalfPlane.upper(), 1j) == "interior"

    def test_upper_real_axis(self):
        assert halfplane_contains(HalfPlane.upper(), 5.0) == "boundary"

    def test_left_interior(self):
        assert halfplane_contains(HalfPlane.left(), -1 + 1j) == "interior"

    def test_outside(self):
        assert halfplane_contains(HalfPlane.upper(), -2j) == "outside"

    def test_default_tolerance(self):
        # the boundary band is BOUNDARY_SCALE (1 + |point|)
        assert halfplane_contains(HalfPlane.upper(), 5e-9j) == "boundary"
        assert halfplane_contains(HalfPlane.upper(), 1e-3j) == "interior"


@pytest.mark.parametrize("H", [HalfPlane.upper(), HalfPlane.left(), HalfPlane(4.4, 0.3 - 0.7j)])
def test_signed_distances_match_signed_distance_bit_for_bit(H):
    rng = np.random.default_rng(3)
    points = (rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))) * 10.0 ** rng.uniform(
        -6, 6, size=(50, 4))
    expected = [[H.signed_distance(v) for v in row] for row in points]
    assert H.signed_distances(points).tolist() == expected


def chart_image(H: HalfPlane, p: Poly) -> np.ndarray:
    A, b = upper_chart(H, p.degree)
    return A @ np.asarray(p.z) + b


def moved(H: HalfPlane, roots) -> np.ndarray:
    """The oracle: the coefficients of the roots moved into the upper chart."""
    return np.asarray(vieta_from_roots([H.to_upper(x) for x in roots]).z)


class TestToUpper:
    """upper_chart maps the coefficients of roots x_j to those of
    e^{-i theta} (x_j - base), the roots in the upper half-plane's chart."""

    def test_upper_is_identity(self):
        p = Poly((1 + 2j, -0.5, 3j))
        assert np.allclose(chart_image(HalfPlane.upper(), p), p.z, rtol=0, atol=1e-12)

    def test_left_halfplane_cubic(self):
        # roots {-2, -1 +/- i} rotate by -i onto {2i, 1+i, -1+i}
        roots = (-2.0, -1 + 1j, -1 - 1j)
        q = chart_image(HalfPlane.left(), vieta_from_roots(roots))
        assert np.allclose(q, moved(HalfPlane.left(), roots), rtol=0, atol=1e-12)
        assert match_roots(find_roots(Poly(tuple(q))), [2j, 1 + 1j, -1 + 1j]) < 1e-8

    def test_shift(self):
        H = HalfPlane(theta=0.0, base=5.0)
        q = chart_image(H, Poly((6.0,)))  # T - 6
        assert np.allclose(q, (1.0,), rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0, 2 * np.pi - 1e-9),
        small_complex,
        st.lists(small_complex, min_size=1, max_size=6),
    )
    def test_preserves_stability_verdict(self, theta, base, roots):
        H = HalfPlane(theta=theta, base=base)
        p = vieta_from_roots(roots)
        oracle = moved(H, roots)
        assert np.allclose(chart_image(H, p), oracle,
                           rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(oracle))))
        assert is_stable(p, H).stable == is_stable(Poly(tuple(oracle))).stable

    def test_chart_matches_root_transform(self):
        H = HalfPlane(theta=1.1, base=0.4 - 0.2j)
        roots = (0.5 + 1j, -0.3 + 2j, 1.4 - 0.7j)
        assert np.allclose(chart_image(H, vieta_from_roots(roots)), moved(H, roots),
                           rtol=0, atol=1e-12)


class TestMoebius:
    def test_identity(self):
        p = Poly((1j, -2.0))
        out = moebius_transform_poly(Moebius(1, 0, 0, 1), p)
        assert out.degree_drop == 0
        assert np.allclose(out.coefficients, p.raw_coefficients(), atol=1e-12)

    def test_shift(self):
        # T^2 + 1 composed with T + 1 gives T^2 + 2T + 2
        out = moebius_transform_poly(Moebius(1, 1, 0, 1), Poly((0.0, 1.0)))
        assert out.degree_drop == 0
        assert np.allclose(out.coefficients, (1, 2, 2), atol=1e-12)

    def test_cayley_degree_drop(self):
        # (T + i)((T - i)/(T + i) - 1) collapses to the constant -2i
        out = moebius_transform_poly(Moebius(1, -1j, 1, 1j), Poly((1.0,)))
        assert out.degree_drop == 1
        assert np.allclose(out.coefficients, (-2j,), atol=1e-12)

    def test_degenerate_map_rejected(self):
        with pytest.raises(DegenerateMap):
            Moebius(1, 2, 2, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_complex, min_size=1, max_size=5, unique=True))
    def test_root_correspondence(self, roots):
        # multiple roots of the image smear under any coefficient-level
        # finder, so the correspondence is only asserted for separated inputs
        if any(
            abs(a - b) < 1e-2
            for i, a in enumerate(roots)
            for b in roots[i + 1 :]
        ):
            return
        M = Moebius(1, 1j, 1, 2)
        inv = M.inverse()
        p = vieta_from_roots(roots)
        out = moebius_transform_poly(M, p)
        kept = [inv(x) for x in roots if abs(x - inv_image_pole(M)) > 1e-3]
        if len(kept) != len(out.coefficients) - 1:
            return  # a root sat too close to the pole threshold; skip
        if kept:
            got = np.roots(np.asarray(out.coefficients))
            assert match_roots(got, kept) < 1e-5

    def test_composition_up_to_scalar(self):
        p = Poly((0.5 + 1j, -2.0, 1j))
        m1 = Moebius(1, 1, 0, 1)
        m2 = Moebius(2, 0, 1, 1)
        once = moebius_transform_poly(m2.compose(m1), p).coefficients
        stepwise = moebius_transform_poly(
            m1, Poly.from_raw(moebius_transform_poly(m2, p).coefficients)
        )
        # compare after normalizing the leading coefficient away
        a = np.asarray(once) / once[0]
        bvec = np.asarray(stepwise.coefficients) / stepwise.coefficients[0]
        assert np.allclose(a, bvec, atol=1e-9)


def inv_image_pole(M: Moebius) -> complex:
    """Point whose image under M^{-1} is infinity: the root that drops."""
    inv = M.inverse()
    return -inv.d / inv.c
