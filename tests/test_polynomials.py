import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from stable_slices import (
    HalfPlane,
    Poly,
    cluster_roots,
    find_roots,
    vieta_from_roots,
)
from stable_slices import polynomials
from stable_slices.polynomials import (
    _aberth,
    _aberth_rows,
    _circle_start,
    find_roots_rows,
    vieta_rows,
    z_to_raw,
)


def brute_elementary(roots, i):
    return sum(
        np.prod(combo) for combo in itertools.combinations([complex(r) for r in roots], i)
    )


def match_roots(found, expected):
    """Max distance after optimal assignment of the two multisets."""
    found = np.asarray(found)
    expected = np.asarray(expected)
    cost = np.abs(found[:, None] - expected[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


class TestEval:
    """The raw coefficients of Poly evaluate f_z with the Vieta signs."""

    def test_double_root(self):
        p = Poly((2j, -1.0))  # (T - i)^2
        assert np.polyval(p.raw_coefficients(), 1j) == 0

    def test_linear(self):
        assert np.polyval(Poly((0.0,)).raw_coefficients(), 7.0) == 7.0

    def test_cubic_at_known_root(self):
        # (T+2)(T+1+i)(T+1-i) = T^3 + 4T^2 + 6T + 4, so z = (-4, 6, -4)
        p = Poly((-4.0, 6.0, -4.0))
        assert abs(np.polyval(p.raw_coefficients(), -2.0)) < 1e-12


class TestVieta:
    def test_all_ones(self):
        p = vieta_from_roots((1, 1, 1, 1, 1))
        assert np.allclose(p.z, (5, 10, 10, 5, 1))

    def test_two_imaginary(self):
        p = vieta_from_roots((1j, 2j))
        assert np.allclose(p.z, (3j, -2))

    def test_flagship_quadruple(self):
        # The n=4 slice example point; the odd-index values are the
        # elementary symmetrics computed from the stated roots, which is
        # what the convention z_i = e_i demands.
        p = vieta_from_roots((-20 + 1j, 1j, 20 + 1j, 20j))
        assert np.allclose(p.z, (23j, -463, -8461j, 8020), atol=1e-9)

    def test_hurwitz_cubic(self):
        p = vieta_from_roots((-2, -1 + 1j, -1 - 1j))
        assert np.allclose(p.z, (-4, 6, -4), atol=1e-12)

    @given(st.lists(finite_complex, min_size=1, max_size=6))
    def test_matches_brute_force(self, roots):
        p = vieta_from_roots(roots)
        for i in range(1, len(roots) + 1):
            expected = brute_elementary(roots, i)
            scale = 1.0 + abs(expected)
            assert abs(p.z[i - 1] - expected) < 1e-9 * scale

    @given(
        st.lists(finite_complex, min_size=1, max_size=4),
        st.lists(finite_complex, min_size=1, max_size=4),
    )
    def test_multiply_is_the_expansion_oracle(self, xs, ys):
        joint = vieta_from_roots(xs + ys).raw_coefficients()
        prod = np.convolve(
            vieta_from_roots(xs).raw_coefficients(),
            vieta_from_roots(ys).raw_coefficients(),
        )
        scale = 1.0 + float(np.max(np.abs(joint)))
        assert np.max(np.abs(np.asarray(prod) - joint)) < 1e-10 * scale


class TestVietaRows:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_vieta_from_roots(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        rows = vieta_rows(x)
        assert rows.shape == (7, n)
        for b in range(7):
            expected = [brute_elementary(x[b], i) for i in range(1, n + 1)]
            scale = 1.0 + max(abs(v) for v in expected)
            assert np.max(np.abs(rows[b] - expected)) <= 1e-12 * scale
            single = vieta_from_roots(x[b]).z
            assert np.max(np.abs(rows[b] - single)) <= 1e-13 * scale

    def test_one_row_rejects_non_finite_roots(self):
        with pytest.raises(ValueError):
            vieta_from_roots((1.0, float("nan")))
        with pytest.raises(ValueError):
            vieta_from_roots((complex("inf"), 1.0))


class TestFindRoots:
    def test_t_squared_plus_one(self):
        roots = find_roots(Poly((0.0, 1.0)))
        assert match_roots(roots, [1j, -1j]) < 1e-10

    def test_double_root(self):
        roots = find_roots(Poly((2j, -1.0)))
        assert match_roots(roots, [1j, 1j]) < 1e-6

    def test_flagship_quadruple(self):
        roots = find_roots(Poly((23j, -463.0, -8461j, 8020.0)))
        assert match_roots(roots, [-20 + 1j, 1j, 20 + 1j, 20j]) < 1e-8

    def test_deterministic(self):
        p = Poly((0.3 + 1j, -2.0, 0.25j, 1.0 - 0.5j))
        assert find_roots(p) == find_roots(p)

    def test_quintuple_stack(self):
        # (T+1)^5: multiple roots are the hard case for the residual gate
        p = vieta_from_roots((-1,) * 5)
        roots = find_roots(p)
        assert match_roots(roots, [-1] * 5) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_complex, min_size=1, max_size=8))
    def test_vieta_roundtrip(self, roots):
        p = vieta_from_roots(roots)
        found = find_roots(p)
        assert match_roots(found, roots) < 1e-6

    def test_rotated_retry_rescues_a_stiff_cluster(self, monkeypatch):
        # a triple root next to a double one: the circle start's iterates
        # miss the residual gate, the rotated start's pass meets it
        a = -3.25 + 0.25j
        b = -3.365429610673588 + 0.18657019497890862j
        roots = [a] * 3 + [b] * 2 + [-0.75 + 1j]
        passes = []

        def counting(w, x, max_iterations):
            passes.append(max_iterations)
            return _aberth(w, x, max_iterations)

        monkeypatch.setattr(polynomials, "_aberth", counting)
        found = find_roots(vieta_from_roots(roots))
        assert len(passes) == 2
        assert match_roots(found, roots) < 1e-9


class TestAberthFloorStop:
    """Multiple roots stall Aberth's steps above the step-size test; the
    backward-error floor has to end the iteration instead of the cap."""

    CASES = ([1j, 1j, 1j, 2j], [0.5, 0.5, 0.5, 0.5, 3j])

    @pytest.mark.parametrize("roots", CASES)
    def test_stops_well_before_the_cap(self, roots):
        w = vieta_from_roots(roots).raw_coefficients()
        x0 = _circle_start(w)
        short, floored = _aberth(w, x0, 60)
        assert floored
        assert np.array_equal(short, _aberth(w, x0, 400)[0])

    @pytest.mark.parametrize("roots", CASES)
    def test_find_roots_passes_the_residual_gate(self, roots):
        found = find_roots(vieta_from_roots(roots))
        assert match_roots(found, roots) < 1e-6


def aberth_fixture(n):
    """z vectors of degree n whose cold _aberth runs end in each of its ways:
    the step-size stop, the floor stop (a triple root), a NaN row (a
    constant term near 1e290 overflows Horner at the start) and, at a low
    iteration cap, the cap."""
    rng = np.random.default_rng(n)
    rows = [rng.normal(0, 2, n) + 1j * rng.normal(0, 1, n) for _ in range(5)]
    triple = rng.normal(0, 1, n) + 1j * rng.normal(0, 1, n)
    triple[1:3] = triple[0]
    close = rng.normal(0, 1, n) + 1j * rng.normal(0, 1, n)
    close[1] = close[0] + 1e-7
    rows += [triple, close, 10.0 ** (290 // n) * (1.0 + np.arange(n)) * 1j]
    return np.array([vieta_from_roots(r).z for r in rows])


class TestAberthRows:
    @pytest.mark.parametrize("n", [3, 4, 9])
    @pytest.mark.parametrize("max_iterations", [4, 400])
    def test_matches_aberth_bit_for_bit(self, n, max_iterations):
        # degree 9 sums the repulsion pairwise in NumPy, degree 3 and 4 in order
        W = z_to_raw(aberth_fixture(n))
        with np.errstate(all="ignore"):
            X, floored = _aberth_rows(W, _circle_start(W), max_iterations)
            single = [_aberth(w, _circle_start(w), max_iterations) for w in W]
        for b, (x, stop) in enumerate(single):
            assert np.array_equal(X[b], x, equal_nan=True), b
            assert floored[b] == stop, b
        if max_iterations == 400:
            assert floored.any() and not floored.all()
            assert np.isnan(X[-1]).all()


class TestFindRootsRows:
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_clean_rows_are_find_roots_results(self, n):
        Z = aberth_fixture(n)
        with np.errstate(all="ignore"):
            roots, clean = find_roots_rows(Z)
        # the triple root, the 1e-7 pair and the overflow need find_roots
        assert clean.tolist() == [True] * 5 + [False] * 3
        for z, x in zip(Z[clean], roots[clean]):
            assert tuple(x[np.lexsort((x.imag, x.real))]) == find_roots(Poly(tuple(z)))

    def test_degree_one_rows_are_their_roots(self):
        Z = np.array([[2.0 + 1j], [-3.0]])
        roots, clean = find_roots_rows(Z)
        assert clean.all() and np.array_equal(roots, Z)


class TestClusterRoots:
    def test_near_duplicate_merges(self):
        profile = cluster_roots([1.0, 1.0 + 1e-12], HalfPlane.upper(), radius=1e-9)
        assert len(profile.clusters) == 1
        assert profile.clusters[0].multiplicity == 2
        assert profile.measure() == (0, 1)

    def test_flagship_profile(self):
        profile = cluster_roots([-20 + 1j, 1j, 20 + 1j, 20j], HalfPlane.upper())
        assert profile.measure() == (4, 0)
        assert all(c.side == "interior" for c in profile.clusters)

    def test_separated_boundary_pair(self):
        profile = cluster_roots([0.0, 1e-3], HalfPlane.upper(), radius=1e-9)
        assert profile.boundary_distinct == 2

    def test_outside_detection(self):
        profile = cluster_roots([1j, -1j], HalfPlane.upper())
        assert profile.outside_total == 1

    @given(st.lists(finite_complex, min_size=1, max_size=10))
    def test_multiplicity_conserved(self, roots):
        profile = cluster_roots(roots, HalfPlane.upper())
        assert profile.total_multiplicity == len(roots)

    def test_center_is_weighted_mean(self):
        profile = cluster_roots([0.0, 3e-7], HalfPlane.upper(), radius=1e-6)
        (c,) = profile.clusters
        assert abs(c.center - 1.5e-7) < 1e-12


@pytest.mark.parametrize("bad", [(), (float("nan"),), (float("inf") + 0j,)])
def test_poly_rejects_non_finite(bad):
    with pytest.raises((ValueError, TypeError)):
        Poly(tuple(bad))
