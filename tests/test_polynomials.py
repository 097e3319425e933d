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
from stable_slices import NonConvergence, polynomials
from stable_slices.errors import DimensionMismatch
from stable_slices.polynomials import (
    CLUSTER_SCALE,
    _aberth,
    _circle_start,
    _collapse_refine,
    _gaps,
    _polyval,
    _single_linkage,
    vieta_rows,
)


def brute_elementary(roots, i):
    return sum(
        np.prod(combo) for combo in itertools.combinations([complex(r) for r in roots], i)
    )


def bits(values) -> list[int]:
    """The bit patterns of complex values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def reference_linkage(points, radius):
    """Single linkage as a loop over every pair, with abs on each difference."""
    n = points.size
    parent = list(range(n))

    def find(i):
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
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def reference_clusters(roots, radius):
    """cluster_roots' centers and members, from reference_linkage, np.mean
    centers and a pairwise merge loop that recomputes every center."""
    xs = np.asarray(roots, dtype=complex)
    groups = reference_linkage(xs, radius)
    centers = [complex(np.mean(xs[g])) for g in groups]
    changed = True
    while changed and len(groups) > 1:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if abs(centers[i] - centers[j]) <= radius:
                    groups[i] = groups[i] + groups[j]
                    del groups[j]
                    centers = [complex(np.mean(xs[g])) for g in groups]
                    changed = True
                    break
            if changed:
                break
    clusters = [(complex(np.mean(xs[g])), tuple(complex(xs[k]) for k in sorted(g)))
                for g in groups]
    return sorted(clusters, key=lambda c: (c[0].real, c[0].imag))


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

    @pytest.mark.parametrize("raw", [False, True])
    def test_coincident_warm_values(self, raw):
        # the warm start's asymmetric nudge splits four equal values far
        # enough for the pairwise repulsion to separate them
        planted = [-1.5 + 0.5j, 0.25 + 2j, 1.0 + 0.75j, 2.5 - 1j]
        found = find_roots(vieta_from_roots(planted), initial=[1j] * 4, raw=raw)
        assert match_roots(found, planted) < 1e-10

    @staticmethod
    def count_passes(monkeypatch) -> list:
        passes = []

        def counting(w, x):
            passes.append(x)
            return _aberth(w, x)

        monkeypatch.setattr(polynomials, "_aberth", counting)
        return passes

    def test_rotated_retry_rescues_a_stiff_cluster(self, monkeypatch):
        # a triple root next to a double one: the circle start's iterates
        # miss the residual gate, the rotated start's pass meets it
        a = -3.25 + 0.25j
        b = -3.365429610673588 + 0.18657019497890862j
        roots = [a] * 3 + [b] * 2 + [-0.75 + 1j]
        passes = self.count_passes(monkeypatch)
        found = find_roots(vieta_from_roots(roots))
        assert len(passes) == 2
        assert match_roots(found, roots) < 1e-9

    @pytest.mark.parametrize("roots", [
        [1.066493650154447 + 0.18513282640399917j] * 4
        + [1.074186890122642 + 0.1893173946433556j],
        [0.323910601450384 + 0.7983092905977468j] * 4
        + [0.3176968921431506 + 0.8028557950451586j,
           0.2713499427379583 + 0.0231796154480359j],
    ], ids=["near-simple", "near-simple-and-far"])
    def test_rotated_retry_rescues_a_fourfold_root(self, monkeypatch, roots):
        # a 4-fold root with a simple one about 1e-2 away
        passes = self.count_passes(monkeypatch)
        found = find_roots(vieta_from_roots(roots))
        assert len(passes) == 2
        assert match_roots(found, roots) < 1e-9

    @pytest.mark.parametrize("raw", [False, True])
    def test_warm_start_needs_one_value_per_root(self, raw):
        with pytest.raises(DimensionMismatch, match="one value per root"):
            find_roots(Poly((0.0, 1.0)), initial=[1j], raw=raw)


class TestPolyval:
    def test_matches_np_polyval_bit_for_bit(self):
        overflowed = 0
        for degree in range(1, 41):
            rng = np.random.default_rng(degree)
            c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            # magnitudes up to 1e40 overflow the high degrees to inf and nan
            x = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 10.0 ** rng.uniform(-3, 40, 64)
            with np.errstate(all="ignore"):
                pairs = [(np.polyval(c, x), _polyval(c.tolist(), x)),
                         (np.polyval(np.abs(c), np.abs(x)),
                          _polyval(np.abs(c).tolist(), np.abs(x)))]
            for expected, got in pairs:
                assert got.dtype == expected.dtype, degree
                assert got.tobytes() == expected.tobytes(), degree
            overflowed += not np.isfinite(pairs[0][0]).all()
        assert overflowed > 20


class TestSingleLinkage:
    """_single_linkage gives the groups of the pairwise loop it replaced."""

    def test_chained_clusters(self):
        r = 1e-3
        chain = 0.9 * r * np.arange(6)
        zigzag = 5.0 + 0.7 * r * (np.arange(5) + 1j * (np.arange(5) % 2))
        points = np.concatenate([chain, zigzag, [2.0, 2.0 + 1.1 * r]])
        groups = _single_linkage(points, r)
        assert groups == reference_linkage(points, r)
        assert [len(g) for g in groups] == [6, 5, 1, 1]

    def test_pairs_exactly_at_the_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            points = rng.normal(size=8) + 1j * rng.normal(size=8)
            gaps = _gaps(points)
            for i in range(8):
                for j in range(i + 1, 8):
                    radius = abs(points[i] - points[j])
                    assert gaps[i, j] == gaps[j, i] == radius
                    groups = _single_linkage(points, radius)
                    assert groups == reference_linkage(points, radius)
                    assert any(i in g and j in g for g in groups)

    def test_seeded_clouds(self):
        rng = np.random.default_rng(11)
        for n in range(1, 25):
            points = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-8, 3)
            for radius in (0.0, 1e-3, 0.1, 0.5, 2.0):
                assert _single_linkage(points, radius) == reference_linkage(points, radius)


class TestCollapseRefine:
    """Skipping a rung that repeats a lower rung's grouping changes nothing."""

    @staticmethod
    def every_rung(w, z, x):
        """_collapse_refine's ladder with a trial on every rung that links a pair."""
        scale = 1.0 + float(np.max(np.abs(x)))
        best = None
        for factor in (1.0, 1e1, 1e2, 1e3, 1e4):
            groups = reference_linkage(x, CLUSTER_SCALE * scale * factor)
            if all(len(g) == 1 for g in groups):
                continue
            arr, err = polynomials._snapped(w, z, x, groups)
            if best is None or err < best[1]:
                best = (arr, err)
        return best

    def check(self, monkeypatch, polys):
        """Compare each _collapse_refine call that find_roots makes on polys
        with every_rung; returns the trials each of the two made in all."""
        calls = []

        def recording(w, z, x):
            calls.append((w, z, x))
            return _collapse_refine(w, z, x)

        monkeypatch.setattr(polynomials, "_collapse_refine", recording)
        for p in polys:
            try:
                find_roots(p)
            except NonConvergence:
                pass
        monkeypatch.undo()

        trials = []
        snapped = polynomials._snapped

        def counting(*args):
            trials[-1] += 1
            return snapped(*args)

        monkeypatch.setattr(polynomials, "_snapped", counting)
        for w, z, x in calls:
            trials.append(0)
            got = _collapse_refine(w, z, x)
            trials.append(0)
            expected = self.every_rung(w, z, x)
            assert (got is None) == (expected is None)
            if got is not None:
                assert bits(got[0]) == bits(expected[0])
                assert got[1] == expected[1]
        return sum(trials[0::2]), sum(trials[1::2])

    def test_triple_plus_double_family(self, monkeypatch):
        # a triple root, a double root 1/8 to 1/2 away and a simple root
        rng = np.random.default_rng(6)
        polys = []
        for _ in range(30):
            a = complex(*rng.integers(-8, 9, 2)) / 2
            b = a + rng.choice([0.125, 0.25, 0.375, 0.5]) * 1j ** rng.integers(4)
            c = a + complex(*rng.integers(-8, 9, 2)) / 2 + 2.0
            polys.append(vieta_from_roots([a] * 3 + [b] * 2 + [c]))
        with_skip, without = self.check(monkeypatch, polys)
        assert with_skip < without

    def test_stiff_cluster(self, monkeypatch):
        a = -3.25 + 0.25j
        b = -3.365429610673588 + 0.18657019497890862j
        with_skip, without = self.check(
            monkeypatch, [vieta_from_roots([a] * 3 + [b] * 2 + [-0.75 + 1j])])
        assert with_skip < without


class TestAberthFloorStop:
    """Multiple roots stall Aberth's steps above the step-size test; the
    backward-error floor has to end the iteration instead of the cap."""

    CASES = ([1j, 1j, 1j, 2j], [0.5, 0.5, 0.5, 0.5, 3j])

    @pytest.mark.parametrize("roots", CASES)
    def test_stops_well_before_the_cap(self, roots, monkeypatch):
        w = vieta_from_roots(roots).raw_coefficients()
        x0 = _circle_start(w)
        monkeypatch.setattr(polynomials, "_ABERTH_MAX_ITERATIONS", 60)
        short, floored = _aberth(w, x0)
        assert floored
        monkeypatch.setattr(polynomials, "_ABERTH_MAX_ITERATIONS", 400)
        assert np.array_equal(short, _aberth(w, x0)[0])

    @pytest.mark.parametrize("roots", CASES)
    def test_find_roots_passes_the_residual_gate(self, roots):
        found = find_roots(vieta_from_roots(roots))
        assert match_roots(found, roots) < 1e-6


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

    def test_merge_loop_matches_the_pairwise_loop(self):
        # linkage leaves {-0.5, 0.5} and {0.88i, 0.92i} apart, but their
        # centers lie 0.9 apart; the singleton's -0.0 real part is a +0.0 in
        # np.mean's center
        roots = [-0.5, 0.88j, 5.0, 0.5, complex(-0.0, 3.0), 0.92j, 5.0 + 0.6j]
        assert len(reference_linkage(np.asarray(roots), 1.0)) == 4
        expected = reference_clusters(roots, 1.0)
        got = cluster_roots(roots, HalfPlane.upper(), radius=1.0).clusters
        assert [len(members) for _, members in expected] == [4, 1, 2]
        assert bits([c.center for c in got]) == bits([center for center, _ in expected])
        assert [c.members for c in got] == [members for _, members in expected]
        assert bits([got[1].center]) == bits([3j])

    def test_merges_the_first_close_pair_first(self):
        # rings of 48 and 24 roots about 0 and 0.9 and one root at 1.8: the
        # centers 0, 0.9 and 1.8 are 0.9 apart, and merging the first two
        # leaves the third 1.5 away, while merging the last two first would
        # draw in all three
        def ring(center, radius, m):
            return center + radius * np.exp(2j * np.pi * np.arange(m) / m)

        roots = np.concatenate([ring(0.0, 6.0, 48), ring(0.9, 3.0, 24), [1.8]])
        expected = reference_clusters(roots, 1.0)
        got = cluster_roots(roots, HalfPlane.upper(), radius=1.0).clusters
        assert [len(members) for _, members in expected] == [72, 1]
        assert bits([c.center for c in got]) == bits([center for center, _ in expected])
        assert [c.members for c in got] == [members for _, members in expected]

    def test_seeded_chains_match_the_pairwise_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            roots = rng.normal(size=n) + 1j * rng.normal(size=n)
            r = float(rng.uniform(0.2, 1.0))
            expected = reference_clusters(roots, r)
            got = cluster_roots(roots, HalfPlane.upper(), radius=r).clusters
            assert bits([c.center for c in got]) == bits([center for center, _ in expected])
            assert [c.members for c in got] == [members for _, members in expected]

    def test_center_is_weighted_mean(self):
        profile = cluster_roots([0.0, 3e-7], HalfPlane.upper(), radius=1e-6)
        (c,) = profile.clusters
        assert abs(c.center - 1.5e-7) < 1e-12


@pytest.mark.parametrize("bad", [(), (float("nan"),), (float("inf") + 0j,)])
def test_poly_rejects_non_finite(bad):
    with pytest.raises((ValueError, TypeError)):
        Poly(tuple(bad))
