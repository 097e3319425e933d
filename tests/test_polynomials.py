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

    def test_expansion_guard_sees_every_root(self):
        # a NaN after the first root is no maximum, but it makes the sum of
        # the moduli NaN, so the guarded path rejects it
        for roots in ([1.0 + 0j, complex("nan")], [2j, 1.0, complex(0.0, float("inf"))]):
            with pytest.raises(ValueError, match="root must be finite"):
                polynomials._expand(roots)
        with pytest.raises(NonConvergence, match="overflows"):
            polynomials._expand([1e200 + 0j, 1e200 + 0j])


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
        # a triple root next to a double one, draw 120 of
        # triple_plus_double(default_rng(2026)): the eigenvalue start's
        # iterates miss the residual gate, the rotated start's pass meets it
        a = 3.3275034750961217 + 1.5580166069345391j
        b = 3.2148363911785007 + 1.4468501002836704j
        roots = [a] * 3 + [b] * 2 + [-0.5489078680192693 + 0.7706276144525595j]
        passes = self.count_passes(monkeypatch)
        found = find_roots(vieta_from_roots(roots))
        assert len(passes) == 2
        assert match_roots(found, roots) < 1e-9

    def test_stiff_cluster_is_solved(self):
        # a member of the same family that needed the rotated start while
        # the pass ran on arrays at every degree
        a = -3.25 + 0.25j
        b = -3.365429610673588 + 0.18657019497890862j
        roots = [a] * 3 + [b] * 2 + [-0.75 + 1j]
        assert match_roots(find_roots(vieta_from_roots(roots)), roots) < 1e-9

    @pytest.mark.parametrize("roots", [
        [1.066493650154447 + 0.18513282640399917j] * 4
        + [1.074186890122642 + 0.1893173946433556j],
        [0.323910601450384 + 0.7983092905977468j] * 4
        + [0.3176968921431506 + 0.8028557950451586j,
           0.2713499427379583 + 0.0231796154480359j],
    ], ids=["near-simple", "near-simple-and-far"])
    def test_fourfold_root_is_solved(self, roots):
        # a 4-fold root with a simple one about 1e-2 away
        assert match_roots(find_roots(vieta_from_roots(roots)), roots) < 1e-9

    @pytest.mark.parametrize("roots", [
        [-1.6999078347860686 + 0.30925702541729105j] * 3
        + [-1.697375976777769 + 0.30878097578018515j,
           -0.9366382145641778 + 0.311990169593089j],
        [-1.212921446560678 + 0.9252364056618119j] * 3
        + [-1.2151105688939203 + 0.9265290624711451j,
           -0.5446386304529668 + 1.3304141883278107j,
           0.0690463039414747 + 1.3480400940037323j,
           -0.3496504145680769 + 0.8056108394550703j],
    ], ids=["draw-941", "draw-1066"])
    def test_rotated_retry_rescues_a_threefold_root(self, monkeypatch, roots):
        # a triple root with a simple one 2.5e-3 away, draws of
        # mfold_plus_near(default_rng(2026)): the eigenvalue start's pass
        # misses the residual gate, the rotated start's pass meets it
        passes = self.count_passes(monkeypatch)
        found = find_roots(vieta_from_roots(roots))
        assert len(passes) == 2
        assert match_roots(found, roots) < 1e-9

    @pytest.mark.parametrize("roots, passes", [
        # m-fold roots with a near simple one, draws 6 and 28 of
        # mfold_plus_near(default_rng(2026)), which neither circle start
        # solves
        ([1.0795919046425881 + 2.1834881427128314j] * 3
         + [1.076398387130644 + 2.1804319574421442j,
            4.726362200309775 + 1.6184131202601322j,
            1.2406597973328715 + 0.663821954890323j], 1),
        ([-1.0241606324516987 + 0.06214563047606366j] * 2
         + [-1.0241283557171592 + 0.06225196623019588j,
            -0.9289317806494788 + 1.5511470339356546j,
            -1.6546911376236868 + 1.5374765897606952j,
            -0.924858284179016 + 0.5599863050754036j], 1),
        # draw 73 of triple_plus_double(default_rng(2026)): only the third
        # start, the circle, meets the gate
        ([4.446556485017034 + 1.47084001348735j] * 3
         + [4.4883891705521375 + 1.6238316876626124j] * 2
         + [0.5703870187779143 + 1.1845560951901957j], 3),
    ], ids=["mfold-draw-6", "mfold-draw-28", "triple-plus-double-draw-73"])
    def test_cold_starts_in_order(self, monkeypatch, roots, passes):
        counted = self.count_passes(monkeypatch)
        found = find_roots(vieta_from_roots(roots))
        assert len(counted) == passes
        assert match_roots(found, roots) < 1e-9

    @pytest.mark.parametrize("error", ["raises", "nan"])
    def test_eig_start_falls_back_to_the_circle(self, monkeypatch, error):
        roots = [0.5j, 1 - 1j, 2 + 3j, -1 + 0.25j]
        p = vieta_from_roots(roots)
        w = p.raw_coefficients()

        def broken(c):
            if error == "raises":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.full(c.size - 1, np.nan, dtype=complex)

        monkeypatch.setattr(np, "roots", broken)
        assert np.array_equal(polynomials._eig_start(w), _circle_start(w))
        assert match_roots(find_roots(p), roots) < 1e-9

    @pytest.mark.parametrize("roots", [
        [0j, 1 + 1j, -2 + 0.5j],
        [0j, 0j, 0j, 0.5 + 2j, -1.5 + 0.25j, 3 - 1j, 1j, -0.75 + 1.5j],
    ], ids=["one-zero", "three-zeros-degree-8"])
    def test_zero_roots(self, roots):
        # the trailing zero coefficients are stripped by np.roots and come
        # back as exact zeros in its output
        assert match_roots(find_roots(vieta_from_roots(roots)), roots) < 1e-6

    @pytest.mark.parametrize("n", range(polynomials._SCALAR_MAX_DEGREE + 1, 13))
    def test_circle_starts_above_the_scalar_degrees(self, monkeypatch, n):
        def unused(w):
            raise AssertionError("the eigenvalue start serves degree <= 8 only")

        monkeypatch.setattr(polynomials, "_eig_start", unused)
        rng = np.random.default_rng([2026, n])
        roots = rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n))
        assert match_roots(find_roots(vieta_from_roots(roots)), roots) < 1e-9

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 12])
    def test_raw_returns_the_sorted_aberth_iterates_unpolished(self, monkeypatch, n):
        def unused(w, x):
            raise AssertionError("a raw call runs no polish")

        passes = []

        def recording(w, x):
            passes.append(_aberth(w, x))
            return passes[-1]

        monkeypatch.setattr(polynomials, "_polish", unused)
        monkeypatch.setattr(polynomials, "_aberth", recording)
        rng = np.random.default_rng([2026, n])
        roots = rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n))
        warm = roots + 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        found = find_roots(vieta_from_roots(roots), initial=warm, raw=True)
        assert len(passes) == 1
        x = passes[0][0]
        expected = sorted(x.tolist(), key=lambda v: (v.real, v.imag))
        assert bits(found) == bits(expected)
        assert match_roots(found, roots) < 1e-9

    @pytest.mark.parametrize("raw", [False, True])
    def test_warm_start_needs_one_value_per_root(self, raw):
        with pytest.raises(DimensionMismatch, match="one value per root"):
            find_roots(Poly((0.0, 1.0)), initial=[1j], raw=raw)

    def test_warm_phases_are_cached_read_only(self):
        for n in range(2, 41):
            phases = polynomials._warm_phases(n)
            assert np.array_equal(phases, np.exp(1j * (0.6 + 1.7 * np.arange(n))))
            assert not phases.flags.writeable
            assert polynomials._warm_phases(n) is phases


class TestDeflate:
    def test_matches_numpy_scalar_division_bit_for_bit(self):
        rng = np.random.default_rng(2027)
        for _ in range(500):
            n = int(rng.integers(1, 33))
            w = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) \
                * 10.0 ** rng.uniform(-3, 3, n + 1)
            r = complex(*rng.normal(0.0, 2.0, 2))
            # the division as the array version did it, on NumPy scalars
            expected, acc = [], w[0]
            for a in w[1:]:
                expected.append(acc)
                acc = acc * r + a
            assert bits(polynomials._deflate(w.tolist(), r)) == bits(expected)


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
    backward-error floor has to end the iteration instead of the cap.  At
    these degrees _aberth runs on Python scalars; the array pass is held
    to the same stop."""

    CASES = ([1j, 1j, 1j, 2j], [0.5, 0.5, 0.5, 0.5, 3j])

    @staticmethod
    def check_stop(kernel, roots, monkeypatch):
        w = vieta_from_roots(roots).raw_coefficients()
        x0 = _circle_start(w)
        monkeypatch.setattr(polynomials, "_ABERTH_MAX_ITERATIONS", 60)
        short, floored = kernel(w, x0)
        assert floored
        monkeypatch.setattr(polynomials, "_ABERTH_MAX_ITERATIONS", 400)
        assert np.array_equal(short, kernel(w, x0)[0])

    @pytest.mark.parametrize("roots", CASES)
    def test_stops_well_before_the_cap(self, roots, monkeypatch):
        assert len(roots) <= polynomials._SCALAR_MAX_DEGREE
        self.check_stop(_aberth, roots, monkeypatch)

    @pytest.mark.parametrize("roots", CASES)
    def test_array_pass_stops_well_before_the_cap(self, roots, monkeypatch):
        self.check_stop(polynomials._aberth_arrays, roots, monkeypatch)

    @pytest.mark.parametrize("roots", CASES)
    def test_find_roots_passes_the_residual_gate(self, roots):
        found = find_roots(vieta_from_roots(roots))
        assert match_roots(found, roots) < 1e-6


def triple_plus_double(rng) -> list[complex]:
    """A triple root, a double root 1/8 to 1/2 away and a simple root."""
    a = complex(rng.normal(0, 1.5), abs(rng.normal(0, 1)))
    b = a + rng.uniform(0.125, 0.5) * np.exp(2j * np.pi * rng.uniform())
    return [a] * 3 + [complex(b)] * 2 + [complex(rng.normal(0, 1.5), abs(rng.normal(0, 1)))]


def mfold_plus_near(rng) -> list[complex]:
    """An m-fold root, m = 2 to 4, a simple root 1e-4 to 1e-1 away and up
    to three random ones."""
    m = int(rng.integers(2, 5))
    a = complex(rng.normal(0, 1.5), abs(rng.normal(0, 1)))
    near = a + 10.0 ** rng.uniform(-4, -1) * np.exp(2j * np.pi * rng.uniform())
    others = [complex(rng.normal(0, 1.5), abs(rng.normal(0, 1)))
              for _ in range(int(rng.integers(0, 4)))]
    return [a] * m + [complex(near)] + others


def random_stable(rng) -> list[complex]:
    """Degree 5 to 8, roots N(0, 1.5) + i |N(0, 1)|."""
    n = int(rng.integers(5, 9))
    return (rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n))).tolist()


class TestScalarKernel:
    """Up to _SCALAR_MAX_DEGREE roots the Aberth pass and the polish run on
    Python scalars.  They agree with the array pass to rounding, and a
    Python arithmetic error is the non-finite outcome, not a crash."""

    @staticmethod
    def use_arrays(monkeypatch):
        monkeypatch.setattr(polynomials, "_SCALAR_MAX_DEGREE", 0)

    @pytest.mark.parametrize("n", range(3, polynomials._SCALAR_MAX_DEGREE + 2))
    def test_roots_agree_with_the_array_pass(self, monkeypatch, n):
        rng = np.random.default_rng([2026, n])
        for _ in range(20):
            p = vieta_from_roots(rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n)))
            monkeypatch.setattr(polynomials, "_SCALAR_MAX_DEGREE", n)
            found = find_roots(p)
            self.use_arrays(monkeypatch)
            expected = find_roots(p)
            scale = 1.0 + max(abs(v) for v in expected)
            assert match_roots(found, expected) <= 1e-10 * scale

    @pytest.mark.parametrize("n", range(3, polynomials._SCALAR_MAX_DEGREE + 2))
    def test_stacked_roots_stop_at_the_floor_in_both_passes(self, n):
        # a double or triple root keeps the steps above the step-size test,
        # so both passes end at the floor.  On simple roots the last steps
        # are at rounding level, and whether they stall or pass the test
        # first is a rounding race: 12 of 300 random draws of degree 5 to 8
        # end differently, so the flag is compared on stacks only
        rng = np.random.default_rng([2026, n])
        for k in range(20):
            roots = rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n))
            roots[1:2 + k % 2] = roots[0]
            w = vieta_from_roots(roots).raw_coefficients()
            x0 = _circle_start(w)
            assert polynomials._aberth_scalars(
                w.tolist(), polynomials._derivative(w).tolist(), x0.tolist())[1]
            assert polynomials._aberth_arrays(w, x0)[1]

    def test_overflowing_start_is_a_numerical_failure(self):
        # the circle start has radius about 1e300, where p and p' overflow
        # to NaN, so the first step is not finite
        p = Poly((1e300, 0.0, 0.0, 0.0, 0.0, 1e300))
        x, floored = _aberth(p.raw_coefficients(), _circle_start(p.raw_coefficients()))
        assert np.isnan(x).all() and not floored
        with pytest.raises(NonConvergence, match="non-finite iterate"):
            find_roots(p)
        # a start with finite parts and a modulus past the float range,
        # where Python's abs raises OverflowError
        x, floored = _aberth(np.array([1.0, 0.0, -1.0], dtype=complex),
                             np.array([1.5e308 * (1 + 1j), 1j]))
        assert np.isnan(x).all() and not floored

    def test_overflowing_polish_is_a_numerical_failure(self):
        # p' = 2x at 0.7e308 (1 + i) has finite parts and a modulus past
        # the float range
        x = polynomials._polish(np.array([1.0, 0.0, 1.0], dtype=complex),
                                np.array([0.7e308 * (1 + 1j), 1j]))
        assert np.isnan(x).all()

    def test_hard_families_fail_as_often_as_on_arrays(self, monkeypatch):
        # NonConvergence counts over 300 draws (rng 2026) of each family,
        # printed for both passes; the scalar pass may not fail more often
        # by more than rounding can move a borderline draw
        counts = {}
        for kernel in ("scalars", "arrays"):
            if kernel == "arrays":
                self.use_arrays(monkeypatch)
            for family in (triple_plus_double, mfold_plus_near, random_stable):
                rng = np.random.default_rng(2026)
                failed = 0
                for _ in range(300):
                    try:
                        find_roots(vieta_from_roots(family(rng)))
                    except NonConvergence:
                        failed += 1
                counts[kernel, family.__name__] = failed
        print(counts)
        for family in ("triple_plus_double", "mfold_plus_near"):
            assert counts["scalars", family] <= 1.1 * counts["arrays", family] + 2
        assert counts["scalars", "random_stable"] == counts["arrays", "random_stable"] == 0


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

    @staticmethod
    def array_profile(roots, halfplane, radius=None, boundary_tol=None):
        """cluster_roots as it ran on arrays at every degree: the tolerances
        from np.abs, reference_clusters' np.mean centers and merges, the
        verdict from halfplane.side."""
        xs = np.asarray(list(roots), dtype=complex)
        scale = 1.0 + float(np.max(np.abs(xs)))
        r = radius if radius is not None else CLUSTER_SCALE * scale
        btol = boundary_tol if boundary_tol is not None else polynomials.BOUNDARY_SCALE * scale
        clusters = [(c, members, halfplane.side(c, btol), halfplane.signed_distance(c))
                    for c, members in reference_clusters(xs, r)]
        return clusters, r, btol

    @staticmethod
    def scalar_profile(roots, halfplane, monkeypatch, **tolerances):
        """cluster_roots with the array path ruled out, as the array
        profile's tuple."""
        def unused(xs, r):
            raise AssertionError("up to degree 8 the clustering runs on scalars")

        with monkeypatch.context() as m:
            m.setattr(polynomials, "_linked_arrays", unused)
            profile = cluster_roots(roots, halfplane, **tolerances)
        clusters = [(c.center, c.members, c.side, c.signed_distance) for c in profile.clusters]
        assert [c.multiplicity for c in profile.clusters] == [len(c[1]) for c in clusters]
        return clusters, profile.cluster_radius, profile.boundary_tol

    def assert_same_bits(self, got, expected):
        (got_clusters, *got_tols), (expected_clusters, *expected_tols) = got, expected
        assert got_tols == expected_tols
        assert len(got_clusters) == len(expected_clusters)
        for (c, members, side, dist), (c_ref, members_ref, side_ref, dist_ref) in zip(
                got_clusters, expected_clusters):
            assert bits([c]) == bits([c_ref])
            assert bits(members) == bits(members_ref)
            assert side == side_ref
            assert np.float64(dist).view(np.uint64) == np.float64(dist_ref).view(np.uint64)

    @pytest.mark.parametrize("n", range(1, polynomials._SCALAR_MAX_DEGREE + 1))
    def test_scalar_path_matches_the_arrays_bit_for_bit(self, monkeypatch, n):
        # stacks of two or three roots a rounding-level spread apart, signed
        # zeros, and rotated, shifted half-planes through some of the roots
        rng = np.random.default_rng([29, n])
        zeros = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]
        for trial in range(60):
            roots = []
            while len(roots) < n:
                x = complex(*rng.normal(0, 1.5, 2))
                m = min(int(rng.integers(1, 4)), n - len(roots))
                spread = 10.0 ** rng.uniform(-16, -5)
                roots += [x + spread * complex(*rng.normal(size=2)) for _ in range(m)]
            if trial % 4 == 0:
                roots[int(rng.integers(n))] = zeros[trial // 4 % 4]
            if trial % 3 == 0:
                H = HalfPlane(float(rng.uniform(0, 2 * np.pi)), roots[0])
            elif trial % 3 == 1:
                H = HalfPlane(float(rng.uniform(0, 2 * np.pi)), complex(*rng.normal(size=2)))
            else:
                H = HalfPlane.upper()
            order = rng.permutation(n)
            roots = [roots[k] for k in order]
            self.assert_same_bits(self.scalar_profile(roots, H, monkeypatch),
                                  self.array_profile(roots, H))

    def test_explicit_tolerances_and_the_center_merge(self, monkeypatch):
        # chains whose centers land within the radius of each other, so the
        # merge loop runs, with explicit radius and boundary band
        # of test_the_merge_loop_example_on_scalars' kind: {-0.5, 0.5} and
        # {0.88i, 0.92i} link apart at radius 1, with centers 0.9 apart
        rng = np.random.default_rng(2029)
        merged = 0
        for _ in range(300):
            n = int(rng.integers(4, polynomials._SCALAR_MAX_DEGREE + 1))
            radius = float(rng.uniform(0.2, 1.2))
            turn = radius * np.exp(2j * np.pi * rng.uniform())
            cross = [-0.5, 0.5, 0.88j, 0.92j] + 1e-3 * rng.normal(size=4)
            roots = (complex(*rng.normal(size=2)) + turn * cross).tolist()
            roots += (3.0 * (rng.normal(size=n - 4) + 1j * rng.normal(size=n - 4))).tolist()
            roots = [roots[k] for k in rng.permutation(n)]
            btol = float(rng.choice([0.0, 0.05, 0.5]))
            H = HalfPlane(float(rng.uniform(0, 2 * np.pi)), complex(*rng.normal(0, 0.5, 2)))
            expected = self.array_profile(roots, H, radius, btol)
            got = self.scalar_profile(roots, H, monkeypatch, radius=radius, boundary_tol=btol)
            self.assert_same_bits(got, expected)
            merged += len(expected[0]) < len(reference_linkage(np.asarray(roots), radius))
        assert merged > 20

    def test_pairs_exactly_at_the_radius_on_scalars(self, monkeypatch):
        rng = np.random.default_rng(7)
        H = HalfPlane.upper()
        for _ in range(5):
            roots = (rng.normal(size=8) + 1j * rng.normal(size=8)).tolist()
            for i, j in itertools.combinations(range(8), 2):
                radius = abs(roots[i] - roots[j])
                got = self.scalar_profile(roots, H, monkeypatch, radius=radius)
                self.assert_same_bits(got, self.array_profile(roots, H, radius))
                assert any(roots[i] in members and roots[j] in members
                           for _, members, _, _ in got[0])

    def test_the_merge_loop_example_on_scalars(self, monkeypatch):
        roots = [-0.5, 0.88j, 5.0, 0.5, complex(-0.0, 3.0), 0.92j, 5.0 + 0.6j]
        self.assert_same_bits(self.scalar_profile(roots, HalfPlane.upper(), monkeypatch, radius=1.0),
                              self.array_profile(roots, HalfPlane.upper(), 1.0))

    def test_mean_scalars_is_np_mean(self):
        # signed zeros, and near-equal values whose sum cancels
        rng = np.random.default_rng(31)
        specials = [0.0, -0.0, 1.0, -1.0, 3.0, 1e-300]
        for m in range(1, 65):
            for trial in range(60):
                if trial % 2:
                    values = [complex(*rng.choice(specials, 2)) for _ in range(m)]
                else:
                    x = complex(*rng.normal(size=2))
                    values = [x + complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-16, 0)
                              for _ in range(m)]
                assert bits([polynomials._mean_scalars(values)]) == bits([np.mean(values)]), m

    def test_distances_past_the_float_range_take_the_arrays(self):
        # Python's abs raises OverflowError on 1.3e308 (1 + i), hypot gives inf
        roots = [1e308 + 1e308j, -3e307 - 3e307j, 1j]
        assert polynomials._linked_scalars(roots, 1.0) is None
        with np.errstate(over="ignore"):
            profile = cluster_roots(roots, HalfPlane.upper(), radius=1.0, boundary_tol=1.0)
        assert [c.multiplicity for c in profile.clusters] == [1, 1, 1]


@pytest.mark.parametrize("bad", [(), (float("nan"),), (float("inf") + 0j,)])
def test_poly_rejects_non_finite(bad):
    with pytest.raises((ValueError, TypeError)):
        Poly(tuple(bad))
