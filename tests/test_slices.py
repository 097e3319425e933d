"""Slice membership, bounds, kernel directions, stepping and compression."""

import math

import numpy as np
import pytest

from stable_slices import slices
from stable_slices import (
    HalfPlane,
    Poly,
    Slice,
    alternated_cofactor,
    augment,
    compactness_bounds,
    compress,
    find_roots,
    is_stable,
    kernel_direction,
    max_stable_step,
    sample_slice_section,
    slice_contains,
    vieta_from_roots,
)
from stable_slices.errors import DimensionMismatch, NonConvergence
from stable_slices.polynomials import cluster_roots
from stable_slices.polynomials import BOUNDARY_SCALE, raw_to_z, z_to_raw
from stable_slices.slices import (
    _hermite_verdicts,
    STEP_CAP,
    STEP_MARGIN,
    membership_tolerance,
)

FLAGSHIP_ROOTS = [-20 + 1j, 1j, 20 + 1j, 20j]
FLAGSHIP_PINS = [23j, -463.0, -8461j]


def proj_slice(n, rows, targets):
    """Slice pinning the listed coordinates (0-based) to the given values."""
    L = np.zeros((len(rows), n))
    for i, r in enumerate(rows):
        L[i, r] = 1.0
    return Slice.from_arrays(L, targets)


class TestSliceChecks:
    """Checks a CLI job cannot reach: its parser builds the rows as one
    array, and JSON has no infinities."""

    def test_row_count_must_match_the_target(self):
        with pytest.raises(DimensionMismatch, match="row count"):
            Slice(rows=((1.0, 0.0),), target=(1.0, 2.0))

    def test_rows_must_have_one_width(self):
        with pytest.raises(DimensionMismatch, match="ragged"):
            Slice(rows=((1.0, 0.0), (1.0,)), target=(1.0, 2.0))

    @pytest.mark.parametrize("matrix, target", [([[]], [0.0]), (np.zeros((2, 0)), [0.0, 0.0]),
                                                ([[]], [])])
    def test_a_row_without_entries_is_refused_by_name(self, matrix, target):
        # [[]] was once read as the slice without rows, and then refused as
        # a row count that does not match its target
        with pytest.raises(DimensionMismatch, match="a constraint row has no entries"):
            Slice.from_arrays(matrix, target)

    @pytest.mark.parametrize("matrix", [[], np.zeros((0, 3))])
    def test_a_slice_without_rows_constrains_nothing(self, matrix):
        S = Slice.from_arrays(matrix, [])
        assert (S.k, S.n, S.rank) == (0, 0, 0)
        assert S.residual((1.0, 2.0, 3.0)) == 0.0
        assert slice_contains(S, vieta_from_roots([1j, 2j]))

    @pytest.mark.parametrize("bad", [complex("inf"), complex(0, float("nan"))])
    def test_entries_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Slice(rows=((1.0, bad),), target=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            Slice(rows=((1.0, 0.0),), target=(bad,))

    def test_section_resolution_must_be_positive(self):
        S = Slice(rows=((0.0, 1.0),), target=(-1.0,))
        with pytest.raises(ValueError, match="resolution"):
            sample_slice_section(S, HalfPlane.upper(), (0, 1), (-1, 1, 0, 1), (0, 2))


class TestSliceContains:
    def test_three_pin_member(self):
        S = proj_slice(4, [0, 1, 2], FLAGSHIP_PINS)
        assert slice_contains(S, vieta_from_roots(FLAGSHIP_ROOTS))

    def test_off_slice(self):
        S = proj_slice(4, [0, 1, 2], FLAGSHIP_PINS)
        assert not slice_contains(S, vieta_from_roots([1j, 2j, 3j, 4j]))

    def test_on_slice_but_unstable(self):
        # z = (0, 1) satisfies the pin but the roots are +-i
        S = proj_slice(2, [0], [0.0])
        assert not slice_contains(S, vieta_from_roots([1j, -1j]))

    def test_default_tolerance(self):
        # the residual 1e-6 is above membership_tolerance, 1e-9 (1 + 3)
        S = proj_slice(2, [0], [3j])
        assert not slice_contains(S, vieta_from_roots([1j, 2j + 1e-6]))


class TestCompactnessBounds:
    def test_flagship_pins(self):
        b = compactness_bounds(23j, -463.0, 4)
        assert b is not None
        assert b.im_lo == pytest.approx(0.0)
        assert b.im_hi == pytest.approx(23.0)
        assert b.re_sq_bound == pytest.approx(2513.0)
        # the known member sits well inside
        re_sq = sum(r.real**2 for r in FLAGSHIP_ROOTS)
        assert re_sq == pytest.approx(800.0)
        assert re_sq <= b.re_sq_bound
        for r in FLAGSHIP_ROOTS:
            assert b.im_lo - 1e-12 <= r.imag <= b.im_hi + 1e-12

    def test_zero_pins_pin_everything(self):
        b = compactness_bounds(0j, 0j, 3)
        assert b is not None
        assert (b.im_lo, b.im_hi, b.re_sq_bound) == (0.0, 0.0, 0.0)

    def test_empty_slice(self):
        # roots i*(1 +- sqrt(11)); one of them has negative imaginary part,
        # so no stable monic quadratic has e1 = 2i, e2 = 10
        assert compactness_bounds(2j, 10.0, 2) is None
        lo = 1.0 - math.sqrt(11.0)
        assert lo < 0

    def test_small_quadratic_bound(self):
        b = compactness_bounds(2j, -10.0, 2)
        assert b is not None
        assert b.im_hi == pytest.approx(2.0)
        assert b.re_sq_bound == pytest.approx(24.0)

    def test_bounds_hold_on_random_stable_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            roots = [complex(rng.normal(0, 2.0), abs(rng.normal(0, 1.5)))
                     for _ in range(n)]
            a1 = sum(roots)
            a2 = sum(roots[i] * roots[j]
                     for i in range(n) for j in range(i + 1, n))
            b = compactness_bounds(a1, a2, n)
            assert b is not None
            slack = 1e-9 * (1.0 + abs(a1) + abs(a2))
            for r in roots:
                assert b.im_lo - slack <= r.imag <= b.im_hi + slack
            assert sum(r.real**2 for r in roots) <= b.re_sq_bound + slack


class TestAugment:
    def test_coordinate_prefix_unchanged(self):
        S = proj_slice(3, [0, 1], [1.0, 2.0])
        A = augment(S, (1.0, 2.0, 5.0))
        assert A.k == 2
        assert np.allclose(np.asarray(A.matrix), np.asarray(S.matrix))
        assert np.allclose(np.asarray(A.target_vector), [1.0, 2.0])

    def test_third_coordinate_gets_two_rows(self):
        S = proj_slice(4, [2], [4.0])
        z0 = (1.0, 2.0, 4.0, 8.0)
        A = augment(S, z0)
        assert A.k == 3
        # z1 and z2 are pinned to their values at the base point
        assert np.allclose(np.asarray(A.target_vector), [4.0, 1.0, 2.0])
        r = A.residual(np.asarray(z0, dtype=complex))
        assert r <= membership_tolerance(A.target_vector)

    def test_first_coordinate_gets_second_row(self):
        S = proj_slice(3, [0], [6.0])
        A = augment(S, (6.0, 11.0, 6.0))
        assert A.k == 2
        assert np.allclose(np.asarray(A.target_vector), [6.0, 11.0])

    def test_base_point_stays_on_augmented_slice(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            z0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            S = Slice.from_arrays(L, L @ z0)
            A = augment(S, z0)
            assert A.k >= S.k
            assert A.residual(z0) <= membership_tolerance(A.target_vector)


class TestKernelDirection:
    def test_single_frozen_root_hand_example(self):
        # n = 3, L pins z1, one frozen simple root at 1, two mover slots.
        # h = 1 works: the perturbation 1 * (T - 1) leaves z1 alone.
        S = proj_slice(3, [0], [0.0])
        cof = alternated_cofactor([1.0])
        kd = kernel_direction(S, cof, 2)
        assert kd is not None
        assert np.allclose(kd.b, (0.0, 1.0))
        assert np.allclose(kd.c, (0.0, 1.0, 1.0))

    def test_direction_is_multiplier_times_cofactor(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, n))
            frozen = [complex(rng.normal(), abs(rng.normal()) + 0.1)
                      for _ in range(n - m)]
            k = int(rng.integers(1, m + 1)) if m > 1 else 1
            if k >= m:
                k = m - 1
            if k < 1:
                continue
            L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            S = Slice.from_arrays(L, np.zeros(k))
            cof = alternated_cofactor(frozen)
            kd = kernel_direction(S, cof, m)
            if kd is None:
                continue
            c = np.asarray(kd.c)
            assert np.convolve(np.asarray(kd.b), cof) == pytest.approx(c)
            scale = np.max(np.abs(L)) * max(np.max(np.abs(c)), 1e-30)
            assert np.max(np.abs(L @ c)) <= 1e-9 * scale

    def test_direction_preserves_frozen_roots(self):
        # moving along c multiplies in a polynomial divisible by (T - x0),
        # so the frozen root survives any step size
        S = proj_slice(3, [0], [0.0])
        cof = alternated_cofactor([1.0])
        kd = kernel_direction(S, cof, 2)
        z = np.asarray(vieta_from_roots([1.0, 0.5 + 1j, -0.5 + 1j]).z)
        for eps in (0.1, 1.0, 17.0):
            moved = Poly(tuple(z + eps * np.asarray(kd.c)))
            assert abs(np.polyval(moved.raw_coefficients(), 1.0)) < 1e-10

    def test_full_rank_constraints_block_direction(self):
        S = proj_slice(3, [0, 1, 2], [0.0, 0.0, 0.0])
        assert kernel_direction(S, alternated_cofactor([1.0]), 2) is None


def _movers(z):
    """The step search's movers for a whole-polynomial step along c = b."""
    return find_roots(Poly(tuple(z)))


def _record_raw_probes(monkeypatch):
    """Patch slices.find_roots to record the roots of every raw probe."""
    probes = []
    real = slices.find_roots

    def recording(p, **kwargs):
        found = real(p, **kwargs)
        if kwargs.get("raw"):
            probes.append(found)
        return found

    monkeypatch.setattr(slices, "find_roots", recording)
    return probes


class TestMaxStableStep:
    def test_root_reaches_axis(self):
        # roots i and 2i; pushing e2 up drives the lower root to 0 at eps = 2
        res = max_stable_step(_movers((3j, -2.0)), (0.0, 1.0))
        assert res.event == "root-hit-boundary"
        assert res.epsilon == pytest.approx(2.0, abs=1e-5)
        assert min(r.imag for r in res.roots) == pytest.approx(0.0, abs=1e-6)

    def test_direction_never_leaves(self):
        res = max_stable_step(_movers((3j, -2.0)), (0.0, -1.0))
        assert res.event == "direction-unbounded"
        assert res.epsilon == STEP_CAP

    def test_boundary_root_pushed_out_immediately(self):
        res = max_stable_step(_movers((0j,)), (-1j,))
        assert res.event == "root-hit-boundary"
        assert res.epsilon <= 1e-6

    def test_real_roots_collide(self):
        # roots of T^2 - 1 + eps meet at the origin when eps reaches 1
        res = max_stable_step(_movers((0.0, -1.0)), (0.0, 1.0))
        assert res.event == "real-roots-merged"
        assert res.epsilon == pytest.approx(1.0, abs=1e-5)

    def test_unstable_base_rejected(self):
        with pytest.raises(ValueError):
            max_stable_step(_movers((-1j,)), (1.0,))

    def test_frozen_roots_ride_along(self):
        # the frozen double root at 1 is appended unchanged to the landing
        res = max_stable_step((1j, 2j), (0.0, 1.0), (1.0, 1.0))
        assert res.event == "root-hit-boundary"
        assert res.epsilon == pytest.approx(2.0, abs=1e-5)
        assert res.roots[-2:] == (1.0, 1.0)

    def test_failed_settle_raises(self, monkeypatch):
        # a landing whose warm settle fails is a numerical failure; no cold
        # start is tried in its place
        real = slices.find_roots
        cold = []

        def failing(p, **kwargs):
            if kwargs.get("initial") is None:
                cold.append(p)
            elif not kwargs.get("raw"):
                raise NonConvergence("warm settle failed")
            return real(p, **kwargs)

        monkeypatch.setattr(slices, "find_roots", failing)
        with pytest.raises(NonConvergence):
            max_stable_step(_movers((3j, -2.0)), (0.0, 1.0))
        assert cold == []

    def test_mover_direction_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_stable_step((1j, 2j), (0.0, 1.0, 0.0))

    # (z, c, event, landing epsilon, most raw probes).  ITP lands where a
    # plain bisection to STEP_REL_WIDTH lands, with far fewer probes on the
    # smooth crossings (bisection takes 77 and 25); at the collision the
    # margin has a square-root corner, and ITP may spend bisection's 77
    # probes plus its slack n0 = 1 and one for the rounding of its tolerance
    ITP_CASES = [
        ((3j, -2.0), (0.0, 1.0), "root-hit-boundary", 2.0000000449999984, 50),
        ((0j,), (-1j,), "root-hit-boundary", 5e-09, 10),
        ((0.0, -1.0), (0.0, 1.0), "real-roots-merged", 0.9999999999999992, 79),
    ]

    @pytest.mark.parametrize("z, c, event, epsilon, bound", ITP_CASES)
    def test_itp_probe_count(self, monkeypatch, z, c, event, epsilon, bound):
        raw_calls = _record_raw_probes(monkeypatch)
        res = max_stable_step(_movers(z), c)
        assert res.event == event
        assert res.epsilon == pytest.approx(epsilon, rel=1e-12)
        assert len(raw_calls) <= bound

    # (z, c, event, most raw probes) on the predicted path: two probes
    # verify the predicted step from either side and ITP narrows their
    # bracket (6, 2 and 23 probes here); a direction with no predicted
    # crossing costs one probe at STEP_CAP.
    PREDICTED_CASES = [
        ((3j, -2.0), (0.0, 1.0), "root-hit-boundary", 8),
        ((0j,), (-1j,), "root-hit-boundary", 2),
        ((0.0, -1.0), (0.0, 1.0), "real-roots-merged", 25),
        ((3j, -2.0), (0.0, -1.0), "direction-unbounded", 1),
    ]

    @pytest.mark.parametrize("z, c, event, bound", PREDICTED_CASES)
    def test_predicted_probe_count(self, monkeypatch, z, c, event, bound):
        raw_calls = _record_raw_probes(monkeypatch)
        res = max_stable_step(_movers(z), c)
        assert res.event == event
        assert len(raw_calls) <= bound


def _factor_step_input(rng, n, H):
    """A compress-like step: interior movers, frozen roots on the boundary
    line of H, and a complex direction b for the movers' coefficients."""
    m = int(rng.integers(2, n + 1))
    movers = [H.from_upper(complex(rng.normal(0, 1.5), abs(rng.normal(0, 1)) + 0.05))
              for _ in range(m)]
    frozen = [H.from_upper(rng.normal(0, 1.5)) for _ in range(n - m)]
    b = rng.normal(size=m) + 1j * rng.normal(size=m)
    b /= np.max(np.abs(b))
    return movers, b, frozen


class TestStepPrediction:
    """The step search walks every crossing that the crossing polynomial
    predicts, in order, and lands where numpy.roots sees the first one."""

    HALFPLANES = [HalfPlane.upper(), HalfPlane(0.7, 0.4 - 1.2j), HalfPlane(2.5, 1.5 + 0.5j)]

    def test_landing_agrees_with_numpy_roots(self):
        # just inside the landing every root of the moving factor is
        # admissible, and just outside a boundary hit one is not; an
        # unbounded direction stays admissible all the way to STEP_CAP
        rng = np.random.default_rng(6061)
        events = set()
        for n in range(4, 11):
            for H in self.HALFPLANES:
                movers, b, frozen = _factor_step_input(rng, n, H)
                res = max_stable_step(movers, b, frozen, H)
                move_z = np.asarray(vieta_from_roots(movers).z)
                cut = STEP_MARGIN * BOUNDARY_SCALE * (1.0 + max(abs(x) for x in movers + frozen))

                def lowest(eps):
                    moved = np.roots(z_to_raw(move_z + eps * b))
                    return min(H.signed_distance(x) for x in moved)

                assert lowest(0.999 * res.epsilon) >= -cut
                if res.event == "root-hit-boundary":
                    assert lowest(1.001 * res.epsilon) < -cut
                if res.event == "direction-unbounded":
                    assert res.epsilon == STEP_CAP
                    for eps in np.logspace(-6, math.log10(STEP_CAP), 100):
                        assert lowest(eps) >= -cut
                events.add(res.event)
        assert events == {"root-hit-boundary", "direction-unbounded"}

    def test_prediction_finds_a_window_doubling_steps_over(self, monkeypatch):
        # a mover leaves the half-plane at eps = 1.43372 and comes back
        # near eps = 1.95; a doubling search from a tiny first step probes
        # 1.129 and 2.258, finds both admissible and goes on to the cap
        rng = np.random.default_rng(17)
        draws = [(_factor_step_input(rng, n, H), H)
                 for n in range(4, 9) for H in self.HALFPLANES]
        (movers, b, frozen), H = draws[-1]
        res = max_stable_step(movers, b, frozen, H)
        assert res.event == "root-hit-boundary"
        assert res.epsilon == pytest.approx(1.4337242263065, rel=1e-9)
        move_z = np.asarray(vieta_from_roots(movers).z)
        for eps, outside in ((1.43, False), (1.44, True), (1.9, True), (2.0, False)):
            moved = np.roots(z_to_raw(move_z + eps * b))
            assert (min(H.signed_distance(x) for x in moved) < 0.0) == outside

    def test_verify_probes_below_noise_bracket_at_the_next_crossing(self):
        # a real root starts on the boundary line and leaves it at once.  The
        # crossing is predicted at eps = 2.0827e-7, but STEP_VERIFY_DELTA
        # moves the margin there by less than raw-root noise, so both its
        # probes can read admissible.  So can the inner probe of the next
        # crossing, 1.24e7, by 3.6e-16 as numpy.roots sees it; the probe at
        # their geometric mean reads inadmissible, and ITP finds the first
        # crossing in that bracket.  Taking the outer probe's margin for a
        # tangency and reporting the direction unbounded would be wrong
        z = np.asarray(vieta_from_roots([-0.5587840908301573,
                                         0.9162470079135698 + 0.4152410595284843j,
                                         -1.6032901259175492 + 1.2133954349468397j]).z)
        c = np.array([-1.709935557093718, 0.7310533913006015, 0.44622781299094566])
        res = max_stable_step(_movers(z), c)
        assert res.event == "root-hit-boundary"
        assert res.epsilon == pytest.approx(2.0827e-7, rel=1e-4)
        roots = np.roots(z_to_raw(z))
        cut = STEP_MARGIN * BOUNDARY_SCALE * (1.0 + float(np.max(np.abs(roots))))
        for eps, outside in ((2.08e-7, False), (2.09e-7, True), (1.0, True), (1e6, True)):
            moved = np.roots(z_to_raw(z + eps * c))
            assert (float(np.min(moved.imag)) < -cut) == outside

    # nine interior movers and one frozen root of a compress-like step in
    # the half-plane of angle 2.5 through 1.5 + 0.5i
    MISSED_PREDICTION_MOVERS = (
        0.6714282720709912 - 0.17755473499943464j, 0.5348880173629043 - 0.7133601929496931j,
        2.2472659468317353 - 0.8276501489000028j, 1.1943611462275547 - 0.051543484640647064j,
        2.6920199542331953 - 0.3963869529473151j, 0.5251436568905227 + 1.1923791382688433j,
        2.90263418807191 - 1.1364000316922203j, 2.169539268010009 - 0.2731858980874543j,
        2.301047993446869 - 1.1251953248420985j)
    MISSED_PREDICTION_B = (
        -0.33173309206184964 - 0.9433732854130885j, -0.16647547032164028 + 0.03476303713457036j,
        0.24184129730732382 - 0.20192890829511392j, 0.0584266762874577 - 0.4375035927477048j,
        0.49109149092540894 - 0.282127138520346j, 0.47867785276975666 - 0.33691452102843034j,
        -0.07989085705559164 - 0.08620390108309196j, -0.41855913845517667 + 0.043825085168528254j,
        -0.07765697086045899 - 0.39392549838297636j)

    def test_missed_prediction_brackets_below_the_inner_probe(self, monkeypatch):
        # the crossing is predicted at 6.623684550e-6, about 1e-9 relative
        # past the landing: as far as STEP_VERIFY_DELTA reaches, so the
        # inner probe already reads inadmissible and closes the bracket
        # [0, inner probe], which ITP narrows in 6 more probes
        H = HalfPlane(2.5, 1.5 + 0.5j)
        movers, b = self.MISSED_PREDICTION_MOVERS, np.asarray(self.MISSED_PREDICTION_B)
        frozen = (1.480129990817609 + 0.514843339905583j,)
        move_z = np.asarray(vieta_from_roots(movers).z)
        cut = STEP_MARGIN * BOUNDARY_SCALE * (1.0 + max(abs(x) for x in movers + frozen))
        predicted = slices._crossings(move_z, b, H, cut)[0]
        assert predicted == pytest.approx(6.623684550e-6, rel=1e-9)
        probes = _record_raw_probes(monkeypatch)
        res = max_stable_step(movers, b, frozen, H)
        assert res.event == "root-hit-boundary"
        assert res.epsilon == pytest.approx(6.623684542e-6, rel=1e-9)
        assert min(H.signed_distance(x) for x in probes[0]) < -cut
        assert len(probes) == 7
        for scale, outside in ((0.999, False), (1.001, True)):
            moved = np.roots(z_to_raw(move_z + scale * res.epsilon * b))
            assert (min(H.signed_distance(x) for x in moved) < 0.0) == outside

    def test_spurious_crossing_costs_three_probes(self, monkeypatch):
        # a predicted crossing that is not one, such as a tangency, is
        # probed from both sides and between it and the next crossing, and
        # the walk goes on to the real one
        plain = _record_raw_probes(monkeypatch)
        expected = max_stable_step(_movers((3j, -2.0)), (0.0, 1.0))
        monkeypatch.undo()
        crossings = slices._crossings
        monkeypatch.setattr(slices, "_crossings", lambda *a: [1.0] + crossings(*a))
        spurious = _record_raw_probes(monkeypatch)
        res = max_stable_step(_movers((3j, -2.0)), (0.0, 1.0))
        assert res.event == expected.event == "root-hit-boundary"
        assert res.epsilon == expected.epsilon == pytest.approx(2.000000045, rel=1e-12)
        assert len(spurious) == len(plain) + 3

    def test_vanishing_crossing_polynomial_probes_the_cap(self, monkeypatch):
        # b = 0 leaves F identically zero: no prediction, and the one
        # probe at STEP_CAP finds the direction unbounded
        assert slices._crossings(np.array([3j, -2.0]), np.zeros(2, dtype=complex),
                                 HalfPlane.upper(), 1e-8) is None
        probes = _record_raw_probes(monkeypatch)
        res = max_stable_step(_movers((3j, -2.0)), (0.0, 0.0))
        assert res.event == "direction-unbounded"
        assert res.epsilon == STEP_CAP
        assert len(probes) == 1


class TestCompress:
    def test_real_triple_pins_select_double_root(self):
        # e1 = 6 with e2 = 11 picked up from the start point; the terminal
        # states are double+simple pairs a, a, 6-2a with 3a^2 - 12a + 11 = 0
        st = compress(vieta_from_roots([1.0, 2.0, 3.0]),
                      proj_slice(3, [0], [6.0]))
        z = np.asarray(st.final_z.z)
        assert z[0] == pytest.approx(6.0, abs=1e-9)
        assert z[1] == pytest.approx(11.0, abs=1e-9)
        assert z[2].real == pytest.approx(6.0 + 2.0 / (3.0 * math.sqrt(3.0)),
                                          abs=1e-9)
        assert st.measure == (0, 2)
        assert st.checkpoints == ((0, 3), (0, 2))
        assert st.targets == (2, 2)

    def test_failed_projection_ends_the_mode(self, monkeypatch):
        # the walk's first micro step fails to project; the next descent
        # mode takes over instead of retrying the direction at h / 4
        real = slices._fiber_correct
        trials, states = [], []

        def fail_second(x, mu, frozen, S2, H, tol):
            trials.append(np.array(x))
            nx, nfr, ok = real(x, mu, frozen, S2, H, tol)
            states.append(nx)
            return nx, nfr, ok and len(trials) != 2

        monkeypatch.setattr(slices, "_fiber_correct", fail_second)
        st = compress(vieta_from_roots([1.0, 2.0, 3.0]), proj_slice(3, [0], [6.0]))
        failed, following = trials[1] - states[0], trials[2] - states[0]
        assert np.linalg.norm(failed) > 0.0
        assert not np.allclose(following, 0.25 * failed, rtol=1e-6, atol=0.0)
        assert st.measure == (0, 2)

    def test_interior_start_lands_one_root(self):
        st = compress(vieta_from_roots([1j, 2j, 3j]),
                      proj_slice(3, [0], [6j]))
        z = np.asarray(st.final_z.z)
        assert z[0] == pytest.approx(6j, abs=1e-9)
        assert z[1] == pytest.approx(-11.0, abs=1e-8)
        assert st.measure == (2, 1)

    def test_already_within_targets_is_a_fixed_point(self):
        p0 = vieta_from_roots([2.0, 2.0, 3.0])
        st = compress(p0, proj_slice(3, [0], [7.0]))
        assert st.iterations == 0
        assert len(st.steps) == 0
        assert np.allclose(np.asarray(st.final_z.z), np.asarray(p0.z))

    def test_step_invariants_on_mixed_instance(self):
        roots = [1.0, -1.0, 2.5, 0.5 + 1j, -0.5 + 1j, 3j]
        S = proj_slice(6, [0, 1], [sum(roots),
                                   sum(roots[i] * roots[j]
                                       for i in range(6)
                                       for j in range(i + 1, 6))])
        st = compress(vieta_from_roots(roots), S)
        mem_tol = membership_tolerance(S.target_vector)
        for step in st.steps:
            assert step.stable
            assert step.membership_residual <= mem_tol
        for before, after in zip(st.checkpoints, st.checkpoints[1:]):
            assert after < before
        ti, tb = st.targets
        fi, fb = st.measure
        assert fi <= ti and fb <= tb

    # (half-plane, pinned coordinate, roots) of degree-10 rank-1 slices on
    # which a closing re-find of final_z broke the report: the first split
    # a double root off the axis, measure (3, 5) with one root outside
    # against a last checkpoint of (3, 6); the second raised NonConvergence
    REPORT_IS_THE_STATE_CASES = [
        (HalfPlane.upper(), 8,
         [-1.7428267617418944 + 1.2507412368588986j, 2.308080864022772 + 0.5523225054321054j,
          -1.6258574321404407 + 0.021643552996193072j, 0.8487003015451753,
          0.9015740528992027 + 0.45466564686936073j, 2.1939617622255456 + 0.2513702905386268j,
          0.10323141394893043 + 1.6071295824526772j, -1.1785617193076652 + 0.3143093673630667j,
          1.8025812050277974 + 0.7891389047239984j, -1.625423589558339 + 0.13818458489884017j]),
        (HalfPlane(2.3936188360467447, -1.0082384581861155 + 0.04931130304756582j), 4,
         [-1.0128078021310751 + 0.053550826883721245j, -0.35321904691811046 - 0.558428110020341j,
          -0.09616433585774053 - 1.9482127419281117j, 0.722583243563163 - 3.0075164976106468j,
          -1.829725731439126 + 0.811502750661427j, -0.6952660133914068 - 0.24107045760554002j,
          -2.6414825598845173 + 1.5646661073293653j, -2.150161014164505 + 0.7592896887842876j,
          -0.36082151213160407 - 2.693459459102283j, -0.4374445074453547 - 0.4802821328696607j]),
    ]

    @pytest.mark.parametrize("H, pinned, roots", REPORT_IS_THE_STATE_CASES)
    def test_report_is_the_descent_state(self, H, pinned, roots):
        p = vieta_from_roots(roots)
        L = np.zeros((1, 10))
        L[0, pinned] = 1.0
        st = compress(p, Slice.from_arrays(L, L @ np.asarray(p.z)), H)
        assert st.final_profile.outside_total == 0
        assert all(m <= t for m, t in zip(st.measure, st.targets))
        assert st.measure == st.checkpoints[-1]

    def test_random_instances_meet_bounds(self):
        rng = np.random.default_rng(20260826)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, min(3, n - 1) + 1))
            roots = []
            for _ in range(n):
                if rng.random() < 0.35:
                    roots.append(complex(rng.normal(0, 1.5), 0.0))
                else:
                    roots.append(complex(rng.normal(0, 1.5),
                                         abs(rng.normal(0, 1.0)) + 1e-3))
            p = vieta_from_roots(roots)
            z = np.asarray(p.z)
            if rng.random() < 0.5:
                rows = rng.choice(n, size=k, replace=False)
                L = np.zeros((k, n), dtype=complex)
                for i, r in enumerate(rows):
                    L[i, r] = 1.0
            else:
                L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            S = Slice.from_arrays(L, L @ z)
            st = compress(p, S)
            ti, tb = st.targets
            fi, fb = st.measure
            assert fi <= ti and fb <= tb
            assert S.residual(np.asarray(st.final_z.z)) <= \
                membership_tolerance(S.target_vector)


def reference_position_tangents(x, mu, frozen):
    """d z / d x_i column by column, as the walk built it with one NumPy
    element per coefficient: synthetic division of the expansion by
    (T - x_i) on NumPy scalars, then the Vieta signs and -mu_i."""
    roots = slices._state_roots(x, mu, frozen)
    w = np.asarray(vieta_from_roots(roots).raw_coefficients(), dtype=complex)
    cols = np.empty((roots.size, x.size), dtype=complex)
    for i in range(x.size):
        q = np.empty(w.size - 1, dtype=complex)
        acc = w[0]
        for j in range(w.size - 1):
            q[j] = acc
            acc = acc * complex(x[i]) + w[j + 1]
        cols[:, i] = -float(mu[i]) * raw_to_z(np.concatenate(([0.0], q)))
    return cols


def walk_state(rng, H, movers, frozen):
    """Positions of `movers` stacks on the boundary line of H, each of
    multiplicity 1-3, and `frozen` simple roots inside H."""
    x = H.from_upper(rng.normal(0.0, 2.0, movers))
    mu = rng.integers(1, 4, movers)
    fr = H.from_upper(rng.normal(0.0, 2.0, frozen) + 1j * (np.abs(rng.normal(0.0, 1.0, frozen)) + 0.1))
    return x, mu, fr


class TestPositionTangents:
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_match_the_per_root_construction(self, seed):
        rng = np.random.default_rng([2027, seed])
        for _ in range(150):
            H = HalfPlane(rng.uniform(0.0, 2.0 * np.pi), complex(*rng.normal(0.0, 0.5, 2)))
            movers = int(rng.integers(1, 9))
            frozen = int(rng.integers(0, 9))
            # degree up to 3 * 8 + 8 = 32
            x, mu, fr = walk_state(rng, H, movers, frozen)
            w = z_to_raw(vieta_from_roots(slices._state_roots(x, mu, fr)).z)
            cols = slices._position_tangents(w, x, mu)
            assert np.array_equal(cols, reference_position_tangents(x, mu, fr))
            # S2.matrix @ cols rounds according to the memory layout
            assert cols.flags.c_contiguous

    def test_column_is_the_derivative_of_the_whole_stack(self):
        rng = np.random.default_rng(2028)
        H = HalfPlane(2.1, 0.4 - 0.3j)
        x, mu, fr = walk_state(rng, H, 5, 3)
        mu[:3] = (3, 2, 1)

        def z_at(xs):
            return np.asarray(vieta_from_roots(slices._state_roots(xs, mu, fr)).z)

        w = z_to_raw(z_at(x))
        cols = slices._position_tangents(w, x, mu)
        assert cols.shape == (int(mu.sum()) + fr.size, x.size)
        for i in range(x.size):
            for direction in (1.0, 1j):
                h = 1e-6 * (1.0 + abs(x[i])) * direction
                up, down = x.copy(), x.copy()
                up[i] += h
                down[i] -= h
                slope = (z_at(up) - z_at(down)) / (2.0 * h)
                scale = 1.0 + float(np.max(np.abs(cols[:, i])))
                assert np.max(np.abs(slope - cols[:, i])) <= 1e-6 * scale


class TestFiberCorrection:
    H = HalfPlane(0.7, 0.3 + 0.2j)
    # a double boundary stack, a simple boundary root, an interior root
    T = np.array([-0.8, 1.3])
    MUR = np.array([2, 1])
    MUC = np.array([1])

    def slice_through(self, t, xc):
        roots = np.concatenate([np.repeat(self.H.from_upper(t), self.MUR), xc])
        z = np.asarray(vieta_from_roots(roots).z)
        L = np.random.default_rng(2029).normal(size=(2, 4)) \
            + 1j * np.random.default_rng(2030).normal(size=(2, 4))
        return Slice.from_arrays(L, L @ z)

    def test_projects_a_nudged_state_onto_the_slice(self):
        xc = np.array([self.H.from_upper(0.4 + 1.1j)])
        S = self.slice_through(self.T, xc)
        tol = 1e-12 * (1.0 + float(np.max(np.abs(S.target_vector))))
        t0 = self.T + np.array([2e-3, -1.5e-3])
        xc0 = xc + (1e-3 - 2e-3j)
        assert S.residual(np.asarray(vieta_from_roots(np.concatenate(
            [np.repeat(self.H.from_upper(t0), self.MUR), xc0])).z)) > 1e3 * tol
        t, nxc, err = slices._fiber_correct_mixed(t0, self.MUR, xc0, self.MUC, S, self.H, tol)
        assert err <= tol
        # boundary roots stay line coordinates, so they stay on the line
        assert t.dtype == np.float64 and t.shape == (2,)
        assert nxc.shape == (1,)
        assert self.H.signed_distance(nxc[0]) > 0.5
        # the multiplicities are the state's: re-expanding the double
        # stack as one meets the slice and keeps the double root
        roots = np.concatenate([np.repeat(self.H.from_upper(t), self.MUR), nxc])
        z = np.asarray(vieta_from_roots(roots).z)
        assert S.residual(z) <= tol
        profile = cluster_roots(find_roots(Poly(tuple(z))), self.H)
        assert sorted((c.side, c.multiplicity) for c in profile.clusters) == \
            [("boundary", 1), ("boundary", 2), ("interior", 1)]

    def test_overflowing_expansion_is_a_numerical_failure(self):
        # CLI exit 3: e_4 of these roots is past the float range
        xc = np.array([self.H.from_upper(0.4 + 1.1j)])
        S = self.slice_through(self.T, xc)
        with pytest.raises(NonConvergence, match="overflows the float range"):
            slices._fiber_correct_mixed(np.array([1e100, -1e100]), self.MUR, xc * 1e100,
                                        self.MUC, S, self.H, 1e-12)


def reference_section(S, H, free_axes, window, resolution):
    """sample_slice_section's members as a loop over pixels: a cold
    find_roots and cluster_roots for each one."""
    n = S.n
    (xa, ya), (w, h) = free_axes, resolution
    base, *_ = np.linalg.lstsq(S.matrix, S.target_vector, rcond=None)
    base[xa // 2] = 0.0
    rows = []
    for y in np.linspace(window[2], window[3], h):
        row = []
        for x in np.linspace(window[0], window[1], w):
            z = base.copy()
            z[xa // 2] += x
            z[ya // 2] += 1j * y
            row.append(cluster_roots(find_roots(Poly(tuple(z))), H).outside_total == 0)
        rows.append(tuple(row))
    return tuple(rows)


def section_case(seed):
    """A rank n - 1 slice through a stable point of degree 3 to 8, free in
    one coefficient, with a window around that coefficient; a third of the
    cases in rotated half-planes, half with dense slice rows."""
    rng = np.random.default_rng([7, seed])
    n = 3 + seed % 6
    H = (HalfPlane(rng.uniform(0, 2 * np.pi), complex(*rng.normal(0, 1, 2)))
         if seed % 3 == 0 else HalfPlane())
    upper = rng.normal(0, 1.5, n) + 1j * np.abs(rng.normal(0, 1, n))
    z0 = np.asarray(vieta_from_roots([H.from_upper(u) for u in upper]).z)
    free = int(rng.integers(0, n))
    if seed % 2:
        L = rng.normal(size=(n - 1, n)) + 1j * rng.normal(size=(n - 1, n))
        L[:, free] = 0.0
    else:
        L = np.eye(n)[[j for j in range(n) if j != free]]
    width = 0.75 * (1.0 + abs(z0[free]))
    window = (z0[free].real - width, z0[free].real + width,
              z0[free].imag - width, z0[free].imag + width)
    return Slice.from_arrays(L, L @ z0), H, (2 * free, 2 * free + 1), window


class TestSampleSliceSection:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_pixel_loop(self, seed):
        S, H, axes, window = section_case(seed)
        g = sample_slice_section(S, H, axes, window, (9, 7))
        assert g.members == reference_section(S, H, axes, window, (9, 7))

    @pytest.mark.parametrize("window, resolution, double_roots", [
        ((0, 4, -1, 1), (5, 3), [2.0]),
        ((-2, 2, -1, 1), (5, 5), [-2.0, 2.0]),
    ])
    def test_double_root_pixels_take_find_roots(self, monkeypatch, window, resolution,
                                                double_roots):
        # z2 pinned to 1: the pixels z1 = +-2 are (T -+ 1)^2, a double root
        # on the line, whose Hermite matrix has an eigenvalue near zero
        S = proj_slice(2, [1], [1.0])
        calls = []
        real = slices.find_roots

        def counting(p, **kwargs):
            calls.append(p.z)
            return real(p, **kwargs)

        monkeypatch.setattr(slices, "find_roots", counting)
        g = sample_slice_section(S, None, (0, 1), window, resolution)
        assert [z[0] for z in calls] == double_roots
        assert g.members == reference_section(S, HalfPlane(), (0, 1), window, resolution)
        # a real double root lies on the boundary line: a member
        middle = g.members[resolution[1] // 2]
        assert all(middle[g.xs.index(z1)] for z1 in double_roots)

    def test_chart_rounding_leaves_a_boundary_double_root_to_find_roots(self):
        # the centre pixel is (T - 1.5625)(T - base)^2 for a half-plane whose
        # line passes through base: upper_chart rounds the chart's zero
        # constant term to a few ulp below zero, which splits the double
        # root across the line by about 1e-6
        base = 1.5717531106703984
        H = HalfPlane(0.0, base)
        z0 = np.asarray(vieta_from_roots([1.5625, base, base]).z)
        S = proj_slice(3, [1, 2], z0[1:])
        d = 2.0 ** -10
        window = (z0[0].real - d, z0[0].real + d, -d, d)
        g = sample_slice_section(S, H, (0, 1), window, (5, 5))
        assert g.xs[2] == z0[0].real and g.ys[2] == 0.0
        assert g.members == reference_section(S, H, (0, 1), window, (5, 5))
        assert g.members[2][2]

    def test_window_below_axis_is_empty(self):
        # e2 pinned to -1; any member needs Im e1 >= 0
        S = proj_slice(2, [1], [-1.0])
        g = sample_slice_section(S, None, (0, 1), (-1, 1, -5, -2), (4, 3))
        assert len(g.xs) == 4 and len(g.ys) == 3
        assert not any(v for row in g.members for v in row)

    def test_member_cell_found(self):
        S = proj_slice(2, [1], [-1.0])
        g = sample_slice_section(S, None, (0, 1), (-1, 1, -1, 1), (5, 5))
        # centre cell is z = (0, -1), i.e. T^2 - 1 with real roots +-1
        assert g.members[2][2]

    def test_grid_axes_span_window(self):
        S = proj_slice(2, [1], [-1.0])
        g = sample_slice_section(S, None, (0, 1), (-2, 2, 0, 1), (3, 2))
        assert g.xs == (-2.0, 0.0, 2.0)
        assert g.ys == (0.0, 1.0)

    def test_pinned_axis_rejected(self):
        S = proj_slice(2, [1], [-1.0])
        with pytest.raises(DimensionMismatch):
            sample_slice_section(S, None, (2, 3), (-1, 1, -1, 1), (2, 2))

    def test_unfindable_roots_raise(self):
        # a stable degree-24 point (every root has Im >= 0.03) whose roots
        # find_roots cannot compute: the pixel must surface NonConvergence,
        # not a non-member verdict
        rng = np.random.default_rng(24)
        roots = rng.normal(0, 1.5, 24) + 1j * np.abs(rng.normal(0, 1, 24))
        z = np.asarray(vieta_from_roots(roots).z)
        S = Slice.from_arrays(np.eye(24)[1:], z[1:])
        window = (z[0].real, z[0].real, z[0].imag, z[0].imag)
        with pytest.raises(NonConvergence):
            sample_slice_section(S, None, (0, 1), window, (1, 1))

    def test_failed_cold_start_is_not_retried(self, monkeypatch):
        # the first pixel has no warm start, so its failed call was already
        # the cold one and repeating it cannot succeed
        rng = np.random.default_rng(24)
        roots = rng.normal(0, 1.5, 24) + 1j * np.abs(rng.normal(0, 1, 24))
        z = np.asarray(vieta_from_roots(roots).z)
        S = Slice.from_arrays(np.eye(24)[1:], z[1:])
        window = (z[0].real, z[0].real, z[0].imag, z[0].imag)
        calls = []
        real = slices.find_roots

        def counting(p, **kwargs):
            calls.append(kwargs.get("initial"))
            return real(p, **kwargs)

        monkeypatch.setattr(slices, "find_roots", counting)
        with pytest.raises(NonConvergence):
            sample_slice_section(S, None, (0, 1), window, (1, 1))
        assert calls == [None]


def planted_near_line(seed):
    """A degree 3 to 12 polynomial with its other roots inside H and one
    simple (even seeds) or double (odd seeds) root planted within three
    boundary tolerances of the line, on either side; a third of the draws
    in rotated half-planes.  Returns z and H."""
    rng = np.random.default_rng([5, seed])
    n = 3 + seed % 10
    H = (HalfPlane(rng.uniform(0, 2 * np.pi), complex(*rng.normal(0, 1, 2)))
         if seed % 3 == 0 else HalfPlane())
    m = 1 + seed % 2
    upper = list(rng.normal(0, 1.5, n - m) + 1j * np.abs(rng.normal(0, 1, n - m)))
    t = rng.normal(0, 1.5)
    scale = 1.0 + max(abs(H.from_upper(u)) for u in upper + [t])
    planted = t + 1j * rng.uniform(-3, 3) * BOUNDARY_SCALE * scale
    roots = [H.from_upper(u) for u in upper + [planted] * m]
    return np.asarray(vieta_from_roots(roots).z), H


class TestHermiteVerdicts:
    """The root-free test behind sample_slice_section as an oracle against
    the root finder's verdicts."""

    @pytest.mark.parametrize("H", [HalfPlane.upper(), HalfPlane.left(),
                                   HalfPlane(4.4, 0.3 - 0.7j)])
    def test_is_stable_agrees_on_well_conditioned_draws(self, H):
        # every root at least 1e-3 (1 + max |root|) from the line, on either
        # side; about one draw in three lies outside
        rng = np.random.default_rng(int(H.theta * 100))
        compared = 0
        for draw in range(60):
            n = 3 + draw % 10
            while True:
                u = rng.normal(0, 1.5, n) + 1j * rng.uniform(0.02, 1.5, n)
                if draw % 3 == 0:
                    u[rng.integers(0, n)] *= -1
                x = H.from_upper(u)
                if np.all(np.abs(u.imag) >= 1e-3 * (1.0 + np.max(np.abs(x)))):
                    break
            z = np.asarray(vieta_from_roots(x).z)
            verdict = _hermite_verdicts(z[None], H)[0]
            if n <= 8:
                # the band held none of 1800 such draws at degree 3-8
                assert verdict >= 0, draw
            if verdict < 0:
                continue
            try:
                stable = is_stable(Poly(tuple(z)), H).stable
            except NonConvergence:
                # find_roots raises on a few random draws from degree 9 on
                # (about 1 in 200); there is no verdict to compare
                continue
            assert stable == bool(verdict), draw
            compared += 1
        assert compared >= 50

    def test_near_line_decisions_match_cluster_roots(self):
        decided = 0
        for seed in range(300):
            z, H = planted_near_line(seed)
            verdict = _hermite_verdicts(z[None], H)[0]
            if verdict < 0:
                continue
            expected = cluster_roots(find_roots(Poly(tuple(z))), H).outside_total == 0
            assert bool(verdict) == expected, seed
            decided += 1
        # about a fifth of these draws are decided without roots
        assert decided >= 40
