"""Elementary-symmetric evaluation, one-point reductions and variety search."""

import cmath
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from stable_slices import (
    DimensionMismatch,
    FoundPoint,
    HalfPlane,
    NonConvergence,
    NoneFound,
    NoRootInRegion,
    SufficientForm,
    SymmetricPoly,
    coincide,
    coordinate_profile,
    elementary_symmetrics,
    eval_symmetric,
    gws_solve,
    halfdeg_optimize,
    halfplane_contains,
    variety_search,
    vieta_from_roots,
    young_blocks_from_x_expansion,
    young_gws,
)
from stable_slices import cli, symmetric
from stable_slices.polynomials import BOUNDARY_SCALE
from stable_slices.slices import compactness_bounds
from stable_slices.symmetric import (
    _DESCENT_ITERATIONS,
    _NEWTON_ITERATIONS,
    _SEARCH_STREAM,
    _STAGNATION,
    _UNBOUNDED_FLOOR,
    GWS_RESIDUAL_SCALE,
    _budget_patterns,
    _detect_pinned,
    _gauss_newton,
    _km_patterns,
    _Lockstep,
    _min_norm_steps,
    _newton_system,
    _Objective,
    _Pattern,
    _PatternMap,
    _row_norms,
    _sorted_point,
    _start_thetas,
    _TermTable,
)

# the halfdeg-opt jobs of the benchmark's search workload at seed 1
HALFDEG_JOBS = [entry["job"] for entry in json.loads(
    (pathlib.Path(__file__).parent / "data" / "halfdeg_verdicts.json").read_text())]


def brute_elementary(x):
    x = list(x)
    out = []
    for t in range(1, len(x) + 1):
        out.append(sum(np.prod(c) for c in itertools.combinations(x, t)))
    return out


def affine_symmetric(n, coeffs):
    """c0 + c1 e1 + ... + cd ed as a SymmetricPoly of matching degree."""
    d = len(coeffs) - 1
    terms = {}
    if coeffs[0]:
        terms[(0,) * d] = coeffs[0]
    for i in range(1, d + 1):
        key = tuple(1 if j == i - 1 else 0 for j in range(d))
        terms[key] = coeffs[i]
    return SymmetricPoly.from_terms(n, terms, d)


class TestInputChecks:
    """Checks whose inputs the CLI's schemas refuse first."""

    def test_sympoly_needs_a_variable(self):
        with pytest.raises(ValueError, match="at least one variable"):
            SymmetricPoly.from_terms(0, {}, 0)

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            SymmetricPoly.from_terms(2, {(1, -1): 1.0}, 2)

    def test_young_gws_block_sizes_must_be_positive(self):
        f = SymmetricPoly.from_terms(2, {(1,): 1.0}, 1)
        with pytest.raises(ValueError, match="block sizes"):
            young_gws((0, 2), f, (1j, 2j))

    def test_variety_search_needs_a_polynomial(self):
        with pytest.raises(ValueError, match="at least one polynomial"):
            variety_search([])


class TestElementarySymmetrics:
    def test_all_ones_gives_binomials(self):
        assert np.allclose(elementary_symmetrics((1.0,) * 5),
                           [5, 10, 10, 5, 1])

    def test_two_imaginary(self):
        assert np.allclose(elementary_symmetrics((1j, 2j)), [3j, -2])

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = elementary_symmetrics(tuple(x))
            ref = brute_elementary(x)
            scale = 1.0 + max(abs(v) for v in ref)
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-10 * scale


class TestEvalSymmetric:
    def test_sum_form_at_ones(self):
        # e1^2 + e2 + 2 e3 at five ones: 25 + 10 + 20
        f = SymmetricPoly.from_terms(5, {(2, 0, 0): 1.0,
                                         (0, 1, 0): 1.0,
                                         (0, 0, 1): 2.0}, 3)
        assert eval_symmetric(f, (1.0,) * 5) == pytest.approx(55.0)

    def test_constant(self):
        f = SymmetricPoly.from_terms(4, {(): 5.0}, 0)
        assert eval_symmetric(f, (1j, 2j, 3j, 4j)) == pytest.approx(5.0)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, n + 1))
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            f = affine_symmetric(n, coeffs)
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            es = brute_elementary(x)
            ref = coeffs[0] + sum(coeffs[i] * es[i - 1] for i in range(1, d + 1))
            got = eval_symmetric(f, tuple(x))
            assert abs(got - ref) <= 1e-8 * (1.0 + abs(ref))


class TestTermTable:
    def test_batch_matches_eval_at_e(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            polys = []
            for _ in range(int(rng.integers(1, 4))):
                terms = {(0,) * n: complex(rng.normal(), rng.normal())}
                for _ in range(3):
                    # weighted degree at most n: e1^a e2^b with a + 2b <= n
                    b = int(rng.integers(0, n // 2 + 1))
                    a = int(rng.integers(0, n - 2 * b + 1))
                    key = (a, b) + (0,) * (n - 2)
                    terms[key] = complex(rng.normal(), rng.normal())
                polys.append(SymmetricPoly.from_terms(n, terms, n))
            # e1^2, e2^2 and e1 e2 appear once n >= 4
            polys.append(SymmetricPoly.from_terms(
                n, {(2,) + (0,) * (n - 1): 1.0, (0,) * n: -3.0}, 2))
            table = _TermTable.compile(polys)
            x = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
            got = table.at_points(x)
            assert got.shape == (6, len(polys))
            for b in range(6):
                e = elementary_symmetrics(x[b])
                for j, f in enumerate(polys):
                    scale = 1.0 + f.abs_eval_at_e(e)
                    assert abs(got[b, j] - f.eval_at_e(e)) <= 1e-12 * scale

    def test_stack_rounds_like_its_batches(self):
        # a start's rows must give the same bits in a stack of any height
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            terms = {(0,) * n: complex(rng.normal(), rng.normal())}
            while len(terms) < 5:
                key = tuple(int(v) for v in rng.integers(0, 3, size=n))
                # products of several e_i, within the weighted degree n
                if sum((i + 1) * e for i, e in enumerate(key)) <= n:
                    terms[key] = complex(rng.normal(), rng.normal())
            table = _TermTable.compile([SymmetricPoly.from_terms(n, terms, n)])
            starts, rows = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            x = rng.normal(size=(starts, rows, n)) + 1j * rng.normal(size=(starts, rows, n))
            stacked = table.at_points(x)
            for s in range(starts):
                assert np.array_equal(stacked[s], table.at_points(x[s]))


def random_symmetric_polys(rng, n):
    """One to three random polynomials in the e_i of weighted degree at most
    n, each with a constant and an e1^2 term among its monomials."""
    polys = []
    for _ in range(int(rng.integers(1, 4))):
        terms = {(0,) * n: complex(rng.normal(), rng.normal()),
                 (2,) + (0,) * (n - 1): complex(rng.normal(), rng.normal())}
        for _ in range(4):
            key = tuple(int(v) for v in rng.integers(0, 3, size=n))
            if sum((i + 1) * e for i, e in enumerate(key)) <= n:
                terms[key] = complex(rng.normal(), rng.normal())
        polys.append(SymmetricPoly.from_terms(n, terms, n))
    return polys


class TestExactJacobian:
    @pytest.mark.parametrize("H", [HalfPlane.upper(), HalfPlane(theta=2.3, base=0.4 - 1.1j)],
                             ids=["upper", "rotated"])
    def test_matches_central_differences(self, H):
        # the Gauss-Newton residuals, and the half-degree objective of the
        # first polynomial, on value patterns (two parameters per value) and
        # boundary-real patterns with interior values; h = 1e-5 (1 + |theta_q|)
        # leaves a difference error near 1e-9 of the Jacobian's scale
        rng = np.random.default_rng(31)
        weights = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            polys = random_symmetric_polys(rng, n)
            table = _TermTable.compile(polys)
            patterns = list(_budget_patterns(n, n)) + _km_patterns(n, 2, 2)
            for k in rng.choice(len(patterns), size=3, replace=False):
                pmap = patterns[k].affine_map(H)
                theta = rng.normal(size=(4, pmap.matrix.shape[0]))
                F, norm, J = _newton_system(table, pmap, theta)
                assert np.allclose(norm, np.linalg.norm(F, axis=1), rtol=1e-15, atol=0)
                objective = _Objective(_TermTable.compile(polys[:1]), *weights.normal(size=2))
                for values, exact in ((lambda t: _newton_system(table, pmap, t)[0], J),
                                      (lambda t: objective(pmap, t[:, None]),
                                       objective.gradient(pmap, theta)[:, None])):
                    scale = 1.0 + np.max(np.abs(exact), axis=(1, 2))
                    for q in range(theta.shape[1]):
                        shift = np.zeros_like(theta)
                        shift[:, q] = 1e-5 * (1.0 + np.abs(theta[:, q]))
                        central = (values(theta + shift) - values(theta - shift)) \
                            / (2.0 * shift[:, q:q + 1])
                        assert np.all(np.abs(central - exact[:, :, q]) <= 1e-7 * scale[:, None])

    def test_values_match_at_points_and_round_alike_in_any_batch(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            polys = (random_symmetric_polys(rng, n) if n > 1
                     else [SymmetricPoly.from_terms(1, {(1,): 2.0 - 1j, (0,): 0.5}, 1)])
            table = _TermTable.compile(polys)
            rows = int(rng.integers(1, 9))
            x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
            values, dfdx = table.with_derivatives(x)
            assert np.allclose(values, table.at_points(x[:, None])[:, 0], rtol=1e-13, atol=1e-13)
            for b in range(x.shape[0]):
                alone = table.with_derivatives(x[b:b + 1])
                assert np.array_equal(alone[0][0], values[b])
                assert np.array_equal(alone[1][0], dfdx[b])


class TestMinNormSteps:
    @pytest.mark.parametrize("m, k, rank", [(6, 3, 3), (4, 4, 4), (2, 5, 2), (6, 4, 2)])
    def test_matches_lstsq(self, m, k, rank):
        # full rank over- and square, underdetermined, and rank-deficient
        rng = np.random.default_rng(33)
        J = rng.normal(size=(7, m, rank)) @ rng.normal(size=(7, rank, k))
        F = rng.normal(size=(7, m))
        got = _min_norm_steps(J, F)
        for j, f, delta in zip(J, F, got):
            want = np.linalg.lstsq(j, -f, rcond=None)[0]
            assert np.allclose(delta, want, rtol=1e-9, atol=1e-12)

    def test_zero_jacobian_gives_no_step(self):
        assert np.array_equal(_min_norm_steps(np.zeros((2, 4, 3)), np.ones((2, 4))),
                              np.zeros((2, 3)))


def pattern_point_reference(pattern, theta, halfplane):
    """The pattern's point, value by value, for one parameter vector."""
    rot = np.exp(1j * halfplane.theta)
    vals = []
    idx = 0
    for _ in pattern.multiplicities:
        if pattern.boundary_real:
            vals.append(halfplane.base + rot * theta[idx])
            idx += 1
        else:
            vals.append(halfplane.base + rot * (theta[idx] + 1j * theta[idx + 1]))
            idx += 2
    x = []
    for value, mult in zip(vals, pattern.multiplicities):
        x.extend([value] * mult)
    for _ in range(pattern.interior):
        x.append(halfplane.base + rot * (theta[idx] + 1j * theta[idx + 1]))
        idx += 2
    return np.asarray(x, dtype=complex)


def project_theta_reference(pattern, theta):
    """Clamp each free imaginary part at 0, value by value."""
    out = theta.copy()
    idx = 0
    for _ in pattern.multiplicities:
        if pattern.boundary_real:
            idx += 1
        else:
            out[idx + 1] = max(out[idx + 1], 0.0)
            idx += 2
    for _ in range(pattern.interior):
        out[idx + 1] = max(out[idx + 1], 0.0)
        idx += 2
    return out


class TestPatternMap:
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_matches_value_by_value_construction(self, n):
        rng = np.random.default_rng(n)
        H = HalfPlane(theta=1.1, base=0.3 - 0.7j)
        patterns = list(_budget_patterns(n, n)) + _km_patterns(n, 2, 2)
        for pattern in patterns:
            pmap = pattern.affine_map(H)
            theta = rng.normal(size=(5, pattern.params))
            points = pmap.points(theta)
            projected = pmap.project(theta)
            for b in range(5):
                ref = pattern_point_reference(pattern, theta[b], H)
                assert np.max(np.abs(points[b] - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))
                assert np.array_equal(projected[b], project_theta_reference(pattern, theta[b]))
                one = pmap.points(theta[b])
                assert np.max(np.abs(one - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))

    def test_stack_pads_each_pattern_and_is_cut_by_start(self):
        # a padded start gives its pattern's points and projection bit for bit
        rng = np.random.default_rng(6)
        H = HalfPlane(theta=0.4, base=-1.2 + 0.5j)
        maps = [p.affine_map(H) for p in [_Pattern((), 4, True)] + _km_patterns(4, 2, 2)]
        stacked = _PatternMap.stack(maps, 2)
        width = stacked.matrix.shape[1]
        assert stacked.matrix.shape == (2 * len(maps), width, 4) and width == 8
        theta = rng.normal(size=(2 * len(maps), 3, width))
        for i, pmap in enumerate(maps):
            params = pmap.clamped.size
            rows = theta[2 * i:2 * i + 2].copy()
            rows[..., params:] = 0.0
            assert np.array_equal(stacked.take(slice(2 * i, 2 * i + 2)).points(rows),
                                  pmap.points(rows[..., :params]))
            projected = stacked.take([2 * i, 2 * i + 1]).project(rows)
            assert np.array_equal(projected[..., :params], pmap.project(rows[..., :params]))
            assert not projected[..., params:].any()
        assert stacked.take(np.arange(2 * len(maps)) % 2 == 1).matrix.shape[0] == len(maps)
        assert maps[0].take([5, 7]) is maps[0]

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 1])
    def test_start_draws_are_those_of_the_seed_list(self, seed):
        # variety_search's streams (stream, seed, pattern) and halfdeg_optimize's
        # (stream, seed, pass, pattern), each with the start index appended
        pmap = _km_patterns(4, 2, 2)[1].affine_map(HalfPlane(theta=0.4, base=-1.2 + 0.5j))
        box = (-3.0, 2.0, 4.0)
        low = np.where(pmap.clamped, 0.0, box[0])
        width = np.where(pmap.clamped, box[2], box[1] - box[0])
        for stream in ((_SEARCH_STREAM, seed, 3), (_SEARCH_STREAM, seed, 1, 2)):
            expected = [low + width * np.random.default_rng([*stream, s]).random(low.size)
                        for s in range(6)]
            assert _start_thetas(pmap, box, stream, range(6)).tobytes() == \
                np.asarray(expected).tobytes()


class TestCoordinateProfile:
    def test_all_interior(self):
        p = coordinate_profile([-20 + 1j, 1j, 20 + 1j, 20j])
        assert (p.boundary_distinct, p.interior_count) == (0, 4)

    def test_mixed(self):
        p = coordinate_profile([1.0, 1.0, 2.0, 1j])
        assert (p.boundary_distinct, p.interior_count) == (2, 1)

    def test_repeated_boundary_value(self):
        p = coordinate_profile([0.0, 0.0, 0.0])
        assert (p.boundary_distinct, p.interior_count) == (1, 0)

    def test_within(self):
        p = coordinate_profile([1.0, 1.0, 2.0, 1j])
        assert p.within(2, 1) and p.within(5, 5)
        assert not p.within(1, 1)


class TestGwsSolve:
    def test_leading_terms_are_not_judged_against_the_target(self):
        # draw 2 of a seeded family: n up to 12, f affine of degree d <= n,
        # a random half-plane with base up to 1e3 and x inside it.  At n =
        # 10, d = 8 the target sits in u[0] at 3e23, and 1e-14 of it once
        # outweighed every leading coefficient (at most 261): the equation
        # read as constant, x_1 came back, and f missed by 6.9e21
        rng = np.random.default_rng(2024)
        for _ in range(3):
            n = int(rng.integers(1, 13))
            d = int(rng.integers(0, n + 1))
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            H = HalfPlane(theta=float(rng.uniform(0, 2 * np.pi)),
                          base=complex(*rng.uniform(-1e3, 1e3, 2)))
            x = tuple(map(H.from_upper, rng.normal(size=n) + 1j * np.abs(rng.normal(size=n))))
        assert (n, d) == (10, 8)
        f = affine_symmetric(n, coeffs)
        y = gws_solve(f, x, H)
        e, ey = elementary_symmetrics(x), elementary_symmetrics((y,) * n)
        scale = 1.0 + f.abs_eval_at_e(e) + f.abs_eval_at_e(ey)
        assert abs(f.eval_at_e(ey) - f.eval_at_e(e)) <= 1e-6 * scale
        assert halfplane_contains(H, y) != "outside"

    @staticmethod
    def far_family(count):
        """(f, x, H) draws of default_rng(5): n = d in [9, 12], complex
        normal coefficients, a half-plane with base up to 1e3 on each axis
        and x inside it."""
        rng = np.random.default_rng(5)
        for _ in range(count):
            n = int(rng.integers(9, 13))
            coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            base = complex(*rng.uniform(-1e3, 1e3, 2))
            H = HalfPlane(theta=float(rng.uniform(0, 2 * np.pi)), base=base)
            x = tuple(map(H.from_upper, rng.normal(size=n) + 1j * np.abs(rng.normal(size=n))))
            yield affine_symmetric(n, coeffs), x, H

    @staticmethod
    def check_solution(f, x, H, y):
        e, ey = elementary_symmetrics(x), elementary_symmetrics((y,) * f.n)
        scale = 1.0 + f.abs_eval_at_e(e) + f.abs_eval_at_e(ey)
        assert abs(f.eval_at_e(ey) - f.eval_at_e(e)) <= 1e-6 * scale
        assert halfplane_contains(H, y) != "outside"

    def test_far_from_the_origin(self):
        # draw 0: the diagonal equation's constant term is about |x|^11 =
        # 1e33, and a start circle that wide overflowed the Aberth iterates
        ((f, x, H),) = self.far_family(1)
        assert f.n == 11 and abs(H.base - (740.18 - 545.36j)) < 0.01
        self.check_solution(f, x, H, gws_solve(f, x, H))

    def test_far_family_is_solved(self):
        # 140 of these 300 draws raised NonConvergence before the equation
        # was rescaled to a root bound of about 1
        failed = 0
        for f, x, H in self.far_family(300):
            try:
                y = gws_solve(f, x, H)
            except NonConvergence:
                failed += 1
                continue
            self.check_solution(f, x, H, y)
        assert failed == 0

    def test_linear_averages(self):
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0}, 1)
        assert gws_solve(f, (1j, 2j, 3j)) == pytest.approx(2j)

    def test_quadratic_picks_upper_root(self):
        # e2(2i, 8i) = -16, so Y^2 = -16 and only 4i lies in the region
        f = SymmetricPoly.from_terms(2, {(0, 1): 1.0}, 2)
        assert gws_solve(f, (2j, 8j)) == pytest.approx(4j)

    def test_equal_moduli_tie_break_by_real_part(self):
        # f = c0 + c3 e3 on a block of 3: Y^3 = e3(x), whose cube roots
        # share one modulus, and two of them lie in the upper half-plane.
        # Their abs differ by rounding, which picked the one of larger
        # real part here
        x = (-0.3171556440173552 + 0.2932336958002246j,
             -0.24333508574217566 + 0.817206580492595j,
             -0.7944473388868819 + 0.13423994708633882j)
        f = affine_symmetric(3, [-0.11078013611159404 + 0.5433593895301524j, 0, 0,
                                 0.22463852364937692 + 2.550034636307906j])
        w = x[0] * x[1] * x[2]
        cube_roots = [abs(w) ** (1 / 3) * cmath.exp(1j * (cmath.phase(w) + 2 * math.pi * k) / 3)
                      for k in range(3)]
        inside = [r for r in cube_roots if r.imag > 0]
        assert len(inside) == 2
        y = gws_solve(f, x)
        assert y == pytest.approx(min(inside, key=lambda r: r.real), rel=1e-12)
        assert young_gws((3,), f, x) == (y,)

    def test_constant_returns_first_coordinate(self):
        f = SymmetricPoly.from_terms(3, {(): 7.0}, 0)
        assert gws_solve(f, (5j, 1j, 2j)) == pytest.approx(5j)

    def test_postcondition_random_halfplanes(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, n + 1))
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            f = affine_symmetric(n, coeffs)
            H = HalfPlane(theta=float(rng.uniform(0, 2 * np.pi)),
                          base=complex(rng.normal(), rng.normal()))
            # sample x inside H by pushing random points along the normal
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = tuple(H.from_upper(complex(v.real, abs(v.imag))) for v in raw)
            y = gws_solve(f, x, H)
            assert halfplane_contains(H, y) != "outside"
            fx = eval_symmetric(f, x)
            fy = eval_symmetric(f, (y,) * n)
            assert abs(fy - fx) <= 1e-8 * (1.0 + abs(fx))


class TestCoincide:
    def test_square_of_e1(self):
        F = SufficientForm.from_data([[1, 0, 0, 0]], {(2,): 1.0})
        x = (1j, 2j, 1 + 1j, -1 + 2j)
        xt, report = coincide(F, x)
        prof = coordinate_profile(xt)
        assert prof.within(6, 3)
        ex = np.asarray(elementary_symmetrics(x))
        ext = np.asarray(elementary_symmetrics(xt))
        drift = abs(F.eval_at_e(ext) - F.eval_at_e(ex))
        assert drift <= 1e-6 * (1.0 + abs(F.eval_at_e(ex)))

    def test_two_form_example(self):
        # f = e1^2 + e2 + 2 e3 factored through l1 = Z1, l2 = Z2 + 2 Z3
        F = SufficientForm.from_data([[1, 0, 0, 0, 0], [0, 1, 2, 0, 0]],
                                     {(2, 0): 1.0, (0, 1): 1.0})
        x = (1j, 2j, 3j, 1 + 1j, -2 + 1j)
        xt, report = coincide(F, x)
        assert coordinate_profile(xt).within(8, 4)
        ex = np.asarray(elementary_symmetrics(x))
        ext = np.asarray(elementary_symmetrics(xt))
        assert abs(F.eval_at_e(ext) - F.eval_at_e(ex)) <= \
            1e-6 * (1.0 + abs(F.eval_at_e(ex)))

    def test_compressed_point_is_fixed(self):
        F = SufficientForm.from_data([[1, 0, 0]], {(1,): 1.0})
        x = (1.0, 1.0, 2.0)
        xt, report = coincide(F, x)
        assert report.iterations == 0
        assert sorted(xt, key=lambda v: (v.real, v.imag)) == \
            pytest.approx([1.0, 1.0, 2.0])

    def test_value_equality_random(self):
        rng = np.random.default_rng(2026)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(1, 3))
            L = rng.normal(size=(k, n))
            terms = {}
            for key in itertools.product(range(2), repeat=k):
                if rng.random() < 0.7:
                    terms[key] = complex(rng.normal(), rng.normal())
            if not terms:
                terms[(0,) * k] = 1.0
            F = SufficientForm.from_data(L, terms)
            x = tuple(complex(rng.normal(), abs(rng.normal()) + 1e-2)
                      for _ in range(n))
            xt, report = coincide(F, x)
            assert coordinate_profile(xt).within(2 * (k + 2), k + 2)
            ex = np.asarray(elementary_symmetrics(x))
            ext = np.asarray(elementary_symmetrics(xt))
            v0 = F.eval_at_e(ex)
            assert abs(F.eval_at_e(ext) - v0) <= 1e-6 * (1.0 + abs(v0))
            members = [x for cl in report.final_profile.clusters for x in cl.members]
            assert sorted(xt, key=lambda v: (v.real, v.imag)) == \
                sorted(members, key=lambda v: (v.real, v.imag))
            scale = 1.0 + np.asarray(elementary_symmetrics(np.abs(xt))).real
            assert np.all(np.abs(ext - np.asarray(report.final_z.z)) <= 1e-7 * scale)


class TestYoungBlocksFromXExpansion:
    def test_complete_expansion_maps_to_block_weights(self):
        # blocks (2, 2): x1 x2 + 2 (x3 + x4) + 5 (x1 + x2)(x3 + x4) - 3
        monomials = {(1, 1, 0, 0): 1.0, (0, 0, 1, 0): 2.0, (0, 0, 0, 1): 2.0,
                     (0, 0, 0, 0): -3.0}
        for i in (0, 1):
            for j in (2, 3):
                key = [0, 0, 0, 0]
                key[i] = key[j] = 1
                monomials[tuple(key)] = 5.0
        assert young_blocks_from_x_expansion((2, 2), monomials) == {
            (2, 0): 1.0, (0, 1): 2.0, (1, 1): 5.0, (0, 0): -3.0}

    def test_pairs_and_listed_zeros(self):
        # an iterable of pairs works too; a weight whose coefficient is 0
        # may list only some of its monomials, since the rest are 0 as well
        out = young_blocks_from_x_expansion(
            (3,), [((1, 1, 1), 2.0), ((1, 0, 0), 0.0)])
        assert out == {(3,): 2.0, (1,): 0.0}

    def test_incomplete_expansion_raises(self):
        # x1 - 3 is not invariant under swapping x1 and x2: the missing x2
        # has coefficient 0, unlike x1
        with pytest.raises(ValueError, match="1 of its 2 monomials"):
            young_blocks_from_x_expansion(
                (2, 2), {(1, 0, 0, 0): 1.0, (0, 0, 0, 0): -3.0})

    def test_unequal_coefficients_raise(self):
        with pytest.raises(ValueError):
            young_blocks_from_x_expansion((2,), {(1, 0): 1.0, (0, 1): 1.5})


class TestYoungGws:
    def test_two_blocks(self):
        y = young_gws((2, 2), young_blocks_from_x_expansion(
            (2, 2), {(1, 1, 0, 0): 1.0, (0, 0, 1, 1): 1.0}), (1j, 4j, 2j, 8j))
        assert np.allclose(y, (2j, 4j))
        # substitution check: f(2i,2i,4i,4i) = (2i)^2 + (4i)^2 = -20
        assert (y[0] ** 2 + y[1] ** 2) == pytest.approx(-20.0)

    def test_single_block_matches_gws(self):
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0}, 1)
        y = young_gws((3,), young_blocks_from_x_expansion(
            (3,), {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}), (1j, 2j, 3j))
        assert len(y) == 1
        assert y[0] == gws_solve(f, (1j, 2j, 3j))

    def test_block_not_in_support(self):
        # f ignores the second block, so its representative is just the
        # block's first coordinate
        y = young_gws((2, 2), young_blocks_from_x_expansion((2, 2), {(1, 1, 0, 0): 1.0}),
                      (1j, 4j, 2j, 8j))
        assert y[0] == pytest.approx(2j)
        assert y[1] == pytest.approx(2j)

    def test_one_block_is_gws_solve_bit_for_bit(self):
        # gws_solve is young_gws on one block, whichever way f is written,
        # and both solve the diagonal equation with the affine coefficients
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(150):
            n = int(rng.integers(1, 13))
            d = int(rng.integers(0, n + 1))
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            H = HalfPlane.upper()
            if rng.random() < 0.3:
                H = HalfPlane(theta=float(rng.uniform(0, 2 * np.pi)),
                              base=complex(rng.normal(), rng.normal()))
            raw = rng.normal(size=n) + 1j * np.abs(rng.normal(size=n))
            cases.append((affine_symmetric(n, coeffs), tuple(map(H.from_upper, raw)), H))
        # Terms near 8e14 that cancel to a value near 10: the exact drift
        # of y (mpmath, 60 digits) is 0.106, a rounding of the terms, which
        # a check scaled by the value alone refused
        H = HalfPlane(theta=0.3, base=3000 - 400j)
        x = tuple(H.from_upper(v) for v in (0.5 + 0.8j, 0.3 + 0.1j, 1.2 + 0.6j, 1.8 + 1.1j))
        e = elementary_symmetrics(x)
        c0 = -((1 - 0.5j) * e[1] + 10 * e[3]) + 10
        f = affine_symmetric(4, [c0, 0, 1 - 0.5j, 0, 10])
        assert f.abs_eval_at_e(e) > 1e14 and abs(f.eval_at_e(e)) < 20
        cases.append((f, x, H))
        for f, x, H in cases:
            c = f.affine_coefficients()
            blocks = {(d,): c[d] for d in range(f.n + 1) if c[d] != 0}
            y = symmetric._gws_core(c, x, H)
            assert gws_solve(f, x, H) == y
            assert young_gws((f.n,), f, x, H) == (y,)
            assert young_gws((f.n,), blocks, x, H) == (y,)
            assert halfplane_contains(H, y) != "outside"

    def test_drift_check_refuses_a_wrong_root(self, monkeypatch):
        solve = symmetric._gws_core
        monkeypatch.setattr(symmetric, "_gws_core",
                            lambda c, x, H: solve(c, x, H) + 1e-3)
        f = SymmetricPoly.from_terms(2, {(0, 1): 1.0}, 2)
        with pytest.raises(NoRootInRegion, match="block recursion drifted"):
            gws_solve(f, (2j, 8j))
        with pytest.raises(NoRootInRegion, match="block recursion drifted"):
            young_gws((1, 1), {(1, 1): 1.0, (0, 0): 2.0}, (1j, 2j))

    def test_polynomial_on_other_variable_count_is_refused(self):
        # e1 + 5 e3 - 2 on three variables against two blocks of one
        # coordinate: its e3 term was once dropped and x returned unchanged
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0, (0, 0, 1): 5.0, (0, 0, 0): -2.0}, 3)
        with pytest.raises(DimensionMismatch, match="the blocks hold 2 coordinates, f has n = 3"):
            young_gws((1, 1), f, (1j, 2j))

    def test_value_preserved_random(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            b1 = int(rng.integers(1, 4))
            b2 = int(rng.integers(1, 4))
            n = b1 + b2
            # multiaffine and blockwise symmetric: products of per-block
            # elementary symmetrics
            terms = {}
            for d1 in range(b1 + 1):
                for d2 in range(b2 + 1):
                    if rng.random() < 0.6:
                        c = complex(rng.normal(), rng.normal())
                        for c1 in itertools.combinations(range(b1), d1):
                            for c2 in itertools.combinations(range(b2), d2):
                                key = [0] * n
                                for i in c1:
                                    key[i] = 1
                                for j in c2:
                                    key[b1 + j] = 1
                                key = tuple(key)
                                terms[key] = terms.get(key, 0) + c
            if not terms:
                terms[(0,) * n] = 1.0
            x = tuple(complex(rng.normal(), abs(rng.normal()) + 1e-2)
                      for _ in range(n))
            y = young_gws((b1, b2), young_blocks_from_x_expansion((b1, b2), terms), x)

            def direct(pt):
                return sum(c * np.prod([pt[i] for i in range(n) if key[i]])
                           for key, c in terms.items())

            fx = direct(x)
            fy = direct((y[0],) * b1 + (y[1],) * b2)
            assert abs(fy - fx) <= 1e-8 * (1.0 + abs(fx))
            assert y[0].imag >= -1e-9 and y[1].imag >= -1e-9


class TestVarietySearch:
    def test_detect_pinned_reads_affine_single_e(self):
        polys = [
            SymmetricPoly.from_terms(3, {(1, 0, 0): 2.0, (): -1j}, 1),  # e1 = i/2
            SymmetricPoly.from_terms(3, {(0, 1, 0): 4.0, (): 2.0}, 2),  # e2 = -1/2
            SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0, (0, 0, 1): 1.0}, 3),  # two e's
            SymmetricPoly.from_terms(3, {(2, 0, 0): 1.0, (): -1.0}, 2),  # not affine
            SymmetricPoly.from_terms(3, {(): 5.0}, 0),  # no e at all
        ]
        pinned = _detect_pinned(polys)
        assert pinned == {0: 0.5j, 1: -0.5}
        assert all(type(v) is complex for v in pinned.values())

    def test_trivial_kernel_of_e1(self):
        e1 = SymmetricPoly.from_terms(2, {(1, 0): 1.0}, 1)
        r = variety_search([e1], pattern=(1, 0), budget=50, seed=0)
        assert isinstance(r, FoundPoint)
        assert abs(sum(r.x)) <= 1e-8
        # one real value of multiplicity two
        prof = coordinate_profile(r.x)
        assert prof.within(1, 0)

    def test_found_points_reverify(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(10):
            n = int(rng.integers(2, 5))
            x0 = tuple(complex(rng.normal(), abs(rng.normal())) for _ in range(n))
            es = elementary_symmetrics(x0)
            polys = []
            for i in range(1, min(n, 2) + 1):
                key = tuple(1 if j == i - 1 else 0 for j in range(i))
                terms = {key: 1.0, (0,) * i: -es[i - 1]}
                polys.append(SymmetricPoly.from_terms(n, terms, i))
            r = variety_search(polys, pattern=n, budget=100, seed=3)
            if isinstance(r, NoneFound):
                continue
            checked += 1
            for f, res in zip(polys, r.residuals):
                direct = abs(eval_symmetric(f, r.x))
                assert direct <= 1e-7 * (1.0 +
                                         max(abs(v) for v in
                                             np.atleast_1d(es)))
                assert direct == pytest.approx(res, abs=1e-12)
            assert all(v.imag >= -1e-8 for v in r.x)
        assert checked >= 5

    def test_paper_quadruple_starts_used(self):
        # e_i pinned to the values of (-20+i, i, 20+i, 20i); the start count
        # fixes the whole sequence of seeded starts and Newton steps
        e = elementary_symmetrics((-20 + 1j, 1j, 20 + 1j, 20j))
        polys = []
        for i in range(1, 5):
            key = tuple(1 if j == i - 1 else 0 for j in range(i))
            polys.append(SymmetricPoly.from_terms(4, {key: 1.0, (0,) * i: -e[i - 1]}, i))
        r = variety_search(polys, pattern=4, budget=50, seed=0)
        assert isinstance(r, FoundPoint)
        assert r.starts_used == 201
        assert np.allclose(r.x, [-20 + 1j, 1j, 20j, 20 + 1j], atol=1e-6)

    @pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=2))
    def test_point_order_ignores_rounding_of_equal_real_parts(self, signs):
        # i and 20i come out of the search with real parts of about 1e-16,
        # of either sign
        s1, s2 = signs
        x = np.array([20 + 1j, s1 * 1e-16 + 20j, -20 + 1j, s2 * 1e-16 + 1j])
        ordered = _sorted_point(x)
        assert np.allclose(ordered, [-20 + 1j, 1j, 20j, 20 + 1j], rtol=0, atol=1e-15)

    def test_none_found_reports_statistics(self):
        # e1 = 1 and e1 = 2 cannot hold at once
        f1 = SymmetricPoly.from_terms(2, {(1,): 1.0, (0,): -1.0}, 1)
        f2 = SymmetricPoly.from_terms(2, {(1,): 1.0, (0,): -2.0}, 1)
        r = variety_search([f1, f2], pattern=2, budget=40, seed=0)
        assert isinstance(r, NoneFound)
        assert r.starts > 0
        assert r.best_residual > 0.1

    def test_overflowed_residual_is_no_hit(self):
        # every residual in this box overflows to inf; the start ends at its
        # first batch, and an inf residual must not pass as a hit
        f = SymmetricPoly.from_terms(2, {(2,): 1e300, (0,): -1.0}, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            r = variety_search([f], budget=1, box=(1e10, 1e10, 1e10))
        assert isinstance(r, NoneFound)


class TestHalfDegreeOptimize:
    def test_imaginary_part_of_e1_is_nonnegative(self):
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0}, 1)
        res = halfdeg_optimize(f, 0.0, 1.0, budget=8, seed=1)
        assert not res.full_unbounded and not res.restricted_unbounded
        assert res.inf_full == pytest.approx(0.0, abs=1e-6)
        assert res.inf_restricted == pytest.approx(0.0, abs=1e-6)

    def test_square_of_e1_unbounded_below(self):
        f = SymmetricPoly.from_terms(3, {(2, 0, 0): 1.0}, 2)
        res = halfdeg_optimize(f, 1.0, 0.0, budget=8, seed=1)
        assert res.full_unbounded and res.restricted_unbounded

    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_objective_negative_at_origin_unbounded(self, n):
        # -1 + e1: the objective is negative at the base point, which once
        # made the doubling test fail and reported a bound near -1e12
        f = SymmetricPoly.from_terms(n, {(0,) * n: -1.0, (1,) + (0,) * (n - 1): 1.0}, 1)
        res = halfdeg_optimize(f, 1.0, 0.0, budget=4, seed=0)
        assert res.full_unbounded and res.restricted_unbounded
        assert res.inf_full == res.inf_restricted == float("-inf")

    def test_restriction_parameter(self):
        f = SymmetricPoly.from_terms(4, {(0, 1, 0, 0): 1.0}, 2)
        res = halfdeg_optimize(f, 1.0, 0.0, budget=6, seed=2)
        assert res.k == 2


def reference_variety_search(polys, H, *, pattern, budget, seed):
    """variety_search one start after another: each start runs
    _gauss_newton's damped Gauss-Newton alone, on one-start stacks of the
    same evaluations and solve, with its rules written out as loops."""
    n = polys[0].n
    patterns = (list(_budget_patterns(n, pattern)) if isinstance(pattern, int)
                else _km_patterns(n, *pattern))
    pinned = _detect_pinned(polys)
    if 0 in pinned and 1 in pinned:
        bounds = compactness_bounds(pinned[0], pinned[1], n)
        half = math.sqrt(bounds.re_sq_bound) + 1.0
        box = (-half, half, bounds.im_hi + 1.0)
    else:
        box = (-5.0, 5.0, 5.0)
    table = _TermTable.compile(polys)

    def evaluate(pmap, theta):
        """Residuals, norm and Jacobian at one parameter vector."""
        F, norm, J = _newton_system(table, pmap, theta[None])
        return F, float(norm[0]), J

    def verify(x):
        e = vieta_from_roots(tuple(x)).z
        res = []
        for f in polys:
            val = abs(f.eval_at_e(e))
            if not math.isfinite(val) or val > GWS_RESIDUAL_SCALE * (1.0 + f.abs_eval_at_e(e)):
                return None
            res.append(val)
        btol = BOUNDARY_SCALE * (1.0 + float(np.max(np.abs(x))))
        if any(H.signed_distance(v) < -btol for v in x):
            return None
        return tuple(res)

    halvings = 0.5 ** np.arange(1, 25)
    total, best, best_x = 0, float("inf"), None
    for p_idx, pat in enumerate(patterns):
        pmap = pat.affine_map(H)
        for s_idx in range(budget):
            theta = _start_thetas(pmap, box, (_SEARCH_STREAM, seed, p_idx), [s_idx])[0]
            F, norm, J = evaluate(pmap, theta)
            norm_best, stalled = float("inf"), False
            for iteration in range(_NEWTON_ITERATIONS + 1):
                if math.isfinite(norm):
                    norm_best = min(norm_best, norm)
                if (stalled or iteration == _NEWTON_ITERATIONS or not math.isfinite(norm)
                        or norm <= 1e-12 or not np.all(np.isfinite(J))):
                    break
                delta = _min_norm_steps(J, F)[0]
                step = pmap.project(theta + delta)
                F_step, norm_step, J_step = evaluate(pmap, step)
                new = norm_step
                if not new < norm:
                    cands = pmap.project(theta + halvings[:, None] * delta)
                    values = table.at_points(pmap.points(cands[None]))[0]
                    tried = _row_norms(np.concatenate([values.real, values.imag], axis=1))
                    lower = np.flatnonzero(tried < norm)
                    if lower.size == 0:
                        break
                    step, new = cands[lower[0]], float(tried[lower[0]])
                    F_step, norm_step, J_step = evaluate(pmap, step)
                stalled = not new < (1.0 - _STAGNATION) * norm
                theta, F, norm, J = step, F_step, norm_step, J_step
            x = pmap.points(theta)
            total += 1
            if norm_best < best:
                best, best_x = norm_best, _sorted_point(x)
            res = verify(x)
            if res is not None:
                return FoundPoint(x=_sorted_point(x), residuals=res, pattern=pat.describe(),
                                  starts_used=total)
    return NoneFound(patterns_tried=len(patterns), starts=total, best_residual=best,
                     best_x=best_x)


def reference_descend(objective, pmap, theta0):
    """_descend as it was before the starts ran in lockstep, for one start
    on the parameters of its own pattern's map, with its rule for overflow:
    a non-finite value read at the start point, in the gradient or at an
    accepted step raises NonConvergence."""
    def finite(values):
        if not np.all(np.isfinite(values)):
            raise NonConvergence("half-degree objective is not finite at a descent point")
        return values

    halvings = 0.5 ** np.arange(40)
    theta = pmap.project(theta0)
    value = float(finite(objective(pmap, theta[None, :])[0]))
    for _ in range(_DESCENT_ITERATIONS):
        if value < _UNBOUNDED_FLOOR:
            break
        grad = finite(objective.gradient(pmap, theta[None, :]))[0]
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-12 * (1.0 + abs(value)):
            break
        step = max(1.0, abs(value) / (gnorm * gnorm + 1e-300))
        cands = pmap.project(theta - (step * halvings)[:, None] * grad)
        values = objective(pmap, cands)
        lower = np.flatnonzero(values < value - 1e-14 * (1.0 + abs(value)))
        if lower.size == 0:
            break
        theta, value = cands[lower[0]], float(finite(values[lower[0]]))
    return value, theta


def halfdeg_objective(f, lam, mu):
    return _Objective(_TermTable.compile([f]), lam, mu)


def reference_halfdeg(f, lam, mu, *, budget, seed):
    """halfdeg_optimize's two optimizations as they were before the starts
    ran in lockstep: one start after another.  Each gives (infimum,
    unbounded, witness, (pattern, start) of the diving start or None)."""
    H = HalfPlane.upper()
    objective = halfdeg_objective(f, lam, mu)

    def optimize(patterns, tag):
        best, witness = float("inf"), None
        for p_idx, pat in enumerate(patterns):
            pmap = pat.affine_map(H)
            for s_idx in range(budget):
                theta0 = _start_thetas(pmap, (-3.0, 3.0, 3.0),
                                       (_SEARCH_STREAM, seed, tag, p_idx), [s_idx])[0]
                value, theta = reference_descend(objective, pmap, theta0)
                if value < best:
                    best, witness = value, pmap.points(theta)
                if value < _UNBOUNDED_FLOOR:
                    base, doubled = objective(pmap, np.stack([np.zeros_like(theta),
                                                              2.0 * theta]))
                    if doubled - base <= 1.5 * (value - base):
                        return float("-inf"), True, pmap.points(theta), (p_idx, s_idx)
        return best, False, witness, None

    n, k = f.n, max(f.degree // 2, 2)
    full = optimize([_Pattern(multiplicities=(), interior=n, boundary_real=True)], 0)
    restricted = optimize(_km_patterns(n, k, k), 1)
    return full, restricted


def affine_equations(rng, x, count):
    """count random affine equations in the e_i that x satisfies."""
    n = len(x)
    e = np.asarray(elementary_symmetrics(x))
    polys = []
    for _ in range(count):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        terms = {tuple(1 if j == i else 0 for j in range(n)): c[i] for i in range(n)}
        terms[(0,) * n] = -complex(c @ e)
        polys.append(SymmetricPoly.from_terms(n, terms, n))
    return polys


def paper_quadruple(count):
    e = elementary_symmetrics((-20 + 1j, 1j, 20 + 1j, 20j))
    return [SymmetricPoly.from_terms(
        4, {tuple(1 if j == i - 1 else 0 for j in range(i)): 1.0, (0,) * i: -e[i - 1]}, i)
        for i in range(1, count + 1)]


# x = (theta,): one boundary value of multiplicity one in the upper half-plane
ONE_REAL_VALUE = _Pattern(multiplicities=(1,), interior=0,
                          boundary_real=True).affine_map(HalfPlane.upper())


class TestLockstep:
    def test_ending_starts_finish_in_order_and_a_hit_cuts_above(self):
        finished = []

        def finish(start, theta, score):
            finished.append(start)
            return start in (1, 3)

        batch = _Lockstep(ONE_REAL_VALUE, np.arange(6.0)[:, None], np.zeros(6), finish, [6])
        (rows,) = batch.keep(np.array([True, True, True, False, True, False]), np.arange(6))
        # start 3 hits, so starts 4 and 5 end unfinished
        assert finished == [3]
        assert batch.start.tolist() == rows.tolist() == [0, 1, 2]
        # a lower start that hits later wins, and ends the ones above it
        (rows,) = batch.keep(np.array([True, False, True]), rows)
        assert finished == [3, 1]
        assert batch.start.tolist() == rows.tolist() == [0]
        assert batch.keep(np.ones(1, dtype=bool), rows) == (rows,)

    def test_a_hit_cuts_above_only_within_its_group(self):
        # groups {0, 1, 2} and {3, 4, 5} of a stacked map, which is cut with
        # the starts
        finished = []

        def finish(start, theta, score):
            finished.append(start)
            return start in (0, 1, 4)

        H = HalfPlane.upper()
        stacked = _PatternMap.stack([ONE_REAL_VALUE, _Pattern((), 1, True).affine_map(H)], 3)
        batch = _Lockstep(stacked, np.zeros((6, 2)), np.zeros(6), finish, [3, 6])
        (rows,) = batch.keep(np.array([True, False, False, True, False, True]), np.arange(6))
        # start 1 ends start 2 of its group, start 4 start 5 of its own
        assert finished == [1, 4]
        assert batch.start.tolist() == rows.tolist() == [0, 3]
        assert np.array_equal(batch.pmap.matrix, stacked.matrix[[0, 3]])
        # start 0 ends its group, which has no start left above it
        (rows,) = batch.keep(np.array([False, False]), rows)
        assert finished == [1, 4, 0, 3]
        assert batch.start.size == batch.pmap.matrix.shape[0] == 0

    def test_overflow_ends_a_start_and_only_finite_norms_count(self):
        # f(x) = x - 0.5 on the real line (x = theta), whose value overflows
        # right of 2 and whose derivative overflows right of 1.  Start 0
        # (theta = 3) ends at once with no norm; start 1 (theta = 1.5) ends
        # at once, since its Jacobian has no usable step, but its finite
        # norm counts; start 2 goes from -1 to 0.5.
        pmap = ONE_REAL_VALUE

        class Table:
            def at_points(self, x):
                return np.where(x.real > 2.0, np.inf, x - 0.5)

            def with_derivatives(self, x):
                slope = np.where(x.real > 1.0, np.inf, 1.0)[:, :, None]
                return self.at_points(x), slope + 0j

        ended = {}

        def finish(start, theta, score):
            ended[start] = (theta.tolist(), score)
            return False

        with np.errstate(invalid="ignore"):
            _gauss_newton(Table(), pmap, np.array([[3.0], [1.5], [-1.0]]), finish)
        assert ended[0] == ([3.0], np.inf)
        assert ended[1] == ([1.5], 1.0)
        assert ended[2][0] == [0.5] and ended[2][1] <= 1e-12

    def test_stagnation_ends_a_start_creeping_along_the_boundary(self, monkeypatch):
        # One equation at n = 3 (the benchmark's planted-n3-d2-q1 job of
        # search seed 1).  Its one-value pattern has a zero at 1.4174 +
        # 0.1616i, but start 0 is drawn to the zero -0.5783 - 0.0092i below
        # the real axis: every step points below it, the projection clamps
        # the step, and the norm falls by a few units in the last place per
        # step.  The stagnation stop ends the start within ten steps; without
        # it the start runs to the iteration cap.
        f = SymmetricPoly.from_terms(3, {
            (1, 0, 0): 1.3374159122471887 + 0.45122975573070345j,
            (0, 1, 0): -1.986348462290602 + 0.2111265900241306j,
            (0, 0, 1): 0.534717517350342 - 0.7809799081406799j,
            (0, 0, 0): 4.417348663126724 + 0.5256127691168003j}, 3)
        table = _TermTable.compile([f])
        pmap = _Pattern(multiplicities=(3,), interior=0,
                        boundary_real=False).affine_map(HalfPlane.upper())
        theta0 = _start_thetas(pmap, (-5.0, 5.0, 5.0), (_SEARCH_STREAM, 1857297659, 0), [0])

        def run(stagnation):
            monkeypatch.setattr(symmetric, "_STAGNATION", stagnation)
            steps = []
            # one solve per Gauss-Newton step
            solve = symmetric._min_norm_steps
            monkeypatch.setattr(symmetric, "_min_norm_steps",
                                lambda J, F: steps.append(len(J)) or solve(J, F))
            ended = {}
            _gauss_newton(table, pmap, theta0,
                          lambda start, theta, score: ended.update(theta=theta, score=score))
            monkeypatch.setattr(symmetric, "_min_norm_steps", solve)
            return len(steps), ended

        steps, ended = run(_STAGNATION)
        assert steps <= 10
        assert ended["theta"][1] == 0.0 and abs(ended["theta"][0] + 0.5782) < 1e-3
        assert 0.1056 < ended["score"] < 0.1057
        creeping, _ = run(0.0)
        assert creeping == _NEWTON_ITERATIONS


def spy_finish(monkeypatch):
    """(start, value, whether it ended its group) of every start that
    halfdeg_optimize's batch finishes, in the order they finish."""
    ended = []
    descend = symmetric._descend

    def spy(objective, pmap, theta0, finish, ends):
        def record(start, theta, value):
            cut = finish(start, theta, value)
            ended.append((start, value, cut))
            return cut
        descend(objective, pmap, theta0, record, ends)

    monkeypatch.setattr(symmetric, "_descend", spy)
    return ended


class TestLockstepMatchesSequential:
    """The lockstep starts against the one-at-a-time loops they replaced."""

    def assert_same_search(self, polys, H=None, *, pattern, budget, seed):
        H = H if H is not None else HalfPlane.upper()
        got = variety_search(polys, H, pattern=pattern, budget=budget, seed=seed)
        want = reference_variety_search(polys, H, pattern=pattern, budget=budget, seed=seed)
        assert type(got) is type(want)
        # bit for bit: each start rounds in the batch as it did alone
        assert got == want
        return got

    def test_paper_quadruple(self):
        got = self.assert_same_search(paper_quadruple(4), pattern=4, budget=50, seed=0)
        assert got.starts_used == 201

    def test_no_e4_finds_nothing(self):
        got = self.assert_same_search(paper_quadruple(3), pattern=2, budget=10, seed=3)
        assert isinstance(got, NoneFound)
        assert got.starts == 3 * 10

    def test_two_value_planted_two_equations(self):
        rng = np.random.default_rng(21)
        polys = affine_equations(rng, (0.4 + 0.9j, 0.4 + 0.9j, -1.2, -1.2), 2)
        self.assert_same_search(polys, pattern=2, budget=12, seed=4)

    def test_underdetermined_two_value_pattern(self):
        # one complex equation; a real value of multiplicity two and one
        # interior value give three parameters against two residuals, so
        # each step is a minimum-norm solution
        rng = np.random.default_rng(22)
        polys = affine_equations(rng, (0.6, 0.6, -0.4 + 0.9j), 1)
        got = self.assert_same_search(polys, pattern=(1, 1), budget=12, seed=5)
        assert isinstance(got, FoundPoint)
        assert got.pattern == "boundary multiplicities (2,), interior 1"

    def test_rotated_shifted_halfplane(self):
        H = HalfPlane(theta=2.3, base=0.4 - 1.1j)
        rng = np.random.default_rng(23)
        x = [H.base + np.exp(1j * H.theta) * v for v in (0.8 + 0.5j, 0.8 + 0.5j, -1.3 + 0.2j)]
        polys = affine_equations(rng, x, 2)
        self.assert_same_search(polys, H, pattern=2, budget=12, seed=6)
        self.assert_same_search(polys, H, pattern=(1, 1), budget=12, seed=6)

    def test_first_hit_after_start_0(self):
        # the pattern that hits takes more than one start, so the batch of
        # starts 1..11 decides which start is first
        rng = np.random.default_rng(5)
        polys = affine_equations(rng, (0.7 + 0.3j, 0.7 + 0.3j, -1.1 + 0.8j, -1.1 + 0.8j), 2)
        got = self.assert_same_search(polys, pattern=2, budget=8, seed=0)
        assert isinstance(got, FoundPoint)
        assert (got.starts_used - 1) % 8 > 0

    @pytest.mark.parametrize("f, lam, mu, seed, diving", [
        # unbounded; the first start to pass the doubling test is start 1
        # of the full pattern and start 1 of the third restricted pattern
        (SymmetricPoly.from_terms(2, {(0, 0): -0.75 + 0.2633j, (1, 0): -0.0383 + 0.4187j,
                                      (2, 0): 0.0004 - 0.0709j}, 2),
         -0.9633, -0.2684, 7, ((0, 1), (2, 1))),
        # bounded: mu Im(c0 + c1 e1) with mu c1 > 0
        (SymmetricPoly.from_terms(3, {(0, 0, 0): 0.3 - 0.4j, (1, 0, 0): 1.2}, 1),
         0.0, 0.8, 2, (None, None)),
    ])
    def test_halfdeg_bit_for_bit(self, f, lam, mu, seed, diving):
        full, restricted = self.assert_same_halfdeg(f, lam, mu, budget=4, seed=seed)
        assert (full[3], restricted[3]) == diving

    def assert_same_halfdeg(self, f, lam, mu, *, budget, seed):
        got = halfdeg_optimize(f, lam, mu, budget=budget, seed=seed)
        full, restricted = reference_halfdeg(f, lam, mu, budget=budget, seed=seed)
        assert (got.inf_full, got.full_unbounded) == full[:2]
        assert (got.inf_restricted, got.restricted_unbounded) == restricted[:2]
        assert got.witness_full == tuple(complex(v) for v in full[2])
        assert got.witness_restricted == tuple(complex(v) for v in restricted[2])
        return full, restricted

    def test_halfdeg_dive_before_overflow(self):
        # -1e307 Re(e1^2): start 0 of the full pattern dives at once, and
        # start 3, which one start at a time is never run, overflows; the
        # same holds for starts 0 and 2 of the first restricted pattern
        f = SymmetricPoly.from_terms(2, {(2, 0): 1e307}, 2)
        H = HalfPlane.upper()
        with np.errstate(over="ignore", invalid="ignore"):
            for tag, pat, overflows in ((0, _Pattern((), 2, True), 3),
                                        (1, _km_patterns(2, 2, 2)[0], 2)):
                pmap = pat.affine_map(H)
                objective = halfdeg_objective(f, -1.0, 0.0)
                theta0 = _start_thetas(pmap, (-3.0, 3.0, 3.0), (_SEARCH_STREAM, 29, tag, 0),
                                       [0, overflows])
                assert reference_descend(objective, pmap, theta0[0])[0] < _UNBOUNDED_FLOOR
                with pytest.raises(NonConvergence):
                    reference_descend(objective, pmap, theta0[1])
            full, restricted = self.assert_same_halfdeg(f, -1.0, 0.0, budget=4, seed=29)
        assert (full[3], restricted[3]) == ((0, 0), (0, 0))

    def test_halfdeg_bit_for_bit_on_benchmark_jobs(self):
        # up to 8 patterns, of 1 to 8 parameters, share the batch at n = 3, 4
        jobs = [job for job in HALFDEG_JOBS if job["payload"]["f"]["n"] > 2]
        assert len(jobs) == 32
        for job in jobs:
            payload = job["payload"]
            self.assert_same_halfdeg(cli._parse_sympoly(payload["f"]), payload["lambda"],
                                     payload["mu"], budget=payload["budget"], seed=job["seed"])

    def test_halfdeg_full_dive_ends_no_restricted_start(self, monkeypatch):
        # -1e11 Re(e1^2): start 0 of the full pattern dives at once, and so
        # does start 0 of the second restricted pattern (start 6 of the
        # batch), which ends the restricted starts above it; start 0 of the
        # first restricted pattern (start 3) dives only after descent steps
        f = SymmetricPoly.from_terms(2, {(2, 0): 1e11}, 2)
        ended = spy_finish(monkeypatch)
        full, restricted = self.assert_same_halfdeg(f, -1.0, 0.0, budget=3, seed=1)
        assert (full[3], restricted[3]) == ((0, 0), (0, 0))
        assert [(start, cut) for start, _, cut in ended] == [(0, True), (6, True), (3, True)]

    def test_halfdeg_restricted_overflow_raises_after_a_full_dive(self, monkeypatch):
        # -1e307 Re(e1^2): start 2 of the full pattern dives; start 0 of the
        # first restricted pattern (start 3 of the batch) overflows before
        # any restricted start dives, and the full pass's dive hides nothing
        f = SymmetricPoly.from_terms(2, {(2, 0): 1e307}, 2)
        ended = spy_finish(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence):
                reference_halfdeg(f, -1.0, 0.0, budget=3, seed=47)
            with pytest.raises(NonConvergence):
                halfdeg_optimize(f, -1.0, 0.0, budget=3, seed=47)
        cuts = [(start, math.isfinite(value)) for start, value, cut in ended if cut]
        assert cuts == [(2, True), (3, False)]

    def test_halfdeg_overflow_raises(self):
        # start 0 overflows before any start dives
        f = SymmetricPoly.from_terms(2, {(2, 0): 1e308}, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence):
                reference_halfdeg(f, 1.0, 0.0, budget=2, seed=0)
            with pytest.raises(NonConvergence):
                halfdeg_optimize(f, 1.0, 0.0, budget=2, seed=0)
