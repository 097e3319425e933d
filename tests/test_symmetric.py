"""Elementary-symmetric evaluation, one-point reductions and variety search."""

import itertools

import numpy as np
import pytest

from stable_slices import (
    FoundPoint,
    HalfPlane,
    NoneFound,
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
    young_blocks_from_x_expansion,
    young_gws,
)
from stable_slices.symmetric import _budget_patterns, _km_patterns, _TermTable


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
    def test_linear_averages(self):
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0}, 1)
        assert gws_solve(f, (1j, 2j, 3j)) == pytest.approx(2j)

    def test_quadratic_picks_upper_root(self):
        # e2(2i, 8i) = -16, so Y^2 = -16 and only 4i lies in the region
        f = SymmetricPoly.from_terms(2, {(0, 1): 1.0}, 2)
        assert gws_solve(f, (2j, 8j)) == pytest.approx(4j)

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
        y = young_gws((2, 2), {(1, 1, 0, 0): 1.0, (0, 0, 1, 1): 1.0},
                      (1j, 4j, 2j, 8j))
        assert np.allclose(y, (2j, 4j))
        # substitution check: f(2i,2i,4i,4i) = (2i)^2 + (4i)^2 = -20
        assert (y[0] ** 2 + y[1] ** 2) == pytest.approx(-20.0)

    def test_single_block_matches_gws(self):
        f = SymmetricPoly.from_terms(3, {(1, 0, 0): 1.0}, 1)
        y = young_gws((3,), {(1, 0, 0): 1.0, (0, 1, 0): 1.0,
                             (0, 0, 1): 1.0}, (1j, 2j, 3j))
        assert len(y) == 1
        assert y[0] == pytest.approx(gws_solve(f, (1j, 2j, 3j)))

    def test_block_not_in_support(self):
        # f ignores the second block, so its representative is just the
        # block's first coordinate
        y = young_gws((2, 2), {(1, 1, 0, 0): 1.0}, (1j, 4j, 2j, 8j))
        assert y[0] == pytest.approx(2j)
        assert y[1] == pytest.approx(2j)

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
            y = young_gws((b1, b2), terms, x)

            def direct(pt):
                return sum(c * np.prod([pt[i] for i in range(n) if key[i]])
                           for key, c in terms.items())

            fx = direct(x)
            fy = direct((y[0],) * b1 + (y[1],) * b2)
            assert abs(fy - fx) <= 1e-8 * (1.0 + abs(fx))
            assert y[0].imag >= -1e-9 and y[1].imag >= -1e-9


class TestVarietySearch:
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
        assert np.allclose(sorted(r.x, key=lambda v: (v.real, v.imag)),
                           [-20 + 1j, 1j, 20j, 20 + 1j], atol=1e-6)

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
