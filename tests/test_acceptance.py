"""Acceptance gate: ten scripted checks, one verdict line each.

Every test prints `[criterion NN] name: PASS/FAIL (elapsed)` so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Failures
carry the collected reasons in the assertion message.  Runtime budgets
are part of the criteria and count as failures when exceeded.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from stable_slices import (
    HalfPlane,
    FoundPoint,
    NoneFound,
    Poly,
    Slice,
    SufficientForm,
    SymmetricPoly,
    compactness_bounds,
    compress,
    coordinate_profile,
    elementary_symmetrics,
    eval_symmetric,
    find_roots,
    gws_solve,
    halfdeg_optimize,
    halfplane_contains,
    hurwitz_embed,
    hurwitz_unembed,
    is_stable,
    is_weakly_hurwitz,
    variety_search,
    vieta_from_roots,
    young_gws,
)
from stable_slices.errors import NonConvergence, NoRootInRegion
from stable_slices.slices import membership_tolerance

EXAMPLE_ROOTS = (-20 + 1j, 1j, 20 + 1j, 20j)
EXAMPLE_E = (23j, -463 + 0j, -8461j, 8020 + 0j)


def _finish(num, name, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:2d}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def brute_elementary(x):
    x = list(x)
    return [sum(np.prod(c) for c in itertools.combinations(x, t))
            for t in range(1, len(x) + 1)]


def match_roots(got, expected, tol):
    got = list(got)
    expected = list(expected)
    if len(got) != len(expected):
        return False
    cost = np.array([[abs(g - e) for e in expected] for g in got])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


def sample_in(H, rng):
    v = complex(rng.normal(), abs(rng.normal()))
    return H.from_upper(v)


def test_criterion_01_slice_example_expansion():
    t0 = time.perf_counter()
    failures = []
    p = vieta_from_roots(EXAMPLE_ROOTS)
    z = np.asarray(p.z)
    # products and sums of Gaussian integers this small are exact in floats
    if z[1] != -463 + 0j:
        failures.append(f"e2 = {z[1]} != -463")
    if z[3] != 8020 + 0j:
        failures.append(f"e4 = {z[3]} != 8020")
    oracle = brute_elementary(EXAMPLE_ROOTS)
    if z[0] != oracle[0] or z[2] != oracle[2]:
        failures.append(f"odd symmetrics {z[0]}, {z[2]} disagree with "
                        f"direct expansion {oracle[0]}, {oracle[2]}")
    verdict = is_stable(p)
    prof = verdict.profile
    if not verdict.stable or (prof.interior_total, prof.boundary_distinct) != (4, 0):
        failures.append(f"verdict stable={verdict.stable} profile="
                        f"({prof.interior_total}, {prof.boundary_distinct})")
    _finish(1, "slice example expansion", t0, 1.0, failures)


def test_criterion_02_hurwitz_embedding_example():
    t0 = time.perf_counter()
    failures = []
    p = Poly.from_raw((1.0, 4.0, 6.0, 4.0))
    q = hurwitz_embed(p)
    if tuple(q.raw_coefficients()) != (1 + 0j, -4j, -6 + 0j, 4j):
        failures.append(f"embedding coefficients {q.raw_coefficients()}")
    back = hurwitz_unembed(q)
    if tuple(back.raw_coefficients()) != (1 + 0j, 4 + 0j, 6 + 0j, 4 + 0j):
        failures.append("unembed does not invert the embedding")
    vin = is_weakly_hurwitz(p)
    if not (vin.stable and vin.strict):
        failures.append("input not recognised as strictly Hurwitz")
    if not is_stable(q).stable:
        failures.append("embedded polynomial not upper-halfplane stable")
    _finish(2, "Hurwitz embedding example", t0, 1.0, failures)


def _random_compress_instance(rng):
    n = int(rng.integers(3, 11))
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
    coord = rng.random() < 0.5
    if coord:
        L = np.zeros((k, n), dtype=complex)
        for i in range(k):
            L[i, i] = 1.0
    else:
        L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    return p, Slice.from_arrays(L, L @ z), k, n, coord


def test_criterion_03_compression_bounds():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260826)
    for idx in range(100):
        p, S, k, n, coord = _random_compress_instance(rng)
        try:
            report = compress(p, S)
        except NonConvergence as exc:
            failures.append(f"instance {idx}: {exc}")
            continue
        r = int(np.linalg.matrix_rank(np.asarray(S.matrix)))
        fi = report.final_profile.interior_total
        fb = report.final_profile.boundary_distinct
        if fi > r + 2 or fb > 2 * (r + 2):
            failures.append(f"instance {idx}: profile ({fi}, {fb}) outside "
                            f"rank-{r} bounds")
        if coord and 2 <= k < n and (fi > k or fb > k):
            failures.append(f"instance {idx}: coordinate slice k={k} "
                            f"missed the sharp bound, got ({fi}, {fb})")
        mem_tol = membership_tolerance(S.target_vector)
        for s, step in enumerate(report.steps):
            if step.membership_residual > mem_tol:
                failures.append(f"instance {idx} step {s}: membership "
                                f"{step.membership_residual:.2e} > {mem_tol:.2e}")
                break
        measures = list(report.checkpoints)
        if not all(b < a for a, b in zip(measures, measures[1:])):
            failures.append(f"instance {idx}: checkpoints {measures} "
                            "not strictly decreasing")
        if report.measure != report.checkpoints[-1]:
            failures.append(f"instance {idx}: measure {report.measure} is not "
                            f"the last checkpoint {report.checkpoints[-1]}")
        if report.final_profile.outside_total:
            failures.append(f"instance {idx}: final profile has roots outside")
        step_measures = [st.measure_after for st in report.steps]
        if any(b > a for a, b in zip(step_measures, step_measures[1:])):
            failures.append(f"instance {idx}: step measures increased")
    _finish(3, "compression bounds on 100 instances", t0, 60.0, failures)


def test_criterion_04_degree_ten_compression():
    t0 = time.perf_counter()
    failures = []
    roots = [1 + 1j, -1 + 1j, 2, -2, 1, -1, -1, -1, -1, -1]
    p = vieta_from_roots(roots)
    z = np.asarray(p.z)
    pins = (z[0], z[1])
    if abs(pins[0] - (-4 + 2j)) > 1e-12 or abs(pins[1] - (-1 - 8j)) > 1e-12:
        failures.append(f"start point has unexpected pins {pins}")
    S = Slice.from_arrays([[1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                           [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]], list(pins))
    report = compress(p, S)
    fi = report.final_profile.interior_total
    fb = report.final_profile.boundary_distinct
    if fi > 2 or fb > 2:
        failures.append(f"final profile ({fi}, {fb}) exceeds (2, 2)")
    zf = np.asarray(report.final_z.z)
    drift = max(abs(zf[0] - pins[0]), abs(zf[1] - pins[1]))
    if drift > 1e-9:
        failures.append(f"pinned coordinates moved by {drift:.2e}")
    if report.final_profile.outside_total:
        failures.append("final point left the half-plane")
    _finish(4, "degree-10 compression instance", t0, 5.0, failures)


def test_criterion_05_compactness_bounds():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(55)
    for rep in range(10):
        n = int(rng.integers(3, 9))
        base = [complex(rng.normal(0, 2), abs(rng.normal(0, 1.5)))
                for _ in range(n)]
        a1 = sum(base)
        a2 = sum(base[i] * base[j] for i in range(n) for j in range(i + 1, n))
        b = compactness_bounds(a1, a2, n)
        if b is None:
            failures.append(f"family {rep}: nonempty slice reported empty")
            continue
        scale = 1.0 + abs(a1) + abs(a2)
        slack = 1e-6 * scale
        members = 0
        attempts = 0
        while members < 100 and attempts < 4000:
            attempts += 1
            free = [complex(rng.normal(0, 2), abs(rng.normal(0, 1.5)))
                    for _ in range(n - 2)]
            s = sum(free)
            q = sum(free[i] * free[j]
                    for i in range(n - 2) for j in range(i + 1, n - 2))
            pair_sum = a1 - s
            pair_prod = a2 - q - s * pair_sum
            disc = np.sqrt(complex(pair_sum * pair_sum - 4 * pair_prod))
            r1 = (pair_sum + disc) / 2
            r2 = (pair_sum - disc) / 2
            if r1.imag < 0 or r2.imag < 0:
                continue
            members += 1
            roots = free + [r1, r2]
            for r in roots:
                if not (b.im_lo - slack <= r.imag <= b.im_hi + slack):
                    failures.append(f"family {rep}: Im {r.imag} outside "
                                    f"[{b.im_lo}, {b.im_hi}]")
            re_sq = sum(r.real ** 2 for r in roots)
            if re_sq > b.re_sq_bound * (1 + 1e-6) + slack:
                failures.append(f"family {rep}: sum Re^2 {re_sq:.3f} > "
                                f"{b.re_sq_bound:.3f}")
        if members < 100:
            failures.append(f"family {rep}: only {members} members sampled")
    # pre-test agreement with the quadratic root formula
    agree_checked = 0
    while agree_checked < 50:
        a1 = complex(rng.normal(), rng.normal())
        a2 = complex(rng.normal(), rng.normal())
        disc = np.sqrt(complex(a1 * a1 - 4 * a2))
        r1, r2 = (a1 + disc) / 2, (a1 - disc) / 2
        margin = min(r1.imag, r2.imag)
        if abs(margin) < 1e-6:
            continue
        agree_checked += 1
        empty_ref = margin < 0
        empty_got = compactness_bounds(a1, a2, 2) is None
        if empty_ref != empty_got:
            failures.append(f"pre-test disagrees at a=({a1}, {a2}): "
                            f"formula says empty={empty_ref}")
    _finish(5, "compactness bounds and empty pre-test", t0, 30.0, failures)


def test_criterion_06_gws_solver():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)
    no_root = 0
    for idx in range(500):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, n + 1))
        coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        terms = {}
        if coeffs[0]:
            terms[(0,) * d] = coeffs[0]
        for i in range(1, d + 1):
            terms[tuple(1 if j == i - 1 else 0 for j in range(d))] = coeffs[i]
        f = SymmetricPoly.from_terms(n, terms, d)
        H = HalfPlane(theta=float(rng.uniform(0, 2 * np.pi)),
                      base=complex(rng.normal(), rng.normal()))
        x = tuple(sample_in(H, rng) for _ in range(n))
        try:
            y = gws_solve(f, x, H)
        except NoRootInRegion:
            no_root += 1
            continue
        if halfplane_contains(H, y) == "outside":
            failures.append(f"instance {idx}: representative left the region")
            continue
        fx = eval_symmetric(f, x)
        fy = eval_symmetric(f, (y,) * n)
        if abs(fy - fx) > 1e-8 * (1.0 + abs(fx)):
            failures.append(f"instance {idx}: residual {abs(fy - fx):.2e}")
    if no_root:
        failures.append(f"{no_root} NoRootInRegion failures")
    _finish(6, "GWS solver on 500 instances", t0, 30.0, failures)


def test_criterion_07_coincidence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(707)
    from stable_slices import coincide
    for idx in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 3))
        L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)) * (
            1.0 if rng.random() < 0.5 else 0.0)
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
        prof = coordinate_profile(xt)
        if not prof.within(2 * (k + 2), k + 2):
            failures.append(f"instance {idx}: profile ({prof.boundary_distinct}, "
                            f"{prof.interior_count}) outside H_({2*(k+2)},{k+2})")
        v0 = F.eval_at_e(np.asarray(elementary_symmetrics(x)))
        v1 = F.eval_at_e(np.asarray(elementary_symmetrics(xt)))
        if abs(v1 - v0) > 1e-6 * (1.0 + abs(v0)):
            failures.append(f"instance {idx}: value drift {abs(v1 - v0):.2e}")
    _finish(7, "coincidence on 100 sufficient forms", t0, 120.0, failures)


def test_criterion_08_degree_principle_search():
    t0 = time.perf_counter()
    failures = []
    # all four symmetric values pinned: the slice determines the quadruple
    # up to permutation, so a budget-4 search must recover it
    polys4 = []
    for i in range(1, 5):
        key = tuple(1 if j == i - 1 else 0 for j in range(i))
        polys4.append(SymmetricPoly.from_terms(
            4, {key: 1.0, (0,) * i: -EXAMPLE_E[i - 1]}, i))
    found = variety_search(polys4, pattern=4, budget=200, seed=0)
    if not isinstance(found, FoundPoint):
        failures.append("budget-4 search did not find the known point")
    else:
        if max(found.residuals) > 1e-8:
            failures.append(f"budget-4 residuals {max(found.residuals):.2e}")
        if not match_roots(found.x, EXAMPLE_ROOTS, 1e-6):
            failures.append(f"budget-4 point {found.x} is not the known "
                            "quadruple")
    # dropping the e4 pin and allowing only 3 distinct values mirrors the
    # printed emptiness claim; a numeric miss is reported, not certified
    polys3 = polys4[:3]
    none = variety_search(polys3, pattern=3, budget=1000, seed=0)
    if not isinstance(none, NoneFound):
        failures.append("budget-3 search unexpectedly found a point")
    else:
        per_pattern = none.starts / max(none.patterns_tried, 1)
        if per_pattern < 1000:
            failures.append(f"only {per_pattern:.0f} starts per pattern")
        if "certificate" not in none.note and "not" not in none.note:
            failures.append("NoneFound note lacks the non-certificate wording")
    _finish(8, "degree-principle search", t0, 120.0, failures)


def test_criterion_09_half_degree_consistency():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(909)
    for idx in range(50):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = SymmetricPoly.from_terms(4, {(0, 0): coeffs[0],
                                         (1, 0): coeffs[1],
                                         (0, 1): coeffs[2],
                                         (2, 0): coeffs[3]}, 2)
        phi = rng.uniform(0, 2 * np.pi)
        res = halfdeg_optimize(f, float(np.cos(phi)), float(np.sin(phi)),
                               budget=8, seed=idx)
        if res.full_unbounded != res.restricted_unbounded:
            failures.append(f"instance {idx}: unboundedness verdicts differ")
            continue
        if res.full_unbounded:
            continue
        gap = abs(res.inf_full - res.inf_restricted)
        if gap > 1e-3 * (1.0 + abs(res.inf_full)):
            failures.append(f"instance {idx}: infima differ by {gap:.2e}")
    f_sq = SymmetricPoly.from_terms(4, {(2, 0): 1.0}, 2)
    res = halfdeg_optimize(f_sq, 1.0, 0.0, budget=8, seed=0)
    if not (res.full_unbounded and res.restricted_unbounded):
        failures.append("diagonal-ray unboundedness missed on e1^2")
    _finish(9, "half-degree consistency", t0, 120.0, failures)


def test_criterion_10_young_blocks():
    t0 = time.perf_counter()
    failures = []
    y = young_gws((2, 2), {(1, 1, 0, 0): 1.0, (0, 0, 1, 1): 1.0},
                  (1j, 4j, 2j, 8j))
    if abs(y[0] - 2j) > 1e-9 or abs(y[1] - 4j) > 1e-9:
        failures.append(f"block example gave {y}")
    value = y[0] ** 2 + y[1] ** 2
    if abs(value - (-20)) > 1e-9:
        failures.append(f"block example value {value}")
    rng = np.random.default_rng(1010)
    for idx in range(100):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        n = sum(sizes)
        offsets = np.cumsum([0] + sizes)
        terms = {}
        for degs in itertools.product(*(range(s + 1) for s in sizes)):
            if rng.random() > 0.5:
                continue
            c = complex(rng.normal(), rng.normal())
            pieces = [itertools.combinations(range(offsets[b], offsets[b + 1]),
                                             degs[b])
                      for b in range(len(sizes))]
            for combo in itertools.product(*pieces):
                key = [0] * n
                for part in combo:
                    for i in part:
                        key[i] = 1
                key = tuple(key)
                terms[key] = terms.get(key, 0) + c
        if not terms:
            terms[(0,) * n] = 1.0
        x = tuple(complex(rng.normal(), abs(rng.normal()) + 1e-2)
                  for _ in range(n))
        ys = young_gws(tuple(sizes), terms, x)

        def direct(pt):
            return sum(c * np.prod([pt[i] for i in range(n) if key[i]])
                       for key, c in terms.items())

        fx = direct(x)
        rep = []
        for b, s in enumerate(sizes):
            rep.extend([ys[b]] * s)
        fy = direct(rep)
        if abs(fy - fx) > 1e-8 * (1.0 + abs(fx)):
            failures.append(f"instance {idx}: drift {abs(fy - fx):.2e}")
        if any(v.imag < -1e-9 for v in ys):
            failures.append(f"instance {idx}: representative outside")
    _finish(10, "Young-block recursion", t0, 30.0, failures)
