#!/usr/bin/env python3
"""Randomized compression stress run with a summary table.

Draws random stable polynomials and random slices (coordinate or dense,
rank <= 3), one instance in five in a random rotated and shifted
half-plane, compresses each, and reports numerical failures, bound
violations and worst residuals.  Residual and measure are checked in the
instance's own coordinates and half-plane.  Exit status 1 if any run
raises NonConvergence or breaks an invariant.

    python3 scripts/compression_stress.py --count 200 --seed 7
    python3 scripts/compression_stress.py --n-lo 3 --n-hi 8 --count 300 --seed 2
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from stable_slices import HalfPlane, NonConvergence, Slice, compress, vieta_from_roots
from stable_slices.slices import membership_tolerance


@dataclasses.dataclass
class StressConfig:
    count: int = 100
    seed: int = 20260826
    n_lo: int = 3
    n_hi: int = 10
    max_rank: int = 3
    real_root_rate: float = 0.35


def draw_instance(rng, cfg, rotated):
    H = HalfPlane.upper()
    if rotated:
        H = HalfPlane(rng.uniform(0.3, 2 * np.pi - 0.3),
                      complex(rng.normal(0, 0.5), rng.normal(0, 0.5)))
    n = int(rng.integers(cfg.n_lo, cfg.n_hi + 1))
    k = int(rng.integers(1, min(cfg.max_rank, n - 1) + 1))
    roots = []
    for _ in range(n):
        if rng.random() < cfg.real_root_rate:
            roots.append(complex(rng.normal(0, 1.5), 0.0))
        else:
            roots.append(complex(rng.normal(0, 1.5),
                                 abs(rng.normal(0, 1.0)) + 1e-3))
    p = vieta_from_roots([H.from_upper(x) for x in roots])
    z = np.asarray(p.z)
    if rng.random() < 0.5:
        rows = rng.choice(n, size=k, replace=False)
        L = np.zeros((k, n), dtype=complex)
        for i, r in enumerate(rows):
            L[i, r] = 1.0
    else:
        L = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    return p, Slice.from_arrays(L, L @ z), H


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=StressConfig.count)
    ap.add_argument("--seed", type=int, default=StressConfig.seed)
    ap.add_argument("--n-lo", type=int, default=StressConfig.n_lo,
                    help="lowest degree drawn (at least 2)")
    ap.add_argument("--n-hi", type=int, default=StressConfig.n_hi,
                    help="highest degree drawn")
    args = ap.parse_args()
    if not 2 <= args.n_lo <= args.n_hi:
        ap.error("need 2 <= --n-lo <= --n-hi")
    cfg = StressConfig(count=args.count, seed=args.seed, n_lo=args.n_lo, n_hi=args.n_hi)

    rng = np.random.default_rng(cfg.seed)
    t0 = time.time()
    failures = violations = rotated = 0
    worst_membership = 0.0
    worst_steps = 0
    for idx in range(cfg.count):
        p, S, H = draw_instance(rng, cfg, idx % 5 == 0)
        rotated += idx % 5 == 0
        try:
            report = compress(p, S, H)
        except NonConvergence as exc:
            failures += 1
            print(f"  numerical failure at instance {idx}: {exc}")
            continue
        fi, fb = report.measure
        ti, tb = report.targets
        outside = report.final_profile.outside_total
        resid = S.residual(np.asarray(report.final_z.z))
        tol = membership_tolerance(S.target_vector)
        ok = fi <= ti and fb <= tb and not outside and resid <= tol
        if not ok:
            violations += 1
            print(f"  violation at instance {idx}: measure ({fi},{fb}) "
                  f"targets ({ti},{tb}) {outside} outside, residual {resid:.2e}")
        worst_membership = max(worst_membership, resid / tol)
        worst_steps = max(worst_steps, len(report.steps))
    dt = time.time() - t0
    print(f"{cfg.count} instances of degree {cfg.n_lo}-{cfg.n_hi} "
          f"({rotated} in rotated half-planes), seed {cfg.seed}: "
          f"{cfg.count - failures} finished, {failures} numerical failures, "
          f"{violations} violations in {dt:.1f}s")
    print(f"worst membership residual {worst_membership:.2e} of tolerance; "
          f"longest run {worst_steps} steps")
    return 1 if (violations or failures) else 0


if __name__ == "__main__":
    sys.exit(main())
