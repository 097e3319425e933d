#!/usr/bin/env python3
"""Trace the compression of a degree-10 point down to few distinct roots.

Prints the step table (mode, event, step size, measure, membership
residual) and the before/after root clusters for the instance whose first
two coefficients are pinned to (-4+2i, -1-8i).
"""

import argparse
import sys

import numpy as np

from stable_slices import HalfPlane, Slice, cluster_roots, compress, find_roots, vieta_from_roots

DEFAULT_ROOTS = [1 + 1j, -1 + 1j, 2, -2, 1, -1, -1, -1, -1, -1]


def describe_clusters(p):
    prof = cluster_roots(find_roots(p), HalfPlane.upper())
    parts = []
    for cl in sorted(prof.clusters, key=lambda c: (c.center.real, c.center.imag)):
        parts.append(f"{cl.center:.9g} x{cl.multiplicity} [{cl.side}]")
    return ", ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pins", type=int, default=2,
                    help="number of leading coefficients to pin (1..3)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the interior descent functional")
    args = ap.parse_args()

    p = vieta_from_roots(DEFAULT_ROOTS)
    z = np.asarray(p.z)
    n = p.degree
    k = max(1, min(3, args.pins))
    L = np.zeros((k, n))
    for i in range(k):
        L[i, i] = 1.0
    S = Slice.from_arrays(L, z[:k])
    print(f"start: degree {n}, pins {[complex(v) for v in z[:k]]}")
    print(f"  roots: {describe_clusters(p)}")

    report = compress(p, S)
    print(f"rank {report.rank} (augmented), sharpened={report.sharpened}, "
          f"targets {report.targets}")
    print(f"{'step':>4}  {'mode':<10} {'event':<22} {'size':>12} "
          f"{'measure':>8}  {'membership':>11} stable")
    for i, st in enumerate(report.steps):
        print(f"{i:>4}  {st.mode:<10} {st.event:<22} {st.step_size:>12.5g} "
              f"{str(st.measure_after):>8}  {st.membership_residual:>11.3e} "
              f"{st.stable}")
    print(f"checkpoints: {report.checkpoints}")
    print(f"final measure {report.measure} against targets {report.targets}")
    print(f"  roots: {describe_clusters(report.final_z)}")
    zf = np.asarray(report.final_z.z)
    print(f"  pin drift: {float(np.max(np.abs(zf[:k] - z[:k]))):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
