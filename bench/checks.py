"""Output checks, one per command, against values recomputed by oracle.py.

A checker takes the job and the parsed output and returns a list of
problems; an empty list means the output is correct.  Tolerances are set
from the conventions the README states (slice membership at
1e-9 * (1 + |target|), boundary band at 1e-8 * (1 + max |root|)) or from
the first-order error of the quantity compared, never from observed
outputs.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from oracle import (
    HalfPlane,
    abs_elementary,
    abs_eval_terms,
    boundary_tol,
    distinct_values,
    elementary,
    eval_terms,
    monic_raw,
    rank,
    unpair,
    unpair_all,
)


def _terms(poly_doc) -> list:
    return [(t["exponents"], unpair(t["coefficient"])) for t in poly_doc["terms"]]


def partition_count(total: int, max_parts: int) -> int:
    """Partitions of total into at most max_parts positive parts."""
    table = [[0] * (max_parts + 1) for _ in range(total + 1)]
    for parts in range(max_parts + 1):
        table[0][parts] = 1
    for t in range(1, total + 1):
        for parts in range(1, max_parts + 1):
            table[t][parts] = table[t][parts - 1] + (table[t - parts][parts] if t >= parts else 0)
    return table[total][max_parts]


def match_roots(got, expected, mult_tol) -> list[str]:
    """Each computed root is assigned to the nearest distinct expected value.

    A value of multiplicity m must receive exactly m roots, each within
    mult_tol(m): an m-fold root is only determined to about the m-th root
    of the coefficient error.
    """
    got = np.asarray(got, dtype=complex)
    exp = np.asarray(expected, dtype=complex)
    if got.size != exp.size:
        return [f"{got.size} roots returned for degree {exp.size}"]
    values = distinct_values(exp, rel=1e-9)
    mult = [int(np.sum(np.abs(exp - v) <= 1e-9 * (1.0 + abs(v)))) for v in values]
    counts = [0] * len(values)
    problems = []
    for x in got:
        d = [abs(x - v) for v in values]
        j = int(np.argmin(d))
        counts[j] += 1
        if d[j] > mult_tol(mult[j]):
            problems.append(f"root {x:.6g} is {d[j]:.2e} from {values[j]:.6g} "
                            f"(multiplicity {mult[j]})")
    for v, m, c in zip(values, mult, counts):
        if c != m:
            problems.append(f"value {v:.6g} of multiplicity {m} matched {c} roots")
    return problems


# ---------------------------------------------------------------------------
# compress and coincide


def _in_closed(H: HalfPlane, xs) -> bool:
    btol = boundary_tol(xs)
    return all(H.distance(v) >= -btol for v in xs)


def augmented_rank(L: np.ndarray) -> tuple[int, bool]:
    """Rank of L with the z1 and z2 pins added, and whether the rows span a
    coordinate prefix e_1..e_r (the sharpened case of the bound)."""
    n = L.shape[1]
    rows = L
    for j in range(min(2, n)):
        unit = np.zeros((1, n), dtype=complex)
        unit[0, j] = 1.0
        if rank(np.vstack([rows, unit])) > rank(rows):
            rows = np.vstack([rows, unit])
    r = rank(rows)
    top = float(np.max(np.abs(rows)))
    prefix = r < n and float(np.max(np.abs(rows[:, r:]))) <= 1e-10 * (1.0 + top)
    return r, prefix


def check_report(report: dict, L: np.ndarray, a: np.ndarray, H: HalfPlane) -> list[str]:
    problems = []
    final_z = unpair_all(report["final_z"]["z"])
    if final_z.size != L.shape[1]:
        return [f"final_z has length {final_z.size}, slice has {L.shape[1]} columns"]
    resid = float(np.max(np.abs(L @ final_z - a)))
    tol = 1e-9 * (1.0 + float(np.max(np.abs(a))))
    if resid > tol:
        problems.append(f"slice residual {resid:.2e} above {tol:.2e}")

    clusters = report["final_profile"]["clusters"]
    centers = np.array([unpair(c["center"]) for c in clusters], dtype=complex)
    mults = np.array([int(c["multiplicity"]) for c in clusters])
    roots = np.repeat(centers, mults)
    if roots.size != final_z.size:
        return problems + [f"clusters hold {roots.size} roots for degree {final_z.size}"]
    err = np.abs(elementary(roots) - final_z)
    scale = 1.0 + abs_elementary(roots)
    worst = int(np.argmax(err / scale))
    if err[worst] > 1e-7 * scale[worst]:
        problems.append(f"re-expanded clusters miss final_z at e_{worst + 1} by {err[worst]:.2e}")

    btol = boundary_tol(centers)
    dist = np.array([H.distance(c) for c in centers])
    if np.any(dist < -btol):
        problems.append(f"cluster outside the half-plane by {-float(dist.min()):.2e}")
    interior = int(np.sum(mults[dist > btol]))
    boundary = len(distinct_values(centers[np.abs(dist) <= btol]))
    r, prefix = augmented_rank(L)
    bound_bd = r if prefix else 2 * r
    if interior > r or boundary > bound_bd:
        problems.append(f"measure ({interior}, {boundary}) over the bound ({r}, {bound_bd})")

    marks = [tuple(m) for m in report["checkpoints"]]
    if any(not later < earlier for earlier, later in zip(marks, marks[1:])):
        problems.append(f"checkpoints do not strictly decrease: {marks}")
    return problems


def check_compress(job, doc) -> list[str]:
    s = job.spec
    return check_report(doc, s["L"], s["a"], s["H"])


def check_coincide(job, doc) -> list[str]:
    s = job.spec
    L, terms, x = s["L"], s["terms"], s["x"]
    x_tilde = unpair_all(doc["x_tilde"])
    if x_tilde.size != x.size:
        return [f"x_tilde has {x_tilde.size} coordinates, x has {x.size}"]
    v0 = eval_terms(terms, L @ elementary(x))
    v1 = eval_terms(terms, L @ elementary(x_tilde))
    problems = []
    if abs(v1 - v0) > 1e-6 * (1.0 + abs(v0)):
        problems.append(f"form value moved by {abs(v1 - v0):.2e}")
    if not _in_closed(s["H"], x_tilde):
        problems.append("x_tilde leaves the closed half-plane")
    # x_tilde are the roots of the compressed polynomial
    final_z = unpair_all(doc["report"]["final_z"]["z"])
    err = np.abs(elementary(x_tilde) - final_z)
    scale = 1.0 + abs_elementary(x_tilde)
    if np.any(err > 1e-7 * scale):
        problems.append(f"x_tilde re-expands {float(np.max(err / scale)):.2e} away from final_z")
    return problems + check_report(doc["report"], L, L @ elementary(x), s["H"])


# ---------------------------------------------------------------------------
# variety-search and halfdeg-opt


def check_variety(job, doc) -> list[str]:
    s = job.spec
    polys, H, pattern, budget = s["polys"], s["H"], s["pattern"], s["budget"]
    n = polys[0]["n"]
    patterns = partition_count(n, pattern)
    problems = []
    if doc["found"]:
        x = unpair_all(doc["x"])
        e = elementary(x)
        for i, p in enumerate(polys):
            terms = _terms(p)
            val = abs(eval_terms(terms, e))
            if val > 1e-7 * (1.0 + abs_eval_terms(terms, e)):
                problems.append(f"poly {i} is {val:.2e} at the found point")
        if not _in_closed(H, x):
            problems.append("found point leaves the closed half-plane")
        if len(distinct_values(x)) > pattern:
            problems.append(f"{len(distinct_values(x))} distinct values, pattern allows {pattern}")
        if not 1 <= doc["starts_used"] <= patterns * budget:
            problems.append(f"starts_used {doc['starts_used']} outside 1..{patterns * budget}")
        if s.get("expect") is not None:
            problems += match_roots(x, s["expect"], lambda m: 1e-6)
        elif "expect" in s:
            problems.append("found a point where none exists")
    else:
        if s.get("expect") is not None:
            problems.append("the known point was not recovered")
        if doc["patterns_tried"] != patterns or doc["starts"] != patterns * budget:
            problems.append(f"NoneFound after {doc['patterns_tried']} patterns and "
                            f"{doc['starts']} starts, expected {patterns} and {patterns * budget}")
    return problems


def _objective(terms, lam: float, mu: float):
    def value(x) -> float:
        v = eval_terms(terms, elementary(x))
        return lam * v.real + mu * v.imag
    return value


def check_halfdeg(job, doc) -> list[str]:
    s = job.spec
    f = s["f"]
    obj = _objective(_terms(f), s["lam"], s["mu"])
    k = max(f["degree"] // 2, 2)
    upper = HalfPlane()
    problems = []
    for side in ("full", "restricted"):
        w = unpair_all(doc[f"witness_{side}"])
        if w.size != f["n"] or not _in_closed(upper, w):
            problems.append(f"{side} witness is not a point of the closed upper power set")
            continue
        if side == "restricted":
            btol = boundary_tol(w)
            dist = np.array([upper.distance(v) for v in w])
            if len(distinct_values(w[np.abs(dist) <= btol])) > k or np.sum(dist > btol) > k:
                problems.append(f"restricted witness has more than {k} + {k} distinct values")
        inf = doc[f"inf_{side}"]
        if doc[f"{side}_unbounded"]:
            # own doubling check: along the witness ray the objective must
            # keep falling at least geometrically
            vals = [obj(w * 2.0 ** j) for j in range(5)]
            if not (vals[0] < 0 and all(b <= 1.5 * a for a, b in zip(vals, vals[1:]))):
                problems.append(f"{side} unbounded verdict not confirmed along the ray: "
                                + ", ".join(f"{v:.4g}" for v in vals))
            if s["inf"] is not None:
                problems.append(f"{side} reported unbounded, closed-form infimum {s['inf']:.6g}")
            continue
        if abs(obj(w) - inf) > 1e-9 * (1.0 + abs(inf)):
            problems.append(f"{side} infimum {inf:.12g} but objective {obj(w):.12g} at witness")
        if s["inf"] is None:
            problems.append(f"{side} reported bounded ({inf:.6g}) on an unbounded instance")
        elif abs(inf - s["inf"]) > 1e-6 * (1.0 + abs(s["inf"])):
            problems.append(f"{side} infimum {inf:.12g}, closed form {s['inf']:.12g}")
    full, restricted = doc["inf_full"], doc["inf_restricted"]
    if full is not None and restricted is not None:
        if full > restricted + 1e-6 * (1.0 + abs(restricted)):
            problems.append(f"inf_full {full:.12g} above inf_restricted {restricted:.12g}")
        elif abs(full - restricted) > 1e-3 * (1.0 + abs(full)):
            problems.append(f"bounded infima differ: {full:.12g} vs {restricted:.12g}")
    elif restricted is None and full is not None:
        problems.append("restricted problem unbounded while the full one is bounded")
    return problems


# ---------------------------------------------------------------------------
# roots, stable-check and slice-sample


def _root_tol(expected):
    scale = 1.0 + float(np.max(np.abs(expected)))
    return lambda m: 1e-8 ** (1.0 / m) * scale


def check_roots(job, doc) -> list[str]:
    expected = job.spec["roots"]
    return match_roots(unpair_all(doc["roots"]), expected, _root_tol(expected))


def check_stable(job, doc) -> list[str]:
    expected, H = job.spec["roots"], job.spec["H"]
    dist = np.array([H.distance(r) for r in expected])
    btol = boundary_tol(expected)
    stable = bool(np.all(dist >= -btol))
    strict = bool(np.all(dist > btol))
    problems = []
    if doc["stable"] != stable or doc["strict"] != strict:
        problems.append(f"verdict stable={doc['stable']} strict={doc['strict']}, "
                        f"generating roots give stable={stable} strict={strict}")
    return problems + match_roots(unpair_all(doc["witness_roots"]), expected,
                                  _root_tol(expected))


def _pixels(job, text: str) -> list[tuple[float, float, int]]:
    if job.spec["format"] == "csv":
        return [(float(r["x"]), float(r["y"]), int(r["member"]))
                for r in csv.DictReader(io.StringIO(text))]
    doc = json.loads(text)
    return [(float(x), float(y), int(doc["members"][i][j]))
            for i, y in enumerate(doc["ys"]) for j, x in enumerate(doc["xs"])]


def check_sample(job, text: str) -> list[str]:
    """Pixels re-decided with numpy.roots; those whose nearest root lies in
    the boundary band 1e-6 * (1 + max |root|) are skipped as undecidable."""
    s = job.spec
    x0, x1, y0, y1 = s["window"]
    w, h = s["resolution"]
    xs, ys = np.linspace(x0, x1, w), np.linspace(y0, y1, h)
    pixels = _pixels(job, text)
    if len(pixels) != w * h:
        return [f"{len(pixels)} pixels, expected {w * h}"]
    problems = []
    for idx, (x, y, member) in enumerate(pixels):
        ex, ey = xs[idx % w], ys[idx // w]
        if abs(x - ex) > 1e-8 * (1.0 + abs(ex)) or abs(y - ey) > 1e-8 * (1.0 + abs(ey)):
            problems.append(f"pixel {idx} at ({x}, {y}), expected ({ex}, {ey})")
            continue
        z = np.zeros(s["n"], dtype=complex)
        for j, v in s["pinned"].items():
            z[j] = v
        z[s["free"]] = complex(ex, ey)
        roots = np.roots(monic_raw(z))
        d = min(s["H"].distance(r) for r in roots)
        band = 1e-6 * (1.0 + float(np.max(np.abs(roots))))
        if abs(d) <= band:
            continue
        if member != int(d > 0):
            problems.append(f"pixel ({ex:.6g}, {ey:.6g}) member={member}, "
                            f"nearest root at signed distance {d:.3e}")
    return problems


CHECKERS = {
    "compress": check_compress,
    "coincide": check_coincide,
    "variety-search": check_variety,
    "halfdeg-opt": check_halfdeg,
    "roots": check_roots,
    "stable-check": check_stable,
}


def check(job, text: str) -> list[str]:
    """Run the checker of the job's command on the CLI's stdout."""
    command = job.doc["command"]
    if command == "slice-sample":
        return check_sample(job, text)
    return CHECKERS[command](job, json.loads(text))
