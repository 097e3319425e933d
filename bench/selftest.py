#!/usr/bin/env python3
"""Check the checkers: clean outputs must pass, corrupted ones must not.

    python3 bench/selftest.py

Run from the root of a source checkout.  For every command the workloads
use, one job's real output is checked as is, then after each corruption
below; every corrupted output has to be rejected.  Exit status 1 if a
clean output fails or a corrupted one passes.
"""

import copy
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before NumPy loads)
from checks import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _moved(pair, by=0.05):
    return [pair[0] + by * (1.0 + abs(pair[0])), pair[1]]


def _first_member(doc):
    return next(i for i, row in enumerate(doc["members"]) for v in row if v)


def corruptions(command, doc):
    """(label, corrupted copy) pairs for one parsed output."""
    out = []

    def variant(label, edit):
        c = copy.deepcopy(doc)
        edit(c)
        out.append((label, c))

    if command == "roots":
        variant("moved root", lambda d: d["roots"].__setitem__(0, _moved(d["roots"][0])))
    elif command == "stable-check":
        variant("flipped verdict", lambda d: d.__setitem__("stable", not d["stable"]))
        variant("moved witness root",
                lambda d: d["witness_roots"].__setitem__(0, _moved(d["witness_roots"][0])))
    elif command in ("compress", "coincide"):
        rep = (lambda d: d) if command == "compress" else (lambda d: d["report"])
        variant("perturbed coefficient",
                lambda d: rep(d)["final_z"]["z"].__setitem__(0, _moved(rep(d)["final_z"]["z"][0], 1e-3)))
        variant("moved cluster", lambda d: rep(d)["final_profile"]["clusters"][0].__setitem__(
            "center", _moved(rep(d)["final_profile"]["clusters"][0]["center"])))
        variant("repeated checkpoint",
                lambda d: rep(d)["checkpoints"].append(rep(d)["checkpoints"][-1]))
        if command == "coincide":
            variant("moved coordinate",
                    lambda d: d["x_tilde"].__setitem__(0, _moved(d["x_tilde"][0])))
    elif command == "variety-search" and doc["found"]:
        variant("moved root", lambda d: d["x"].__setitem__(0, _moved(d["x"][0])))
    elif command == "variety-search":
        variant("short search", lambda d: d.__setitem__("starts", d["starts"] - 1))
    elif command == "halfdeg-opt" and doc["inf_full"] is not None:
        variant("perturbed infimum",
                lambda d: d.__setitem__("inf_full", d["inf_full"] + 1e-3 * (1 + abs(d["inf_full"]))))
        variant("flipped verdict", lambda d: d.update(inf_full=None, full_unbounded=True))
    elif command == "halfdeg-opt":
        variant("flipped verdict", lambda d: d.update(inf_full=-1e12, full_unbounded=False))
        variant("witness outside", lambda d: d.__setitem__(
            "witness_full", [[v[0], -abs(v[1]) - 1.0] for v in d["witness_full"]]))
    elif command == "slice-sample":
        def flip(d):
            i = _first_member(d)
            j = d["members"][i].index(1)
            d["members"][i][j] = 0
        variant("flipped pixel", flip)
    return out


def main() -> int:
    import stable_slices.cli as cli

    picks = {}
    for name, make in WORKLOADS.items():
        for job in make(0):
            key = re.split(r"-n?\d", job.name)[0]
            if job.doc["command"] == "slice-sample":
                job.doc["payload"]["format"] = "json"
                job.spec["format"] = "json"
            if key not in picks and not job.known_fault:
                picks[key] = job
    bad = 0
    for key, job in sorted(picks.items()):
        code, text, err, _ = run.run_job(cli.main, job)
        if code != 0:
            print(f"{key}: job {job.name} failed with exit {code}: {err.strip()}")
            bad += 1
            continue
        clean = check(job, text)
        print(f"{key}: clean output of {job.name}: {'passes' if not clean else clean}")
        bad += bool(clean)
        for label, doc in corruptions(job.doc["command"], json.loads(text)):
            problems = check(job, json.dumps(doc))
            verdict = f"rejected ({problems[0]})" if problems else "ACCEPTED"
            print(f"  {label}: {verdict}")
            bad += not problems
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
