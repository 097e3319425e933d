#!/usr/bin/env python3
"""Benchmark of the stable-slices command line, driven in-process.

    python3 bench/run.py --workload compress --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each workload is a fixed job list made from --seed (see
workloads.py).  A run repeats whole rounds of that list through
``stable_slices.cli.main`` until --seconds have passed, checks every
output of the first round against checks.py and requires every later
round to reproduce it byte for byte.  Job times are scaled to a reference
machine speed read from a short probe run between jobs (see ``probe``).  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of traced rounds, which alternate with untraced rounds
of the same jobs so the tracing overhead can be stated.
"""

import os

# One BLAS thread in this process; the program's own thread pool stays at
# its default.  Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STABLE_SLICE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from speed import PROBE_REF_S, probe, scale  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
SETUP_REPEATS = 9
# the import is timed first; the probe, which needs NumPy, runs after it
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import stable_slices.cli\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from speed import settled_probe\n"
    "print(t, settled_probe())\n"
)


def run_job(main, job):
    """One CLI call with the job on stdin; returns (exit code, stdout, stderr, seconds)."""
    text = json.dumps(job.doc)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = main([])
            dt = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), dt


class Round:
    """Outcome of one pass over the job list."""

    def __init__(self):
        self.times: list[float] = []
        # times at the reference speed of speed.py
        self.scaled: list[float] = []
        self.outputs: list[str | None] = []
        self.failed = 0


def run_into(rnd: Round, main, job, log) -> None:
    code, out, err, dt = run_job(main, job)
    rnd.times.append(dt)
    if code != 0:
        rnd.failed += 1
        rnd.outputs.append(None)
        if not job.known_fault or code not in (2, 3):
            log(f"job {job.name} failed with exit {code}: {err.strip()[-200:]}")
    else:
        rnd.outputs.append(out)


def run_round(main, jobs, log) -> Round:
    rnd = Round()
    probes = [probe()]
    for job in jobs:
        run_into(rnd, main, job, log)
        probes.append(probe())
    rnd.scaled = scale(rnd.times, probes)
    return rnd


def verify(jobs, first: Round, later: list[Round], log) -> bool:
    ok = True
    for job, out in zip(jobs, first.outputs):
        if out is None:
            continue
        try:
            problems = check(job, out)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problems = [f"output not readable: {type(exc).__name__}: {exc}"]
        for p in problems[:3]:
            log(f"CHECK FAILED {job.name}: {p}")
        ok = ok and not problems
    for rnd in later:
        for job, a, b in zip(jobs, first.outputs, rnd.outputs):
            if a != b:
                log(f"CHECK FAILED {job.name}: output differs between identical rounds")
                ok = False
    return ok


def setup_seconds() -> float:
    """Median import time of stable_slices.cli in fresh interpreters, each
    at the reference speed of the probe run right after it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, probe_s = map(float, proc.stdout.split()[-2:])
        samples.append(seconds * PROBE_REF_S / probe_s)
    return statistics.median(samples)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(rounds: list[Round]) -> list[float]:
    """Each job's fastest unscaled time over the rounds, for comparing plain
    and traced calls that ran side by side."""
    return [min(ts) for ts in zip(*(r.times for r in rounds))]


def measure_rounds(main, jobs, seconds, log) -> list[Round]:
    """At least MIN_ROUNDS whole rounds, and more while the next one,
    taking as long as the last, still ends within the time."""
    warmup(main, jobs)
    rounds = []
    t0 = last = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or 2 * time.perf_counter() - last - t0 <= seconds:
        last = time.perf_counter()
        rounds.append(run_round(main, jobs, log))
    return rounds


def end_to_end(main, jobs, seconds, log):
    rounds = measure_rounds(main, jobs, seconds, log)
    # each job's median scaled time over the rounds
    times = [statistics.median(ts) for ts in zip(*(r.scaled for r in rounds))]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = verify(jobs, rounds[0], rounds[1:], log)
    metrics = {
        "jobs_per_s": metric(len(times) / sum(times), "1/s"),
        "job_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "job_p90_ms": metric(1e3 * quantile(times, 0.90), "ms"),
        "setup_s": metric(setup_seconds(), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    log(f"{len(rounds)} rounds of {len(jobs)} jobs")
    job_ms = [[job.name, 1e3 * t] for job, t in zip(jobs, times)]
    return correct, rounds, metrics, job_ms


def warmup(main, jobs) -> None:
    """First call of each command, untimed: lazy imports and validator set-up."""
    seen = set()
    for job in jobs:
        if job.doc["command"] not in seen:
            seen.add(job.doc["command"])
            run_job(main, job)


def output_counts(jobs, rnd: Round) -> dict:
    """Work counts the jobs report in their own outputs."""
    counts = {"steps": 0, "starts": 0, "pixels": 0}
    for job, out in zip(jobs, rnd.outputs):
        if out is None:
            continue
        command = job.doc["command"]
        if command == "compress":
            counts["steps"] += len(json.loads(out)["steps"])
        elif command == "coincide":
            counts["steps"] += len(json.loads(out)["report"]["steps"])
        elif command == "variety-search":
            doc = json.loads(out)
            counts["starts"] += doc["starts_used"] if doc["found"] else doc["starts"]
        elif command == "slice-sample":
            w, h = job.doc["payload"]["resolution"]
            counts["pixels"] += w * h
    return counts


def per_layer(main, jobs, seconds, log):
    """Each job runs twice in a row, once plain and once traced, in turns
    which goes first; the pairs share the machine's state of the moment, so
    their time difference is the tracing overhead.  Span times are scaled by
    the probes taken just before and after the traced call."""
    warmup(main, jobs)
    tracer = Tracer()
    traced_main = tracer.span("cli.main", main)
    plain, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        p, t = Round(), Round()
        for i, job in enumerate(jobs):
            if (i + len(traced)) % 2:
                run_into(p, main, job, log)
            before = probe()
            tracer.install()
            try:
                run_into(t, traced_main, job, log)
            finally:
                tracer.uninstall()
            tracer.commit(2 * PROBE_REF_S / (before + probe()))
            if (i + len(traced)) % 2 == 0:
                run_into(p, main, job, log)
        plain.append(p)
        traced.append(t)
    correct = verify(jobs, plain[0], plain[1:] + traced, log)
    k = len(traced)
    counts = output_counts(jobs, plain[0])
    per_job = k * len(jobs)

    def ms(name):
        return metric(tracer.ms(name) / k, "ms")

    def calls(name):
        return metric(tracer.calls(name) / k, "count")

    fr = "polynomials.find_roots"
    mss_calls = tracer.calls("slices.max_stable_step")
    vs_ms = tracer.ms("symmetric.variety_search") / k
    sample_ms = tracer.ms("slices.sample_slice_section") / k
    t_plain = sum(fastest(plain))
    t_traced = sum(fastest(traced))
    cli_self = tracer.self_ms("cli.main")
    metrics = {
        "cli.validate_ms_per_job": metric(tracer.ms("cli.validate") / per_job, "ms"),
        "cli.overhead_ms_per_job": metric(cli_self / per_job, "ms"),
        f"{fr}.cold.calls": calls(f"{fr}.cold"),
        f"{fr}.cold.ms": ms(f"{fr}.cold"),
        f"{fr}.cold.failed": metric(tracer.failed(f"{fr}.cold") / k, "count"),
        f"{fr}.raw.calls": calls(f"{fr}.raw"),
        f"{fr}.raw.ms": ms(f"{fr}.raw"),
        f"{fr}.warm.calls": calls(f"{fr}.warm"),
        f"{fr}.warm.ms": ms(f"{fr}.warm"),
        f"{fr}.warm.failed": metric(tracer.failed(f"{fr}.warm") / k, "count"),
        "slices.max_stable_step.calls": calls("slices.max_stable_step"),
        "slices.max_stable_step.self_ms": metric(
            tracer.self_ms("slices.max_stable_step") / k, "ms"),
        "slices.max_stable_step.probes_per_call": metric(
            tracer.counts["slices.max_stable_step.probes"] / mss_calls if mss_calls else 0.0,
            "count"),
        "slices.sample_slice_section.ms_per_pixel": metric(
            sample_ms / counts["pixels"] if counts["pixels"] else 0.0, "ms"),
        "polynomials.vieta_from_roots.calls": calls("polynomials.vieta_from_roots"),
        "polynomials.vieta_from_roots.ms": ms("polynomials.vieta_from_roots"),
        "polynomials.cluster_roots.calls": calls("polynomials.cluster_roots"),
        "polynomials.cluster_roots.ms": ms("polynomials.cluster_roots"),
        "stability.is_stable.calls": calls("stability.is_stable"),
        "stability.is_stable.ms": ms("stability.is_stable"),
        "regions.upper_chart.calls": calls("regions.upper_chart"),
        "regions.upper_chart.ms": ms("regions.upper_chart"),
        "slices.compress.calls": calls("slices.compress"),
        "slices.compress.ms": ms("slices.compress"),
        "slices.compress.steps": metric(counts["steps"], "count"),
        "slices.kernel_direction.calls": calls("slices.kernel_direction"),
        "slices.kernel_direction.ms": ms("slices.kernel_direction"),
        "slices.boundary_walk.self_ms": metric(tracer.self_ms("slices.boundary_walk") / k, "ms"),
        "slices.fiber_correct.calls": calls("slices.fiber_correct"),
        "slices.fiber_correct.ms": ms("slices.fiber_correct"),
        "slices.vieta_from_roots.calls": calls("slices.vieta_from_roots"),
        "slices.vieta_from_roots.ms": ms("slices.vieta_from_roots"),
        "symmetric.variety_search.ms": metric(vs_ms, "ms"),
        "symmetric.variety_search.starts": metric(counts["starts"], "count"),
        "symmetric.variety_search.ms_per_start": metric(
            vs_ms / counts["starts"] if counts["starts"] else 0.0, "ms"),
        "symmetric.halfdeg_optimize.ms": ms("symmetric.halfdeg_optimize"),
        "symmetric.coincide.ms": ms("symmetric.coincide"),
        "symmetric.eval_at_e.calls": calls("symmetric.eval_at_e"),
        "symmetric.eval_at_e.ms": ms("symmetric.eval_at_e"),
        "symmetric.vieta_from_roots.calls": calls("symmetric.vieta_from_roots"),
        "symmetric.vieta_from_roots.ms": ms("symmetric.vieta_from_roots"),
        "trace.overhead_pct": metric(100.0 * (t_traced / t_plain - 1.0), "%"),
    }
    log(f"{len(plain)} untraced and {k} traced rounds of {len(jobs)} jobs")
    return correct, plain + traced, metrics, tracer.table()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stable-slices CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg: str) -> None:
        print(f"[bench {args.workload} seed {args.seed}] {msg}", file=sys.stderr, flush=True)

    if not (SRC / "stable_slices" / "cli.py").is_file():
        log(f"no package source at {SRC}; run from the root of a stable-slices checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import stable_slices.cli as cli

    jobs = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    correct, rounds, metrics, table = measure(cli.main, jobs, args.seconds, log)

    result = {
        "correct": bool(correct),
        "attempted": len(rounds) * len(jobs),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"result": result, ("spans" if args.trace else "job_ms"): table}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
