#!/usr/bin/env python3
"""Seeded benchmark of the latentforest pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload lattice5 --seed 1 --seconds 54 --trace 0

Workloads: lattice5, symbolic (see perfbench/README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same jobs untraced and then traced, half the time each, and reports the
per-layer metrics from the traced pass.  Metric names and units come
from BENCHMARK.json.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; failed output checks are
reported on stderr.  Traced runs also write their spans to
``.bench_out/<workload>-seed<seed>.json``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path

from spans import JOB_SPAN, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_CHILDREN = 3  # fresh processes that repeat the set-up for setup_s


def load_library() -> None:
    """Put the checkout's own sources first on the import path."""
    src = ROOT / "src"
    if not (src / "latentforest" / "__init__.py").is_file():
        raise SystemExit(f"error: no latentforest sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text())


def timed_loop(wl, seconds: float | None = None, jobs: int | None = None):
    """Run jobs 0, 1, ... and return (seconds by job kind, failed, wall).

    With ``jobs`` the loop replays exactly that many.  Otherwise it runs
    at least ``wl.min_jobs`` and stops once the deadline is less than
    half of the last job's time away, so a run ends near it.
    """
    times: dict[int, list[float]] = defaultdict(list)
    failed = i = 0
    t0 = time.perf_counter()
    while jobs is None or i < jobs:
        job_id, kind, fn = wl.job(i)
        wl.tr.job = job_id
        j0 = time.perf_counter()
        try:
            with wl.tr.span(JOB_SPAN):
                problems = fn()
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        now = time.perf_counter()
        times[kind].append(now - j0)
        for p in problems:
            print(f"check failed [job {job_id}]: {p}", file=sys.stderr)
        failed, i = failed + bool(problems), i + 1
        if jobs is None and i >= wl.min_jobs and now - t0 + (now - j0) / 2 >= seconds:
            break
    return times, failed, time.perf_counter() - t0


def jobs_per_s(times: dict[int, list[float]]) -> float:
    """Jobs per second when every kind of job is done equally often.

    Each kind costs its mean time.  With one kind this is jobs done
    over the time spent in them.  Medians and minima of job times
    spread wider from run to run on a shared host, whose speed drifts
    for tens of seconds at a time rather than in short spikes.
    """
    return len(times) / math.fsum(statistics.fmean(ts) for ts in times.values())


def setup_child(workload: str, seed: int, tiny: bool) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import scipy
    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": workloads.nproc(),
        "blas_threads": {
            k: os.environ.get(k, "unset (library default)")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "git_sha": git_sha(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One benchmark run; returns the result object that main prints."""
    spec = load_spec()
    load_library()
    import workloads

    # as a script the set-up clock starts before the library import
    start = T0 if __name__ == "__main__" else time.perf_counter()
    tracer = Tracer() if trace else NullTracer()
    wl = workloads.WORKLOADS[workload](seed, tracer, tiny=tiny)
    setup_s = time.perf_counter() - start

    wl.tr = NullTracer()
    times, failed, wall = timed_loop(wl, seconds=seconds / 2 if trace else seconds)
    attempted = sum(map(len, times.values()))
    rate = jobs_per_s(times)
    if trace:
        wl.tr = tracer
        _, f2, wall_traced = timed_loop(wl, jobs=attempted)
        attempted, failed = 2 * attempted, failed + f2

    problems, weight, extra = wl.finish(trace)
    for p in problems:
        print(f"check failed [finish]: {p}", file=sys.stderr)
    attempted += weight
    if problems:
        failed += weight

    stats: dict[str, float] = {}
    if trace:
        stats = tracer.layer_stats()
        stats["trace.overhead_frac"] = (wall_traced - wall) / wall
        stats["trace.coverage_frac"] = tracer.coverage()
        fits = stats.get("gaussian.em_fit.calls", 0)
        if fits:
            stats["gaussian.em_fit.unconverged_frac"] = (
                stats["gaussian.em_fit.unconverged"] / fits
            )
    stats.update(extra)
    if "experiments.pool_jobs_per_s" in extra:
        # both rates are replicates per second; the serial one is the
        # untraced lattice5 pass of this run
        stats["experiments.serial_jobs_per_s"] = rate
        stats["experiments.pool_speedup"] = extra["experiments.pool_jobs_per_s"] / rate

    if trace:
        listed = spec["per_layer"]
    else:
        setups = [setup_s] + [
            setup_child(workload, seed, tiny) for _ in range(SETUP_CHILDREN)
        ]
        stats = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]
    metrics = {
        # a layer the workload never calls reads 0
        m["name"]: {"value": float(stats.get(m["name"], 0.0) if trace else stats[m["name"]]),
                    "unit": m["unit"]}
        for m in listed
    }
    result = {
        "correct": failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"header": run_header(workload, seed, seconds, trace),
                "stats": stats, **tracer.to_json()}
        (OUT_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(dump))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="latentforest benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["lattice5", "symbolic"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=54.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test input sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up in this fresh process and print it")
    args = ap.parse_args(argv)

    if args.setup_only:
        load_library()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, NullTracer(), tiny=args.tiny)
        print(repr(time.perf_counter() - T0))
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     tiny=args.tiny)
    print("header " + json.dumps(run_header(args.workload, args.seed,
                                            args.seconds, bool(args.trace))))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
