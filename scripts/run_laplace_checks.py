#!/usr/bin/env python3
"""Numeric Laplace estimates against exact thresholds on small benchmarks.

Each benchmark pairs a phase function with its closed-form (lambda, mult):
two monomial systems fed straight to the polyhedral engine, and the
identity-q phase functions of the two-leaf path and the three-star,
whose targets come from the forest-pair formula.  Prints one line per
benchmark and writes laplace.csv into --outdir; its ``stopped_short``
column says whether an adaptive quadrature rule ran out of budget.
"""

import argparse
import csv
import io
import time
from pathlib import Path

import numpy as np

from latentforest import (
    MonomialSos,
    build_forest,
    h_q_monomials,
    laplace_rlct_estimate,
    rlct_forest_pair,
    rlct_monomial_sos,
)


def _empty_on(names):
    return build_forest({v: False for v in names}, [])


def _benchmarks():
    square = MonomialSos(
        dim=2, terms=[((1, 1), 0.0)], domain=[(0.0, 1.0)] * 2
    )
    regular = MonomialSos(
        dim=3,
        terms=[((1, 0, 0), 0.0), ((0, 1, 0), 0.0), ((0, 0, 1), 0.0)],
        domain=[(-1.0, 1.0)] * 3,
    )
    path = build_forest(
        [("1", False), ("2", False), ("a", True)],
        [("a", "1"), ("a", "2")],
    )
    star = build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )
    yield "product square", square, rlct_monomial_sos(square)
    yield "regular d=3", regular, rlct_monomial_sos(regular)
    yield (
        "two-leaf path H_q",
        h_q_monomials(path, np.eye(2)),
        rlct_forest_pair(path, _empty_on(["1", "2"])),
    )
    yield (
        "three-star H_q",
        h_q_monomials(star, np.eye(3)),
        rlct_forest_pair(star, _empty_on(["1", "2", "3"])),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Laplace oracle vs closed-form thresholds"
    )
    ap.add_argument("--grid", type=int, nargs=3, default=None,
                    metavar=("MIN", "MAX", "POINTS"),
                    help="geometric n grid override (default: library grid)")
    ap.add_argument("--outdir", default="results/laplace")
    args = ap.parse_args(argv)

    n_grid = None
    if args.grid is not None:
        lo, hi, pts = args.grid
        n_grid = sorted({int(round(v)) for v in np.geomspace(lo, hi, pts)})

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["benchmark", "lambda", "lambda_hat", "rel_err",
                "mult", "mult_hat", "stopped_short", "seconds"])
    for name, h, exact in _benchmarks():
        t0 = time.time()
        est = laplace_rlct_estimate(h, n_grid=n_grid)
        dt = time.time() - t0
        lam = float(exact.lam)
        rel = abs(est.lambda_hat - lam) / lam
        short = ", stopped short" if est.stopped_short else ""
        print(f"{name:>18}: lambda {lam:.3f} vs {est.lambda_hat:.3f} "
              f"(rel {rel:.1%}), mult {exact.mult} vs {est.mult_hat}, "
              f"{dt:.3f}s{short}")
        w.writerow([name, lam, est.lambda_hat, rel, exact.mult,
                    est.mult_hat, est.stopped_short, round(dt, 4)])

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "laplace.csv").write_text(buf.getvalue())
    print(f"wrote {outdir}/laplace.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
