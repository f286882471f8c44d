#!/usr/bin/env python3
"""Selection frequencies over the 34-class lattice of the five-leaf tree.

Replicates a fixed-seed version of the selection-frequency table: data
are drawn from the class whose minimal forest drops the 3--c edge, with
every remaining edge correlation equal to --corr, and both BIC and sBIC
pick a class per replicate by exhaustive scoring.  Writes counts.csv,
hasse.csv and config.json into --outdir and prints the head of the
count table per criterion and sample size.
"""

import argparse
import time
from pathlib import Path

from latentforest import (
    EmConfig,
    ExperimentConfig,
    lattice5_host,
    lattice5_truth_index,
    run_experiment,
    subforest_lattice,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="five-leaf tree selection frequencies"
    )
    ap.add_argument("--n", type=int, nargs="+", default=[125],
                    help="sample sizes (default: 125)")
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corr", type=float, default=0.6)
    ap.add_argument("--restarts", type=int, default=2,
                    help="EM restarts per class fit")
    ap.add_argument("--max-iter", type=int, default=300)
    ap.add_argument("--outdir", default="results/lattice5")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        kind="lattice5",
        n_values=tuple(sorted(set(args.n))),
        replicates=args.replicates,
        master_seed=args.seed,
        corr=args.corr,
        em=EmConfig(restarts=args.restarts, max_iter=args.max_iter),
    )
    t0 = time.time()
    res = run_experiment(cfg)
    dt = time.time() - t0

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "counts.csv").write_text(res.to_csv())
    (outdir / "hasse.csv").write_text(res.edges_csv())
    (outdir / "config.json").write_text(cfg.to_json())

    lat = subforest_lattice(lattice5_host())
    truth = lat.code_string(lattice5_truth_index(lat))
    print(f"{args.replicates} replicates in {dt:.1f}s, truth class '{truth}'")
    for crit in ("bic", "sbic"):
        for n in cfg.n_values:
            counts = res.counts(crit, n)
            top = sorted(counts.items(), key=lambda kv: -kv[1])[:4]
            desc = ", ".join(f"'{c}' x{k}" for c, k in top)
            print(f"  {crit:>4} n={n}: {desc}")
    print(f"wrote {outdir}/counts.csv, hasse.csv, config.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
