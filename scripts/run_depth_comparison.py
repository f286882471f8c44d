#!/usr/bin/env python3
"""Recovery rates of the pruned-chain search on random trivalent trees.

For each leaf count in --m, draws random trivalent trees, plants a
random subforest of middling depth as the generating class, and counts
how often the greedy edge-pruning chain recovers it under BIC and sBIC
at each sample size.  Writes counts.csv and config.json into --outdir.
"""

import argparse
import time
from pathlib import Path

from latentforest import EmConfig, ExperimentConfig, run_experiment


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="pruned-chain recovery rates on random trees"
    )
    ap.add_argument("--m", type=int, nargs="+", default=[6, 8],
                    help="leaf counts (default: 6 8)")
    ap.add_argument("--n", type=int, nargs="+", default=[125, 1000])
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corr", type=float, default=0.6)
    ap.add_argument("--restarts", type=int, default=2)
    ap.add_argument("--max-iter", type=int, default=300)
    ap.add_argument("--outdir", default="results/depth_comparison")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        kind="depth_comparison",
        n_values=tuple(sorted(set(args.n))),
        replicates=args.replicates,
        master_seed=args.seed,
        m=tuple(sorted(set(args.m))),
        corr=args.corr,
        em=EmConfig(restarts=args.restarts, max_iter=args.max_iter),
    )
    t0 = time.time()
    res = run_experiment(cfg)
    dt = time.time() - t0

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "counts.csv").write_text(res.to_csv())
    (outdir / "config.json").write_text(cfg.to_json())

    print(f"{args.replicates} replicates per cell in {dt:.1f}s "
          f"(recovered generating class, out of {args.replicates})")
    for crit in ("bic", "sbic"):
        for n in cfg.n_values:
            counts = res.counts(crit, n)
            cells = ", ".join(
                f"{label}: {counts.get(label, 0)}"
                for label in (f"m={m}" for m in cfg.m)
            )
            print(f"  {crit:>4} n={n}: {cells}")
    print(f"wrote {outdir}/counts.csv, config.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
