#!/usr/bin/env python3
"""Digests of the command line tool's output on a fixed corpus of 36 runs.

Each run is a fresh ``python -m latentforest.cli`` process on the
checkout's own sources, with PYTHONHASHSEED=0 (or ``--hashseed``) and
OPENBLAS_NUM_THREADS=1, working in a temporary directory that holds its
inputs.  The corpus runs all six subcommands, each plain and with
``--json``:

* ``rlct forest`` of the lattice5 truth forest inside the five-leaf
  host (lambda=11 mult=1);
* ``rlct mono`` of the three-star H_q at a correlated q (lambda=6
  mult=1), which solves the engine's nonzero-part LP;
* ``fit`` of the five-leaf host to its samples, at the default EM
  settings;
* ``lattice``, plain and ``--json``, on the five-leaf host and on
  ``random_trivalent_tree`` (7, 3), (9, 1) and (10, 10);
* ``select``, exhaustive and chain, bic and sbic, plain and ``--json``,
  on the five-leaf host and on (7, 3), with 125 samples at unit
  variances and correlations 0.6;
* ``select --lattice chain``, plain and ``--json``, on the five-leaf
  host with its a-5 edge subdivided by a latent s;
* ``simulate`` lattice5 (n 50, 2 replicates, ``--restarts 1 --max-iter
  150``) and depth_comparison (m 6, n 125, 1 replicate, ``--restarts 2
  --max-iter 300``), plain and ``--json``, with ``--edges-out``.

It prints one line per run: the argv, the exit code, and SHA-256
digests of stdout, stderr and each file the run wrote.  Two checkouts
print the same lines exactly when their output is byte-identical:

    python3 scripts/cli_corpus.py > before.txt   # in one checkout
    python3 scripts/cli_corpus.py > after.txt    # in the other
    diff before.txt after.txt

A full pass takes about a minute, so the test suite does not run it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from latentforest import (  # noqa: E402
    ModelParams,
    build_forest,
    h_q_monomials,
    lattice5_host,
    lattice5_truth_index,
    random_trivalent_tree,
    sample,
    steiner_subforest,
    subforest_lattice,
)

# a correlated q for the three-star: every pair of leaves correlated
STAR_Q = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.25], [0.2, 0.25, 1.0]])


def subdivided_host():
    """The five-leaf host with the a-5 edge replaced by a path a-s-5."""
    return build_forest(
        [(str(i), False) for i in range(1, 6)]
        + [(v, True) for v in ("a", "b", "c", "s")],
        [("a", "b"), ("a", "s"), ("s", "5"), ("a", "1"), ("b", "4"),
         ("b", "c"), ("3", "c"), ("2", "c")],
    )


def write_inputs(tmp: Path) -> None:
    hosts = {
        "five-leaf": lattice5_host(),
        "t7s3": random_trivalent_tree(7, 3),
        "t9s1": random_trivalent_tree(9, 1),
        "t10s10": random_trivalent_tree(10, 10),
        "a5-subdivided": subdivided_host(),
    }
    lat = subforest_lattice(hosts["five-leaf"])
    hosts["lattice5-truth"] = steiner_subforest(
        hosts["five-leaf"], lat.classes[lattice5_truth_index(lat)])
    for name, f in hosts.items():
        (tmp / f"{name}.json").write_text(f.to_json())
    star = build_forest([("1", False), ("2", False), ("3", False), ("h", True)],
                        [("h", "1"), ("h", "2"), ("h", "3")])
    (tmp / "star-q.json").write_text(h_q_monomials(star, STAR_Q).to_json())
    for name in ("five-leaf", "t7s3", "a5-subdivided"):
        f = hosts[name]
        params = ModelParams(leaf_var={v: 1.0 for v in f.observed},
                             edge_corr={e: 0.6 for e in f.edges})
        np.savetxt(tmp / f"{name}.csv", sample(f, params, 125, seed=0),
                   delimiter=",", header=",".join(f.observed), comments="")
    (tmp / "lattice5.json").write_text(json.dumps(
        {"kind": "lattice5", "n_values": [50], "replicates": 2}))
    (tmp / "depth.json").write_text(json.dumps(
        {"kind": "depth_comparison", "m": [6], "n_values": [125],
         "replicates": 1}))


def corpus() -> list[list[str]]:
    """The argv of every run, paths relative to the input directory."""
    runs = []
    for argv in (
        ["rlct", "forest", "--host", "five-leaf.json", "--sub",
         "lattice5-truth.json"],
        ["rlct", "mono", "--in", "star-q.json"],
        ["fit", "--forest", "five-leaf.json", "--data", "five-leaf.csv"],
    ):
        runs += [argv, argv + ["--json"]]
    for host in ("five-leaf", "t7s3", "t9s1", "t10s10"):
        runs += [["lattice", "--tree", f"{host}.json", *js]
                 for js in ([], ["--json"])]
    for host, lattices, criteria in (
        ("five-leaf", ("exhaustive", "chain"), ("bic", "sbic")),
        ("t7s3", ("exhaustive", "chain"), ("bic", "sbic")),
        ("a5-subdivided", ("chain",), (None,)),
    ):
        for lattice in lattices:
            for crit in criteria:
                argv = ["select", "--tree", f"{host}.json", "--data",
                        f"{host}.csv", "--lattice", lattice]
                if crit is not None:
                    argv += ["--criterion", crit]
                runs += [argv, argv + ["--json"]]
    for config, em in (("lattice5.json", ["--restarts", "1", "--max-iter", "150"]),
                       ("depth.json", ["--restarts", "2", "--max-iter", "300"])):
        for js in ([], ["--json"]):
            runs.append(["simulate", "--config", config, *em, "--edges-out",
                         "out/edges.csv", *js])
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hashseed", type=int, default=0,
                    help="PYTHONHASHSEED of every run (default 0)")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONHASHSEED=str(args.hashseed),
               OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    env.pop("LF_SEED", None)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_inputs(tmp)
        out = tmp / "out"
        out.mkdir()
        for argv in corpus():
            proc = subprocess.run(
                [sys.executable, "-m", "latentforest.cli", *argv],
                cwd=tmp, env=env, capture_output=True,
            )
            written = sorted(out.iterdir())
            files = "".join(f" {p.name}={digest(p.read_bytes())}" for p in written)
            print(f"{' '.join(argv)} | exit={proc.returncode} "
                  f"stdout={digest(proc.stdout)} stderr={digest(proc.stderr)}"
                  f"{files}", flush=True)
            for p in written:
                p.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
