#!/usr/bin/env python3
"""In-process timings of library layers: a parent checkout against a change.

    python3 scripts/layers.py PARENT_SRC CHANGE_SRC [--rounds R] [--tiny]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts
(they may be the same).  Each of the R rounds (default 11) runs one
fresh process per side, the parent first in even rounds and the change
first in odd ones, with OPENBLAS_NUM_THREADS=1 and PYTHONHASHSEED=0.  A
process imports ``latentforest`` from its side's directory and, for
each probe, makes one untimed warm-up call, then a fixed number of
timed calls; the probe's time in that round is their median.  Inputs
are built before the warm-up, outside the timed region.  The script
prints JSON: for each probe and side, the median and quartiles over
the rounds (ms), the rounds in which the change was faster, the
parent's median over the change's, and every round's time.  A probe
that fails on one side, for instance because the parent lacks what it
calls, is reported for the other side only.

Probes:

* ``rlct_forest_pair+model_dimension``: the closed form of each of the
  7 ``symbolic`` engine trees against the empty pattern, and the
  pattern's dimension, as ``perfbench/workloads.py`` builds and calls
  them (the same tree objects on every call);
* ``sbic_all fresh <host>``: made-up log-likelihoods at n = 125, on a
  lattice whose host is copied before each call, so no pair threshold
  or edge mask is cached: the five-leaf host and
  ``random_trivalent_tree`` (7, 3), (8, 1) and (9, 0);
* ``_mc_block <system>``: the Monte Carlo block of each of the four
  systems of ``TestMonteCarloOracle`` in ``tests/test_laplace.py``, at
  10**6 points over the default grid;
* ``three-star estimate``: ``laplace_rlct_estimate`` of the identity
  H_q of the three-star, as the ``symbolic`` workload runs it;
* ``subforest_lattice m=12``: ``random_trivalent_tree(12, 0)``, its
  host copied before each call;
* ``canonicalize caterpillar(200)``: the ``symbolic`` workload's
  caterpillar.

``--tiny`` runs one round on small inputs with one timed call per
probe; it shows that the script runs, not how fast anything is.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def probes(tiny: bool):
    """``(name, timed calls, setup, run)``: ``run(setup())`` is timed."""
    from dataclasses import replace

    import numpy as np

    from latentforest import (
        ModelLattice,
        MonomialSos,
        build_forest,
        canonicalize,
        h_q_monomials,
        laplace,
        laplace_rlct_estimate,
        lattice5_host,
        model_dimension,
        random_trivalent_tree,
        rlct_forest_pair,
        sbic_all,
        subforest_lattice,
    )
    from perfbench.workloads import (
        ENGINE_PLAN,
        TINY_ENGINE_PLAN,
        _subdivide_leaf_edge,
        caterpillar,
    )

    def none():
        return None

    pairs = []
    for i, (m, k) in enumerate(TINY_ENGINE_PLAN if tiny else ENGINE_PLAN):
        tree = random_trivalent_tree(m, i)
        rng = np.random.default_rng(i)
        for j in range(k):
            tree = _subdivide_leaf_edge(tree, j, rng)
        pairs.append((tree, build_forest([(v, False) for v in tree.observed], [])))
    yield ("rlct_forest_pair+model_dimension", 200, none,
           lambda _: [(rlct_forest_pair(t, e), model_dimension(e)) for t, e in pairs])

    hosts = [("five-leaf", lattice5_host(), 21)]
    if not tiny:
        hosts += [(f"({m},{s})", random_trivalent_tree(m, s), reps)
                  for m, s, reps in ((7, 3, 9), (8, 1, 5), (9, 0, 3))]
    for name, host, reps in hosts:
        masks = subforest_lattice(host).steiner_masks
        lls = list(np.linspace(-1000.0, -900.0, len(masks)))
        yield (f"sbic_all fresh {name}", reps,
               lambda host=host, masks=masks: ModelLattice(replace(host), masks),
               lambda lat, lls=lls: sbic_all(lat, lls, 125))

    star = build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )

    def largest_block(h):
        # as a callable, which is never reduced, so it stays Monte Carlo
        coords = max(laplace._blocks(list(h.terms), h.dim), key=len)
        part = MonomialSos(len(coords), tuple(laplace._restrict(h.terms, coords)),
                           tuple(h.domain[i] for i in coords))
        return (lambda pts: part(pts)), part.domain

    chain = MonomialSos(4, (((1, 1, 0, 0), 0.2), ((0, 1, 1, 0), 0.3),
                            ((0, 0, 1, 1), 0.1)), ((0.0, 1.0),) * 4)
    systems = {
        "star-1": largest_block(h_q_monomials(star, np.eye(3))),
        "star-37.3": largest_block(h_q_monomials(star, 37.3 * np.eye(3))),
        "xyz-0.1": largest_block(
            MonomialSos(3, (((1, 1, 1), 0.1),), ((0.0, 1.0),) * 3)),
        "chain-4d": (chain, chain.domain),
    }
    ns = np.asarray(laplace.DEFAULT_N_GRID, dtype=float)
    points = 10**4 if tiny else 10**6
    for name, (h, box) in systems.items():
        yield (f"_mc_block {name}", 3, none,
               lambda _, h=h, box=list(box): laplace._mc_block(
                   h, box, ns, points, np.random.default_rng(0)))

    sos = h_q_monomials(star, np.eye(3))
    yield "three-star estimate", 5, none, lambda _: laplace_rlct_estimate(sos)

    m = 8 if tiny else 12
    tree = random_trivalent_tree(m, 0)
    yield (f"subforest_lattice m={m}", 5, lambda: replace(tree),
           subforest_lattice)

    leaves = 20 if tiny else 200
    cat = caterpillar(leaves)
    yield (f"canonicalize caterpillar({leaves})", 9, none,
           lambda _: canonicalize(cat))


def worker(src: str, tiny: bool) -> dict:
    sys.path[:0] = [src, str(REPO)]
    import latentforest

    assert Path(latentforest.__file__).is_relative_to(Path(src).resolve())
    out = {}
    for name, reps, setup, run in probes(tiny):
        try:
            run(setup())
            times = []
            for _ in range(1 if tiny else reps):
                arg = setup()
                t0 = time.perf_counter()
                run(arg)
                times.append(1e3 * (time.perf_counter() - t0))
            out[name] = statistics.median(times)
        except Exception as exc:  # the other side may lack what it calls
            out[name] = None
            print(f"{src}: {name}: {exc!r}", file=sys.stderr)
    return out


def one_process(src: str, tiny: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--worker", str(Path(src).resolve())]
    cmd += ["--tiny"] * tiny
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout)


def spread(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: str, change: str, rounds: int, tiny: bool) -> dict:
    runs = {"parent": [], "change": []}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one_process(parent if side == "parent" else change, tiny))
    summary = {}
    for name in runs["change"][0] | runs["parent"][0]:
        got = {s: [run.get(name) for run in runs[s]] for s in runs}
        row = {"unit": "ms", "rounds": rounds}
        for side, xs in got.items():
            if None not in xs:
                row[side] = spread(xs)
        if "parent" in row and "change" in row:
            row["change_faster_rounds"] = sum(c < p for p, c in zip(got["parent"], got["change"]))
            row["median_ratio_parent_over_change"] = round(
                row["parent"]["median"] / row["change"]["median"], 3)
        row["per_round"] = {s: [None if x is None else round(x, 4) for x in xs]
                            for s, xs in got.items()}
        summary[name] = row
    return {"parent_src": parent, "change_src": change, "rounds": rounds,
            "tiny": tiny, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="src directory of the parent checkout")
    ap.add_argument("change", nargs="?", help="src directory of the change")
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.parent, args.tiny)))
        return 0
    if args.change is None or args.rounds < 1:
        ap.error("give the change's src directory and --rounds >= 1")
    rounds = 1 if args.tiny else args.rounds
    print(json.dumps(compare(args.parent, args.change, rounds, args.tiny), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
