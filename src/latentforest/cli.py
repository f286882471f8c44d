"""Command line front end.

Subcommands wire the JSON/CSV file formats to the library:

* ``rlct forest``  learning coefficient of a subforest inside a host
* ``rlct mono``    learning coefficient of a monomial sum of squares
* ``fit``          EM fit of one forest to a samples CSV
* ``select``       BIC/sBIC model selection, exhaustive or chain
* ``simulate``     built-in experiment protocols from a config JSON
* ``lattice``      enumerate subforest classes as edge-subset codes

Exit codes: 0 success, 1 computation error, 2 usage error.  With
``--json`` each subcommand emits a machine readable document on stdout
and, on failure, ``{"error": {"type": ..., "message": ...}}`` on
stderr.  Seeds resolve as ``--seed`` flag, then the ``LF_SEED``
environment variable, then the documented default; identical argv and
seed produce byte identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .engine import MonomialSos, rlct_monomial_sos
from .errors import LatentForestError
from .experiments import ExperimentConfig, run_experiment
from .forest_rlct import rlct_forest_pair
from .forests import forest_from_json, subforest_lattice
from .gaussian import EmConfig, em_fit, suff_stats
from .selection import pruned_chain, score_lattice


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read_samples(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one sample")
    names = [c.strip() for c in rows[0]]
    data = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: ragged rows")
    return names, data


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("LF_SEED")
    if env is not None:
        return int(env)
    return 0


def _em_config(args) -> EmConfig:
    cfg = EmConfig(seed=_seed(args))
    if args.restarts is not None:
        cfg = replace(cfg, restarts=args.restarts)
    if args.max_iter is not None:
        cfg = replace(cfg, max_iter=args.max_iter)
    if args.tol is not None:
        cfg = replace(cfg, rel_tol=args.tol)
    return cfg


# --------------------------------------------------------------------------
# handlers: each returns the stdout text


def _cmd_rlct_forest(args) -> str:
    host = forest_from_json(Path(args.host).read_text())
    sub = forest_from_json(Path(args.sub).read_text())
    r = rlct_forest_pair(host, sub)
    if args.json:
        return json.dumps({"lambda": str(r.lam), "mult": r.mult}) + "\n"
    return f"{r}\n"


def _cmd_rlct_mono(args) -> str:
    m = MonomialSos.from_json(Path(args.infile).read_text())
    r = rlct_monomial_sos(m)
    if args.json:
        return json.dumps({"lambda": str(r.lam), "mult": r.mult}) + "\n"
    return f"{r}\n"


def _cmd_fit(args) -> str:
    forest = forest_from_json(Path(args.forest).read_text())
    names, data = _read_samples(args.data)
    stats = suff_stats(data, names=names)
    res = em_fit(forest, stats, _em_config(args))
    params = json.loads(res.params.to_json())
    if args.json:
        return (
            json.dumps(
                {
                    "loglik": res.loglik,
                    "iters": res.iters,
                    "converged": res.converged,
                    "params": params,
                }
            )
            + "\n"
        )
    return (
        f"loglik={res.loglik!r}\n"
        f"iters={res.iters} converged={str(res.converged).lower()}\n"
        f"{json.dumps(params)}\n"
    )


def _cmd_select(args) -> str:
    tree = forest_from_json(Path(args.tree).read_text())
    names, data = _read_samples(args.data)
    stats = suff_stats(data, names=names)
    cfg = _em_config(args)
    crit = args.criterion
    if args.lattice == "exhaustive":
        lat = subforest_lattice(tree)
        table = score_lattice(lat, stats, cfg)
        code = lat.code_string(table.best(crit))
    else:
        res = pruned_chain(tree, stats, cfg)
        pick = res.selected_bic if crit == "bic" else res.selected_sbic
        table = res.table
        code = table.rows[res.chain.index(pick)].code
    rows = json.loads(table.to_json())
    if args.json:
        return (
            json.dumps(
                {
                    "selected": code,
                    "criterion": crit,
                    "n": table.n,
                    "table": rows,
                }
            )
            + "\n"
        )
    return f"selected={code}\ncriterion={crit}\n{table.to_csv()}"


def _cmd_simulate(args) -> str:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    if getattr(args, "seed", None) is not None or "LF_SEED" in os.environ:
        cfg = replace(cfg, master_seed=_seed(args))
    if args.restarts is not None or args.max_iter is not None or args.tol is not None:
        cfg = replace(cfg, em=_em_config(args))
    result = run_experiment(cfg, threads=args.threads)
    counts = result.to_csv()
    if args.out:
        Path(args.out).write_text(counts)
    if args.edges_out:
        Path(args.edges_out).write_text(result.edges_csv())
    if args.json:
        return (
            json.dumps(
                {
                    "config": json.loads(cfg.to_json()),
                    "rows": [
                        {
                            "criterion": r.criterion,
                            "n": r.n,
                            "label": r.label,
                            "count": r.count,
                        }
                        for r in result.rows
                    ],
                    "codes": list(result.codes),
                    "hasse": [list(e) for e in result.hasse],
                }
            )
            + "\n"
        )
    return counts


def _cmd_lattice(args) -> str:
    tree = forest_from_json(Path(args.tree).read_text())
    lat = subforest_lattice(tree)
    codes = [lat.code_string(i) for i in range(len(lat.classes))]
    if args.json:
        return (
            json.dumps(
                {
                    "count": len(codes),
                    "codes": codes,
                    "covers": [list(e) for e in lat.covers()],
                }
            )
            + "\n"
        )
    return "".join(c + "\n" for c in codes)


# --------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine readable output"
    )

    em = _Parser(add_help=False)
    em.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: LF_SEED env var, then 0)")
    em.add_argument("--restarts", type=int, default=None)
    em.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    em.add_argument("--tol", type=float, default=None)

    p = _Parser(prog="latentforest", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    rl = sub.add_parser("rlct", help="learning coefficients")
    rlsub = rl.add_subparsers(dest="what", required=True)
    rf = rlsub.add_parser("forest", parents=[common],
                          help="subforest inside a host forest")
    rf.add_argument("--host", required=True)
    rf.add_argument("--sub", required=True)
    rf.set_defaults(handler=_cmd_rlct_forest)
    rm = rlsub.add_parser("mono", parents=[common],
                          help="monomial sum of squares system")
    rm.add_argument("--in", required=True, dest="infile")
    rm.set_defaults(handler=_cmd_rlct_mono)

    ft = sub.add_parser("fit", parents=[common, em],
                        help="EM fit of one forest")
    ft.add_argument("--forest", required=True)
    ft.add_argument("--data", required=True)
    ft.set_defaults(handler=_cmd_fit)

    se = sub.add_parser("select", parents=[common, em],
                        help="model selection over a host tree")
    se.add_argument("--tree", required=True)
    se.add_argument("--data", required=True)
    se.add_argument("--criterion", choices=("bic", "sbic"), default="sbic")
    se.add_argument("--lattice", choices=("exhaustive", "chain"),
                    default="exhaustive")
    se.set_defaults(handler=_cmd_select)

    si = sub.add_parser("simulate", parents=[common, em],
                        help="run a built-in experiment protocol")
    si.add_argument("--config", required=True)
    si.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored; "
                    "replicates run serially")
    si.add_argument("--out", default=None, help="also write counts CSV here")
    si.add_argument("--edges-out", default=None, dest="edges_out",
                    help="write lattice cover edges CSV here")
    si.set_defaults(handler=_cmd_simulate)

    la = sub.add_parser("lattice", parents=[common],
                        help="enumerate subforest classes of a tree")
    la.add_argument("--tree", required=True)
    la.set_defaults(handler=_cmd_lattice)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    json_mode = "--json" in argv
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        if json_mode:
            sys.stderr.write(
                json.dumps(
                    {"error": {"type": "UsageError", "message": str(exc)}}
                )
                + "\n"
            )
        else:
            sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        out = args.handler(args)
    except (LatentForestError, ValueError, KeyError, OSError,
            np.linalg.LinAlgError) as exc:
        if args.json:
            sys.stderr.write(
                json.dumps(
                    {
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                        }
                    }
                )
                + "\n"
            )
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
