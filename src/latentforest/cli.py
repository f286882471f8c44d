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
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .engine import MonomialSos, rlct_monomial_sos
from .errors import LatentForestError
from .experiments import ExperimentConfig, run_experiment
from .forest_rlct import rlct_forest_pair
from .forests import forest_from_json, subforest_lattice
from .gaussian import EmConfig, em_fit, suff_stats
from .selection import pruned_chain, select_exhaustive


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _read_forest(path: str):
    return forest_from_json(Path(path).read_text())


def _read_stats(path: str):
    """Sufficient statistics of a samples CSV: one header row, then one
    sample per row; blank rows are skipped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one sample")
    names = [c.strip() for c in rows[0]]
    if any(len(r) != len(names) for r in rows[1:]):
        raise ValueError(f"{path}: ragged rows")
    data = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    with np.errstate(over="raise"):
        try:
            return suff_stats(data, names=names)
        except FloatingPointError:
            raise ValueError(f"{path}: second moments overflow") from None


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("LF_SEED", 0))


def _em_config(args) -> EmConfig:
    flags = {"restarts": args.restarts, "max_iter": args.max_iter,
             "rel_tol": args.tol}
    return EmConfig(seed=_seed(args),
                    **{k: v for k, v in flags.items() if v is not None})


# --------------------------------------------------------------------------
# handlers: each returns the stdout text, or with --json the document
# that main writes


def _cmd_rlct(args):
    if args.what == "forest":
        r = rlct_forest_pair(_read_forest(args.host), _read_forest(args.sub))
    else:
        r = rlct_monomial_sos(MonomialSos.from_json(Path(args.infile).read_text()))
    return {"lambda": str(r.lam), "mult": r.mult} if args.json else f"{r}\n"


def _cmd_fit(args):
    forest = _read_forest(args.forest)
    res = em_fit(forest, _read_stats(args.data), _em_config(args))
    params = json.loads(res.params.to_json())
    if args.json:
        return {
            "loglik": res.loglik,
            "iters": res.iters,
            "converged": res.converged,
            "params": params,
        }
    return (
        f"loglik={res.loglik!r}\n"
        f"iters={res.iters} converged={str(res.converged).lower()}\n"
        f"{json.dumps(params)}\n"
    )


def _cmd_select(args):
    tree = _read_forest(args.tree)
    stats = _read_stats(args.data)
    cfg = _em_config(args)
    crit = args.criterion
    if args.lattice == "exhaustive":
        _, table = select_exhaustive(tree, stats, crit, cfg)
    else:
        table = pruned_chain(tree, stats, cfg).table
    code = table.row(table.best(crit)).code
    if args.json:
        return {
            "selected": code,
            "criterion": crit,
            "n": table.n,
            "table": json.loads(table.to_json()),
        }
    return f"selected={code}\ncriterion={crit}\n{table.to_csv()}"


def _cmd_simulate(args):
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
        return {
            "config": json.loads(cfg.to_json()),
            "rows": [asdict(r) for r in result.rows],
            "codes": result.codes,
            "hasse": result.hasse,
        }
    return counts


def _cmd_lattice(args):
    lat = subforest_lattice(_read_forest(args.tree))
    codes = [lat.code_string(i) for i in range(len(lat))]
    if args.json:
        return {"count": len(codes), "codes": codes, "covers": lat.covers()}
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
    rl.set_defaults(handler=_cmd_rlct)
    rlsub = rl.add_subparsers(dest="what", required=True)
    rf = rlsub.add_parser("forest", parents=[common],
                          help="subforest inside a host forest")
    rf.add_argument("--host", required=True)
    rf.add_argument("--sub", required=True)
    rm = rlsub.add_parser("mono", parents=[common],
                          help="monomial sum of squares system")
    rm.add_argument("--in", required=True, dest="infile")

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


#: EM flags whose value is a number in the next word
_NUMERIC_FLAGS = ("--seed", "--restarts", "--max-iter", "--tol")


def _is_negative_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return word.startswith("-")


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """``--tol -1e-9`` as ``--tol=-1e-9``.

    argparse takes a word that starts with "-" and is not a plain
    decimal (-1e-9, -inf) for an option, and then finds the flag before
    it without a value.  Joined to its flag, the number reaches the
    config check, which reports the range error.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        word = argv[i]
        if (word in _NUMERIC_FLAGS and i + 1 < len(argv)
                and _is_negative_number(argv[i + 1])):
            out.append(f"{word}={argv[i + 1]}")
            i += 2
        else:
            out.append(word)
            i += 1
    return out


def _fail(json_mode: bool, label: str, exc: Exception, kind: str) -> None:
    if json_mode:
        doc = {"error": {"type": kind, "message": str(exc)}}
        sys.stderr.write(json.dumps(doc) + "\n")
    else:
        sys.stderr.write(f"{label}: {exc}\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_attach_negative_numbers(argv))
    except _Usage as exc:
        _fail("--json" in argv, "usage error", exc, "UsageError")
        return 2
    try:
        out = args.handler(args)
    except (LatentForestError, ValueError, KeyError, OSError,
            np.linalg.LinAlgError) as exc:
        _fail(args.json, "error", exc, type(exc).__name__)
        return 1
    sys.stdout.write(json.dumps(out) + "\n" if args.json else out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
