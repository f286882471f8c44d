"""Simulation studies over latent forest lattices.

Two ready-made protocols are provided: ``lattice5`` repeats exhaustive
BIC/sBIC selection over the 34 subforest classes of a fixed five leaf
tree, with data drawn from a truth that sits strictly inside the
lattice; ``depth_comparison`` draws random trivalent trees, plants a
truth class at half depth, and checks whether greedy chain pruning
recovers it exactly.  Replicates run one after another in a single
thread; every replicate derives its own seed from the master seed, so
results depend only on the configuration.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoSuchDepth, TooFewLeaves
from .forests import (
    CanonicalForest,
    Forest,
    ModelLattice,
    build_forest,
    steiner_subforest,
    subforest_lattice,
)
from .gaussian import EmConfig, ModelParams, covariance, sample, suff_stats
from .selection import em_fit, pruned_chain, sbic_all


def lattice5_host() -> Forest:
    """The five leaf trivalent tree used by the lattice5 protocol."""
    return build_forest(
        [(str(i), False) for i in range(1, 6)]
        + [(v, True) for v in ("a", "b", "c")],
        [
            ("a", "b"),
            ("a", "5"),
            ("a", "1"),
            ("b", "4"),
            ("b", "c"),
            ("3", "c"),
            ("2", "c"),
        ],
    )


def lattice5_truth_index(lattice: ModelLattice) -> int:
    """Index of the data generating class: the host minus its 3--c edge."""
    mask = (1 << len(lattice.host.edges)) - 1
    mask &= ~(1 << 5)
    for i, m in enumerate(lattice.steiner_masks):
        if m == mask:
            return i
    raise LookupError("truth class not found; wrong host?")


def random_trivalent_tree(m: int, seed) -> Forest:
    """Random tree with ``m`` observed leaves and all latent degrees 3.

    Grown by leaf attachment: start from the 3-star, then repeatedly
    subdivide a uniformly chosen edge with a fresh latent node and hang
    the next leaf on it.  Deterministic in ``seed``.
    """
    if m < 3:
        raise TooFewLeaves(f"need at least 3 leaves, got {m}")
    rng = np.random.default_rng(seed)
    leaves = [str(i) for i in range(1, m + 1)]
    hidden = [f"h{i}" for i in range(1, m - 1)]
    edges: list[tuple[str, str]] = [("h1", leaves[0]), ("h1", leaves[1]),
                                    ("h1", leaves[2])]
    for k in range(3, m):
        u, v = edges.pop(int(rng.integers(len(edges))))
        h = hidden[k - 2]
        edges += [(u, h), (h, v), (h, leaves[k])]
    nodes = [(v, False) for v in leaves] + [(h, True) for h in hidden]
    return build_forest(nodes, edges)


def random_subforest_at_depth(t: Forest, depth: int, seed) -> CanonicalForest:
    """Uniform draw among the lattice classes of ``t`` at a given depth.

    Depth is the longest-chain rank in the full subforest lattice, so
    this enumerates the lattice; keep the tree at a dozen leaves or so.
    """
    lat = subforest_lattice(t)
    pool = [i for i, d in enumerate(lat.depth) if d == depth]
    if not pool:
        raise NoSuchDepth(
            f"no class at depth {depth}; lattice depths reach {max(lat.depth)}"
        )
    rng = np.random.default_rng(seed)
    return lat.classes[pool[int(rng.integers(len(pool)))]]


# --------------------------------------------------------------------------
# experiment configuration and results

KINDS = ("lattice5", "depth_comparison")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for :func:`run_experiment`.

    ``replicates`` counts runs per cell: datasets per sample size for
    lattice5, random trees per leaf count for depth_comparison.
    """

    kind: str
    n_values: tuple[int, ...] = (125,)
    replicates: int = 100
    master_seed: int = 0
    m: tuple[int, ...] = (6, 8)
    corr: float = 0.6
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        if self.replicates < 1:
            raise ValueError("replicate count must be at least 1")
        if not self.n_values or any(n <= 0 for n in self.n_values):
            raise ValueError("n values must be positive")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n values must be strictly increasing")
        if not 0 < abs(self.corr) < 1:
            raise ValueError("edge correlation level must be in (0, 1)")

    def to_json(self) -> str:
        d = {
            "kind": self.kind,
            "n_values": list(self.n_values),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "m": list(self.m),
            "corr": self.corr,
        }
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        kw = {}
        for key in ("kind", "n_values", "replicates", "master_seed", "m", "corr"):
            if key in d:
                kw[key] = d[key]
        if "n_values" in kw:
            kw["n_values"] = tuple(kw["n_values"])
        if "m" in kw:
            kw["m"] = tuple(kw["m"])
        return cls(**kw)


@dataclass(frozen=True)
class CountRow:
    criterion: str
    n: int
    label: str
    count: int


@dataclass(frozen=True)
class ExperimentResult:
    """Selection counts plus, for lattice runs, the lattice layout."""

    config: ExperimentConfig
    rows: tuple[CountRow, ...]
    codes: tuple[str, ...] = ()
    hasse: tuple[tuple[int, int], ...] = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["criterion", "n", "label", "count"])
        for r in self.rows:
            w.writerow([r.criterion, r.n, r.label, r.count])
        return buf.getvalue()

    def edges_csv(self) -> str:
        """Cover relations of the lattice, one ``sub,sup`` row each."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["sub", "sup"])
        for i, j in self.hasse:
            w.writerow([i, j])
        return buf.getvalue()

    def counts(self, criterion: str, n: int) -> dict[str, int]:
        return {
            r.label: r.count
            for r in self.rows
            if r.criterion == criterion and r.n == n
        }


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run a built-in protocol; see the module doc for what each does.

    Replicates run serially, each on a seed derived from the master
    seed and its replicate index.  ``threads`` is accepted for
    compatibility and ignored.
    """
    if cfg.kind == "lattice5":
        return _run_lattice5(cfg)
    return _run_depth_comparison(cfg)


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _run_lattice5(cfg: ExperimentConfig) -> ExperimentResult:
    host = lattice5_host()
    lat = subforest_lattice(host)
    truth = lat.classes[lattice5_truth_index(lat)]
    rep_forest = steiner_subforest(host, truth)
    params = ModelParams(
        leaf_var={v: 1.0 for v in host.observed},
        edge_corr={e: cfg.corr for e in rep_forest.edges},
    )

    def one(job: tuple[int, int]) -> tuple[int, int, int, int]:
        r, n = job
        data = sample(
            rep_forest, params, n, seed=np.random.SeedSequence([cfg.master_seed, r, n])
        )
        stats = suff_stats(data, names=rep_forest.observed)
        em = replace(cfg.em, seed=_seed_int(cfg.master_seed, r, n, 1))
        fits = [em_fit(c, stats, em) for c in lat.classes]
        table = sbic_all(lat, fits, n)
        return (r, n, table.best("bic"), table.best("sbic"))

    jobs = [(r, n) for n in cfg.n_values for r in range(cfg.replicates)]
    picks = [one(job) for job in jobs]

    tally: dict[tuple[str, int, int], int] = {}
    for _, n, b, s in picks:
        tally[("bic", n, b)] = tally.get(("bic", n, b), 0) + 1
        tally[("sbic", n, s)] = tally.get(("sbic", n, s), 0) + 1
    k = len(lat.classes)
    rows = tuple(
        CountRow(crit, n, lat.code_string(j), tally.get((crit, n, j), 0))
        for crit in ("bic", "sbic")
        for n in cfg.n_values
        for j in range(k)
    )
    return ExperimentResult(
        config=cfg,
        rows=rows,
        codes=tuple(lat.code_string(j) for j in range(k)),
        hasse=tuple(lat.covers()),
    )


def _run_depth_comparison(cfg: ExperimentConfig) -> ExperimentResult:
    def one(job: tuple[int, int]) -> list[tuple[str, int, str, bool]]:
        m, r = job
        tree = random_trivalent_tree(
            m, np.random.SeedSequence([cfg.master_seed, m, r, 0])
        )
        truth = random_subforest_at_depth(
            tree, (m - 1) // 2, np.random.SeedSequence([cfg.master_seed, m, r, 1])
        )
        rep_forest = steiner_subforest(tree, truth)
        params = ModelParams(
            leaf_var={v: 1.0 for v in tree.observed},
            edge_corr={e: cfg.corr for e in rep_forest.edges},
        )
        out = []
        for n in cfg.n_values:
            data = sample(
                rep_forest,
                params,
                n,
                seed=np.random.SeedSequence([cfg.master_seed, m, r, 2, n]),
            )
            stats = suff_stats(data, names=rep_forest.observed)
            em = replace(cfg.em, seed=_seed_int(cfg.master_seed, m, r, n, 3))
            res = pruned_chain(tree, stats, em)
            out.append((f"m={m}", n, "bic", res.selected_bic == truth))
            out.append((f"m={m}", n, "sbic", res.selected_sbic == truth))
        return out

    jobs = [(m, r) for m in cfg.m for r in range(cfg.replicates)]
    results = [one(job) for job in jobs]

    tally: dict[tuple[str, int, str], int] = {}
    for chunk in results:
        for label, n, crit, hit in chunk:
            key = (crit, n, label)
            tally[key] = tally.get(key, 0) + int(hit)
    rows = tuple(
        CountRow(crit, n, f"m={m}", tally.get((crit, n, f"m={m}"), 0))
        for crit in ("bic", "sbic")
        for n in cfg.n_values
        for m in cfg.m
    )
    return ExperimentResult(config=cfg, rows=rows)
