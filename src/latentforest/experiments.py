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

import json
import math
import numbers
from collections import Counter
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .errors import NoSuchDepth, TooFewLeaves, TooLarge
from .forests import (
    LATTICE_CLASS_BOUND,
    CanonicalForest,
    Forest,
    ModelLattice,
    _subforest_of_mask,
    build_forest,
    subforest_lattice,
)
from .gaussian import EmConfig, ModelParams, sample, suff_stats
from .selection import (
    _check_sample_size,
    _csv_text,
    pruned_chain,
    score_lattice,
)


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
    mask = ((1 << len(lattice.host.edges)) - 1) & ~(1 << 5)
    try:
        return lattice.steiner_masks.index(mask)
    except ValueError:
        raise LookupError("truth class not found; wrong host?") from None


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


def _trivalent_leaf_bound() -> int:
    """Largest m whose trivalent trees have at most LATTICE_CLASS_BOUND classes.

    Every trivalent tree with m leaves has F(2m - 1) subforest classes
    (Fibonacci, F(1) = F(2) = 1).  Root it at a leaf: a subtree with k
    leaves below an edge has F(2k - 1) Steiner masks with that edge out
    and F(2k) with it in, a leaf has 1 and 1, and joining two subtrees
    at a latent node keeps the pattern by F(i + j) = F(i) F(j + 1) +
    F(i - 1) F(j).  The root leaf adds both cases.
    """
    m, odd, even = 1, 1, 1  # F(2m - 1), F(2m)
    while odd + even <= LATTICE_CLASS_BOUND:
        m, odd, even = m + 1, odd + even, odd + 2 * even
    return m


def random_subforest_at_depth(t: Forest, depth: int, seed) -> CanonicalForest:
    """Uniform draw among the lattice classes of ``t`` at a given depth.

    Depth is the rank in the graded subforest lattice (observed nodes
    minus components), so this enumerates the lattice's masks and
    canonicalizes only the class drawn: 4181 classes in about 3 ms for
    a ten-leaf trivalent tree on a 2-core x86-64 VM.
    """
    lat = subforest_lattice(t)
    return lat.classes[_class_at_depth(lat, depth, seed)]


def _class_at_depth(lat: ModelLattice, depth: int, seed) -> int:
    """Index of a uniform draw among the classes of ``lat`` at ``depth``."""
    pool = [i for i, d in enumerate(lat.depth) if d == depth]
    if not pool:
        raise NoSuchDepth(
            f"no class at depth {depth}; lattice depths reach {max(lat.depth)}"
        )
    rng = np.random.default_rng(seed)
    return pool[int(rng.integers(len(pool)))]


# --------------------------------------------------------------------------
# experiment configuration and results

KINDS = ("lattice5", "depth_comparison")
#: Largest sample size a protocol draws.  A replicate holds its whole
#: n x p sample twice while drawing it (the normal draws and their
#: product with the Cholesky factor), 16 n p bytes; at this bound and
#: the 13 leaves of the largest admitted depth_comparison tree that is
#: about 0.2 GB.
SAMPLE_SIZE_BOUND = 10**6
# the settings a config JSON document carries, in the order written
_JSON_FIELDS = ("kind", "n_values", "replicates", "master_seed", "m", "corr")


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
        for key in ("replicates", "master_seed"):
            v = getattr(self, key)
            if type(v) is bool or not isinstance(v, numbers.Integral):
                raise ValueError(f"{key} must be an integer")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for key in ("n_values", "m"):
            values = getattr(self, key)
            listed = isinstance(values, (list, tuple))
            if not listed or bool in map(type, values) or not all(
                isinstance(v, numbers.Integral)
                or isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)
                for v in values
            ):
                raise ValueError(f"{key} must be a list of whole numbers")
            object.__setattr__(self, key, tuple(int(v) for v in values))
        if not isinstance(self.corr, numbers.Real):
            raise ValueError("corr must be a number")
        if self.replicates < 1:
            raise ValueError("replicate count must be at least 1")
        if not self.n_values or any(n <= 0 for n in self.n_values):
            raise ValueError("n values must be positive")
        _check_sample_size(min(self.n_values))
        if max(self.n_values) > SAMPLE_SIZE_BOUND:
            raise TooLarge(
                f"n = {max(self.n_values)} is above the sample size bound "
                f"{SAMPLE_SIZE_BOUND}")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n values must be strictly increasing")
        if not 0 < abs(self.corr) < 1:
            raise ValueError("edge correlation level must be in (0, 1)")

    def to_json(self) -> str:
        return json.dumps({key: getattr(self, key) for key in _JSON_FIELDS})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict) or "kind" not in d:
            raise ValueError("config must be a JSON object with a kind")
        unknown = sorted(set(d) - set(_JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{key: d[key] for key in _JSON_FIELDS if key in d})


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
        return _csv_text(("criterion", "n", "label", "count"), map(astuple, self.rows))

    def edges_csv(self) -> str:
        """Cover relations of the lattice, one ``sub,sup`` row each."""
        return _csv_text(("sub", "sup"), self.hasse)

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


def _truth_params(host: Forest, rep: Forest, corr: float) -> ModelParams:
    """Unit leaf variances and one correlation on every truth edge."""
    return ModelParams(
        leaf_var={v: 1.0 for v in host.observed},
        edge_corr={e: corr for e in rep.edges},
    )


def _run_lattice5(cfg: ExperimentConfig) -> ExperimentResult:
    host = lattice5_host()
    lat = subforest_lattice(host)
    rep = _subforest_of_mask(host, lat.steiner_masks[lattice5_truth_index(lat)])
    params = _truth_params(host, rep, cfg.corr)
    ms = cfg.master_seed
    tally: Counter[tuple[str, int, int]] = Counter()
    for n in cfg.n_values:
        for r in range(cfg.replicates):
            data = sample(rep, params, n, seed=np.random.SeedSequence([ms, r, n]))
            stats = suff_stats(data, names=rep.observed)
            em = replace(cfg.em, seed=_seed_int(ms, r, n, 1))
            table = score_lattice(lat, stats, em)
            for crit in ("bic", "sbic"):
                tally[crit, n, table.best(crit)] += 1
    codes = tuple(lat.code_string(j) for j in range(len(lat)))
    rows = tuple(
        CountRow(crit, n, code, tally[crit, n, j])
        for crit in ("bic", "sbic")
        for n in cfg.n_values
        for j, code in enumerate(codes)
    )
    return ExperimentResult(
        config=cfg, rows=rows, codes=codes, hasse=tuple(lat.covers())
    )


def _run_depth_comparison(cfg: ExperimentConfig) -> ExperimentResult:
    too_big = [m for m in cfg.m if m > _trivalent_leaf_bound()]
    if too_big:
        raise TooLarge(
            f"a trivalent tree with {too_big[0]} leaves has more than "
            f"{LATTICE_CLASS_BOUND} subforest classes"
        )
    ms = cfg.master_seed
    hits: Counter[tuple[str, int, int]] = Counter()
    for m in cfg.m:
        for r in range(cfg.replicates):
            tree = random_trivalent_tree(m, np.random.SeedSequence([ms, m, r, 0]))
            lat = subforest_lattice(tree)
            i = _class_at_depth(
                lat, (m - 1) // 2, np.random.SeedSequence([ms, m, r, 1])
            )
            truth = lat.classes[i]
            rep = _subforest_of_mask(tree, lat.steiner_masks[i])
            params = _truth_params(tree, rep, cfg.corr)
            for n in cfg.n_values:
                data = sample(
                    rep, params, n, seed=np.random.SeedSequence([ms, m, r, 2, n])
                )
                stats = suff_stats(data, names=rep.observed)
                em = replace(cfg.em, seed=_seed_int(ms, m, r, n, 3))
                res = pruned_chain(tree, stats, em)
                hits["bic", n, m] += res.selected_bic == truth
                hits["sbic", n, m] += res.selected_sbic == truth
    rows = tuple(
        CountRow(crit, n, f"m={m}", hits[crit, n, m])
        for crit in ("bic", "sbic")
        for n in cfg.n_values
        for m in cfg.m
    )
    return ExperimentResult(config=cfg, rows=rows)
