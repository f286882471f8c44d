"""The two benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__``
(the set-up that ``setup_s`` measures) and hands out jobs 0, 1, ...
``job(i)`` returns ``(job_id, kind, fn)``: ``fn`` makes the same public
library calls, in the same order, as the protocol it mirrors, wraps
each call in a span, and returns a list of failed output checks.  Jobs
of one kind do the same kind of work; ``jobs_per_s`` weighs every kind
equally.

Seeds are derived with numpy ``SeedSequence`` exactly as
``experiments.run_experiment`` derives them, so that the serial
``lattice5`` replicates and the pooled batch run by its traced pass see
the same data.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
from scipy.special import logsumexp

from latentforest import (
    EmConfig,
    ExperimentConfig,
    LaplaceConfig,
    ModelParams,
    build_forest,
    canonicalize,
    em_fit,
    h_q_monomials,
    lattice5_host,
    lattice5_truth_index,
    laplace_rlct_estimate,
    model_dimension,
    pair_rlct,
    random_trivalent_tree,
    rlct_forest_pair,
    rlct_monomial_sos,
    run_experiment,
    sample,
    sbic_all,
    steiner_subforest,
    subforest_lattice,
    suff_stats,
    zero_part_monomials,
)

N = 125
CORR = 0.6
# criterion 09 and scripts/run_lattice5.py settings
PROTOCOL_EM = EmConfig(restarts=2, max_iter=300)
TINY_EM = EmConfig(restarts=1, max_iter=5)


def seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def expected_threshold(m: int, k: int) -> tuple[Fraction, int]:
    """Zero part of a trivalent tree with m leaves and k pendant
    subdivisions against the empty pattern (acceptance criterion 06)."""
    return Fraction(m, 2), 1 + k


def _truth_params(host, rep) -> ModelParams:
    return ModelParams(
        leaf_var={v: 1.0 for v in host.observed},
        edge_corr={e: CORR for e in rep.edges},
    )


class Workload:
    """Defaults shared by the workloads."""

    min_jobs = 1

    def finish(self, trace: bool) -> tuple[list[str], int, dict[str, float]]:
        """Checks run after the timed loop: (failed checks, jobs they
        fail, extra per-layer metrics)."""
        return [], 0, {}


# --------------------------------------------------------------------------
# lattice5: serial replicates of the five-leaf selection protocol


class Lattice5(Workload):
    """Job: one replicate (sample, 34 EM fits, sBIC, best picks).

    Replicates come in batches of ``nproc`` with one master seed per
    batch.  The traced run hands batch 0 to ``run_experiment`` with
    ``threads = nproc`` and checks that the pool picks what the serial
    loop picked.
    """

    def __init__(self, seed: int, tr, tiny: bool = False):
        self.tr = tr
        self.seed = seed
        self.em = TINY_EM if tiny else PROTOCOL_EM
        self.batch = nproc()
        # 3 x 34 fits leave >= 10 em_fit samples beyond p90; the pool
        # check needs the whole of batch 0
        self.min_jobs = max(3, self.batch)
        self.picks: dict[tuple[int, int], tuple[int, int]] = {}
        with tr.span("experiments.lattice5_host"):
            self.host = lattice5_host()
        with tr.span("forests.subforest_lattice"):
            self.lat = subforest_lattice(self.host)
        tr.count("forests.subforest_lattice.classes", len(self.lat))
        with tr.span("experiments.lattice5_truth_index"):
            truth = self.lat.classes[lattice5_truth_index(self.lat)]
        with tr.span("forests.steiner_subforest"):
            self.rep = steiner_subforest(self.host, truth)
        self.params = _truth_params(self.host, self.rep)
        self.below = [self.lat.strictly_below(j) for j in range(len(self.lat))]
        # warm the pair cache as run_experiment does
        for j in range(len(self.lat)):
            for i in self.below[j] + [j]:
                with tr.span("selection.pair_rlct"):
                    pair_rlct(self.lat, i, j)

    def master(self, b: int) -> int:
        return seed_int(self.seed, b)

    def job(self, i: int):
        return str(i), 0, lambda: self.picked(*divmod(i, self.batch))

    def picked(self, b: int, r: int) -> list[str]:
        bic, sbic, problems = self.replicate(b, r)
        self.picks[b, r] = bic, sbic
        return problems

    def replicate(self, b: int, r: int):
        """Returns (bic pick, sbic pick, failed checks)."""
        tr, lat, ms, n = self.tr, self.lat, self.master(b), N
        with tr.span("gaussian.sample"):
            data = sample(
                self.rep, self.params, n, seed=np.random.SeedSequence([ms, r, n])
            )
        with tr.span("gaussian.suff_stats"):
            stats = suff_stats(data, names=self.rep.observed)
        em = replace(self.em, seed=seed_int(ms, r, n, 1))
        fits = []
        for c in lat.classes:
            with tr.span("gaussian.em_fit"):
                fit = em_fit(c, stats, em)
            tr.count("gaussian.em_fit.iters", fit.iters)
            tr.count("gaussian.em_fit.unconverged", not fit.converged)
            fits.append(fit)
        with tr.span("selection.sbic_all"):
            table = sbic_all(lat, fits, n)
        with tr.span("selection.ScoreTable.best"):
            picks = table.best("bic"), table.best("sbic")
        problems = self.check(stats, fits, table)
        return picks[0], picks[1], problems

    def check(self, stats, fits, table) -> list[str]:
        """Fitted log-likelihoods are finite and at most the saturated
        one; every sBIC value solves its quadratic."""
        n, s = stats.n, stats.second_moment
        p = s.shape[0]
        sat = -0.5 * n * (p * math.log(2 * math.pi) + np.linalg.slogdet(s)[1] + p)
        bad = [
            f"class {j}: loglik {f.loglik} vs saturated {sat}"
            for j, f in enumerate(fits)
            if not (math.isfinite(f.loglik) and f.loglik <= sat + 1e-9 * abs(sat))
        ]
        logn = math.log(n)

        def lp(i: int, j: int) -> float:
            r = pair_rlct(self.lat, i, j)
            return fits[j].loglik - 0.5 * float(r.lam) * logn + (r.mult - 1) * math.log(logn)

        xs = [row.sbic for row in table.rows]
        for j, x in enumerate(xs):
            own = lp(j, j)
            if not self.below[j]:
                if abs(x - own) > 1e-9 * max(1.0, abs(own)):
                    bad.append(f"class {j}: sbic {x} != own term {own}")
                continue
            prev = [xs[i] for i in self.below[j]]
            log_s = float(logsumexp(prev))
            log_q = float(logsumexp([lp(i, j) + xi for i, xi in zip(self.below[j], prev)]))
            # x^2 + x (S - L) - Q = 0, divided by x^2, on a common scale
            logs = [0.0, log_s - x, own - x, log_q - 2 * x]
            mu = max(logs)
            t = [math.exp(v - mu) for v in logs]
            if abs(t[0] + t[1] - t[2] - t[3]) > 1e-8 * sum(t):
                bad.append(f"class {j}: sbic {x} misses its quadratic")
        return bad

    def finish(self, trace: bool):
        """Traced runs only: run batch 0 through the replicate pool, time
        it, and compare its count tables with the serial picks."""
        if not trace:
            return [], 0, {}
        cfg = ExperimentConfig(
            kind="lattice5",
            n_values=(N,),
            replicates=self.batch,
            master_seed=self.master(0),
            corr=CORR,
            em=self.em,
        )
        self.tr.job = "pool"
        t0 = time.perf_counter()
        with self.tr.span("experiments.run_experiment"):
            res = run_experiment(cfg, threads=nproc())
        pool_s = time.perf_counter() - t0
        if any((0, r) not in self.picks for r in range(self.batch)):
            return ["batch 0 has no serial picks to compare"], self.batch, {}
        bad = []
        for col, crit in ((0, "bic"), (1, "sbic")):
            tally = {self.lat.code_string(j): 0 for j in range(len(self.lat))}
            for r in range(self.batch):
                tally[self.lat.code_string(self.picks[0, r][col])] += 1
            if res.counts(crit, N) != tally:
                bad.append(f"{crit}: pooled count table differs from serial picks")
        return bad, self.batch, {"experiments.pool_jobs_per_s": self.batch / pool_s}


# --------------------------------------------------------------------------
# symbolic: exact thresholds, lattices, canonical codes, Laplace oracle


def _subdivide_leaf_edge(tree, tag: int, rng):
    """Insert a degree-2 latent node on the edge of a random leaf."""
    leaf = str(rng.choice(sorted(tree.observed)))
    (other,) = tree.neighbors[leaf]
    w = f"s{tag}"
    edges = [tuple(sorted(e)) for e in tree.edges if leaf not in e]
    edges += [(leaf, w), tuple(sorted((w, other)))]
    nodes = [(v, v in tree.latent) for v in tree.nodes] + [(w, True)]
    return build_forest(nodes, edges)


def caterpillar(leaves: int):
    """Trivalent caterpillar: a latent spine with one leaf per node and
    two at each end."""
    names = [str(v) for v in range(1, leaves + 1)]
    spine = [f"h{i}" for i in range(1, leaves - 1)]
    edges = [(spine[0], names[0])]
    edges += [(h, names[i + 1]) for i, h in enumerate(spine)]
    edges += [(a, b) for a, b in zip(spine, spine[1:])]
    edges.append((spine[-1], names[-1]))
    return build_forest(
        [(v, False) for v in names] + [(h, True) for h in spine], edges
    )


# (leaves, pendant subdivisions) of the symbolic engine systems
ENGINE_PLAN = ((5, 1), (5, 2), (6, 1), (6, 2), (7, 0), (7, 1), (8, 0))
TINY_ENGINE_PLAN = ((4, 1), (5, 2))


class Symbolic(Workload):
    """Job: one item of a fixed mix with no data.  Jobs cycle through
    the mix, and each item is its own kind, so every run weighs the
    items the same whichever item it stops after.

    The engine items are zero parts of trivalent trees against the empty
    pattern, at criterion 06 sizes (``ENGINE_PLAN``).  The mix is fixed:
    item i uses the library's random tree for generator seed i, and only
    the Laplace sampling seed comes from the workload seed.  Hull time
    depends strongly on tree shape, subdivision placement and edge order
    (6.5 to 12 s across m = 8 trees), and canonicalize time on the leaf
    labels (0.9 to 1.7 s for a shuffled 200-leaf caterpillar), so
    seed-drawn inputs would swamp the run-to-run spread.
    """

    def __init__(self, seed: int, tr, tiny: bool = False):
        self.tr = tr
        self.items = []
        for i, (m, k) in enumerate(TINY_ENGINE_PLAN if tiny else ENGINE_PLAN):
            with tr.span("experiments.random_trivalent_tree"):
                tree = random_trivalent_tree(m, i)
            rng = np.random.default_rng(i)
            with tr.span("forests.build_forest"):
                for j in range(k):
                    tree = _subdivide_leaf_edge(tree, j, rng)
            self.items.append(partial(self.engine_item, m, k, tree, self._empty(tree)))
        for m in (5, 6) if tiny else (7, 8):
            with tr.span("experiments.random_trivalent_tree"):
                tree = random_trivalent_tree(m, m)
            self.items.append(partial(self.lattice_item, m, tree))
        with tr.span("forests.build_forest"):
            self.items.append(partial(self.canonicalize_item, caterpillar(20 if tiny else 200)))
        with tr.span("forests.build_forest"):
            star = build_forest(
                [("1", False), ("2", False), ("3", False), ("h", True)],
                [("h", "1"), ("h", "2"), ("h", "3")],
            )
        with tr.span("gaussian.h_q_monomials"):
            sos = h_q_monomials(star, np.eye(3))
        self.items.append(partial(self.laplace_item, sos, LaplaceConfig(seed=seed_int(seed, 10))))

    def _empty(self, tree):
        with self.tr.span("forests.build_forest"):
            return build_forest([(v, False) for v in tree.observed], [])

    @property
    def min_jobs(self) -> int:
        return len(self.items)

    def job(self, i: int):
        c, k = divmod(i, len(self.items))
        return f"{c}.{k}", k, self.items[k]

    def engine_item(self, m, k, tree, empty) -> list[str]:
        tr = self.tr
        with tr.span("forest_rlct.zero_part_monomials"):
            sos = zero_part_monomials(tree, empty)
        with tr.span("engine.rlct_monomial_sos", tag=f"m{m}"):
            got = rlct_monomial_sos(sos)
        with tr.span("forest_rlct.rlct_forest_pair"):
            pair = rlct_forest_pair(tree, empty)
        with tr.span("forests.model_dimension"):
            dim = model_dimension(empty)
        bad = []
        want = expected_threshold(m, k)
        if (got.lam, got.mult) != want:
            bad.append(f"m={m} k={k}: engine {got}, expected {want}")
        if (pair.lam - dim, pair.mult) != (got.lam, got.mult):
            bad.append(f"m={m} k={k}: closed form {pair} - {dim} != engine {got}")
        return bad

    def lattice_item(self, m, tree) -> list[str]:
        with self.tr.span("forests.subforest_lattice"):
            lat = subforest_lattice(tree)
        self.tr.count("forests.subforest_lattice.classes", len(lat))
        want = fib(2 * m - 1)
        return [] if len(lat) == want else [f"m={m}: {len(lat)} classes, expected {want}"]

    def canonicalize_item(self, f) -> list[str]:
        with self.tr.span("forests.canonicalize"):
            once = canonicalize(f)
        with self.tr.span("forests.canonicalize"):
            twice = canonicalize(once.forest)
        return [] if twice.code == once.code else ["canonicalize is not idempotent"]

    def laplace_item(self, sos, cfg) -> list[str]:
        with self.tr.span("laplace.laplace_rlct_estimate"):
            est = laplace_rlct_estimate(sos, cfg=cfg)
        ok = abs(est.lambda_hat - 4.5) <= 0.2 * 4.5
        return [] if ok else [f"Laplace lambda {est.lambda_hat} not within 20% of 9/2"]


WORKLOADS = {
    "lattice5": Lattice5,
    "symbolic": Symbolic,
}
