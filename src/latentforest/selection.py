"""Model selection over subforest lattices.

Scores every class of a lattice (or of a pruning chain) by BIC and by
the singular BIC, which replaces the dimension penalty with learning
coefficients of comparable model pairs and couples the classes through
a lower triangular system of quadratic equations.  The solver works on
log scale so that sample sizes in the millions do not underflow.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .engine import Rlct
from .errors import NotComparable, TooFewLeaves
from .forest_rlct import rlct_forest_pair
from .forests import (
    CanonicalForest,
    Forest,
    ModelLattice,
    _as_forest,
    build_forest,
    canonicalize,
    connected_observed_pairs,
    model_dimension,
    q_forest,
    steiner_subforest,
    subforest_lattice,
    _fresh_latent_names,
)
from .gaussian import EmConfig, ModelParams, SufficientStats, em_fit


def bic(loglik_hat: float, dim: int, n: int) -> float:
    """Bayesian information criterion on the log scale used throughout:
    fitted log-likelihood minus (dim/2) log n."""
    return loglik_hat - 0.5 * dim * math.log(n)


def pair_rlct(lattice: ModelLattice, sub: int, sup: int) -> Rlct:
    """Learning coefficient of class ``sub`` inside class ``sup``.

    Both arguments are lattice indices with sub <= sup in the lattice
    order.  The pair is evaluated on the Steiner representative of the
    superclass inside the host (degree-two chains intact), which is the
    parameter space the superclass model actually uses there.  Results
    are memoized on ``lattice.rlct_cache``.
    """
    if not lattice.leq(sub, sup):
        raise NotComparable(
            f"class {sub} is not below class {sup} in the lattice"
        )
    key = (sub, sup)
    hit = lattice.rlct_cache.get(key)
    if hit is not None:
        return hit
    rep = steiner_subforest(lattice.host, lattice.classes[sup])
    pat = connected_observed_pairs(lattice.classes[sub].forest)
    out = rlct_forest_pair(rep, q_forest(rep, pat))
    lattice.rlct_cache[key] = out
    return out


def log_lprime(
    lattice: ModelLattice, sub: int, sup: int, loglik_hat_sup: float, n: int
) -> float:
    """Log of the marginal likelihood approximation L'(sub | sup).

    This is the fitted log-likelihood of the superclass with the BIC
    penalty replaced by the (lambda, mult) pair of the sub-in-sup
    singularity.  With sub == sup it reproduces :func:`bic` exactly,
    including in floating point, because lambda is then the integer
    model dimension and mult is one.
    """
    r = pair_rlct(lattice, sub, sup)
    logn = math.log(n)
    return (
        loglik_hat_sup
        - 0.5 * float(r.lam) * logn
        + (r.mult - 1) * math.log(logn)
    )


def _solve_sbic(below: Sequence[Sequence[int]], lp) -> list[float]:
    """Solve the coupled sBIC equations bottom up, on log scale.

    ``below[j]`` lists the indices strictly below j; indices must be a
    linear extension of the order (every entry of below[j] is < j).
    ``lp(i, j)`` returns log L'(i | j).  Element j solves

        x_j^2 + x_j (S_j - L_j) - Q_j = 0,
        S_j = sum_{i<j} x_i,  Q_j = sum_{i<j} L'(i|j) x_i,  L_j = L'(j|j)

    for its positive root x_j; the returned values are log x_j.  After
    shifting by mu = max(log L, log S, log Q / 2) every scaled quantity
    is at most one, and the conjugate form of the quadratic formula is
    used when the linear coefficient is positive, so the solution is
    accurate even when L, S and Q span hundreds of orders of magnitude.
    """
    xs: list[float] = []
    for j in range(len(below)):
        own = lp(j, j)
        bel = list(below[j])
        if not bel:
            xs.append(own)
            continue
        prev = [xs[i] for i in bel]
        log_s = float(logsumexp(prev))
        log_q = float(logsumexp([lp(i, j) + x for i, x in zip(bel, prev)]))
        mu = max(own, log_s, 0.5 * log_q)
        a = math.exp(own - mu)
        b = math.exp(log_s - mu)
        c = math.exp(log_q - 2.0 * mu)
        if a >= b:
            root = 0.5 * ((a - b) + math.sqrt((a - b) ** 2 + 4.0 * c))
        else:
            root = 2.0 * c / ((b - a) + math.sqrt((b - a) ** 2 + 4.0 * c))
        if root > 0.0:
            xs.append(mu + math.log(root))
        elif b > a:
            # a and c both underflowed at scale mu; to first order the
            # root is Q / (S - L), which is still representable in logs
            xs.append(log_q - mu - math.log(b - a))
        else:
            # S cancels L exactly, leaving x^2 = Q
            xs.append(0.5 * log_q)
    return xs


@dataclass(frozen=True)
class ScoreRow:
    index: int
    code: str
    dim: int
    loglik: float
    bic: float
    sbic: float
    params: ModelParams | None = None


@dataclass(frozen=True)
class ScoreTable:
    """Per-class scores, aligned with the indexing of their source."""

    n: int
    rows: tuple[ScoreRow, ...]

    def best(self, criterion: str = "sbic") -> int:
        """Index of the highest scoring row.

        Ties go to the smaller model dimension, then to the smaller
        code string, so the answer does not depend on row order.
        """
        crit = criterion.lower()
        if crit not in ("bic", "sbic"):
            raise ValueError(f"unknown criterion {criterion!r}")
        return min(
            self.rows, key=lambda r: (-getattr(r, crit), r.dim, r.code)
        ).index

    def row(self, index: int) -> ScoreRow:
        for r in self.rows:
            if r.index == index:
                return r
        raise KeyError(index)

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "index": r.index,
                    "code": r.code,
                    "dim": r.dim,
                    "loglik": r.loglik,
                    "bic": r.bic,
                    "sbic": r.sbic,
                }
                for r in self.rows
            ]
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["index", "code", "dim", "loglik", "bic", "sbic"])
        for r in self.rows:
            w.writerow(
                [r.index, r.code, r.dim, repr(r.loglik), repr(r.bic), repr(r.sbic)]
            )
        return buf.getvalue()


def _as_logliks(fits, count: int) -> list[float]:
    def val(x) -> float:
        return float(getattr(x, "loglik", x))

    if isinstance(fits, Mapping):
        if set(fits) != set(range(count)):
            raise ValueError("fits mapping must cover every class index")
        return [val(fits[j]) for j in range(count)]
    out = [val(x) for x in fits]
    if len(out) != count:
        raise ValueError(
            f"got {len(out)} fitted values for {count} classes"
        )
    return out


def sbic_all(
    lattice: ModelLattice,
    fits,
    n: int,
    params: Sequence[ModelParams | None] | None = None,
) -> ScoreTable:
    """Score every lattice class by BIC and sBIC.

    ``fits`` holds the fitted log-likelihood of each class (a sequence
    aligned with class indices, a mapping from index, or objects with a
    ``loglik`` attribute).  The class indexing of the lattice is a
    linear extension of its order, which is what the solver needs.
    """
    k = len(lattice.classes)
    lls = _as_logliks(fits, k)
    dims = [model_dimension(c) for c in lattice.classes]
    below = [lattice.strictly_below(j) for j in range(k)]

    def lp(i: int, j: int) -> float:
        return log_lprime(lattice, i, j, lls[j], n)

    xs = _solve_sbic(below, lp)
    rows = tuple(
        ScoreRow(
            index=j,
            code=lattice.code_string(j),
            dim=dims[j],
            loglik=lls[j],
            bic=bic(lls[j], dims[j], n),
            sbic=xs[j],
            params=None if params is None else params[j],
        )
        for j in range(k)
    )
    return ScoreTable(n=n, rows=rows)


def score_lattice(
    lattice: ModelLattice,
    stats: SufficientStats,
    config: EmConfig | None = None,
) -> ScoreTable:
    """Fit every class of the lattice by EM and score the results."""
    fits = [em_fit(c, stats, config) for c in lattice.classes]
    return sbic_all(
        lattice,
        [f.loglik for f in fits],
        stats.n,
        params=[f.params for f in fits],
    )


def select_exhaustive(
    host: Forest,
    stats: SufficientStats,
    criterion: str = "sbic",
    config: EmConfig | None = None,
    lattice: ModelLattice | None = None,
) -> tuple[CanonicalForest, ScoreTable]:
    """Pick the best subforest class of ``host`` by full enumeration."""
    lat = lattice if lattice is not None else subforest_lattice(host)
    table = score_lattice(lat, stats, config)
    return lat.classes[table.best(criterion)], table


# --------------------------------------------------------------------------
# starting trees


def initial_tree(
    stats: SufficientStats,
    names: Sequence[str] | None = None,
    config: EmConfig | None = None,
) -> Forest:
    """Build a trivalent starting tree from sample correlations.

    Neighbor joining on the distances d(v, w) = -log |r_vw| (absolute
    correlations floored at 1e-3 so unrelated columns stay at finite
    distance) gives the topology; one pass of nearest neighbor
    interchanges, scored by EM log-likelihood, cleans up local errors.
    """
    if names is None:
        names = stats.names
    s = np.asarray(stats.second_moment, dtype=float)
    if names is None:
        names = tuple(str(i) for i in range(s.shape[0]))
    names = [str(v) for v in names]
    p = len(names)
    if p < 3:
        raise TooFewLeaves(f"need at least 3 observed nodes, got {p}")
    if s.shape != (p, p):
        raise ValueError("second moment shape does not match names")

    d = np.sqrt(np.diag(s))
    r = s / np.outer(d, d)
    dist = -np.log(np.clip(np.abs(r), 1e-3, 1.0))
    np.fill_diagonal(dist, 0.0)

    hidden = _fresh_latent_names(names, max(p - 2, 1))
    nodes = [(v, False) for v in names] + [(h, True) for h in hidden]
    edges: list[tuple[str, str]] = []
    active = list(names)
    dmat = {
        (u, v): float(dist[i, j])
        for i, u in enumerate(names)
        for j, v in enumerate(names)
    }
    nxt = 0
    while len(active) > 3:
        k = len(active)
        tot = {u: sum(dmat[u, v] for v in active if v != u) for u in active}
        best = None
        for i in range(k):
            for j in range(i + 1, k):
                u, v = active[i], active[j]
                q = (k - 2) * dmat[u, v] - tot[u] - tot[v]
                if best is None or q < best[0] - 1e-12:
                    best = (q, u, v)
        _, u, v = best
        h = hidden[nxt]
        nxt += 1
        edges += [(h, u), (h, v)]
        duv = dmat[u, v]
        for w in active:
            if w in (u, v):
                continue
            dmat[h, w] = dmat[w, h] = 0.5 * (
                dmat[u, w] + dmat[v, w] - duv
            )
        dmat[h, h] = 0.0
        active = [w for w in active if w not in (u, v)] + [h]
    h = hidden[nxt]
    edges += [(h, w) for w in active]

    tree = build_forest(nodes, edges)
    return _nni_pass(tree, stats, config or EmConfig())


def _nni_pass(tree: Forest, stats: SufficientStats, cfg: EmConfig) -> Forest:
    """One sweep of nearest neighbor interchanges, keeping improvements."""
    best_ll = em_fit(tree, stats, cfg).loglik
    internal = [e for e in tree.edges if all(v in tree.latent for v in e)]
    for e in internal:
        x, y = sorted(e)
        nbx = [w for w in tree.neighbors[x] if w != y]
        nby = [w for w in tree.neighbors[y] if w != x]
        if len(nbx) != 2 or len(nby) != 2:
            continue
        step = None
        for swap in (0, 1):
            a, b = nbx[1], nby[swap]
            new_edges = []
            for u, v in [tuple(sorted(ed)) for ed in tree.edges]:
                pair = {u, v}
                if pair == {x, a}:
                    new_edges.append((x, b))
                elif pair == {y, b}:
                    new_edges.append((y, a))
                else:
                    new_edges.append((u, v))
            cand = build_forest(
                [(v, v in tree.latent) for v in tree.nodes], new_edges
            )
            ll = em_fit(cand, stats, cfg).loglik
            if ll > best_ll + 1e-7 and (step is None or ll > step[0]):
                step = (ll, cand)
        if step is not None:
            best_ll, tree = step
    return tree


# --------------------------------------------------------------------------
# greedy pruning chain


@dataclass(frozen=True)
class ChainResult:
    """A maximal pruning chain with its scores.

    ``chain`` runs from the full host class down to the empty forest;
    ``table`` rows are aligned with chain positions.
    """

    chain: tuple[CanonicalForest, ...]
    table: ScoreTable
    selected_bic: CanonicalForest
    selected_sbic: CanonicalForest


def _drop_edge(f: Forest, k: int) -> Forest:
    return Forest(
        nodes=f.nodes, latent=f.latent, edges=f.edges[:k] + f.edges[k + 1 :]
    )


def _warm_start(
    cls: CanonicalForest, parent: ModelParams
) -> ModelParams:
    """Transfer fitted parameters along one pruning step.

    Each edge of the canonical child is a merged run of parent edges
    (recorded in ``edge_sources``), so its warm correlation is the
    product of the parent correlations along the run.
    """
    corr = {}
    for e, sources in zip(cls.forest.edges, cls.edge_sources):
        val = 1.0
        for src in sources:
            val *= parent.edge_corr[src]
        corr[e] = val
    leaf_var = {v: parent.leaf_var[v] for v in cls.forest.observed}
    return ModelParams(leaf_var=leaf_var, edge_corr=corr)


def pruned_chain(
    host: Forest,
    stats: SufficientStats,
    config: EmConfig | None = None,
) -> ChainResult:
    """Greedy backward pruning from ``host`` down to the empty forest.

    Every step refits all single edge removals of the current canonical
    representative (EM warm started from the parent fit) and keeps the
    one with the best BIC, always descending even when the score drops,
    so the chain is maximal.  The chain is then scored as a totally
    ordered lattice by BIC and sBIC.
    """
    cfg = config or EmConfig()
    n = stats.n
    top = canonicalize(_as_forest(host))
    fit = em_fit(top, stats, cfg)
    chain: list[CanonicalForest] = [top]
    lls: list[float] = [fit.loglik]
    fitted: list[ModelParams] = [fit.params]
    cur, cur_params = top, fit.params
    while cur.forest.edges:
        best = None
        for k in range(len(cur.forest.edges)):
            cand = canonicalize(_drop_edge(cur.forest, k))
            res = em_fit(
                cand, stats, cfg, init=_warm_start(cand, cur_params)
            )
            dim = model_dimension(cand)
            key = (-bic(res.loglik, dim, n), dim, cand.code)
            if best is None or key < best[0]:
                best = (key, cand, res)
        _, cur, res = best
        cur_params = res.params
        chain.append(cur)
        lls.append(res.loglik)
        fitted.append(cur_params)

    # score the chain as a totally ordered lattice, bottom up
    size = len(chain)
    host_f = _as_forest(host)
    bottom_up = chain[::-1]
    reps = [steiner_subforest(host_f, c).edge_set for c in bottom_up]
    lat = ModelLattice(
        host=host_f,
        classes=tuple(bottom_up),
        steiner_masks=tuple(
            sum(1 << b for b, e in enumerate(host_f.edges) if e in rep)
            for rep in reps
        ),
        below=tuple((1 << (j + 1)) - 1 for j in range(size)),
        depth=tuple(range(size)),
    )
    scored = sbic_all(lat, lls[::-1], n, params=fitted[::-1])
    table = ScoreTable(
        n=n,
        rows=tuple(
            replace(scored.rows[size - 1 - pos], index=pos)
            for pos in range(size)
        ),
    )
    return ChainResult(
        chain=tuple(chain),
        table=table,
        selected_bic=chain[table.best("bic")],
        selected_sbic=chain[table.best("sbic")],
    )

