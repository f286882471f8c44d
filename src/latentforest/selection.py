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
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .engine import Rlct
from .errors import NotComparable, NotInLattice, TooFewSamples
from .forest_rlct import _mask_rlct
from .forests import (
    CanonicalForest,
    Forest,
    ModelLattice,
    _as_forest,
    canonicalize,
    model_dimension,
    subforest_lattice,
)
from .gaussian import EmConfig, ModelParams, SufficientStats, em_fit


def bic(loglik_hat: float, dim: int, n: int) -> float:
    """Bayesian information criterion on the log scale used throughout:
    fitted log-likelihood minus (dim/2) log n, for n >= 1."""
    if n < 1:
        raise TooFewSamples(f"BIC needs n >= 1 samples, got n = {n}")
    return loglik_hat - 0.5 * dim * math.log(n)


def pair_rlct(lattice: ModelLattice, sub: int, sup: int) -> Rlct:
    """Learning coefficient of class ``sub`` inside class ``sup``.

    Both arguments are lattice indices with sub <= sup in the lattice
    order.  The closed form is read off the two Steiner masks in the
    host, and no forest is built: the superclass is its mask with the
    degree-two chains intact, which is the parameter space its model
    actually uses there, and the subclass mask lies inside that one.
    Results are memoized on ``lattice.rlct_cache``.  An index that is
    not an integer in 0..len(lattice) - 1 raises ``NotInLattice``.
    """
    for i in (sub, sup):
        # a Python int skips the slower ABC check
        if not ((type(i) is int or isinstance(i, numbers.Integral))
                and 0 <= i < len(lattice)):
            raise NotInLattice(f"class index {i!r} is outside 0..{len(lattice) - 1}")
    if not lattice.leq(sub, sup):
        raise NotComparable(
            f"class {sub} is not below class {sup} in the lattice"
        )
    out = lattice.rlct_cache.get((sub, sup))
    if out is None:
        out = lattice.rlct_cache[sub, sup] = _mask_rlct(
            lattice.host, lattice.steiner_masks[sup],
            lattice.steiner_masks[sub], lattice.dims[sub])
    return out


def _check_sample_size(n: int) -> None:
    if n < 2:
        raise TooFewSamples(f"sBIC needs n >= 2 samples, got n = {n}")


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
    _check_sample_size(n)
    r = pair_rlct(lattice, sub, sup)
    logn = math.log(n)
    return (
        loglik_hat_sup
        - 0.5 * float(r.lam) * logn
        + (r.mult - 1) * math.log(logn)
    )


def _logsumexp(a) -> float:
    """log(sum(exp(a))) of a nonempty sequence, by scipy 1.15's algorithm
    (and to its last bit): the maxima are counted and kept out of the
    shifted sum.  An infinite or NaN maximum takes the direct formula."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    if not np.isfinite(top):
        with np.errstate(divide="ignore"):
            return float(np.log(np.exp(a).sum()))
    ties = a == top
    m = np.count_nonzero(ties)
    rest = np.exp(np.where(ties, -np.inf, a) - top).sum()
    return float(np.log1p(rest / m) + np.log(m) + top)


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
        log_s = _logsumexp(prev)
        log_q = _logsumexp([lp(i, j) + x for i, x in zip(bel, prev)])
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
    #: EM maps and convergence of the class's fit, when a fit object gave them
    iters: int | None = None
    converged: bool | None = None


def _csv_text(header, rows) -> str:
    """A header row and data rows as CSV text with newline line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


# the columns of a table's CSV and of its JSON rows, in order
_ROW_FIELDS = ("index", "code", "dim", "loglik", "bic", "sbic")
# fields a JSON row carries after those, only when the row has them
_FIT_FIELDS = ("iters", "converged")


def _row_json(r: ScoreRow) -> dict:
    doc = {k: getattr(r, k) for k in _ROW_FIELDS}
    doc.update(
        (k, getattr(r, k)) for k in _FIT_FIELDS if getattr(r, k) is not None
    )
    return doc


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
        return json.dumps([_row_json(r) for r in self.rows])

    def to_csv(self) -> str:
        return _csv_text(
            _ROW_FIELDS, ([getattr(r, k) for k in _ROW_FIELDS] for r in self.rows)
        )


def _aligned(fits, count: int) -> list:
    """fits as a list aligned with the class indices 0..count-1."""
    if isinstance(fits, Mapping):
        if set(fits) != set(range(count)):
            raise ValueError("fits mapping must cover every class index")
        return [fits[j] for j in range(count)]
    out = list(fits)
    if len(out) != count:
        raise ValueError(
            f"got {len(out)} fitted values for {count} classes"
        )
    return out


def _as_logliks(fits, count: int) -> list[float]:
    return [float(getattr(x, "loglik", x)) for x in _aligned(fits, count)]


def sbic_all(lattice: ModelLattice, fits, n: int) -> ScoreTable:
    """Score every lattice class by BIC and sBIC.

    ``fits`` holds the fitted log-likelihood of each class (a sequence
    aligned with class indices, a mapping from index, or objects with a
    ``loglik`` attribute).  Fit objects that also carry ``params``,
    ``iters`` and ``converged``, such as :class:`EmResult`, pass them to
    the rows.
    The class indexing of the lattice is a linear extension of its
    order, which is what the solver needs.
    """
    _check_sample_size(n)
    k = len(lattice)
    items = _aligned(fits, k)
    lls = _as_logliks(items, k)
    below = [lattice.strictly_below(j) for j in range(k)]

    def lp(i: int, j: int) -> float:
        return log_lprime(lattice, i, j, lls[j], n)

    xs = _solve_sbic(below, lp)
    rows = tuple(
        ScoreRow(
            index=j,
            code=lattice.code_string(j),
            dim=lattice.dims[j],
            loglik=lls[j],
            bic=bic(lls[j], lattice.dims[j], n),
            sbic=xs[j],
            params=getattr(items[j], "params", None),
            iters=getattr(items[j], "iters", None),
            converged=getattr(items[j], "converged", None),
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
    _check_sample_size(stats.n)
    fits = [em_fit(c, stats, config) for c in lattice.classes]
    return sbic_all(lattice, fits, stats.n)


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
    _check_sample_size(n)
    host_f = _as_forest(host)
    cur = canonicalize(host_f)
    res = em_fit(cur, stats, cfg)
    runs = {e: 1 << b for b, e in enumerate(host_f.edges)}
    chain, masks, fits = [], [], []
    while True:
        # host edge mask of the (disjoint) run behind each edge of ``cur``
        runs = {e: sum(runs[s] for s in src)
                for e, src in zip(cur.forest.edges, cur.edge_sources)}
        chain.append(cur)
        masks.append(sum(runs.values()))
        fits.append(res)
        if not cur.forest.edges:
            break
        best = None
        for k in range(len(cur.forest.edges)):
            cand = canonicalize(_drop_edge(cur.forest, k))
            res = em_fit(
                cand, stats, cfg, init=_warm_start(cand, fits[-1].params)
            )
            dim = model_dimension(cand)
            key = (-bic(res.loglik, dim, n), dim, cand.code)
            if best is None or key < best[0]:
                best = (key, cand, res)
        _, cur, res = best

    # score the chain as a totally ordered lattice, bottom up
    size = len(chain)
    lat = ModelLattice(host_f, tuple(masks[::-1]))
    scored = sbic_all(lat, fits[::-1], n)
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

