"""Gaussian latent forest models: covariances, likelihoods, EM fitting.

Parameters of a latent forest model are one variance per observed node
and one correlation per edge; latent nodes have variance one.  The
correlation between any two nodes is the product of edge correlations
along the path joining them (zero across components), so the model
covariance is D R D with D the diagonal of root variances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .engine import MonomialSos
from .errors import NotPositiveDefinite, UnrealizablePattern, UnknownNode
from .forests import Edge, Forest, _as_forest, edge

#: The M-step keeps every edge correlation inside [-1 + CORR_CLAMP,
#: 1 - CORR_CLAMP] and every imputed variance at or above VAR_FLOOR.
CORR_CLAMP = 1e-9
VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Leaf variances and edge correlations of a latent forest model."""

    leaf_var: dict[str, float]
    edge_corr: dict[Edge, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "leaf_var": dict(sorted(self.leaf_var.items())),
                "edge_corr": {
                    "--".join(sorted(e)): c
                    for e, c in sorted(
                        self.edge_corr.items(), key=lambda kv: sorted(kv[0])
                    )
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        data = json.loads(text)
        return cls(
            leaf_var={k: float(v) for k, v in data["leaf_var"].items()},
            edge_corr={
                edge(*k.split("--")): float(v)
                for k, v in data["edge_corr"].items()
            },
        )


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Sample size and averaged second moment matrix (1/n) sum x x^T."""

    n: int
    second_moment: np.ndarray
    names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 2000
    rel_tol: float = 1e-9
    restarts: int = 5
    seed: int = 0


@dataclass(frozen=True)
class EmResult:
    params: ModelParams
    loglik: float
    iters: int
    converged: bool

    def __iter__(self):
        return iter((self.params, self.loglik, self.iters))


def _validate_params(f: Forest, params: ModelParams) -> None:
    for v in f.observed:
        if v not in params.leaf_var:
            raise UnknownNode(f"missing variance for observed node {v!r}")
        if not 0 < params.leaf_var[v] < math.inf:
            raise ValueError(f"variance of {v!r} must be positive and finite")
    for e in f.edges:
        if e not in params.edge_corr:
            raise UnknownNode(f"missing correlation for edge {sorted(e)}")
        if not abs(params.edge_corr[e]) <= 1:
            raise ValueError(
                f"correlation of {sorted(e)} must be a number in [-1, 1]"
            )
    if len(params.leaf_var) != len(f.observed) or len(params.edge_corr) != len(
        f.edges
    ):
        raise UnknownNode("params carry keys that are not in the forest")


class _Layout:
    """A forest compiled for path products, observed nodes first.

    ``nodes`` is ``f.observed`` followed by the latent nodes in
    ``f.nodes`` order, so with p observed nodes the blocks K_OO, K_LO
    and K_LL of a joint matrix are the slices [:p, :p], [p:, :p] and
    [p:, p:].  ``walks`` holds one step array triple per depth d: flat
    indices into the n x n correlation buffer of (start, node) and of
    (start, parent), and the edge index, for nodes d edges from start in
    ``Forest.neighbors`` order, so path products multiply edges in
    ``Forest.path`` order.  ``u`` and ``v`` are the edge endpoints in
    sorted name order and ``uv`` their flat index.
    """

    def __init__(self, f: Forest):
        self.nodes = f.observed + tuple(v for v in f.nodes if v in f.latent)
        self.p = len(f.observed)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.forest = f
        n = len(self.nodes)
        eidx = {e: i for i, e in enumerate(f.edges)}
        levels: dict[int, list[tuple[int, int, int]]] = {}
        for start in self.nodes:
            row = self.index[start] * n
            depth = {start: 0}
            queue = [start]
            for v in queue:
                for w in f.neighbors[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        queue.append(w)
                        levels.setdefault(depth[w], []).append(
                            (row + self.index[w], row + self.index[v],
                             eidx[edge(v, w)])
                        )
        self.walks = [tuple(np.array(col) for col in zip(*steps))
                      for steps in levels.values()]
        self.eye = np.eye(n)
        ends = [[self.index[v] for v in sorted(e)] for e in f.edges]
        self.u, self.v = np.array(ends, dtype=int).reshape(-1, 2).T
        self.uv = self.u * n + self.v

    def vectors(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
        """Check params; return root variances (one if latent) and edge correlations."""
        _validate_params(self.forest, params)
        var = np.array([params.leaf_var.get(v, 1.0) for v in self.nodes],
                       dtype=float)
        rho = np.array([params.edge_corr[e] for e in self.forest.edges],
                       dtype=float)
        return var, rho

    def joint(self, scale: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """D R D over all nodes, R the path products of the edge correlations."""
        corr = self.eye.copy()
        flat = corr.reshape(-1)
        for dst, src, e in self.walks:
            flat[dst] = flat[src] * rho[e]
        return corr * (scale[:, None] * scale)

    def joint_cov(self, params: ModelParams) -> np.ndarray:
        """Covariance over all nodes at params, in layout order."""
        var, rho = self.vectors(params)
        return self.joint(np.sqrt(var), rho)


def joint_covariance(forest, params: ModelParams) -> np.ndarray:
    """Covariance over all nodes, ordered as forest.nodes."""
    f = _as_forest(forest)
    lay = _Layout(f)
    back = [lay.index[v] for v in f.nodes]
    return lay.joint_cov(params)[np.ix_(back, back)]


def covariance(forest, params: ModelParams) -> np.ndarray:
    """Model covariance of the observed nodes, ordered as forest.observed."""
    lay = _Layout(_as_forest(forest))
    return lay.joint_cov(params)[: lay.p, : lay.p].copy()


def sample(forest, params: ModelParams, n: int, seed=None) -> np.ndarray:
    """Draw n rows from the observed Gaussian, columns as forest.observed."""
    f = _as_forest(forest)
    cov = covariance(f, params)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("model covariance is singular") from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, cov.shape[0]))
    return z @ chol.T


def suff_stats(data, names=None, center: bool = False) -> SufficientStats:
    x = np.asarray(data, dtype=float)
    if center:
        x = x - x.mean(axis=0)
    s = x.T @ x / len(x)
    return SufficientStats(
        n=len(x), second_moment=s, names=None if names is None else tuple(names)
    )


def suff_stats_from_cov(cov, n: int, names=None) -> SufficientStats:
    return SufficientStats(
        n=int(n),
        second_moment=np.asarray(cov, dtype=float),
        names=None if names is None else tuple(names),
    )


def _aligned_moment(stats: SufficientStats, order) -> np.ndarray:
    if stats.names is None:
        if stats.second_moment.shape[0] != len(order):
            raise ValueError("stats dimension does not match the model")
        return stats.second_moment
    try:
        perm = [stats.names.index(v) for v in order]
    except ValueError as exc:
        raise UnknownNode(f"stats lack a column for {exc}") from exc
    return stats.second_moment[np.ix_(perm, perm)]


def _finite(a) -> np.ndarray:
    """a as a float array, or the ValueError scipy raises on infs and NaNs."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _square(a) -> np.ndarray:
    """a as a finite square float matrix, with scipy's error messages."""
    a = _finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("Input array is expected to be square but has "
                         f"the shape: {a.shape}.")
    return a


def _rhs(c: np.ndarray, b) -> np.ndarray:
    """b as a finite right-hand side for the factor c."""
    b = _finite(b)
    if b.shape[:1] != c.shape[1:]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {b.shape})")
    return b


def _cholesky(a: np.ndarray, what: str = "covariance") -> np.ndarray:
    """Lower Cholesky factor of a by LAPACK potrf; the upper triangle is junk."""
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{what} is not positive definite")
    return c


def _solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (c c^T) x = b by LAPACK potrs, with c from _cholesky."""
    return dpotrs(c, b, lower=1)[0] if c.size else np.empty(b.shape)


def _loglik(c: np.ndarray, s: np.ndarray, n: int) -> float:
    """Log-likelihood of the stats (n, s) under the covariance c c^T."""
    logdet = 2.0 * float(np.log(c.diagonal()).sum())
    quad = float(_solve(c, s).trace())
    return -0.5 * n * (s.shape[0] * math.log(2 * math.pi) + logdet + quad)


def loglik(cov, stats: SufficientStats) -> float:
    """Gaussian log-likelihood of zero-mean data with the given covariance.

    The covariance must be aligned with the columns of the stats.
    """
    c = _cholesky(_square(cov))
    return _loglik(c, _rhs(c, stats.second_moment), stats.n)


def model_loglik(forest, params: ModelParams, stats: SufficientStats) -> float:
    """Log-likelihood of the stats under the model, aligning columns by name."""
    f = _as_forest(forest)
    aligned = SufficientStats(
        n=stats.n, second_moment=_aligned_moment(stats, f.observed)
    )
    return loglik(covariance(f, params), aligned)


def kl_divergence(cov_p, cov_q) -> float:
    """KL(N(0, cov_p) || N(0, cov_q))."""
    c = _cholesky(_square(cov_q), "second covariance")
    p = np.asarray(cov_p, dtype=float)
    try:
        sign_p, logdet_p = np.linalg.slogdet(p)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("second covariance is not positive definite") from exc
    if sign_p <= 0:
        raise NotPositiveDefinite("first covariance is not positive definite")
    logdet_q = 2.0 * float(np.log(c.diagonal()).sum())
    trace = float(_solve(c, _rhs(c, p)).trace())
    return 0.5 * (trace - p.shape[0] + logdet_q - logdet_p)


def h_q(host, params: ModelParams, cov, names=None) -> float:
    """Value of the phase function H_q at the given parameters.

    Sum of (w_v - sigma_vv)^2 over observed nodes plus
    (prod_path w_e - rho_vw)^2 over observed pairs, where the path
    product is zero for pairs disconnected in the host.  Vanishes
    exactly when the parameters reproduce the target covariance.
    """
    f = _as_forest(host)
    lay = _Layout(f)
    corr = lay.joint(np.ones(len(lay.nodes)), lay.vectors(params)[1])
    cov = np.asarray(cov, dtype=float)
    order = tuple(names) if names is not None else f.observed
    pos = {v: i for i, v in enumerate(order)}
    node = lay.index
    total = 0.0
    for v in f.observed:
        total += (params.leaf_var[v] - cov[pos[v], pos[v]]) ** 2
    for i in range(len(f.observed)):
        for j in range(i + 1, len(f.observed)):
            a, b = f.observed[i], f.observed[j]
            rho_star = cov[pos[a], pos[b]] / math.sqrt(
                cov[pos[a], pos[a]] * cov[pos[b], pos[b]]
            )
            total += (float(corr[node[a], node[b]]) - rho_star) ** 2
    return total


def h_q_monomials(host, cov, names=None, var_bound=None) -> MonomialSos:
    """The phase function H_q of a host forest at a target covariance.

    Coordinates are the observed variances (host.observed order)
    followed by the edge correlations (host.edges order).  Each
    variance contributes (w_v - sigma_vv)^2 and each observed pair
    connected in the host contributes (prod_path w_e - rho_ij)^2.
    Pairs disconnected in the host must have target correlation exactly
    zero, otherwise no parameter choice reproduces the covariance.
    """
    f = _as_forest(host)
    cov = np.asarray(cov, dtype=float)
    order = tuple(names) if names is not None else f.observed
    if set(order) != set(f.observed):
        raise UnknownNode("covariance names do not match the observed nodes")
    pos = {v: i for i, v in enumerate(order)}
    nv = len(f.observed)
    ne = len(f.edges)
    ecoord = {e: nv + i for i, e in enumerate(f.edges)}
    dim = nv + ne
    terms = []
    for k, v in enumerate(f.observed):
        u = [0] * dim
        u[k] = 1
        terms.append((tuple(u), float(cov[pos[v], pos[v]])))
    for i in range(nv):
        for j in range(i + 1, nv):
            a, b = f.observed[i], f.observed[j]
            rho = float(
                cov[pos[a], pos[b]]
                / math.sqrt(cov[pos[a], pos[a]] * cov[pos[b], pos[b]])
            )
            pathe = f.path(a, b)
            if pathe is None:
                if rho != 0.0:
                    raise UnrealizablePattern(
                        f"nodes {a!r}, {b!r} are correlated but disconnected "
                        "in the host"
                    )
                continue
            u = [0] * dim
            for e in pathe:
                u[ecoord[e]] = 1
            terms.append((tuple(u), rho))
    if var_bound is None:
        var_bound = 2.0 * float(np.max(np.diag(cov)))
    domain = ((0.0, float(var_bound)),) * nv + ((-1.0, 1.0),) * ne
    return MonomialSos(dim=dim, terms=tuple(terms), domain=domain)


def _em_step(f: Forest, params: ModelParams, s_obs: np.ndarray,
             config: EmConfig) -> ModelParams:
    """One EM update of params; em_fit with a single iteration."""
    one = replace(config, max_iter=1, restarts=1)
    return em_fit(f, SufficientStats(1, s_obs), one, init=params).params


def em_fit(forest, stats: SufficientStats, config: EmConfig | None = None,
           init: ModelParams | None = None) -> EmResult:
    """Maximum likelihood over a fixed forest by expectation maximization.

    The E-step imputes the latent second moments from the current joint
    covariance; the M-step is the exact complete-data update (moment
    matching on edges with latent variances rescaled to one), so the
    observed log-likelihood never decreases.  Runs config.restarts
    random initializations, or starts from init in the first run.

    The forest is compiled once into an observed-first layout with flat
    path-product indices (see _Layout), so K_OO, K_LO and K_LL are
    slices and the parameters are two vectors.  Each iteration factors
    K_OO once by a direct LAPACK potrf call and reuses the factor, by
    potrs, for the log-likelihood of the current parameters and for the
    E-step from them.  The stats and init are checked once on entry, so
    the loop does no finiteness checks.
    """
    f = _as_forest(forest)
    config = config or EmConfig()
    s_obs = _finite(_aligned_moment(stats, f.observed))
    lay = _Layout(f)
    start = None if init is None else lay.vectors(init)
    p, n = lay.p, len(lay.nodes)
    u, v, uv = lay.u, lay.v, lay.uv
    cap = 1.0 - CORR_CLAMP
    best: EmResult | None = None
    for r in range(max(1, config.restarts)):
        if r == 0 and start is not None:
            var, rho = start
        else:
            rng = np.random.default_rng([config.seed, r])
            var = np.ones(n)
            var[:p] = np.maximum(np.diag(s_obs), 1e-6)
            rho = np.array([rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
                            for _ in f.edges], dtype=float)
        k = lay.joint(np.sqrt(var), rho)
        c = _cholesky(k[:p, :p])
        ll = _loglik(c, s_obs, stats.n)
        m = np.empty((n, n))
        m[:p, :p] = s_obs
        mflat = m.reshape(-1)
        converged, it = False, 0
        for it in range(1, config.max_iter + 1):
            if p < n:
                klo = k[p:, :p]
                j = _solve(c, klo.T).T  # K_LO K_OO^{-1}
                m[:p, p:] = s_obs @ j.T
                m[p:, :p] = m[:p, p:].T
                m[p:, p:] = k[p:, p:] - j @ klo.T + j @ s_obs @ j.T
            diag = np.maximum(m.diagonal(), VAR_FLOOR)
            rho = np.clip(mflat[uv] / np.sqrt(diag[u] * diag[v]), -cap, cap)
            var[:p] = diag[:p]
            k = lay.joint(np.sqrt(var), rho)
            c = _cholesky(k[:p, :p])
            new_ll = _loglik(c, s_obs, stats.n)
            converged = abs(new_ll - ll) <= config.rel_tol * (1.0 + abs(ll))
            ll = new_ll
            if converged:
                break
        params = ModelParams(dict(zip(f.observed, var[:p].tolist())),
                             dict(zip(f.edges, rho.tolist())))
        result = EmResult(params=params, loglik=ll, iters=it, converged=converged)
        if best is None or result.loglik > best.loglik:
            best = result
    return best
