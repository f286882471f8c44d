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
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .engine import MonomialSos
from .errors import NotPositiveDefinite, UnrealizablePattern, UnknownNode
from .forests import Edge, Forest, _as_forest, edge


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
    corr_clamp: float = 1e-9
    var_floor: float = 1e-12


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
        if not params.leaf_var[v] > 0:
            raise ValueError(f"variance of {v!r} must be positive")
    for e in f.edges:
        if e not in params.edge_corr:
            raise UnknownNode(f"missing correlation for edge {sorted(e)}")
        if abs(params.edge_corr[e]) > 1:
            raise ValueError(f"correlation of {sorted(e)} exceeds 1")
    if len(params.leaf_var) != len(f.observed) or len(params.edge_corr) != len(
        f.edges
    ):
        raise UnknownNode("params carry keys that are not in the forest")


def joint_covariance(forest, params: ModelParams) -> np.ndarray:
    """Covariance over all nodes, ordered as forest.nodes."""
    f = _as_forest(forest)
    _validate_params(f, params)
    nodes = f.nodes
    index = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    corr = np.eye(k)
    for start in nodes:
        si = index[start]
        seen = {start}
        queue = deque([(start, 1.0)])
        while queue:
            v, rho = queue.popleft()
            for w in f.neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    r = rho * params.edge_corr[edge(v, w)]
                    corr[si, index[w]] = r
                    queue.append((w, r))
    scale = np.sqrt(
        [params.leaf_var[v] if v in params.leaf_var else 1.0 for v in nodes]
    )
    return corr * np.outer(scale, scale)


def covariance(forest, params: ModelParams) -> np.ndarray:
    """Model covariance of the observed nodes, ordered as forest.observed."""
    f = _as_forest(forest)
    joint = joint_covariance(f, params)
    idx = [f.nodes.index(v) for v in f.observed]
    return joint[np.ix_(idx, idx)]


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


def loglik(cov, stats: SufficientStats) -> float:
    """Gaussian log-likelihood of zero-mean data with the given covariance.

    The covariance must be aligned with the columns of the stats.
    """
    s = stats.second_moment
    try:
        factor = cho_factor(np.asarray(cov, dtype=float), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc
    p = s.shape[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad = float(np.trace(cho_solve(factor, s)))
    return -0.5 * stats.n * (p * math.log(2 * math.pi) + logdet + quad)


def model_loglik(forest, params: ModelParams, stats: SufficientStats) -> float:
    """Log-likelihood of the stats under the model, aligning columns by name."""
    f = _as_forest(forest)
    aligned = SufficientStats(
        n=stats.n, second_moment=_aligned_moment(stats, f.observed)
    )
    return loglik(covariance(f, params), aligned)


def kl_divergence(cov_p, cov_q) -> float:
    """KL(N(0, cov_p) || N(0, cov_q))."""
    p = np.asarray(cov_p, dtype=float)
    q = np.asarray(cov_q, dtype=float)
    try:
        fq = cho_factor(q, lower=True)
        sign_p, logdet_p = np.linalg.slogdet(p)
        if sign_p <= 0:
            raise NotPositiveDefinite("first covariance is not positive definite")
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("second covariance is not positive definite") from exc
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(fq[0]))))
    trace = float(np.trace(cho_solve(fq, p)))
    return 0.5 * (trace - p.shape[0] + logdet_q - logdet_p)


def h_q(host, params: ModelParams, cov, names=None) -> float:
    """Value of the phase function H_q at the given parameters.

    Sum of (w_v - sigma_vv)^2 over observed nodes plus
    (prod_path w_e - rho_vw)^2 over observed pairs, where the path
    product is zero for pairs disconnected in the host.  Vanishes
    exactly when the parameters reproduce the target covariance.
    """
    f = _as_forest(host)
    _validate_params(f, params)
    cov = np.asarray(cov, dtype=float)
    order = tuple(names) if names is not None else f.observed
    pos = {v: i for i, v in enumerate(order)}
    total = 0.0
    for v in f.observed:
        total += (params.leaf_var[v] - cov[pos[v], pos[v]]) ** 2
    for i in range(len(f.observed)):
        for j in range(i + 1, len(f.observed)):
            a, b = f.observed[i], f.observed[j]
            rho_star = cov[pos[a], pos[b]] / math.sqrt(
                cov[pos[a], pos[a]] * cov[pos[b], pos[b]]
            )
            pathe = f.path(a, b)
            rho = 0.0
            if pathe is not None:
                rho = 1.0
                for e in pathe:
                    rho *= params.edge_corr[e]
            total += (rho - rho_star) ** 2
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


def _em_step(
    f: Forest,
    params: ModelParams,
    s_obs: np.ndarray,
    config: EmConfig,
) -> ModelParams:
    nodes = f.nodes
    index = {v: i for i, v in enumerate(nodes)}
    obs_idx = [index[v] for v in f.observed]
    lat_idx = [index[v] for v in nodes if v in f.latent]
    k = joint_covariance(f, params)
    m = np.empty((len(nodes), len(nodes)))
    m[np.ix_(obs_idx, obs_idx)] = s_obs
    if lat_idx:
        koo = k[np.ix_(obs_idx, obs_idx)]
        klo = k[np.ix_(lat_idx, obs_idx)]
        kll = k[np.ix_(lat_idx, lat_idx)]
        factor = cho_factor(koo, lower=True)
        j = cho_solve(factor, klo.T).T  # K_LO K_OO^{-1}
        mol = s_obs @ j.T
        mll = kll - j @ klo.T + j @ s_obs @ j.T
        m[np.ix_(obs_idx, lat_idx)] = mol
        m[np.ix_(lat_idx, obs_idx)] = mol.T
        m[np.ix_(lat_idx, lat_idx)] = mll
    diag = np.maximum(np.diag(m), config.var_floor)
    cap = 1.0 - config.corr_clamp
    new_corr = {}
    for e in f.edges:
        u, v = tuple(e)
        r = m[index[u], index[v]] / math.sqrt(diag[index[u]] * diag[index[v]])
        new_corr[e] = float(np.clip(r, -cap, cap))
    new_var = {v: float(diag[index[v]]) for v in f.observed}
    return ModelParams(leaf_var=new_var, edge_corr=new_corr)


def _random_init(f: Forest, s_obs: np.ndarray, rng) -> ModelParams:
    leaf_var = {
        v: max(float(s_obs[i, i]), 1e-6) for i, v in enumerate(f.observed)
    }
    edge_corr = {
        e: float(rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0]))
        for e in f.edges
    }
    return ModelParams(leaf_var=leaf_var, edge_corr=edge_corr)


def em_fit(forest, stats: SufficientStats, config: EmConfig | None = None,
           init: ModelParams | None = None) -> EmResult:
    """Maximum likelihood over a fixed forest by expectation maximization.

    The E-step imputes the latent second moments from the current joint
    covariance; the M-step is the exact complete-data update (moment
    matching on edges with latent variances rescaled to one), so the
    observed log-likelihood never decreases.  Runs config.restarts
    random initializations, or starts from init in the first run.
    """
    f = _as_forest(forest)
    config = config or EmConfig()
    s_obs = np.asarray(_aligned_moment(stats, f.observed), dtype=float)
    stats_aligned = SufficientStats(n=stats.n, second_moment=s_obs)
    best: EmResult | None = None
    for r in range(max(1, config.restarts)):
        if r == 0 and init is not None:
            params = init
        else:
            rng = np.random.default_rng([config.seed, r])
            params = _random_init(f, s_obs, rng)
        ll = loglik(covariance(f, params), stats_aligned)
        converged = False
        it = 0
        for it in range(1, config.max_iter + 1):
            params = _em_step(f, params, s_obs, config)
            new_ll = loglik(covariance(f, params), stats_aligned)
            if abs(new_ll - ll) <= config.rel_tol * (1.0 + abs(ll)):
                ll = new_ll
                converged = True
                break
            ll = new_ll
        result = EmResult(params=params, loglik=ll, iters=it, converged=converged)
        if best is None or result.loglik > best.loglik:
            best = result
    return best
