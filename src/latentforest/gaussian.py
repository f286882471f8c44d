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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .engine import MonomialSos
from .errors import (
    NotPositiveDefinite, TooFewSamples, UnrealizablePattern, UnknownNode,
)
from .forests import Edge, Forest, _as_forest, _walk, edge

#: The M-step keeps every edge correlation inside [-1 + CORR_CLAMP,
#: 1 - CORR_CLAMP] and every imputed variance at or above VAR_FLOOR.
CORR_CLAMP = 1e-9
VAR_FLOOR = 1e-12
#: relative tolerance of the symmetry and eigenvalue checks on EM stats
MOMENT_RTOL = 1e-10


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
    """Sample size and averaged second moment matrix (1/n) sum x x^T.

    ``n`` must be an integer >= 1 (``ValueError``, ``TooFewSamples``),
    the moment a square matrix, and ``names``, if given, one per row.
    """

    n: int
    second_moment: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise TooFewSamples(f"stats need n >= 1 samples, got n = {self.n}")
        shape = np.shape(self.second_moment)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"second moment must be a square matrix, not {shape}")
        if self.names is not None and len(self.names) != shape[0]:
            raise ValueError(
                f"{len(self.names)} names for a second moment of {shape[0]} rows")


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 2000
    rel_tol: float = 1e-9
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for key, low in (("max_iter", 1), ("restarts", 1), ("seed", 0)):
            v = getattr(self, key)
            if not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {v!r}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")


@dataclass(frozen=True)
class EmResult:
    params: ModelParams
    loglik: float
    iters: int
    converged: bool


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
        self.index = index = {v: i for i, v in enumerate(self.nodes)}
        self.forest = f
        n = len(self.nodes)
        eidx = {}
        for i, (a, b) in enumerate(f.edges):
            eidx[a, b] = eidx[b, a] = i
        levels: dict[int, list[tuple[int, int, int]]] = {}
        for start in self.nodes:
            row = index[start] * n
            depth = {start: 0}
            for w, v in _walk(f.neighbors, start):
                depth[w] = d = depth[v] + 1
                levels.setdefault(d, []).append(
                    (row + index[w], row + index[v], eidx[v, w]))
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

    def params(self, theta: np.ndarray) -> ModelParams:
        """ModelParams of theta = (observed variances, edge correlations)."""
        f, p = self.forest, self.p
        return ModelParams(dict(zip(f.observed, theta[:p].tolist())),
                           dict(zip(f.edges, theta[p:].tolist())))

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
    if x.shape[:1] == (0,):  # no rows
        raise TooFewSamples("stats need n >= 1 samples, got n = 0")
    if center:
        x = x - x.mean(axis=0)
    s = x.T @ x / len(x)
    return SufficientStats(
        n=len(x), second_moment=s, names=None if names is None else tuple(names)
    )


def suff_stats_from_cov(cov, n: int, names=None) -> SufficientStats:
    return SufficientStats(
        n=n,
        second_moment=np.asarray(cov, dtype=float),
        names=None if names is None else tuple(names),
    )


def _aligned_moment(stats: SufficientStats, order) -> np.ndarray:
    if stats.names is None:
        if stats.second_moment.shape[0] != len(order):
            raise ValueError("stats dimension does not match the model")
        return stats.second_moment
    if len(set(stats.names)) != len(stats.names):
        raise ValueError(f"duplicate column names in {stats.names}")
    missing = [v for v in order if v not in stats.names]
    if missing:
        raise UnknownNode(
            f"stats lack a column for {', '.join(map(repr, missing))}")
    perm = [stats.names.index(v) for v in order]
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


def _second_moment(s: np.ndarray) -> np.ndarray:
    """s, once checked to be symmetric positive semidefinite up to
    MOMENT_RTOL relative to its largest entry."""
    tol = MOMENT_RTOL * float(np.abs(s).max(initial=0.0))
    if s.size and (np.abs(s - s.T).max() > tol
                   or np.linalg.eigvalsh(s)[0] < -tol):
        raise NotPositiveDefinite(
            "second moment is not symmetric positive semidefinite")
    return s


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
    p = _square(cov_p)
    sign_p, logdet_p = np.linalg.slogdet(p)
    if sign_p <= 0:
        raise NotPositiveDefinite("first covariance is not positive definite")
    logdet_q = 2.0 * float(np.log(c.diagonal()).sum())
    trace = float(_solve(c, _rhs(c, p)).trace())
    return 0.5 * (trace - p.shape[0] + logdet_q - logdet_p)


def _target(f: Forest, cov, names) -> tuple[np.ndarray, np.ndarray]:
    """Variances and correlation matrix of a target covariance, both in
    f.observed order; ``cov`` is ordered as ``names`` (default
    f.observed) and must be a finite square matrix over the observed
    nodes with a positive variance at each."""
    order = tuple(names) if names is not None else f.observed
    if len(order) != len(f.observed) or set(order) != set(f.observed):
        raise UnknownNode("covariance names do not match the observed nodes")
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (len(order), len(order)):
        raise NotPositiveDefinite(
            f"target covariance of {len(order)} nodes has shape {cov.shape}")
    pos = {v: i for i, v in enumerate(order)}
    perm = [pos[v] for v in f.observed]
    cov = cov[np.ix_(perm, perm)]
    var = cov.diagonal()
    for v, s in zip(f.observed, var):
        if not 0 < s < math.inf:
            raise NotPositiveDefinite(
                f"target variance of {v!r} is {float(s)}; it must be "
                "positive and finite")
    if not np.isfinite(cov).all():
        i, j = np.argwhere(~np.isfinite(cov))[0]
        raise NotPositiveDefinite(
            f"target covariance of {f.observed[i]!r} and "
            f"{f.observed[j]!r} is {float(cov[i, j])}")
    return var, cov / np.sqrt(np.outer(var, var))


def h_q(host, params: ModelParams, cov, names=None) -> float:
    """Value of the phase function H_q at the given parameters.

    Sum of (w_v - sigma_vv)^2 over observed nodes plus
    (prod_path w_e - rho_vw)^2 over observed pairs, where the path
    product is zero for pairs disconnected in the host.  Vanishes
    exactly when the parameters reproduce the target covariance, which
    must be finite with a positive variance at each observed node
    (NotPositiveDefinite otherwise).
    """
    f = _as_forest(host)
    var, rho = _target(f, cov, names)
    lay = _Layout(f)
    corr = lay.joint(np.ones(len(lay.nodes)), lay.vectors(params)[1])
    total = 0.0
    for v, s in zip(f.observed, var):
        total += (params.leaf_var[v] - s) ** 2
    for i in range(len(var)):
        for j in range(i + 1, len(var)):
            total += (float(corr[i, j]) - rho[i, j]) ** 2
    return total


def h_q_monomials(host, cov, names=None) -> MonomialSos:
    """The phase function H_q of a host forest at a target covariance.

    Coordinates are the observed variances (host.observed order)
    followed by the edge correlations (host.edges order).  Each
    variance contributes (w_v - sigma_vv)^2 and each observed pair
    connected in the host contributes (prod_path w_e - rho_ij)^2.
    Pairs disconnected in the host must have target correlation exactly
    zero, otherwise no parameter choice reproduces the covariance.
    The domain box takes each variance in [0, twice the largest target
    variance] and each correlation in [-1, 1].
    """
    f = _as_forest(host)
    var, rho = _target(f, cov, names)
    nv = len(f.observed)
    ne = len(f.edges)
    ecoord = {e: nv + i for i, e in enumerate(f.edges)}
    dim = nv + ne
    terms = []
    for k in range(nv):
        u = [0] * dim
        u[k] = 1
        terms.append((tuple(u), float(var[k])))
    for i in range(nv):
        for j in range(i + 1, nv):
            a, b = f.observed[i], f.observed[j]
            pathe = f.path(a, b)
            if pathe is None:
                if rho[i, j] != 0.0:
                    raise UnrealizablePattern(
                        f"nodes {a!r}, {b!r} are correlated but disconnected "
                        "in the host"
                    )
                continue
            u = [0] * dim
            for e in pathe:
                u[ecoord[e]] = 1
            terms.append((tuple(u), float(rho[i, j])))
    var_bound = 2.0 * float(var.max())
    domain = ((0.0, var_bound),) * nv + ((-1.0, 1.0),) * ne
    return MonomialSos(dim=dim, terms=tuple(terms), domain=domain)


def _em_map(lay: _Layout, k: np.ndarray, c: np.ndarray, s_obs: np.ndarray,
            m: np.ndarray) -> np.ndarray:
    """One plain EM map from the point whose joint covariance is k, with
    c the Cholesky factor of K_OO; returns theta = (observed variances,
    edge correlations).  m is an n x n work matrix whose K_OO block
    already holds s_obs.
    """
    p = lay.p
    if p < len(lay.nodes):
        klo = k[p:, :p]
        j = _solve(c, klo.T).T  # K_LO K_OO^{-1}
        m[:p, p:] = s_obs @ j.T
        m[p:, :p] = m[:p, p:].T
        m[p:, p:] = k[p:, p:] - j @ klo.T + j @ s_obs @ j.T
    diag = np.maximum(m.diagonal(), VAR_FLOOR)
    cap = 1.0 - CORR_CLAMP
    rho = np.clip(m.reshape(-1)[lay.uv] / np.sqrt(diag[lay.u] * diag[lay.v]),
                  -cap, cap)
    return np.concatenate((diag[:p], rho))


def _work_matrix(lay: _Layout, s_obs: np.ndarray) -> np.ndarray:
    n = len(lay.nodes)
    m = np.empty((n, n))
    m[: lay.p, : lay.p] = s_obs
    return m


def _em_step(f: Forest, params: ModelParams, s_obs: np.ndarray,
             config: EmConfig) -> ModelParams:
    """One plain EM update of params (config is not used)."""
    lay = _Layout(f)
    s_obs = _square(s_obs)
    var, rho = lay.vectors(params)
    k = lay.joint(np.sqrt(var), rho)
    theta = _em_map(lay, k, _cholesky(k[: lay.p, : lay.p]), s_obs,
                    _work_matrix(lay, s_obs))
    return lay.params(theta)


def em_fit(forest, stats: SufficientStats, config: EmConfig | None = None,
           init: ModelParams | None = None) -> EmResult:
    """Maximum likelihood over a fixed forest by accelerated EM.

    One EM map imputes the latent second moments from the current joint
    covariance (E-step) and applies the exact complete-data update
    (M-step: moment matching on edges, latent variances rescaled to
    one), so it never lowers the observed log-likelihood.  The maps act
    on theta = (observed variances, edge correlations) and are
    accelerated by SQUAREM (Varadhan & Roland 2008, scheme SqS3): a
    cycle maps theta0 to theta1 and theta2, sets r = theta1 - theta0 and
    v = theta2 - theta1 - r, steps to theta0 - 2 a r + a^2 v with
    a = min(-|r| / |v|, -1), clipped into the VAR_FLOOR / CORR_CLAMP
    box.  Only when the covariance there factors and its log-likelihood
    is at least theta2's does the cycle take one stabilizing map from
    there, and its result replaces theta2 when it keeps that bound; so
    the log-likelihoods a run keeps never fall.

    ``iters`` and ``config.max_iter`` count EM maps, up to three per
    cycle; a cycle cut short by ``max_iter`` ends on its last plain
    map.  A run converges when one map, or one whole cycle, changes the
    log-likelihood by at most ``rel_tol * (1 + |ll|)``, ll the value
    before the change.  Runs config.restarts random initializations, or
    starts from init in the first run, and returns the best.

    The forest is compiled once into an observed-first layout with flat
    path-product indices (see _Layout), so K_OO, K_LO and K_LL are
    slices.  Each point is factored once by a direct LAPACK potrf call;
    that factor gives its log-likelihood and the E-step from it.  The
    stats and init are checked once on entry, so the loop does no
    finiteness checks; stats that are not symmetric positive
    semidefinite raise NotPositiveDefinite.
    """
    f = _as_forest(forest)
    config = config or EmConfig()
    s_obs = _second_moment(_square(_aligned_moment(stats, f.observed)))
    lay = _Layout(f)
    start = None if init is None else lay.vectors(init)
    p, max_iter = lay.p, config.max_iter
    cap = 1.0 - CORR_CLAMP
    m = _work_matrix(lay, s_obs)
    scale = np.ones(len(lay.nodes))

    def point(theta):
        """(k, c, loglik) at theta; NotPositiveDefinite if K_OO is singular."""
        scale[:p] = np.sqrt(theta[:p])
        k = lay.joint(scale, theta[p:])
        c = _cholesky(k[:p, :p])
        return k, c, _loglik(c, s_obs, stats.n)

    def step(k, c):
        """One plain map: (theta, k, c, loglik) at its result."""
        theta = _em_map(lay, k, c, s_obs, m)
        return (theta, *point(theta))

    def small(new, old):
        return abs(new - old) <= config.rel_tol * (1.0 + abs(old))

    best: EmResult | None = None
    for r in range(config.restarts):
        if r == 0 and start is not None:
            theta = np.concatenate((start[0][:p], start[1]))
        else:
            rng = np.random.default_rng([config.seed, r])
            rho = [rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
                   for _ in f.edges]
            theta = np.concatenate((np.maximum(np.diag(s_obs), 1e-6), rho))
        k, c, ll = point(theta)
        converged, it = False, 0
        while it < max_iter and not converged:
            t0, ll0 = theta, ll
            theta, k, c, ll = step(k, c)
            it += 1
            converged = small(ll, ll0)
            if converged or it == max_iter:
                break
            t1, ll1 = theta, ll
            theta, k, c, ll = step(k, c)
            it += 1
            converged = small(ll, ll1)
            if converged or it == max_iter:
                break
            dr = t1 - t0
            dv = theta - t1 - dr
            nv = math.sqrt(dv @ dv)
            a = min(-math.sqrt(dr @ dr) / nv, -1.0) if nv > 0 else -1.0
            ext = t0 - 2.0 * a * dr + a * a * dv
            ext[:p] = np.maximum(ext[:p], VAR_FLOOR)
            ext[p:] = np.clip(ext[p:], -cap, cap)
            try:
                ke, ce, ll_ext = point(ext)
            except NotPositiveDefinite:
                continue
            if ll_ext >= ll:
                stab = step(ke, ce)
                it += 1
                if stab[3] >= ll:
                    theta, k, c, ll = stab
                    converged = small(ll, ll_ext) or small(ll, ll0)
        result = EmResult(params=lay.params(theta), loglik=ll, iters=it,
                          converged=converged)
        if best is None or result.loglik > best.loglik:
            best = result
    return best
