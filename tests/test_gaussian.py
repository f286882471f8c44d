import json
import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from scipy import stats as sps
from scipy.linalg import cho_factor, cho_solve

from latentforest import (
    EmConfig,
    ModelParams,
    NotPositiveDefinite,
    UnknownNode,
    UnrealizablePattern,
    build_forest,
    covariance,
    edge,
    em_fit,
    h_q,
    h_q_monomials,
    joint_covariance,
    kl_divergence,
    loglik,
    model_loglik,
    sample,
    steiner_subforest,
    subforest_lattice,
    suff_stats,
    suff_stats_from_cov,
)
from latentforest import gaussian
from latentforest.experiments import (
    lattice5_host,
    lattice5_truth_index,
    random_trivalent_tree,
)
from latentforest.gaussian import _em_step, _validate_params

from conftest import random_forest


def quartet_params():
    return ModelParams(
        leaf_var={"1": 1.2, "2": 0.8, "3": 1.5, "4": 2.0},
        edge_corr={
            edge("a", "b"): 0.9,
            edge("a", "1"): 0.5,
            edge("a", "2"): -0.6,
            edge("b", "3"): 0.7,
            edge("b", "4"): 0.4,
        },
    )


def random_params(f, rng):
    return ModelParams(
        leaf_var={v: float(rng.uniform(0.3, 2.5)) for v in f.observed},
        edge_corr={e: float(rng.uniform(-0.9, 0.9)) for e in f.edges},
    )


def path_correlation(f, params, a, b):
    """Independent path product by breadth first search."""
    if a == b:
        return 1.0
    seen = {a}
    queue = deque([(a, 1.0)])
    while queue:
        v, rho = queue.popleft()
        for w in f.neighbors[v]:
            if w in seen:
                continue
            r = rho * params.edge_corr[edge(v, w)]
            if w == b:
                return r
            seen.add(w)
            queue.append((w, r))
    return 0.0


# The dict-and-BFS EM of earlier releases, kept as an independent oracle
# for the array form in em_fit; edge endpoints are taken in sorted order.


def reference_joint_covariance(f, params):
    nodes = f.nodes
    index = {v: i for i, v in enumerate(nodes)}
    corr = np.eye(len(nodes))
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


def reference_loglik(f, params, s, n):
    idx = [f.nodes.index(v) for v in f.observed]
    cov = reference_joint_covariance(f, params)[np.ix_(idx, idx)]
    factor = cho_factor(cov, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad = float(np.trace(cho_solve(factor, s)))
    return -0.5 * n * (s.shape[0] * math.log(2 * math.pi) + logdet + quad)


def reference_em_step(f, params, s_obs):
    nodes = f.nodes
    index = {v: i for i, v in enumerate(nodes)}
    obs_idx = [index[v] for v in f.observed]
    lat_idx = [index[v] for v in nodes if v in f.latent]
    k = reference_joint_covariance(f, params)
    m = np.empty((len(nodes), len(nodes)))
    m[np.ix_(obs_idx, obs_idx)] = s_obs
    if lat_idx:
        koo = k[np.ix_(obs_idx, obs_idx)]
        klo = k[np.ix_(lat_idx, obs_idx)]
        kll = k[np.ix_(lat_idx, lat_idx)]
        factor = cho_factor(koo, lower=True)
        j = cho_solve(factor, klo.T).T
        mol = s_obs @ j.T
        mll = kll - j @ klo.T + j @ s_obs @ j.T
        m[np.ix_(obs_idx, lat_idx)] = mol
        m[np.ix_(lat_idx, obs_idx)] = mol.T
        m[np.ix_(lat_idx, lat_idx)] = mll
    diag = np.maximum(np.diag(m), 1e-12)
    cap = 1.0 - 1e-9
    new_corr = {}
    for e in f.edges:
        u, v = sorted(e)
        r = m[index[u], index[v]] / math.sqrt(diag[index[u]] * diag[index[v]])
        new_corr[e] = float(np.clip(r, -cap, cap))
    new_var = {v: float(diag[index[v]]) for v in f.observed}
    return ModelParams(leaf_var=new_var, edge_corr=new_corr)


def reference_em_fit(f, stats, config, init=None):
    s_obs = stats.second_moment
    best = None
    for r in range(max(1, config.restarts)):
        if r == 0 and init is not None:
            params = init
        else:
            rng = np.random.default_rng([config.seed, r])
            params = ModelParams(
                leaf_var={
                    v: max(float(s_obs[i, i]), 1e-6)
                    for i, v in enumerate(f.observed)
                },
                edge_corr={
                    e: float(rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0]))
                    for e in f.edges
                },
            )
        ll = reference_loglik(f, params, s_obs, stats.n)
        converged = False
        it = 0
        for it in range(1, config.max_iter + 1):
            params = reference_em_step(f, params, s_obs)
            new_ll = reference_loglik(f, params, s_obs, stats.n)
            if abs(new_ll - ll) <= config.rel_tol * (1.0 + abs(ll)):
                ll = new_ll
                converged = True
                break
            ll = new_ll
        if best is None or ll > best[1]:
            best = (params, ll, it, converged)
    return best


def mixed_order_forest(m, seed):
    """A trivalent tree on m leaves, a three-leaf star and an isolated
    observed node, declared in a shuffled order that puts a latent node
    first and latent nodes between observed ones."""
    rng = np.random.default_rng(seed)
    t = random_trivalent_tree(m, seed)
    nodes = [(v, v in t.latent) for v in t.nodes]
    nodes += [("s", True), ("y1", False), ("y2", False), ("y3", False)]
    nodes.append(("iso", False))
    edges = [tuple(sorted(e)) for e in t.edges]
    edges += [("s", "y1"), ("s", "y2"), ("s", "y3")]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    first = next(i for i, (_, latent) in enumerate(nodes) if latent)
    nodes.insert(0, nodes.pop(first))
    return build_forest(nodes, edges)


class TestCovariance:
    def test_quartet_entries(self, quartet):
        p = quartet_params()
        cov = covariance(quartet, p)
        obs = quartet.observed
        i = {v: k for k, v in enumerate(obs)}
        assert cov[i["1"], i["1"]] == pytest.approx(1.2)
        assert cov[i["1"], i["2"]] == pytest.approx(
            math.sqrt(1.2 * 0.8) * (0.5 * -0.6)
        )
        assert cov[i["1"], i["3"]] == pytest.approx(
            math.sqrt(1.2 * 1.5) * (0.5 * 0.9 * 0.7)
        )
        assert cov[i["3"], i["4"]] == pytest.approx(
            math.sqrt(1.5 * 2.0) * (0.7 * 0.4)
        )

    def test_latent_variance_is_one(self, quartet):
        joint = joint_covariance(quartet, quartet_params())
        for v in ("a", "b"):
            k = quartet.nodes.index(v)
            assert joint[k, k] == pytest.approx(1.0)

    def test_disconnected_pair_is_zero(self):
        f = build_forest(
            {"1": False, "2": False, "3": False, "a": True},
            [("a", "1"), ("a", "2")],
        )
        p = ModelParams(
            leaf_var={"1": 1.0, "2": 1.0, "3": 2.0},
            edge_corr={edge("a", "1"): 0.5, edge("a", "2"): 0.5},
        )
        cov = covariance(f, p)
        k = {v: i for i, v in enumerate(f.observed)}
        assert cov[k["1"], k["3"]] == 0.0
        assert cov[k["3"], k["3"]] == pytest.approx(2.0)

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_forest(rng)
            p = random_params(f, rng)
            cov = covariance(f, p)
            obs = f.observed
            for i, a in enumerate(obs):
                for j, b in enumerate(obs):
                    want = path_correlation(f, p, a, b) * math.sqrt(
                        p.leaf_var[a] * p.leaf_var[b]
                    )
                    assert cov[i, j] == pytest.approx(want, abs=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            f = random_forest(rng)
            cov = covariance(f, random_params(f, rng))
            assert np.allclose(cov, cov.T)
            assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestParams:
    def test_json_round_trip(self):
        p = quartet_params()
        q = ModelParams.from_json(p.to_json())
        assert q == p
        data = json.loads(p.to_json())
        assert "1--a" in data["edge_corr"]
        assert "a--b" in data["edge_corr"]

    def test_missing_variance(self, quartet):
        p = quartet_params()
        bad = ModelParams(
            leaf_var={k: v for k, v in p.leaf_var.items() if k != "3"},
            edge_corr=p.edge_corr,
        )
        with pytest.raises(UnknownNode):
            _validate_params(quartet, bad)

    def test_nonpositive_variance(self, quartet):
        p = quartet_params()
        bad = ModelParams(
            leaf_var={**p.leaf_var, "3": 0.0}, edge_corr=p.edge_corr
        )
        with pytest.raises(ValueError):
            _validate_params(quartet, bad)

    def test_missing_edge(self, quartet):
        p = quartet_params()
        cut = {e: c for e, c in p.edge_corr.items() if e != edge("a", "b")}
        with pytest.raises(UnknownNode):
            _validate_params(quartet, ModelParams(p.leaf_var, cut))

    def test_correlation_out_of_range(self, quartet):
        p = quartet_params()
        bad = {**p.edge_corr, edge("a", "b"): 1.5}
        with pytest.raises(ValueError):
            _validate_params(quartet, ModelParams(p.leaf_var, bad))

    @pytest.mark.parametrize(
        "var3,corr_ab,message",
        [
            (math.inf, 0.9, "must be positive and finite"),
            (1.5, math.nan, r"must be a number in \[-1, 1\]"),
        ],
        ids=["inf-variance", "nan-correlation"],
    )
    def test_nonfinite_rejected(self, quartet, var3, corr_ab, message):
        p = quartet_params()
        bad = ModelParams(
            leaf_var={**p.leaf_var, "3": var3},
            edge_corr={**p.edge_corr, edge("a", "b"): corr_ab},
        )
        s = suff_stats(sample(quartet, p, 50, seed=19))
        with pytest.raises(ValueError, match=message):
            joint_covariance(quartet, bad)
        with pytest.raises(ValueError, match=message):
            sample(quartet, bad, 5, seed=0)
        with pytest.raises(ValueError, match=message):
            em_fit(quartet, s, EmConfig(restarts=1), init=bad)

    def test_extra_key(self, quartet):
        p = quartet_params()
        extra = {**p.edge_corr, edge("5", "6"): 0.1}
        with pytest.raises(UnknownNode):
            _validate_params(quartet, ModelParams(p.leaf_var, extra))


class TestLoglik:
    def test_against_scipy(self, quartet):
        p = quartet_params()
        cov = covariance(quartet, p)
        x = sample(quartet, p, 200, seed=3)
        s = suff_stats(x)
        want = sps.multivariate_normal(mean=np.zeros(4), cov=cov).logpdf(x)
        assert loglik(cov, s) == pytest.approx(float(np.sum(want)), rel=1e-10)

    def test_alignment_by_name(self, quartet):
        p = quartet_params()
        x = sample(quartet, p, 50, seed=4)
        base = suff_stats(x, names=quartet.observed)
        perm = [2, 0, 3, 1]
        shuffled = suff_stats(
            x[:, perm], names=[quartet.observed[k] for k in perm]
        )
        assert model_loglik(quartet, p, shuffled) == pytest.approx(
            model_loglik(quartet, p, base), rel=1e-12
        )

    def test_unknown_name(self, quartet):
        s = suff_stats(np.eye(4), names=["1", "2", "3", "9"])
        with pytest.raises(UnknownNode):
            model_loglik(quartet, quartet_params(), s)

    def test_dimension_mismatch(self, quartet):
        s = suff_stats(np.eye(3))
        with pytest.raises(ValueError):
            model_loglik(quartet, quartet_params(), s)

    def test_not_positive_definite(self):
        s = suff_stats_from_cov(np.eye(2), 10)
        with pytest.raises(NotPositiveDefinite):
            loglik(np.array([[1.0, 2.0], [2.0, 1.0]]), s)

    def test_suff_stats_moments(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 3)) + 2.0
        s = suff_stats(x)
        assert s.n == 7
        assert np.allclose(s.second_moment, x.T @ x / 7)
        c = suff_stats(x, center=True)
        assert np.allclose(c.second_moment, np.cov(x.T, bias=True))

    def test_from_cov(self):
        cov = np.diag([1.0, 2.0])
        s = suff_stats_from_cov(cov, 17, names=["u", "v"])
        assert s.n == 17 and s.names == ("u", "v")
        assert np.array_equal(s.second_moment, cov)


class TestKl:
    def test_scaled_identity(self):
        # KL(N(0, I_p) || N(0, c I_p)) = p (1/c - 1 + log c) / 2
        for p, c in [(2, 2.0), (3, 0.5), (5, 4.0)]:
            want = 0.5 * p * (1.0 / c - 1.0 + math.log(c))
            got = kl_divergence(np.eye(p), c * np.eye(p))
            assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            p = a @ a.T + 0.5 * np.eye(4)
            q = b @ b.T + 0.5 * np.eye(4)
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            kl_divergence(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            kl_divergence(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


class TestPhaseFunction:
    def test_zero_at_truth(self, quartet):
        p = quartet_params()
        cov = covariance(quartet, p)
        assert h_q(quartet, p, cov) == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            f = random_forest(rng)
            truth = random_params(f, rng)
            cov = covariance(f, truth)
            w = random_params(f, rng)
            obs = f.observed
            total = 0.0
            for i, v in enumerate(obs):
                total += (w.leaf_var[v] - cov[i, i]) ** 2
            for i in range(len(obs)):
                for j in range(i + 1, len(obs)):
                    rho_star = cov[i, j] / math.sqrt(cov[i, i] * cov[j, j])
                    rho = path_correlation(f, w, obs[i], obs[j])
                    total += (rho - rho_star) ** 2
            assert h_q(f, w, cov) == pytest.approx(total, abs=1e-12)

    def test_monomials_layout(self, quartet):
        p = quartet_params()
        cov = covariance(quartet, p)
        sos = h_q_monomials(quartet, cov)
        nv, ne = 4, 5
        assert sos.dim == nv + ne
        # four variance terms and six connected pairs
        assert len(sos.terms) == nv + 6
        for lo, hi in sos.domain[:nv]:
            assert lo == 0.0 and hi == pytest.approx(4.0)
        assert sos.domain[nv:] == ((-1.0, 1.0),) * ne
        for k in range(nv):
            u = [0] * sos.dim
            u[k] = 1
            assert (tuple(u), pytest.approx(cov[k, k])) in [
                (t, c) for t, c in sos.terms
            ]

    def test_monomials_agree_with_h_q(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            f = random_forest(rng)
            cov = covariance(f, random_params(f, rng))
            sos = h_q_monomials(f, cov)
            w = random_params(f, rng)
            point = [w.leaf_var[v] for v in f.observed] + [
                w.edge_corr[e] for e in f.edges
            ]
            assert sos(point) == pytest.approx(
                h_q(f, w, cov), rel=1e-10, abs=1e-12
            )

    def test_unrealizable_disconnected(self):
        f = build_forest({"1": False, "2": False}, [])
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(UnrealizablePattern):
            h_q_monomials(f, cov)
        # zero correlation across components is fine
        sos = h_q_monomials(f, np.eye(2))
        assert len(sos.terms) == 2

    def test_names_reorder(self, quartet):
        p = quartet_params()
        cov = covariance(quartet, p)
        perm = [3, 1, 0, 2]
        names = [quartet.observed[k] for k in perm]
        shuffled = cov[np.ix_(perm, perm)]
        a = h_q_monomials(quartet, cov)
        b = h_q_monomials(quartet, shuffled, names=names)
        assert a.terms == b.terms
        with pytest.raises(UnknownNode):
            h_q_monomials(quartet, cov, names=["1", "2", "3", "9"])


class TestEm:
    def test_step_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = random_forest(rng)
            if not f.observed:
                continue
            truth = random_params(f, rng)
            x = sample(f, truth, 40, seed=int(rng.integers(2**32)))
            s = suff_stats(x)
            cur = random_params(f, rng)
            prev = model_loglik(f, cur, s)
            for _ in range(50):
                cur = _em_step(f, cur, s.second_moment, EmConfig())
                now = model_loglik(f, cur, s)
                assert now >= prev - 1e-9
                prev = now

    def test_three_star_population(self, three_star):
        truth = ModelParams(
            leaf_var={"1": 1.0, "2": 1.0, "3": 1.0},
            edge_corr={
                edge("h", "1"): 0.5,
                edge("h", "2"): 0.6,
                edge("h", "3"): 0.7,
            },
        )
        cov = covariance(three_star, truth)
        s = suff_stats_from_cov(cov, 10**6)
        res = em_fit(
            three_star,
            s,
            EmConfig(rel_tol=1e-14, max_iter=20000, restarts=2),
        )
        fitted = covariance(three_star, res.params)
        assert np.allclose(fitted, cov, atol=1e-6)
        # the latent sign is not identifiable, magnitudes are
        r12, r13, r23 = cov[0, 1], cov[0, 2], cov[1, 2]
        want = math.sqrt(r12 * r13 / r23)
        assert abs(res.params.edge_corr[edge("h", "1")]) == pytest.approx(
            want, abs=1e-4
        )
        assert res.converged

    def test_latent_free_is_exact(self):
        f = build_forest({"1": False, "2": False}, [("1", "2")])
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 2))
        s = suff_stats(x)
        res = em_fit(f, s, EmConfig(restarts=1))
        fitted = covariance(f, res.params)
        assert np.allclose(fitted, s.second_moment, atol=1e-8)

    def test_empty_forest(self):
        f = build_forest({"1": False, "2": False}, [])
        rng = np.random.default_rng(13)
        x = rng.normal(size=(25, 2)) * [1.0, 3.0]
        s = suff_stats(x)
        res = em_fit(f, s, EmConfig(restarts=1))
        assert res.params.edge_corr == {}
        assert res.params.leaf_var["1"] == pytest.approx(
            s.second_moment[0, 0]
        )
        assert res.params.leaf_var["2"] == pytest.approx(
            s.second_moment[1, 1]
        )

    def test_warm_start(self, quartet):
        truth = quartet_params()
        cov = covariance(quartet, truth)
        s = suff_stats_from_cov(cov, 1000)
        res = em_fit(quartet, s, EmConfig(restarts=1), init=truth)
        assert res.iters <= 5
        assert res.loglik == pytest.approx(
            model_loglik(quartet, truth, s), rel=1e-9
        )

    def test_integer_init(self):
        # no latent node, so every variance in the init is an int
        f = build_forest({"1": False, "2": False}, [("1", "2")])
        s = suff_stats(np.random.default_rng(18).normal(size=(40, 2)))
        corr = {edge("1", "2"): 0.5}
        ints = ModelParams({"1": 1, "2": 2}, corr)
        floats = ModelParams({"1": 1.0, "2": 2.0}, corr)
        config = EmConfig(restarts=1)
        assert em_fit(f, s, config, init=ints) == em_fit(
            f, s, config, init=floats
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_stats_rejected(self, three_star, bad):
        s = suff_stats(np.random.default_rng(20).normal(size=(20, 3)))
        moment = s.second_moment.copy()
        moment[0, 1] = moment[1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            em_fit(three_star, suff_stats_from_cov(moment, s.n))

    def test_result_unpacks(self, three_star):
        x = np.random.default_rng(14).normal(size=(20, 3))
        res = em_fit(three_star, suff_stats(x), EmConfig(restarts=1))
        params, ll, iters = res
        assert params is res.params
        assert ll == res.loglik and iters == res.iters


class TestEmMatchesReference:
    """em_fit equals the dict-based oracle exactly, not approximately."""

    @staticmethod
    def assert_same(res, want):
        params, ll, iters, converged = want
        assert res.loglik == ll
        assert res.iters == iters
        assert res.converged == converged
        assert res.params == params

    def test_lattice5_classes(self):
        host = lattice5_host()
        lat = subforest_lattice(host)
        rep = steiner_subforest(host, lat.classes[lattice5_truth_index(lat)])
        truth = ModelParams(
            leaf_var={v: 1.0 for v in host.observed},
            edge_corr={e: 0.6 for e in rep.edges},
        )
        x = sample(rep, truth, 125, seed=3)
        stats = suff_stats(x, names=rep.observed)
        config = EmConfig(restarts=2, max_iter=300, seed=5)
        assert len(lat.classes) == 34
        for c in lat.classes:
            assert c.forest.observed == rep.observed
            self.assert_same(
                em_fit(c, stats, config),
                reference_em_fit(c.forest, suff_stats(x), config),
            )

    @pytest.mark.parametrize("m", range(3, 9))
    def test_trivalent_from_random_init(self, m):
        f = random_trivalent_tree(m, m)
        rng = np.random.default_rng(100 + m)
        x = sample(f, random_params(f, rng), 80, seed=m)
        stats = suff_stats(x)
        init = random_params(f, rng)
        config = EmConfig(restarts=2, max_iter=400, seed=m)
        self.assert_same(
            em_fit(f, stats, config, init=init),
            reference_em_fit(f, stats, config, init=init),
        )

    @pytest.mark.parametrize("m,seed", [(3, 21), (4, 22), (5, 23), (6, 24)])
    def test_mixed_node_order_covariance(self, m, seed):
        f = mixed_order_forest(m, seed)
        assert f.nodes[0] in f.latent
        assert f.observed != f.nodes[: len(f.observed)]
        rng = np.random.default_rng(seed)
        for _ in range(5):
            p = random_params(f, rng)
            want = reference_joint_covariance(f, p)
            assert np.array_equal(joint_covariance(f, p), want)
            idx = [f.nodes.index(v) for v in f.observed]
            assert np.array_equal(covariance(f, p), want[np.ix_(idx, idx)])
            # h_q reads path products from the same kernel
            unit = ModelParams({v: 1.0 for v in f.observed}, p.edge_corr)
            corr = reference_joint_covariance(f, unit)[np.ix_(idx, idx)]
            cov = covariance(f, random_params(f, rng))
            want_h = 0.0
            for i, v in enumerate(f.observed):
                want_h += (p.leaf_var[v] - cov[i, i]) ** 2
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    rho_star = cov[i, j] / math.sqrt(cov[i, i] * cov[j, j])
                    want_h += (float(corr[i, j]) - rho_star) ** 2
            assert h_q(f, p, cov) == want_h

    @pytest.mark.parametrize("m,seed", [(3, 31), (4, 32), (5, 33), (6, 34)])
    def test_mixed_node_order_fit(self, m, seed):
        f = mixed_order_forest(m, seed)
        rng = np.random.default_rng(seed)
        x = sample(f, random_params(f, rng), 90, seed=seed)
        stats = suff_stats(x)
        config = EmConfig(restarts=2, max_iter=300, seed=seed)
        self.assert_same(em_fit(f, stats, config),
                         reference_em_fit(f, stats, config))
        init = random_params(f, rng)
        self.assert_same(em_fit(f, stats, config, init=init),
                         reference_em_fit(f, stats, config, init=init))

    def test_clamped_correlation(self):
        # identical columns drive the edge correlation onto the clamp
        f = build_forest({"1": False, "2": False}, [("1", "2")])
        z = np.random.default_rng(17).normal(size=(30, 1))
        stats = suff_stats(np.hstack([z, z]))
        config = EmConfig(restarts=1)
        res = em_fit(f, stats, config)
        self.assert_same(res, reference_em_fit(f, stats, config))
        assert res.params.edge_corr[edge("1", "2")] == 1.0 - 1e-9

    def test_em_step(self, quartet):
        rng = np.random.default_rng(15)
        s = suff_stats(sample(quartet, quartet_params(), 60, seed=15))
        cur = random_params(quartet, rng)
        for _ in range(5):
            want = reference_em_step(quartet, cur, s.second_moment)
            cur = _em_step(quartet, cur, s.second_moment, EmConfig())
            assert cur == want

    def test_one_factorization_per_iteration(self, quartet):
        s = suff_stats(sample(quartet, quartet_params(), 60, seed=16))
        with mock.patch.object(
            gaussian, "dpotrf", wraps=gaussian.dpotrf
        ) as spy:
            res = em_fit(quartet, s, EmConfig(restarts=1, max_iter=7))
        assert res.iters == 7
        assert spy.call_count == res.iters + 1
