import csv
import io
import json
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from latentforest import (
    ChainResult,
    EmConfig,
    ModelParams,
    NotComparable,
    NotInLattice,
    ScoreRow,
    ScoreTable,
    TooFewSamples,
    bic,
    build_forest,
    canonicalize,
    connected_observed_pairs,
    covariance,
    edge,
    em_fit,
    log_lprime,
    model_dimension,
    model_loglik,
    pair_rlct,
    pruned_chain,
    q_forest,
    random_subforest_at_depth,
    random_trivalent_tree,
    rlct_forest_pair,
    sample,
    sbic_all,
    score_lattice,
    select_exhaustive,
    steiner_subforest,
    subforest_lattice,
    suff_stats,
    suff_stats_from_cov,
)
from latentforest.selection import (
    _as_logliks,
    _drop_edge,
    _logsumexp,
    _solve_sbic,
    _warm_start,
)


def star3():
    return build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )


def quartet_tree():
    return build_forest(
        [(str(i), False) for i in range(1, 5)] + [("a", True), ("b", True)],
        [("a", "b"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
    )


def quartet_params(rho_ab=0.9):
    return ModelParams(
        leaf_var={"1": 1.2, "2": 0.8, "3": 1.5, "4": 2.0},
        edge_corr={
            edge("a", "b"): rho_ab,
            edge("a", "1"): 0.5,
            edge("a", "2"): -0.6,
            edge("b", "3"): 0.7,
            edge("b", "4"): 0.4,
        },
    )


def sbic_oracle(lat, lls, n, dps=60):
    """Extended precision reference for the coupled sBIC recursion.

    Solves the quadratic for each class directly in mpmath, without any
    of the log-domain rearrangements the production solver uses.
    """
    with mp.workdps(dps):
        logn = mp.log(n)

        def lprime(i, j):
            r = pair_rlct(lat, i, j)
            lam = mp.mpf(r.lam.numerator) / r.lam.denominator
            return mp.e ** (
                mp.mpf(lls[j]) - lam / 2 * logn + (r.mult - 1) * mp.log(logn)
            )

        xs = []
        for j in range(len(lat)):
            bel = lat.strictly_below(j)
            own = lprime(j, j)
            if not bel:
                xs.append(own)
                continue
            s = mp.fsum(xs[i] for i in bel)
            q = mp.fsum(lprime(i, j) * xs[i] for i in bel)
            xs.append(((own - s) + mp.sqrt((own - s) ** 2 + 4 * q)) / 2)
        return [float(mp.log(x)) for x in xs]


class TestBic:
    def test_formula(self):
        assert bic(-12.0, 3, 100) == -12.0 - 1.5 * math.log(100)

    def test_no_samples(self):
        with pytest.raises(TooFewSamples, match="n = 0"):
            bic(-12.0, 3, 0)

    def test_diagonal_lprime_is_bic(self):
        lat = subforest_lattice(quartet_tree())
        for j in range(len(lat)):
            dim = model_dimension(lat.classes[j])
            assert log_lprime(lat, j, j, -123.456, 125) == bic(
                -123.456, dim, 125
            )


class TestPairRlct:
    def test_three_star_goldens(self):
        lat = subforest_lattice(star3())
        # index order: empty, cherry 12, cherry 13, cherry 23, full star
        got = {
            (i, j): pair_rlct(lat, i, j).as_tuple()
            for j in range(5)
            for i in range(5)
            if lat.leq(i, j)
        }
        F = __import__("fractions").Fraction
        assert got[0, 0] == (F(3), 1)
        assert got[4, 4] == (F(6), 1)
        assert got[0, 4] == (F(9, 2), 1)
        for ch in (1, 2, 3):
            assert got[ch, ch] == (F(4), 1)
            assert got[0, ch] == (F(4), 2)
            assert got[ch, 4] == (F(5), 1)

    def test_not_comparable(self):
        lat = subforest_lattice(star3())
        with pytest.raises(NotComparable):
            pair_rlct(lat, 1, 2)
        with pytest.raises(NotComparable):
            pair_rlct(lat, 4, 0)

    def test_matches_steiner_route(self, five_tree):
        # the Steiner-mask route equals q_forest of the subclass pattern
        # inside the realized superclass, on every comparable pair
        lat = subforest_lattice(five_tree)
        F = __import__("fractions").Fraction
        pairs = 0
        for j in range(len(lat)):
            rep = steiner_subforest(five_tree, lat.classes[j])
            for i in range(len(lat)):
                if not lat.leq(i, j):
                    continue
                sub = q_forest(
                    rep, connected_observed_pairs(lat.classes[i].forest)
                )
                want = rlct_forest_pair(rep, sub)
                got = pair_rlct(lat, i, j)
                assert isinstance(got.lam, F)
                assert (got.lam, got.mult) == (want.lam, want.mult)
                pairs += 1
        assert pairs > len(lat)

    @pytest.mark.parametrize("sub, sup", [(0, 40), (0, 5), (-1, -1), (-1, 4),
                                          (1.5, 4), (0, 4.0)])
    def test_index_outside_lattice(self, sub, sup):
        lat = subforest_lattice(star3())
        with pytest.raises(NotInLattice, match="outside 0..4"):
            pair_rlct(lat, sub, sup)
        assert not lat.rlct_cache

    def test_numpy_integer_indices(self):
        lat = subforest_lattice(star3())
        got = pair_rlct(lat, np.int64(0), np.int64(4))
        assert got.as_tuple() == (__import__("fractions").Fraction(9, 2), 1)
        assert pair_rlct(lat, 0, 4) is got

    def test_memoized(self):
        lat = subforest_lattice(star3())
        first = pair_rlct(lat, 0, 4)
        assert lat.rlct_cache[(0, 4)] is first
        assert pair_rlct(lat, 0, 4) is first


class TestSbicSolver:
    def test_matches_mpmath_oracle(self):
        lat = subforest_lattice(star3())
        lls = [-540.0, -521.0, -522.5, -520.0, -505.0]
        table = sbic_all(lat, lls, 125)
        want = sbic_oracle(lat, lls, 125)
        for row, w in zip(table.rows, want):
            assert row.sbic == pytest.approx(w, rel=1e-8)

    def test_oracle_match_at_extreme_scale(self):
        lat = subforest_lattice(star3())
        lls = [-5.2e5, -5.06e5, -5.055e5, -5.07e5, -5.0e5]
        table = sbic_all(lat, lls, 10**6)
        want = sbic_oracle(lat, lls, 10**6)
        for row, w in zip(table.rows, want):
            assert math.isfinite(row.sbic)
            assert row.sbic == pytest.approx(w, rel=1e-8)

    def test_oracle_match_when_a_sub_dominates(self):
        # subclasses score far above their superclass, which drives the
        # scaled quadratic coefficients to zero; the solver must fall
        # back to the first order root instead of taking log(0)
        lat = subforest_lattice(star3())
        lls = [-100.0, -2000.0, -2100.0, -2200.0, -2500.0]
        table = sbic_all(lat, lls, 125)
        # the naive oracle formula cancels unless it gets enough digits
        want = sbic_oracle(lat, lls, 125, dps=1500)
        for row, w in zip(table.rows, want):
            assert math.isfinite(row.sbic)
            assert row.sbic == pytest.approx(w, rel=1e-8)

    def test_sum_cancels_own_term(self):
        # S = L = 1 and Q = exp(-2000), which underflows at scale 1:
        # x^2 = Q, so log x = -1000
        lp = {(0, 0): 0.0, (1, 1): 0.0, (0, 1): -2000.0}
        assert _solve_sbic([[], [0]], lambda i, j: lp[i, j]) == [0.0, -1000.0]

    def test_minimum_class_equals_bic(self):
        lat = subforest_lattice(star3())
        lls = [-540.0, -521.0, -522.5, -520.0, -505.0]
        table = sbic_all(lat, lls, 125)
        j = lat.min_index
        assert table.rows[j].sbic == table.rows[j].bic

    def test_sbic_at_least_bic(self):
        lat = subforest_lattice(quartet_tree())
        rng = np.random.default_rng(21)
        lls = sorted(rng.uniform(-800, -700, size=len(lat)))
        table = sbic_all(lat, lls, 200)
        for row in table.rows:
            assert row.sbic >= row.bic - 1e-9

    def test_single_element_chain(self):
        xs = _solve_sbic([[]], lambda i, j: -7.25)
        assert xs == [-7.25]

    def test_fits_forms(self):
        lat = subforest_lattice(star3())
        lls = [-50.0, -41.0, -42.0, -43.0, -40.0]
        a = sbic_all(lat, lls, 99)
        b = sbic_all(lat, dict(enumerate(lls)), 99)
        c = sbic_all(lat, [SimpleNamespace(loglik=v) for v in lls], 99)
        assert [r.sbic for r in a.rows] == [r.sbic for r in b.rows]
        assert [r.sbic for r in a.rows] == [r.sbic for r in c.rows]

    def test_fit_objects_pass_iters_and_converged(self):
        lat = subforest_lattice(star3())
        fits = [SimpleNamespace(loglik=-50.0 + j, iters=10 + j,
                                converged=j != 2) for j in range(len(lat))]
        table = sbic_all(lat, fits, 99)
        assert [r.iters for r in table.rows] == [10, 11, 12, 13, 14]
        assert [r.converged for r in table.rows] == [True, True, False,
                                                     True, True]
        rows = json.loads(table.to_json())
        assert list(rows[2])[-2:] == ["iters", "converged"]
        assert (rows[2]["iters"], rows[2]["converged"]) == (12, False)
        header = table.to_csv().splitlines()[0]
        assert header == "index,code,dim,loglik,bic,sbic"
        # plain log-likelihoods give rows without the two fields
        bare = json.loads(sbic_all(lat, [f.loglik for f in fits], 99).to_json())
        assert all("iters" not in r and "converged" not in r for r in bare)

    def test_fit_objects_pass_params(self):
        lat = subforest_lattice(star3())
        stats = suff_stats_from_cov(np.eye(3) + 0.5, 200, names=["1", "2", "3"])
        cfg = EmConfig(restarts=1, max_iter=50)
        fits = [em_fit(c, stats, cfg) for c in lat.classes]
        table = sbic_all(lat, fits, stats.n)
        assert all(r.params is f.params for r, f in zip(table.rows, fits))
        bare = sbic_all(lat, [f.loglik for f in fits], stats.n)
        assert all(r.params is None for r in bare.rows)
        # params never reach the JSON: without the two fit fields, the
        # rows of both tables are the same text
        fitted = [{k: v for k, v in r.items() if k not in ("iters", "converged")}
                  for r in json.loads(table.to_json())]
        assert json.dumps(fitted) == bare.to_json()

    def test_fit_less_json_row_pinned(self):
        row = ScoreRow(3, "d", 3, -10.0, -6.0, -4.0)
        assert ScoreTable(n=50, rows=(row,)).to_json() == (
            '[{"index": 3, "code": "d", "dim": 3, "loglik": -10.0, '
            '"bic": -6.0, "sbic": -4.0}]'
        )

    def test_needs_two_samples(self):
        lat = subforest_lattice(star3())
        with pytest.raises(TooFewSamples, match="sBIC needs n >= 2"):
            sbic_all(lat, [-1.0] * len(lat), 1)

    def test_log_lprime_needs_two_samples(self):
        lat = subforest_lattice(star3())
        with pytest.raises(TooFewSamples, match="sBIC needs n >= 2"):
            log_lprime(lat, 0, 0, -1.0, 1)

    def test_bad_fits(self):
        lat = subforest_lattice(star3())
        with pytest.raises(ValueError):
            _as_logliks({0: -1.0}, len(lat))
        with pytest.raises(ValueError):
            _as_logliks([-1.0, -2.0], len(lat))


def logsumexp_cases():
    """Vectors with ties, single entries and -inf entries, seeded."""
    rng = np.random.default_rng(15)
    cases = [[0.0], [-7.25], [-math.inf], [-math.inf] * 3, [2.0, 2.0],
             [3.0, -math.inf, 3.0], [-1e308, -math.inf], [1e300, 1e300, 0.0]]
    for n in range(400):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 40)))
        if n % 3 == 0:
            a = np.round(a)  # ties, the maximum among them
        if n % 4 == 0:
            a[rng.random(a.size) < 0.3] = -math.inf
        cases.append(a.tolist())
    return cases


class TestLogSumExp:
    def test_matches_scipy(self):
        from scipy import __version__
        from scipy.special import logsumexp

        # scipy 1.15 took the maxima out of the sum; before, the last
        # bits may move, by rounding errors at the scale of the entries
        new = tuple(int(x) for x in __version__.split(".")[:2]) >= (1, 15)
        for a in logsumexp_cases():
            got, want = _logsumexp(a), float(logsumexp(a))
            if new or not math.isfinite(want):
                assert got == want, a
            else:
                scale = 1.0 + max(abs(x) for x in a if math.isfinite(x))
                assert got == pytest.approx(want, rel=0, abs=1e-14 * scale), a

    def test_special_values(self):
        assert _logsumexp([-math.inf, -math.inf]) == -math.inf
        assert _logsumexp([math.inf, 0.0]) == math.inf
        assert math.isnan(_logsumexp([math.nan, 0.0]))
        assert _logsumexp([-3.5]) == -3.5
        assert _logsumexp([1.0, 1.0]) == 1.0 + math.log(2.0)


class TestScoreTable:
    def table(self):
        rows = (
            ScoreRow(0, "b", 2, -10.0, -5.0, -5.0),
            ScoreRow(1, "a", 1, -10.0, -5.0, -5.0),
            ScoreRow(2, "c", 1, -10.0, -5.0, -5.0),
            ScoreRow(3, "d", 3, -10.0, -6.0, -4.0),
        )
        return ScoreTable(n=50, rows=rows)

    def test_best_prefers_score_then_dim_then_code(self):
        t = self.table()
        assert t.best("sbic") == 3
        # bic ties at -5.0 between rows 0..2; dims 2, 1, 1; codes a < c
        assert t.best("bic") == 1

    def test_best_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            self.table().best("aic")

    def test_row_lookup(self):
        t = self.table()
        assert t.row(2).code == "c"
        with pytest.raises(KeyError):
            t.row(9)

    def test_csv_round_trip(self):
        t = self.table()
        got = list(csv.reader(io.StringIO(t.to_csv())))
        assert got[0] == ["index", "code", "dim", "loglik", "bic", "sbic"]
        assert len(got) == 1 + len(t.rows)
        for line, row in zip(got[1:], t.rows):
            assert int(line[0]) == row.index
            assert line[1] == row.code
            assert float(line[3]) == row.loglik
            assert float(line[5]) == row.sbic

    def test_json(self):
        data = json.loads(self.table().to_json())
        assert [d["index"] for d in data] == [0, 1, 2, 3]
        assert data[3] == {
            "index": 3,
            "code": "d",
            "dim": 3,
            "loglik": -10.0,
            "bic": -6.0,
            "sbic": -4.0,
        }


class TestExhaustive:
    def test_population_recovery_of_full_tree(self):
        host = quartet_tree()
        cov = covariance(host, quartet_params())
        stats = suff_stats_from_cov(cov, 10**6, names=host.observed)
        cfg = EmConfig(restarts=2, max_iter=4000, rel_tol=1e-12)
        lat = subforest_lattice(host)
        best, table = select_exhaustive(
            host, stats, criterion="sbic", config=cfg, lattice=lat
        )
        assert best.code == lat.classes[lat.max_index].code
        best_bic, _ = select_exhaustive(
            host, stats, criterion="bic", config=cfg, lattice=lat
        )
        assert best_bic.code == best.code
        assert len(table.rows) == len(lat)
        assert all(r.params is not None for r in table.rows)
        assert all(r.converged and r.iters >= 1 for r in table.rows)

    def test_score_lattice_rows_align(self):
        host = star3()
        cov = covariance(
            host,
            ModelParams(
                leaf_var={"1": 1.0, "2": 1.0, "3": 1.0},
                edge_corr={
                    edge("h", "1"): 0.5,
                    edge("h", "2"): 0.6,
                    edge("h", "3"): 0.7,
                },
            ),
        )
        lat = subforest_lattice(host)
        table = score_lattice(
            lat,
            suff_stats_from_cov(cov, 500, names=host.observed),
            EmConfig(restarts=2),
        )
        assert [r.index for r in table.rows] == list(range(len(lat)))
        assert [r.code for r in table.rows] == [
            lat.code_string(j) for j in range(len(lat))
        ]
        # likelihood can only improve up the lattice
        for j in range(len(lat)):
            for i in lat.strictly_below(j):
                assert table.rows[i].loglik <= table.rows[j].loglik + 1e-6


class TestPrunedChain:
    def test_population_chain_structure(self):
        host = quartet_tree()
        cov = covariance(host, quartet_params())
        stats = suff_stats_from_cov(cov, 10**6, names=host.observed)
        res = pruned_chain(
            host, stats, EmConfig(restarts=2, max_iter=4000, rel_tol=1e-12)
        )
        assert isinstance(res, ChainResult)
        assert res.chain[0].code == canonicalize(host).code
        assert res.chain[-1].forest.edges == ()
        assert len(res.table.rows) == len(res.chain)
        assert [r.index for r in res.table.rows] == list(
            range(len(res.chain))
        )
        # steiner codes shrink along the chain
        marks = [
            {k for k, c in enumerate(r.code.split()) if c == "1"}
            for r in res.table.rows
        ]
        for a, b in zip(marks, marks[1:]):
            assert b < a
        assert res.selected_bic is res.chain[res.table.best("bic")]
        assert res.selected_sbic is res.chain[res.table.best("sbic")]
        # truth is the full tree, so both criteria keep everything
        assert res.selected_bic.code == res.chain[0].code
        assert res.selected_sbic.code == res.chain[0].code

    def test_population_recovers_proper_subclass(self):
        host = quartet_tree()
        cov = covariance(host, quartet_params(rho_ab=0.0))
        stats = suff_stats_from_cov(cov, 10**6, names=host.observed)
        res = pruned_chain(
            host, stats, EmConfig(restarts=2, max_iter=4000, rel_tol=1e-12)
        )
        truth = canonicalize(
            build_forest(
                {str(i): False for i in range(1, 5)},
                [("1", "2"), ("3", "4")],
            )
        )
        assert res.selected_bic.code == truth.code
        assert res.selected_sbic.code == truth.code

    @pytest.mark.parametrize(
        "tree",
        [random_trivalent_tree(m, m - 4) for m in range(4, 8)]
        + [
            # five leaves with the inner edge a-b subdivided by s, and the
            # a-5 edge by t: a canonical edge can stand for a host run
            build_forest(
                [(str(i), False) for i in range(1, 6)]
                + [(v, True) for v in "abcst"],
                [("a", "s"), ("s", "b"), ("a", "t"), ("t", "5"), ("a", "1"),
                 ("b", "4"), ("b", "c"), ("3", "c"), ("2", "c")],
            )
        ],
    )
    def test_chain_masks_are_steiner_masks(self, tree):
        params = ModelParams(
            leaf_var={v: 1.0 for v in tree.observed},
            edge_corr={e: 0.6 for e in tree.edges},
        )
        stats = suff_stats(
            sample(tree, params, 200, seed=3), names=tree.observed
        )
        res = pruned_chain(tree, stats, EmConfig(restarts=1, max_iter=50))
        for cls, row in zip(res.chain, res.table.rows):
            rep = steiner_subforest(tree, cls).edge_set
            assert row.code == " ".join(
                "1" if e in rep else "0" for e in tree.edges
            )

    def test_warm_start_products(self):
        host = quartet_tree()
        cand = canonicalize(_drop_edge(host, 0))  # drop the a--b edge
        got = _warm_start(cand, quartet_params())
        assert got.edge_corr[edge("1", "2")] == pytest.approx(0.5 * -0.6)
        assert got.edge_corr[edge("3", "4")] == pytest.approx(0.7 * 0.4)
        assert got.leaf_var == quartet_params().leaf_var

    def test_sbic_matches_direct_pair_formula(self):
        # seven leaves, truth at half depth: some pruning step of this
        # chain drops several host edges at once
        tree = random_trivalent_tree(7, 4)
        truth = random_subforest_at_depth(tree, 3, 0)
        rep = steiner_subforest(tree, truth)
        params = ModelParams(
            leaf_var={v: 1.0 for v in tree.observed},
            edge_corr={e: 0.6 for e in rep.edges},
        )
        stats = suff_stats(sample(rep, params, 200, seed=1), names=rep.observed)
        res = pruned_chain(tree, stats, EmConfig(restarts=1, max_iter=300, seed=2))
        reps = [steiner_subforest(tree, c) for c in res.chain]
        assert max(
            len(a.edge_set - b.edge_set) for a, b in zip(reps, reps[1:])
        ) >= 2

        # chain positions run top down; the solver wants them bottom up
        size, logn = len(res.chain), math.log(stats.n)

        def lp(i: int, j: int) -> float:
            sub, sup = size - 1 - i, size - 1 - j
            pat = connected_observed_pairs(res.chain[sub].forest)
            r = rlct_forest_pair(reps[sup], q_forest(reps[sup], pat))
            return (
                res.table.rows[sup].loglik
                - 0.5 * float(r.lam) * logn
                + (r.mult - 1) * math.log(logn)
            )

        xs = _solve_sbic([list(range(j)) for j in range(size)], lp)
        for pos, row in enumerate(res.table.rows):
            cls = res.chain[pos]
            assert row.index == pos
            assert row.sbic == xs[size - 1 - pos]
            assert set(row.params.edge_corr) == set(cls.forest.edges)
            assert row.loglik == pytest.approx(
                model_loglik(cls, row.params, stats), rel=1e-9
            )
