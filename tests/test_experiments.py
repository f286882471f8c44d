import json
from dataclasses import replace

import numpy as np
import pytest

from latentforest import (
    CountRow,
    EmConfig,
    ExperimentConfig,
    ExperimentResult,
    ModelLattice,
    ModelParams,
    NoSuchDepth,
    TooFewLeaves,
    TooFewSamples,
    TooLarge,
    canonicalize,
    covariance,
    lattice5_host,
    lattice5_truth_index,
    model_dimension,
    pruned_chain,
    random_subforest_at_depth,
    random_trivalent_tree,
    run_experiment,
    sample,
    score_lattice,
    steiner_subforest,
    subforest_lattice,
    suff_stats,
    suff_stats_from_cov,
)
from latentforest import experiments
from latentforest.experiments import SAMPLE_SIZE_BOUND


class TestGenerators:
    def test_lattice5_host_layout(self, five_tree):
        host = lattice5_host()
        assert canonicalize(host).code == canonicalize(five_tree).code
        assert len(host.edges) == 7
        lat = subforest_lattice(host)
        assert len(lat) == 34

    def test_truth_class(self):
        lat = subforest_lattice(lattice5_host())
        idx = lattice5_truth_index(lat)
        assert lat.code_string(idx) == "1 1 1 1 1 0 1"
        assert model_dimension(lat.classes[idx]) == 10
        # a proper subclass of the saturated model
        assert idx != lat.max_index
        assert lat.leq(idx, lat.max_index)

    def test_truth_class_missing(self):
        # a lattice of the host's bottom and top classes only, as a
        # pruning chain has
        host = lattice5_host()
        lat = ModelLattice(host, (0, (1 << len(host.edges)) - 1))
        with pytest.raises(LookupError, match="wrong host"):
            lattice5_truth_index(lat)

    def test_trivalent_tree_shape(self):
        for m in range(3, 9):
            for seed in (0, 1, 7):
                t = random_trivalent_tree(m, seed)
                assert len(t.observed) == m
                assert len(t.edges) == 2 * m - 3
                assert all(t.degree(v) == 1 for v in t.observed)
                assert all(t.degree(v) == 3 for v in t.latent)

    def test_trivalent_tree_deterministic(self):
        a = random_trivalent_tree(7, 42)
        b = random_trivalent_tree(7, 42)
        assert a.edge_set == b.edge_set
        seen = {
            frozenset(random_trivalent_tree(7, s).edge_set) for s in range(8)
        }
        assert len(seen) > 1

    def test_trivalent_tree_too_small(self):
        with pytest.raises(TooFewLeaves):
            random_trivalent_tree(2, 0)

    def test_subforest_at_depth(self):
        t = random_trivalent_tree(5, 3)
        lat = subforest_lattice(t)
        c0 = random_subforest_at_depth(t, 0, 11)
        assert c0.forest.edges == ()
        top = random_subforest_at_depth(t, max(lat.depth), 11)
        assert top.code == lat.classes[lat.max_index].code
        mid = random_subforest_at_depth(t, 2, 11)
        assert lat.depth[lat.class_index(mid)] == 2
        again = random_subforest_at_depth(t, 2, 11)
        assert mid == again

    def test_no_such_depth(self):
        t = random_trivalent_tree(4, 0)
        with pytest.raises(NoSuchDepth):
            random_subforest_at_depth(t, 99, 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", n_values=(100, 100))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", n_values=(500, 100))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", n_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", corr=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", corr=1.0)

    def test_sample_size_range(self):
        with pytest.raises(TooFewSamples, match="sBIC needs n >= 2"):
            ExperimentConfig(kind="lattice5", n_values=(1, 50))
        big = SAMPLE_SIZE_BOUND + 1
        with pytest.raises(TooLarge, match="sample size bound"):
            ExperimentConfig(kind="lattice5", n_values=(50, big))
        cfg = ExperimentConfig(kind="lattice5", n_values=(2, SAMPLE_SIZE_BOUND))
        assert cfg.n_values == (2, SAMPLE_SIZE_BOUND)

    @pytest.mark.parametrize(
        "bad",
        [
            {"master_seed": "7"},
            {"m": 6},
            {"corr": "0.6"},
        ],
    )
    def test_wrong_types_rejected(self, bad):
        # the simulate CLI error tests cover replicates and n_values
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lattice5", **bad)

    def test_coercion_and_json(self):
        cfg = ExperimentConfig(
            kind="depth_comparison",
            n_values=[125.0, 1000],
            replicates=4,
            master_seed=9,
            m=[4, 6],
            corr=0.5,
        )
        assert cfg.n_values == (125, 1000)
        assert cfg.m == (4, 6)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert json.loads(cfg.to_json())["kind"] == "depth_comparison"

    def test_from_json_defaults(self):
        cfg = ExperimentConfig.from_json('{"kind": "lattice5"}')
        assert cfg.replicates == 100
        assert cfg.n_values == (125,)


    def test_unknown_key_refused(self):
        with pytest.raises(ValueError, match="unknown config keys: replicate"):
            ExperimentConfig.from_json('{"kind": "lattice5", "replicate": 1}')

    def test_negative_master_seed_refused(self):
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig(kind="lattice5", master_seed=-1)


class TestResultContainers:
    def result(self):
        cfg = ExperimentConfig(kind="lattice5", replicates=2)
        rows = (
            CountRow("bic", 125, "0 0 0", 1),
            CountRow("bic", 125, "1 1 0", 1),
            CountRow("sbic", 125, "1 1 0", 2),
        )
        return ExperimentResult(
            config=cfg, rows=rows, codes=("0 0 0", "1 1 0"), hasse=((0, 1),)
        )

    def test_csv(self):
        res = self.result()
        lines = res.to_csv().splitlines()
        assert lines[0] == "criterion,n,label,count"
        assert lines[1] == "bic,125,0 0 0,1"
        assert len(lines) == 4

    def test_edges_csv(self):
        assert self.result().edges_csv() == "sub,sup\n0,1\n"

    def test_counts_filter(self):
        res = self.result()
        assert res.counts("bic", 125) == {"0 0 0": 1, "1 1 0": 1}
        assert res.counts("sbic", 125) == {"1 1 0": 2}
        assert res.counts("bic", 999) == {}


class TestRunExperiment:
    def test_custom_kind_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(kind="custom"))

    def test_lattice5_small(self):
        cfg = ExperimentConfig(
            kind="lattice5",
            n_values=(50,),
            replicates=3,
            master_seed=7,
            em=EmConfig(restarts=1, max_iter=150),
        )
        res = run_experiment(cfg)
        assert len(res.codes) == 34
        assert len(res.rows) == 2 * 34
        for crit in ("bic", "sbic"):
            assert sum(res.counts(crit, 50).values()) == 3
        assert res.hasse
        subs = {i for i, _ in res.hasse}
        sups = {j for _, j in res.hasse}
        assert subs | sups <= set(range(34))

        threaded = run_experiment(cfg, threads=4)
        assert threaded.rows == res.rows

    def test_lattice5_picks_are_score_lattice_picks(self):
        cfg = ExperimentConfig(
            kind="lattice5",
            n_values=(50, 125),
            replicates=3,
            master_seed=5,
            em=EmConfig(restarts=1, max_iter=150),
        )
        res = run_experiment(cfg)
        host = lattice5_host()
        lat = subforest_lattice(host)
        rep = steiner_subforest(host, lat.classes[lattice5_truth_index(lat)])
        params = ModelParams(
            leaf_var={v: 1.0 for v in host.observed},
            edge_corr={e: cfg.corr for e in rep.edges},
        )
        ms = cfg.master_seed
        for n in cfg.n_values:
            tally = {c: dict.fromkeys(res.codes, 0) for c in ("bic", "sbic")}
            for r in range(cfg.replicates):
                data = sample(
                    rep, params, n, seed=np.random.SeedSequence([ms, r, n])
                )
                stats = suff_stats(data, names=rep.observed)
                em_seed = np.random.SeedSequence([ms, r, n, 1]).generate_state(1)
                em = replace(cfg.em, seed=int(em_seed[0]))
                table = score_lattice(lat, stats, em)
                for crit, counts in tally.items():
                    counts[lat.code_string(table.best(crit))] += 1
            for crit, counts in tally.items():
                assert res.counts(crit, n) == counts

    def test_depth_comparison_small(self):
        cfg = ExperimentConfig(
            kind="depth_comparison",
            n_values=(100,),
            replicates=2,
            master_seed=3,
            m=(4,),
            em=EmConfig(restarts=1, max_iter=200),
        )
        res = run_experiment(cfg)
        labels = {(r.criterion, r.n, r.label) for r in res.rows}
        assert labels == {("bic", 100, "m=4"), ("sbic", 100, "m=4")}
        for r in res.rows:
            assert 0 <= r.count <= cfg.replicates

        threaded = run_experiment(cfg, threads=2)
        assert threaded.rows == res.rows


    def test_trivalent_class_count_is_fibonacci(self):
        fib = [1, 1]
        while len(fib) < 25:
            fib.append(fib[-1] + fib[-2])
        for m in range(3, 12):
            for seed in (0, 5):
                lat = subforest_lattice(random_trivalent_tree(m, seed))
                assert len(lat) == fib[2 * m - 2]  # F(2m - 1)
        # F(25) = 75025 classes at 13 leaves, F(27) = 196418 at 14
        assert experiments._trivalent_leaf_bound() == 13

    @pytest.mark.parametrize("m", [(6, 14), (6, 10**400)])
    def test_depth_comparison_refuses_large_trees_first(self, m, monkeypatch):
        def unused(*args):
            raise AssertionError("a tree was drawn")

        monkeypatch.setattr(experiments, "random_trivalent_tree", unused)
        cfg = ExperimentConfig(kind="depth_comparison", m=m, replicates=1)
        with pytest.raises(TooLarge, match=f"{m[1]} leaves"):
            run_experiment(cfg)


class TestPopulationRecovery:
    def test_chain_recovers_planted_class(self):
        # at population scale the greedy chain finds the planted truth
        for m, seed in [(6, 0), (6, 5), (7, 2)]:
            tree = random_trivalent_tree(m, seed)
            truth = random_subforest_at_depth(tree, (m - 1) // 2, seed + 1)
            rep = steiner_subforest(tree, truth)
            params = ModelParams(
                leaf_var={v: 1.0 for v in tree.observed},
                edge_corr={e: 0.6 for e in rep.edges},
            )
            cov = covariance(rep, params)
            stats = suff_stats_from_cov(
                cov, 10**7, names=rep.observed
            )
            res = pruned_chain(
                tree, stats, EmConfig(restarts=2, max_iter=4000, rel_tol=1e-12)
            )
            assert res.selected_bic == truth
            assert res.selected_sbic == truth
