import time
from fractions import Fraction

import numpy as np
import pytest

from latentforest import (
    LeafMismatch,
    ModelParams,
    NotSubforest,
    build_forest,
    canonicalize,
    connected_observed_pairs,
    covariance,
    edge,
    h_q_monomials,
    laplace_rlct_estimate,
    lattice5_host,
    model_dimension,
    pair_rlct,
    q_forest,
    random_trivalent_tree,
    rlct_forest_pair,
    rlct_monomial_sos,
    steiner_subforest,
    subforest_lattice,
    subtree_decomposition,
    zero_part_monomials,
)
from latentforest.engine import Rlct
from latentforest.forests import _subforest_of_mask
from conftest import latent_leaf_free_masks, subdivide_leaf_edge

F = Fraction


def two_leaf_host():
    return build_forest(
        {"1": False, "2": False, "a": True}, [("1", "a"), ("a", "2")]
    )


def empty_on(names):
    return build_forest({v: False for v in names}, [])


class TestPairThreshold:
    def test_quartet(self, quartet, quartet_sub):
        r = rlct_forest_pair(quartet, quartet_sub)
        assert r.as_tuple() == (F(13, 2), 1)

    def test_two_leaf_empty(self):
        r = rlct_forest_pair(two_leaf_host(), empty_on(["1", "2"]))
        assert r.as_tuple() == (F(3), 2)

    def test_full_pair_is_dimension(self, quartet):
        r = rlct_forest_pair(quartet, quartet)
        assert r.as_tuple() == (F(model_dimension(quartet)), 1)

    def test_empty_in_five_tree(self, five_tree):
        r = rlct_forest_pair(five_tree, empty_on(five_tree.observed))
        # dim 5 plus half the five host edges meeting a leaf
        assert r.as_tuple() == (F(15, 2), 1)

    def test_multiplicity_from_chain_nodes(self, five_tree):
        # host with a degree-2 inner node c (the 3--c edge removed),
        # paired with the empty forest: c lies outside U*
        host = build_forest(
            [(v, v in five_tree.latent) for v in five_tree.nodes],
            [tuple(sorted(e)) for e in five_tree.edges
             if e != edge("3", "c")],
        )
        r = rlct_forest_pair(host, empty_on(five_tree.observed))
        assert r.as_tuple() == (F(7), 2)

    def test_interior_chain_not_counted(self):
        # the a-m-b chain hangs between two branch nodes and never
        # touches U*; the diagonal point sits on the leaf-edge facet
        # with slack in the chain coordinates, so the pole is simple
        host = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("a", True), ("m", True), ("b", True)],
            [("a", "1"), ("a", "2"), ("a", "m"), ("m", "b"),
             ("b", "3"), ("b", "4")],
        )
        sub = empty_on(["1", "2", "3", "4"])
        r = rlct_forest_pair(host, sub)
        assert r.as_tuple() == (F(6), 1)
        zero = rlct_monomial_sos(zero_part_monomials(host, sub))
        lam = F(model_dimension(sub)) + zero.lam
        assert (lam, zero.mult) == r.as_tuple()

    def test_anchored_chain_still_counts(self):
        # same host with one extra degree-2 node p on the 1-a leaf
        # edge; p reaches leaf 1, so it raises the order, while m
        # stays interior and does not
        host = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("p", True), ("a", True), ("m", True), ("b", True)],
            [("1", "p"), ("p", "a"), ("a", "2"), ("a", "m"),
             ("m", "b"), ("b", "3"), ("b", "4")],
        )
        sub = empty_on(["1", "2", "3", "4"])
        r = rlct_forest_pair(host, sub)
        assert r.as_tuple() == (F(6), 2)
        zero = rlct_monomial_sos(zero_part_monomials(host, sub))
        lam = F(model_dimension(sub)) + zero.lam
        assert (lam, zero.mult) == r.as_tuple()

    def test_leaf_mismatch(self, quartet):
        with pytest.raises(LeafMismatch):
            rlct_forest_pair(quartet, empty_on(["1", "2", "3"]))

    def test_host_latent_leaf_rejected(self, quartet):
        host = build_forest(
            [(v, v not in quartet.observed) for v in quartet.nodes]
            + [("z", True)],
            [tuple(e) for e in quartet.edges] + [("a", "z")],
        )
        with pytest.raises(ValueError, match="'z' has degree < 2"):
            rlct_forest_pair(host, empty_on(["1", "2", "3", "4"]))

    def test_sub_latent_not_in_host(self, quartet):
        sub = build_forest({**{str(i): False for i in range(1, 5)}, "z": True}, [])
        with pytest.raises(NotSubforest, match="node labels disagree"):
            rlct_forest_pair(quartet, sub)

    def test_not_subforest(self, quartet):
        other = build_forest(
            [(str(i), False) for i in range(1, 5)] + [("z", True)],
            [("z", "1"), ("z", "2"), ("z", "3"), ("z", "4")],
        )
        with pytest.raises(NotSubforest):
            rlct_forest_pair(quartet, other)

    def test_sub_latent_leaf_rejected(self, quartet):
        dangling = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("a", True), ("b", True)],
            [("a", "b"), ("a", "1"), ("a", "2")],
        )
        with pytest.raises(NotSubforest):
            rlct_forest_pair(quartet, dangling)


def walked_pair(host, sub) -> Rlct:
    """The closed form by walking two forests: the degree sum over U*,
    and the degree-2 nodes outside U* on chains that reach U*.  An
    independent reference for the mask kernel."""
    ustar = set(sub.nodes)
    sumw = sum(host.degree(u) - sub.degree(u) for u in sub.nodes)
    mid = {v for v in host.nodes if v not in ustar and host.degree(v) == 2}
    count = 0
    done: set[str] = set()
    for v in mid:
        if v in done:
            continue
        chain = {v}
        anchored = False
        for first in host.neighbors[v]:
            prev, cur = v, first
            while cur in mid:
                chain.add(cur)
                nxt = [u for u in host.neighbors[cur] if u != prev]
                prev, cur = cur, nxt[0]
            anchored = anchored or cur in ustar
        done |= chain
        if anchored:
            count += len(chain)
    return Rlct(F(model_dimension(sub)) + F(sumw, 2), 1 + count)


def assert_same(got: Rlct, want: Rlct, msg):
    assert type(got.lam) is F and type(got.mult) is int, msg
    assert got.as_tuple() == want.as_tuple(), msg


class TestMaskKernel:
    """The mask kernel behind pair_rlct and rlct_forest_pair equals the
    forest walk, exactly, with interior and anchored chains."""

    def check_lattice(self, lat, pairs):
        masks, host = lat.steiner_masks, lat.host
        for i, j in pairs:
            want = walked_pair(_subforest_of_mask(host, masks[j]),
                               _subforest_of_mask(host, masks[i]))
            assert_same(pair_rlct(lat, i, j), want, (i, j))

    @pytest.mark.parametrize("host", [
        pytest.param(lattice5_host(), id="five-leaf"),
        pytest.param(random_trivalent_tree(7, 3), id="trivalent-7-3"),
    ])
    def test_every_comparable_pair(self, host):
        lat = subforest_lattice(host)
        self.check_lattice(lat, [(i, j) for j in range(len(lat))
                                 for i in (*lat.strictly_below(j), j)])

    def test_seeded_pairs_at_nine_leaves(self):
        lat = subforest_lattice(random_trivalent_tree(9, 0))
        rng = np.random.default_rng(9)
        pairs = []
        for j in rng.integers(len(lat), size=400):
            below = lat.strictly_below(int(j))
            pairs += [(int(i), int(j)) for i in rng.choice(
                below + [int(j)], size=min(len(below) + 1, 5), replace=False)]
        self.check_lattice(lat, pairs)

    @pytest.mark.parametrize("m, k, seed", [(5, 1, 0), (5, 2, 1), (5, 3, 2),
                                            (6, 2, 3)])
    def test_forest_pairs_on_subdivided_hosts(self, m, k, seed):
        rng = np.random.default_rng(seed)
        tree = random_trivalent_tree(m, seed)
        for tag in range(k):
            tree = subdivide_leaf_edge(tree, tag, rng)
        masks = latent_leaf_free_masks(tree)
        interior = anchored = 0
        for sup in masks:
            host = _subforest_of_mask(tree, sup)
            for sub in masks:
                if sub & ~sup:
                    continue
                forest = _subforest_of_mask(tree, sub)
                want = walked_pair(host, forest)
                assert_same(rlct_forest_pair(host, forest), want, (sup, sub))
                mid = sum(1 for v in host.latent
                          if v not in forest.latent and host.degree(v) == 2)
                anchored += want.mult > 1
                interior += mid > want.mult - 1
        assert interior and anchored


class TestSubtreeDecomposition:
    def test_quartet(self, quartet, quartet_sub):
        parts = subtree_decomposition(quartet, quartet_sub)
        assert len(parts) == 1
        s1, leaves = parts[0]
        assert set(s1.edges) == {edge("a", "b"), edge("b", "3"),
                                 edge("b", "4")}
        assert set(leaves) == {"a", "3", "4"}

    def test_separate_subtrees(self, five_tree):
        # keep only the 1-5 cherry: removed edges split at a (in U*)
        sub = q_forest(five_tree, [("1", "5")])
        parts = subtree_decomposition(five_tree, sub)
        groups = [set(map(tuple, (sorted(e) for e in s.edges)))
                  for s, _ in parts]
        # a-b chain with everything behind it is one subtree
        assert len(parts) == 1
        assert len(groups[0]) == 5

    def test_leaf_counts_telescope(self, five_tree):
        lat = subforest_lattice(five_tree)
        for cls in lat.classes:
            sub = steiner_subforest(five_tree, cls)
            parts = subtree_decomposition(five_tree, sub)
            total = sum(len(leaves) for _, leaves in parts)
            ustar = set(sub.nodes)
            sumw = sum(
                len(e & ustar)
                for e in five_tree.edges
                if e not in sub.edge_set
            )
            assert total == sumw

    def test_full_pair_empty(self, quartet):
        assert subtree_decomposition(quartet, quartet) == ()


class TestZeroPartMonomials:
    def test_quartet_system(self, quartet, quartet_sub):
        m = zero_part_monomials(quartet, quartet_sub)
        assert m.dim == 3
        # coords follow host edge order: ab, b3, b4
        assert sorted(u for u, c in m.terms) == [
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        ]
        assert all(c == 0.0 for _, c in m.terms)
        assert m.domain == ((-1.0, 1.0),) * 3
        assert rlct_monomial_sos(m).as_tuple() == (F(3, 2), 1)

    def test_full_pair_no_system(self, quartet):
        m = zero_part_monomials(quartet, quartet)
        assert m.dim == 0
        assert m.terms == ()

    def test_dual_route_on_five_tree(self, five_tree):
        lat = subforest_lattice(five_tree)
        t0 = time.time()
        for cls in lat.classes:
            sub = steiner_subforest(five_tree, cls)
            closed = rlct_forest_pair(five_tree, sub)
            zero = rlct_monomial_sos(zero_part_monomials(five_tree, sub))
            lam = F(model_dimension(sub)) + zero.lam
            assert (lam, zero.mult) == closed.as_tuple(), cls.code
        assert time.time() - t0 < 10.0

    def test_pattern_preserved(self, five_tree):
        # q_forest of the class pattern inside the host reproduces it
        lat = subforest_lattice(five_tree)
        for cls in lat.classes:
            sub = steiner_subforest(five_tree, cls)
            assert connected_observed_pairs(sub) == connected_observed_pairs(
                cls.forest
            )


def generic_cov(sub, rng):
    """Sigma_q of random parameters of sub: variances U(0.5, 2) and
    correlations +-U(0.3, 0.9), so no correlation outside the pattern
    of sub vanishes."""
    params = ModelParams(
        leaf_var={v: rng.uniform(0.5, 2.0) for v in sub.observed},
        edge_corr={e: rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.9)
                   for e in sub.edges},
    )
    return covariance(sub, params)


class TestFullPhaseFunction:
    """Three routes to the RLCT of H_q agree: the closed form, the
    engine on the full H_q (nonzero constants and sign orthants
    included) and, on the three-star, the Laplace oracle."""

    @pytest.mark.parametrize("host, sample", [
        (lattice5_host(), None),
        (random_trivalent_tree(6, 0), None),
        (random_trivalent_tree(8, 1), 60),
        (random_trivalent_tree(10, 1), 60),
    ], ids=["five-leaf", "m6", "m8", "m10"])
    def test_engine_equals_closed_form(self, host, sample):
        """Every comparable pair of the lattice, or a seeded sample of
        them; the pair is the class rep in the host and the q-forest of
        the smaller class inside that rep."""
        rng = np.random.default_rng(len(host.observed))
        lat = subforest_lattice(host)
        if sample is None:
            pairs = [(j, i) for j in range(len(lat)) for i in range(len(lat))
                     if lat.leq(i, j)]
        else:
            masks = np.array(lat.steiner_masks)
            pairs = []
            for j in rng.integers(len(lat), size=sample):
                below = np.flatnonzero((masks & ~masks[j]) == 0)
                pairs.append((int(j), int(rng.choice(below))))
        bad = []
        for j, i in pairs:
            rep = steiner_subforest(host, lat.classes[j])
            sub = q_forest(rep, connected_observed_pairs(lat.classes[i].forest))
            m = h_q_monomials(rep, generic_cov(sub, rng), sub.observed)
            if rlct_monomial_sos(m) != rlct_forest_pair(rep, sub):
                bad.append((j, i))
        assert not bad, bad

    def test_laplace_on_three_star_lattice(self, three_star):
        """Criterion 10's bound, 20 % of the closed form, at every class."""
        rng = np.random.default_rng(3)
        lat = subforest_lattice(three_star)
        assert len(lat) == 5
        for cls in lat.classes:
            sub = q_forest(three_star, connected_observed_pairs(cls.forest))
            h = h_q_monomials(three_star, generic_cov(sub, rng), sub.observed)
            lam = float(rlct_forest_pair(three_star, sub).lam)
            est = laplace_rlct_estimate(h)
            assert abs(est.lambda_hat - lam) <= 0.2 * lam, (cls.code, est)
