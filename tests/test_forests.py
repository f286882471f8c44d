import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentforest import (
    CycleError,
    DuplicateEdge,
    Forest,
    NotInLattice,
    ObservedDegreeError,
    TooLarge,
    UnknownNode,
    UnrealizablePattern,
    build_forest,
    canonicalize,
    connected_observed_pairs,
    edge,
    forest_from_json,
    model_dimension,
    q_forest,
    random_trivalent_tree,
    sbic_all,
    steiner_subforest,
    subforest_lattice,
)
import latentforest.forests as forests_mod
from latentforest.cli import main
from latentforest.forests import _subforest_of_mask
from latentforest.selection import _drop_edge
from conftest import random_forest, run_python, subdivide_leaf_edge


def pattern_oracle(nodes, latent, edges):
    """Observed connectivity pattern by plain BFS, written independently
    of the Forest class: set of frozensets of observed nodes per
    component, empty (all latent) components dropped."""
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    out = set()
    for v in nodes:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    comp.add(x)
                    stack.append(x)
        obs = frozenset(comp - latent)
        if obs:
            out.add(obs)
    return out


def observed_components(f: Forest):
    return {
        frozenset(c - f.latent)
        for c in (set(comp) for comp in f.components())
        if c - f.latent
    }


class TestBuildForest:
    def test_cycle(self):
        with pytest.raises(CycleError):
            build_forest(
                {"a": False, "b": False, "c": True},
                [("a", "b"), ("b", "c"), ("c", "a")],
            )

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_forest({"a": False, "b": True}, [("a", "b"), ("b", "a")])

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            build_forest({"a": False}, [("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises((CycleError, ValueError)):
            build_forest({"a": False}, [("a", "a")])

    def test_observed_degree(self):
        with pytest.raises(ObservedDegreeError):
            build_forest(
                {"a": False, "b": False, "c": False},
                [("a", "b"), ("a", "c")],
            )

    def test_edge_order_kept(self, five_tree):
        assert five_tree.edges[5] == edge("3", "c")

    def test_json_round_trip(self, quartet):
        again = forest_from_json(quartet.to_json())
        assert again.nodes == quartet.nodes
        assert again.latent == quartet.latent
        assert again.edges == quartet.edges


def reference_path(f: Forest, u, v):
    """Depth-first u-v path search, independent of the library's walk."""
    if u == v:
        return ()
    parent = {u: u}
    stack = [u]
    while stack and v not in parent:
        x = stack.pop()
        for w in f.neighbors[x]:
            if w not in parent:
                parent[w] = x
                stack.append(w)
    if v not in parent:
        return None
    out = []
    x = v
    while x != u:
        out.append(edge(x, parent[x]))
        x = parent[x]
    return tuple(reversed(out))


def reference_component(f: Forest, v) -> frozenset:
    seen = {v}
    stack = [v]
    while stack:
        for w in f.neighbors[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


class TestPathsAndComponents:
    def test_match_depth_first_reference(self):
        rng = np.random.default_rng(22)
        cases = [random_forest(rng) for _ in range(200)]
        for m, seed in ((4, 0), (5, 1), (6, 2), (8, 3), (10, 4)):
            t = random_trivalent_tree(m, seed)
            for k in range(3):
                t = subdivide_leaf_edge(t, k, rng)
                cases.append(t)
        for f in cases:
            comps = []
            for u in f.nodes:
                comp = reference_component(f, u)
                assert f.component_of(u) == comp
                if comp not in comps:
                    comps.append(comp)
                for v in f.nodes:
                    got = f.path(u, v)
                    assert got == reference_path(f, u, v)
                    if u == v:
                        assert got == ()
                    elif v not in comp:
                        assert got is None
                    else:
                        ends = [set(e) for e in got]
                        assert u in ends[0] and v in ends[-1]
            assert f.components() == comps

    def test_path(self, five_tree):
        p = five_tree.path("1", "4")
        assert p == (edge("a", "1"), edge("a", "b"), edge("b", "4"))

    def test_no_path(self):
        f = build_forest({"a": False, "b": False}, [])
        assert f.path("a", "b") is None

    def test_components_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_forest(rng)
            assert observed_components(f) == pattern_oracle(
                f.nodes, f.latent, [tuple(e) for e in f.edges]
            )


class TestCanonicalize:
    def test_contracts_degree_two(self, five_tree):
        # remove the 3--c edge: c keeps degree 2 and must be contracted
        sub = Forest(
            nodes=five_tree.nodes,
            latent=five_tree.latent,
            edges=tuple(e for e in five_tree.edges if e != edge("3", "c")),
        )
        c = canonicalize(sub)
        assert "3" in c.forest.nodes  # isolated leaf stays
        assert len(c.forest.edges) == 5
        # exactly one merged edge, recording both contracted sources
        merged = [s for s in c.edge_sources if len(s) > 1]
        assert merged == [
            (edge("b", "c"), edge("2", "c")),
        ] or merged == [(edge("2", "c"), edge("b", "c"))]

    def test_drops_isolated_latent(self, quartet):
        sub = Forest(
            nodes=quartet.nodes,
            latent=quartet.latent,
            edges=(edge("a", "1"), edge("a", "2")),
        )
        c = canonicalize(sub)
        assert "b" not in c.forest.nodes
        # a has degree 2 and is contracted into a single 1--2 edge
        assert c.forest.edges == (edge("1", "2"),)

    def test_latent_relabeling_invariance(self, quartet):
        relabeled = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("x", True), ("y", True)],
            [("x", "y"), ("x", "1"), ("x", "2"), ("y", "3"), ("y", "4")],
        )
        assert canonicalize(quartet) == canonicalize(relabeled)

    def test_observed_relabeling_changes_code(self, quartet):
        swapped = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("a", True), ("b", True)],
            [("a", "b"), ("a", "1"), ("a", "3"), ("b", "2"), ("b", "4")],
        )
        assert canonicalize(quartet) != canonicalize(swapped)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_idempotent(self, seed):
        f = random_forest(np.random.default_rng(seed))
        c = canonicalize(f)
        again = canonicalize(c.forest)
        assert again == c
        assert again.forest.edges == c.forest.edges

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_preserves_pattern(self, seed):
        f = random_forest(np.random.default_rng(seed))
        c = canonicalize(f)
        assert connected_observed_pairs(f) == connected_observed_pairs(
            c.forest
        )

    def test_code_format_quartet(self, quartet):
        c = canonicalize(quartet)
        assert c.code == (
            '["[\\"o\\",\\"1\\",[[\\"h\\",[[\\"h\\",[[\\"o\\",\\"3\\"],'
            '[\\"o\\",\\"4\\"]]],[\\"o\\",\\"2\\"]]]]]"]'
        )
        assert c.forest.nodes == ("1", "2", "3", "4", "h1", "h2")
        assert c.forest.latent == {"h1", "h2"}
        assert c.forest.edges == (
            edge("1", "h1"),
            edge("h1", "h2"),
            edge("3", "h2"),
            edge("4", "h2"),
            edge("2", "h1"),
        )
        assert c.edge_sources == (
            (edge("1", "a"),),
            (edge("a", "b"),),
            (edge("3", "b"),),
            (edge("4", "b"),),
            (edge("2", "a"),),
        )

    def test_code_format_contracted(self, five_tree):
        sub = Forest(
            nodes=five_tree.nodes,
            latent=five_tree.latent,
            edges=tuple(e for e in five_tree.edges if e != edge("3", "c")),
        )
        c = canonicalize(sub)
        assert c.code == (
            '["[\\"o\\",\\"1\\",[[\\"h\\",[[\\"h\\",[[\\"o\\",\\"2\\"],'
            '[\\"o\\",\\"4\\"]]],[\\"o\\",\\"5\\"]]]]]","[\\"o\\",\\"3\\"]"]'
        )
        assert c.forest.nodes == ("1", "2", "3", "4", "5", "h1", "h2")
        assert c.forest.latent == {"h1", "h2"}
        assert c.forest.edges == (
            edge("1", "h1"),
            edge("h1", "h2"),
            edge("2", "h2"),
            edge("4", "h2"),
            edge("5", "h1"),
        )
        assert c.edge_sources == (
            (edge("1", "a"),),
            (edge("a", "b"),),
            (edge("2", "c"), edge("b", "c")),
            (edge("4", "b"),),
            (edge("5", "a"),),
        )

    def test_long_caterpillar(self):
        # deep enough to overflow a recursive code builder
        m = 1000
        leaves = [f"x{i}" for i in range(m)]
        spine = [f"z{i}" for i in range(m - 2)]
        edges = [(spine[0], leaves[0]), (spine[-1], leaves[-1])]
        edges += [(z, x) for z, x in zip(spine, leaves[1:])]
        edges += list(zip(spine, spine[1:]))
        f = build_forest(
            [(v, False) for v in leaves] + [(z, True) for z in spine], edges
        )
        c = canonicalize(f)
        assert c.forest.observed == tuple(leaves)
        assert len(c.forest.edges) == len(f.edges)
        again = canonicalize(c.forest)
        assert again == c
        assert again.forest.edges == c.forest.edges

    def test_edge_sources_independent_of_hash_seed(self):
        # a run of four degree-2 latent nodes merges into one edge whose
        # sources must come out in the same order in every process
        script = (
            "from latentforest import build_forest, canonicalize\n"
            "f = build_forest([('1', False), ('2', False)]\n"
            "    + [(f'z{i}', True) for i in range(4)],\n"
            "    [('1', 'z0'), ('z0', 'z1'), ('z1', 'z2'), ('z2', 'z3'),\n"
            "     ('z3', '2')])\n"
            "print([[sorted(e) for e in s] for s in canonicalize(f).edge_sources])\n"
        )
        outs = {run_python(["-c", script], seed) for seed in range(4)}
        assert len(outs) == 1
        assert outs.pop().strip() == str(
            [[["1", "z0"], ["z0", "z1"], ["z1", "z2"], ["z2", "z3"], ["2", "z3"]]]
        )


class TestModelDimension:
    def test_empty(self):
        f = build_forest({str(i): False for i in range(4)}, [])
        assert model_dimension(f) == 4

    def test_quartet(self, quartet):
        assert model_dimension(quartet) == 4 + 5

    def test_degree_two_discount(self):
        # path 1 - a - 2 with latent a: 2 observed + 2 edges - 1 deg-2 node
        f = build_forest(
            {"1": False, "2": False, "a": True}, [("1", "a"), ("a", "2")]
        )
        assert model_dimension(f) == 3


class TestQForest:
    def test_quartet_single_pair(self, quartet):
        qf = q_forest(quartet, [("1", "2")])
        assert set(qf.edges) == {edge("a", "1"), edge("a", "2")}
        assert set(qf.nodes) == {"1", "2", "3", "4", "a"}

    def test_unrealizable(self, quartet):
        # paths for {1,3} and {2,4} cover all edges, forcing 1~2 as well
        with pytest.raises(UnrealizablePattern):
            q_forest(quartet, [("1", "3"), ("2", "4")])

    def test_disconnected_pair(self):
        f = build_forest({"1": False, "2": False}, [])
        with pytest.raises(UnrealizablePattern):
            q_forest(f, [("1", "2")])

    def test_unknown_name(self, quartet):
        with pytest.raises(UnknownNode):
            q_forest(quartet, [("1", "9")])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip(self, seed):
        f = random_forest(np.random.default_rng(seed))
        pat = connected_observed_pairs(f)
        qf = q_forest(f, pat)
        assert connected_observed_pairs(qf) == pat


class TestLattice:
    def test_quartet_class_count(self, quartet):
        lat = subforest_lattice(quartet)
        assert len(lat.classes) == 13

    def test_five_tree_count_and_depth(self, five_tree):
        lat = subforest_lattice(five_tree)
        assert len(lat.classes) == 34
        assert max(lat.depth) == 4

    def test_classes_unique_patterns(self, five_tree):
        lat = subforest_lattice(five_tree)
        pats = {
            frozenset(connected_observed_pairs(c.forest))
            for c in lat.classes
        }
        assert len(pats) == len(lat.classes)

    def test_index_is_linear_extension(self, five_tree):
        lat = subforest_lattice(five_tree)
        for j in range(len(lat.classes)):
            assert all(i < j for i in lat.strictly_below(j))

    def test_min_max(self, five_tree):
        lat = subforest_lattice(five_tree)
        assert not lat.classes[lat.min_index].forest.edges
        assert lat.classes[lat.max_index] == canonicalize(five_tree)

    def test_code_strings(self, five_tree):
        lat = subforest_lattice(five_tree)
        codes = {lat.code_string(i) for i in range(len(lat.classes))}
        assert "0 0 0 0 0 0 0" in codes
        assert "1 1 1 1 1 1 1" in codes
        assert len(codes) == 34

    def test_steiner_round_trip(self, five_tree):
        lat = subforest_lattice(five_tree)
        for c in lat.classes:
            assert canonicalize(steiner_subforest(five_tree, c)) == c

    def test_not_in_lattice(self, five_tree, three_star):
        lat = subforest_lattice(five_tree)
        with pytest.raises(NotInLattice):
            lat.class_index(canonicalize(three_star))
        with pytest.raises(NotInLattice):
            steiner_subforest(five_tree, canonicalize(three_star))

    def test_too_large(self):
        big = build_forest(
            {**{f"x{i}": False for i in range(26)}, "h": True},
            [("h", f"x{i}") for i in range(26)],
        )
        with pytest.raises(TooLarge):
            subforest_lattice(big)

    def test_oversized_star_refused_fast(self, monkeypatch):
        calls = _spy_canonicalize(monkeypatch)
        star = build_forest(
            {**{f"x{i}": False for i in range(24)}, "h": True},
            [("h", f"x{i}") for i in range(24)],
        )
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            subforest_lattice(star)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    def test_classes_built_on_first_read(self, five_tree, monkeypatch):
        calls = _spy_canonicalize(monkeypatch)
        lat = subforest_lattice(five_tree)
        lat.covers()
        assert calls == []
        for i, mask in enumerate(lat.steiner_masks):
            first = lat.classes[i]
            assert first == canonicalize(_subforest_of_mask(five_tree, mask))
            assert lat.classes[i] is first
        assert len(calls) == len(lat)
        assert list(lat.classes) == [lat.classes[i] for i in range(len(lat))]
        assert len(calls) == len(lat)

    def test_sbic_all_canonicalizes_nothing(self, five_tree, monkeypatch):
        calls = _spy_canonicalize(monkeypatch)
        lat = subforest_lattice(five_tree)
        table = sbic_all(lat, [-float(len(lat) - j) for j in range(len(lat))],
                         100)
        assert [r.dim for r in table.rows] == list(lat.dims)
        assert calls == []

    def test_lattice_command_canonicalizes_nothing(
        self, five_tree, tmp_path, capsys, monkeypatch
    ):
        calls = _spy_canonicalize(monkeypatch)
        tree = tmp_path / "t.json"
        tree.write_text(five_tree.to_json())
        assert main(["lattice", "--tree", str(tree), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 34
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_subset_implies_leq(self, seed):
        rng = np.random.default_rng(seed)
        quartet = build_forest(
            [(str(i), False) for i in range(1, 5)]
            + [("a", True), ("b", True)],
            [("a", "b"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
        )
        lat = subforest_lattice(quartet)
        ne = len(quartet.edges)
        small = int(rng.integers(0, 1 << ne))
        bigger = small | int(rng.integers(0, 1 << ne))
        i = lat.class_index(canonicalize(_mask_forest(quartet, small)))
        j = lat.class_index(canonicalize(_mask_forest(quartet, bigger)))
        assert lat.leq(i, j)


def brute_force_lattice(host):
    """Reference lattice from the definition of a class.

    Canonicalizes every edge subset of ``host``, groups subsets by
    code, takes each class's minimal mask as the intersection of its
    group, and orders classes by the transitive closure of single-edge
    removal.  Returns (codes, masks, below, depth) in mask order.
    """
    ne = len(host.edges)
    by_code = {}
    code_of_mask = []
    for mask in range(1 << ne):
        code = canonicalize(_subforest_of_mask(host, mask)).code
        code_of_mask.append(code)
        by_code.setdefault(code, []).append(mask)
    steiner = {}
    for code, masks in by_code.items():
        m = masks[0]
        for x in masks[1:]:
            m &= x
        steiner[code] = m
    codes = sorted(by_code, key=steiner.__getitem__)
    index = {c: i for i, c in enumerate(codes)}
    k = len(codes)
    below = [1 << i for i in range(k)]
    for mask in range(1 << ne):
        j = index[code_of_mask[mask]]
        for b in range(ne):
            if (mask >> b) & 1:
                below[j] |= 1 << index[code_of_mask[mask & ~(1 << b)]]
    depth = [0] * k
    for j in range(k):
        strict = [i for i in range(j) if (below[j] >> i) & 1]
        for i in strict:
            below[j] |= below[i]
        depth[j] = max((depth[i] for i in strict), default=-1) + 1
    return codes, [steiner[c] for c in codes], below, depth


def _oracle_hosts():
    hosts = [
        pytest.param(random_trivalent_tree(m, s), id=f"trivalent-{m}-{s}")
        for m in range(3, 8)
        for s in (0, 1)
    ]
    hosts.append(
        pytest.param(random_trivalent_tree(8, 0), id="trivalent-8-0")
    )
    hosts.append(
        pytest.param(
            build_forest(
                [(str(i), False) for i in range(1, 5)] + [("h", True)],
                [("h", str(i)) for i in range(1, 5)],
            ),
            id="star-4",
        )
    )
    hosts.append(
        pytest.param(
            build_forest(
                [(str(i), False) for i in range(1, 6)]
                + [("a", True), ("b", True)],
                [("a", "1"), ("a", "2"), ("a", "b"), ("b", "3"), ("a", "4"),
                 ("b", "5")],
            ),
            id="degree-4-and-3",
        )
    )
    hosts.append(
        pytest.param(
            build_forest(
                [(str(i), False) for i in range(1, 7)]
                + [("g", True), ("h", True)],
                [("g", "1"), ("h", "4"), ("g", "2"), ("h", "5"), ("g", "3"),
                 ("h", "6")],
            ),
            id="two-components",
        )
    )
    return hosts


def transitive_reduction(below):
    """Cover pairs (i, j) of an order given as ``below`` bitsets, j
    ascending, then i ascending: i < j with no third class between."""
    out = []
    for j in range(len(below)):
        strict = [i for i in range(j) if (below[j] >> i) & 1]
        for i in strict:
            if not any(k != i and (below[k] >> i) & 1 for k in strict):
                out.append((i, j))
    return out


@pytest.mark.parametrize("host", _oracle_hosts())
def test_lattice_matches_brute_force(host):
    codes, masks, below, depth = brute_force_lattice(host)
    lat = subforest_lattice(host)
    assert [c.code for c in lat.classes] == codes
    assert list(lat.steiner_masks) == masks
    k = len(codes)
    assert [[lat.leq(i, j) for i in range(k)] for j in range(k)] == [
        [bool((below[j] >> i) & 1) for i in range(k)] for j in range(k)
    ]
    assert list(lat.depth) == depth
    assert lat.covers() == transitive_reduction(below)


@pytest.mark.parametrize("host", _oracle_hosts())
def test_dims_match_model_dimension(host):
    lat = subforest_lattice(host)
    assert list(lat.dims) == [model_dimension(c) for c in lat.classes]


def _spy_canonicalize(monkeypatch):
    """Record each forest that ``forests.canonicalize`` is called on."""
    calls = []
    real = forests_mod.canonicalize

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(forests_mod, "canonicalize", spy)
    return calls


def latent_leaf_free_masks(host):
    """Every edge mask of ``host`` in which no latent node has exactly
    one edge, by testing all 2^|E| subsets in increasing order."""
    incident = [
        sum(1 << b for b, e in enumerate(host.edges) if v in e)
        for v in host.latent
    ]
    return [
        mask
        for mask in range(1 << len(host.edges))
        if not any((h := mask & inc) and not h & (h - 1) for inc in incident)
    ]


@pytest.mark.parametrize("host", _oracle_hosts())
def test_walk_matches_subset_filter(host):
    """The pruned walk keeps exactly the masks without a latent leaf,
    whatever order the host declares its edges in."""
    rng = random.Random(len(host.edges))
    for _ in range(3):
        edges = list(host.edges)
        rng.shuffle(edges)
        shuffled = Forest(nodes=host.nodes, latent=host.latent,
                          edges=tuple(edges))
        lat = subforest_lattice(shuffled)
        assert list(lat.steiner_masks) == latent_leaf_free_masks(shuffled)


@pytest.mark.parametrize("host", _oracle_hosts())
def test_covers_are_single_edge_removals(host):
    """Removing one edge of a class's canonical forest gives a class one
    depth lower, and these removals are exactly the lattice's covers."""
    lat = subforest_lattice(host)
    removals = set()
    for j, cls in enumerate(lat.classes):
        for k in range(len(cls.forest.edges)):
            i = lat.class_index(canonicalize(_drop_edge(cls.forest, k)))
            assert lat.depth[i] == lat.depth[j] - 1
            removals.add((i, j))
    assert set(lat.covers()) == removals


def _mask_forest(host, mask):
    return Forest(
        nodes=host.nodes,
        latent=host.latent,
        edges=tuple(e for k, e in enumerate(host.edges) if (mask >> k) & 1),
    )
