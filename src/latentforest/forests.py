"""Forests with observed leaves and latent inner nodes.

A ``Forest`` is a simple acyclic undirected graph whose nodes are split
into observed nodes and latent nodes.  Observed nodes must be leaves
(degree at most one).  Latent nodes carry no data and are exchangeable,
so two forests describe the same statistical model when they are
isomorphic by a map that fixes the observed labels.

The module provides

* validated construction (``build_forest``) and JSON round trips,
* reduction to a canonical form with no latent node of degree <= 2
  (``canonicalize``), together with a stable leaf-anchored code,
* the model dimension count ``|V| + |E| - l2``,
* the minimal subforest inducing a given correlation pattern
  (``q_forest``) and its relative ``steiner_subforest``,
* exhaustive enumeration of the lattice of subforest classes
  (``subforest_lattice``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .errors import (
    CycleError,
    DuplicateEdge,
    NotInLattice,
    ObservedDegreeError,
    TooLarge,
    UnknownNode,
    UnrealizablePattern,
)

# An undirected edge is a frozenset of two node ids.
Edge = frozenset

#: Exhaustive lattice enumeration refuses hosts above this edge count.
LATTICE_EDGE_BOUND = 24


def edge(u: str, v: str) -> Edge:
    """Undirected edge between two distinct node ids."""
    if u == v:
        raise CycleError(f"self loop at node {u!r}")
    return frozenset((u, v))


@dataclass(frozen=True)
class Forest:
    """Immutable forest with observed leaf nodes and latent inner nodes.

    ``nodes`` keeps the declared order, which also fixes the order of
    observed nodes used by covariance matrices and sample columns.
    ``edges`` keeps the declared order, which fixes bit positions in
    lattice edge-subset codes.
    """

    nodes: tuple[str, ...]
    latent: frozenset[str]
    edges: tuple[Edge, ...]

    @cached_property
    def observed(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if v not in self.latent)

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for e in self.edges:
            u, v = sorted(e)
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    def degree(self, v: str) -> int:
        return len(self.neighbors[v])

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def component_of(self, v: str) -> frozenset:
        """Node set of the connected component containing ``v``."""
        seen = {v}
        stack = [v]
        while stack:
            for w in self.neighbors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def components(self) -> list[frozenset]:
        out = []
        done: set[str] = set()
        for v in self.nodes:
            if v not in done:
                comp = self.component_of(v)
                done |= comp
                out.append(comp)
        return out

    def path(self, u: str, v: str) -> tuple[Edge, ...] | None:
        """Edges on the unique u-v path, or None if disconnected."""
        if u == v:
            return ()
        parent: dict[str, str] = {u: u}
        stack = [u]
        while stack and v not in parent:
            x = stack.pop()
            for w in self.neighbors[x]:
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

    def connected(self, u: str, v: str) -> bool:
        return v in self.component_of(u)

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [
                    {"id": v, "latent": v in self.latent} for v in self.nodes
                ],
                "edges": [sorted(e) for e in self.edges],
            }
        )


def build_forest(nodes, edges) -> Forest:
    """Validate and build a :class:`Forest`.

    Parameters
    ----------
    nodes
        Mapping from node id to a latent flag, or an iterable of
        ``(id, latent)`` pairs.  Ids are coerced to ``str``.
    edges
        Iterable of node id pairs.

    Raises
    ------
    UnknownNode, DuplicateEdge, CycleError, ObservedDegreeError
    """
    if isinstance(nodes, Mapping):
        items = [(str(v), bool(b)) for v, b in nodes.items()]
    else:
        items = [(str(v), bool(b)) for v, b in nodes]
    ids = [v for v, _ in items]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate node ids in {ids}")
    latent = frozenset(v for v, b in items if b)
    known = set(ids)

    seen: set[Edge] = set()
    out_edges: list[Edge] = []
    parent = {v: v for v in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in edges:
        u, v = (str(x) for x in pair)
        for x in (u, v):
            if x not in known:
                raise UnknownNode(f"edge endpoint {x!r} was not declared")
        e = edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {sorted(e)} repeated")
        seen.add(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleError(f"edge {sorted(e)} closes a cycle")
        parent[ru] = rv
        out_edges.append(e)

    f = Forest(nodes=tuple(ids), latent=latent, edges=tuple(out_edges))
    for v in f.observed:
        if f.degree(v) > 1:
            raise ObservedDegreeError(
                f"observed node {v!r} has degree {f.degree(v)}"
            )
    return f


def forest_from_json(text: str) -> Forest:
    doc = json.loads(text)
    return build_forest(
        [(n["id"], n.get("latent", False)) for n in doc["nodes"]],
        doc["edges"],
    )


# --------------------------------------------------------------------------
# canonical form


@dataclass(frozen=True, eq=False)
class CanonicalForest:
    """A forest with no latent node of degree <= 2, plus a stable code.

    Two canonical forests compare equal exactly when they are
    isomorphic by a relabeling of latent nodes that fixes the observed
    nodes.  ``edge_sources[i]`` lists the edges of the input forest
    that were merged into ``forest.edges[i]`` by degree-2 contraction.
    """

    forest: Forest
    code: str
    edge_sources: tuple[tuple[Edge, ...], ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalForest) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)


def _as_forest(f: Forest | CanonicalForest) -> Forest:
    return f.forest if isinstance(f, CanonicalForest) else f


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fresh_latent_names(observed: Iterable[str], count: int) -> list[str]:
    taken = set(observed)
    prefix = "h"
    while any(f"{prefix}{i + 1}" in taken for i in range(count)):
        prefix = "h" + prefix
    return [f"{prefix}{i + 1}" for i in range(count)]


def canonicalize(f: Forest) -> CanonicalForest:
    """Reduce ``f`` to canonical form.

    Latent nodes of degree <= 1 are deleted together with their
    incident edges, and each latent node of degree 2 is removed by
    merging its two edges into one, until no such node remains.
    Observed nodes are never touched.  Latent nodes are then relabeled
    deterministically as h1, h2, ...
    """
    alive = set(f.nodes)
    latent = set(f.latent)
    adj: dict[str, set[str]] = {v: set() for v in f.nodes}
    sources: dict[Edge, tuple[Edge, ...]] = {}
    for e in f.edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
        sources[e] = (e,)

    def drop_edge(u: str, v: str) -> None:
        adj[u].discard(v)
        adj[v].discard(u)
        del sources[edge(u, v)]

    changed = True
    while changed:
        changed = False
        # rule (i): delete latent nodes of degree <= 1
        queue = [v for v in alive if v in latent and len(adj[v]) <= 1]
        while queue:
            v = queue.pop()
            if v not in alive:
                continue
            for w in list(adj[v]):
                drop_edge(v, w)
                if w in latent and len(adj[w]) <= 1:
                    queue.append(w)
            alive.discard(v)
            changed = True
        # rule (ii): contract one latent node of degree 2, then rescan
        for v in alive:
            if v in latent and len(adj[v]) == 2:
                p, q = sorted(adj[v])
                merged = sources[edge(v, p)] + sources[edge(v, q)]
                drop_edge(v, p)
                drop_edge(v, q)
                alive.discard(v)
                adj[p].add(q)
                adj[q].add(p)
                sources[edge(p, q)] = merged
                changed = True
                break

    observed = [v for v in f.nodes if v not in latent]

    # Leaf-anchored code objects: latent identity is erased, observed ids
    # are kept, children are sorted by their serialized code.  Each
    # component is rooted at its smallest observed id.
    def code_obj(v: str, par: str | None):
        children = sorted(
            (code_obj(w, v) for w in adj[v] if w != par), key=_dumps
        )
        if v in latent:
            return ["h", children]
        return ["o", v, children] if children else ["o", v]

    comps: list[tuple[str, str]] = []  # (component code, root)
    done: set[str] = set()
    for v in observed:
        if v in done:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        done |= comp
        root = min(x for x in comp if x not in latent)
        comps.append((_dumps(code_obj(root, None)), root))
    comps.sort()
    code = _dumps([c for c, _ in comps])

    # One deterministic preorder traversal (components by code, children
    # by code) fixes the latent labels and the output edge order.
    latent_order: list[str] = []
    walk: list[tuple[str, str]] = []  # (child, parent) in preorder
    for _, root in comps:
        stack: list[tuple[str, str | None]] = [(root, None)]
        while stack:
            v, par = stack.pop()
            if v in latent:
                latent_order.append(v)
            if par is not None:
                walk.append((v, par))
            children = sorted(
                (w for w in adj[v] if w != par),
                key=lambda w: _dumps(code_obj(w, v)),
            )
            for w in reversed(children):
                stack.append((w, v))

    names = dict(
        zip(latent_order, _fresh_latent_names(observed, len(latent_order)))
    )
    out_edges = tuple(
        edge(names.get(v, v), names.get(par, par)) for v, par in walk
    )
    out_sources = tuple(sources[edge(v, par)] for v, par in walk)
    reduced = Forest(
        nodes=tuple(observed) + tuple(names[v] for v in latent_order),
        latent=frozenset(names.values()),
        edges=out_edges,
    )
    return CanonicalForest(forest=reduced, code=code, edge_sources=out_sources)


def model_dimension(f: Forest | CanonicalForest) -> int:
    """Dimension |V| + |E| - l2 of the Gaussian latent forest model.

    V are the observed nodes and l2 counts nodes of degree exactly 2
    (such nodes can only be latent, observed nodes being leaves).
    """
    f = _as_forest(f)
    l2 = sum(1 for v in f.nodes if f.degree(v) == 2)
    return len(f.observed) + len(f.edges) - l2


# --------------------------------------------------------------------------
# minimal subforests


def _normalize_pairs(host: Forest, correlated_pairs) -> set[frozenset]:
    observed = set(host.observed)
    pairs: set[frozenset] = set()
    for pair in correlated_pairs:
        u, v = (str(x) for x in pair)
        for x in (u, v):
            if x not in observed:
                raise UnknownNode(
                    f"pair endpoint {x!r} is not an observed node"
                )
        if u == v:
            raise UnrealizablePattern(f"pair ({u!r}, {u!r}) is a self pair")
        pairs.add(frozenset((u, v)))
    return pairs


def q_forest(host: Forest, correlated_pairs) -> Forest:
    """Minimal subforest of ``host`` inducing the given correlations.

    The result is the union of the unique host paths between each
    correlated pair, with every observed node present (isolated when
    uncorrelated) and isolated latent nodes dropped.  Raises
    ``UnrealizablePattern`` when a pair spans two host components or
    when the path union connects a pair that was not listed.
    """
    pairs = _normalize_pairs(host, correlated_pairs)
    used: set[Edge] = set()
    for p in pairs:
        u, v = tuple(p)
        path = host.path(u, v)
        if path is None:
            raise UnrealizablePattern(
                f"nodes {u!r} and {v!r} lie in different host components"
            )
        used.update(path)

    edges = tuple(e for e in host.edges if e in used)
    touched = set().union(*edges) if edges else set()
    nodes = tuple(v for v in host.nodes if v not in host.latent or v in touched)
    out = Forest(nodes=nodes, latent=host.latent & touched, edges=edges)

    # the union of paths must not create correlations beyond the input
    for comp in out.components():
        obs = sorted(v for v in comp if v not in out.latent)
        for u, v in combinations(obs, 2):
            if frozenset((u, v)) not in pairs:
                raise UnrealizablePattern(
                    f"pattern forces correlation between {u!r} and {v!r}"
                )
    return out


def connected_observed_pairs(f: Forest) -> set[frozenset]:
    """All unordered observed pairs joined by a path in ``f``."""
    pairs: set[frozenset] = set()
    for comp in f.components():
        obs = [v for v in comp if v not in f.latent]
        pairs.update(frozenset(p) for p in combinations(obs, 2))
    return pairs


def steiner_subforest(host: Forest, sub: CanonicalForest) -> Forest:
    """Realize a lattice class inside ``host`` as a minimal subforest.

    Returns ``q_forest(host, pairs connected in sub)``; the result
    canonicalizes back to ``sub``.  Raises ``NotInLattice`` when ``sub``
    is not a subforest class of ``host``.
    """
    if set(sub.forest.observed) != set(host.observed):
        raise NotInLattice("observed node sets differ")
    try:
        qf = q_forest(host, connected_observed_pairs(sub.forest))
    except UnrealizablePattern as exc:
        raise NotInLattice(str(exc)) from exc
    if canonicalize(qf) != sub:
        raise NotInLattice("class is not realizable inside this host")
    return qf


# --------------------------------------------------------------------------
# the lattice of subforest classes


@dataclass
class ModelLattice:
    """All subforest classes of a host tree, partially ordered.

    Classes are indexed 0..k-1 in increasing order of their minimal
    edge-subset mask read as an integer (first declared edge = lowest
    bit).  Since a subclass has a strictly smaller minimal mask, the
    index order is a linear extension of the lattice order.  For the
    standard five-leaf example this numbering matches the conventional
    model numbers 1..34 shifted by one.

    ``below[i]`` is a bitmask over class indices j with class_j <=
    class_i, including i itself.  A pruning chain is scored as the
    totally ordered lattice of its classes, listed bottom up.
    """

    host: Forest
    classes: tuple[CanonicalForest, ...]
    steiner_masks: tuple[int, ...]
    below: tuple[int, ...]
    depth: tuple[int, ...]
    rlct_cache: dict = field(default_factory=dict, repr=False)
    _index: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.classes)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.below[j] >> i) & 1)

    def class_index(self, c: CanonicalForest) -> int:
        if not self._index:
            self._index.update(
                {cl.code: k for k, cl in enumerate(self.classes)}
            )
        try:
            return self._index[c.code]
        except KeyError:
            raise NotInLattice("unknown class code") from None

    @property
    def min_index(self) -> int:
        return self.depth.index(0)

    @property
    def max_index(self) -> int:
        return self.depth.index(max(self.depth))

    def strictly_below(self, j: int) -> list[int]:
        bits = self.below[j] & ~(1 << j)
        out = []
        while bits:
            b = bits & -bits
            out.append(b.bit_length() - 1)
            bits &= ~b
        return out

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with class_i covered by class_j."""
        out = []
        for j in range(len(self.classes)):
            strict = self.strictly_below(j)
            for i in strict:
                if not any(k != i and self.leq(i, k) for k in strict):
                    out.append((i, j))
        return out

    def code_string(self, i: int) -> str:
        """Minimal edge-subset indicator in declared host edge order."""
        mask = self.steiner_masks[i]
        return " ".join(
            str((mask >> b) & 1) for b in range(len(self.host.edges))
        )


def _subforest_of_mask(host: Forest, mask: int) -> Forest:
    edges = tuple(e for b, e in enumerate(host.edges) if (mask >> b) & 1)
    touched = set().union(*edges) if edges else set()
    nodes = tuple(v for v in host.nodes if v not in host.latent or v in touched)
    return Forest(nodes=nodes, latent=host.latent & touched, edges=edges)


def subforest_lattice(host: Forest) -> ModelLattice:
    """Enumerate all subforest classes of a canonical host.

    Every one of the 2^|E| edge subsets is canonicalized; subsets with
    equal code form one class.  The order relation is the transitive
    closure of single-edge removal between classes, which agrees with
    representative-wise edge-subset containment.
    """
    if any(host.degree(v) <= 2 for v in host.latent):
        raise ValueError(
            "host must be canonical (no latent node of degree <= 2)"
        )
    ne = len(host.edges)
    if ne > LATTICE_EDGE_BOUND:
        raise TooLarge(f"host has {ne} edges, bound is {LATTICE_EDGE_BOUND}")

    by_code: dict[str, list[int]] = {}
    reps: dict[str, CanonicalForest] = {}
    code_of_mask: list[str] = []
    for mask in range(1 << ne):
        c = canonicalize(_subforest_of_mask(host, mask))
        code_of_mask.append(c.code)
        by_code.setdefault(c.code, []).append(mask)
        reps.setdefault(c.code, c)

    # minimal representative = intersection of all masks in the class
    steiner: dict[str, int] = {}
    for code, masks in by_code.items():
        m = masks[0]
        for x in masks[1:]:
            m &= x
        steiner[code] = m
    order_codes = sorted(by_code, key=lambda c: steiner[c])
    index = {c: i for i, c in enumerate(order_codes)}

    k = len(order_codes)
    below = [1 << i for i in range(k)]
    for mask in range(1 << ne):
        j = index[code_of_mask[mask]]
        bits = mask
        while bits:
            b = bits & -bits
            i = index[code_of_mask[mask & ~b]]
            if i != j:
                below[j] |= 1 << i
            bits &= ~b

    # close transitively; index order is already a linear extension
    depth = [0] * k
    for j in range(k):
        acc = below[j]
        best = -1
        bits = below[j] & ~(1 << j)
        while bits:
            b = bits & -bits
            i = b.bit_length() - 1
            acc |= below[i]
            best = max(best, depth[i])
            bits &= ~b
        below[j] = acc
        depth[j] = best + 1

    return ModelLattice(
        host=host,
        classes=tuple(reps[c] for c in order_codes),
        steiner_masks=tuple(steiner[c] for c in order_codes),
        below=tuple(below),
        depth=tuple(depth),
    )
