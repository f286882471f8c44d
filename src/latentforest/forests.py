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
* enumeration of the lattice of subforest classes by their minimal
  edge masks (``subforest_lattice``).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping

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

#: Exhaustive lattice enumeration refuses hosts with more classes than this.
#: The mask walk is cheap on a 2-core x86-64 VM: the largest admitted
#: trivalent host (13 leaves, 75 025 classes) takes 0.08 s and 6 MB over
#: the import, and a 24-leaf star (2^24 - 24 classes) is refused in
#: 0.02 s.  Reading classes is not: each costs about 0.12 ms and 4.4 kB
#: to canonicalize, so reading all 75 025 takes 8.6 s with a 362 MB peak.
#: The bound keeps a full read of any admitted lattice near that size.
LATTICE_CLASS_BOUND = 100_000


def edge(u: str, v: str) -> Edge:
    """Undirected edge between two distinct node ids."""
    if u == v:
        raise CycleError(f"self loop at node {u!r}")
    return frozenset((u, v))


def _walk(neighbors: Mapping, root: str) -> Iterator[tuple[str, str]]:
    """``(node, parent)`` for each node but root of root's tree, breadth
    first, each node's ``neighbors`` in stored order.  This one order
    fixes the lattice walk, the canonical-code pass and the order in
    which EM multiplies path products."""
    order = [(root, None)]
    for x, p in order:
        for w in neighbors[x]:
            if w != p:
                step = (w, x)
                order.append(step)
                yield step


def _find(parent, x):
    """Root of x in the union-find forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


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
        return frozenset([v, *(w for w, _ in _walk(self.neighbors, v))])

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
        parent = {}
        for w, x in _walk(self.neighbors, u):
            parent[w] = x
            if w == v:
                break
        else:
            return None
        out = []
        while v != u:
            out.append(Edge((v, parent[v])))
            v = parent[v]
        return tuple(reversed(out))

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
    for pair in edges:
        u, v = (str(x) for x in pair)
        for x in (u, v):
            if x not in known:
                raise UnknownNode(f"edge endpoint {x!r} was not declared")
        e = edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {sorted(e)} repeated")
        seen.add(e)
        ru, rv = _find(parent, u), _find(parent, v)
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
    nodes, edges = (
        doc.get(k) if isinstance(doc, dict) else None for k in ("nodes", "edges")
    )
    if not (
        isinstance(nodes, list) and isinstance(edges, list)
        and all(
            isinstance(n, dict)
            and isinstance(n.get("id"), (str, int))
            and not isinstance(n["id"], bool)
            and isinstance(n.get("latent", False), bool)
            for n in nodes
        )
        and all(isinstance(e, list) and len(e) == 2 for e in edges)
    ):
        raise ValueError('a forest is {"nodes": [{"id": ..., "latent": bool}, '
                         '...], "edges": [[id, id], ...]}')
    return build_forest(
        [(n["id"], n.get("latent", False)) for n in nodes], edges
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

    # rule (i): delete latent nodes of degree <= 1, to a fixpoint
    queue = [v for v in f.nodes if v in latent and len(adj[v]) <= 1]
    while queue:
        v = queue.pop()
        for w in list(adj[v]):
            drop_edge(v, w)
            if w in latent and len(adj[w]) <= 1:
                queue.append(w)
    # rule (ii): contract each latent node of degree 2, in f.nodes order.
    # Contracting v keeps the degrees of its two neighbours and makes no
    # latent leaf, so one pass reaches the fixpoint of both rules.
    for v in f.nodes:
        if v in latent and len(adj[v]) == 2:
            p, q = sorted(adj[v])
            merged = sources[edge(v, p)] + sources[edge(v, q)]
            drop_edge(v, p)
            drop_edge(v, q)
            adj[p].add(q)
            adj[q].add(p)
            sources[edge(p, q)] = merged

    observed = [v for v in f.nodes if v not in latent]

    # Leaf-anchored codes: latent identity is erased, observed ids are
    # kept, children are sorted by code.  Each component is rooted at
    # its smallest observed id (the first one reached in sorted order);
    # one post-order pass builds every subtree code from its children's,
    # and ``kids`` keeps each node's children in code order for the
    # relabelling walk below.
    kids: dict[str, list[str]] = {}
    comps: list[tuple[str, str]] = []  # (component code, root)
    for root in sorted(observed):
        if root in kids:
            continue
        sub: dict[str, str] = {}
        for x, par in reversed([(root, None), *_walk(adj, root)]):
            kids[x] = sorted(
                (w for w in adj[x] if w != par), key=sub.__getitem__
            )
            inner = ",".join(sub.pop(w) for w in kids[x])
            if x in latent:
                sub[x] = '["h",[' + inner + "]]"
            elif kids[x]:
                sub[x] = '["o",' + _dumps(x) + ",[" + inner + "]]"
            else:
                sub[x] = '["o",' + _dumps(x) + "]"
        comps.append((sub[root], root))
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
            for w in reversed(kids[v]):
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

    out = _subforest_of_mask(
        host, sum(1 << b for b, e in enumerate(host.edges) if e in used)
    )

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


class _LazyClasses(Sequence):
    """Read-only sequence of the canonical forests of a lattice's masks.

    Class ``i`` is canonicalized when it is first read and then kept, so
    a caller that needs only masks, depths or dimensions never
    canonicalizes.
    """

    def __init__(self, host: Forest, masks: tuple[int, ...]):
        self._host = host
        self._masks = masks
        self._built: list[CanonicalForest | None] = [None] * len(masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        c = self._built[i]
        if c is None:
            c = self._built[i] = canonicalize(
                _subforest_of_mask(self._host, self._masks[i])
            )
        return c


@dataclass
class ModelLattice:
    """All subforest classes of a host tree, partially ordered.

    A lattice is its host and its Steiner masks, given in increasing
    order, each the Steiner mask of a class of ``host``: the minimal
    host edge subset realizing it, read as an integer (first declared
    edge = lowest bit), in which no latent node has exactly one edge.
    Class_i <= class_j exactly when mask_i is a subset of mask_j.  A
    proper subset is a smaller integer, so the index order is a linear
    extension of the lattice order, from the bottom class at 0 to the
    top class last.  For the standard five-leaf example this numbering
    matches the conventional model numbers 1..34 shifted by one.  The
    rest is read off the masks: ``classes[i]``, the canonical forest of
    mask i, is built when first read, and ``depth`` and ``dims`` when
    first used.  A pruning chain is scored as the totally ordered
    lattice of its classes, listed bottom up.
    """

    host: Forest
    steiner_masks: tuple[int, ...]
    rlct_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.steiner_masks)

    @cached_property
    def classes(self) -> Sequence[CanonicalForest]:
        return _LazyClasses(self.host, self.steiner_masks)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Rank of each class: observed nodes minus components.

        A class splits the observed nodes into blocks with disjoint host
        Steiner trees.  In one block of a larger class, the two closest
        smaller blocks are joined by a path meeting no third block, so
        every cover merges two blocks and the lattice is graded by depth.
        A mask has |observed| + (latent nodes it touches) - (its edges)
        components: its depth is its edge count minus those nodes.
        """
        inc = _latent_incidence(self.host).values()
        return tuple(m.bit_count() - sum(1 for x in inc if m & x)
                     for m in self.steiner_masks)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """Model dimension |V| + |E| - l2 of each class, read off its mask
        (l2: the latent nodes with exactly two mask edges)."""
        inc = _latent_incidence(self.host).values()
        return tuple(
            len(self.host.observed) + m.bit_count()
            - sum(1 for x in inc if (m & x).bit_count() == 2)
            for m in self.steiner_masks
        )

    def leq(self, i: int, j: int) -> bool:
        return not self.steiner_masks[i] & ~self.steiner_masks[j]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cl.code: k for k, cl in enumerate(self.classes)}

    def class_index(self, c: CanonicalForest) -> int:
        try:
            return self._index[c.code]
        except KeyError:
            raise NotInLattice("unknown class code") from None

    min_index = 0

    @property
    def max_index(self) -> int:
        return len(self) - 1

    def strictly_below(self, j: int) -> list[int]:
        masks, outside = self.steiner_masks, ~self.steiner_masks[j]
        return [i for i in range(j) if not masks[i] & outside]

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with class_i covered by class_j.

        A lower cover of class j drops one edge of its canonical forest,
        that is one maximal run of mask j through latent nodes with two
        mask edges.  Clearing any bit of the run and then pruning the
        latent nodes left with one mask edge clears the whole run.
        Pairs come sorted by j, then by i.
        """
        masks, inc = self.steiner_masks, _latent_incidence(self.host)
        ends = [tuple(e & self.host.latent) for e in self.host.edges]
        index = {m: i for i, m in enumerate(masks)}
        out = []
        for j, mask in enumerate(masks):
            lower = set()
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                m = mask ^ bit
                todo = list(ends[bit.bit_length() - 1])
                while todo:
                    left = m & inc[todo.pop()]
                    if left and not left & (left - 1):
                        m ^= left
                        todo += ends[left.bit_length() - 1]
                lower.add(index[m])
            out += [(i, j) for i in sorted(lower)]
        return out

    def code_string(self, i: int) -> str:
        """Minimal edge-subset indicator in declared host edge order."""
        mask = self.steiner_masks[i]
        return " ".join(
            str((mask >> b) & 1) for b in range(len(self.host.edges))
        )


def _latent_incidence(host: Forest) -> dict[str, int]:
    """Mask of the host edges at each latent node."""
    bit = {e: 1 << b for b, e in enumerate(host.edges)}
    return {v: sum(bit[edge(v, w)] for w in host.neighbors[v])
            for v in host.latent}


def _subforest_of_mask(host: Forest, mask: int) -> Forest:
    edges = tuple(e for b, e in enumerate(host.edges) if (mask >> b) & 1)
    touched = set().union(*edges) if edges else set()
    nodes = tuple(v for v in host.nodes if v not in host.latent or v in touched)
    return Forest(nodes=nodes, latent=host.latent & touched, edges=edges)


def _leaves_first(host: Forest) -> list[tuple[str, int]]:
    """``(node, bit of its edge toward the root)`` for every non-root node.

    Each component is rooted at its first observed node and walked
    breadth first; the list is reversed, so a node comes after all the
    nodes below it.
    """
    bit = {e: b for b, e in enumerate(host.edges)}
    steps: list[tuple[str, int]] = []
    seen: set[str] = set()
    for root in host.observed:
        if root not in seen:
            for w, v in _walk(host.neighbors, root):
                seen.add(w)
                steps.append((w, bit[edge(v, w)]))
    return steps[::-1]


def subforest_lattice(host: Forest) -> ModelLattice:
    """Enumerate all subforest classes of a canonical host.

    A class is fixed by its pattern of connected observed pairs.  Its
    minimal representative is the union of the host paths joining those
    pairs, and that union has no latent leaf.  Conversely, an edge mask
    in which no latent node has exactly one edge is the path union of
    its own pattern: walking away from any of its edges in both
    directions ends at observed leaves.  Masks without a latent leaf and
    classes therefore correspond one to one, and class_i <= class_j
    exactly when mask_i is a subset of mask_j.

    The masks come from a pruned walk over the host edges, leaves
    first, with each component rooted at an observed node.  When the
    walk reaches the edge from a latent node w up toward the root, all
    of w's other edges are decided: with none of them set the edge up
    stays out, with one it goes in, with two or more it may do either.
    Each step thus keeps one or two extensions of every partial mask,
    so the number kept never falls and the walk raises ``TooLarge`` as
    soon as it passes ``LATTICE_CLASS_BOUND``.  The masks are sorted at
    the end.  No class is canonicalized here: ``classes[i]`` is built
    on first read.
    """
    if any(host.degree(v) <= 2 for v in host.latent):
        raise ValueError(
            "host must be canonical (no latent node of degree <= 2)"
        )
    incident = _latent_incidence(host)
    masks = [0]
    for w, b in _leaves_first(host):
        up = 1 << b
        if w not in host.latent:
            masks = [x for m in masks for x in (m, m | up)]
        else:
            below = incident[w] & ~up
            grown: list[int] = []
            for m in masks:
                hit = m & below
                if hit & (hit - 1):
                    grown += (m, m | up)
                else:
                    grown.append(m | up if hit else m)
            masks = grown
        if len(masks) > LATTICE_CLASS_BOUND:
            raise TooLarge(
                f"host has more than {LATTICE_CLASS_BOUND} subforest classes"
            )
    return ModelLattice(host, tuple(sorted(masks)))
