"""Closed-form RLCTs for nested latent forest pairs.

For a host forest F and a subforest F* on the same leaves, the RLCT of
the q-forest pair is

    lambda = dim M(F*) + (1/2) sum_{e in E\\E*} w(e),   w(e) = |e /\\ U*|,
    mult   = 1 + #{degree-2 nodes outside U* whose chain reaches U*},

where U* is the node set of F*.  The sum telescopes into degrees,

    sum w(e) = sum_{u in U*} (deg_F(u) - deg_F*(u)),

so the pair threshold is computed in linear time.  The same quantity
is exposed through an explicit monomial phase function on the removed
edges (one path monomial per leaf pair of each removed subtree), which
the generic Newton-polyhedron engine can evaluate independently.

The multiplicity counts degree-2 nodes chain by chain.  A maximal run
of degree-2 nodes outside U* either ends in a U* node on at least one
side (then every node on the run adds a tight facet at the diagonal
point of the Newton polyhedron, raising the pole order), or it is
strung between two branch nodes of a removed subtree.  In the latter
case the facet normals supported on the run are not tight: the
diagonal point already lies in the relative interior of a larger face,
because path monomials that avoid the run cover its coordinates with
slack.  Such interior runs therefore do not raise the multiplicity,
which the polyhedral engine confirms on explicit examples.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import MonomialSos, Rlct
from .errors import LeafMismatch, NotSubforest
from .forests import Forest, _as_forest, _find, model_dimension


def _validate_pair(host: Forest, sub: Forest) -> None:
    if set(host.observed) != set(sub.observed):
        raise LeafMismatch(
            f"host leaves {sorted(host.observed)} differ from "
            f"subforest leaves {sorted(sub.observed)}"
        )
    for v in host.latent:
        if host.degree(v) < 2:
            raise ValueError(f"host latent node {v!r} has degree < 2")
    missing = sub.edge_set - host.edge_set
    if missing:
        raise NotSubforest(f"edges {sorted(map(sorted, missing))} not in host")
    if sub.latent - host.latent or (set(sub.nodes) - sub.latent) - (
        set(host.nodes) - host.latent
    ):
        raise NotSubforest("node labels disagree with the host")
    for v in sub.latent:
        if sub.degree(v) < 2:
            raise NotSubforest(
                f"latent node {v!r} has degree < 2 in the subforest; "
                "not a minimal q-forest"
            )


def _anchored_chain_nodes(host: Forest, ustar: set) -> int:
    """Degree-2 nodes outside ``ustar`` on chains that reach ``ustar``."""
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
    return count


def rlct_forest_pair(host, sub) -> Rlct:
    """Threshold of the model pair (host forest, q-forest) in linear time."""
    host, sub = _as_forest(host), _as_forest(sub)
    _validate_pair(host, sub)
    ustar = set(sub.nodes)
    sumw = sum(host.degree(u) - sub.degree(u) for u in sub.nodes)
    lam = Fraction(model_dimension(sub)) + Fraction(sumw, 2)
    return Rlct(lam, 1 + _anchored_chain_nodes(host, ustar))


def subtree_decomposition(host, sub) -> tuple[tuple[Forest, tuple[str, ...]], ...]:
    """Removed edges grouped into subtrees hanging off the subforest.

    The removed edges E0 = E\\E* fall apart into trees S_1, ..., S_t
    when cut at the nodes of the subforest: two removed edges belong to
    the same S_i exactly when they can be joined through nodes outside
    U*.  Each S_i has leaf set L_i = nodes(S_i) /\\ U*.  Returns the
    pairs (S_i, L_i) ordered by first removed edge; node and edge order
    inside each S_i follows the host.  The S_i are plain containers and
    may carry latent-flagged leaves.
    """
    host, sub = _as_forest(host), _as_forest(sub)
    _validate_pair(host, sub)
    ustar = set(sub.nodes)
    removed = [e for e in host.edges if e not in sub.edge_set]

    parent = list(range(len(removed)))
    first: dict[str, int] = {}  # the first removed edge at each node
    for idx, e in enumerate(removed):
        for v in e - ustar:
            parent[_find(parent, idx)] = _find(parent, first.setdefault(v, idx))
    groups: dict[int, list[int]] = {}
    for idx in range(len(removed)):
        groups.setdefault(_find(parent, idx), []).append(idx)

    node_order = {v: i for i, v in enumerate(host.nodes)}
    out = []
    for idxs in sorted(groups.values(), key=min):
        edges = tuple(removed[i] for i in sorted(idxs))
        nodes = tuple(sorted({v for e in edges for v in e}, key=node_order.get))
        tree = Forest(
            nodes=nodes,
            latent=frozenset(nodes) & host.latent,
            edges=edges,
        )
        leaves = tuple(v for v in nodes if v in ustar)
        out.append((tree, leaves))
    return tuple(out)


def zero_part_monomials(host, sub) -> MonomialSos:
    """Monomial phase function carrying the polyhedral part of the pair.

    One variable per removed edge (host edge order), one squared path
    monomial per unordered leaf pair within each removed subtree, all
    constants zero, domain [-1, 1] per edge.  Its engine threshold
    equals the zero-part contribution of the closed form: lambda is
    (1/2) sum w(e) and the multiplicity is one plus the number of
    anchored degree-2 chain nodes, on top of dim M(F*) from the
    nonzero part.
    """
    host, sub = _as_forest(host), _as_forest(sub)
    parts = subtree_decomposition(host, sub)
    removed = [e for e in host.edges if e not in sub.edge_set]
    coord = {e: i for i, e in enumerate(removed)}
    terms = []
    for tree, leaves in parts:
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                exps = [0] * len(removed)
                for e in tree.path(leaves[i], leaves[j]):
                    exps[coord[e]] = 1
                terms.append((tuple(exps), 0.0))
    return MonomialSos(
        dim=len(removed),
        terms=tuple(terms),
        domain=((-1.0, 1.0),) * len(removed),
    )
