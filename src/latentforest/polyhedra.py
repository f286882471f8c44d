"""Exact Newton polyhedra over the rationals.

The Newton polyhedron of a set of exponent vectors is
``conv(points) + R_{>=0}^d``.  Facets are computed exactly by the
double description method applied to the homogenization cone

    C = cone{(1, v_i)} + cone{(0, e_j)}  in  R^{1+d},

whose dual cone's extreme rays are the facet normals of C.  A dual ray
``(y0, a)`` other than the homogenization facet ``x0 >= 0`` gives the
polyhedron facet ``a.x >= -y0``.  All arithmetic is integer (primitive
vectors), so tightness tests are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionTooLarge

#: Refuse exact hulls above this ambient dimension.  Measured on a 2-core
#: x86-64 VM: trivalent zero parts take 16 s at m = 9 leaves (dimension
#: 15, 4038 facets) and 188 s at m = 10 (dimension 17, 12681 facets), so
#: hulls near the bound can run far longer.
HULL_DIM_BOUND = 20


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return v if g in (0, 1) else tuple(x // g for x in v)


def _combine(g, p, n) -> tuple[int, ...]:
    """Positive combination of p and n lying on the hyperplane g.y = 0."""
    gp, gn = _dot(g, p), _dot(g, n)
    return _primitive(tuple(gp * y - gn * x for x, y in zip(p, n)))


def _facet_normals(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays ``(y0, a)`` of the dual of the homogenization cone.

    Double description with the combinatorial adjacency test, on
    y = (y_0, ..., y_d).  Bit j - 1 of a tight set stands for the axis
    constraint y_j >= 0 and bit d + i for (1, gens[i]) . y >= 0.  The
    axes and the first generator u cut out a simplicial cone with known
    rays: e_0, tight at every axis, and e_j - u_j e_0, tight at (1, u)
    and at every axis but y_j.  Each further generator refines that
    pointed cone.
    """
    d, u = len(gens[0]), gens[0]
    rays = [
        tuple(-u[j] if i == 0 else int(i == j + 1) for i in range(d + 1))
        for j in range(d)
    ]
    active = [((1 << (d + 1)) - 1) & ~(1 << j) for j in range(d)]
    rays.append(tuple(int(i == 0) for i in range(d + 1)))
    active.append((1 << d) - 1)

    for ci, w in enumerate(gens[1:], start=d + 1):
        g = (1, *w)
        vals = [_dot(g, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        # kept rays keep their order: with the rays off g moved ahead of
        # those on it, the adjacency scans ran 7x slower on an m = 8
        # trivalent zero part
        keep_rays = [r for r, v in zip(rays, vals) if v >= 0]
        keep_active = [
            a if v > 0 else a | (1 << ci) for a, v in zip(active, vals) if v >= 0
        ]
        for ip in pos:
            for im in neg:
                common = active[ip] & active[im]
                adjacent = not any(
                    k not in (ip, im) and (active[k] & common) == common
                    for k in range(len(rays))
                )
                if adjacent:
                    keep_rays.append(_combine(g, rays[ip], rays[im]))
                    keep_active.append(common | (1 << ci))
        rays, active = keep_rays, keep_active
    return rays


@dataclass(frozen=True)
class NewtonPolyhedron:
    """H-representation of conv(generators) + nonnegative orthant.

    Each facet is a pair (a, b) of an integer normal and offset with
    the meaning a . x >= b; normals are componentwise nonnegative.
    """

    ambient_dim: int
    generators: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, point) -> bool:
        x = [Fraction(p) for p in point]
        return all(
            sum(ai * xi for ai, xi in zip(a, x)) >= b for a, b in self.facets
        )


def newton_facets(zero_terms, ambient_dim: int) -> NewtonPolyhedron | None:
    """Exact facets of the Newton polyhedron of the given exponents.

    ``zero_terms`` is an iterable of length-``ambient_dim`` nonnegative
    integer exponent vectors.  Returns None when no terms are given.
    """
    if ambient_dim > HULL_DIM_BOUND:
        raise DimensionTooLarge(
            f"ambient dimension {ambient_dim} exceeds bound {HULL_DIM_BOUND}"
        )
    gens = sorted({tuple(int(x) for x in u) for u in zero_terms})
    if not gens:
        return None
    for u in gens:
        if len(u) != ambient_dim or any(x < 0 for x in u):
            raise ValueError(f"bad exponent vector {u}")

    # every ray but e_0, the homogenization facet x0 >= 0, is a facet
    facets = sorted(
        (ray[1:], -ray[0]) for ray in _facet_normals(gens) if any(ray[1:])
    )
    for u in gens:  # cheap exactness backstop
        assert all(_dot(a, u) >= b for a, b in facets), (
            "generator violates a computed facet"
        )
    return NewtonPolyhedron(
        ambient_dim=ambient_dim, generators=tuple(gens), facets=tuple(facets)
    )


def one_distance_mult(p: NewtonPolyhedron) -> tuple[Fraction, int]:
    """Smallest t with t*(1,...,1) in the polyhedron, and the rank of
    the facet normals tight there (the codimension of the minimal face
    containing that point)."""
    t = max(Fraction(b, sum(a)) for a, b in p.facets)
    tight = [a for a, b in p.facets if t * sum(a) == b]
    return t, rational_rank(tight)


def rational_rank(rows) -> int:
    """Rank over Q of a sequence of rational row vectors."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / prow[col]
                mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank
