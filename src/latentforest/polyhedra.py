"""Exact Newton polyhedra over the rationals.

The Newton polyhedron of a set of exponent vectors is
``conv(points) + R_{>=0}^d``.  ``one_distance_lp`` finds its 1-distance
and multiplicity from linear programs and proves both in rational
arithmetic; the RLCT engine uses it.  ``newton_facets`` lists every
facet and is kept as its oracle.  Facets are computed exactly by the
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
from math import gcd, lcm

import numpy as np

from .errors import CertificateFailure, DimensionTooLarge

#: Refuse exact hulls above this ambient dimension.  Measured on a 2-core
#: x86-64 VM: trivalent zero parts take 16 s at m = 9 leaves (dimension
#: 15, 4038 facets) and 188 s at m = 10 (dimension 17, 12681 facets).
#: Only the ``newton_facets`` oracle is bounded; ``one_distance_lp``
#: needs no facets.
HULL_DIM_BOUND = 15


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


def _generators(zero_terms, ambient_dim: int) -> list[tuple[int, ...]]:
    """The distinct exponent vectors, sorted; ValueError on a bad one."""
    gens = sorted({tuple(int(x) for x in u) for u in zero_terms})
    for u in gens:
        if len(u) != ambient_dim or any(x < 0 for x in u):
            raise ValueError(f"bad exponent vector {u}")
    return gens


def newton_facets(zero_terms, ambient_dim: int) -> NewtonPolyhedron | None:
    """Exact facets of the Newton polyhedron of the given exponents.

    ``zero_terms`` is an iterable of length-``ambient_dim`` nonnegative
    integer exponent vectors.  Returns None when no terms are given.
    """
    if ambient_dim > HULL_DIM_BOUND:
        raise DimensionTooLarge(
            f"ambient dimension {ambient_dim} exceeds bound {HULL_DIM_BOUND}"
        )
    gens = _generators(zero_terms, ambient_dim)
    if not gens:
        return None

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


def _echelon(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced echelon form of integer rows, and its pivot columns.

    Eliminates without fractions: each pivot column is cleared from
    every other row by an integer combination, and rows are kept
    primitive, so pivots need not be 1.
    """
    mat = [tuple(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow, a = mat[r], mat[r][col]
        for i, row in enumerate(mat):
            b = row[col]
            if i != r and b:
                mat[i] = _primitive(tuple(a * x - b * y for x, y in zip(row, prow)))
        pivots.append(col)
    return mat, pivots


def rational_rank(rows) -> int:
    """Rank over Q of a sequence of rational row vectors."""
    ints = []
    for r in rows:
        row = [Fraction(x) for x in r]
        den = lcm(*(x.denominator for x in row))
        ints.append(tuple(int(x * den) for x in row))
    return len(_echelon(ints)[1])


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first LP a run solves."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _highs(c, a_ub, b_ub, a_eq, b_eq, bounds, what: str) -> np.ndarray:
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise CertificateFailure(f"{what} failed: {res.message}")
    return res.x


def _exact_solution(rows, rhs, guess) -> list[Fraction] | None:
    """A rational solution of rows . x = rhs near the float guess.

    rows and rhs are integers.  Each free variable takes its guess
    rounded by ``limit_denominator``, and each pivot variable the value
    that then solves the system exactly.  Returns None when the system
    is inconsistent.
    """
    n = len(guess)
    mat, pivots = _echelon([(*r, b) for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(float(g)).limit_denominator() for g in guess]
    free = [j for j in range(n) if j not in pivots]
    for row, col in zip(mat, pivots):
        x[col] = Fraction(row[n] - sum(row[j] * x[j] for j in free if row[j]),
                          row[col])
    return x


def one_distance_lp(zero_terms, ambient_dim: int) -> tuple[Fraction, int]:
    """``one_distance_mult(newton_facets(...))`` without the facets.

    Returns the smallest t with t*(1,...,1) in the Newton polyhedron P,
    and the codimension of the minimal face F of P containing t*1.
    Three HiGHS solves give floats: t (LP 1); the generators I and
    axes J of F, as the maximal support of t*1 = sum lam_i u_i + s with
    lam in the simplex and s >= 0 (LP 2); and a normal a of F that is
    strict off I and J (LP 3).  Exact elimination turns them into
    rationals, which must satisfy

      (i)  lam_I > 0, s_J > 0 and tau > 0, with sum lam = tau and
           sum lam_i u_i + sum s_j e_j = tau*t*1: t*1 lies in the
           relative interior of F = conv{u_i : i in I} + cone{e_j : j in J};
      (ii) a_j = 0 on J and a_j > 0 off J; a . u_i = t*sum(a) on I and
           a . u_i > t*sum(a) off I: F is the face of P on which a is
           smallest, and t is minimal.

    The multiplicity is then d - dim F.  Raises CertificateFailure when
    an LP fails or a check does not hold, so no answer rests on floats.
    """
    gens = _generators(zero_terms, ambient_dim)
    if not gens:
        raise ValueError("no exponent vectors")
    d, k = ambient_dim, len(gens)
    n = k + d
    u = np.array(gens, dtype=float).reshape(k, d)
    ones, eye = np.ones((d, 1)), np.eye(d)

    # LP 1 over (lam, s, t): minimize t with U^T lam + s = t*1, sum lam = 1
    simplex = np.hstack([np.ones((1, k)), np.zeros((1, d + 1))])
    x = _highs(np.r_[np.zeros(n), 1.0], None, None,
               np.vstack([np.hstack([u.T, eye, -ones]), simplex]),
               np.r_[np.zeros(d), 1.0], [(0, None)] * (n + 1), "LP 1")
    t_lp = x[-1]

    # LP 2 over (lam, s, tau, z): the same point scaled by tau >= 1, with
    # z <= min(1, (lam, s)); maximizing sum z puts z = 1 on the support.
    # tau is capped: a t_lp above the true t by delta would let tau = 1/delta
    # put every axis in the support (tau is below 2000 up to m = 20 leaves)
    a_eq = np.hstack([np.vstack([np.hstack([u.T, eye, -t_lp * ones]), simplex]),
                      np.zeros((d + 1, n))])
    a_eq[d, n] = -1.0  # sum lam = tau
    x = _highs(np.r_[np.zeros(n + 1), -np.ones(n)],
               np.hstack([-np.eye(n), np.zeros((n, 1)), np.eye(n)]), np.zeros(n),
               a_eq, np.zeros(d + 1),
               [(0, None)] * n + [(1, 1e9)] + [(0, 1)] * n, "LP 2")
    in_i = [i for i in range(k) if x[n + 1 + i] > 0.5]
    in_j = [j for j in range(d) if x[n + 1 + k + j] > 0.5]

    # (i) over (lam_I, s_J, tau, tau*t), scaled as LP 2 left them: every
    # support entry is at least 1 there, so rounding cannot zero it
    rows = [[gens[i][c] for i in in_i] + [int(j == c) for j in in_j] + [0, -1]
            for c in range(d)]
    rows.append([1] * len(in_i) + [0] * len(in_j) + [-1, 0])
    guess = [x[i] for i in in_i] + [x[k + j] for j in in_j] + [x[n], x[n] * t_lp]
    sol = _exact_solution(rows, [0] * (d + 1), guess)
    if sol is None or any(y <= 0 for y in sol[:-1]):
        raise CertificateFailure("t*1 is not interior to the support found")
    t = sol[-1] / sol[-2]

    # LP 3 over (a, w): a . (u_i - t*1) = 0 on I and >= w off I, a_j = 0
    # on J and >= w off J, sum a >= 1, w in [0, 1]; maximize sum w
    off_i = [i for i in range(k) if i not in in_i]
    off_j = [j for j in range(d) if j not in in_j]
    v = u - float(t)
    nw = len(off_i) + len(off_j)
    w_eye = np.eye(nw)
    a_ub = np.vstack([
        np.hstack([-v[off_i], w_eye[:len(off_i)]]),
        np.hstack([-eye[off_j], w_eye[len(off_i):]]),
        np.r_[-np.ones(d), np.zeros(nw)][None, :],
    ])
    x = _highs(np.r_[np.zeros(d), -np.ones(nw)],
               a_ub, np.r_[np.zeros(nw), -1.0],
               np.hstack([v[in_i], np.zeros((len(in_i), nw))]), np.zeros(len(in_i)),
               [(0, 0) if j in in_j else (0, None) for j in range(d)]
               + [(0, 1)] * nw, "LP 3")

    # (ii) over a_j, j off J
    p, q = t.numerator, t.denominator
    rows = [[q * gens[i][c] - p for c in off_j] for i in in_i]
    sol = _exact_solution(rows, [0] * len(in_i), [x[c] for c in off_j])
    if not off_j or sol is None or any(y <= 0 for y in sol):
        raise CertificateFailure("no normal is positive off the axes found")
    a = dict(zip(off_j, sol))
    if any(sum((g[c] - t) * ac for c, ac in a.items()) <= 0
           for g in (gens[i] for i in off_i)):
        raise CertificateFailure("the normal found is not strict off the face")

    # dim F = |J| + rank of {u_i - u_i0 : i in I} off the axes J
    u0 = gens[in_i[0]]
    span = [[gens[i][c] - u0[c] for c in off_j] for i in in_i[1:]]
    return t, d - len(in_j) - rational_rank(span)
