"""Exact Newton polyhedra over the rationals.

The Newton polyhedron of a set of exponent vectors is
``conv(points) + R_{>=0}^d``.  ``one_distance_lp`` finds its 1-distance
and multiplicity from one linear program and proves both in rational
arithmetic; the RLCT engine uses it.  Its floats come from compiled
code: HiGHS solves the LP, posed as one sparse matrix, through a single
``scipy.optimize.milp`` call (``linprog``, which ``nonzero_codim`` in
the engine uses too), and LAPACK's pivoted QR picks the bases that the
exact elimination then checks (``_pivots``).  ``newton_facets`` lists every
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
from operator import mul

import numpy as np
from scipy.linalg.lapack import dgeqp3

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
    g = gcd(*v)
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


def linprog(c, a, lo, hi, lb, ub):
    """min c.x subject to lo <= A x <= hi and lb <= x <= ub: one call of
    scipy's ``milp`` with no integer variables, which hands HiGHS the
    problem with less input checking than ``linprog``.  scipy.optimize
    is imported on the first LP a run solves."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    return milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub))


def _pivots(a) -> list[int]:
    """Columns of a that QR with column pivoting picks (LAPACK's
    ``dgeqp3``), up to its numerical rank: the diagonal of R while it
    stays above 1e-9 of the largest column norm."""
    if not a.size:
        return []
    qr, jpvt = dgeqp3(a)[:2]
    big = np.abs(np.diagonal(qr)) > 1e-9 * abs(qr[0, 0])
    rank = len(big) if big.all() else int(big.argmin())
    return (jpvt[:rank] - 1).tolist()


def _exact_solution(rows, guess) -> list[int] | None:
    """An integer solution of rows . x = 0 near a positive multiple of
    the float guess.

    rows are integers.  Floats choose a basis: r columns and then r
    independent rows of them (``_pivots``, r the numerical rank).  Every
    other column takes its guess times 2**24, rounded; the system is
    homogeneous, so the scale is immaterial.  The basis columns take the
    values that then solve the chosen rows exactly, and the common
    denominator is cleared.  Returns None when the chosen basis is
    singular or the solution misses a row.
    """
    mat = np.array(rows, dtype=float)
    basis = sorted(_pivots(mat))
    keep = sorted(_pivots(mat[:, basis].T))
    x = [round(g * 2**24) for g in guess]
    for j in basis:
        x[j] = 0
    sub = [[rows[i][j] for j in basis] + [sum(map(mul, rows[i], x))] for i in keep]
    mat, pivots = _echelon(sub)
    if pivots != list(range(len(basis))):
        return None
    den = lcm(*(row[col] for row, col in zip(mat, pivots)))
    x = [v * den for v in x]
    for row, col, j in zip(mat, pivots, basis):
        x[j] = -row[-1] * (den // row[col])
    if any(sum(map(mul, row, x)) for row in rows):
        return None
    return x


def _certificate_lp(gens, d):
    """The certificate LP's rows over x = (mu, s, a, r, tau) >= 0, as a
    sparse matrix A with bounds lo <= A x <= hi.

    Equalities: U^T mu + s = tau*1, U a - r = tau*1 and sum mu = sum a
    (no duality gap).  Inequalities: mu + r >= 1 and s + a >= 1 (strict
    complementarity).  U holds the k generators as rows; its nonzero
    entries are the only ones the matrix stores besides the unit blocks.
    A zero generator forces tau = 0, and then t = 0.
    """
    from scipy.sparse import csc_array

    k = len(gens)
    u = np.array(gens, dtype=float).reshape(k, d)
    gi, gc = np.nonzero(u)
    ik, jd, fk, fd = np.arange(k), np.arange(d), np.ones(k, int), np.ones(d, int)
    mu, s, a, r, tau = 0, k, k + d, k + 2 * d, 2 * (k + d)
    n_eq, n_ub = d + k + 1, k + d
    # (rows, columns, values) of each block, one constraint per line
    blocks = [
        (gc, mu + gi, u[gi, gc]), (jd, s + jd, fd), (jd, tau * fd, -fd),
        (d + gi, a + gc, u[gi, gc]), (d + ik, r + ik, -fk), (d + ik, tau * fk, -fk),
        ((d + k) * fk, mu + ik, fk), ((d + k) * fd, a + jd, -fd),
        (n_eq + ik, mu + ik, fk), (n_eq + ik, r + ik, fk),
        (n_eq + k + jd, s + jd, fd), (n_eq + k + jd, a + jd, fd),
    ]
    rows, cols, vals = (np.concatenate(z) for z in zip(*blocks))
    order = np.lexsort((rows, cols))
    indptr = np.r_[0, np.bincount(cols, minlength=tau + 1).cumsum()]
    a_lp = csc_array((vals[order], rows[order], indptr), shape=(n_eq + n_ub, tau + 1))
    lo = np.r_[np.zeros(n_eq), np.ones(n_ub)]
    return a_lp, lo, np.r_[np.zeros(n_eq), np.full(n_ub, np.inf)]


def one_distance_lp(zero_terms, ambient_dim: int) -> tuple[Fraction, int]:
    """``one_distance_mult(newton_facets(...))`` without the facets.

    Returns the smallest t with t*(1,...,1) in the Newton polyhedron P,
    and the codimension of the minimal face F of P containing t*1.
    One HiGHS solve gives floats: a strictly complementary optimal pair
    (Goldman and Tucker) of max sum mu s.t. U^T mu + s = 1 and its dual
    min sum a s.t. U a >= 1, homogenized by tau (``_certificate_lp``, a
    sparse matrix that stores U's nonzero entries twice and unit
    blocks).  The generators I with mu_i > 0 and the axes J with
    s_j > 0 span F, a is a normal of F, and t = tau / sum mu.  Exact
    elimination turns them into rationals, which must satisfy

      (i)  lam_I > 0, s_J > 0 and sigma > 0, with sum lam = sigma and
           sum lam_i u_i + sum s_j e_j = sigma*t*1: t*1 lies in the
           relative interior of F = conv{u_i : i in I} + cone{e_j : j in J};
      (ii) a_j = 0 on J and a_j > 0 off J; a . u_i = t*sum(a) on I and
           a . u_i > t*sum(a) off I: F is the face of P on which a is
           smallest, and t is minimal.

    The multiplicity is then d - dim F.  Raises CertificateFailure when
    the LP fails or a check does not hold, so no answer rests on floats.
    """
    gens = _generators(zero_terms, ambient_dim)
    if not gens:
        raise ValueError("no exponent vectors")
    d, k = ambient_dim, len(gens)
    a_lp, lo, hi = _certificate_lp(gens, d)
    n = a_lp.shape[1]
    res = linprog(np.zeros(n), a_lp, lo, hi, np.zeros(n), np.full(n, np.inf))
    if res.status != 0:
        raise CertificateFailure(f"the certificate LP failed: {res.message}")
    mu, s, a, _, tau = np.split(res.x, np.cumsum([k, d, d, k]))
    in_i, off_i = np.flatnonzero(mu > 0.5).tolist(), np.flatnonzero(mu <= 0.5).tolist()
    in_j, off_j = np.flatnonzero(s > 0.5).tolist(), np.flatnonzero(s <= 0.5).tolist()

    # (i) over (lam_I, s_J, sigma, sigma*t), seeded by (mu_I, s_J, sum mu_I,
    # tau): every support entry is at least 1 there
    rows = [[gens[i][c] for i in in_i] + [int(j == c) for j in in_j] + [0, -1]
            for c in range(d)]
    rows.append([1] * len(in_i) + [0] * len(in_j) + [-1, 0])
    guess = [mu[i] for i in in_i] + [s[j] for j in in_j] + [mu[in_i].sum(), tau[0]]
    sol = _exact_solution(rows, guess)
    if sol is None or any(y <= 0 for y in sol[:-1]):
        raise CertificateFailure("t*1 is not interior to the support found")
    t = Fraction(sol[-1], sol[-2])

    # (ii) over a_j, j off J
    p, q = t.numerator, t.denominator
    rows = [[q * gens[i][c] - p for c in off_j] for i in in_i]
    sol = _exact_solution(rows, [a[c] for c in off_j]) if off_j else None
    if sol is None or any(y <= 0 for y in sol):
        raise CertificateFailure("no normal is positive off the axes found")
    if any(q * sum(gens[i][c] * ac for c, ac in zip(off_j, sol)) <= p * sum(sol)
           for i in off_i):
        raise CertificateFailure("the normal found is not strict off the face")

    # dim F = |J| + rank of {u_i - u_i0 : i in I} off the axes J
    u0 = gens[in_i[0]]
    span = [[gens[i][c] - u0[c] for c in off_j] for i in in_i[1:]]
    return t, d - len(in_j) - len(_echelon(span)[1])
