"""Real log canonical thresholds of monomial sum-of-squares functions.

A phase function here is H(w) = sum_i (w^{u_i} - c_i)^2 on a box domain.
Its RLCT splits into two independent parts:

  * the terms with c_i != 0 cut out a smooth fiber; they contribute the
    rank of their exponent matrix, provided the fiber meets the interior
    of the domain.  An exact GF(2) solve gives the sign orthants, and a
    linear program in the log-magnitudes checks each one: its matrix is
    built once per system and an orthant sets only its bounds; and

  * the terms with c_i = 0, restricted to the coordinates not touched
    by the nonzero part, contribute through the Newton polyhedron of
    their exponents: lambda = 1/t and the multiplicity is the
    codimension of the face where t*(1,...,1) first enters.

Neither number needs the facet list.  ``polyhedra.one_distance_lp``
reads t and that face off one linear program, a strictly complementary
primal-dual pair, and proves both in rational arithmetic; a failed
proof raises CertificateFailure, never a float-derived answer.  The
exact hull (``newton_facets`` with ``one_distance_mult``) is the oracle
the tests check it against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyFiber, EmptyZeroSet, NoInteriorSolution, TooLarge
from .polyhedra import linprog, one_distance_lp, rational_rank

#: margin below which an LP interior slack counts as boundary contact
INTERIOR_TOL = 1e-7


@dataclass(frozen=True)
class Rlct:
    """A threshold: asymptotically log Z_n ~ -(lam/2) log n + (mult-1) loglog n."""

    lam: Fraction
    mult: int

    def __str__(self) -> str:
        return f"lambda={self.lam} mult={self.mult}"

    def as_tuple(self) -> tuple[Fraction, int]:
        return (self.lam, self.mult)


def _float(x) -> float:
    """``float(x)``, with a ``ValueError`` for an integer beyond float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError("number too large for a float") from None


@dataclass(frozen=True)
class MonomialSos:
    """H(w) = sum of (w^u - c)^2 over a product of intervals.

    terms are (exponent tuple, constant) pairs; exponents are
    nonnegative integers of length dim.  Unbounded interval ends are
    +-inf (serialized as null).
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple((tuple(int(x) for x in u), _float(c)) for u, c in self.terms),
        )
        object.__setattr__(
            self, "domain", tuple((_float(a), _float(b)) for a, b in self.domain)
        )
        if not all(math.isfinite(c) for _, c in self.terms):
            raise ValueError("term constants must be finite")
        if len(self.domain) != self.dim:
            raise ValueError("domain length does not match dim")
        for u, _ in self.terms:
            if len(u) != self.dim:
                raise ValueError(f"exponent {u} has wrong length")
            if min(u, default=0) < 0:
                raise ValueError(f"exponent {u} has a negative entry")
            _float(max(u, default=0))  # the LPs read exponents as floats
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty domain interval ({lo}, {hi})")

    def __call__(self, w):
        """H at one point ``(dim,)`` as a float, or at each row of an
        ``(N, dim)`` array as an array.

        The sum starts from its first square, so no array operation goes
        to a zero.
        """
        pts = np.asarray(w, dtype=float)
        if pts.ndim == 1:
            return float(self(pts[None])[0])
        total = None
        for (_, c), mon in zip(self.terms, self.monomials(pts)):
            if mon is None:
                sq = np.full(len(pts), (1.0 - c) ** 2)
            else:
                sq = np.square(mon - c)
            total = sq if total is None else np.add(total, sq, out=total)
        return np.zeros(len(pts)) if total is None else total

    def monomials(self, pts):
        """w^u of each term at each row of an ``(N, dim)`` array, None
        for a term with no variable, one term at a time.

        A monomial starts from its first factor, so no array operation
        goes to a unit.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must have shape ({self.dim},) or (N, {self.dim})"
            )
        cols = [np.ascontiguousarray(pts[:, j]) for j in range(self.dim)]

        def monomial(u):
            mon = None
            for j, e in enumerate(u):
                if e:
                    f = cols[j] if e == 1 else cols[j] ** e
                    mon = f if mon is None else mon * f
            return mon

        return (monomial(u) for u, _ in self.terms)

    def to_json(self) -> str:
        def end(x):
            return None if math.isinf(x) else x

        return json.dumps(
            {
                "dim": self.dim,
                "terms": [{"u": list(u), "c": c} for u, c in self.terms],
                "domain": [[end(a), end(b)] for a, b in self.domain],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MonomialSos":
        data = json.loads(text)
        num, ok = (int, float), isinstance(data, dict)
        terms, domain = (data.get(k) if ok else None for k in ("terms", "domain"))
        if not (
            ok and isinstance(data.get("dim"), int)
            and isinstance(terms, list) and isinstance(domain, list)
            and all(isinstance(t, dict) and isinstance(t.get("c"), num)
                    and isinstance(t.get("u"), list)
                    and all(isinstance(x, int) for x in t["u"]) for t in terms)
            and all(isinstance(d, list) and len(d) == 2
                    and all(x is None or isinstance(x, num) for x in d)
                    for d in domain)
        ):
            raise ValueError(
                'a monomial system is {"dim": int, "terms": [{"u": [int, ...], '
                '"c": number}, ...], "domain": [[number or null, ...], ...]}'
            )

        def end(x, sign):
            return sign * math.inf if x is None else x

        return cls(
            dim=data["dim"],
            terms=tuple((tuple(t["u"]), t["c"]) for t in terms),
            domain=tuple((end(a, -1), end(b, +1)) for a, b in domain),
        )


@dataclass(frozen=True)
class PartSplit:
    """Separation of a MonomialSos into its nonzero and zero parts.

    support/complement partition the coordinate indices; zero_terms are
    the c = 0 exponents projected onto the complement coordinates.
    """

    nonzero_terms: tuple[tuple[tuple[int, ...], float], ...]
    zero_terms: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]
    complement: tuple[int, ...]


def split_parts(m: MonomialSos) -> PartSplit:
    """Split terms by constant and project the zero part.

    Raises EmptyZeroSet when some c = 0 term is supported entirely on
    the coordinates of the nonzero part (including constant terms):
    such a term cannot vanish on the fiber of the nonzero part, so H
    has no zero on the domain closure worth localizing at.
    """
    nonzero = tuple((u, c) for u, c in m.terms if c != 0.0)
    zero_raw = [u for u, c in m.terms if c == 0.0]
    touched = set()
    for u, _ in nonzero:
        touched.update(i for i, x in enumerate(u) if x != 0)
    support = tuple(sorted(touched))
    complement = tuple(i for i in range(m.dim) if i not in touched)
    projected = []
    for u in zero_raw:
        if all(u[i] == 0 for i in complement):
            raise EmptyZeroSet(
                "a zero-constant term is supported on the nonzero-part "
                "coordinates; H has no interior zero"
            )
        projected.append(tuple(u[i] for i in complement))
    return PartSplit(
        nonzero_terms=nonzero,
        zero_terms=tuple(projected),
        support=support,
        complement=complement,
    )


def _gf2_reduce(rows: list[int], rhs: list[int], width: int):
    """Row-reduce the GF(2) system rows[i].s = rhs[i] in width unknowns.

    rows are column bitmasks.  Returns ``(pivots, free)``: pivots maps
    each pivot column to its reduced (row, rhs), a row whose highest
    bit is that column, and free lists the other columns in increasing
    order.  Raises EmptyFiber if the system is inconsistent.
    """
    pivots: dict[int, tuple[int, int]] = {}  # col -> reduced (row, rhs)
    for row, r in zip(rows, rhs):
        for col, (prow, pr) in pivots.items():
            if row >> col & 1:
                row ^= prow
                r ^= pr
        if row == 0:
            if r:
                raise EmptyFiber("no sign orthant is consistent with the constants")
            continue
        col = row.bit_length() - 1
        pivots[col] = (row, r)
    return pivots, [c for c in range(width) if c not in pivots]


def _gf2_sign_solutions(rows: list[int], rhs: list[int], width: int):
    """Solutions s in GF(2)^width of the system rows[i].s = rhs[i].

    rows are column bitmasks.  Yields solutions as bitmasks; raises
    EmptyFiber if the system is inconsistent and TooLarge if it leaves
    more than 20 signs free.
    """
    pivots, free = _gf2_reduce(rows, rhs, width)
    if len(free) > 20:
        raise TooLarge(f"too many sign orthants to enumerate (2^{len(free)})")
    # a pivot row only involves columns below its own pivot, so back
    # substitution in increasing column order sees assigned values only
    order = sorted(pivots)
    for bits in itertools.product((0, 1), repeat=len(free)):
        s = 0
        for c, b in zip(free, bits):
            s |= b << c
        for col in order:
            prow, pr = pivots[col]
            if ((prow & s & ~(1 << col)).bit_count() & 1) ^ pr:
                s |= 1 << col
        yield s


def nonzero_codim(split: PartSplit, domain) -> int:
    """Codimension contributed by the nonzero part on the given domain.

    Returns the rank of the exponent matrix when the fiber
    {w : w^{u_i} = c_i} meets the interior of the domain projected to
    the support coordinates.  Raises NoInteriorSolution when the fiber
    only touches the domain boundary, EmptyFiber when it misses the
    domain entirely and TooLarge when more than 20 signs are free.

    The signs of w come from an exact GF(2) solve.  In a sign orthant
    |w_j| runs from bottom_j to top_j, read off the domain, and one LP
    in (x, delta), x = log|w|, maximizes the margin delta <= 1 subject
    to U x = log|c|, x_j + delta <= log top_j and
    x_j - delta >= log bottom_j.  Its matrix [[U, 0], [I, 1], [I, -1]]
    is built once; an orthant sets only the bounds, and orthants with
    equal bounds (as on a box symmetric about 0) share one LP.
    """
    terms = split.nonzero_terms
    if not terms:
        return 0
    sup = split.support
    s = len(sup)
    umat = [[u[i] for i in sup] for u, _ in terms]
    rows = [sum(1 << j for j, x in enumerate(urow) if x & 1) for urow in umat]
    rhs = [int(c < 0) for _, c in terms]
    rank = rational_rank(umat)

    a_np = np.array(umat, dtype=float)
    b_np = np.array([math.log(abs(c)) for _, c in terms])
    x0, *_ = np.linalg.lstsq(a_np, b_np, rcond=None)
    scale = max(1.0, float(np.max(np.abs(b_np))))
    if float(np.max(np.abs(a_np @ x0 - b_np))) > 1e-8 * scale:
        raise EmptyFiber("the magnitude system w^u = |c| has no solution")

    # the matrix [[U, 0], [I, 1], [I, -1]] of the docstring
    k, inf = len(terms), np.full(s, np.inf)
    a = np.zeros((k + 2 * s, s + 1))
    a[:k, :s], a[k:k + s], a[k + s:] = a_np, np.eye(s, s + 1), np.eye(s, s + 1)
    a[k:k + s, s], a[k + s:, s] = 1.0, -1.0
    cost, ub = np.zeros(s + 1), np.full(s + 1, np.inf)
    cost[s], ub[s] = -1.0, 1.0
    box, eq = (np.full(s + 1, -np.inf), ub), np.ones(k, bool)
    lo, hi = np.array([domain[i] for i in sup]).reshape(-1, 2).T
    best, solved = -math.inf, set()
    for signs in _gf2_sign_solutions(rows, rhs, s):
        neg = np.array([signs >> j & 1 for j in range(s)], dtype=bool)
        top, bottom = np.where(neg, -lo, hi), np.where(neg, -hi, lo)
        if (top <= 0).any():
            continue
        up = np.log(top)
        down = np.log(bottom, out=np.full(s, -np.inf), where=bottom > 0)
        # rows whose bounds are both infinite stay out of the LP
        keep = np.concatenate([eq, up < np.inf, down > -np.inf])
        if not keep[k:].any():
            return rank
        key = (up.tobytes(), down.tobytes())
        if key in solved:
            continue
        solved.add(key)
        res = linprog(cost, a[keep], np.concatenate([b_np, -inf, down])[keep],
                      np.concatenate([b_np, up, inf])[keep], *box)
        if res.success:
            best = max(best, -res.fun)
            if best > INTERIOR_TOL:
                return rank
    if best >= -INTERIOR_TOL:
        raise NoInteriorSolution(
            "the fiber of the nonzero part only touches the domain boundary"
        )
    raise EmptyFiber("the fiber of the nonzero part misses the domain")


def rlct_monomial_sos(m: MonomialSos) -> Rlct:
    """RLCT of H at its zero set within the domain.

    The nonzero part contributes its codimension with multiplicity 1;
    the zero part contributes via its Newton polyhedron, through
    ``one_distance_lp``.  A term list
    with no zero part yields multiplicity 1; no terms at all means
    H = 0 and the threshold is (0, 1).
    """
    split = split_parts(m)
    lam1 = nonzero_codim(split, m.domain)
    if not split.zero_terms:
        return Rlct(Fraction(lam1), 1)
    t, mult = one_distance_lp(split.zero_terms, len(split.complement))
    return Rlct(Fraction(lam1) + 1 / t, mult)
