"""Numeric RLCT estimates from Laplace integrals.

Evaluates Z_n = integral of exp(-n H) over a box for a grid of sample
sizes and regresses log Z_n on {1, log n, log log n}.  In the
convention used throughout, log Z_n = -(lambda/2) log n +
(mult - 1) log log n + O(1), so the slope in log n recovers lambda and
the log log n coefficient recovers the multiplicity.  This is a slow,
approximate route that serves as an independent check on the exact
polyhedral computations, not a replacement for them.

Sum of squares systems are split into independent blocks of variables
(no term couples two blocks).  A monomial block is folded first, and
folded blocks with equal terms and boxes are integrated once.

* Fold.  Flipping the sign of a coordinate set F leaves a term
  (w^u - c)^2 unchanged when c = 0 or when u has an even exponent sum
  over F, and leaves the box unchanged when every window in F is
  symmetric (lo == -hi).  Such flips form a group of order 2^k, as in a
  latent tree whose edge signs at a latent node flip together, and
  one orbit representative per point is kept by folding k windows to
  [0, hi] (see ``_fold``); the block value is the folded integral
  times 2^k, an exact scaling.  Callables are never folded.

Each folded block then takes one of three routes.

* Reduced.  In a monomial block, a coordinate whose exponent is at most
  1 in every term enters H as A x^2 - 2 B x + C, where A, B and C are
  functions of the other coordinates.  The last such coordinate is
  integrated in closed form (erf and erfcx expressions, see ``_line``).
  A block of one such coordinate, like a variance well (w - c)^2, is
  then exact.
* Quadrature.  What is left of a reduced block, or a block that cannot
  be reduced, is integrated numerically when it has at most
  QUAD_MAX_DIM coordinates.  One rule serves every such block: the
  integrand at the largest n is scanned for its peaks, panels are
  graded around the refined peaks, and a globally adaptive
  Gauss-Kronrod rule evaluates all panels and all n as one array per
  stage.  In 2-D the same rule runs along every row of an outer rule.
  A callable phase function is one block and is never reduced.
* Monte Carlo.  Larger blocks use stratified Monte Carlo with points
  shared across the grid, weighed by the quadrature's rule (a weight
  below exp(-700) counts as 0.0).  The grid increases, so a point
  whose weight is 0.0 stays there, and each n only weighs the points
  still live.

Either way the regression sees a smooth function of n rather than
independent errors.  An estimate reports ``method`` "monte_carlo" when
any block was sampled, with ``mc_std_err`` the worst relative standard
error of a sampled block value; otherwise ``method`` is "quadrature"
(closed form and numeric quadrature alike), ``mc_std_err`` is None, and
the result does not depend on the seed.  ``stopped_short`` says whether
an adaptive rule ran out of stages or points before every panel met its
tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from .engine import MonomialSos, _gf2_reduce
from .errors import IntegrationFailure
from .forests import _find

DEFAULT_N_GRID = tuple(
    int(round(v)) for v in np.geomspace(1e2, 1e6, 13)
)
#: Blocks with up to this many coordinates left after the closed-form
#: reduction (callables: coordinates) are integrated by quadrature,
#: larger ones by Monte Carlo.
QUAD_MAX_DIM = 2
#: Phase functions above this dimension raise IntegrationFailure.
MAX_DIM = 10
#: Multiplicities the log log n regression chooses among.
M_CANDIDATES = (1, 2, 3, 4)

# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1], from QUADPACK's qk15
_KX = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KW = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GW = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_GK_X = np.concatenate([-_KX[:-1], _KX[::-1]])
_GK_W = np.zeros((2, 15))
_GK_W[0] = np.concatenate([_KW[:-1], _KW[::-1]])
_GK_W[1, 1:14:2] = np.concatenate([_GW[:-1], _GW[::-1]])
# Gauss-Legendre rule for line integrals whose exponent changes by at
# most _FLAT over the window; its error there is below 1e-20
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_FLAT = 1.0
_SQRT_PI_2 = math.sqrt(math.pi) / 2
# a weight exp(-x) with x beyond _UNDERFLOW counts as 0.0, and erf(x) is
# 1.0 in double precision from _ERF_ONE on
_UNDERFLOW = 700.0
_ERF_ONE = 6.0
# points per slab of the line integrals, small enough to stay in cache
_CHUNK = 4096
# a panel is accepted once |K15 - G7| is at most _TOL of its row's
# integral at every n; the K15 value is far closer than that
_TOL = 1e-6
_MAX_STAGES = 60
_MAX_POINTS = 200_000
# peak scan: points along each axis (1-D, 2-D), peaks kept per axis, and
# the ratio of successive panel lengths graded away from a peak
_SCAN = (2049, 65)
_MAX_PEAKS = 8
_RATIO = 4.0


@dataclass(frozen=True)
class LaplaceConfig:
    mc_points: int = 10**6
    seed: int = 0

    def __post_init__(self):
        for key, low in (("mc_points", 1), ("seed", 0)):
            v = getattr(self, key)
            if type(v) is bool or not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {v!r}")


@dataclass(frozen=True)
class LaplaceEstimate:
    """Regression readout of a Laplace integral experiment.

    ``residuals`` are per grid point for the chosen multiplicity;
    ``rss_by_mult`` records the competition that picked it.
    ``method`` is "monte_carlo" when any block was sampled, else
    "quadrature" (closed form and numeric quadrature alike).
    ``mc_std_err`` is the worst relative standard error of any Monte
    Carlo block value entering the regression (None for quadrature).
    ``stopped_short`` is True when an adaptive quadrature rule hit its
    stage or point budget with panels still above its error tolerance,
    so some block value is less accurate than the rule aims for.
    """

    lambda_hat: float
    mult_hat: int
    n_grid: tuple[int, ...]
    residuals: tuple[float, ...]
    method: str
    log_z: tuple[float, ...]
    rss_by_mult: tuple[tuple[int, float], ...]
    mc_std_err: float | None = None
    stopped_short: bool = False

    def __post_init__(self):
        if self.lambda_hat < 0:
            raise ValueError("lambda_hat must be nonnegative")


def _blocks(terms: list[tuple[tuple[int, ...], float]], dim: int):
    """Connected components of coordinates under shared term support."""
    parent = list(range(dim))
    for u, _ in terms:
        sup = [i for i, e in enumerate(u) if e]
        for a, b in zip(sup, sup[1:]):
            parent[_find(parent, a)] = _find(parent, b)
    groups: dict[int, list[int]] = {}
    for i in range(dim):
        groups.setdefault(_find(parent, i), []).append(i)
    return sorted(groups.values())


def _fold(h: MonomialSos) -> list[int]:
    """Coordinates of h whose windows fold to [0, hi], in increasing order.

    The sign flips that leave H and the box unchanged are the flip sets
    of the symmetric windows (lo == -hi) with an even exponent sum in
    every term whose constant is not 0: the null space over GF(2) of one
    parity row per such term.  After row reduction, each free column
    spans one flip that touches no other free column, so every orbit of
    the group has exactly one point whose free coordinates are all
    nonnegative (up to a null set).  Folding the free windows therefore
    divides the integral by exactly 2^k, k the number of free columns.
    """
    sym = [j for j, (lo, hi) in enumerate(h.domain) if lo == -hi]
    rows = [
        sum((u[j] & 1) << b for b, j in enumerate(sym))
        for u, c in h.terms if c != 0.0
    ]
    _, free = _gf2_reduce(rows, [0] * len(rows), len(sym))
    return [sym[b] for b in free]


def _restrict(terms, coords):
    out = []
    for u, c in terms:
        if any(u[i] for i in coords):
            out.append((tuple(u[i] for i in coords), c))
    return out


def _weights(h0, ns):
    """exp(-n h0) for each point and each n of ns (or the one n ns),
    and where it is above exp(-700).

    Weights below that count as 0.0: clipping first keeps numpy's exp
    off its slow subnormal and underflow path.
    """
    w = np.multiply.outer(h0, -ns)
    live = w > -_UNDERFLOW
    np.maximum(w, -_UNDERFLOW, out=w)
    np.exp(w, out=w)
    w *= live
    return w, live


def _erf_part(tp, rn, count):
    """erf(tp[i] * rn[j]) on the first count[i] columns of row i, 1.0 on
    the rest: only the entries that need it are evaluated.  They are
    gathered by index; scipy 1.17's erf crashed when given ``where=``."""
    out = np.ones((len(tp), len(rn)))
    total = int(count.sum())
    if total:
        rows = np.repeat(np.arange(len(tp)), count)
        cols = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
        out.ravel()[rows * len(rn) + cols] = erf(tp[rows] * rn[cols])
    return out


def _sloped_piece(a, b, length, live):
    """The integral of exp(-a u - b u^2) over 0 <= u <= length, a > 0.

    With phi = a L + b L^2, the exponent's change over the window: where
    phi <= _FLAT the integrand is nearly flat and an 8-point
    Gauss-Legendre rule is exact to rounding; otherwise, with
    s = a / (2 sqrt b) and t = s + sqrt(b) L, the integral is

        sqrt(pi) / (2 sqrt b) * (erfcx(s) - erfcx(t) exp(-phi)),

    and -expm1(-phi) / a where b = 0.  erfcx falls, so the subtracted
    term is at most exp(-1) of the first and nothing cancels; erfcx(s)
    ~ 1 / (s sqrt(pi)) keeps the far tail (tiny b, large s) exact.
    """
    a, b, length = np.broadcast_arrays(a, b, length)
    phi = (a + b * length) * length
    out = np.zeros(phi.shape)
    flat = live & (phi <= _FLAT)
    if flat.any():
        af, bf, lf = a[flat], b[flat], length[flat]
        u = (0.5 * lf)[:, None] * (1.0 + _GL_X)
        out[flat] = 0.5 * lf * (np.exp(-(af[:, None] + bf[:, None] * u) * u) @ _GL_W)
    steep = live & ~flat
    lin = steep & (b == 0.0)
    out[lin] = -np.expm1(-phi[lin]) / a[lin]
    gauss = steep & (b > 0.0)
    if gauss.any():
        rb = np.sqrt(b[gauss])
        s = a[gauss] / (2.0 * rb)
        t = s + rb * length[gauss]
        out[gauss] = _SQRT_PI_2 / rb * (erfcx(s) - erfcx(t) * np.exp(-phi[gauss]))
    return out


def _line(h0, big_a, slope, hi_len, lo_len, ns):
    """exp(-n H) integrated over a line on which H is quadratic.

    Per point, H = h0 + slope u + A u^2 along a window of hi_len from
    the anchor, plus (slope 0) h0 + A u^2 along lo_len on the other side
    (lo_len is 0 where there is no other side).  Returns the (points,
    len(ns)) values, worked out in chunks of points that stay in cache.
    Without a slope a window contributes sqrt(pi)/2 erf(sqrt(nA) L) /
    sqrt(nA), or L where A = 0; erf(t) ~ 2 t / sqrt(pi) keeps small nA
    exact.  The grid increases, so the n where the weight exp(-n h0) is
    live, and those where erf(sqrt(nA) L) is not yet 1.0, are a prefix
    of the grid for each point; erf is evaluated on those alone.
    """
    out = np.empty((len(h0), len(ns)))
    rn = np.sqrt(ns)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_live = np.searchsorted(ns, _UNDERFLOW / h0)
        pieces = []
        for length in (hi_len, lo_len):
            n_erf = np.searchsorted(ns, (_ERF_ONE / length) ** 2 / big_a)
            pieces.append(np.where(slope > 0.0, 0, np.minimum(n_live, n_erf)))
        scale = _SQRT_PI_2 / np.sqrt(big_a)
    for i in range(0, len(h0), _CHUNK):
        part = slice(i, i + _CHUNK)
        a, slope_i = big_a[part], slope[part]
        hi_i, lo_i = hi_len[part], lo_len[part]
        ra = np.sqrt(a)
        w, live = _weights(h0[part], ns)
        k = _erf_part(ra * hi_i, rn, pieces[0][part])
        two = lo_i > 0.0
        if two.any():
            k[two] += _erf_part((ra * lo_i)[two], rn, pieces[1][part][two])
        with np.errstate(invalid="ignore"):
            k *= np.multiply.outer(scale[part], 1.0 / rn)
        flat = a == 0.0
        if flat.any():
            k[flat] = (hi_i + lo_i)[flat, None]
        sloped = slope_i > 0.0
        if sloped.any():
            k[sloped] = _sloped_piece(
                np.multiply.outer(slope_i[sloped], ns),
                np.multiply.outer(a[sloped], ns),
                hi_i[sloped, None], live[sloped],
            )
        np.multiply(w, k, out=out[part])
    return out


def _linear_coord(h: MonomialSos):
    """The last coordinate with exponent at most 1 in every term, or None."""
    for j in reversed(range(h.dim)):
        if all(u[j] <= 1 for u, _ in h.terms):
            return j
    return None


class _Reduced:
    """exp(-n H) integrated in closed form over one coordinate.

    With x the coordinate (window [lo, hi]) and m_k the monomial of the
    other coordinates in the k-th term that contains x,
    H = sum_k (m_k x - c_k)^2 + R = A x^2 - 2 B x + C, A = sum m_k^2,
    B = sum m_k c_k.  The integral is anchored where H is least on the
    window: at the vertex x* = B/A when it lies inside (two windows
    from x*, no linear part), else at the nearer end (one window, the
    slope |H'| there).  H at the anchor is evaluated as the sum of
    squares itself, never as C - B^2/A, so it keeps its accuracy when
    the two nearly cancel.
    """

    def __init__(self, h: MonomialSos, j: int):
        self.lo, self.hi = h.domain[j]
        keep = [i for i in range(h.dim) if i != j]
        self.box = [h.domain[i] for i in keep]
        lin, rest = [], []
        for u, c in h.terms:
            (lin if u[j] else rest).append((tuple(u[i] for i in keep), c))
        self.lin = MonomialSos(len(keep), lin, self.box)
        self.rest = MonomialSos(len(keep), rest, self.box)

    def _anchor(self, pts):
        ones = np.ones(len(pts))
        mons = [
            (ones if m is None else m, c)
            for m, (_, c) in zip(self.lin.monomials(pts), self.lin.terms)
        ]
        big_a = sum(m * m for m, _ in mons)
        big_b = sum(m * c for m, c in mons)
        rest = self.rest(pts)

        def h_at(x):
            return sum(np.square(m * x - c) for m, c in mons) + rest

        lo, hi = self.lo, self.hi
        h_lo, h_hi = h_at(lo), h_at(hi)
        anchor = np.where(h_lo <= h_hi, lo, hi)
        h0 = np.minimum(h_lo, h_hi)
        slope = 2.0 * np.abs(big_a * anchor - big_b)
        hi_len = np.full(len(pts), hi - lo)
        lo_len = np.zeros(len(pts))
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = big_b / big_a
        inside = (big_a > 0.0) & (lo < vertex) & (vertex < hi)
        if inside.any():
            v = vertex[inside]
            h0[inside] = rest[inside] + sum(
                np.square(m[inside] * v - c) for m, c in mons
            )
            slope[inside] = 0.0
            hi_len[inside] = hi - v
            lo_len[inside] = v - lo
        return h0, big_a, slope, hi_len, lo_len

    def __call__(self, pts, ns):
        return _line(*self._anchor(pts), ns)

    def phase(self, pts, n):
        """-log of the integral at n, over n: low where the integrand peaks."""
        h0, *line = self._anchor(pts)
        k = _line(np.zeros(len(pts)), *line, np.array([n]))[:, 0]
        return h0 - np.log(k) / n


def _scan_peaks(xs, vals) -> np.ndarray:
    """Near-minimum points of a scan, at most _MAX_PEAKS, spaced apart."""
    lo, hi = xs[0], xs[-1]
    cut = vals.min() + 1e-12 + 1e-6 * (vals.max() - vals.min())
    out: list[float] = []
    for i in np.flatnonzero(vals <= cut):
        if not out or xs[i] - out[-1] > (hi - lo) / 64:
            out.append(float(xs[i]))
    return np.array(out[:_MAX_PEAKS])


def _axis_breaks(profile, xs, vals, width):
    """Panel ends along one axis, graded around the profile's minima.

    The scan's near-minimum points are refined by zooming (each stage
    one profile call over all of them) until they are known to well
    below ``width``; ends then sit at width * 4**k on both sides of each.
    """
    lo, hi = float(xs[0]), float(xs[-1])
    peaks = _scan_peaks(xs, vals)
    step = (hi - lo) / (len(xs) - 1)
    offsets = np.linspace(-1.0, 1.0, 17)
    while step > width / 8:
        cand = np.clip(peaks[:, None] + step * offsets, lo, hi)
        got = profile(cand.ravel()).reshape(cand.shape)
        peaks = cand[np.arange(len(peaks)), got.argmin(axis=1)]
        step /= 4
    reach = width * _RATIO ** np.arange(
        max(1, math.ceil(math.log((hi - lo) / width, _RATIO)) + 1)
    )
    ends = np.concatenate(
        [[lo, hi], peaks, (peaks[:, None] + reach).ravel(),
         (peaks[:, None] - reach).ravel()]
    )
    ends = np.unique(ends[(ends >= lo) & (ends <= hi)])
    keep = np.concatenate([[True], np.diff(ends) > width / 4])
    ends = ends[keep]
    ends[-1] = hi
    return ends


def _row_sums(r, vals, rows: int):
    """Sums of the rows of vals grouped by the ascending labels r."""
    out = np.zeros((rows, vals.shape[1]))
    if len(r):
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        out[r[starts]] = np.add.reduceat(vals, starts, axis=0)
    return out


def _adapt(f, ends, rows: int, cost: int = 1):
    """Integrals over [ends[0], ends[-1]] of f, one per row.

    ``f(r, x)`` gives the (len(x), G) integrand values of rows r at
    points x.  Every row starts from the same panels; each stage
    evaluates the 15 Gauss-Kronrod nodes of every open panel of every
    row in one call, accepts the panels whose |K15 - G7| is within _TOL
    of their row's current estimate at every n, and halves the rest.
    Like any adaptive rule it stops short, keeping its current
    estimate: after _MAX_STAGES stages, or when the next stage would
    evaluate more than _MAX_POINTS points, each of which costs ``cost``
    points inside f.  A NaN never asks for more.  Returns a (rows, G)
    array, and whether the rule stopped short with panels still over
    _TOL.
    """
    nb = len(ends) - 1
    a = np.tile(ends[:-1], rows)
    b = np.tile(ends[1:], rows)
    r = np.repeat(np.arange(rows), nb)  # stays ascending through splits
    done = 0.0
    for stage in range(_MAX_STAGES):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _GK_X
        v = f(np.repeat(r, len(_GK_X)), x.ravel()).reshape(len(a), len(_GK_X), -1)
        kg = _GK_W @ v  # (panels, 2, G): the K15 and G7 sums
        kr = kg[:, 0] * half[:, None]
        err = np.abs(kg[:, 0] - kg[:, 1]) * half[:, None]
        est = done + _row_sums(r, kr, rows)
        split = (err > _TOL * est[r]).any(axis=1)
        if not split.any():
            return est, False
        if (stage == _MAX_STAGES - 1
                or 2 * split.sum() * len(_GK_X) * cost > _MAX_POINTS):
            return est, True
        done = done + _row_sums(r[~split], kr[~split], rows)
        a, b, r, mid = a[split], b[split], r[split], mid[split]
        a = np.column_stack([a, mid]).ravel()
        b = np.column_stack([mid, b]).ravel()
        r = np.repeat(r, 2)


class _Plain:
    """exp(-n h) of a phase function that is not reduced."""

    def __init__(self, h, box):
        self.h, self.box = h, box

    def __call__(self, pts, ns):
        return _weights(self.h(pts), ns)[0]

    def phase(self, pts, n):
        return self.h(pts)


def _quad_block(h, box, ns: np.ndarray) -> tuple[np.ndarray, bool]:
    """exp(-n h) integrated over the box, for each n in ns, and whether
    an adaptive rule stopped short.

    A monomial block with a coordinate of exponent at most 1 is first
    reduced by one coordinate in closed form (``_Reduced``); the rest,
    at most QUAD_MAX_DIM coordinates, goes to the graded adaptive rule.
    Each axis is graded around the minima of the least phase over the
    other axes, scanned once at the largest n; the last axis is
    integrated along every row at once, under an outer rule over the
    first when there are two.  One rule covers the whole grid, so the
    wide small-n peaks steer the subdivision towards the narrow large-n
    ones.
    """
    j = _linear_coord(h) if isinstance(h, MonomialSos) else None
    f = _Reduced(h, j) if j is not None else _Plain(h, box)
    if not f.box:
        return f(np.empty((1, 0)), ns)[0], False
    top = float(ns[-1])
    width = 1.0 / math.sqrt(top)
    d = len(f.box)
    axes = [np.linspace(lo, hi, _SCAN[d - 1]) for lo, hi in f.box]

    def phase(*coords):
        grid = np.meshgrid(*coords, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grid])
        return f.phase(pts, top).reshape(grid[0].shape)

    scan = phase(*axes)
    ends = []
    for k, xs in enumerate(axes):
        others = tuple(i for i in range(d) if i != k)

        def profile(v, k=k, others=others):
            return phase(*axes[:k], v, *axes[k + 1:]).min(axis=others)

        ends.append(_axis_breaks(profile, xs, scan.min(axis=others), width))
    *outer, inner = ends

    row_cost = (len(inner) - 1) * len(_GK_X)  # points of a row's first stage
    batch = max(1, _MAX_POINTS // row_cost)
    short = False

    def rows(_, u):
        # rows go in batches whose first stage stays within _MAX_POINTS;
        # a block's first stage of rows is one batch unless it is large
        nonlocal short
        out = []
        for part in np.array_split(u, -(-len(u) // batch)):
            est, part_short = _adapt(
                lambda r, v: f(np.column_stack([part[r], v]), ns),
                inner, len(part),
            )
            out.append(est)
            short |= part_short
        return np.concatenate(out)

    if not outer:
        return rows(None, np.empty((1, 0)))[0], short
    est, outer_short = _adapt(rows, outer[0], 1, row_cost)
    return est[0], short or outer_short


def _mc_points(box, count: int, rng) -> np.ndarray:
    """Uniform points in box, one per cell of a k^d grid up to d = 3.

    The (N, d) result is stored column by column, so each coordinate is
    one contiguous array.
    """
    d = len(box)
    if d <= 3:
        k = max(2, int(round(count ** (1.0 / d))))
        # each draw plus its cell index along its axis, shrunk to [0, 1)
        u = rng.random((k**d, d)).T + np.indices((k,) * d).reshape(d, -1)
        u /= k
    else:
        u = rng.random((count, d)).T.copy()
    lo, hi = np.array(box).T
    u *= (hi - lo)[:, None]
    u += lo[:, None]
    return u.T


def _mc_block(h, box, ns: np.ndarray, count: int, rng):
    """Monte Carlo exp(-n h) over box for each n in ns, with relative errors.

    Both arrays are 0.0 from the first n whose mass underflows.  Points
    are weighed by ``_weights``, so a weight below exp(-700) counts as
    0.0.  ns increases, so a point dead at one n stays dead at every
    larger n: only the live points go on to the next n.  The mean still
    divides by every point, and each dropped point adds its
    (0 - mean)^2 to the variance.
    """
    live = h(_mc_points(box, count, rng))
    total = live.size
    vol = float(np.prod([hi - lo for lo, hi in box]))
    z = np.zeros(len(ns))
    se = np.zeros(len(ns))
    for gi, n in enumerate(ns):
        w, keep = _weights(live, n)
        mean = float(w.sum()) / total
        if mean <= 0.0:
            break
        w -= mean
        var = (float(w @ w) + (total - live.size) * mean * mean) / total
        se[gi] = math.sqrt(var) / math.sqrt(total) / mean
        z[gi] = vol * mean
        live = live[keep]
    return z, se


def laplace_rlct_estimate(
    h,
    domain=None,
    n_grid=None,
    cfg: LaplaceConfig | None = None,
) -> LaplaceEstimate:
    """Estimate (lambda, mult) of a phase function from Z_n regressions.

    ``h`` is either a :class:`MonomialSos` over its own domain or a
    plain callable mapping an (N, d) array of points to H values, whose
    box ``domain`` is then required and which is treated as one block.
    The zero set of H must meet the box, the box must be bounded, and
    the grid must be at least 3 increasing integers >= 2.
    """
    cfg = cfg or LaplaceConfig()
    grid = tuple(n_grid if n_grid is not None else DEFAULT_N_GRID)
    if (len(grid) < 3 or not all(isinstance(n, numbers.Integral) for n in grid)
            or sorted(set(grid)) != list(grid) or grid[0] < 2):
        raise ValueError("n grid must be at least 3 increasing integers >= 2")
    grid = tuple(int(n) for n in grid)

    if isinstance(h, MonomialSos):
        if domain is not None:
            raise ValueError("a MonomialSos is integrated over its own domain")
        domain = h.domain
        const = sum((1.0 - c) ** 2 for u, c in h.terms if not any(u))
        blocks = _blocks(h.terms, h.dim)  # a constant term joins nothing
        phase = None  # each block is built from the terms below
    elif domain is None:
        raise ValueError("a callable phase function needs a domain")
    else:
        const, domain = 0.0, list(domain)  # any iterable of windows
        blocks = [list(range(len(domain)))]
        phase = lambda pts: np.asarray(h(pts), dtype=float)

    if len(domain) > MAX_DIM:
        raise IntegrationFailure(
            f"dimension {len(domain)} exceeds the numeric bound {MAX_DIM}"
        )
    for lo, hi in domain:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise IntegrationFailure("integration box must be bounded")
    box = [(float(lo), float(hi)) for lo, hi in domain]

    rng = np.random.default_rng(cfg.seed)
    ns = np.asarray(grid, dtype=float)
    log_z = -ns * const
    stopped_short = False
    worst_se = None  # stays None unless a block is sampled
    # quadrature values by block: equal sub-systems are integrated once
    shared: dict = {}

    for coords in blocks:
        sub_box = [box[i] for i in coords]
        hb, orbit, left = phase, 1.0, len(coords)
        if phase is None:
            hb = MonomialSos(len(coords), tuple(_restrict(h.terms, coords)), sub_box)
            if not hb.terms:
                log_z += sum(math.log(hi - lo) for lo, hi in sub_box)
                continue
            folded = _fold(hb)
            for i in folded:
                sub_box[i] = (0.0, sub_box[i][1])
            hb = MonomialSos(hb.dim, hb.terms, sub_box)
            # the block is 2^k copies of its folded part: an exact scaling
            orbit = 2.0 ** len(folded)
            left -= _linear_coord(hb) is not None

        quad = left <= QUAD_MAX_DIM
        if quad:
            if hb not in shared:
                shared[hb] = _quad_block(hb, sub_box, ns)
            vals, short = shared[hb]
            stopped_short |= short
        else:
            vals, se = _mc_block(hb, sub_box, ns, cfg.mc_points, rng)
            worst_se = max(worst_se or 0.0, *se)
        bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
        if bad.size:
            raise IntegrationFailure(
                f"{'quadrature' if quad else 'Monte Carlo mass'} underflow "
                f"at n={grid[bad[0]]} (block {coords})"
            )
        log_z += np.log(vals * orbit)

    logn = np.log(ns)
    loglogn = np.log(logn)
    design = np.column_stack([np.ones_like(logn), logn])
    fits = []
    for mc in M_CANDIDATES:
        y = log_z - (mc - 1) * loglogn
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        fits.append((float(resid @ resid), mc, float(coef[1]), resid))
    # min keeps the first of equal values: a tie goes to the smaller mult
    _, mult_hat, slope, resid = min(fits, key=lambda fit: fit[0])
    return LaplaceEstimate(
        lambda_hat=max(0.0, -2.0 * slope),
        mult_hat=mult_hat,
        n_grid=grid,
        residuals=tuple(float(r) for r in resid),
        method="quadrature" if worst_se is None else "monte_carlo",
        log_z=tuple(float(v) for v in log_z),
        rss_by_mult=tuple((mc, rss) for rss, mc, *_ in fits),
        mc_std_err=worst_se,
        stopped_short=stopped_short,
    )
