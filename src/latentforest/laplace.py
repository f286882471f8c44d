"""Numeric RLCT estimates from Laplace integrals.

Evaluates Z_n = integral of exp(-n H) over a box for a grid of sample
sizes and regresses log Z_n on {1, log n, log log n}.  In the
convention used throughout, log Z_n = -(lambda/2) log n +
(mult - 1) log log n + O(1), so the slope in log n recovers lambda and
the log log n coefficient recovers the multiplicity.  This is a slow,
approximate route that serves as an independent check on the exact
polyhedral computations, not a replacement for them.

Sum of squares systems are split into independent blocks of variables
(no term couples two blocks), which keeps each integral low
dimensional.  Blocks of dimension up to two are integrated by one
vector quadrature over the whole n grid, with break points bracketing
the near-zero points of the phase function; blocks with equal terms
and boxes are integrated once.  Larger blocks use stratified Monte
Carlo with points shared across the grid.  The grid increases, so a
point whose weight exp(-n H) has underflowed to 0.0 stays there, and
each n only weighs the points still live.  Either way the regression
sees a smooth function of n rather than independent errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import MonomialSos
from .errors import IntegrationFailure

DEFAULT_N_GRID = tuple(
    int(round(v)) for v in np.geomspace(1e2, 1e6, 13)
)
#: Blocks up to this dimension are integrated by quadrature, larger
#: ones by Monte Carlo.
QUAD_MAX_DIM = 2
#: Phase functions above this dimension raise IntegrationFailure.
MAX_DIM = 10
#: Multiplicities the log log n regression chooses among.
M_CANDIDATES = (1, 2, 3, 4)


@dataclass(frozen=True)
class LaplaceConfig:
    mc_points: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if self.mc_points < 1:
            raise ValueError("mc_points must be at least 1")


@dataclass(frozen=True)
class LaplaceEstimate:
    """Regression readout of a Laplace integral experiment.

    ``residuals`` are per grid point for the chosen multiplicity;
    ``rss_by_mult`` records the competition that picked it.
    ``mc_std_err`` is the worst relative standard error of any Monte
    Carlo block value entering the regression (None for quadrature).
    """

    lambda_hat: float
    mult_hat: int
    n_grid: tuple[int, ...]
    residuals: tuple[float, ...]
    method: str
    log_z: tuple[float, ...]
    rss_by_mult: tuple[tuple[int, float], ...]
    mc_std_err: float | None = None

    def __post_init__(self):
        if self.lambda_hat < 0:
            raise ValueError("lambda_hat must be nonnegative")


def _blocks(terms: list[tuple[tuple[int, ...], float]], dim: int):
    """Connected components of coordinates under shared term support."""
    parent = list(range(dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, _ in terms:
        sup = [i for i, e in enumerate(u) if e]
        for a, b in zip(sup, sup[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(dim):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _restrict(terms, coords):
    out = []
    for u, c in terms:
        if any(u[i] for i in coords):
            out.append((tuple(u[i] for i in coords), c))
    return out


def _scan_minima(f, lo: float, hi: float, k: int) -> list[float]:
    """Interior near-minimum points of f on [lo, hi], for quad hints.

    The scan points just outside the near-minimum set are hints too, so
    a lone peak lies inside a short panel.  The hit alone would not do:
    Gauss-Kronrod nodes skip panel ends, so the tail of a peak beside a
    long panel is lost.
    """
    xs = np.linspace(lo, hi, k)
    vals = f(xs)
    cut = vals.min() + 1e-12 + 1e-6 * (vals.max() - vals.min())
    hits = np.flatnonzero(vals <= cut)
    out: list[float] = []
    for i in hits:
        x = float(xs[i])
        if lo < x < hi and (not out or x - out[-1] > (hi - lo) / 64):
            out.append(x)
    edges = [hits[0] - 1, hits[-1] + 1] if hits.size else []
    sides = [float(xs[i]) for i in edges if 0 < i < k - 1]
    return sorted(out[:40] + sides)


def _scan_quad(scan, integrand, lo: float, hi: float, k: int = 2049):
    """Vector integrand integrated over [lo, hi], split at scan's minima."""
    from scipy import integrate

    pts = _scan_minima(scan, lo, hi, k)
    return integrate.quad_vec(integrand, lo, hi, points=pts or None)[0]


def _quad_block(h, box, ns: np.ndarray) -> np.ndarray:
    """exp(-n h) integrated over a 1 or 2 dimensional box, for each n in ns.

    One adaptive rule covers the whole grid, so the wide small-n peaks
    steer the subdivision towards the narrow large-n ones.
    """

    def line(head, lo, hi):
        # integral over the last coordinate, the others fixed at head
        def g(t):
            t = np.atleast_1d(t)
            pts = np.empty((t.size, len(head) + 1))
            pts[:, :-1] = head
            pts[:, -1] = t
            return h(pts)

        return _scan_quad(g, lambda t: np.exp(-ns * g(t)), lo, hi)

    if len(box) == 1:
        return line((), *box[0])
    (xlo, xhi), (ylo, yhi) = box

    def fx(xs):
        gx, gy = np.meshgrid(xs, np.linspace(ylo, yhi, 65), indexing="ij")
        vals = h(np.column_stack([gx.ravel(), gy.ravel()]))
        return vals.reshape(gx.shape).min(axis=1)

    return _scan_quad(fx, lambda x: line((x,), ylo, yhi), xlo, xhi, k=513)


def _mc_points(box, count: int, rng) -> np.ndarray:
    """Uniform points in box, one per cell of a k^d grid up to d = 3.

    The (N, d) result is stored column by column, so each coordinate is
    one contiguous array.
    """
    d = len(box)
    if d <= 3:
        k = max(2, int(round(count ** (1.0 / d))))
        u = rng.random((k**d, d))
    else:
        u = rng.random((count, d))
    pts = np.empty((d, len(u)))
    for j, (lo, hi) in enumerate(box):
        col = pts[j]
        if d <= 3:
            # add the cell index along axis j, then shrink to [0, 1)
            along_j = [k if i == j else 1 for i in range(d)]
            np.add(
                u[:, j].reshape((k,) * d),
                np.arange(k).reshape(along_j),
                out=col.reshape((k,) * d),
            )
            col /= k
        else:
            col[:] = u[:, j]
        col *= hi - lo
        col += lo
    return pts.T


def _mc_block(h, box, ns: np.ndarray, count: int, rng):
    """Monte Carlo exp(-n h) over box for each n in ns, with relative errors.

    Both arrays are 0.0 from the first n whose mass underflows.  ns
    increases, so a point whose weight is exactly 0.0 at one n stays 0.0
    at every larger n: only the points that still carry weight go on to
    the next n.  The mean still divides by every point, and each dropped
    point adds its (0 - mean)^2 to the variance.
    """
    live = h(_mc_points(box, count, rng))
    total = live.size
    vol = float(np.prod([hi - lo for lo, hi in box]))
    z = np.zeros(len(ns))
    se = np.zeros(len(ns))
    for gi, n in enumerate(ns):
        w = np.multiply(live, -n)
        np.exp(w, out=w)
        mean = float(w.sum()) / total
        if mean <= 0.0:
            break
        keep = w != 0.0
        w -= mean
        var = (float(w @ w) + (total - live.size) * mean * mean) / total
        se[gi] = math.sqrt(var) / math.sqrt(total) / mean
        z[gi] = vol * mean
        if not keep.all():
            live = live[keep]
    return z, se


def laplace_rlct_estimate(
    h,
    domain=None,
    n_grid=None,
    cfg: LaplaceConfig | None = None,
) -> LaplaceEstimate:
    """Estimate (lambda, mult) of a phase function from Z_n regressions.

    ``h`` is either a :class:`MonomialSos` (its domain is used unless
    one is passed) or a plain callable mapping an (N, d) array of
    points to H values, in which case ``domain`` is required and the
    function is treated as one block.  The zero set of H must meet the
    box, the box must be bounded, and every grid n must be at least 2.
    """
    cfg = cfg or LaplaceConfig()
    grid = tuple(int(n) for n in (n_grid if n_grid is not None else DEFAULT_N_GRID))
    if len(grid) < 3 or sorted(set(grid)) != list(grid) or grid[0] < 2:
        raise ValueError("n grid must be at least 3 increasing integers >= 2")

    if isinstance(h, MonomialSos):
        box = list(h.domain if domain is None else domain)
        dim = h.dim
        const = sum((1.0 - c) ** 2 for u, c in h.terms if not any(u))
        live = [(u, c) for u, c in h.terms if any(u)]
        blocks = _blocks(live, dim)
    else:
        if domain is None:
            raise ValueError("a callable phase function needs a domain")
        box = list(domain)
        dim = len(box)
        const = 0.0
        blocks = [list(range(dim))]

    if dim > MAX_DIM:
        raise IntegrationFailure(
            f"dimension {dim} exceeds the numeric bound {MAX_DIM}"
        )
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise IntegrationFailure("integration box must be bounded")
    box = [(float(lo), float(hi)) for lo, hi in box]

    rng = np.random.default_rng(cfg.seed)
    ns = np.asarray(grid, dtype=float)
    log_z = -ns * const
    used_mc = False
    worst_se = 0.0
    # quadrature values by block: equal sub-systems are integrated once
    shared: dict = {}

    for coords in blocks:
        sub_box = [box[i] for i in coords]
        if isinstance(h, MonomialSos):
            hb = MonomialSos(len(coords), tuple(_restrict(live, coords)), sub_box)
            if not hb.terms:
                log_z += sum(math.log(hi - lo) for lo, hi in sub_box)
                continue
        else:
            hb = lambda pts: np.asarray(h(pts), dtype=float)  # one block

        if len(coords) <= QUAD_MAX_DIM:
            if hb not in shared:
                shared[hb] = _quad_block(hb, sub_box, ns)
            vals = shared[hb]
            bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
            if bad.size:
                raise IntegrationFailure(
                    f"quadrature underflow at n={grid[bad[0]]} "
                    f"(block {coords})"
                )
            log_z += np.log(vals)
        else:
            used_mc = True
            vals, se = _mc_block(hb, sub_box, ns, cfg.mc_points, rng)
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                raise IntegrationFailure(
                    f"Monte Carlo mass underflow at n={grid[bad[0]]} "
                    f"(block {coords})"
                )
            worst_se = max(worst_se, *se)
            log_z += np.log(vals)

    logn = np.log(ns)
    loglogn = np.log(logn)
    best = None
    rss_table = []
    for mc in M_CANDIDATES:
        y = log_z - (mc - 1) * loglogn
        design = np.column_stack([np.ones_like(logn), logn])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rss = float(resid @ resid)
        rss_table.append((int(mc), rss))
        if best is None or rss < best[0]:
            best = (rss, int(mc), float(coef[1]), resid)
    _, mult_hat, slope, resid = best
    return LaplaceEstimate(
        lambda_hat=max(0.0, -2.0 * slope),
        mult_hat=mult_hat,
        n_grid=grid,
        residuals=tuple(float(r) for r in resid),
        method="monte_carlo" if used_mc else "quadrature",
        log_z=tuple(float(v) for v in log_z),
        rss_by_mult=tuple(rss_table),
        mc_std_err=worst_se if used_mc else None,
    )
