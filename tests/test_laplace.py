import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from latentforest import (
    DEFAULT_N_GRID,
    IntegrationFailure,
    LaplaceConfig,
    LaplaceEstimate,
    ModelParams,
    MonomialSos,
    build_forest,
    covariance,
    edge,
    h_q_monomials,
    laplace_rlct_estimate,
    rlct_monomial_sos,
)
from latentforest import laplace
from latentforest.laplace import (
    _blocks,
    _fold,
    _line,
    _mc_points,
    _Reduced,
    _restrict,
)

GRID7 = tuple(int(round(v)) for v in np.geomspace(1e2, 1e5, 7))


def sos(terms, domain):
    return MonomialSos(dim=len(domain), terms=tuple(terms), domain=tuple(domain))


THREE_STAR = build_forest(
    [("1", False), ("2", False), ("3", False), ("h", True)],
    [("h", "1"), ("h", "2"), ("h", "3")],
)


def three_star_sos(scale=1.0):
    return h_q_monomials(THREE_STAR, scale * np.eye(3))


def mc_form(h):
    """The largest block of h as a callable and its box.

    Callables are never reduced, so a block of three or more
    coordinates stays on the Monte Carlo path in this form.
    """
    coords = max(_blocks(list(h.terms), h.dim), key=len)
    part = sos(_restrict(h.terms, coords), [h.domain[i] for i in coords])
    return (lambda pts: part(pts)), part.domain


def reference_mc_points(box, count, rng):
    """Stratified points built from a meshgrid of cell indices: the
    generator that `_mc_points` replaced, kept as its oracle."""
    d = len(box)
    lo = np.array([b[0] for b in box])
    wid = np.array([b[1] - b[0] for b in box])
    if d <= 3:
        k = max(2, int(round(count ** (1.0 / d))))
        grids = np.meshgrid(*[np.arange(k)] * d, indexing="ij")
        base = np.column_stack([g.ravel() for g in grids]).astype(float)
        u = (base + rng.random(base.shape)) / k
    else:
        u = rng.random((count, d))
    return lo + u * wid


def reference_mc_block(h, box, ns, count, rng):
    """The Monte Carlo loop that `_mc_block` replaced, kept as its oracle:
    every point is weighted at every n, and numpy's mean and std see
    the whole weight vector."""
    vals = h(reference_mc_points(box, count, rng))
    vol = float(np.prod([hi - lo for lo, hi in box]))
    z = np.zeros(len(ns))
    se = np.zeros(len(ns))
    for gi, n in enumerate(ns):
        w = np.exp(-n * vals)
        mean = float(w.mean())
        if mean <= 0.0:
            break
        se[gi] = float(w.std()) / math.sqrt(len(w)) / mean
        z[gi] = vol * mean
    return z, se


def log_z_well(c, lo, hi, n):
    """log of the integral of exp(-n (w - c)^2) over [lo, hi]."""
    r = math.sqrt(n)
    return math.log(
        0.5 * math.sqrt(math.pi / n) * (erf(r * (hi - c)) - erf(r * (lo - c)))
    )


class TestBlocks:
    def test_disjoint_supports_split(self):
        got = _blocks([((1, 1, 0), 0.5), ((0, 0, 1), 0.2)], 3)
        assert got == [[0, 1], [2]]

    def test_chained_supports_merge(self):
        got = _blocks([((1, 1, 0), 0.0), ((0, 1, 1), 0.0)], 3)
        assert got == [[0, 1, 2]]

    def test_no_terms(self):
        assert _blocks([], 2) == [[0], [1]]


class TestRegularModels:
    def test_one_dimensional(self):
        est = laplace_rlct_estimate(
            sos([((1,), 0.3)], [(0.0, 1.0)]), n_grid=GRID7
        )
        assert est.method == "quadrature"
        assert est.mult_hat == 1
        assert est.lambda_hat == pytest.approx(1.0, rel=0.1)

    def test_product_of_independent_blocks(self):
        est = laplace_rlct_estimate(
            sos([((1, 0), 0.5), ((0, 1), 0.25)], [(0.0, 1.0)] * 2),
            n_grid=GRID7,
        )
        assert est.mult_hat == 1
        assert est.lambda_hat == pytest.approx(2.0, rel=0.1)

    def test_three_dimensional(self):
        est = laplace_rlct_estimate(
            sos(
                [((1, 0, 0), 0.4), ((0, 1, 0), 0.5), ((0, 0, 1), 0.6)],
                [(0.0, 1.0)] * 3,
            ),
            n_grid=GRID7,
        )
        assert est.mult_hat == 1
        assert est.lambda_hat == pytest.approx(3.0, rel=0.1)


class TestSingularModels:
    def test_hyperbola_level_set_2d(self):
        # zero set w1 w2 = 1/4 is a smooth curve, so lambda = 1
        h = sos([((1, 1), 0.25)], [(0.0, 1.0)] * 2)
        assert rlct_monomial_sos(h).as_tuple()[0] == 1
        est = laplace_rlct_estimate(h, n_grid=GRID7)
        assert est.method == "quadrature"
        assert est.lambda_hat == pytest.approx(1.0, rel=0.15)

    def test_surface_level_set_3d_monte_carlo(self):
        h = sos([((1, 1, 1), 0.1)], [(0.0, 1.0)] * 3)
        r = rlct_monomial_sos(h)
        assert (float(r.lam), r.mult) == (1.0, 1)
        # the monomial form is reduced to a 2-D quadrature
        est = laplace_rlct_estimate(h, n_grid=GRID7)
        assert est.method == "quadrature"
        assert est.lambda_hat == pytest.approx(1.0, rel=0.2)
        fn, box = mc_form(h)
        est = laplace_rlct_estimate(fn, domain=box, n_grid=GRID7)
        assert est.method == "monte_carlo"
        assert est.mc_std_err is not None
        assert est.lambda_hat == pytest.approx(1.0, rel=0.2)

    def test_three_star_phase_function(self):
        star = build_forest(
            [("1", False), ("2", False), ("3", False), ("h", True)],
            [("h", "1"), ("h", "2"), ("h", "3")],
        )
        est = laplace_rlct_estimate(h_q_monomials(star, np.eye(3)))
        # variances give three regular blocks, the edge block is the
        # sum of the three pairwise products squared: 3 + 3/2
        assert est.lambda_hat == pytest.approx(4.5, rel=0.2)

    def test_three_star_scale_invariant(self, three_star):
        # scaling the target covariance moves the zero set but not its
        # threshold; narrow large-n peaks must not be missed
        lams = [
            laplace_rlct_estimate(
                h_q_monomials(three_star, s * np.eye(3))
            ).lambda_hat
            for s in (1.0, 3.7, 37.3)
        ]
        assert lams == pytest.approx([lams[0]] * 3, abs=1e-9)

    def test_flat_function_clamps_to_zero(self):
        est = laplace_rlct_estimate(sos([], [(0.0, 1.0)]), n_grid=GRID7)
        assert est.lambda_hat <= 1e-10
        assert est.mult_hat == 1

    def test_constant_offset_drives_lambda_up(self):
        # H >= 1 everywhere: the zero set is empty and the fitted decay
        # rate explodes instead of pretending to be a learning rate
        est = laplace_rlct_estimate(
            sos([((0,), 0.0), ((1,), 0.5)], [(0.0, 1.0)]),
            n_grid=(10, 20, 40, 80),
        )
        assert est.lambda_hat > 20


class TestOffCentreWells:
    """Separable wells (w - c)^2 against the erf closed form.

    The minima sit far from the box centre and, on [-500, 500], many
    large-n peak widths from the nearest scan grid point, so these pin
    the quadrature break points to the right place in each coordinate.
    """

    @pytest.mark.parametrize(
        "centre, box, tol",
        [
            ((37.3,), [(-50.0, 50.0)], 1e-9),
            ((37.3,), [(-500.0, 500.0)], 1e-9),
            ((37.3, 0.31), [(-500.0, 500.0), (0.0, 1.0)], 1e-11),
            ((0.31, 37.3), [(0.0, 1.0), (-500.0, 500.0)], 1e-11),
        ],
        ids=["1d-narrow", "1d-wide", "2d-wide-x", "2d-wide-y"],
    )
    def test_matches_erf(self, centre, box, tol):
        c = np.array(centre)
        est = laplace_rlct_estimate(
            lambda pts: ((pts - c) ** 2).sum(axis=1), domain=box
        )
        want = [
            sum(log_z_well(ci, lo, hi, n) for ci, (lo, hi) in zip(c, box))
            for n in DEFAULT_N_GRID
        ]
        assert np.allclose(est.log_z, want, rtol=0, atol=tol)
        assert est.lambda_hat == pytest.approx(len(box), abs=1e-3)


class TestFailurePaths:
    def test_dimension_cap(self):
        d = 11
        terms = []
        for i in range(d):
            u = [0] * d
            u[i] = 1
            terms.append((tuple(u), 0.5))
        with pytest.raises(IntegrationFailure):
            laplace_rlct_estimate(sos(terms, [(0.0, 1.0)] * d))

    def test_unbounded_box(self):
        with pytest.raises(IntegrationFailure):
            laplace_rlct_estimate(
                lambda pts: pts[:, 0] ** 2,
                domain=[(0.0, math.inf)],
                n_grid=GRID7,
            )

    def test_callable_needs_domain(self):
        with pytest.raises(ValueError):
            laplace_rlct_estimate(lambda pts: pts[:, 0] ** 2, n_grid=GRID7)

    def test_quadrature_underflow(self):
        # minimum of H on the box is 16, so exp(-n H) vanishes
        with pytest.raises(IntegrationFailure):
            laplace_rlct_estimate(
                sos([((1,), 5.0)], [(0.0, 1.0)]), n_grid=GRID7
            )

    def test_monte_carlo_underflow(self):
        h = sos([((1, 1, 1), 30.0)], [(0.0, 1.0)] * 3)
        fn, box = mc_form(h)
        match = r"Monte Carlo mass underflow at n=100 \(block \[0, 1, 2\]\)"
        with pytest.raises(IntegrationFailure, match=match):
            laplace_rlct_estimate(fn, domain=box, n_grid=GRID7)
        match = r"quadrature underflow at n=100 \(block \[0, 1, 2\]\)"
        with pytest.raises(IntegrationFailure, match=match):
            laplace_rlct_estimate(h, n_grid=GRID7)

    def test_grid_validation(self):
        h = sos([((1,), 0.3)], [(0.0, 1.0)])
        with pytest.raises(ValueError):
            laplace_rlct_estimate(h, n_grid=(100, 200))
        with pytest.raises(ValueError):
            laplace_rlct_estimate(h, n_grid=(100, 100, 200))
        with pytest.raises(ValueError):
            laplace_rlct_estimate(h, n_grid=(300, 200, 100))
        with pytest.raises(ValueError):
            laplace_rlct_estimate(h, n_grid=(1, 5, 10))
        for grid in [(100.5, 1000, 10000), ("100", "1000", "10000"),
                     (2.9, 10, 100), (True, 10, 100), (100, True, 1000)]:
            with pytest.raises(ValueError, match="n grid"):
                laplace_rlct_estimate(h, n_grid=grid)
        got = laplace_rlct_estimate(h, n_grid=np.array([100, 1000, 10000]))
        assert got.n_grid == (100, 1000, 10000)
        assert all(type(n) is int for n in got.n_grid)

    @pytest.mark.parametrize(
        "d, route", [(2, "quadrature"), (3, "Monte Carlo mass")]
    )
    def test_nan_values_raise_at_first_n(self, d, route):
        # NaN where x0 > 0.9; the rest of the box has mass at every n
        def fn(pts):
            return np.where(pts[:, 0] > 0.9, np.nan, (pts ** 2).sum(axis=1))

        block = ", ".join(map(str, range(d)))
        match = rf"^{route} underflow at n=100 \(block \[{block}\]\)$"
        with pytest.raises(IntegrationFailure, match=match):
            laplace_rlct_estimate(
                fn, [(0.0, 1.0)] * d, n_grid=GRID7,
                cfg=LaplaceConfig(mc_points=10**4),
            )

    @pytest.mark.parametrize("points", [0, -5, 2.5, True])
    def test_mc_points_validated(self, points):
        with pytest.raises(ValueError, match="mc_points"):
            LaplaceConfig(mc_points=points)

    @pytest.mark.parametrize("seed", [1.5, -1, False])
    def test_seed_validated(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            LaplaceConfig(seed=seed)

    @pytest.mark.parametrize("windows", [1, 3])
    def test_monomial_sos_keeps_its_domain(self, windows):
        h = sos([((1, 1), 0.0)], [(0.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="its own domain"):
            laplace_rlct_estimate(h, domain=[(0.0, 1.0)] * windows)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LaplaceEstimate(
                lambda_hat=-1.0,
                mult_hat=1,
                n_grid=(2, 3, 4),
                residuals=(),
                method="quadrature",
                log_z=(),
                rss_by_mult=((1, 0.0),),
            )


class TestBookkeeping:
    """What the pipeline adds to log Z_n besides its integrated blocks."""

    HYPERBOLA = sos([((1, 1), 0.25)], [(-1.0, 1.0)] * 2)

    @pytest.mark.parametrize("c", [0.0, 0.7, 1.0, 2.5])
    def test_constant_term(self, c):
        base = self.HYPERBOLA
        got = laplace_rlct_estimate(sos([*base.terms, ((0, 0), c)], base.domain))
        n = np.asarray(DEFAULT_N_GRID, dtype=float)
        want = np.array(laplace_rlct_estimate(base).log_z) - n * (1.0 - c) ** 2
        assert np.allclose(got.log_z, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("window", [(0.0, 1.0), (-2.0, 3.0), (0.5, 0.75)])
    def test_untouched_coordinate(self, window):
        got = laplace_rlct_estimate(
            sos([((1, 0, 1), 0.25)], [(-1.0, 1.0), window, (-1.0, 1.0)])
        )
        want = (np.array(laplace_rlct_estimate(self.HYPERBOLA).log_z)
                + math.log(window[1] - window[0]))
        assert np.allclose(got.log_z, want, rtol=1e-12, atol=0)


class TestInterfaces:
    def test_callable_agrees_with_terms(self):
        h = sos([((1,), 0.3)], [(0.0, 1.0)])
        a = laplace_rlct_estimate(h, n_grid=GRID7)
        b = laplace_rlct_estimate(
            lambda pts: (pts[:, 0] - 0.3) ** 2,
            domain=[(0.0, 1.0)],
            n_grid=GRID7,
        )
        assert a.lambda_hat == pytest.approx(b.lambda_hat, rel=1e-6)
        assert np.allclose(a.log_z, b.log_z, atol=1e-8)

    def test_domain_is_read_once(self):
        # a generator of windows is read once, into the box
        def fn(pts):
            return (pts[:, 0] * pts[:, 1] - 0.2) ** 2

        box = [(0.0, 1.0), (0.0, 2.0)]
        want = laplace_rlct_estimate(fn, box, n_grid=GRID7)
        assert laplace_rlct_estimate(fn, iter(box), n_grid=GRID7) == want

    def test_monte_carlo_seed_determinism(self):
        h, box = mc_form(sos([((1, 1, 1), 0.1)], [(0.0, 1.0)] * 3))
        cfg = LaplaceConfig(mc_points=10**4, seed=5)
        a = laplace_rlct_estimate(h, box, n_grid=GRID7, cfg=cfg)
        b = laplace_rlct_estimate(h, box, n_grid=GRID7, cfg=cfg)
        assert a.log_z == b.log_z
        c = laplace_rlct_estimate(
            h, box, n_grid=GRID7, cfg=LaplaceConfig(mc_points=10**4, seed=6)
        )
        assert a.log_z != c.log_z

    def test_default_grid(self):
        assert len(DEFAULT_N_GRID) == 13
        assert DEFAULT_N_GRID[0] == 100
        assert DEFAULT_N_GRID[-1] == 10**6
        assert list(DEFAULT_N_GRID) == sorted(set(DEFAULT_N_GRID))

    def test_estimate_fields(self):
        est = laplace_rlct_estimate(
            sos([((1,), 0.3)], [(0.0, 1.0)]), n_grid=GRID7
        )
        assert est.n_grid == GRID7
        assert len(est.log_z) == len(GRID7)
        assert len(est.residuals) == len(GRID7)
        assert dict(est.rss_by_mult).keys() == {1, 2, 3, 4}
        assert est.mc_std_err is None
        assert est.stopped_short is False


class TestStoppedShort:
    """``stopped_short`` says when an adaptive rule ran out of budget."""

    def test_noise_stops_short(self):
        # uniform noise never meets the panel tolerance
        rng = np.random.default_rng(0)
        est = laplace_rlct_estimate(
            lambda pts: rng.uniform(0.0, 0.01, len(pts)),
            domain=[(0.0, 1.0)] * 2,
        )
        assert est.method == "quadrature"
        assert est.stopped_short

    @pytest.mark.parametrize(
        "name", ["three-star", "square", "two-leaf-path", "2d-wide-x"]
    )
    def test_converged_rules(self, name):
        path = build_forest(
            [("1", False), ("2", False), ("a", True)],
            [("a", "1"), ("a", "2")],
        )
        centre = np.array((37.3, 0.31))
        h, box = {
            "three-star": (three_star_sos(1.0), None),
            "square": (sos([((1, 1), 0.0)], [(0.0, 1.0)] * 2), None),
            "two-leaf-path": (h_q_monomials(path, np.eye(2)), None),
            # TestOffCentreWells[2d-wide-x]
            "2d-wide-x": (
                lambda pts: ((pts - centre) ** 2).sum(axis=1),
                [(-500.0, 500.0), (0.0, 1.0)],
            ),
        }[name]
        assert not laplace_rlct_estimate(h, box).stopped_short

    def test_monte_carlo_never_stops_short(self):
        fn, box = mc_form(sos([((1, 1, 1), 0.1)], [(0.0, 1.0)] * 3))
        est = laplace_rlct_estimate(
            fn, box, n_grid=GRID7, cfg=LaplaceConfig(mc_points=10**4)
        )
        assert est.method == "monte_carlo"
        assert not est.stopped_short


class TestMonteCarloOracle:
    """The live-point Monte Carlo pass against the loop it replaced."""

    @pytest.mark.parametrize(
        "box, count",
        [
            ([(0.0, 1.0)], 1000),
            ([(0.0, 2.0), (-1.0, 1.0)], 10**4),
            ([(-1.0, 1.0), (0.0, 3.5), (-2.0, 0.5)], 10**6),
            ([(0.0, 1.0), (-0.5, 0.5), (1.0, 4.0), (-3.0, -1.0)], 10**4),
        ],
        ids=["d1", "d2", "d3", "d4"],
    )
    def test_points_match_reference(self, box, count):
        got = _mc_points(box, count, np.random.default_rng(3))
        want = reference_mc_points(box, count, np.random.default_rng(3))
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "h, box",
        [
            mc_form(three_star_sos(1.0)),
            mc_form(three_star_sos(37.3)),
            mc_form(sos([((1, 1, 1), 0.1)], [(0.0, 1.0)] * 3)),
            (
                sos(
                    [((1, 1, 0, 0), 0.2), ((0, 1, 1, 0), 0.3),
                     ((0, 0, 1, 1), 0.1)],
                    [(0.0, 1.0)] * 4,
                ),
                None,
            ),
        ],
        ids=["star-1", "star-37.3", "xyz-0.1", "chain-4d"],
    )
    def test_estimate_matches_reference(self, h, box, monkeypatch):
        got = laplace_rlct_estimate(h, box)
        monkeypatch.setattr(laplace, "_mc_block", reference_mc_block)
        want = laplace_rlct_estimate(h, box)
        assert got.method == want.method == "monte_carlo"
        assert np.allclose(got.log_z, want.log_z, rtol=0, atol=1e-14)
        assert got.mc_std_err == pytest.approx(want.mc_std_err, rel=1e-12)
        assert got.lambda_hat == want.lambda_hat
        assert got.mult_hat == want.mult_hat


class TestSharedBlocks:
    """Blocks with equal terms and boxes are integrated once."""

    @pytest.mark.parametrize(
        "h, quad_calls",
        [
            (
                sos(
                    [((1, 0, 0), 0.0), ((0, 1, 0), 0.0), ((0, 0, 1), 0.0)],
                    [(-1.0, 1.0)] * 3,
                ),
                1,
            ),
            # the three equal variance wells, then the reduced edge block
            (three_star_sos(1.0), 2),
            # (-1, 1) folds to (0, 1), the window of the middle block
            (
                sos(
                    [((1, 0, 0), 0.0), ((0, 1, 0), 0.0), ((0, 0, 1), 0.0)],
                    [(-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)],
                ),
                1,
            ),
            (
                sos(
                    [((1, 0, 0), 0.0), ((0, 1, 0), 0.0), ((0, 0, 1), 0.0)],
                    [(-1.0, 1.0), (0.0, 2.0), (-1.0, 1.0)],
                ),
                2,
            ),
        ],
        ids=[
            "regular-d3", "three-star", "regular-d3-two-boxes",
            "regular-d3-boxes-apart",
        ],
    )
    def test_equal_blocks_integrated_once(self, h, quad_calls, monkeypatch):
        calls = []
        quad = laplace._quad_block

        def spy(*args):
            calls.append(args)
            return quad(*args)

        monkeypatch.setattr(laplace, "_quad_block", spy)
        got = laplace_rlct_estimate(h).log_z
        assert len(calls) == quad_calls

        # the unshared computation: one estimate per block, summed in
        # block order (no term is constant, so nothing else enters)
        assert all(any(u) for u, _ in h.terms)
        want = np.zeros(len(DEFAULT_N_GRID))
        for coords in _blocks(list(h.terms), h.dim):
            part = sos(
                _restrict(h.terms, coords), [h.domain[i] for i in coords]
            )
            want += laplace_rlct_estimate(part).log_z
        assert got == tuple(want)


def mp_quad_exp(n, phase, lo, hi, centres, scales):
    """mpmath.quad of exp(-n phase(x)) over [lo, hi] at 30 digits, split
    at each centre +- each scale times powers of 2, so every peak and
    every steep end lies in short panels."""
    with mpmath.workdps(30):
        n, lo, hi = mpmath.mpf(n), mpmath.mpf(lo), mpmath.mpf(hi)
        cuts = {lo, hi}
        for centre in centres:
            if lo < centre < hi:
                cuts.add(mpmath.mpf(centre))
            for sc in scales:
                for k in range(-6, 90):
                    for p in (centre - sc * 2**k, centre + sc * 2**k):
                        if lo < p < hi:
                            cuts.add(mpmath.mpf(p))
        return mpmath.quad(lambda x: mpmath.exp(-n * phase(x)), sorted(cuts))


@functools.lru_cache(maxsize=None)
def mp_window(n, h0, a, slope, length):
    """mpmath.quad of exp(-n (h0 + slope u + a u^2)) over [0, length]."""
    scales = [1 / math.sqrt(n * a)] if a else []
    scales += [1 / (n * slope)] if slope else []
    return mp_quad_exp(
        n, lambda u: h0 + slope * u + a * u * u, 0.0, length, [0.0], scales
    )


LINE_GRID = np.geomspace(1e2, 1e12, 6)


class TestClosedFormLine:
    """The closed-form line integrals against mpmath.quad, to 1e-12.

    ``_line`` is exp(-n h0) times the integral of exp(-n (slope u +
    A u^2)) over [0, hi_len], plus that of exp(-n A u^2) over
    [0, lo_len], for each n of the grid.
    """

    @pytest.mark.parametrize("big_a", [1.0, 3e-4, 1e-12, 1e-30, 0.0])
    @pytest.mark.parametrize(
        "slope",
        # 1e-12 and 1e-6 put n * slope, the A -> 0 limit's rate, at order
        # 1 on the grid
        [0.0, 1e-12, 1e-6, 1e-2, 1.0, 37.0],
    )
    def test_line_matches_mpmath(self, big_a, slope):
        # one call over rows of every kind, so each row also goes through
        # the masks that pick out the others
        rows = [
            (h0, big_a, slope, hi_len, lo_len)
            for hi_len, lo_len, h0 in [
                (1.0, 0.0, 0.0), (1e-3, 0.0, 0.0), (250.0, 0.0, 1e-9),
                (1.0, 0.4, 0.0), (250.0, 0.4, 1e-9), (1.0, 1.0, 0.0),
            ]
            if not (slope and lo_len)  # a second window has no slope
        ] + [(0.0, 1.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0, 0.0)]
        got = _line(*map(np.array, zip(*rows)), LINE_GRID)
        for (h0, a, sl, hi_len, lo_len), vals in zip(rows, got):
            for g, n in zip(vals, LINE_GRID):
                if n * h0 >= 700:
                    assert g == 0.0  # below exp(-700) counts as 0.0
                    continue
                want = mp_window(n, h0, a, sl, hi_len)
                if lo_len:
                    want += mp_window(n, h0, a, 0.0, lo_len)
                assert abs(g / want - 1) <= 1e-12, (h0, a, sl, hi_len, lo_len, n)

    @pytest.mark.parametrize(
        "m, c, d, window",
        [
            (1.0, 0.3, 0.95, (0.0, 1.0)),  # vertex inside the window
            (1.0, -0.5, 1.0, (0.0, 1.0)),  # window above the vertex
            (1.0, 1.7, 1.0, (0.0, 1.0)),  # window below the vertex
            (2.5, 0.2, 2.4999, (-3.0, 0.05)),  # vertex just outside
            (1e-3, 2e-3, 1e-3, (0.0, 1.0)),  # far tail: vertex at 2
            (1e-3, 1e-3, 1e-3, (-1.0, 1.0)),  # vertex at the end
        ],
        ids=["straddle", "above", "below", "edge", "far-tail", "at-end"],
    )
    def test_reduced_matches_mpmath(self, m, c, d, window):
        # H(y, x) = (y x - c)^2 + (y - d)^2, integrated over x at y = m
        h = sos([((1, 1), c), ((1, 0), d)], [(-5.0, 5.0), window])
        got = _Reduced(h, 1)(np.array([[m]]), LINE_GRID)[0]
        rest = (m - d) ** 2
        lo, hi = window
        low = rest if lo < c / m < hi else min(
            (m * x - c) ** 2 + rest for x in window
        )
        for g, n in zip(got, LINE_GRID):
            if n * low >= 700:
                assert g == 0.0  # below exp(-700) counts as 0.0
                continue
            # the peak's width, and the decay length at each window end
            slopes = [abs(2 * m * (m * x - c)) for x in window]
            want = mp_quad_exp(
                n, lambda x: (m * x - c) ** 2 + rest, *window,
                [c / m, *window],
                [1 / (m * math.sqrt(n))] + [1 / (n * s) for s in slopes if s],
            )
            assert abs(g / want - 1) <= 1e-12, n


class TestReducedBlocks:
    """Blocks that the closed form brings down to one coordinate."""

    # log_z of the code at commit 881f72a, whose scipy quad_vec rule
    # integrated these over the whole 2-D box (the hyperbola on GRID7,
    # the others on the default grid)
    PARENT_LOG_Z = {
        "square": (
            -1.2342015798446788, -1.5067071754467167, -1.7915886366867049,
            -2.084989621594275, -2.3856953192518717, -2.6929576902823458,
            -3.0055233416378115, -3.3228475083171976, -3.6443258858910976,
            -3.9694495096154334, -4.297822169340728, -4.629104568179394,
            -4.96300345060689,
        ),
        "two-leaf-path": (
            -3.30834751886348, -4.346320956605089, -5.40044894194367,
            -6.461720653607122, -7.5297529299989145, -8.604834030147437,
            -9.684839466644704, -10.769675895839342, -11.85870114528299,
            -12.951350727616365, -14.047249574750674, -15.1460627661335,
            -16.247489761601912,
        ),
        "hyperbola": (
            -1.3707379739723562, -1.9694050324706682, -2.551961715077751,
            -3.1295652120062045, -3.705882138622476, -4.2817295146694505,
            -4.857434672634003,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PARENT_LOG_Z))
    def test_matches_parent_quadrature(self, name):
        path = build_forest(
            [("1", False), ("2", False), ("a", True)],
            [("a", "1"), ("a", "2")],
        )
        h, grid = {
            "square": (sos([((1, 1), 0.0)], [(0.0, 1.0)] * 2), None),
            "two-leaf-path": (h_q_monomials(path, np.eye(2)), None),
            "hyperbola": (sos([((1, 1), 0.25)], [(0.0, 1.0)] * 2), GRID7),
        }[name]
        est = laplace_rlct_estimate(h, n_grid=grid)
        assert est.method == "quadrature"
        assert np.allclose(est.log_z, self.PARENT_LOG_Z[name], rtol=0, atol=1e-9)

    def test_three_star_without_monte_carlo(self):
        h = three_star_sos(1.0)
        ests = [
            laplace_rlct_estimate(h, cfg=LaplaceConfig(seed=s))
            for s in (0, 1, 7)
        ]
        for est in ests:
            assert est.method == "quadrature"
            assert est.mc_std_err is None
            assert est.log_z == ests[0].log_z


def star_edge_block(q):
    """The edge block of the three-star's H_q, on [-1, 1]^3."""
    h = h_q_monomials(THREE_STAR, q)
    return sos(_restrict(h.terms, [3, 4, 5]), h.domain[3:])


# a three-star covariance with every pair correlated
STAR_Q = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.25], [0.2, 0.25, 1.0]])


class TestFold:
    """Sign flips that leave H and the box unchanged are folded away.

    The oracle is the unfolded integral: ``_fold`` patched to return no
    coordinates.
    """

    @pytest.mark.parametrize(
        "h, want",
        [
            # at identity q every edge term has c = 0
            (star_edge_block(np.eye(3)), [0, 1, 2]),
            # only the joint flip of w1 and w2 keeps w1 w2 - rho
            (sos([((1, 1), 0.4)], [(-1.0, 1.0)] * 2), [0]),
            (star_edge_block(STAR_Q), [0]),
            # no window is symmetric
            (
                sos(
                    [((1, 1, 0, 0), 0.2), ((0, 1, 1, 0), 0.3),
                     ((0, 0, 1, 1), 0.1)],
                    [(0.0, 1.0)] * 4,
                ),
                [],
            ),
            # an even exponent: (x^2 - 1)^2 is even in x
            (sos([((2,), 1.0)], [(-2.0, 2.0)]), [0]),
            (sos([((1,), 0.0)], [(-1.0, 2.0)]), []),
            # x y = 1/4 pins the joint sign; z^2 is even
            (
                sos([((1, 1, 0), 0.25), ((0, 1, 2), 0.0)],
                    [(-1.0, 1.0)] * 3),
                [0, 2],
            ),
        ],
        ids=[
            "star-identity", "product-pair", "star-q", "chain-4d",
            "even-power", "asymmetric", "pinned-pair",
        ],
    )
    def test_folded_coordinates(self, h, want):
        assert _fold(h) == want

    @pytest.mark.parametrize(
        "name",
        [
            "star-identity", "star-q", "product-square", "hyperbola",
            "two-leaf-path", "squares-one",
        ],
    )
    def test_matches_unfolded_integral(self, name, monkeypatch):
        path = build_forest(
            [("1", False), ("2", False), ("a", True)],
            [("a", "1"), ("a", "2")],
        )
        h = {
            "star-identity": three_star_sos(1.0),
            "star-q": h_q_monomials(THREE_STAR, STAR_Q),
            "product-square": sos([((1, 1), 0.0)], [(-1.0, 1.0)] * 2),
            "hyperbola": sos([((1, 1), 0.25)], [(-1.0, 1.0)] * 2),
            "two-leaf-path": h_q_monomials(path, np.eye(2)),
            "squares-one": sos(
                [(tuple(2 * (j == i) for j in range(3)), 1.0)
                 for i in range(3)],
                [(-2.0, 2.0)] * 3,
            ),
        }[name]
        assert any(_fold(sos(_restrict(h.terms, c), [h.domain[i] for i in c]))
                   for c in _blocks(list(h.terms), h.dim))
        got = laplace_rlct_estimate(h)
        monkeypatch.setattr(laplace, "_fold", lambda h: [])
        want = laplace_rlct_estimate(h)
        assert got.method == want.method == "quadrature"
        assert np.allclose(got.log_z, want.log_z, rtol=1e-9, atol=0)
        assert got.mult_hat == want.mult_hat

    def test_star_edge_block_folded_window(self, monkeypatch):
        windows = []
        quad = laplace._quad_block

        def spy(h, box, ns):
            windows.append(list(h.domain))
            return quad(h, box, ns)

        monkeypatch.setattr(laplace, "_quad_block", spy)
        laplace_rlct_estimate(three_star_sos(1.0))
        assert windows[-1] == [(0.0, 1.0)] * 3
