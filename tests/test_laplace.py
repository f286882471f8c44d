import math

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
from latentforest.laplace import _blocks

GRID7 = tuple(int(round(v)) for v in np.geomspace(1e2, 1e5, 7))


def sos(terms, domain):
    return MonomialSos(dim=len(domain), terms=tuple(terms), domain=tuple(domain))


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
        est = laplace_rlct_estimate(h, n_grid=GRID7)
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
            ((37.3,), [(-500.0, 500.0)], 1e-2),
            pytest.param(
                (37.3, 0.31), [(-500.0, 500.0), (0.0, 1.0)], 1e-2,
                marks=pytest.mark.slow,
            ),
            pytest.param(
                (0.31, 37.3), [(0.0, 1.0), (-500.0, 500.0)], 1e-2,
                marks=pytest.mark.slow,
            ),
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
        with pytest.raises(IntegrationFailure):
            laplace_rlct_estimate(
                sos([((1, 1, 1), 30.0)], [(0.0, 1.0)] * 3), n_grid=GRID7
            )

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

    @pytest.mark.parametrize("points", [0, -5])
    def test_mc_points_validated(self, points):
        with pytest.raises(ValueError, match="mc_points"):
            LaplaceConfig(mc_points=points)

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

    def test_monte_carlo_seed_determinism(self):
        h = sos([((1, 1, 1), 0.1)], [(0.0, 1.0)] * 3)
        cfg = LaplaceConfig(mc_points=10**4, seed=5)
        a = laplace_rlct_estimate(h, n_grid=GRID7, cfg=cfg)
        b = laplace_rlct_estimate(h, n_grid=GRID7, cfg=cfg)
        assert a.log_z == b.log_z
        c = laplace_rlct_estimate(
            h, n_grid=GRID7, cfg=LaplaceConfig(mc_points=10**4, seed=6)
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
