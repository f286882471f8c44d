import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentforest import (
    EmptyFiber,
    EmptyZeroSet,
    MonomialSos,
    NoInteriorSolution,
    Rlct,
    TooLarge,
    rlct_monomial_sos,
    split_parts,
)
from latentforest import engine

F = Fraction


def mono(dim, terms, domain=None):
    return MonomialSos(
        dim=dim,
        terms=terms,
        domain=domain if domain is not None else [(-1.0, 1.0)] * dim,
    )


class TestMonomialSos:
    def test_evaluation(self):
        m = mono(2, [((1, 1), 0.5), ((2, 0), 0.0)])
        w = (0.5, 0.25)
        assert m(w) == pytest.approx((0.125 - 0.5) ** 2 + 0.25**2)

    def test_rows_match_single_points(self):
        m = mono(
            3,
            [((1, 1, 0), 0.5), ((2, 0, 3), -0.2), ((0, 0, 0), 0.3),
             ((0, 1, 1), 0.0)],
        )
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(50, 3))
        got = m(pts)
        assert got.shape == (50,)
        assert [float(v) for v in got] == [m(p) for p in pts]
        assert isinstance(m(pts[0]), float)
        assert m(pts[0]) == pytest.approx(
            (pts[0, 0] * pts[0, 1] - 0.5) ** 2
            + (pts[0, 0] ** 2 * pts[0, 2] ** 3 + 0.2) ** 2
            + 0.7**2
            + (pts[0, 1] * pts[0, 2]) ** 2
        )
        assert np.array_equal(mono(3, [])(pts), np.zeros(50))
        with pytest.raises(ValueError):
            m(pts[:, :2])

    def test_validation(self):
        with pytest.raises(ValueError):
            mono(2, [((1,), 0.0)])
        with pytest.raises(ValueError):
            mono(1, [((-1,), 0.0)])
        with pytest.raises(ValueError):
            MonomialSos(dim=1, terms=[], domain=[(1.0, 0.0)])

    @pytest.mark.parametrize(
        "terms, domain",
        [
            ([((1,), float("inf"))], [(-1, 1)]),
            ([((1,), float("nan"))], [(-1, 1)]),
            ([((1,), 10**400)], [(-1, 1)]),
            ([((1,), 0.0)], [(-1, 10**400)]),
        ],
    )
    def test_numbers_beyond_float_range_rejected(self, terms, domain):
        with pytest.raises(ValueError):
            MonomialSos(dim=1, terms=terms, domain=domain)

    def test_json_round_trip(self):
        m = MonomialSos(
            dim=2,
            terms=[((1, 1), 1.0), ((0, 2), 0.0)],
            domain=[(0.0, float("inf")), (-2.0, 2.0)],
        )
        again = MonomialSos.from_json(m.to_json())
        assert again == m
        blob = json.loads(m.to_json())
        assert blob["domain"][0] == [0.0, None]
        assert blob["terms"][0] == {"u": [1, 1], "c": 1.0}

    def test_str_format(self):
        assert str(Rlct(F(13, 2), 1)) == "lambda=13/2 mult=1"
        assert str(Rlct(F(2), 1)) == "lambda=2 mult=1"


class TestSplitParts:
    def test_example_system(self):
        # (w1 w2 - 1)^2 + (w1 w3)^2 + (w2 w3)^2 + (w3 w4)^2
        m = mono(
            4,
            [
                ((1, 1, 0, 0), 1.0),
                ((1, 0, 1, 0), 0.0),
                ((0, 1, 1, 0), 0.0),
                ((0, 0, 1, 1), 0.0),
            ],
            [(-2.0, 2.0)] * 4,
        )
        s = split_parts(m)
        assert s.support == (0, 1)
        assert s.complement == (2, 3)
        assert s.nonzero_terms == (((1, 1, 0, 0), 1.0),)
        assert s.zero_terms == ((1, 0), (1, 0), (1, 1))

    def test_flagged_zero_term(self):
        # w2^2 vanishes only at w2 = 0, but (w2 - 1)^2 forces w2 = 1
        m = mono(2, [((0, 1), 1.0), ((0, 2), 0.0)])
        with pytest.raises(EmptyZeroSet):
            split_parts(m)

    def test_all_zero(self):
        s = split_parts(mono(2, [((1, 0), 0.0), ((1, 1), 0.0)]))
        assert s.nonzero_terms == ()
        assert s.support == ()
        assert s.complement == (0, 1)
        assert s.zero_terms == ((1, 0), (1, 1))


class TestGoldenValues:
    def test_single_square(self):
        assert rlct_monomial_sos(mono(1, [((1,), 0.0)])).as_tuple() == (
            F(1),
            1,
        )

    def test_product_square(self):
        m = mono(2, [((1, 1), 0.0)], [(0.0, 1.0)] * 2)
        assert rlct_monomial_sos(m).as_tuple() == (F(1), 2)

    def test_regular_models(self):
        for d in range(1, 7):
            terms = [
                (tuple(1 if j == i else 0 for j in range(d)), 0.0)
                for i in range(d)
            ]
            m = mono(d, terms)
            assert rlct_monomial_sos(m).as_tuple() == (F(d), 1)

    def test_example_system(self):
        m = mono(
            4,
            [
                ((1, 1, 0, 0), 1.0),
                ((1, 0, 1, 0), 0.0),
                ((0, 1, 1, 0), 0.0),
                ((0, 0, 1, 1), 0.0),
            ],
            [(-2.0, 2.0)] * 4,
        )
        assert rlct_monomial_sos(m).as_tuple() == (F(2), 1)

    def test_disjoint_blocks_add(self):
        # (w1 w2)^2 on [0,1]^2 gives (1,2); two disjoint copies give
        # lambda 2 and mult 1 + (2-1) + (2-1) = 3
        m = mono(
            4,
            [((1, 1, 0, 0), 0.0), ((0, 0, 1, 1), 0.0)],
            [(0.0, 1.0)] * 4,
        )
        assert rlct_monomial_sos(m).as_tuple() == (F(2), 3)

    def test_no_terms(self):
        assert rlct_monomial_sos(mono(2, [])).as_tuple() == (F(0), 1)

    def test_no_zero_terms(self):
        # (w - 1/2)^2: positive dimensional fiber, lambda = rank = 1
        m = mono(1, [((1,), 0.5)])
        assert rlct_monomial_sos(m).as_tuple() == (F(1), 1)

    def test_three_star_paths(self):
        # path monomials of the 3-star: t = 2/3, lambda = 3/2
        m = mono(3, [((1, 1, 0), 0.0), ((1, 0, 1), 0.0), ((0, 1, 1), 0.0)])
        assert rlct_monomial_sos(m).as_tuple() == (F(3, 2), 1)


class TestNonzeroPart:
    def test_rank_counts(self):
        # (w1 w2 - 1/2)^2: one equation, rank 1
        m = mono(2, [((1, 1), 0.5)])
        assert rlct_monomial_sos(m).as_tuple() == (F(1), 1)
        # add (w1 - 1/2)^2: rank 2, interior fiber at (1/2, 1/2)
        m2 = mono(2, [((1, 1), 0.25), ((1, 0), 0.5)])
        assert rlct_monomial_sos(m2).as_tuple() == (F(2), 1)

    def test_sign_infeasible(self):
        # w^2 = -1 impossible on (0, 1]: no orthant matches
        m = mono(1, [((2,), -1.0)], [(0.0, 1.0)])
        with pytest.raises(EmptyFiber):
            rlct_monomial_sos(m)

    def test_magnitude_infeasible(self):
        # w = 1/2 and w = 1/4 cannot both hold
        m = mono(1, [((1,), 0.5), ((1,), 0.25)])
        with pytest.raises(EmptyFiber):
            rlct_monomial_sos(m)

    def test_fiber_outside_domain(self):
        # w = 2 needed but domain is [0, 1]
        m = mono(1, [((1,), 2.0)], [(0.0, 1.0)])
        with pytest.raises((NoInteriorSolution, EmptyFiber)):
            rlct_monomial_sos(m)

    def test_boundary_solution_flagged(self):
        # w = 1 sits exactly on the domain boundary
        m = mono(1, [((1,), 1.0)], [(0.0, 1.0)])
        with pytest.raises(NoInteriorSolution):
            rlct_monomial_sos(m)

    def test_negative_constant_orthant(self):
        # w = -1/2 has an interior solution on [-1, 1]
        m = mono(1, [((1,), -0.5)])
        assert rlct_monomial_sos(m).as_tuple() == (F(1), 1)


def count_lps(monkeypatch) -> list:
    """The list that each later ``engine.linprog`` call appends to."""
    calls = []
    linprog = engine.linprog

    def spy(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(engine, "linprog", spy)
    return calls


class TestSignOrthants:
    """Hand-derived cases for each branch of the per-orthant check."""

    def codim(self, dim, terms, domain):
        m = mono(dim, terms, domain)
        return engine.nonzero_codim(split_parts(m), m.domain)

    def test_forced_negative_sign_with_lower_bound(self):
        # w = -1/2 on (-1, -1/10): |w| lies in (1/10, 1)
        assert self.codim(1, [((1,), -0.5)], [(-1.0, -0.1)]) == 1

    def test_positive_sign_with_lower_bound(self):
        # w = 1/2 on (1/10, 1): |w| lies in (1/10, 1)
        assert self.codim(1, [((1,), 0.5)], [(0.1, 1.0)]) == 1

    @pytest.mark.parametrize(
        "c, domain", [(-0.5, (0.0, 1.0)), (0.5, (-1.0, 0.0))],
        ids=["negative-on-positive-box", "positive-on-negative-box"],
    )
    def test_impossible_sign(self, c, domain, monkeypatch):
        # the one orthant has no room, so no LP runs
        calls = count_lps(monkeypatch)
        with pytest.raises(EmptyFiber, match="misses the domain"):
            self.codim(1, [((1,), c)], [domain])
        assert calls == []

    @pytest.mark.parametrize("c, want", [(-0.25, 2), (0.25, None)])
    def test_gf2_elimination(self, c, want):
        # w1 = -1/2 pivots on w1; w1 w2 = c reduces to the sign of w2,
        # which is positive for c < 0 and negative (off the box) for c > 0
        terms = [((1, 0), -0.5), ((1, 1), c)]
        domain = [(-1.0, 1.0), (0.0, 1.0)]
        if want is None:
            with pytest.raises(EmptyFiber, match="misses the domain"):
                self.codim(2, terms, domain)
        else:
            assert self.codim(2, terms, domain) == want

    def test_gf2_contradiction(self):
        # w1 > 0 and w2 > 0 force w1 w2 > 0, not -1/4
        terms = [((1, 0), 0.5), ((0, 1), 0.5), ((1, 1), -0.25)]
        with pytest.raises(EmptyFiber, match="no sign orthant"):
            self.codim(2, terms, [(-1.0, 1.0)] * 2)

    def test_boundary_only_fiber_solves_one_lp(self, monkeypatch):
        # x_j^2 = 1 on (-1, 1)^8: every one of the 2^8 orthants has the
        # bounds |x_j| < 1, so one LP finds the fiber on the boundary
        calls = []
        linprog = engine.linprog

        def spy(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(engine, "linprog", spy)
        d = 8
        terms = [(tuple(2 * (j == i) for j in range(d)), 1.0) for i in range(d)]
        with pytest.raises(NoInteriorSolution):
            self.codim(d, terms, [(-1.0, 1.0)] * d)
        assert len(calls) == 1

    def test_unbounded_box_needs_no_lp(self, monkeypatch):
        # w1 w2 = -1/2 and w1 = 2 on R^2: every orthant is unbounded
        calls = count_lps(monkeypatch)
        terms = [((1, 1), -0.5), ((1, 0), 2.0)]
        assert self.codim(2, terms, [(-np.inf, np.inf)] * 2) == 2
        assert calls == []

    def test_one_lp_per_distinct_bounds(self, monkeypatch):
        # w_j^2 = 4 on (-1, 2) for j < 2 and w_2^2 = 1 on (-1, 1): the
        # 8 orthants see 4 bound pairs, |w_j| < 2 or < 1 for j < 2 and
        # |w_2| < 1 always; none has the fiber inside, so all 4 are tried
        calls = count_lps(monkeypatch)
        terms = [((2, 0, 0), 4.0), ((0, 2, 0), 4.0), ((0, 0, 2), 1.0)]
        with pytest.raises(NoInteriorSolution):
            self.codim(3, terms, [(-1.0, 2.0)] * 2 + [(-1.0, 1.0)])
        assert len(calls) == 4

    @pytest.mark.parametrize("c, domain, error", [
        (0.3, (0.5, 2.0), EmptyFiber),
        (-0.3, (-2.0, -0.5), EmptyFiber),
        (0.5, (0.5, 2.0), NoInteriorSolution),
    ], ids=["below", "below-negative", "on-bound"])
    def test_lower_bound_decides(self, c, domain, error):
        # |w| = |c| is at or below the least |w| on the domain, 1/2,
        # while the upper bound 2 leaves room
        with pytest.raises(error):
            self.codim(1, [((1,), c)], [domain])

    def test_too_many_free_signs(self):
        d = 21
        terms = [(tuple(2 * (j == i) for j in range(d)), 1.0) for i in range(d)]
        with pytest.raises(TooLarge, match="2\\^21"):
            self.codim(d, terms, [(-2.0, 2.0)] * d)


class TestScaling:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_coordinate_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        terms = []
        for _ in range(k):
            u = tuple(int(x) for x in rng.integers(0, 3, size=d))
            if not any(u):
                u = tuple(1 if i == 0 else 0 for i in range(d))
            terms.append((u, 0.0))
        m = mono(d, terms, [(0.0, 1.0)] * d)
        perm = rng.permutation(d)
        terms_p = [
            (tuple(u[perm[i]] for i in range(d)), c) for u, c in terms
        ]
        mp = mono(d, terms_p, [(0.0, 1.0)] * d)
        assert rlct_monomial_sos(m) == rlct_monomial_sos(mp)
