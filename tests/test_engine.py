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
    rlct_monomial_sos,
    split_parts,
)

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
