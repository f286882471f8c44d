from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from latentforest import (
    MonomialSos,
    build_forest,
    newton_facets,
    one_distance_lp,
    one_distance_mult,
    rlct_monomial_sos,
    zero_part_monomials,
)
from latentforest import polyhedra
from latentforest.errors import CertificateFailure, DimensionTooLarge
from latentforest.experiments import random_trivalent_tree
from latentforest.polyhedra import _combine, _dot, rational_rank

from conftest import subdivide_leaf_edge


def reference_newton_facets(gens, d):
    """Sorted facets by general double description, the oracle for
    ``newton_facets``: every constraint, axes first, goes through an
    explicit lineality space, kept rays are reordered positive before
    zero, and the dual cone is checked to be pointed at the end."""
    constraints = [tuple(int(i == j + 1) for i in range(d + 1)) for j in range(d)]
    constraints += [(1, *u) for u in sorted(set(gens))]
    dim = d + 1
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, active = [], []
    for ci, g in enumerate(constraints):
        pidx = next((i for i, l in enumerate(lineality) if _dot(g, l) != 0), None)
        if pidx is not None:
            pivot = lineality.pop(pidx)
            if _dot(g, pivot) < 0:
                pivot = tuple(-x for x in pivot)
            lineality = [_combine(g, pivot, l) for l in lineality]
            rays = [_combine(g, pivot, r) if _dot(g, r) != 0 else r for r in rays]
            active = [a | (1 << ci) for a in active]
            rays.append(pivot)
            active.append((1 << ci) - 1)
            continue
        vals = [_dot(g, r) for r in rays]
        if all(v >= 0 for v in vals):
            active = [a | (1 << ci) if v == 0 else a for a, v in zip(active, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        keep_rays = [rays[i] for i in pos + zero]
        keep_active = [active[i] | (0 if i in pos else 1 << ci) for i in pos + zero]
        for ip in pos:
            for im in neg:
                common = active[ip] & active[im]
                if not any(
                    k not in (ip, im) and (active[k] & common) == common
                    for k in range(len(rays))
                ):
                    keep_rays.append(_combine(g, rays[ip], rays[im]))
                    keep_active.append(common | (1 << ci))
        rays, active = keep_rays, keep_active
    assert not lineality, "dual cone is not pointed"
    return tuple(sorted((r[1:], -r[0]) for r in rays if any(r[1:])))


def trivalent_zero_part(m, seed, k=0):
    """Zero part, against the empty pattern, of a random trivalent tree
    with k pendant subdivisions."""
    tree = random_trivalent_tree(m, seed)
    rng = np.random.default_rng(seed)
    for tag in range(k):
        tree = subdivide_leaf_edge(tree, tag, rng)
    return zero_part_monomials(tree, build_forest({v: False for v in tree.observed}, []))


def lp_member(generators, point) -> bool:
    """LP oracle: point in conv(generators) + nonnegative orthant."""
    d = len(point)
    k = len(generators)
    # point = sum mu_i g_i + s, mu >= 0 summing to 1, s >= 0
    a_eq = np.zeros((d + 1, k + d))
    for i, g in enumerate(generators):
        a_eq[:d, i] = g
        a_eq[d, i] = 1.0
    a_eq[:d, k:] = np.eye(d)
    b_eq = np.concatenate([np.array(point, dtype=float), [1.0]])
    res = linprog(
        np.zeros(k + d), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (k + d)
    )
    return res.status == 0


def lp_one_distance(generators) -> float:
    """LP oracle: smallest t with t*(1,..,1) in the polyhedron."""
    d = len(generators[0])
    k = len(generators)
    # variables: mu (k), s (d), t
    a_eq = np.zeros((d + 1, k + d + 1))
    for i, g in enumerate(generators):
        a_eq[:d, i] = g
        a_eq[d, i] = 1.0
    a_eq[:d, k : k + d] = np.eye(d)
    a_eq[:d, -1] = -1.0
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    c = np.zeros(k + d + 1)
    c[-1] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (k + d) + [(None, None)])
    assert res.status == 0
    return float(res.x[-1])


def random_exponents(rng, d, k):
    return [tuple(int(x) for x in rng.integers(0, 5, size=d))
            for _ in range(k)]


class TestNewtonFacets:
    def test_empty_input(self):
        assert newton_facets([], 3) is None

    def test_single_generator(self):
        poly = newton_facets([(2,)], 1)
        assert poly.contains((Fraction(2),))
        assert poly.contains((Fraction(3),))
        assert not poly.contains((Fraction(1),))

    def test_membership_matches_lp(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            gens = random_exponents(rng, d, k)
            poly = newton_facets(gens, d)
            for _ in range(12):
                pt = tuple(
                    Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 4)))
                    for _ in range(d)
                )
                ours = poly.contains(pt)
                lp = lp_member(gens, [float(x) for x in pt])
                assert ours == lp, (gens, pt)

    def test_generators_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            gens = random_exponents(rng, d, int(rng.integers(1, 7)))
            poly = newton_facets(gens, d)
            for g in gens:
                assert poly.contains(tuple(Fraction(x) for x in g))

    def test_dimension_bound(self):
        with pytest.raises(DimensionTooLarge):
            newton_facets([tuple([1] * 21)], 21)

    def test_dimension_bound_edge(self):
        d = polyhedra.HULL_DIM_BOUND + 1
        with pytest.raises(DimensionTooLarge):
            newton_facets([tuple([1] * d)], d)


def random_systems():
    """2000 seeded systems: d <= 6, 1-8 generators, entries 0-3."""
    rng = np.random.default_rng(2026)
    for _ in range(2000):
        d = int(rng.integers(1, 7))
        gens = [tuple(int(x) for x in rng.integers(0, 4, size=d))
                for _ in range(int(rng.integers(1, 9)))]
        yield gens, d


def random_systems_sample(n):
    """The first n of ``random_systems``."""
    return [s for _, s in zip(range(n), random_systems())]


TRIVALENT_GRID = (
    [(m, k) for m in (3, 4, 5, 6) for k in range(4)]
    + [(7, 0), (7, 1)]
    + [pytest.param(7, 2, marks=pytest.mark.slow),
       pytest.param(8, 0, marks=pytest.mark.slow)]
)


class TestMatchesReference:
    """The hull matches the reference, and the LP route matches the
    hull on the same inputs."""

    def test_random_systems(self):
        for gens, d in random_systems():
            poly = newton_facets(gens, d)
            assert poly.facets == reference_newton_facets(gens, d), gens
            assert one_distance_lp(gens, d) == one_distance_mult(poly), gens

    @pytest.mark.parametrize("m,k", TRIVALENT_GRID)
    def test_trivalent_zero_parts(self, m, k):
        sos = trivalent_zero_part(m, m, k)
        gens = [u for u, _ in sos.terms]
        poly = newton_facets(gens, sos.dim)
        assert poly.facets == reference_newton_facets(gens, sos.dim)
        assert one_distance_lp(gens, sos.dim) == one_distance_mult(poly)

    def test_nine_leaf_trivalent_threshold(self):
        sos = trivalent_zero_part(9, 9)
        assert sos.dim == 15
        assert rlct_monomial_sos(sos).as_tuple() == (Fraction(9, 2), 1)

    @pytest.mark.slow
    def test_nine_leaf_trivalent_hull(self):
        # dimension 15 is the largest the hull accepts
        sos = trivalent_zero_part(9, 9)
        gens = [u for u, _ in sos.terms]
        assert sos.dim == polyhedra.HULL_DIM_BOUND
        assert one_distance_lp(gens, sos.dim) == hull_distance_mult(gens, sos.dim)


class TestOneDistance:
    def test_single_axis(self):
        poly = newton_facets([(1,)], 1)
        t, mult = one_distance_mult(poly)
        assert (t, mult) == (Fraction(1), 1)

    def test_product_monomial(self):
        # single generator (1,1): t*(1,1) enters at t = 1; two tight
        # facets x >= 1 and y >= 1 meet there
        poly = newton_facets([(1, 1)], 2)
        t, mult = one_distance_mult(poly)
        assert t == 1
        assert mult == 2

    def test_three_cycle(self):
        # (1,1,0), (1,0,1), (0,1,1): facet x+y+z >= 2, so t = 2/3
        poly = newton_facets([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        t, mult = one_distance_mult(poly)
        assert t == Fraction(2, 3)
        assert mult == 1

    def test_matches_lp(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            gens = random_exponents(rng, d, int(rng.integers(1, 6)))
            if any(not any(g) for g in gens):
                continue  # a zero exponent vector puts the origin inside
            poly = newton_facets(gens, d)
            t, _ = one_distance_mult(poly)
            assert abs(float(t) - lp_one_distance(gens)) < 1e-7


class TestRationalRank:
    def test_rank(self):
        rows = [
            (Fraction(1), Fraction(2)),
            (Fraction(2), Fraction(4)),
            (Fraction(0), Fraction(1)),
        ]
        assert rational_rank(rows) == 2

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            m = rng.integers(-3, 4, size=(r, c))
            ours = rational_rank(
                [tuple(Fraction(int(x)) for x in row) for row in m]
            )
            assert ours == np.linalg.matrix_rank(m.astype(float))


# zero parts of the systems in test_engine.py, as (generators, d)
ENGINE_TEST_SYSTEMS = [
    ([(1,)], 1),
    ([(1, 1)], 2),
    ([(1, 0), (1, 0), (1, 1)], 2),
    ([(1, 1, 0, 0), (0, 0, 1, 1)], 4),
    ([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3),
] + [([tuple(int(i == j) for j in range(d)) for i in range(d)], d)
     for d in range(1, 7)]

# (leaves, pendant subdivisions) of the benchmark's symbolic engine
# items; item i is trivalent_zero_part(m, i, k)
ENGINE_PLAN = ((5, 1), (5, 2), (6, 1), (6, 2), (7, 0), (7, 1), (8, 0))

# (2,0), (1,1), (0,2) lie on the facet x + y >= 2, which 1*(1,1) meets
# in the relative interior: t = 1 and mult 1, though (1,1) is itself a
# generator
COLLINEAR = [(2, 0), (1, 1), (0, 2)]


def hull_distance_mult(gens, d):
    return one_distance_mult(newton_facets(gens, d))


def perturb_linprog(monkeypatch, gens, d, change):
    """Make linprog in polyhedra hand change(blocks) its solution x before
    returning it.  blocks holds writable views of the certificate LP's
    variables x = (mu, s, a, r, tau), keyed by name, for the k distinct
    generators of gens in dimension d.  Returns the list of calls."""
    k = len(set(map(tuple, gens)))
    calls = []
    seam = polyhedra.linprog

    def fake(*args, **kwargs):
        res = seam(*args, **kwargs)
        calls.append(res)
        x = res.x.copy()
        cuts = np.cumsum([k, d, d, k])
        change(dict(zip(["mu", "s", "a", "r", "tau"], np.split(x, cuts))))
        res.x = x
        return res

    monkeypatch.setattr(polyhedra, "linprog", fake)
    return calls


def origin_claimed(b):
    # t*1 = s alone: the claim that t = 0, below the true t = 1
    b["mu"][:] = 0.0
    b["s"][:] = 1.0
    b["tau"][:] = 0.0


def only_middle_in_support(b):
    b["mu"][:] = 0.0
    b["mu"][1] = 1.0


def first_axis_in_support(b):
    b["s"][0] = 1.0


def all_in_support(b):
    b["mu"][:] = 1.0
    b["s"][:] = 1.0


def normal_negated(b):
    b["a"][:] *= -1.0


class TestOneDistanceLp:
    @pytest.mark.parametrize(
        "gens,d",
        ENGINE_TEST_SYSTEMS + [(COLLINEAR, 2)]
        # a zero generator puts the origin in P: t = 0 and mult d
        + [([(0, 0)], 2), ([(0, 0), (1, 1)], 2)],
    )
    def test_engine_test_systems_match_hull(self, gens, d):
        assert one_distance_lp(gens, d) == hull_distance_mult(gens, d)

    @pytest.mark.parametrize("i,mk", list(enumerate(ENGINE_PLAN)))
    def test_benchmark_systems_match_hull(self, i, mk):
        m, k = mk
        sos = trivalent_zero_part(m, i, k)
        gens = [u for u, _ in sos.terms]
        assert one_distance_lp(gens, sos.dim) == hull_distance_mult(gens, sos.dim)
        assert one_distance_lp(gens, sos.dim) == (Fraction(2, m), 1 + k)

    @pytest.mark.parametrize("m,k", [(10, 0), (12, 0), (16, 0), (24, 0), (12, 2)])
    def test_beyond_hull_reach(self, m, k):
        sos = trivalent_zero_part(m, m, k)
        assert sos.dim > polyhedra.HULL_DIM_BOUND
        assert rlct_monomial_sos(sos).as_tuple() == (Fraction(m, 2), 1 + k)

    def test_engine_never_builds_the_hull(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the engine built a hull")

        monkeypatch.setattr(polyhedra, "newton_facets", refuse)
        monkeypatch.setattr(polyhedra, "_facet_normals", refuse)
        sos = trivalent_zero_part(6, 6, 1)
        assert rlct_monomial_sos(sos).as_tuple() == (Fraction(3), 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_distance_lp([], 2)
        with pytest.raises(ValueError):
            one_distance_lp([(1, -1)], 2)
        with pytest.raises(ValueError):
            one_distance_lp([(1, 1)], 3)

    @pytest.mark.parametrize(
        "gens,change",
        [(COLLINEAR, origin_claimed),
         (COLLINEAR, only_middle_in_support),
         (COLLINEAR, all_in_support),
         # (1,1) + cone{e_1} is a face through 1*(1,1), but not the
         # minimal one: accepting s_1 = 0 would give mult 1, not 2
         ([(1, 1)], first_axis_in_support),
         (COLLINEAR, normal_negated)],
        ids=["t-too-small", "support-too-small", "support-too-large",
             "axis-off-the-face", "normal-negated"],
    )
    def test_perturbed_solution_raises(self, monkeypatch, gens, change):
        calls = perturb_linprog(monkeypatch, gens, 2, change)
        with pytest.raises(CertificateFailure):
            one_distance_lp(gens, 2)
        assert len(calls) == 1

    def test_failed_lp_raises(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "linprog", lambda *args: SimpleNamespace(
            status=2, message="The problem is infeasible."))
        with pytest.raises(CertificateFailure, match="LP failed: The problem"):
            one_distance_lp(COLLINEAR, 2)

    def test_one_linprog_call(self, monkeypatch):
        sos = trivalent_zero_part(7, 5, 1)
        gens = [u for u, _ in sos.terms]
        calls = perturb_linprog(monkeypatch, gens, sos.dim, lambda b: None)
        assert one_distance_lp(gens, sos.dim) == (Fraction(2, 7), 2)
        assert len(calls) == 1

    def test_perturbed_engine_raises(self, monkeypatch):
        perturb_linprog(monkeypatch, COLLINEAR, 2, only_middle_in_support)
        sos = MonomialSos(dim=2, terms=[(u, 0.0) for u in COLLINEAR],
                          domain=[(-1.0, 1.0)] * 2)
        with pytest.raises(CertificateFailure):
            rlct_monomial_sos(sos)

    def test_noisy_solutions_never_give_wrong_answers(self, monkeypatch):
        rng = np.random.default_rng(7)
        raised = 0
        for n, (gens, d) in enumerate(random_systems()):
            if n == 300:
                break
            want = hull_distance_mult(gens, d)

            def change(blocks):
                for x in blocks.values():
                    x *= rng.uniform(0.5, 1.5, size=x.shape)
                    x[rng.random(x.shape) < 0.1] = 0.0

            perturb_linprog(monkeypatch, gens, d, change)
            try:
                got = one_distance_lp(gens, d)
            except CertificateFailure:
                raised += 1
                continue
            assert got == want, gens
        assert raised > 0


def dense_certificate_lp(gens, d):
    """The certificate LP's rows as dense ``np.block``s, equalities over
    negated inequalities: the matrix ``_certificate_lp`` replaced."""
    k = len(gens)
    u = np.array(gens, dtype=float).reshape(k, d)
    z, e_d, e_k, o_d, o_k = np.zeros, np.eye(d), np.eye(k), np.ones(d), np.ones(k)
    a_eq = np.block([
        [u.T, e_d, z((d, d + k)), -o_d[:, None]],
        [z((k, k + d)), u, -e_k, -o_k[:, None]],
        [o_k, z(d), -o_d, z(k + 1)],
    ])
    a_ub = -np.block([[e_k, z((k, 2 * d)), e_k, z((k, 1))],
                      [z((d, k)), e_d, e_d, z((d, k + 1))]])
    return a_eq, a_ub


class TestCertificateLp:
    @pytest.mark.parametrize(
        "gens,d",
        [([(2,)], 1), ([(0, 0)], 2), ([(0, 0), (1, 1)], 2), ([(1, 0, 3)], 3),
         (COLLINEAR, 2)]
        + [(sorted(set(g)), d) for g, d in random_systems_sample(40)],
    )
    def test_matches_dense_blocks(self, gens, d):
        a, lo, hi = polyhedra._certificate_lp(gens, d)
        a_eq, a_ub = dense_certificate_lp(gens, d)
        n_eq, n_ub = len(a_eq), len(a_ub)
        assert a.shape == (n_eq + n_ub, a_eq.shape[1])
        np.testing.assert_array_equal(a.toarray(), np.vstack([a_eq, -a_ub]))
        np.testing.assert_array_equal(lo, np.r_[np.zeros(n_eq), np.ones(n_ub)])
        np.testing.assert_array_equal(hi, np.r_[np.zeros(n_eq), np.full(n_ub, np.inf)])


def rank_test_matrices():
    """(name, integer matrix) pairs: full rank, rank deficient, all zero
    and without columns or rows."""
    rng = np.random.default_rng(20)
    out = [("zero", np.zeros((4, 3))), ("no-columns", np.zeros((3, 0))),
           ("no-rows", np.zeros((0, 3))), ("one-entry", np.array([[5.0]]))]
    for n in range(30):
        r, c = (int(x) for x in rng.integers(1, 9, size=2))
        full = rng.integers(-3, 4, size=(r, c)).astype(float)
        out.append((f"full-{n}", full))
        q = int(rng.integers(1, min(r, c) + 1))
        low = rng.integers(-3, 4, size=(r, q)) @ rng.integers(-3, 4, size=(q, c))
        out.append((f"low-{n}", low.astype(float)))
        # a repeated column and a zero column next to it
        out.append((f"dup-{n}", np.c_[full, full[:, :1], np.zeros(r)]))
    return out


class TestPivots:
    @pytest.mark.parametrize("name,a", rank_test_matrices(),
                             ids=[n for n, _ in rank_test_matrices()])
    def test_numerical_rank_columns_span(self, name, a):
        picked = polyhedra._pivots(a)
        rank = np.linalg.matrix_rank(a) if a.size else 0
        assert len(picked) == len(set(picked)) == rank
        assert all(0 <= j < a.shape[1] for j in picked)
        if rank:
            # the picked columns span the column space of a
            assert np.linalg.matrix_rank(a[:, picked]) == rank
            coef = np.linalg.lstsq(a[:, picked], a, rcond=None)[0]
            np.testing.assert_allclose(a[:, picked] @ coef, a, atol=1e-9)
