import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from explab.classify import (Classification, DegreeCapError, _solve_at_degree,
                             are_equivalent, classify, realizable_subspace,
                             verify_milne_structure)
from explab.cochain import OneCochain, TwoCochain, coboundary, is_cocycle
from explab.lie import LieAlgebra, galilean, milne, phase_space
from explab.ratpoly import RatPoly


# -- independent dense oracle (no shared code with explab.linalg) --------

def dense_rank(rows):
    """Plain dense Gaussian elimination over Fraction."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    col = 0
    width = max((len(r) for r in rows), default=0)
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def constant_coboundary_rows(alg):
    """d[Lam] for each constant unit Lam, straight from the bracket table."""
    pairs = list(alg.pairs())
    rows = []
    for k in range(alg.dim):
        row = [Fraction(0)] * len(pairs)
        for idx, (i, j) in enumerate(pairs):
            for m, c in alg.bracket_basis(i, j):
                if m == k:
                    row[idx] -= c  # -Lam([a_i, a_j]); bold terms vanish for constants
        rows.append(row)
    return rows


def brute_force_constant_quotient(alg):
    """Enumerate antisymmetric constant forms, impose the cyclic sum, mod out
    constant coboundaries. Dense and slow on purpose."""
    pairs = list(alg.pairs())
    rank_of = {p: n for n, p in enumerate(pairs)}
    constraints = []
    for (i, j, k) in itertools.combinations(range(alg.dim), 3):
        row = [Fraction(0)] * len(pairs)
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in alg.bracket_basis(p, q):
                if m == r:
                    continue
                if m < r:
                    row[rank_of[(m, r)]] += c
                else:
                    row[rank_of[(r, m)]] -= c
        constraints.append(row)
    cocycle_dim = len(pairs) - dense_rank(constraints)
    cob_dim = dense_rank(constant_coboundary_rows(alg))
    return cocycle_dim - cob_dim


def bases(alg, D):
    """Cocycle basis and coboundary echelon basis at degree bound D."""
    solve = _solve_at_degree(alg, D)
    return ([solve.layout.to_cochain(r) for r in solve.cocycle_rows],
            [solve.layout.to_cochain(r) for r in solve.coboundary_rows])


class TestGalilean:
    def test_auto_classification(self):
        c = classify(galilean())
        assert c.quotient_dim == 1
        assert c.degree_used == 2
        assert c.cocycle_dim - c.coboundary_dim == 1

    def test_canonical_representative_is_unit_isotropic_mass(self):
        c = classify(galilean())
        (rep,) = c.representatives
        g = c.alg
        expected = TwoCochain.from_labels(
            g, {("b%d" % i, "d%d" % i): 1 for i in (1, 2, 3)})
        assert rep == expected
        assert rep.max_degree() == 0

    def test_cocycle_and_coboundary_dims_scale_with_degree(self):
        g = galilean()
        for D in (0, 1, 2, 3):
            solve = _solve_at_degree(g, D)
            assert len(solve.cocycle_rows) == 9 * (D + 1) + 1
            assert len(solve.coboundary_rows) == 9 * (D + 1)

    def test_constant_coboundary_rank_oracle(self):
        # derived subalgebra of the spatial part is 9-dimensional
        g = galilean()
        assert dense_rank(constant_coboundary_rows(g)) == 9
        assert len(_solve_at_degree(g, 0).coboundary_rows) == 9

    def test_coordinates(self):
        assert classify(galilean()).coordinates == ["gamma"]


class TestSolverCrossChecks:
    def test_cocycle_basis_passes_independent_evaluator(self):
        for alg, D in ((galilean(), 2), (milne(2), 3), (phase_space(2), 1)):
            for xi in bases(alg, D)[0]:
                assert is_cocycle(xi)

    def test_coboundary_basis_lies_in_cocycle_space(self):
        for alg, D in ((galilean(), 1), (milne(2), 2)):
            for b in bases(alg, D)[1]:
                assert is_cocycle(b)

    def test_milne_coboundaries_vanish_on_acceleration_pairs(self):
        g = milne(2)
        accel = [lab for lab in g.labels if lab.startswith("d")]
        for b in bases(g, 2)[1]:
            for l1, l2 in itertools.combinations(accel, 2):
                assert b.entry_by_labels(l1, l2).is_zero()

    def test_representative_entries_solve_planted_residuals(self):
        from explab.cochain import jacobi_residual
        c = classify(milne(2))
        n = c.alg.dim
        for rep in c.representatives:
            for (i, j, k) in itertools.combinations(range(n), 3):
                assert jacobi_residual(rep, i, j, k).is_zero()


class TestPhaseSpace:
    def test_quotients_match_brute_force(self):
        for n in (1, 2, 3):
            alg = phase_space(n)
            c = classify(alg)
            assert c.quotient_dim == n * (2 * n - 1)
            assert c.quotient_dim == brute_force_constant_quotient(alg)
            assert c.coboundary_dim == 0
            assert c.degree_used == 0

    def test_explicit_degree_honored(self):
        assert len(_solve_at_degree(phase_space(1), 0).cocycle_rows) == 1
        assert len(_solve_at_degree(phase_space(2), 0).cocycle_rows) == 6
        # with no time generator every extra power replicates the classes
        assert len(_solve_at_degree(phase_space(1), 2).cocycle_rows) == 3


class TestMilne:
    def test_quotient_dimensions(self):
        for m, want in ((1, 1), (2, 3), (3, 6)):
            assert classify(milne(m)).quotient_dim == want

    def test_degree_stability_invariant(self):
        for m in (1, 2, 3):
            lo = classify(milne(m), degree=2 * m - 1)
            hi = classify(milne(m), degree=2 * m + 2)
            assert lo.quotient_dim == hi.quotient_dim == m * (m + 1) // 2

    def test_structure_report_passes(self):
        for m in (1, 2, 3):
            c = classify(milne(m))
            report = verify_milne_structure(c, m)
            assert report.ok, report.failures

    def test_coordinates_are_integration_constants(self):
        c = classify(milne(2))
        assert c.coordinates == ["gamma_(0,1)", "gamma_(0,2)", "gamma_(1,2)"]
        # gamma_(l,n) is the value at t = 0 of the pivot family
        for rep, name in zip(c.representatives, c.coordinates):
            l, n = map(int, name[len("gamma_("):-1].split(","))
            assert rep.entry_by_labels("d%d_1" % l, "d%d_1" % n)(Fraction(0)) == 1

    def test_json_algebras_get_pair_names(self):
        # names follow generator roles, which JSON algebras do not have,
        # whatever their labels spell
        for alg, name in ((galilean(), "c(b1,d1)"), (milne(1), "c(d0_1,d1_1)")):
            copy = LieAlgebra.from_dict(alg.to_dict())
            assert classify(copy).coordinates == [name]

    def test_corrupted_recurrence_detected(self):
        g = milne(2)
        bad = TwoCochain.from_labels(
            g, {("d%d_%d" % (1, i), "d%d_%d" % (2, i)): RatPoly.t() for i in (1, 2, 3)})
        c = Classification(alg=g, cocycle_dim=1, coboundary_dim=0, quotient_dim=1,
                           representatives=[bad], degree_used=3)
        report = verify_milne_structure(c, 2)
        assert not report.ok
        assert report.failures.get("recurrence")

    def test_corrupted_isotropy_detected(self):
        g = milne(1)
        bad = TwoCochain.from_labels(g, {("d0_1", "d1_1"): 1})  # only one component
        c = Classification(alg=g, cocycle_dim=1, coboundary_dim=0, quotient_dim=1,
                           representatives=[bad], degree_used=1)
        assert verify_milne_structure(c, 1).failures.get("isotropy")

    def test_support_check_detects_stray_entries(self):
        g = milne(1)
        bad = TwoCochain.from_labels(g, {("a12", "tau"): 1})
        c = Classification(alg=g, cocycle_dim=1, coboundary_dim=0, quotient_dim=1,
                           representatives=[bad], degree_used=1)
        assert verify_milne_structure(c, 1).failures.get("support")


class TestRealizable:
    def test_dimension_is_order(self):
        for m in (1, 2, 3):
            c = classify(milne(m))
            r = realizable_subspace(c, m)
            assert r.quotient_dim == m

    def test_restricted_representatives_have_zero_inner_constants(self):
        m = 3
        r = realizable_subspace(classify(milne(m)), m)
        for rep in r.representatives:
            for l in range(1, m + 1):
                for n in range(1, m + 1):
                    assert rep.entry_by_labels("d%d_1" % l, "d%d_1" % n)(Fraction(0)) == 0

    def test_restriction_keeps_structure(self):
        m = 2
        r = realizable_subspace(classify(milne(m)), m)
        assert verify_milne_structure(r, m).ok


class TestAreEquivalent:
    def test_shift_by_coboundary(self):
        g = galilean()
        c = classify(g)
        xi = c.representatives[0]
        lam = OneCochain.from_labels(g, {"b1": RatPoly((1, 2)), "d2": RatPoly.t(), "tau": 3})
        res = are_equivalent(xi, xi + coboundary(lam))
        assert res.equivalent
        assert coboundary(res.witness) == coboundary(lam)

    def test_different_masses_inequivalent(self):
        c = classify(galilean())
        rep = c.representatives[0]
        assert not are_equivalent(rep, 2 * rep)

    def test_milne_integration_constants_inequivalent(self):
        c = classify(milne(2))
        r = c.representatives
        assert not are_equivalent(r[0], r[0] + r[2])
        for a, b in itertools.combinations(r, 2):
            assert not are_equivalent(a, b)

    def test_non_cocycle_rejected(self):
        g = galilean()
        bad = TwoCochain.from_labels(g, {("b1", "d1"): RatPoly.t()})
        with pytest.raises(ValueError):
            are_equivalent(bad, bad)

    def test_zero_delta(self):
        xi = classify(milne(1)).representatives[0]
        res = are_equivalent(xi, xi)
        assert res.equivalent
        assert coboundary(res.witness).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_random_coboundary_shifts(self, data):
        g = milne(1)
        xi = classify(g).representatives[0]
        polys = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction),
                         max_size=3).map(RatPoly)
        comps = [data.draw(polys) for _ in range(g.dim)]
        comps[g.time_index] = RatPoly.constant(comps[g.time_index].coeff(0))
        lam = OneCochain(g, comps)
        res = are_equivalent(xi, xi + coboundary(lam))
        assert res.equivalent
        assert coboundary(res.witness) == coboundary(lam)


class TestAutoModeMechanics:
    def test_cap_abort(self):
        with pytest.raises(DegreeCapError):
            classify(galilean(), cap=1)

    def test_two_generator_time_ladder(self):
        alg = LieAlgebra(["x", "tau"], {}, time_index=1, name="toy")
        c = classify(alg)
        # single pair (x, tau); coboundaries are derivatives of Lam_x
        assert c.quotient_dim == 1
        assert c.degree_used == 2

    def test_invalid_algebra_rejected(self):
        bad = LieAlgebra(["x", "y", "z", "w"],
                         {(0, 1): [(2, 1)], (0, 2): [(3, 1)], (1, 2): [(0, 1)],
                          (0, 3): [(1, 1)]},
                         time_index=None, name="broken")
        if bad.validate():
            with pytest.raises(ValueError):
                classify(bad)

    def test_explicit_degree(self):
        c = classify(milne(2), degree=5)
        assert c.degree_used == 5
        assert c.quotient_dim == 3


class TestDeterminism:
    def test_repeated_runs_identical(self):
        a = json.dumps(classify(milne(2)).to_jsonable(), sort_keys=True)
        b = json.dumps(classify(milne(2)).to_jsonable(), sort_keys=True)
        assert a == b
