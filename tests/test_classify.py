import functools
import hashlib
import itertools
import json
import operator
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from explab import linalg
from explab.classify import (MAX_COLUMNS, Classification, ColumnLimitError,
                             EquivalenceResult, _certificate, _classification,
                             _coboundary_echelon, _column_count, _columns, _DegreeSolve,
                             _generalized_kernel, _h_echelon, _k1,
                             _solve, are_equivalent, check_columns,
                             check_family_columns, classify, realizable_subspace,
                             verify_milne_structure)
from explab.cochain import (OneCochain, TwoCochain, _complex, _Complex, coboundary, column,
                            is_cocycle, jacobi_residual)
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


def grading(alg, k, p):
    """bold(a_k) on a scalar polynomial: -d/dt for the time generator, else 0."""
    return -p.differentiate() if k == alg.time_index else RatPoly.zero()


def oracle_coboundary(lam):
    """d[Lam](a_i, a_j) = bold(a_i)Lam_j - bold(a_j)Lam_i - Lam([a_i, a_j])."""
    alg = lam.alg
    entries = {}
    for (i, j) in alg.pairs():
        p = grading(alg, i, lam.components[j]) - grading(alg, j, lam.components[i])
        for k, c in alg.bracket_basis(i, j):
            p = p - lam.components[k] * c
        entries[(i, j)] = p
    return TwoCochain(alg, entries)


def oracle_residual(xi, i, j, k):
    """The cyclic sum of Xi([a_p, a_q], a_r) - bold(a_p)Xi(a_q, a_r)."""
    alg = xi.alg
    out = RatPoly.zero()
    for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
        for m, c in alg.bracket_basis(p, q):
            out = out + xi.entry(m, r) * c
        out = out - grading(alg, p, xi.entry(q, r))
    return out


def oracle_is_cocycle(xi):
    return all(oracle_residual(xi, i, j, k).is_zero()
               for (i, j, k) in itertools.combinations(range(xi.alg.dim), 3))


def bases(alg, D):
    """Cocycle basis and the solve's coboundary echelon basis at degree bound D."""
    cx = _complex(alg)
    return ([cx.to_cochain(alg, r) for r in _solve(alg, D, D).cocycle_rows],
            [cx.to_cochain(alg, r) for r in _coboundary_echelon(alg, D, D).values()])


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
            solve = _solve(g, D, D)
            assert len(solve.cocycle_rows) == 9 * (D + 1) + 1
            assert solve.coboundary_dim == 9 * (D + 1)

    def test_constant_coboundary_rank_oracle(self):
        # derived subalgebra of the spatial part is 9-dimensional
        g = galilean()
        assert dense_rank(constant_coboundary_rows(g)) == 9
        assert _solve(g, 0, 0).coboundary_dim == 9

    def test_coordinates(self):
        assert classify(galilean()).coordinates == ["gamma"]


class TestSolverCrossChecks:
    def test_cocycle_basis_passes_independent_evaluator(self):
        for alg, D in ((galilean(), 2), (milne(2), 3), (phase_space(2), 1)):
            for xi in bases(alg, D)[0]:
                assert oracle_is_cocycle(xi)

    def test_coboundary_basis_lies_in_cocycle_space(self):
        for alg, D in ((galilean(), 1), (milne(2), 2)):
            for b in bases(alg, D)[1]:
                assert oracle_is_cocycle(b)

    def test_milne_coboundaries_vanish_on_acceleration_pairs(self):
        g = milne(2)
        accel = [lab for lab in g.labels if lab.startswith("d")]
        for b in bases(g, 2)[1]:
            for l1, l2 in itertools.combinations(accel, 2):
                assert b.entry_by_labels(l1, l2).is_zero()

    def test_representative_entries_solve_planted_residuals(self):
        c = classify(milne(2))
        n = c.alg.dim
        for rep in c.representatives:
            for (i, j, k) in itertools.combinations(range(n), 3):
                assert oracle_residual(rep, i, j, k).is_zero()


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
        assert len(_solve(phase_space(1), 0, 0).cocycle_rows) == 1
        assert len(_solve(phase_space(2), 0, 0).cocycle_rows) == 6
        # with no time generator every extra power replicates the classes
        assert len(_solve(phase_space(1), 2, 2).cocycle_rows) == 3


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
            assert list(report) == ["isotropy", "p00_zero", "antisymmetry",
                                    "recurrence", "degree_bound", "support"]
            assert not any(report.values()), report

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
        assert verify_milne_structure(c, 2)["recurrence"]

    def test_corrupted_isotropy_detected(self):
        g = milne(1)
        bad = TwoCochain.from_labels(g, {("d0_1", "d1_1"): 1})  # only one component
        c = Classification(alg=g, cocycle_dim=1, coboundary_dim=0, quotient_dim=1,
                           representatives=[bad], degree_used=1)
        assert verify_milne_structure(c, 1)["isotropy"]

    def test_support_check_detects_stray_entries(self):
        g = milne(1)
        bad = TwoCochain.from_labels(g, {("a12", "tau"): 1})
        c = Classification(alg=g, cocycle_dim=1, coboundary_dim=0, quotient_dim=1,
                           representatives=[bad], degree_used=1)
        assert verify_milne_structure(c, 1)["support"]


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
        assert not any(verify_milne_structure(r, m).values())

    @pytest.mark.parametrize("name, alg, m", [("milne:2", milne(2), 3),
                                              ("milne:2", milne(2), 1),
                                              ("galilean", galilean(), 1)])
    def test_an_order_that_is_not_the_top_level_is_refused(self, name, alg, m):
        # milne:2 with m = 3 used to raise a bare KeyError, and galilean
        # with m = 1 to return the whole quotient as realizable
        c = classify(alg)
        message = "^m = %d is not the largest acceleration level of %s$" % (m, name)
        for check in (verify_milne_structure, realizable_subspace):
            with pytest.raises(ValueError, match=message):
                check(c, m)


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
        xi = classify(g).representatives[0]
        bad = TwoCochain.from_labels(g, {("b1", "d1"): RatPoly.t()})
        for x1, x2 in ((bad, bad), (xi, bad), (bad, xi)):
            with pytest.raises(ValueError, match="not a cocycle"):
                are_equivalent(x1, x2)

    def test_mismatched_algebras_rejected(self):
        xi = classify(galilean()).representatives[0]
        other = classify(milne(1)).representatives[0]
        for x1, x2 in ((xi, other), (other, xi)):
            with pytest.raises(ValueError, match="different algebras"):
                are_equivalent(x1, x2)

    def test_algebras_that_share_only_labels_are_refused(self):
        # the Heisenberg algebra and the abelian one, both on tau, x, y, z
        labels = ["tau", "x", "y", "z"]
        heisenberg = LieAlgebra(labels, {(1, 2): [(3, 1)]}, time_index=0)
        abelian = LieAlgebra(labels, {}, time_index=0)
        zero_a, zero_b = TwoCochain.zero(heisenberg), TwoCochain.zero(abelian)
        c_b = TwoCochain.from_labels(abelian, {("x", "y"): 1})
        for x1, x2 in ((zero_a, c_b), (c_b, zero_a), (zero_a, zero_b)):
            for call in (are_equivalent, operator.add, operator.sub, operator.eq):
                with pytest.raises(ValueError, match="different algebras"):
                    call(x1, x2)
        with pytest.raises(ValueError, match="different algebras"):
            OneCochain.zero(heisenberg) == OneCochain.zero(abelian)
        # an equal algebra built again is the same algebra
        again = LieAlgebra.from_dict(heisenberg.to_dict())
        c_a = TwoCochain.from_labels(heisenberg, {("tau", "x"): 1})
        assert TwoCochain.zero(again) == zero_a and c_a + TwoCochain.zero(again) == c_a
        result = are_equivalent(TwoCochain.zero(again), c_a)
        assert result and coboundary(result.witness) == c_a

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


# Bug B's algebra: tau central on the Heisenberg algebra
CENTRAL_TIME = {"labels": ["tau", "x", "y", "z"], "time_generator": "tau",
                "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "1"]]}]}


def equivalence_queries(queries=300, seed=2020):
    """Seeded (x1, x2) pairs on galilean, milne:1..3 and Bug B's algebra:
    x1 a rational combination of classes, x2 = x1 + d lambda, plus a class
    a third of the time; about 2/3 are equivalent, a few have x1 == x2."""
    rng = random.Random(seed)
    algs = [galilean(), milne(1), milne(2), milne(3), LieAlgebra.from_dict(CENTRAL_TIME)]
    reps = [classify(alg).representatives for alg in algs]
    for _ in range(queries):
        s = rng.randrange(len(algs))
        alg, classes = algs[s], reps[s]
        x1 = TwoCochain.zero(alg)
        for rep in classes:
            x1 = x1 + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * rep
        comps = [RatPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(rng.randint(0, 3))]) for _ in range(alg.dim)]
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        x2 = x1 + coboundary(OneCochain(alg, comps))
        if classes and rng.random() < 1 / 3:
            x2 = x2 + rng.choice(classes)
        yield x1, x2


class TestColumnSpaceQuery:
    # sha256 of the verdicts and witnesses of equivalence_queries(), as the
    # TwoCochain-based query gave them before it ran on coefficient rows
    DIGEST = "7d857c6d1c01bd6ec6f55479796e170927f7d8a901e944358a2ffdbbe905ce38"

    def test_verdicts_and_witnesses_keep_their_digest(self):
        digest = hashlib.sha256()
        for q, (x1, x2) in enumerate(equivalence_queries()):
            result = are_equivalent(x1, x2)
            witness = None if result.witness is None else \
                [p.to_strings() for p in result.witness.components]
            digest.update(repr((q, x1.alg.name, result.equivalent, witness)).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_every_positive_verdict_is_witnessed(self):
        verdicts = []
        for x1, x2 in equivalence_queries():
            result = are_equivalent(x1, x2)
            verdicts.append(result.equivalent)
            if result:
                assert coboundary(result.witness) == x2 - x1
        assert 150 < sum(verdicts) < 250

    def test_a_perturbed_weight_fails_the_witness_check(self, monkeypatch):
        solve = linalg.solve_augmented

        def perturbed(aug, target):
            weights = solve(aug, target)
            first = min(weights)
            weights[first] += 1
            return weights

        g = galilean()
        xi = classify(g).representatives[0]
        lam = OneCochain.from_labels(g, {"b1": RatPoly((1, 2)), "d2": RatPoly.t()})
        monkeypatch.setattr(linalg, "solve_augmented", perturbed)
        with pytest.raises(AssertionError, match="witness verification failed"):
            are_equivalent(xi, xi + coboundary(lam))

    def test_an_input_of_degree_max_columns_is_refused(self):
        # every two-cochain of an abelian algebra without a time generator is
        # a cocycle; at power MAX_COLUMNS the column of pair (x, y) would be
        # that of the constant on (x, z), so the query is refused even where
        # the top degrees cancel
        alg = LieAlgebra(["x", "y", "z"], {}, time_index=None, name="abelian")
        top = TwoCochain.from_labels(alg, {("x", "y"): RatPoly.monomial(MAX_COLUMNS)})
        low = TwoCochain.from_labels(alg, {("x", "z"): 1})
        for x1, x2 in ((top, top + low), (top + low, top), (TwoCochain.zero(alg), top)):
            with pytest.raises(ColumnLimitError):
                are_equivalent(x1, x2)
        below = TwoCochain.from_labels(alg, {("x", "y"): RatPoly.monomial(MAX_COLUMNS - 1)})
        result = are_equivalent(below, below + low)
        assert not result and result.witness is None


class TestAutoModeMechanics:
    def test_two_generator_time_ladder(self):
        alg = LieAlgebra(["x", "tau"], {}, time_index=1, name="toy")
        c = classify(alg)
        # single pair (x, tau), and h = span(x) has no two-cochains: every
        # cocycle c(t) on (x, tau) is d of an antiderivative of c as Lam_x.
        # At an explicit degree D its t^D term needs a witness of degree
        # D + 1, which auto mode admits (k1 = 1)
        assert c.quotient_dim == 0
        assert c.degree_used == 2
        assert classify(alg, degree=2).quotient_dim == 1

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


class TestTimeComponentRefused:
    # [x, y] = tau: the time generator is central and also a bracket, so
    # bold(tau) = -d/dt is no representation and d1 d1 != 0
    @staticmethod
    def central_time():
        return LieAlgebra(["tau", "x", "y", "z"], {(1, 2): [(0, 1)]}, time_index=0,
                          name="central-time")

    def test_jacobi_holds(self):
        assert self.central_time().validate() == []

    def test_classify_raises_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(linalg, "nullspace", None)
        with pytest.raises(ValueError, match=r"\[x, y\].*tau"):
            classify(self.central_time())
        with pytest.raises(ValueError, match=r"\[x, y\]"):
            classify(self.central_time(), degree=2)

    def test_are_equivalent_raises(self):
        alg = self.central_time()
        zero = TwoCochain.zero(alg)
        with pytest.raises(ValueError, match=r"\[x, y\]"):
            are_equivalent(zero, zero)

    def test_from_dict_names_the_bracket(self):
        spec = self.central_time().to_dict()
        with pytest.raises(ValueError, match=r"bracket \[x, y\].*time generator tau"):
            LieAlgebra.from_dict(spec)


class TestCentralTimeTruncation:
    # [x, y] = z with tau central: H^2 over R[t] has dimension 2, but every
    # truncation to degree <= D adds two classes at t^D that are coboundaries
    # of one-cochains of degree D + 1 (Bug B); auto mode takes its witnesses
    # one degree higher (k1 = 1), so it counts only the two
    SPEC = {"labels": ["tau", "x", "y", "z"], "time_generator": "tau",
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "1"]]}]}

    def test_every_class_is_nontrivial(self):
        alg = LieAlgebra.from_dict(self.SPEC)
        c = classify(alg)
        assert c.quotient_dim == 2
        zero = TwoCochain.zero(alg)
        assert not any(are_equivalent(zero, rep) for rep in c.representatives)


class TestNilpotentWitnessDegree:
    # ad tau is one nilpotent Jordan block on the abelian ideal (x0, x1), so
    # the top degrees of lambda cancel in d lambda: lambda = (x0: t^k,
    # x1: -t^(k+1)/(k+1)) has d lambda = -k t^(k-1) on (tau, x0) alone, and
    # a witness for it needs degree k + 1 = deg + 2 (Bug C); k1 = 2 here
    SPEC = {"labels": ["tau", "x0", "x1"], "time_generator": "tau",
            "brackets": [{"lhs": "tau", "rhs": "x1", "out": [["x0", "1"]]}]}

    @staticmethod
    def delta(k):
        alg = LieAlgebra.from_dict(TestNilpotentWitnessDegree.SPEC)
        lam = OneCochain(alg, (RatPoly.zero(), RatPoly.monomial(k),
                               RatPoly.monomial(k + 1, Fraction(-1, k + 1))))
        return coboundary(lam)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_coboundary_is_a_cocycle_of_degree_k_minus_1(self, k):
        delta = self.delta(k)
        assert is_cocycle(delta)
        want = {("tau", "x0"): RatPoly.monomial(k - 1, -k)}
        assert delta == TwoCochain.from_labels(delta.alg, want)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_coboundary_is_equivalent_to_zero(self, k):
        delta = self.delta(k)
        result = are_equivalent(TwoCochain.zero(delta.alg), delta)
        assert result and coboundary(result.witness) == delta

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_coboundary_is_equivalent_to_zero(self, data):
        # R^n x| R tau with any, triangular or nilpotent ad tau: whatever
        # cancels in d lambda, the witness search reaches some lambda'
        alg = abelian_extension(draw_matrix(data))
        coeffs = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction), max_size=4)
        comps = [RatPoly(data.draw(coeffs)) for _ in range(alg.dim)]
        comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        delta = coboundary(OneCochain(alg, comps))
        result = are_equivalent(TwoCochain.zero(alg), delta)
        assert result and coboundary(result.witness) == delta


class TestDeterminism:
    def test_repeated_runs_identical(self):
        a = json.dumps(classify(milne(2)).to_jsonable(), sort_keys=True)
        b = json.dumps(classify(milne(2)).to_jsonable(), sort_keys=True)
        assert a == b


# -- the sparse operators against the RatPoly oracles ----------------------

def rescaled_copy(alg):
    """alg as a JSON algebra with relabelled generators, generator k scaled
    by (k+2)/3, so its structure constants are non-integer rationals."""
    spec = alg.to_dict()
    scale = {lab: Fraction(k + 2, 3) for k, lab in enumerate(spec["labels"])}
    name = {lab: "x%02d" % ((7 * k) % len(spec["labels"]))
            for k, lab in enumerate(spec["labels"])}
    brackets = [{"lhs": name[e["lhs"]], "rhs": name[e["rhs"]],
                 "out": [[name[k], str(scale[e["lhs"]] * scale[e["rhs"]] * Fraction(c)
                                       / scale[k])] for k, c in e["out"]]}
                for e in spec["brackets"]]
    return LieAlgebra.from_dict({"labels": [name[lab] for lab in spec["labels"]],
                                 "brackets": brackets,
                                 "time_generator": name[spec["time_generator"]]})


CHECK_ALGEBRAS = [galilean(), milne(2), rescaled_copy(milne(1)), phase_space(2)]


@functools.lru_cache(maxsize=None)
def cocycle_basis(alg, D):
    return _solve(alg, D, D).cocycle_rows


def oracle_algebras():
    return ([galilean()] + [milne(m) for m in (1, 2, 3, 4)]
            + [phase_space(2), rescaled_copy(milne(2))])


class TestOperators:
    def test_rescaled_copy_has_non_integer_constants(self):
        alg = rescaled_copy(milne(2))
        assert any(c.denominator > 1 for i, j in alg.pairs()
                   for _, c in alg.bracket_basis(i, j))

    def test_coboundary_rows_match_coboundary_of_each_unit(self):
        for alg in oracle_algebras():
            cx = _complex(alg)
            for D in range(4):
                units, rows = cx.units(D), cx.coboundary_rows(D)
                assert len(units) == len(rows)
                for (k, u), row in zip(units, rows):
                    comps = [RatPoly.zero()] * alg.dim
                    comps[k] = RatPoly.monomial(u)
                    want = oracle_coboundary(OneCochain(alg, comps))
                    # to_row holds the coefficients times their denominator
                    assert row == {c: Fraction(v, want._den)
                                   for c, v in cx.to_row(want).items()}, (alg.name, D, k, u)

    def test_unit_image_row_is_the_same_at_every_bound(self):
        # one column numbering whatever the bound: a unit t^u e_k has one row
        for alg in oracle_algebras():
            cx = _complex(alg)
            by_bound = [dict(zip(cx.units(D), cx.coboundary_rows(D))) for D in range(5)]
            for D, rows in enumerate(by_bound):
                for unit, row in rows.items():
                    assert all(later[unit] == row for later in by_bound[D:]), (alg.name, unit)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cached_cocycle_check_agrees_with_is_cocycle(self, data):
        # a random combination of cocycles, plus up to two random
        # coefficients that mostly break the cocycle condition
        alg = data.draw(st.sampled_from(CHECK_ALGEBRAS))
        D = data.draw(st.integers(min_value=0, max_value=3))
        columns = _complex(alg).columns(D)
        basis = cocycle_basis(alg, D)
        small = st.integers(min_value=-3, max_value=3)
        row = {}
        for vec in basis:
            coeff = data.draw(small)
            for c, v in vec.items():
                row[c] = row.get(c, 0) + coeff * v
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            col = data.draw(st.sampled_from(columns))
            row[col] = row.get(col, 0) + data.draw(small)
        xi = _complex(alg).to_cochain(alg, {c: Fraction(v) for c, v in row.items() if v})
        assert is_cocycle(xi) == oracle_is_cocycle(xi)


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_coboundary_agrees_with_oracle(self, data):
        alg = data.draw(st.sampled_from(CHECK_ALGEBRAS))
        coeffs = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction), max_size=4)
        comps = [RatPoly(data.draw(coeffs)) for _ in range(alg.dim)]
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        lam = OneCochain(alg, comps)
        assert coboundary(lam) == oracle_coboundary(lam)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_jacobi_residual_agrees_with_oracle(self, data):
        alg = data.draw(st.sampled_from(CHECK_ALGEBRAS))
        coeffs = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction), max_size=3)
        xi = TwoCochain(alg, {p: RatPoly(data.draw(coeffs)) for p in alg.pairs()})
        triple = data.draw(st.permutations(range(alg.dim)))[:3]
        assert jacobi_residual(xi, *triple) == oracle_residual(xi, *triple)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_nullspace_against_dense_rank(self, data):
        ncols = data.draw(st.integers(min_value=1, max_value=7))
        entry = st.integers(min_value=-2, max_value=2)
        dense = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                   max_size=6))
        rows = [{c: Fraction(v) for c, v in enumerate(r) if v} for r in dense]
        basis = linalg.nullspace(rows, range(ncols))
        assert len(basis) == ncols - dense_rank(dense)
        for vec in basis:
            assert all(sum(r.get(c, 0) * v for c, v in vec.items()) == 0 for r in rows)
        # independent: the basis vectors stack to full rank
        assert dense_rank([[vec.get(c, 0) for c in range(ncols)] for vec in basis]) \
            == len(basis)


SPLIT_OUTPUT = LieAlgebra.from_dict({
    "labels": ["x", "y", "z", "w"],
    "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "1/2"], ["w", "1"]]}]})


def transposed_witness(x1, x2):
    """The witness of x2 - x1 from the transposed d1 system: one equation
    per coefficient column, one unknown per unit one-cochain, the free
    unknowns at zero; None when x2 - x1 is no coboundary."""
    alg, delta = x1.alg, x2 - x1
    D = max(delta.max_degree() + 1, 1)
    cx = _complex(alg)
    units = cx.units(D)
    eq_rows = {}
    for ucol, img in enumerate(cx.coboundary_rows(D)):
        for ecol, v in img.items():
            eq_rows.setdefault(ecol, {})[ucol] = v
    rhs = {c: Fraction(v, delta._den) for c, v in cx.to_row(delta).items()}
    rows = [{**eq_rows.get(ecol, {}), **({len(units): rhs[ecol]} if ecol in rhs else {})}
            for ecol in set(eq_rows) | set(rhs)]
    coeffs = [[Fraction(0)] * (D + 1) for _ in range(alg.dim)]
    for r in linalg.rref(rows):
        lead = min(r)
        if lead == len(units):
            return None
        k, u = units[lead]
        coeffs[k][u] = r.get(len(units), Fraction(0))
    return OneCochain(alg, [RatPoly(c) for c in coeffs])


class TestTransposedOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_witness_matches_the_transposed_solve(self, data):
        # galilean, milne:2, phase-space:2, a JSON algebra with non-integral
        # structure constants, and one whose z and w units have proportional
        # nonzero images, so the free unit must be the later one
        alg = data.draw(st.sampled_from(CHECK_ALGEBRAS + [SPLIT_OUTPUT]))
        reps = classify(alg).representatives
        x1 = data.draw(st.sampled_from(reps + [TwoCochain.zero(alg)]))
        coeffs = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction), max_size=4)
        comps = [RatPoly(data.draw(coeffs)) for _ in range(alg.dim)]
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        x2 = x1 + coboundary(OneCochain(alg, comps))
        if reps and data.draw(st.booleans()):
            x2 = x2 + data.draw(st.sampled_from(reps))
        result = are_equivalent(x1, x2)
        want = transposed_witness(x1, x2)
        assert result.equivalent == (want is not None)
        assert result.witness == want


class TestOperatorCache:
    def test_second_query_returns_the_same_witness(self):
        g = milne(2)
        xi = classify(g).representatives[0]
        lam = OneCochain.from_labels(g, {"d0_1": RatPoly((1, 2)), "d2_3": RatPoly.t(),
                                         "a12": RatPoly((0, 0, 5)), "tau": 3})
        target = xi + coboundary(lam)
        first, second = are_equivalent(xi, target), are_equivalent(xi, target)
        assert first.equivalent and second.witness is first.witness
        assert coboundary(second.witness) == coboundary(lam)

    def test_equal_algebras_do_not_share_operators(self):
        a, b = milne(2), milne(2)
        assert _complex(a) is _complex(a)
        assert _complex(b) is not _complex(a)
        xa = classify(a).representatives[1]
        xb = classify(b).representatives[1]
        lam = OneCochain.from_labels(a, {"d1_2": RatPoly((2, -1))})
        wa = are_equivalent(xa, xa + coboundary(lam)).witness
        wb = are_equivalent(xb, xb + coboundary(OneCochain(b, lam.components))).witness
        assert ("d1", 2) in a._memo and ("d1", 2) in b._memo
        assert a._memo["d1", 2] is not b._memo["d1", 2]
        assert a._memo["results"] is not b._memo["results"]
        assert wa is not wb
        assert wa.alg is a and wb.alg is b
        assert wa.components == wb.components

    # sha256 of classify's report on Bug B's algebra
    CENTRAL_TIME_DIGEST = "e5f214aadf416edf00d9e8ebef28ed7739bf44ab4cde54878dde7ddfb1b04d1b"

    def test_classify_keeps_no_d1_echelon_and_a_query_keeps_its_own(self):
        # Bug B's algebra: classify solves at degree 2 with witnesses of
        # degree 3 and keeps nothing of that elimination; a query whose
        # delta has degree 1 searches, and keeps, witnesses of degree 1 + k1
        alg = LieAlgebra.from_dict(TestCentralTimeTruncation.SPEC)
        c = classify(alg)
        assert (c.degree_used, _k1(alg)) == (2, 1)
        assert not any(isinstance(key, tuple) and key[0] == "d1" for key in alg._memo)
        assert hashlib.sha256(report_bytes(c).encode()).hexdigest() == self.CENTRAL_TIME_DIGEST
        xi = c.representatives[0]
        lam = OneCochain.from_labels(alg, {"x": RatPoly((0, 0, 1)), "z": RatPoly.t()})
        target = xi + coboundary(lam)
        assert (target - xi).max_degree() == 1
        result = are_equivalent(xi, target)
        assert result and coboundary(result.witness) == target - xi
        assert [key for key in alg._memo if isinstance(key, tuple)] == [("d1", 2)]
        assert list(alg._memo["results"].values()) == [result]

    def test_operators_are_freed_with_the_algebra(self):
        alg = milne(2)
        classify(alg)
        ref = weakref.ref(_complex(alg))
        del alg
        assert ref() is None

    def test_cached_echelons_and_witnesses_are_freed_with_the_algebra(self):
        alg = milne(2)
        xi = classify(alg).representatives[0]
        lam = OneCochain.from_labels(alg, {"d1_2": RatPoly((2, -1))})
        result = are_equivalent(xi, xi + coboundary(lam))
        assert not are_equivalent(xi, 2 * xi)
        keys = [key for key in alg._memo if isinstance(key, tuple) and key[0] == "d1"]
        assert sorted(keys) == [("d1", 2), ("d1", 3)]
        kept = [weakref.ref(alg._memo[key]) for key in keys + ["results"]]
        algebra = weakref.ref(alg)
        shared = weakref.ref(result)
        del alg, xi, lam, result
        # a live witness would hold its algebra
        assert algebra() is None and shared() is None
        assert all(ref() is None for ref in kept)

    @pytest.mark.parametrize("build", [galilean, functools.partial(milne, 2)],
                             ids=["galilean", "milne:2"])
    def test_interleaved_degrees_match_a_fresh_instance_in_reverse(self, build):
        # a cached echelon row changed by one query would change a later one
        def queries(alg):
            reps = classify(alg).representatives
            out = []
            for n, degree in enumerate((0, 2, 1, 2, 0, 1, 2, 0)):
                comps = [RatPoly([(n + k + u) % 5 - 2 for u in range(degree + 1)])
                         for k in range(alg.dim)]
                comps[alg.time_index] = RatPoly.constant(n - 3)
                x1 = reps[n % len(reps)]
                x2 = x1 + coboundary(OneCochain(alg, comps))
                out.append((x1, x2))
                out.append((x1, x2 + reps[(n + 1) % len(reps)]))
            return out

        def answers(alg, order):
            pairs = queries(alg)
            got = {i: are_equivalent(*pairs[i]) for i in order}
            assert {("d1", D) for D in (1, 2, 3)} <= set(alg._memo)
            return [(got[i].equivalent, got[i].witness and got[i].witness.components)
                    for i in range(len(pairs))]

        n = len(queries(build()))
        forward = answers(build(), range(n))
        assert forward == answers(build(), reversed(range(n)))
        assert {verdict for verdict, _ in forward} == {True, False}

    def test_negative_results_are_one_falsy_value(self):
        reps = classify(milne(2)).representatives
        results = [are_equivalent(a, b) for a, b in itertools.combinations(reps, 2)]
        results.append(are_equivalent(reps[0], 2 * reps[0]))
        assert all(r == results[0] and not r and r.witness is None for r in results)
        assert results[0] == EquivalenceResult(False, None)

    def test_shared_results_are_held_only_by_callers(self):
        g = galilean()
        xi = classify(g).representatives[0]
        targets = [xi + coboundary(OneCochain.from_labels(g, {"b1": RatPoly((n, 1)), "tau": n}))
                   for n in range(3)]
        results = [are_equivalent(xi, t) for t in targets]
        shared = g._memo["results"]
        assert len(shared) == 3
        assert are_equivalent(xi, targets[1]) is results[1]
        del results[1]
        assert len(shared) == 2
        again = are_equivalent(xi, targets[1])
        assert coboundary(again.witness) == targets[1] - xi
        del results, again
        assert len(shared) == 0

    def test_a_shared_witness_cannot_be_changed(self):
        g = galilean()
        xi = classify(g).representatives[0]
        lam = OneCochain.from_labels(g, {"b1": RatPoly((1, 2))})
        result = are_equivalent(xi, xi + coboundary(lam))
        witness = result.witness
        with pytest.raises(AttributeError):
            witness.components = OneCochain.zero(g).components
        with pytest.raises(AttributeError):
            witness.alg = galilean()
        with pytest.raises(AttributeError):
            result.witness = None
        assert are_equivalent(xi, xi + coboundary(lam)).witness is witness
        assert coboundary(witness) == coboundary(lam)

    def test_validate_runs_once_per_instance(self, monkeypatch):
        calls = []
        jacobi = LieAlgebra._jacobi_violations
        monkeypatch.setattr(LieAlgebra, "_jacobi_violations",
                            lambda alg: calls.append(alg) or jacobi(alg))
        g = galilean()
        assert g.validate() == [] and g.validate() == []
        classify(g)
        assert calls == [g]
        galilean().validate()
        assert len(calls) == 2


class TestDegreeBound:
    def test_oversized_degree_refused(self):
        with pytest.raises(ColumnLimitError, match="limit is %d" % MAX_COLUMNS):
            classify(galilean(), degree=10 ** 9)

    def test_oversized_algebra_refused_before_validation(self, monkeypatch):
        # degree 1, below every bound auto mode solves at, already exceeds
        # the limit, so the O(dim^3) Jacobi check must not run
        def fail(self):
            raise AssertionError("validate() ran before the column check")
        alg = milne(45)
        monkeypatch.setattr(LieAlgebra, "_jacobi_violations", fail)
        with pytest.raises(ColumnLimitError, match="degree 1 needs"):
            classify(alg)

    @pytest.mark.parametrize("family, build, index, degree", [
        ("milne", milne, 45, "auto"), ("milne", milne, 3, 300),
        ("phase-space", phase_space, 71, "auto"), ("phase-space", phase_space, 3, 2000)])
    def test_family_refused_as_classify_refuses_it(self, family, build, index, degree):
        # the closed-form count gives classify's own first ColumnLimitError
        with pytest.raises(ColumnLimitError) as built:
            classify(build(index), degree=degree)
        with pytest.raises(ColumnLimitError) as unbuilt:
            check_family_columns(family, index, degree)
        assert str(unbuilt.value) == str(built.value)

    @pytest.mark.parametrize("degree", [2.7, -0.5, True, False, "3", None, "AUTO", 2.0])
    def test_non_integer_degree_refused_at_every_door(self, degree):
        # int() would read these as 2, 0, 1, 0, 3, an error, an error and 2
        message = '^degree must be "auto" or an integer, not %s$' % re.escape(repr(degree))
        for door in (lambda: classify(milne(1), degree=degree),
                     lambda: check_columns("milne:1", 10, True, degree),
                     lambda: check_family_columns("milne", 1, degree)):
            with pytest.raises(ValueError, match=message):
                door()

    @pytest.mark.parametrize("family, build", [("milne", milne),
                                               ("phase-space", phase_space)])
    def test_family_within_limit_passes(self, family, build):
        for index in range(1, 8):
            check_family_columns(family, index)
            assert build(index).dim == {"milne": 3 * index + 7,
                                        "phase-space": 2 * index}[family]

    def test_no_admitted_degree_reaches_the_numbering_width(self):
        # column(pair, power) stays in its pair's block only for powers
        # below MAX_COLUMNS; a single pair admits exactly those
        _column_count(2, "x", MAX_COLUMNS - 1)
        for dim in range(2, 200):
            for degree in (MAX_COLUMNS, MAX_COLUMNS + 1, 2 * MAX_COLUMNS, 10 ** 9):
                with pytest.raises(ColumnLimitError):
                    _column_count(dim, "x", degree)


# -- auto mode and explicit degrees against per-degree full solves ----------

def fraction_reduce(vec, reduced_rows):
    """vec less multiples of RREF rows, zero at their pivot columns, in
    Fraction arithmetic."""
    out = dict(vec)
    for r in reduced_rows:
        p = min(r)
        coef = out.get(p)
        if not coef:
            continue
        for c, v in r.items():
            nv = out.get(c, Fraction(0)) - coef * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)
    return out


def coboundaries_in(alg, D, witness):
    """RREF of the coboundaries with entries of degree <= D among the d1
    images of the units of degree <= witness: a Fraction elimination that
    leads at the columns of powers above D first, whose rows leading at a
    power up to D hold no higher power."""
    def key(col):
        return (col % MAX_COLUMNS <= D, col)

    pivots = {}
    for row in _complex(alg).coboundary_rows(witness):
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row, key=key)
            if lead not in pivots:
                pivots[lead] = row
                break
            f = row[lead] / pivots[lead][lead]
            for c, v in pivots[lead].items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c)
    return linalg.rref([r for lead, r in pivots.items() if key(lead)[0]])


def full_solve(alg, D, witness=None):
    """Reference solve at bound D from the whole constraint list: the
    cocycle nullspace, the coboundaries of witnesses of degree `witness`
    (D by default) that land in V_D, the reduction in Fractions and its
    RREF."""
    witness = D if witness is None else witness
    cx = _complex(alg)
    _columns(alg, witness)
    rows = []
    for bracket, deriv, _, _ in cx.triples.values():
        for u in range(D + 1):
            row = {column(pidx, u): c for pidx, c in bracket}
            if deriv is not None and u < D:
                row[column(deriv[0], u + 1)] = deriv[1] * (u + 1)
            if row:
                rows.append(row)
    z_vecs = linalg.nullspace(rows, cx.columns(D))
    b_rows = coboundaries_in(alg, D, witness)
    reduced = [fraction_reduce(v, b_rows) for v in z_vecs]
    return _DegreeSolve(D, z_vecs, len(b_rows), linalg.rref([r for r in reduced if r]))


def escalation_oracle(alg):
    """The plateau escalation, one full solve per bound: the report at the
    first bound from 2 on whose quotient dimension repeats the previous
    bound's, or at degree 0 without a time generator."""
    solve = full_solve(alg, 0)
    if alg.time_index is None:
        return _classification(alg, solve)
    prev = len(full_solve(alg, 1).rep_rows)
    for D in itertools.count(2):
        solve = full_solve(alg, D)
        if len(solve.rep_rows) == prev:
            return _classification(alg, solve)
        prev = len(solve.rep_rows)


def report_bytes(c):
    return json.dumps(c.to_jsonable(), sort_keys=True)


def assert_auto_matches_escalation(alg):
    # with k1 = 0 the certified bound is where the plateau confirms, and
    # auto mode is the explicit solve there
    got = classify(alg)
    assert _k1(alg) == 0
    assert report_bytes(got) == report_bytes(escalation_oracle(alg))
    assert report_bytes(classify(alg, degree=got.degree_used)) == report_bytes(got)


def abelian_extension(matrix):
    """h = R^n abelian, extended by tau acting on it as `matrix`
    ([tau, x_i] = sum_j matrix[j][i] x_j); Jacobi holds for any matrix."""
    n = len(matrix)
    labels = ["x%d" % (i + 1) for i in range(n)]
    brackets = []
    for i in range(n):
        out = [[labels[j], str(matrix[j][i])] for j in range(n) if matrix[j][i]]
        if out:
            brackets.append({"lhs": "tau", "rhs": labels[i], "out": out})
    return LieAlgebra.from_dict({"labels": ["tau"] + labels, "brackets": brackets,
                                 "time_generator": "tau"})


def draw_matrix(data, shapes=("any", "triangular", "nilpotent")):
    """A rational n x n matrix, n <= 4, of a drawn shape: any, upper
    triangular, or strictly upper triangular (nilpotent)."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    shape = data.draw(st.sampled_from(shapes))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return [[data.draw(entry) if shape == "any" or j > i
             or (shape == "triangular" and i == j) else 0
             for j in range(n)] for i in range(n)]


class TestDegreeLadder:
    # the ladder of per-degree full solves, each from the whole constraint
    # list, as the oracle of auto mode and of explicit degrees
    @pytest.mark.parametrize("build", [
        galilean, *[functools.partial(milne, m) for m in range(1, 7)],
        *[functools.partial(phase_space, n) for n in (1, 2, 3)]],
        ids=["galilean", *["milne:%d" % m for m in range(1, 7)],
             *["phase-space:%d" % n for n in (1, 2, 3)]])
    def test_builtin_matches_the_escalation(self, build):
        assert_auto_matches_escalation(build())

    def test_relabelled_rational_algebras_match_the_escalation(self):
        for base in (galilean(), milne(1), milne(2), milne(3)):
            assert_auto_matches_escalation(rescaled_copy(base))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_abelian_ideal_with_rational_derivation(self, data):
        # from the certified bound D on, the full solve with witnesses of
        # degree D + n, n = dim h >= k1, gives auto mode's quotient
        alg = abelian_extension(draw_matrix(data))
        c = classify(alg)
        for D in range(c.degree_used, c.degree_used + 3):
            assert len(full_solve(alg, D, D + alg.dim - 1).rep_rows) == c.quotient_dim, D

    def test_coboundary_echelon_spans_the_unit_images(self):
        # the solve reduces against its echelon where the full solve uses
        # the RREF of the coboundaries that land in V_D: same pivots, same span
        algebras = oracle_algebras() + [phase_space(1), abelian_extension([[0, 1], [0, 0]]),
                                        LieAlgebra.from_dict(TestCentralTimeTruncation.SPEC)]
        for alg in algebras:
            for D in range(4):
                for witness in (D, D + 2):
                    echelon = _coboundary_echelon(alg, witness, D)
                    want = coboundaries_in(alg, D, witness)
                    assert sorted(echelon) == [min(r) for r in want], (alg.name, D, witness)
                    for lead, row in echelon.items():
                        assert min(row) == lead and not fraction_reduce(row, want)

    def test_explicit_degree_matches_the_full_solve(self):
        for alg in (galilean(), milne(2), rescaled_copy(milne(2)), phase_space(2)):
            for D in (0, 1, 3, 5):
                assert _solve(alg, D, D) == full_solve(alg, D)
        alg = LieAlgebra.from_dict(TestCentralTimeTruncation.SPEC)
        for D in (0, 1, 3):
            assert _solve(alg, D, D + 2) == full_solve(alg, D, D + 2)

    def test_flipped_time_term_escapes_the_cocycle_space(self, monkeypatch):
        # with the sign of the time-grading term of d1 flipped, the unit
        # images of power >= 1 are no cocycles: every bound that holds one
        # must refuse through the solve's rank check, auto mode included
        d1_unit = _Complex.d1_unit

        def flipped(self, k, u):
            return [(pidx, power, -c if power < u else c)
                    for pidx, power, c in d1_unit(self, k, u)]
        monkeypatch.setattr(_Complex, "d1_unit", flipped)
        for run in (lambda: classify(galilean()), lambda: classify(milne(2), degree=3),
                    lambda: _solve(galilean(), 1, 1)):
            with pytest.raises(AssertionError,
                               match="coboundary basis escapes the cocycle space"):
                run()
        assert classify(galilean(), degree=0).quotient_dim == 1

    def test_classify_peak_memory(self):
        # the solve holds echelons of rank-many rows and never the whole
        # constraint list of a bound, which alone peaks at about 3.6 MB here
        alg = milne(5)
        tracemalloc.start()
        try:
            classify(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_500_000


class TestCertificate:
    # ad tau on h = R^n and q* = dim H^2(g; R[t]): the semidirect products
    # on which the plateau escalation over-counted
    TABLE = [([[0, 0], [0, 0]], 1), ([[0, 1], [0, 0]], 1),
             ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 3), ([[0, 0, 0], [0, 1, 0], [0, 0, -1]], 1),
             ([[1, 0], [0, -1]], 1), ([[1, 0], [0, 2]], 0)]

    def test_auto_mode_gives_q_star(self):
        # the table, Bug B's algebra (tau central on the Heisenberg algebra)
        # and the (x, tau) toy; every class is nontrivial, and the full
        # solve agrees from the certified bound on
        algebras = ([abelian_extension(m) for m, _ in self.TABLE]
                    + [LieAlgebra.from_dict(TestCentralTimeTruncation.SPEC),
                       LieAlgebra(["x", "tau"], {}, time_index=1, name="toy")])
        results = [classify(alg) for alg in algebras]
        assert [c.quotient_dim for c in results] == [q for _, q in self.TABLE] + [2, 0]
        for alg, c in zip(algebras, results):
            zero = TwoCochain.zero(alg)
            assert not any(are_equivalent(zero, rep) for rep in c.representatives)
            for D in range(c.degree_used, c.degree_used + 3):
                assert len(full_solve(alg, D, D + alg.dim - 1).rep_rows) == c.quotient_dim

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_triangular_derivation_counts_zero_sums(self, data):
        # L on the two-forms of R^n has the eigenvalues -(a_ii + a_jj), i < j
        matrix = draw_matrix(data, ("triangular", "nilpotent"))
        want = sum(1 for i, j in itertools.combinations(range(len(matrix)), 2)
                   if matrix[i][i] + matrix[j][j] == 0)
        assert classify(abelian_extension(matrix)).quotient_dim == want

    def test_builtin_certificates(self):
        # q* = m(m+1)/2 classes, lifted to degree N - 1 = 2m - 2
        assert (_certificate(galilean()), _k1(galilean())) == ((1, 1), 0)
        for m in range(1, 6):
            assert _certificate(milne(m)) == (m * (m + 1) // 2, max(1, 2 * m - 1))
            assert _k1(milne(m)) == 0

    @pytest.mark.parametrize("m, degree", [(9, 17), (12, 23)])
    def test_milne_beyond_8_needs_more_columns(self, m, degree):
        alg = milne(m)
        with pytest.raises(ColumnLimitError, match="degree %d needs" % degree):
            classify(alg)
        assert _certificate(alg) == (m * (m + 1) // 2, degree)


# -- invariance under a change of basis of h --------------------------------

def sheared_copy(alg, seed, entries=3):
    """alg in the basis e'_b = sum_a P[a][b] e_a, where P is the identity
    plus `entries` seeded rational entries above the diagonal among the
    generators other than tau: a sparse shear of h with tau fixed."""
    rng = random.Random(seed)
    n = alg.dim
    h = [k for k in range(n) if k != alg.time_index]
    P = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    for _ in range(entries):
        a, b = sorted(rng.sample(h, 2))
        P[a][b] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    # P is unitriangular: solve P x = y for e_k in the new basis, bottom up
    inverse = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for a in reversed(range(n)):
            inverse[a][k] = int(a == k) - sum(P[a][c] * inverse[c][k] for c in range(a + 1, n))
    brackets = []
    for a, b in alg.pairs():
        old = [Fraction(0)] * n  # [e'_a, e'_b] in the old basis
        for i in range(n):
            for j in range(n):
                if P[i][a] and P[j][b]:
                    for k, c in alg.bracket_basis(i, j):
                        old[k] += P[i][a] * P[j][b] * c
        out = [[alg.labels[l], str(sum(inverse[l][k] * old[k] for k in range(n)))]
               for l in range(n)]
        out = [term for term in out if term[1] != "0"]
        if out:
            brackets.append({"lhs": alg.labels[a], "rhs": alg.labels[b], "out": out})
    spec = alg.to_dict()
    spec["brackets"] = brackets
    return LieAlgebra.from_dict(spec)


class TestChangeOfBasis:
    @pytest.mark.parametrize("build", [galilean, functools.partial(milne, 1),
                                       functools.partial(milne, 2)],
                             ids=["galilean", "milne:1", "milne:2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_shear_keeps_dims_and_nontrivial_classes(self, build, seed):
        alg = build()
        sheared = sheared_copy(alg, seed)
        assert sheared.to_dict() != alg.to_dict()
        want, got = classify(alg), classify(sheared)
        for field in ("cocycle_dim", "coboundary_dim", "quotient_dim", "degree_used"):
            assert getattr(got, field) == getattr(want, field), field
        zero = TwoCochain.zero(sheared)
        assert not any(are_equivalent(zero, rep) for rep in got.representatives)

    @pytest.mark.parametrize("build", [galilean, functools.partial(milne, 1),
                                       functools.partial(milne, 2)],
                             ids=["galilean", "milne:1", "milne:2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_auto_mode_is_the_explicit_solve_at_its_degree(self, build, seed):
        sheared = sheared_copy(build(), seed)
        c = classify(sheared)
        assert _k1(sheared) == 0
        assert report_bytes(classify(sheared, degree=c.degree_used)) == report_bytes(c)

    # sha256 of report_bytes on a dense shear, recorded while every row
    # combination stripped its row's common factor: the rows' coefficients
    # grow here, which is where stripping only scaled rows could show
    DENSE_SHEAR_DIGEST = "5f55d2f2f220779ca42e92b86844ed10143d6e1272d11ad6e8ffb08da60813d2"

    def test_dense_shear_keeps_its_report(self):
        c = classify(sheared_copy(milne(2), 1, entries=20))
        assert hashlib.sha256(report_bytes(c).encode()).hexdigest() == self.DENSE_SHEAR_DIGEST


# -- the shifted h echelon against the whole constraint list ----------------

def oracle_cocycle_rows(cx, u, full):
    """Every triple's cocycle row at power u of t, h's and tau's alike; a
    full row adds the derivative term, which reads power u + 1."""
    rows = []
    for bracket, deriv, _, _ in cx.triples.values():
        row = {column(pidx, u): c for pidx, c in bracket}
        if full and deriv is not None:
            row[column(deriv[0], u + 1)] = deriv[1] * (u + 1)
        if row:
            rows.append(row)
    return rows


def oracle_solve(alg, D, witness):
    """The solve with every cocycle row of every power in one echelon: the
    full rows of powers below D, then those of power D without their
    derivative term, each h row eliminated again at every power."""
    cx = _complex(alg)
    constraints = linalg.echelon_int(itertools.chain.from_iterable(
        oracle_cocycle_rows(cx, u, full=u < D) for u in range(D + 1)))
    z_vecs = linalg.echelon_nullspace(constraints, cx.columns(D))
    coboundary = _coboundary_echelon(alg, witness, D)
    reduced = [linalg.reduce_mod_rows(v, coboundary) for v in z_vecs]
    return _DegreeSolve(D, z_vecs, len(coboundary), linalg.rref([r for r in reduced if r]))


# ad tau scales a by +1 and b by -1, c is central: not nilpotent on H^2(h)
EXPANDING = {"labels": ["tau", "a", "b", "c"], "time_generator": "tau",
             "brackets": [{"lhs": "a", "rhs": "tau", "out": [["a", "1"]]},
                          {"lhs": "b", "rhs": "tau", "out": [["b", "-1"]]}]}

TIMED_DEGREES = ("auto", 0, 1, 3, 5)
SHIFTED_SOLVE_CASES = (
    [("galilean", galilean, d) for d in TIMED_DEGREES]
    + [("milne:%d" % m, functools.partial(milne, m), d)
       for m in range(1, 6) for d in TIMED_DEGREES]
    + [("phase-space:%d" % n, functools.partial(phase_space, n), d)
       for n in (1, 2, 3) for d in (0, 2)]
    + [("central-heisenberg", functools.partial(LieAlgebra.from_dict, CENTRAL_TIME), d)
       for d in TIMED_DEGREES]
    + [("expanding", functools.partial(LieAlgebra.from_dict, EXPANDING), d)
       for d in TIMED_DEGREES]
    + [("sheared-milne:2", lambda: sheared_copy(milne(2), 1, entries=20), "auto")])


class TestShiftedHEchelon:
    @pytest.mark.parametrize("name, build, degree", SHIFTED_SOLVE_CASES,
                             ids=["%s-%s" % (name, d) for name, _, d in SHIFTED_SOLVE_CASES])
    def test_solve_matches_the_whole_constraint_list(self, name, build, degree):
        alg = build()
        if degree == "auto":
            D = classify(alg).degree_used
            witness = D + _k1(alg)
        else:
            D = witness = degree
        got, want = _solve(alg, D, witness), oracle_solve(alg, D, witness)
        assert got.cocycle_rows == want.cocycle_rows
        assert got.rep_rows == want.rep_rows
        assert got.coboundary_dim == want.coboundary_dim

    def test_h_rows_repeat_at_every_power(self):
        # an h triple's row at power u is its power-0 row moved u columns,
        # and the timed rows are the rest of the whole list
        cx = _complex(milne(2))
        h = cx.triple_rows(timed=False)
        assert h and h == cx.triple_rows(False, 0, full=True)
        for u in (0, 1, 4):
            assert cx.triple_rows(False, u) == [{c + u: v for c, v in row.items()} for row in h]
            for full in (True, False):
                shifted = [{c + u: v for c, v in row.items()} for row in h]
                got = shifted + cx.triple_rows(True, u, full)
                key = lambda row: sorted(row.items())  # noqa: E731
                assert sorted(got, key=key) == sorted(oracle_cocycle_rows(cx, u, full), key=key)

    def test_expanding_algebra_has_one_polynomial_class(self):
        # the classes along exp(+-t) are not polynomial
        c = classify(LieAlgebra.from_dict(EXPANDING))
        assert (c.quotient_dim, _certificate(c.alg)[0]) == (1, 1)


def oracle_certificate(alg):
    """_certificate with Z^2(h) from its own nullspace of h's cocycle rows
    in pair columns, not from the algebra's h echelon, and L from the
    explicit formula for ad tau on two-forms, not from the templates."""
    cx = _complex(alg)
    ti = alg.time_index
    h_pairs = [p for p, pair in enumerate(cx.pairs) if ti not in pair]
    in_h = set(h_pairs)
    z2 = linalg.nullspace([dict(bracket) for triple, (bracket, _, _, _) in cx.triples.items()
                           if ti not in triple], h_pairs)
    b2 = linalg.echelon_int(linalg.scale_to_int({p: v for p, v in cx.lowered.get(k, ())
                                                 if p in in_h})
                            for k in range(alg.dim) if k != ti)
    ad = {}  # i: (a, e_i-component of [tau, e_a])
    for a in range(alg.dim):
        for i, c in alg.bracket_basis(ti, a):
            ad.setdefault(i, []).append((a, c))
    # (L omega)(a, b) = -omega([tau, a], b) - omega(a, [tau, b]), by column
    L = {}
    for p in h_pairs:
        i, j = cx.pairs[p]
        for a, b, v in ([(a, j, -c) for a, c in ad.get(i, ())]
                        + [(i, b, -c) for b, c in ad.get(j, ())]):
            if a != b:
                L.setdefault(p, []).append((cx.rank[a, b], v) if a < b else (cx.rank[b, a], -v))
    return _generalized_kernel(z2, L, b2)


def oracle_k1(alg):
    """k1 from dense ranks over Fraction: the number of times ad tau must
    be applied to h before dim(ad_tau^k h + [h, h]) stops falling."""
    ti = alg.time_index
    if ti is None:
        return 0
    h = [k for k in range(alg.dim) if k != ti]

    def vector(terms):
        out = [Fraction(0)] * alg.dim
        for k, c in terms:
            out[k] += c
        return out

    derived = [vector(alg.bracket_basis(i, j)) for i, j in itertools.combinations(h, 2)]
    space = [vector([(a, 1)]) for a in h]
    rank, k = dense_rank(derived + space), 0
    while True:
        space = [vector((i, c * w) for a, w in enumerate(v) if w
                        for i, c in alg.bracket_basis(ti, a)) for v in space]
        nxt = dense_rank(derived + space)
        if nxt == rank:
            return k
        rank, k = nxt, k + 1


def random_semidirect(seed, diagonal):
    """h = R^n abelian, with tau acting as diag(`diagonal`) plus a seeded
    strictly upper triangular rational matrix, seen in a seeded basis of h
    that is neither upper nor lower triangular: a `sheared_copy`, its
    labels reversed, sheared again. Its constants are fractions, and ad
    tau is not triangular in the label order."""
    rng = random.Random(seed)
    n = len(diagonal)
    matrix = [[diagonal[i] if i == j else
               Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) if j > i else 0
               for j in range(n)] for i in range(n)]
    spec = sheared_copy(abelian_extension(matrix), seed, entries=n).to_dict()
    spec["labels"].reverse()
    return sheared_copy(LieAlgebra.from_dict(spec), seed, entries=n)


# seeded semidirect products R tau x| R^4: two with ad tau nilpotent and one,
# with eigenvalues 1, -1, 0 and 0, not
RANDOM_SEMIDIRECT_CASES = (
    [("random-nilpotent:%d" % seed, functools.partial(random_semidirect, seed, (0, 0, 0, 0)))
     for seed in (1, 2)]
    + [("random-mixed:3", functools.partial(random_semidirect, 3, (1, -1, 0, 0)))])

ONE_H_ECHELON_CASES = (
    [("galilean", galilean)]
    + [("milne:%d" % m, functools.partial(milne, m)) for m in range(1, 9)]
    + [("phase-space:%d" % n, functools.partial(phase_space, n)) for n in (1, 2, 3)]
    + [("central-heisenberg", functools.partial(LieAlgebra.from_dict, CENTRAL_TIME)),
       ("expanding", functools.partial(LieAlgebra.from_dict, EXPANDING)),
       ("sheared-milne:2", lambda: sheared_copy(milne(2), 1, entries=20))]
    + RANDOM_SEMIDIRECT_CASES)


class TestOneHEchelon:
    """The certificate and the solve read one h echelon per algebra, and
    give what each gave with its own elimination."""

    @pytest.mark.parametrize("name, build", ONE_H_ECHELON_CASES,
                             ids=[name for name, _ in ONE_H_ECHELON_CASES])
    def test_certificate_and_solve_match_their_own_eliminations(self, name, build):
        alg = build()
        fresh = linalg.echelon_int(_complex(alg).triple_rows(timed=False))
        if alg.time_index is not None:  # the certificate needs a time generator
            assert _certificate(alg) == oracle_certificate(build())
            assert _h_echelon(alg) == fresh  # its copy is used up, not the echelon
        assert _k1(alg) == oracle_k1(build())
        D = classify(alg).degree_used
        witness = D + _k1(alg)
        assert _h_echelon(alg) == fresh
        solve, want = _solve(alg, D, witness), oracle_solve(alg, D, witness)
        assert solve.cocycle_rows == want.cocycle_rows
        assert solve.rep_rows == want.rep_rows
        assert solve.coboundary_dim == want.coboundary_dim
        assert _h_echelon(alg) == fresh

    @pytest.mark.parametrize("name, build", RANDOM_SEMIDIRECT_CASES,
                             ids=[name for name, _ in RANDOM_SEMIDIRECT_CASES])
    def test_random_semidirect_products_have_fractional_timed_templates(self, name, build):
        # L is a template's h terms over its derivative coefficient, which
        # is the template's scale up to sign: the cases must exercise it
        alg = build()
        assert any(deriv is not None and scale > 1
                   for _, deriv, scale, _ in _complex(alg).triples.values())

    def test_h_rows_are_eliminated_once_per_algebra(self, monkeypatch):
        calls = []
        triple_rows = _Complex.triple_rows

        def counted(self, timed, u=0, full=False):
            calls.append(timed)
            return triple_rows(self, timed, u, full)

        monkeypatch.setattr(_Complex, "triple_rows", counted)
        alg = milne(3)
        classify(alg)  # the certificate, then the solve
        classify(alg, degree=4)
        assert calls.count(False) == 1 and calls.count(True) > 1


class TestAutoBoundRefusedEarly:
    def test_bound_above_the_limit_is_refused_before_the_certificate(self, monkeypatch):
        # 100 bracket-free labels with tau pass the check at degree 1; the
        # certified bound is at least 2 + k1 = 3, refused before the
        # certificate builds the complex
        def build(self, alg):
            raise AssertionError("the complex was built")

        monkeypatch.setattr(_Complex, "__init__", build)
        alg = LieAlgebra(["x%03d" % k for k in range(99)] + ["tau"], {}, time_index=99)
        with pytest.raises(ColumnLimitError,
                           match="^degree 3 needs 19800 coefficient columns on custom; "
                                 "the limit is 10000$"):
            classify(alg)
        assert _k1(alg) == 1


def test_the_exact_core_imports_no_numpy():
    # classification and equivalence are exact: numpy belongs to the group
    # and wave layers alone, and must not load with the package
    script = ("import sys, explab\n"
              "c = explab.classify(explab.milne(2))\n"
              "r = c.representatives\n"
              "assert not explab.are_equivalent(r[0], r[0] + r[1])\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
