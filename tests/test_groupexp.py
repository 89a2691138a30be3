import itertools
import math
import numbers
import weakref
from fractions import Fraction as F

import numpy as np
import pytest

from explab import checks, cli, groupexp
from explab.groupexp import (ExtrapolationError, HElement, MilneElement,
                             OrderMismatchError, PhaseFunction, _act_inverse, act,
                             check_cocycle_identities, compose,
                             equivalence_transform, exp_generator,
                             exponent_shift_violation, exponent_time_variance,
                             extraction_table, finite_exponent, h_inverse, h_lift, h_multiply, h_unit,
                             infinitesimal_from_finite, inverse, milne_identity,
                             random_element, random_event, theta_galilean,
                             theta_milne)
from explab.lie import galilean, milne

EYE = np.eye(3)
GALILEAN, MILNE2 = galilean(), milne(2)


def boost(v):
    return MilneElement(EYE, [np.zeros(3), v], 0.0)


def translation(a):
    return MilneElement(EYE, [a, np.zeros(3)], 0.0)


def event(x, t):
    return np.asarray(x, dtype=float), t


class TestGroupStructure:
    def test_translations_add(self):
        r = compose(translation([1.0, 2.0, 0.0]), translation([0.5, -1.0, 3.0]))
        x, t = act(r, *event([0, 0, 0], 0.0))
        assert np.allclose(x, [1.5, 1.0, 3.0]) and t == 0.0

    def test_boost_then_translation(self):
        r = compose(translation([1.0, 0.0, 0.0]), boost([2.0, 0.0, 0.0]))
        x, t = act(r, *event([0.5, 0.0, 0.0], 3.0))
        assert np.allclose(x, [0.5 + 2.0 * 3.0 + 1.0, 0.0, 0.0])

    def test_milne_compose_hand_expansion(self):
        # A_r shifted by b_s = 1: rows v_k -> sum_j v_j / (j-k)!
        r = MilneElement(EYE, [[1., 0, 0], [2., 0, 0], [6., 0, 0]], 0.0)
        s = MilneElement(EYE, np.zeros((3, 3)), 1.0)
        rs = compose(r, s)
        assert np.allclose(rs.A[:, 0], [1 + 2 + 3, 2 + 6, 6])
        assert rs.b == 1.0

    def test_group_axioms_sampled(self):
        rng = np.random.default_rng(11)
        for kind in ("galilean", "milne"):
            for _ in range(1000):
                a, b, c = (random_element(rng, kind) for _ in range(3))
                x, t = random_event(rng)
                x1, t1 = act(compose(a, compose(b, c)), x, t)
                x2, t2 = act(a, *act(b, *act(c, x, t)))
                assert max(np.max(np.abs(x1 - x2)), abs(t1 - t2)) <= 1e-12
                xr, tr = act(inverse(a), *act(a, x, t))
                assert max(np.max(np.abs(xr - x)), abs(tr - t)) <= 1e-12

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            compose(milne_identity(1), milne_identity(2))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            MilneElement(EYE * 1.001, [np.zeros(3), np.zeros(3)], 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rotation_rejected(self, bad):
        R = EYE.copy()
        R[0, 0] = bad
        with pytest.raises(ValueError, match="orthogonal"):
            MilneElement(R, [np.zeros(3), np.zeros(3)], 0.0)
        stack = random_element(np.random.default_rng(0), "milne", size=100).R.copy()
        stack[37, 1, 2] = bad
        with pytest.raises(ValueError, match="orthogonal"):
            MilneElement(stack, np.zeros((3, 3)), 0.0)

    def test_sample_axes_must_broadcast(self):
        R = random_element(np.random.default_rng(1), "galilean", size=4).R
        with pytest.raises(ValueError):
            MilneElement(R, np.zeros((5, 2, 3)), 0.0)

    def test_one_parameter_subgroups(self):
        rng = np.random.default_rng(2)
        labels = {("galilean", GALILEAN): ["a12", "a23", "b1", "d2", "tau"],
                  ("milne", MILNE2): ["a13", "d0_1", "d1_2", "d2_3", "tau"]}
        for (kind, alg), labs in labels.items():
            for lab in labs:
                role = alg.roles[alg.index(lab)]
                u = exp_generator(kind, role, 0.3, order=2)
                w = exp_generator(kind, role, 0.5, order=2)
                both = exp_generator(kind, role, 0.8, order=2)
                x, t = random_event(rng)
                x1, t1 = act(compose(u, w), x, t)
                x2, t2 = act(both, x, t)
                assert max(np.max(np.abs(x1 - x2)), abs(t1 - t2)) <= 1e-12


class TestRotationConvention:
    """lie's rotation brackets are the matrix commutators of groupexp's
    rotation generators, and its brackets of a rotation with a vector are
    the generator applied to that vector: one so(3) convention in both."""

    @staticmethod
    def generator(kind, role, order):
        # d/dtheta exp(theta a).R at 0 by a central difference, rounded to its integer entries
        h = 1e-6
        G = (exp_generator(kind, role, h, order).R - exp_generator(kind, role, -h, order).R) / (2 * h)
        assert np.max(np.abs(G - np.rint(G))) < 1e-9
        return np.rint(G).astype(int)

    @pytest.mark.parametrize("kind, order, alg", [("galilean", 1, GALILEAN)]
                             + [("milne", m, milne(m)) for m in (1, 2, 3)],
                             ids=lambda v: getattr(v, "name", None))
    def test_brackets_are_the_generators(self, kind, order, alg):
        roles = alg.roles
        rots = [k for k, r in enumerate(roles) if r.kind == "rotation"]
        G = {a: self.generator(kind, roles[a], order) for a in rots}
        for a, b in itertools.combinations(rots, 2):
            got = sum((c * G[m] for m, c in alg.bracket_basis(a, b)), np.zeros((3, 3), int))
            assert np.array_equal(got, G[a] @ G[b] - G[b] @ G[a])
        vectors = [k for k, r in enumerate(roles) if r.kind not in ("rotation", "time")]
        assert len(vectors) == 3 * (order + 1)
        for a, k in itertools.product(rots, vectors):
            got = np.zeros(3, int)
            for m, c in alg.bracket_basis(a, k):
                assert roles[m]._replace(axes=roles[k].axes) == roles[k]  # same kind and level
                got[roles[m].axes[0] - 1] += c
            assert np.array_equal(got, G[a][:, roles[k].axes[0] - 1])


class TestPhases:
    def test_identity_phase_zero(self):
        assert theta_galilean(2.0)(milne_identity(1), np.ones(3), 1.5) == 0
        assert theta_milne(2.0)(milne_identity(2), np.ones(3), 1.5) == 0

    def test_galilean_value(self):
        # boost (1,0,0), mass 2 at x=(3,0,0), t=1: -6 + 1 = -5
        th = theta_galilean(2)
        assert th(boost([1.0, 0, 0]), np.array([3.0, 0, 0]), 1.0) == pytest.approx(-5.0)

    def test_translation_phase_zero(self):
        th = theta_galilean(3.0)
        assert th(translation([1.0, 2.0, 3.0]), np.ones(3), 2.0) == 0

    def test_milne_boost_matches_galilean_up_to_sign(self):
        m, v = 1.7, np.array([0.4, -1.0, 0.2])
        r = MilneElement(EYE, [np.zeros(3), v], 0.0)
        th_m, th_g = theta_milne(m), theta_galilean(m)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, t = random_event(rng)
            assert th_m(r, x, t) == pytest.approx(-th_g(boost(v), x, t), abs=1e-12)

    def test_milne_uniform_acceleration_value(self):
        # A = (t^2/2) g: theta = -(m/6)|g|^2 t^3 + m t g.x
        m, g = 2.0, np.array([1.0, 0.5, 0.0])
        r = MilneElement(EYE, [np.zeros(3), np.zeros(3), g], 0.0)
        th = theta_milne(m)
        for (x, t) in [(np.array([1.0, 2.0, 0.3]), 0.7), (np.zeros(3), 1.5)]:
            want = -(m / 6) * np.dot(g, g) * t ** 3 + m * t * np.dot(g, x)
            assert th(r, x, t) == pytest.approx(want, abs=1e-12)

    def test_time_shift_drops_out_for_linear_A(self):
        # U is linear for a pure boost, so U(t-b) - U(-b) = U(t)
        m, v = 1.1, np.array([0.3, 0.0, -0.8])
        th = theta_milne(m)
        with_shift = MilneElement(EYE, [np.zeros(3), v], 0.9)
        without = MilneElement(EYE, [np.zeros(3), v], 0.0)
        x = np.array([0.2, -0.4, 1.0])
        assert th(with_shift, x, 0.6) == pytest.approx(th(without, x, 0.6), abs=1e-12)


class TestFiniteExponent:
    def test_translations_give_zero(self):
        th = theta_galilean(2.2)
        r, s = translation([1.0, 0, 0]), translation([0, 2.0, 0])
        p = event([0.3, 0.1, -0.5], 0.7)
        assert finite_exponent(th, r, s, p) == 0

    def test_translation_boost_value(self):
        # orientation fixed here: xi(translation a, boost v) = +m v.a
        m = 1.5
        th = theta_galilean(m)
        tr = translation([0.7, 0.2, 0.0])
        bo = boost([1.1, 0.0, 0.4])
        p = event([0.3, -0.2, 0.9], 0.45)
        assert finite_exponent(th, tr, bo, p) == pytest.approx(
            m * np.dot(bo.A[..., 1, :], tr.A[..., 0, :]), abs=1e-12)

    def test_time_independence_galilean(self):
        assert exponent_time_variance(theta_galilean(1.75), samples=50, seed=3) <= 1e-24

    def test_exact_mode_composition_identity(self):
        eye = np.eye(3, dtype=int)

        def gal(v, a, b):
            return MilneElement(eye, [[F(c) for c in a], [F(c) for c in v]], F(b))

        th = theta_galilean(F(3, 2))
        r = gal(("1/2", 0, "2/3"), (1, "1/5", 0), "1/3")
        s = gal((0, "3/7", 1), ("1/2", 0, 2), "2/5")
        g = gal((1, 1, "1/9"), (0, "5/3", "1/4"), "1/7")
        p = (np.array([F(1, 3), F(2), F(0)], dtype=object), F(3, 4))
        rp = act(inverse(r), *p)

        def xi(a1, a2, q):
            return finite_exponent(th, a1, a2, q)

        defect = (xi(r, s, p) + xi(compose(r, s), g, p)
                  - xi(s, g, rp) - xi(r, compose(s, g), p))
        assert defect == F(0) and isinstance(defect, F)

    def test_exact_mode_milne(self):
        eye = np.eye(3, dtype=int)
        rows = lambda *rs: np.array([[F(c) for c in row] for row in rs], dtype=object)
        th = theta_milne(F(2))
        r = MilneElement(eye, rows((1, 0, 2), ("1/2", 1, 0), (0, "1/3", 1)), F(1, 2))
        s = MilneElement(eye, rows((0, 1, 0), (2, 0, "1/5"), (1, 1, 0)), F(1, 3))
        g = MilneElement(eye, rows((1, 1, 1), (0, "1/2", 1), ("1/4", 0, 2)), F(0))
        p = (np.array([F(1, 3), F(2), F(0)], dtype=object), F(3, 4))
        rp = act(inverse(r), *p)

        def xi(a1, a2, q):
            return finite_exponent(th, a1, a2, q)

        defect = (xi(r, s, p) + xi(compose(r, s), g, p)
                  - xi(s, g, rp) - xi(r, compose(s, g), p))
        assert defect == F(0)


class TestIdentityChecks:
    def test_galilean_clean(self):
        report = check_cocycle_identities(theta_galilean(1.75), samples=1000, seed=42)
        assert report["max_violation"] <= 1e-12
        assert report["samples"] == 1000 and report["seed"] == 42
        assert set(report) >= {"composition", "unit", "inverse"}

    def test_milne_clean(self):
        report = check_cocycle_identities(theta_milne(1.3), samples=400, seed=7, order=2)
        assert report["max_violation"] <= 1e-12

    def test_planted_defect_detected(self):
        th = theta_galilean(1.0)

        def bad_xi(r, s, p):
            bump = np.where(r.b > 0.2, 0.1, 0.0)
            return finite_exponent(th, r, s, p) + bump

        report = check_cocycle_identities(xi=bad_xi, group="galilean",
                                          samples=200, seed=1)
        assert report["composition"] >= 0.01

    def test_defect_in_one_of_1000_samples_is_reported(self):
        # the report draws all r, then all s, from the seeded generator
        th = theta_galilean(1.0)
        rng = np.random.default_rng(4)
        rk = random_element(rng, "galilean", size=1000).take(617)
        sk = random_element(rng, "galilean", size=1000).take(617)

        def bad_xi(r, s, p):
            hit = (r.b == rk.b) & (s.b == sk.b)
            return finite_exponent(th, r, s, p) + np.where(hit, 0.5, 0.0)

        report = check_cocycle_identities(xi=bad_xi, group="galilean",
                                          samples=1000, seed=4)
        assert report["composition"] == pytest.approx(0.5, abs=1e-12)
        assert report["unit"] <= 1e-12 and report["inverse"] <= 1e-12

    def test_nan_violation_fails(self):
        th = theta_galilean(1.0)

        def nan_xi(r, s, p):
            return finite_exponent(th, r, s, p) + np.where(r.b > 0.9, math.nan, 0.0)

        report = check_cocycle_identities(xi=nan_xi, group="galilean",
                                          samples=200, seed=1)
        assert math.isnan(report["composition"])
        assert not report["max_violation"] <= 1e-12

    def test_requires_group_for_raw_xi(self):
        with pytest.raises(ValueError):
            check_cocycle_identities(xi=lambda r, s, p: 0.0)

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("run", [
        lambda n: check_cocycle_identities(theta_galilean(1.0), samples=n),
        lambda n: exponent_time_variance(theta_galilean(1.0), samples=n),
        lambda n: exponent_shift_violation(theta_galilean(1.0), lambda r, p: 0.7 * r.b,
                                           samples=n),
    ], ids=["cocycle-identities", "time-variance", "shift-violation"])
    def test_a_sampled_check_refuses_no_samples(self, run, samples, monkeypatch):
        # over no draws each gate would pass on no data: 0.0 over 0 samples
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(groupexp, "random_element", no_draw)
        with pytest.raises(ValueError, match="^samples must be >= 1, got %d$" % samples):
            run(samples)


class TestEquivalenceTransform:
    def test_zero_gauge(self):
        th = theta_galilean(1.0)
        assert exponent_shift_violation(th, lambda r, p: 0.0, samples=50) == 0

    def test_time_shift_gauge(self):
        th = theta_galilean(1.0)
        zeta = lambda r, p: 0.7 * r.b
        assert exponent_shift_violation(th, zeta, samples=200, seed=5) <= 1e-12

    def test_event_time_gauge(self):
        th = theta_milne(0.8)
        zeta = lambda r, p: r.b * np.sin(p[1])
        assert exponent_shift_violation(th, zeta, samples=200, seed=6) <= 1e-12

    def test_nan_gauge_fails(self):
        zeta = lambda r, p: np.where(r.b > 0.9, math.nan, 0.7 * r.b)
        assert not exponent_shift_violation(theta_galilean(1.0), zeta,
                                            samples=200, seed=5) <= 1e-12

    def test_nan_time_variance_fails(self):
        th = theta_galilean(1.0)
        flaky = PhaseFunction("flaky", "galilean", lambda r, x, t:
                              th(r, x, t) + np.where(r.b > 0.9, math.nan, 0.0))
        assert not exponent_time_variance(flaky, samples=100, seed=3) <= 1e-24

    def test_transform_returns_shifted_phase(self):
        th = theta_galilean(1.0)
        shifted = equivalence_transform(th, lambda r, p: 2.0 * r.b)
        r = MilneElement(EYE, [np.zeros(3), np.zeros(3)], 1.5)
        assert shifted(r, np.zeros(3), 0.0) == pytest.approx(3.0)
        assert shifted.tag == th.tag + "+gauge" and shifted.group == "galilean"


class TestHGroup:
    def test_unit_is_neutral(self):
        th = theta_galilean(1.3)
        rng = np.random.default_rng(4)
        h = HElement(lambda x, t: math.sin(x[0]) + t, random_element(rng, "galilean"), th)
        e = h_unit(th)
        for prod in (h_multiply(e, h), h_multiply(h, e)):
            for _ in range(10):
                p = random_event(rng)
                assert prod.theta(*p) == pytest.approx(h.theta(*p), abs=1e-12)
                x1, t1 = act(prod.r, *p)
                x2, t2 = act(h.r, *p)
                assert np.allclose(x1, x2) and t1 == pytest.approx(t2)

    def test_inverse_cancels(self):
        th = theta_milne(0.9)
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = HElement(lambda x, t: x[1] * t, random_element(rng, "milne"), th)
            prod = h_multiply(h_inverse(h), h)
            p = random_event(rng)
            assert abs(prod.theta(*p)) <= 1e-12
            x1, t1 = act(prod.r, *p)
            assert np.allclose(x1, p[0], atol=1e-12) and t1 == pytest.approx(p[1])

    def test_associativity_defect_equals_composition_defect(self):
        from explab.groupexp import _act_event
        th = theta_galilean(1.2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            els = [random_element(rng, "galilean") for _ in range(3)]
            hs = [HElement(lambda x, t, k=k: math.sin(k + x[0] - t), e, th)
                  for k, e in enumerate(els)]
            p = random_event(rng)
            assoc = (h_multiply(h_multiply(hs[0], hs[1]), hs[2]).theta(*p)
                     - h_multiply(hs[0], h_multiply(hs[1], hs[2])).theta(*p))
            r, s, g = els
            eq = (finite_exponent(th, r, s, p)
                  + finite_exponent(th, compose(r, s), g, p)
                  - finite_exponent(th, s, g, _act_event(inverse(r), p))
                  - finite_exponent(th, r, compose(s, g), p))
            assert abs(assoc - eq) <= 1e-12

    def test_nan_phase_fails_the_suite(self, monkeypatch):
        flaky = PhaseFunction("flaky", "galilean",
                              lambda r, x, t: np.where(r.b > 0.9, math.nan, 0.0))
        monkeypatch.setattr(checks, "theta_galilean", lambda mass: flaky)
        results = {c["name"]: c for c in checks.h_group_suite(samples=100, seed=23)}
        assert not results["associativity-matches-composition"]["passed"]
        assert math.isnan(results["associativity-matches-composition"]["max_violation"])

    def test_lift_and_mismatched_exponents(self):
        th1, th2 = theta_galilean(1.0), theta_galilean(2.0)
        rng = np.random.default_rng(1)
        r = random_element(rng, "galilean")
        h = h_lift(th1, r)
        p = random_event(rng)
        assert h.theta(*p) == pytest.approx(th1(r, *p))
        with pytest.raises(ValueError, match="exponent"):
            h_multiply(h, h_lift(th2, r))
        # masses that agree to six significant digits are still different
        near = h_lift(theta_galilean(1.0000001), r)
        with pytest.raises(ValueError, match="exponent"):
            h_multiply(near, h_lift(theta_galilean(1.0000002), r))


class TestExtraction:
    def test_galilean_mass_matrix(self):
        labels = ["a12", "a13", "a23", "b1", "b2", "b3", "d1", "d2", "d3", "tau"]
        mass = 2.5
        th = theta_galilean(mass)
        p = event([0.4, -0.3, 0.2], 0.6)
        diag = {("b1", "d1"), ("b2", "d2"), ("b3", "d3")}
        for la, lb in itertools.combinations(labels, 2):
            res = infinitesimal_from_finite(th, GALILEAN, la, lb, p)
            want = mass if (la, lb) in diag else 0.0
            assert abs(res.value - want) <= 1e-6 * max(1.0, mass)

    def test_translation_pair_zero(self):
        res = infinitesimal_from_finite(theta_galilean(1.0), GALILEAN, "b1",
                                        "b2", event([0.2, 0.0, 0.1], 0.4))
        assert abs(res.value) <= 1e-9

    def test_rotation_time_pair_zero(self):
        res = infinitesimal_from_finite(theta_galilean(1.0), GALILEAN, "a12",
                                        "tau", event([1.0, 2.0, 3.0], 0.8))
        assert abs(res.value) <= 1e-9

    def test_milne_acceleration_table(self):
        # values depend on the event time t: the extracted two-cocycle entries
        mass, t0 = 1.0, 0.7
        th = theta_milne(mass)
        p = event([0.4, -0.3, 0.2], t0)
        cases = {("d0_1", "d1_1"): -mass,
                 ("d0_1", "d2_1"): -mass * t0,
                 ("d1_1", "d2_1"): -mass * t0 ** 2 / 2,
                 ("d0_1", "d1_2"): 0.0,
                 ("d2_1", "tau"): 0.0,
                 ("a12", "d1_1"): 0.0}
        for (la, lb), want in cases.items():
            res = infinitesimal_from_finite(th, MILNE2, la, lb, p)
            assert abs(res.value - want) <= 1e-6
            assert res.error <= 1e-6

    def test_extraction_scales_with_mass(self):
        p = event([0.1, 0.2, 0.3], 0.5)
        one = infinitesimal_from_finite(theta_galilean(1.0), GALILEAN, "b1", "d1", p)
        two = infinitesimal_from_finite(theta_galilean(2.0), GALILEAN, "b1", "d1", p)
        assert two.value == pytest.approx(2 * one.value, rel=1e-9)

    def test_non_convergent_diagnostic(self):
        rough = PhaseFunction("user", "galilean", lambda r, x, t:
                              np.abs((r.A[..., 1, :] ** 2).sum(-1)) ** 0.25 * x[..., 0])
        with pytest.raises(ExtrapolationError):
            infinitesimal_from_finite(rough, GALILEAN, "b1", "d1",
                                      event([0.4, 0.1, 0.0], 0.3))

    def test_tableau_that_does_not_shrink_is_refused(self):
        # x1 v1 log|v1| is not smooth at the identity. With two levels the
        # tableau's one difference is both its first and its last, so it
        # passes only when it is within the floor.
        rough = PhaseFunction("rough", "galilean", _rough_where_v1)
        p = event([0.4, 0.1, 0.0], 0.3)
        for levels in (2, 6):
            with pytest.raises(ExtrapolationError):
                infinitesimal_from_finite(rough, GALILEAN, "b1", "d1", p, levels=levels)
        res = infinitesimal_from_finite(theta_galilean(2.0), GALILEAN, "b1", "d1", p,
                                        levels=2)
        assert abs(res.value - 2.0) <= 1e-6

    @pytest.mark.parametrize("tau0", [0.1, 0.01, 0.001])
    def test_logarithmic_phase_is_refused(self, tau0):
        # sign(a1) a1^2 log|a1|: the diagonal differences level off instead of
        # falling, the last stays below the first, and the value drifts with tau0
        def planted(r, x, t):
            a1 = r.A[..., 0, 0]
            return np.copysign(a1 ** 2 * np.log(np.where(a1 == 0, 1.0, np.abs(a1))), a1)

        with pytest.raises(ExtrapolationError):
            infinitesimal_from_finite(PhaseFunction("log", "galilean", planted),
                                      GALILEAN, "b1", "tau",
                                      event([0.4, -0.3, 0.2], 0.6), tau0=tau0)

    def test_nan_phase_is_refused(self):
        broken = PhaseFunction("nan", "galilean", lambda r, x, t: math.nan)
        with pytest.raises(ExtrapolationError):
            infinitesimal_from_finite(broken, GALILEAN, "b1", "d1",
                                      event([0.4, 0.1, 0.0], 0.3))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            infinitesimal_from_finite(theta_galilean(1.0), GALILEAN, "b1", "d1",
                                      event([0, 0, 0], 0.0), levels=1)


def _shuffled_pairs(alg):
    """Every pair of alg, reversed and then interleaved, so that the Milne
    orders of neighbouring pairs alternate."""
    pairs = list(itertools.combinations(alg.labels, 2))[::-1]
    return pairs[::2] + pairs[1::2]


def _rough_where_v1(r, x, t):
    """x1 v1 log|v1|: smooth, and zero, wherever the boost component v1 is 0."""
    v1 = r.A[..., 1, 0]
    return x[..., 0] * v1 * np.log(np.where(v1 == 0, 1.0, np.abs(v1)))


class TestExtractionTable:
    P = event([0.4, -0.3, 0.2], 0.6)

    @pytest.mark.parametrize("alg, theta", [(GALILEAN, theta_galilean(2.5)),
                                            (MILNE2, theta_milne(1.0)),
                                            (milne(3), theta_milne(1.3))])
    def test_table_equals_one_pair_results(self, alg, theta):
        pairs = _shuffled_pairs(alg)
        table = extraction_table(theta, alg, pairs, self.P)
        assert len(table) == len(pairs)
        for (a, b), res in zip(pairs, table):
            one = infinitesimal_from_finite(theta, alg, a, b, self.P)
            assert res.value == one.value and res.error == one.error

    def test_stacks_are_capped(self, monkeypatch):
        alg, theta = milne(8), theta_milne(1.0)
        pairs = _shuffled_pairs(alg)
        stacked = []
        inner = groupexp.finite_exponent

        def counted(theta, r, s, p):
            stacked.append(r.batch[0])
            return inner(theta, r, s, p)

        monkeypatch.setattr(groupexp, "finite_exponent", counted)
        table = extraction_table(theta, alg, pairs, self.P)
        monkeypatch.undo()
        assert len(pairs) > groupexp.MAX_STACKED_PAIRS
        assert max(stacked) == groupexp.MAX_STACKED_PAIRS
        for k in range(0, len(pairs), 29):
            one = infinitesimal_from_finite(theta, alg, *pairs[k], self.P)
            assert table[k] == one

    def test_first_failing_pair_in_table_order_is_named(self):
        rough = PhaseFunction("rough", "milne", _rough_where_v1)
        p = event([0.4, 0.1, 0.0], 0.3)
        # orders 1, 2, 2, 1: the first of the two failing pairs has order 2
        pairs = [("d0_2", "d0_3"), ("d2_3", "tau"), ("d1_1", "d2_2"), ("d0_2", "d1_1")]
        first = None
        for a, b in pairs:
            try:
                infinitesimal_from_finite(rough, MILNE2, a, b, p)
            except ExtrapolationError as exc:
                first = str(exc)
                break
        assert first is not None and first.startswith("no convergence on d1_1,d2_2:")
        with pytest.raises(ExtrapolationError) as exc:
            extraction_table(rough, MILNE2, pairs, p)
        assert str(exc.value) == first

    def test_nan_phase_is_refused(self):
        broken = PhaseFunction("nan", "galilean", lambda r, x, t: math.nan)
        with pytest.raises(ExtrapolationError):
            extraction_table(broken, GALILEAN, [("b2", "b3"), ("b1", "d1")], self.P)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            extraction_table(theta_galilean(1.0), GALILEAN, [("b1", "d1")], self.P,
                             levels=1)

    def test_empty_table(self):
        assert extraction_table(theta_galilean(1.0), GALILEAN, [], self.P) == []


def _signed_permutations():
    """The 24 rotations that are signed permutation matrices, as int arrays."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = np.zeros((3, 3), dtype=int)
            R[range(3), perm] = signs
            if round(np.linalg.det(R)) == 1:
                out.append(R)
    return np.array(out)


def _fractions(rng, shape):
    return np.array([F(int(n), int(d)) for n, d in zip(rng.integers(-9, 10, np.prod(shape)),
                                                       rng.integers(1, 8, np.prod(shape)))],
                    dtype=object).reshape(shape)


def _exact_stack(rng, kind, n):
    R = _signed_permutations()[rng.integers(0, 24, n)]
    if kind == "galilean":
        v, a = _fractions(rng, (n, 3)), _fractions(rng, (n, 3))
        return MilneElement(R, np.stack([a, v], axis=-2), _fractions(rng, (n,)))
    return MilneElement(R, _fractions(rng, (n, 3, 3)), _fractions(rng, (n,)))


class TestStackedSamples:
    """One call on N stacked samples equals N calls on single elements."""

    N = 64

    def _cases(self, theta, r, s, x, t, unit):
        """(name, stacked result, per-sample function) of every operation;
        `unit` is the H-group unit the products start from."""
        rs, ri, (ax, at) = compose(r, s), inverse(r), act(r, x, t)
        for name in ("R", "A", "b"):
            yield ("compose." + name, getattr(rs, name),
                   lambda a, b, y, u, name=name: getattr(compose(a, b), name))
            yield ("inverse." + name, getattr(ri, name),
                   lambda a, b, y, u, name=name: getattr(inverse(a), name))
        yield "act.x", ax, lambda a, b, y, u: act(a, y, u)[0]
        yield "act.t", at, lambda a, b, y, u: act(a, y, u)[1]
        yield "theta", theta(r, x, t), lambda a, b, y, u: theta(a, y, u)
        yield ("finite_exponent", finite_exponent(theta, r, s, (x, t)),
               lambda a, b, y, u: finite_exponent(theta, a, b, (y, u)))
        # H-group products of lifts: the fiber phases receive stacked events
        hr, hs = h_lift(theta, r), h_lift(theta, s)
        yield ("h_multiply", h_multiply(hr, hs).theta(x, t),
               lambda a, b, y, u: h_multiply(h_lift(theta, a), h_lift(theta, b)).theta(y, u))
        yield ("h_inverse", h_inverse(hr).theta(x, t),
               lambda a, b, y, u: h_inverse(h_lift(theta, a)).theta(y, u))
        yield ("h_unit", h_multiply(unit, hr).theta(x, t),
               lambda a, b, y, u: h_multiply(unit, h_lift(theta, a)).theta(y, u))

    @pytest.mark.parametrize("kind", ["galilean", "milne"])
    def test_floats_match_per_element(self, kind):
        theta = theta_galilean(1.7) if kind == "galilean" else theta_milne(1.3)
        rng = np.random.default_rng(3)
        r, s = (random_element(rng, kind, size=self.N) for _ in range(2))
        x, t = random_event(rng, size=self.N)
        for name, stacked, single in self._cases(theta, r, s, x, t, h_unit(theta)):
            one = np.array([single(r.take(i), s.take(i), x[i], t[i])
                            for i in range(self.N)])
            scale = np.max(np.abs(one))
            assert np.max(np.abs(stacked - one)) <= 1e-15 * scale, name

    @pytest.mark.parametrize("freeze", [False, True], ids=["writable", "frozen"])
    @pytest.mark.parametrize("kind", ["galilean", "milne"])
    def test_fractions_match_per_element_exactly(self, kind, freeze):
        # with a frozen event the phase values and inverse actions are kept
        # with the elements, and kept values of object arrays stay exact
        theta = theta_galilean(F(3, 2)) if kind == "galilean" else theta_milne(F(2))
        rng = np.random.default_rng(9)
        r, s = (_exact_stack(rng, kind, self.N) for _ in range(2))
        x, t = _fractions(rng, (self.N, 3)), _fractions(rng, (self.N,))
        if freeze:
            groupexp.frozen((x, t))
        # h_unit's identity is float; e = r r^-1 of one exact sample is exact
        e = compose(r.take(0), inverse(r.take(0)))
        unit = HElement(lambda x, t: 0, e, theta)
        for name, stacked, single in self._cases(theta, r, s, x, t, unit):
            one = np.array([single(r.take(i), s.take(i), x[i], t[i])
                            for i in range(self.N)], dtype=object)
            stacked = np.asarray(stacked)
            assert all(isinstance(v, numbers.Rational) for v in stacked.flat), name
            assert np.array_equal(stacked, one.reshape(stacked.shape)), name

    @pytest.mark.parametrize("kind", ["galilean", "milne"])
    def test_inverse_action_matches_the_inverse_element(self, kind):
        rng = np.random.default_rng(10)
        r = _exact_stack(rng, kind, self.N)
        x, t = _fractions(rng, (self.N, 3)), _fractions(rng, (self.N,))
        (y, u), (y_want, u_want) = _act_inverse(r, x, t), act(inverse(r), x, t)
        assert np.array_equal(y, y_want) and np.array_equal(u, u_want)

    def test_galilean_phase_is_milne_phase_of_opposite_mass(self):
        # on order-1 elements theta_galilean(m) = theta_milne(-m), so the
        # finite exponents of one mass are negatives of each other
        m = F(3, 2)
        rng = np.random.default_rng(12)
        r, s = (_exact_stack(rng, "galilean", self.N) for _ in range(2))
        x, t = _fractions(rng, (self.N, 3)), _fractions(rng, (self.N,))
        galilean_xi = finite_exponent(theta_galilean(m), r, s, (x, t))
        milne_xi = finite_exponent(theta_milne(m), r, s, (x, t))
        assert all(isinstance(v, numbers.Rational) for v in galilean_xi.flat)
        assert np.any(galilean_xi != 0)
        assert np.array_equal(theta_galilean(m)(r, x, t), theta_milne(-m)(r, x, t))
        assert np.array_equal(galilean_xi, -milne_xi)

    def test_phase_and_gauge_see_whole_stacks(self):
        # each of the three terms of a finite exponent calls the phase and
        # the gauge once, on all 8 samples
        th = theta_galilean(1.1)
        seen = []

        def phase(r, x, t):
            seen.append(("phase", r.batch, np.shape(t)))
            return th(r, x, t)

        def gauge(r, p):
            seen.append(("gauge", r.batch, np.shape(p[1])))
            return 0.7 * r.b

        shifted = equivalence_transform(PhaseFunction("counted", "galilean", phase), gauge)
        rng = np.random.default_rng(6)
        r, s = (random_element(rng, "galilean", size=8) for _ in range(2))
        p = random_event(rng, size=8)
        xi = finite_exponent(shifted, r, s, p)
        assert seen == [("phase", (8,), (8,)), ("gauge", (8,), (8,))] * 3
        # a time-shift gauge has a zero exponent
        assert xi.shape == (8,)
        assert np.max(np.abs(xi - finite_exponent(th, r, s, p))) <= 1e-12


# -- layout: contiguous operands give the bits of the transposed views ------

def _view_defect(R):
    """_orthogonality_defect with the transposed view as left factor."""
    with np.errstate(invalid="ignore"):
        return float(np.abs(np.swapaxes(R, -1, -2) @ R - EYE).max(initial=0.0))


def _view_compose(r, s):
    """compose with the rotations multiplied as given, views included."""
    return (r.R @ s.R, s.A @ np.swapaxes(r.R, -1, -2) + groupexp._divided_shift(r.A, s.b),
            r.b + s.b)


def _view_inverse(r):
    return (np.swapaxes(r.R, -1, -2), -(groupexp._divided_shift(r.A, -r.b) @ r.R), -r.b)


def _view_phase_polys(mass, A_rows):
    """acceleration_phase_polys with the gram d @ d^T of a transposed view."""
    A = np.asarray(A_rows)
    k = max(A.shape[-2] - 1, 1)
    if A.shape[-2] == 1:
        d = A * 0
    else:
        d = np.stack([A[..., n + 1, :] / math.factorial(n) for n in range(k)], axis=-2)
    gram = d @ np.swapaxes(d, -1, -2)
    square = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            square[i + j] = square[i + j] + gram[..., i, j]
    uniform = [square[0] * 0] + [square[n] / (n + 1) * mass / (-2)
                                 for n in range(2 * k - 1)]
    return np.swapaxes(d, -1, -2) * mass, np.stack(uniform, axis=-1)


def _layout_stacks():
    """(name, r, s) for stacks of every layout the group layer meets."""
    rng = np.random.default_rng(21)
    for order in (1, 2, 4):
        kind = "galilean" if order == 1 else "milne"
        r, s = (random_element(rng, kind, order, 1000) for _ in range(2))
        yield "seeded-%d" % order, r, s
        yield "inverse-left-%d" % order, inverse(r), s
        yield "inverse-both-%d" % order, inverse(r), inverse(s)
        levels = random_element(rng, kind, order, 30)
        grid = MilneElement(levels.R.reshape(5, 6, 3, 3),
                            levels.A.reshape((5, 6) + levels.A.shape[-2:]),
                            levels.b.reshape(5, 6))
        yield "pairs-levels-%d" % order, grid, inverse(grid)
        eye = MilneElement(np.broadcast_to(EYE, (1000, 3, 3)),
                           rng.uniform(-1, 1, (1000, order + 1, 3)), 0.0)
        yield "stride-0-%d" % order, eye, r
        yield "stride-0-right-%d" % order, inverse(r), eye
    for kind in ("galilean", "milne"):
        r, s = (_exact_stack(rng, kind, 64) for _ in range(2))
        yield "fractions-" + kind, r, s
        yield "fractions-inverse-" + kind, inverse(r), s


LAYOUT_STACKS = list(_layout_stacks())


class TestContiguousLayout:
    """The contiguous operands of the stacked matrix products give the bits
    (or, for Fractions, the exact values) of the transposed views."""

    @pytest.mark.parametrize("name, r, s", LAYOUT_STACKS,
                             ids=[case[0] for case in LAYOUT_STACKS])
    def test_products_equal_the_view_formulas(self, name, r, s):
        for R in (r.R, s.R):
            assert groupexp._orthogonality_defect(R) == _view_defect(R)
        rs = compose(r, s)
        for got, want in zip((rs.R, rs.A, rs.b), _view_compose(r, s)):
            assert np.array_equal(got, want)
        ri = inverse(r)
        for got, want in zip((ri.R, ri.A, ri.b), _view_inverse(r)):
            assert np.array_equal(got, want)
        for mass in (1.3, F(3, 2)):
            for A in (r.A, rs.A, ri.A):
                for got, want in zip(groupexp.acceleration_phase_polys(mass, A),
                                     _view_phase_polys(mass, A)):
                    assert np.array_equal(got, want)
        if name.startswith("fractions"):
            assert all(isinstance(v, numbers.Rational)
                       for v in itertools.chain(rs.R.flat, rs.A.flat, ri.A.flat))

    def test_non_orthogonal_views_are_refused(self):
        M = np.arange(9.0).reshape(3, 3) / 10 + EYE
        A = np.zeros((3, 3))
        stack = random_element(np.random.default_rng(5), "milne", size=50).R.copy()
        stack[17] = M
        for R in (M.T, np.broadcast_to(M, (8, 3, 3)),
                  np.broadcast_to(M.T, (8, 3, 3)), stack.swapaxes(-1, -2)):
            assert not R.flags.c_contiguous
            with pytest.raises(ValueError, match="orthogonal"):
                MilneElement(R, A, 0.0)


def _stacked_per_pair_table(theta, alg, pairs, p, tau0=0.1, levels=6):
    """extraction_table with each chunk's subgroups broadcast and stacked per pair."""
    kind = theta.group
    taus = tau0 * 2.0 ** -np.arange(levels)
    roles = [(alg.roles[alg.index(a)], alg.roles[alg.index(b)]) for a, b in pairs]
    orders = [max([1] + [r.level for r in both if r is not None]) for both in roles]
    S = [None] * len(pairs)
    for order in sorted(set(orders)):
        members = [k for k, o in enumerate(orders) if o == order]
        subgroup = {role: exp_generator(kind, role, taus, order)
                    for k in members for role in roles[k]}
        for start in range(0, len(members), groupexp.MAX_STACKED_PAIRS):
            chunk = members[start:start + groupexp.MAX_STACKED_PAIRS]
            u, w = (groupexp._stack([subgroup[roles[k][side]] for k in chunk], taus.shape)
                    for side in (0, 1))
            total = np.broadcast_to(
                np.asarray(groupexp._commutator_phase(theta, u, w, p), dtype=float),
                (len(chunk),) + taus.shape)
            for k, row in zip(chunk, total / taus ** 2):
                S[k] = row
    return [groupexp._extrapolate(row, a, b) for row, (a, b) in zip(S, pairs)]


@pytest.mark.parametrize("alg, theta", [(GALILEAN, theta_galilean(2.0)),
                                        (MILNE2, theta_milne(1.0)),
                                        (milne(8), theta_milne(1.3))],
                         ids=["galilean", "milne:2", "milne:8"])
def test_gathered_table_equals_the_stacked_per_pair_table(alg, theta):
    p = event([0.3, -0.4, 0.25], 0.0)
    pairs = _shuffled_pairs(alg)
    assert extraction_table(theta, alg, pairs, p) == \
        _stacked_per_pair_table(theta, alg, pairs, p)


# -- the sampler: Gram-Schmidt gives QR's rotations to rounding --------------

def _qr_rotation(rng, size=None):
    """The QR-plus-sign-fix sampler that random_rotation replaced."""
    q, rr = np.linalg.qr(rng.normal(size=(() if size is None else (size,)) + (3, 3)))
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    q = q * np.where(d == 0, 1.0, np.sign(d))[..., None, :]
    q[..., :, 0] *= np.sign(np.linalg.det(q))[..., None]
    return q


@pytest.mark.parametrize("size", [None, 1, 200, 1000, 10 ** 5])
def test_random_rotation_is_the_qr_rotation(size):
    for seed in range(10):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        R, Q = groupexp.random_rotation(rng, size), _qr_rotation(oracle, size)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert R.shape == Q.shape == (() if size is None else (size,)) + (3, 3)
        assert np.max(np.abs(R - Q)) <= 1e-12
        assert np.max(np.abs(np.linalg.det(R) - 1)) <= 1e-12
        assert groupexp._orthogonality_defect(R) <= 4e-15


# -- gates at the doors: derived elements inherit their factors' gate --------

class TestGates:
    """Every element from outside passes the orthogonality gate; products,
    inverses and gathers of gated elements skip it, and stay within 1e-14
    of orthogonal at the largest admitted sample count."""

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_derived_rotations_stay_orthogonal(self, order):
        kind = "galilean" if order == 1 else "milne"
        rng = np.random.default_rng(order)
        r, s, g = (random_element(rng, kind, order, cli.MAX_SAMPLES) for _ in range(3))
        rs = compose(r, s)
        for element in (rs, compose(rs, g), inverse(r), compose(r, inverse(r))):
            assert element.batch == (cli.MAX_SAMPLES,)
            assert groupexp._orthogonality_defect(element.R) <= 1e-14

    def test_derived_elements_skip_the_gate(self, monkeypatch):
        rng = np.random.default_rng(3)
        r, s = (random_element(rng, "milne", 2, 50) for _ in range(2))
        subgroups = [exp_generator("milne", role, np.linspace(0.1, 0.2, 4), 2)
                     for role in MILNE2.roles[:3]]
        gated = []
        check = groupexp._check_rotation
        monkeypatch.setattr(groupexp, "_check_rotation",
                            lambda R: gated.append(np.shape(R)) or check(R))
        stack = groupexp._stack(subgroups, (4,))
        compose(inverse(r), s).take(7)
        stack.take([2, 0, 2])
        assert gated == []
        milne_identity(2)
        random_element(rng, "milne", 2, 5)
        exp_generator("milne", MILNE2.roles[0], 0.3, 2)
        assert gated == [(3, 3), (5, 3, 3), (3, 3)]

    def test_sample_axes_that_do_not_broadcast_raise(self):
        rng = np.random.default_rng(4)
        r, s = random_element(rng, "milne", 2, 4), random_element(rng, "milne", 2, 5)
        with pytest.raises(ValueError):  # numpy's matmul of the rotations
            compose(r, s)
        # rotations that broadcast, with 5 translations against 7 rotations
        moved = MilneElement(EYE, rng.uniform(-1, 1, (5, 3, 3)), 0.0)
        turned = MilneElement(random_element(rng, "milne", 2, 7).R, np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError):
            compose(moved, turned)

    def test_exp_generator_gates_its_rotation(self):
        role = MILNE2.roles[MILNE2.index("a12")]
        with pytest.raises(ValueError, match="orthogonal"):
            exp_generator("milne", role, math.nan, 2)
        with pytest.raises(ValueError, match="orthogonal"):
            exp_generator("galilean", GALILEAN.roles[GALILEAN.index("a12")],
                          np.array([0.1, math.nan]))

    def test_random_element_gates_its_rotation(self, monkeypatch):
        def skewed(rng, size=None):
            return np.broadcast_to(np.eye(3) * 1.001, groupexp._shape(size) + (3, 3))

        monkeypatch.setattr(groupexp, "random_rotation", skewed)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="orthogonal"):
            random_element(rng, "milne", 2, 10)
        with pytest.raises(ValueError, match="orthogonal"):
            random_element(rng, "galilean")


# -- derived data: each exponent term is computed once ----------------------

def _counting(monkeypatch, *names):
    """Count the calls of the named groupexp functions."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(groupexp, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(groupexp, name, counted)
    return counts


class TestDerivedData:
    @pytest.mark.parametrize("theta, order", [(theta_galilean(1.0), 1),
                                              (theta_milne(1.0), 2)],
                             ids=["galilean", "milne:2"])
    def test_one_identity_run_computes_each_term_once(self, theta, order, monkeypatch):
        # the 9 finite exponents have 27 phase terms on 20 distinct
        # (element, event) pairs: composition 12 terms on 8 (theta(r, p),
        # theta(s, r^-1 p) and theta(rs, p) recur), unit 9 on 7 (theta(e, p)
        # and theta(r, p) recur) and inverse 6 on 5 (theta(r, p)); the 11
        # products (composition 6, of which rs and sg are held and found
        # again, unit 3, inverse 2) and one inverse run _divided_shift once
        # each, so 12 - 2 = 10
        counts = _counting(monkeypatch, "acceleration_phase_polys", "_divided_shift")
        report = check_cocycle_identities(theta, samples=50, seed=0, order=order)
        assert report["max_violation"] <= 1e-12
        assert counts == {"acceleration_phase_polys": 20, "_divided_shift": 10}

    def test_a_product_is_found_while_held_and_freed_with_its_last_holder(self):
        rng = np.random.default_rng(30)
        r, s = (random_element(rng, "milne", 2, 20) for _ in range(2))
        p = groupexp.frozen(random_event(rng, 20))
        theta = theta_milne(1.0)
        rs = compose(r, s)
        assert compose(r, s) is rs
        value = theta(rs, *p)  # kept with rs, which keeps nothing that holds it
        held = weakref.ref(rs)
        del rs
        assert held() is None
        again = compose(r, s)
        assert again is not value and np.array_equal(theta(again, *p), value)
        for array in (again.R, again.A, again.b):
            assert not array.flags.writeable

    def test_phases_of_equal_masses_share_nothing(self):
        # on an exact element Fraction(1) and 1 give Fractions, 1.0 floats;
        # a shared entry would hand one phase the values of another
        rng = np.random.default_rng(31)
        r = _exact_stack(rng, "milne", 8)
        p = groupexp.frozen((_fractions(rng, (8, 3)), _fractions(rng, (8,))))
        phases = [theta_milne(F(1)), theta_milne(1.0), theta_milne(1)]
        values = [theta(r, *p) for theta in phases]
        assert all(isinstance(v, numbers.Rational) for v in values[0].flat)
        assert not any(isinstance(v, numbers.Rational) for v in values[1].flat)
        assert all(isinstance(v, numbers.Rational) for v in values[2].flat)
        assert len({id(v) for v in values}) == 3
        assert np.array_equal(values[0], values[2]) and np.allclose(
            values[1].astype(float), values[0].astype(float), rtol=1e-13, atol=0)
        for theta, value in zip(phases, values):
            assert theta(r, *p) is value

    def test_a_writable_event_is_never_kept(self, monkeypatch):
        counts = _counting(monkeypatch, "acceleration_phase_polys")
        rng = np.random.default_rng(32)
        r = random_element(rng, "milne", 2, 10)
        x, t = random_event(rng, 10)
        view = x.view()  # read-only itself, but its base is writable
        view.setflags(write=False)
        theta = theta_milne(1.3)
        first = theta(r, x, t)
        theta(r, view, t)
        x[0] = 0.0
        moved = theta(r, x, t)
        assert counts["acceleration_phase_polys"] == 3
        assert "_memo" not in vars(r)
        assert first[0] != moved[0] and np.array_equal(first[1:], moved[1:])
        assert np.array_equal(moved, theta_milne(1.3)(r, x.copy(), t.copy()))

    def test_kept_arrays_cannot_be_written(self):
        rng = np.random.default_rng(33)
        r = random_element(rng, "galilean", size=10)
        p = groupexp.frozen(random_event(rng, 10))
        value = theta_galilean(2.0)(r, *p)
        y, u = _act_inverse(r, *p)
        assert _act_inverse(r, *p)[0] is y
        for array in (value, y, y.base, u, p[0], p[1]):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
