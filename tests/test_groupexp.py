import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from explab.groupexp import (ExtrapolationError, GalileanElement, HElement,
                             MilneElement, OrderMismatchError, PhaseFunction,
                             act, check_cocycle_identities, compose,
                             equivalence_transform, exp_generator,
                             exponent_shift_violation, exponent_time_variance,
                             finite_exponent, galilean_identity, h_inverse,
                             h_lift, h_multiply, h_unit,
                             infinitesimal_from_finite, inverse, milne_identity,
                             random_element, random_event, theta_galilean,
                             theta_milne)
from explab.lie import galilean, milne

EYE = np.eye(3)
GALILEAN, MILNE2 = galilean(), milne(2)


def boost(v):
    return GalileanElement(EYE, v, np.zeros(3), 0.0)


def translation(a):
    return GalileanElement(EYE, np.zeros(3), a, 0.0)


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
            GalileanElement(EYE * 1.001, np.zeros(3), np.zeros(3), 0.0)

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


class TestPhases:
    def test_identity_phase_zero(self):
        assert theta_galilean(2.0)(galilean_identity(), np.ones(3), 1.5) == 0
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
            m * np.dot(bo.v, tr.a), abs=1e-12)

    def test_time_independence_galilean(self):
        assert exponent_time_variance(theta_galilean(1.75), samples=50, seed=3) <= 1e-24

    def test_exact_mode_composition_identity(self):
        eye = np.eye(3, dtype=int)

        def gal(v, a, b):
            return GalileanElement(eye, [F(c) for c in v], [F(c) for c in a], F(b))

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
            bump = 0.1 if r.b > 0.2 else 0.0
            return finite_exponent(th, r, s, p) + bump

        report = check_cocycle_identities(xi=bad_xi, group="galilean",
                                          samples=200, seed=1)
        assert report["composition"] >= 0.01

    def test_requires_group_for_raw_xi(self):
        with pytest.raises(ValueError):
            check_cocycle_identities(xi=lambda r, s, p: 0.0)


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
        zeta = lambda r, p: r.b * math.sin(p[1])
        assert exponent_shift_violation(th, zeta, samples=200, seed=6) <= 1e-12

    def test_transform_returns_shifted_phase(self):
        th = theta_galilean(1.0)
        shifted = equivalence_transform(th, lambda r, p: 2.0 * r.b, tag="shifted")
        r = GalileanElement(EYE, np.zeros(3), np.zeros(3), 1.5)
        assert shifted(r, np.zeros(3), 0.0) == pytest.approx(3.0)
        assert shifted.tag == "shifted" and shifted.group == "galilean"


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
        rough = PhaseFunction("user", "galilean",
                              lambda r, x, t: abs(np.dot(r.v, r.v)) ** 0.25 * x[0])
        with pytest.raises(ExtrapolationError):
            infinitesimal_from_finite(rough, GALILEAN, "b1", "d1",
                                      event([0.4, 0.1, 0.0], 0.3))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            infinitesimal_from_finite(theta_galilean(1.0), GALILEAN, "b1", "d1",
                                      event([0, 0, 0], 0.0), levels=1)
