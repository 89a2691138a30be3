"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; every criterion states its tolerance and runtime budget inline.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import test_classify as oracles
from explab import checks
from explab.classify import (are_equivalent, classify, realizable_subspace,
                             verify_milne_structure)
from explab.cochain import OneCochain, coboundary
from explab.groupexp import (check_cocycle_identities,
                             exponent_shift_violation, exponent_time_variance,
                             infinitesimal_from_finite, theta_galilean,
                             theta_milne)
from explab.lie import galilean, milne, phase_space
from explab.ratpoly import RatPoly

IDENTITY_TOL = 1e-12
VARIANCE_TOL = 1e-24
EXTRACTION_RTOL = 1e-6


def verdict(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %02d %s - %s" % (number, status, description))
    assert not failures, "criterion %02d: %s" % (number, "; ".join(failures))


def catalogue_failures(results, **stated):
    """Failed checks of a catalogue suite, plus every catalogue tolerance
    that differs from the value this gate states for it."""
    failures = ["checks.%s is %r, the gate states %r"
                % (name, getattr(checks, name), value)
                for name, value in stated.items() if getattr(checks, name) != value]
    failures += ["%s failed: %s" % (c["name"], {k: v for k, v in c.items()
                                                if k not in ("name", "passed")})
                 for c in results if not c["passed"]]
    return failures


def test_criterion_01_galilean_classification():
    started = time.perf_counter()
    result = classify(galilean())
    elapsed = time.perf_counter() - started
    failures = []
    if result.quotient_dim != 1:
        failures.append("quotient_dim %d != 1" % result.quotient_dim)
    rep = result.representatives[0]
    diagonal = {("b1", "d1"), ("b2", "d2"), ("b3", "d3")}
    support = {(rep.alg.labels[i], rep.alg.labels[j])
               for (i, j) in rep.nonzero_entries()}
    if support != diagonal:
        failures.append("representative support %s" % sorted(support))
    entries = {rep.entry_by_labels(a, b) for a, b in diagonal}
    if len(entries) != 1 or not next(iter(entries)).is_constant():
        failures.append("representative is not a constant multiple of the "
                        "identity on boost/translation pairs")
    if elapsed > 1.0:
        failures.append("took %.2f s > 1 s" % elapsed)
    verdict(1, "galilean classification is one-dimensional with the "
               "time-independent diagonal representative (exact, <= 1 s)",
            failures)


def test_criterion_02_milne_classification_and_structure():
    failures = []
    elapsed_last = 0.0
    for m in (1, 2, 3, 4):
        started = time.perf_counter()
        result = classify(milne(m))
        elapsed_last = time.perf_counter() - started
        want = m * (m + 1) // 2
        if result.quotient_dim != want:
            failures.append("milne:%d quotient %d != %d"
                            % (m, result.quotient_dim, want))
        structure = verify_milne_structure(result, m)
        if set(structure.CHECKS) != {"isotropy", "p00_zero", "antisymmetry",
                                     "recurrence", "degree_bound", "support"}:
            failures.append("structure checks incomplete")
        if not structure.ok:
            failures.append("milne:%d structure failures %s"
                            % (m, structure.failures))
    if elapsed_last > 30.0:
        failures.append("m=4 run took %.1f s > 30 s" % elapsed_last)
    verdict(2, "milne quotients are 1, 3, 6, 10 and all six structural "
               "checks hold (exact, <= 30 s at m=4)", failures)


def test_criterion_03_realizable_dimension():
    failures = []
    for m in (1, 2, 3):
        restricted = realizable_subspace(classify(milne(m)), m)
        if restricted.quotient_dim != m:
            failures.append("milne:%d realizable dim %d != %d"
                            % (m, restricted.quotient_dim, m))
    verdict(3, "realizable subspace has dimension m for m = 1, 2, 3 (exact)",
            failures)


def test_criterion_04_abelian_brute_force_oracle():
    failures = []
    for n in (1, 2, 3):
        alg = phase_space(n)
        result = classify(alg)
        want = n * (2 * n - 1)
        brute = oracles.brute_force_constant_quotient(alg)
        if result.quotient_dim != want:
            failures.append("phase-space:%d quotient %d != %d"
                            % (n, result.quotient_dim, want))
        if brute != result.quotient_dim:
            failures.append("phase-space:%d brute force %d != solver %d"
                            % (n, brute, result.quotient_dim))
        if result.coboundary_dim != 0:
            failures.append("phase-space:%d coboundary dim %d != 0"
                            % (n, result.coboundary_dim))
    verdict(4, "abelian quotients n(2n-1) match an independent brute-force "
               "oracle with zero coboundaries (exact)", failures)


def test_criterion_05_extraction_reproduces_representative():
    started = time.perf_counter()
    rep = classify(galilean()).representatives[0]
    alg = galilean()
    point = (np.array([0.4, -0.3, 0.2]), 0.6)
    failures = []
    for mass in (1.0, 2.5):
        theta = theta_galilean(mass)
        for a, b in itertools.combinations(alg.labels, 2):
            res = infinitesimal_from_finite(theta, alg, a, b, point)
            want = mass * float(rep.entry_by_labels(a, b)(point[1]))
            if abs(res.value - want) > EXTRACTION_RTOL * max(1.0, abs(want)):
                failures.append("mass %g pair (%s,%s): %g vs %g"
                                % (mass, a, b, res.value, want))
    elapsed = time.perf_counter() - started
    if elapsed > 5.0:
        failures.append("took %.1f s > 5 s" % elapsed)
    verdict(5, "numeric extraction reproduces mass * representative on all "
               "45 generator pairs for m in {1, 2.5} (rel 1e-6, <= 5 s)",
            failures)


def test_criterion_06_cocycle_identities_and_time_independence():
    failures = []
    for theta in (theta_galilean(1.3), theta_milne(0.8)):
        stats = check_cocycle_identities(theta, samples=1000, seed=11)
        if stats["max_violation"] > IDENTITY_TOL:
            failures.append("%s identities violated at %g"
                            % (theta.tag, stats["max_violation"]))
        if stats["samples"] < 1000:
            failures.append("only %d samples" % stats["samples"])
    variance = exponent_time_variance(theta_galilean(1.3), samples=100, seed=11)
    if variance > VARIANCE_TOL:
        failures.append("galilean exponent time variance %g" % variance)
    verdict(6, "composition/unit/inverse identities hold to 1e-12 over 1000 "
               "samples for both phase families; galilean exponent is "
               "time-independent (variance <= 1e-24)", failures)


def test_criterion_07_h_group_matches_composition_defect():
    failures = catalogue_failures(checks.h_group_suite(samples=100, seed=23),
                                  IDENTITY_TOL=IDENTITY_TOL)
    verdict(7, "semidirect product associativity defect equals the "
               "composition identity defect on 100 shared samples; inverses "
               "cancel (1e-12)", failures)


def test_criterion_08_equivalence_transport():
    failures = []
    alg = galilean()
    xi = classify(alg).representatives[0]
    rng = np.random.default_rng(31)

    worst_infinitesimal = None
    for _ in range(100):
        comps = [RatPoly([Fraction(int(c)) for c in rng.integers(-3, 4, size=3)])
                 for _ in range(alg.dim)]
        comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        lam = OneCochain(alg, comps)
        res = are_equivalent(xi, xi + coboundary(lam))
        if not (res.equivalent and coboundary(res.witness) == coboundary(lam)):
            worst_infinitesimal = lam
            break
    if worst_infinitesimal is not None:
        failures.append("coboundary shift not recognized as equivalent")

    theta = theta_galilean(1.1)
    worst_group = 0.0
    for k in range(100):
        c0, c1 = rng.uniform(-2.0, 2.0, size=2)
        zeta = lambda r, p, a=c0, b=c1: a * r.b + b * r.b * math.sin(p[1])
        worst_group = max(worst_group, exponent_shift_violation(
            theta, zeta, samples=20, seed=k))
    if worst_group > IDENTITY_TOL:
        failures.append("group-level shift identity violated at %g" % worst_group)

    verdict(8, "100 random gauge shifts: infinitesimal coboundary shifts are "
               "equivalent with recovered witness (exact) and the group-level "
               "shift identity holds (1e-12)", failures)


def test_criterion_09_bundle_ray_equivalence():
    failures = catalogue_failures(checks.bundle_suite(samples=1, seed=17),
                                  IDENTITY_TOL=IDENTITY_TOL)
    verdict(9, "ray equivalence recovers planted phases (1e-12), rejects "
               "scaled and independent sections, and isometries preserve "
               "fiber inner products (1e-12)", failures)


def test_criterion_10_schrodinger_covariance_and_mass_equality():
    started = time.perf_counter()
    failures = catalogue_failures(
        checks.schrodinger_suite(samples=1, seed=0), SLOPE_MIN=1.8,
        SWEEP_MARGIN=10.0, SWEEP_RATIOS=(0.5, 0.9, 1.0, 1.1, 2.0))
    elapsed = time.perf_counter() - started
    if elapsed > 60.0:
        failures.append("took %.1f s > 60 s" % elapsed)

    verdict(10, "transformed free wave converges with order >= 1.8 and the "
                "mass-ratio sweep bottoms out at 1.0 with >= 10x margin "
                "(<= 60 s)", failures)
