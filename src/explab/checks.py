"""The check catalogue: every named verification suite and its tolerances.

A suite maps (samples, seed) to a list of check dicts
``{"name": ..., "passed": ..., **details}``.  The `explab verify` command
and the acceptance gate both run suites from here, so a check and its
tolerance are defined once.
"""

import functools
import math
from typing import Callable, List

import numpy as np

from . import bundle as bundlemod
from .classify import classify, realizable_subspace, verify_milne_structure
from .groupexp import (HElement, check_cocycle_identities, compose,
                       exponent_shift_violation, exponent_time_variance,
                       finite_exponent, h_inverse, h_multiply, h_unit, inverse,
                       random_element, random_event, theta_galilean,
                       theta_milne, _act_event)
from .lie import galilean, milne
from .ratpoly import RatPoly
from .schrod import (convergence_slope, gaussian_packet, mass_equality_sweep,
                     sample_wave, schrodinger_residual, transform_wave)

IDENTITY_TOL = 1e-12
VARIANCE_TOL = 1e-24
SLOPE_MIN = 1.8
SWEEP_RATIOS = (0.5, 0.9, 1.0, 1.1, 2.0)
SWEEP_MARGIN = 10.0


def check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    return entry


def galilean_suite(samples: int, seed: int) -> List[dict]:
    checks = []
    result = classify(galilean())
    checks.append(check("classification-quotient",
                        result.quotient_dim == 1,
                        quotient_dim=result.quotient_dim))
    theta = theta_galilean(1.0)
    stats = check_cocycle_identities(theta, samples=samples, seed=seed)
    checks.append(check("cocycle-identities",
                        stats["max_violation"] <= IDENTITY_TOL,
                        max_violation=stats["max_violation"],
                        samples=stats["samples"], seed=stats["seed"]))
    variance = exponent_time_variance(theta, samples=100, seed=seed)
    checks.append(check("time-independence", variance <= VARIANCE_TOL,
                        variance=variance))
    shift = exponent_shift_violation(theta, lambda r, p: 0.7 * r.b,
                                     samples=min(samples, 200), seed=seed)
    checks.append(check("gauge-shift-identity", shift <= IDENTITY_TOL,
                        max_violation=shift))
    return checks


def milne_suite(m: int, samples: int, seed: int) -> List[dict]:
    checks = []
    result = classify(milne(m))
    want = m * (m + 1) // 2
    checks.append(check("classification-quotient",
                        result.quotient_dim == want,
                        quotient_dim=result.quotient_dim, expected=want))
    structure = verify_milne_structure(result, m)
    for name in structure.CHECKS:
        detail = structure.failures.get(name)
        checks.append(check("structure-" + name, detail is None,
                            **({} if detail is None else {"detail": detail})))
    restricted = realizable_subspace(result, m)
    checks.append(check("realizable-dimension",
                        restricted.quotient_dim == m,
                        quotient_dim=restricted.quotient_dim, expected=m))
    stats = check_cocycle_identities(theta_milne(1.0), samples=samples,
                                     seed=seed, order=m)
    checks.append(check("cocycle-identities",
                        stats["max_violation"] <= IDENTITY_TOL,
                        max_violation=stats["max_violation"],
                        samples=stats["samples"], seed=stats["seed"]))
    return checks


def _random_section(rng, grid, dim) -> "bundlemod.Section":
    fibers = rng.normal(size=(grid.size, dim)) + 1j * rng.normal(size=(grid.size, dim))
    return bundlemod.Section(grid, fibers)


def _random_unitary(rng, dim) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _wrapped_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs((a - b + np.pi) % (2 * np.pi) - np.pi)))


def bundle_suite(samples: int, seed: int) -> List[dict]:
    rng = np.random.default_rng(seed)
    grid = bundlemod.uniform_grid(0.0, 1.0, 33)
    dim = 4
    checks = []

    section = _random_section(rng, grid, dim)
    planted = np.sin(grid.nodes) + 0.3
    mapped = bundlemod.apply_bundle_map(
        bundlemod.phase_bundle_map(grid, dim, planted), section)
    recovery = bundlemod.ray_equivalent(section, mapped)
    deviation = (_wrapped_deviation(recovery.phases, planted)
                 if recovery.equivalent else math.inf)
    checks.append(check("planted-phase-recovery",
                        recovery.equivalent and deviation <= IDENTITY_TOL,
                        max_phase_deviation=deviation))

    scaled = bundlemod.Section(grid, 2.0 * section.fibers)
    checks.append(check("scaling-rejected",
                        not bundlemod.ray_equivalent(section, scaled).equivalent))

    independents = sum(
        bundlemod.ray_equivalent(_random_section(rng, grid, dim),
                                 _random_section(rng, grid, dim)).equivalent
        for _ in range(10))
    checks.append(check("independent-sections-rejected", independents == 0,
                        false_positives=independents))

    perm = np.arange(grid.size)[::-1].copy()
    mats = np.stack([_random_unitary(rng, dim) for _ in range(grid.size)])
    isometry = bundlemod.BundleMap(perm, mats)
    s1, s2 = _random_section(rng, grid, dim), _random_section(rng, grid, dim)
    t1 = bundlemod.apply_bundle_map(isometry, s1)
    t2 = bundlemod.apply_bundle_map(isometry, s2)
    worst = max(
        abs(bundlemod.fiber_inner(t1, t2, int(perm[k]))
            - bundlemod.fiber_inner(s1, s2, k))
        for k in range(grid.size))
    checks.append(check("isometry-inner-products", worst <= IDENTITY_TOL,
                        max_violation=worst))
    return checks


def schrodinger_suite(samples: int, seed: int) -> List[dict]:
    mass = 1.0
    profile = RatPoly.monomial(2, "2/5")  # A(t) = 0.4 t^2
    addot = profile.differentiate().differentiate()
    g = lambda t: float(addot(t))
    packet = gaussian_packet(mass, x0=0.0, k0=0.3)
    hs, norms = [], []
    for nx, nt in [(161, 41), (321, 81), (641, 161)]:
        xs = np.linspace(-16.0, 16.0, nx)
        ts = np.linspace(0.0, 0.8, nt)
        moved = transform_wave(sample_wave(packet, xs, ts, mass), profile)
        hs.append(moved.dx)
        norms.append(schrodinger_residual(moved, mass, mass, g).max_norm)
    slope = convergence_slope(hs, norms)
    checks = [check("residual-convergence-order", slope >= SLOPE_MIN,
                    slope=slope, residuals=norms)]
    sweep = mass_equality_sweep(profile, mass, SWEEP_RATIOS)
    ok = (not sweep.degenerate and sweep.best_ratio == 1.0
          and sweep.margin is not None and sweep.margin >= SWEEP_MARGIN)
    checks.append(check("mass-ratio-sweep", ok, **sweep.to_jsonable()))
    return checks


def h_group_suite(samples: int, seed: int) -> List[dict]:
    theta = theta_galilean(1.2)
    rng = np.random.default_rng(seed)
    trials = max(1, min(samples, 200))
    worst_assoc = worst_inverse = worst_unit = 0.0
    for k in range(trials):
        elements = [random_element(rng, "galilean") for _ in range(3)]
        lifted = [HElement(lambda x, t, j=j: math.sin(j + x[0] - t), e, theta)
                  for j, e in enumerate(elements)]
        p = random_event(rng)
        assoc = (h_multiply(h_multiply(lifted[0], lifted[1]), lifted[2]).theta(*p)
                 - h_multiply(lifted[0], h_multiply(lifted[1], lifted[2])).theta(*p))
        r, s, g = elements
        composition = (finite_exponent(theta, r, s, p)
                       + finite_exponent(theta, compose(r, s), g, p)
                       - finite_exponent(theta, s, g, _act_event(inverse(r), p))
                       - finite_exponent(theta, r, compose(s, g), p))
        worst_assoc = max(worst_assoc, abs(assoc - composition))
        product = h_multiply(h_inverse(lifted[0]), lifted[0])
        worst_inverse = max(worst_inverse, abs(product.theta(*p)))
        neutral = h_multiply(h_unit(theta), lifted[0])
        worst_unit = max(worst_unit, abs(neutral.theta(*p) - lifted[0].theta(*p)))
    return [
        check("associativity-matches-composition", worst_assoc <= IDENTITY_TOL,
              max_violation=worst_assoc, samples=trials, seed=seed),
        check("inverse-cancels", worst_inverse <= IDENTITY_TOL,
              max_violation=worst_inverse),
        check("unit-neutral", worst_unit <= IDENTITY_TOL,
              max_violation=worst_unit),
    ]


SUITE_NAMES = ("galilean", "milne:<m>", "bundle", "schrodinger", "h-group")
_FIXED_SUITES = {"galilean": galilean_suite, "bundle": bundle_suite,
                 "schrodinger": schrodinger_suite, "h-group": h_group_suite}


def suite(name: str) -> Callable[[int, int], List[dict]]:
    """The suite called `name`; ValueError names the valid ones."""
    if name in _FIXED_SUITES:
        return _FIXED_SUITES[name]
    if name is not None and name.startswith("milne:"):
        try:
            m = int(name[len("milne:"):])
        except ValueError:
            raise ValueError("bad index in %r: expected milne:<integer>" % name)
        if m < 1:
            raise ValueError("milne index must be >= 1")
        return functools.partial(milne_suite, m)
    raise ValueError("unknown suite %r (use %s, or %s)"
                     % (name, ", ".join(SUITE_NAMES[:-1]), SUITE_NAMES[-1]))
