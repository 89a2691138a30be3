"""The check catalogue: every named verification suite and its tolerances.

A suite maps (samples, seed) to a list of check dicts
``{"name": ..., "passed": ..., **details}``.  The `explab verify` command
and the acceptance gate both run suites from here, so a check and its
tolerance are defined once: criteria 02 and 03 run `milne_suite`, 06
`galilean_suite`, 07 `h_group_suite`, 09 `bundle_suite` and 10
`schrodinger_suite`.  `exponent_table` is the extraction table of
`explab exponent` with the checks that table admits; criterion 05 states
its tolerance.
"""

import functools
import itertools
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import bundle as bundlemod
from .classify import (check_family_columns, classify, realizable_subspace,
                       verify_milne_structure)
from .groupexp import (HElement, PhaseFunction, check_cocycle_identities,
                       composition_defect, exponent_shift_violation,
                       exponent_time_variance, extraction_table,
                       finite_exponent, frozen, h_inverse, h_multiply, h_unit,
                       random_element, random_event, theta_galilean,
                       theta_milne, worst_abs)
from .lie import LieAlgebra, family_dim, family_index, galilean, milne
from .ratpoly import RatPoly
from .schrod import (SWEEP_GRID, convergence_slope, gaussian_packet,
                     mass_equality_sweep, sample_wave, schrodinger_residual,
                     transform_wave, wave_grid)

IDENTITY_TOL = 1e-12
VARIANCE_TOL = 1e-24
SLOPE_MIN = 1.8
SWEEP_RATIOS = (0.5, 0.9, 1.0, 1.1, 2.0)
SWEEP_MARGIN = 10.0
EXTRACTION_TOL = 1e-6

# fixed probe event for exponent extraction; any regular point works,
# this one avoids the coordinate planes
PROBE_X = (0.3, -0.4, 0.25)
PROBE_T = 0.0


def check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    return entry


def _identities_check(theta: PhaseFunction, samples: int, seed: int,
                      order: int = 2) -> dict:
    """The sampled exponent identities of theta as one check."""
    stats = check_cocycle_identities(theta, samples=samples, seed=seed, order=order)
    return check("cocycle-identities", stats["max_violation"] <= IDENTITY_TOL,
                 max_violation=stats["max_violation"], samples=stats["samples"],
                 seed=stats["seed"])


def galilean_suite(samples: int, seed: int) -> List[dict]:
    checks = []
    result = classify(galilean())
    checks.append(check("classification-quotient",
                        result.quotient_dim == 1,
                        quotient_dim=result.quotient_dim))
    theta = theta_galilean(1.0)
    checks.append(_identities_check(theta, samples, seed))
    variance = exponent_time_variance(theta, samples=100, seed=seed)
    checks.append(check("time-independence", variance <= VARIANCE_TOL,
                        variance=variance))
    shift = exponent_shift_violation(theta, lambda r, p: 0.7 * r.b,
                                     samples=min(samples, 200), seed=seed)
    checks.append(check("gauge-shift-identity", shift <= IDENTITY_TOL,
                        max_violation=shift))
    return checks


def milne_suite(m: int, samples: int, seed: int) -> List[dict]:
    check_family_columns("milne", m)  # an oversized m is refused before milne(m) is built
    checks = []
    result = classify(milne(m))
    want = m * (m + 1) // 2
    checks.append(check("classification-quotient",
                        result.quotient_dim == want,
                        quotient_dim=result.quotient_dim, expected=want))
    for name, details in verify_milne_structure(result, m).items():
        checks.append(check("structure-" + name, not details,
                            **({"detail": details} if details else {})))
    restricted = realizable_subspace(result, m)
    checks.append(check("realizable-dimension",
                        restricted.quotient_dim == m,
                        quotient_dim=restricted.quotient_dim, expected=m))
    checks.append(_identities_check(theta_milne(1.0), samples, seed, order=m))
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
    worst = worst_abs([bundlemod.fiber_inner(t1, t2, int(perm[k]))
                       - bundlemod.fiber_inner(s1, s2, k) for k in range(grid.size)])
    checks.append(check("isometry-inner-products", worst <= IDENTITY_TOL,
                        max_violation=worst))
    return checks


def schrodinger_suite(samples: int, seed: int) -> List[dict]:
    mass = 1.0
    profile = RatPoly.monomial(2, "2/5")  # A(t) = 0.4 t^2
    addot = profile.differentiate().differentiate()
    g = lambda t: float(addot(t))
    packet = gaussian_packet(mass, x0=0.0, k0=0.3)
    sweep = mass_equality_sweep(profile, mass, SWEEP_RATIOS)
    hs, norms = [], []
    for nx, nt in [(161, 41), (321, 81)]:
        moved = transform_wave(sample_wave(packet, *wave_grid(nx, nt), mass), profile)
        hs.append(moved.dx)
        norms.append(schrodinger_residual(moved, mass, mass, g).max_norm)
    # the finest level is the sweep's ratio-1 entry: the same wave, field
    # and masses on the sweep's grid
    xs, _ = wave_grid(*SWEEP_GRID)
    hs.append(float(xs[1] - xs[0]))
    norms.append(dict(sweep.table)[1.0])
    slope = convergence_slope(hs, norms)
    checks = [check("residual-convergence-order", slope >= SLOPE_MIN,
                    slope=slope, residuals=norms)]
    ok = (not sweep.degenerate and sweep.best_ratio == 1.0
          and sweep.margin is not None and sweep.margin >= SWEEP_MARGIN)
    checks.append(check("mass-ratio-sweep", ok, **sweep.to_jsonable()))
    return checks


def h_group_suite(samples: int, seed: int) -> List[dict]:
    theta = theta_galilean(1.2)
    rng = np.random.default_rng(seed)
    trials = max(1, min(samples, 200))
    elements = [random_element(rng, "galilean", size=trials) for _ in range(3)]
    p = frozen(random_event(rng, size=trials))
    composition = composition_defect(
        lambda a, b, q: finite_exponent(theta, a, b, q), *elements, p)
    h0, h1, h2 = (HElement(lambda x, t, j=j: np.sin(j + x[..., 0] - t), e, theta)
                  for j, e in enumerate(elements))
    assoc = (h_multiply(h_multiply(h0, h1), h2).theta(*p)
             - h_multiply(h0, h_multiply(h1, h2)).theta(*p) - composition)
    inverses = h_multiply(h_inverse(h0), h0).theta(*p)
    units = h_multiply(h_unit(theta), h0).theta(*p) - h0.theta(*p)
    worst_assoc, worst_inverse, worst_unit = (worst_abs(v) for v in (assoc, inverses, units))
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
    m = family_index(name, "milne")
    if m is not None:
        return functools.partial(milne_suite, m)
    raise ValueError("unknown suite %r (use %s, or %s)"
                     % (name, ", ".join(SUITE_NAMES[:-1]), SUITE_NAMES[-1]))


def _galilean_reference(mass: float):
    rep = classify(galilean()).representatives[0]

    def ref(a: str, b: str) -> float:
        return mass * float(rep.entry_by_labels(a, b)(PROBE_T))

    return ref


def _milne_table_checks(alg: LieAlgebra, entries: List[dict]) -> List[dict]:
    """Structural zeros a realizable table must show at t = 0."""
    worst = {"rotation-time-zero": 0.0, "cross-axis-zero": 0.0,
             "inner-pairs-zero-at-origin": 0.0}
    for entry in entries:
        ra = alg.roles[alg.index(entry["a"])]
        rb = alg.roles[alg.index(entry["b"])]
        value = abs(entry["value"])
        if ra.kind != "acceleration" or rb.kind != "acceleration":
            worst["rotation-time-zero"] = max(worst["rotation-time-zero"], value)
        elif ra.axes != rb.axes:
            worst["cross-axis-zero"] = max(worst["cross-axis-zero"], value)
        elif ra.level >= 1 and rb.level >= 1:
            worst["inner-pairs-zero-at-origin"] = max(
                worst["inner-pairs-zero-at-origin"], value)
    return [check(name, value <= EXTRACTION_TOL, max_abs_value=value)
            for name, value in worst.items()]


class PairLimitError(ValueError):
    """A group whose exponent table has more than MAX_TABLE_PAIRS pairs."""


# Largest exponent table, in generator pairs, of a group `exponent` accepts.
# It admits milne:16 (1,485 pairs), whose `--all-pairs` run takes about
# 1.1 s with a tracemalloc peak of 3.2 MB on a 2-core VM; milne:20 (2,211
# pairs) took 4.75 s, and milne:m has (3m+7)(3m+6)/2 pairs.
MAX_TABLE_PAIRS = 1500


def check_table_pairs(family: str, index: int) -> None:
    """Raise PairLimitError when the exponent table of <family>:<index> has
    more than MAX_TABLE_PAIRS pairs, without building the algebra."""
    dim = family_dim(family, index)
    pairs = dim * (dim - 1) // 2
    if pairs > MAX_TABLE_PAIRS:
        raise PairLimitError("the exponent table of %s:%d has %d generator pairs; "
                             "the limit is %d" % (family, index, pairs, MAX_TABLE_PAIRS))


def exponent_table(theta: PhaseFunction, alg: LieAlgebra, mass: float,
                   pair: Optional[Tuple[str, str]] = None
                   ) -> Tuple[List[dict], List[dict]]:
    """Infinitesimal values of theta at the probe event, and their checks.

    Extracts the generator pair `pair`, or every unordered pair when it is
    None, and returns (entries, checks).  A Galilean table is compared with
    mass times the classified representative; a full Milne table must show
    the structural zeros of a realizable one.  Both gates use
    EXTRACTION_TOL.
    """
    pairs = list(itertools.combinations(alg.labels, 2)) if pair is None else [pair]
    point = frozen((np.array(PROBE_X), PROBE_T))
    reference = _galilean_reference(mass) if theta.group == "galilean" else None
    entries = []
    worst_ref = 0.0
    for (a, b), res in zip(pairs, extraction_table(theta, alg, pairs, point)):
        entry = {"a": a, "b": b, "value": res.value, "error": res.error}
        if reference is not None:
            want = reference(a, b)
            entry["reference"] = want
            worst_ref = max(worst_ref,
                            abs(res.value - want) / max(1.0, abs(want)))
        entries.append(entry)

    checks = []
    if reference is not None:
        checks.append(check("matches-classified-representative",
                            worst_ref <= EXTRACTION_TOL,
                            max_relative_deviation=worst_ref))
    if theta.group == "milne" and pair is None:
        checks.extend(_milne_table_checks(alg, entries))
    return entries, checks
