"""Tests for the accelerated-frame wave checks.

The analytic spreading Gaussian is the only evolution source, so every
residual quoted here is pure discretization error; the frozen bounds
come from reference runs on the same grids.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from explab.groupexp import MilneElement, theta_milne
from explab.ratpoly import RatPoly
from explab.schrod import (
    GridSupportError,
    SweepResult,
    WaveField,
    convergence_slope,
    gaussian_packet,
    mass_equality_sweep,
    milne_phase,
    sample_wave,
    schrodinger_residual,
    transform_wave,
)

MASS = 1.3
XS = np.linspace(-16.0, 16.0, 321)
TS = np.linspace(0.0, 0.8, 81)

QUAD = RatPoly((0, 0, Fraction(2, 5)))  # A(t) = 0.4 t^2, so A'' = 0.8
LINEAR = RatPoly((0, Fraction(3, 5)))   # A(t) = 0.6 t


def free_wave(k0=0.3, xs=XS, ts=TS, mass=MASS):
    return sample_wave(gaussian_packet(mass, x0=0.0, k0=k0), xs, ts, mass)


def grid_norm(field, k):
    return math.sqrt(field.dx * float(np.sum(np.abs(field.values[k]) ** 2)))


class TestGaussianPacket:
    def test_initial_value_is_normalized_gaussian(self):
        psi = gaussian_packet(2.0, x0=0.5, k0=1.25, width=0.8)
        x = np.linspace(-3, 3, 41)
        expected = ((2 * np.pi * 0.64) ** -0.25
                    * np.exp(1.25j * (x - 0.5) - (x - 0.5) ** 2 / (4 * 0.64)))
        assert np.max(np.abs(psi(x, 0.0) - expected)) < 1e-14

    def test_free_equation_residual_small_and_shrinking(self):
        norms = []
        for nx, nt in [(161, 41), (321, 81)]:
            w = free_wave(xs=np.linspace(-16, 16, nx), ts=np.linspace(0, 0.8, nt))
            norms.append(schrodinger_residual(w).max_norm)
        assert norms[1] < 5e-6
        assert norms[1] < norms[0] / 3  # second order in time dominates

    def test_norm_is_conserved(self):
        w = free_wave()
        for k in [0, len(TS) // 2, len(TS) - 1]:
            assert abs(grid_norm(w, k) - 1.0) < 1e-9

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_packet(1.0, width=0.0)


class TestWaveField:
    def test_rejects_nonuniform_grid(self):
        xs = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError, match="uniform"):
            WaveField(xs, np.array([0.0, 1.0]), np.zeros((2, 3)), 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WaveField(np.arange(4.0), np.arange(3.0), np.zeros((4, 3)), 1.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            WaveField(np.arange(4.0), np.arange(3.0), np.zeros((3, 4)), 0.0)

    def test_spacing_properties(self):
        w = free_wave()
        assert w.dx == pytest.approx(0.1)
        assert w.dt == pytest.approx(0.01)


class TestMilnePhase:
    def test_zero_profile_gives_zero_phase(self):
        phase = milne_phase(MASS, RatPoly.zero())
        assert np.all(phase(np.linspace(-2, 2, 9), 0.7) == 0.0)

    def test_constant_profile_gives_zero_phase(self):
        phase = milne_phase(MASS, RatPoly.constant(3))
        assert np.all(phase(np.linspace(-2, 2, 9), 0.7) == 0.0)

    def test_linear_profile_matches_closed_form(self):
        v = 0.6
        phase = milne_phase(MASS, LINEAR)
        x = np.linspace(-4, 4, 17)
        for t in [0.0, 0.3, 1.1]:
            expected = MASS * v * x - 0.5 * MASS * v * v * t
            assert np.max(np.abs(phase(x, t) - expected)) < 1e-12

    def test_quadratic_profile_matches_closed_form(self):
        g = 0.8
        phase = milne_phase(MASS, QUAD)
        x = np.linspace(-4, 4, 17)
        for t in [0.0, 0.3, 1.1]:
            expected = MASS * g * t * x - MASS * g * g * t ** 3 / 6
            assert np.max(np.abs(phase(x, t) - expected)) < 1e-12

    def test_agrees_with_group_level_phase(self):
        """The 1D profile phase is the axis-0 slice of the group formula."""
        rows = np.zeros((3, 3))
        rows[2, 0] = 0.8
        element = MilneElement(np.eye(3), rows, 0.0)
        theta = theta_milne(MASS)
        phase = milne_phase(MASS, QUAD)
        for t in [0.0, 0.3, 0.77, -1.2]:
            for x in [-2.0, 0.0, 1.5]:
                lifted = theta(element, np.array([x, 0.0, 0.0]), t)
                assert phase(np.array([x]), t)[0] == lifted


class TestTransformWave:
    def test_zero_profile_is_identity(self):
        w = free_wave()
        moved = transform_wave(w, RatPoly.zero())
        assert np.array_equal(moved.values, w.values)

    def test_node_aligned_translation_is_exact_shift(self):
        # shift 0.5 = 5 grid steps: the stencil collapses to one node
        w = free_wave()
        moved = transform_wave(w, RatPoly.constant(Fraction(1, 2)))
        assert np.max(np.abs(moved.values[:, 5:] - w.values[:, :-5])) < 1e-15

    def test_boost_equals_momentum_shifted_packet(self):
        moved = transform_wave(free_wave(), LINEAR)
        target = sample_wave(gaussian_packet(MASS, 0.0, 0.3 + MASS * 0.6),
                             XS, TS, MASS)
        assert np.max(np.abs(moved.values - target.values)) < 1e-8

    def test_preserves_norm(self):
        moved = transform_wave(free_wave(), QUAD)
        for k in [0, 40, 80]:
            assert abs(grid_norm(moved, k) - 1.0) < 1e-9

    def test_escaping_support_is_rejected(self):
        xs = np.linspace(-5, 5, 101)
        ts = np.linspace(0, 1, 11)
        w = free_wave(xs=xs, ts=ts)
        with pytest.raises(GridSupportError, match="escapes"):
            transform_wave(w, RatPoly((0, 4)))

    def test_shift_larger_than_grid_is_rejected(self):
        xs = np.linspace(-5, 5, 101)
        ts = np.linspace(0, 1, 11)
        w = free_wave(xs=xs, ts=ts)
        with pytest.raises(GridSupportError):
            transform_wave(w, RatPoly.constant(40))


class TestResidual:
    def test_grid_too_small(self):
        w = sample_wave(gaussian_packet(1.0), np.linspace(-1, 1, 4),
                        np.linspace(0, 1, 3), 1.0)
        with pytest.raises(ValueError, match="grid"):
            schrodinger_residual(w)

    def test_equal_masses_reach_truncation_level(self):
        moved = transform_wave(free_wave(), QUAD)
        addot = QUAD.differentiate().differentiate()
        rep = schrodinger_residual(moved, MASS, MASS, lambda t: float(addot(t)))
        assert rep.max_norm < 2e-4
        assert rep.times.shape == rep.norms.shape

    def test_unequal_masses_leave_large_defect(self):
        moved = transform_wave(free_wave(), QUAD)
        addot = QUAD.differentiate().differentiate()
        g = lambda t: float(addot(t))
        equal = schrodinger_residual(moved, MASS, MASS, g).max_norm
        double = schrodinger_residual(moved, MASS, 2 * MASS, g).max_norm
        assert double > 0.5
        assert double > 1e3 * equal

    def test_wrong_field_sign_leaves_large_defect(self):
        moved = transform_wave(free_wave(), QUAD)
        addot = QUAD.differentiate().differentiate()
        rep = schrodinger_residual(moved, MASS, MASS, lambda t: -float(addot(t)))
        assert rep.max_norm > 0.5

    def test_constant_field_argument_accepted(self):
        moved = transform_wave(free_wave(), QUAD)
        rep = schrodinger_residual(moved, MASS, MASS, 0.8)
        assert rep.max_norm < 2e-4

    def test_convergence_slope_in_expected_band(self):
        addot = QUAD.differentiate().differentiate()
        g = lambda t: float(addot(t))
        hs, norms = [], []
        for nx, nt in [(161, 41), (321, 81), (641, 161)]:
            xs = np.linspace(-16, 16, nx)
            ts = np.linspace(0, 0.8, nt)
            moved = transform_wave(free_wave(xs=xs, ts=ts), QUAD)
            hs.append(moved.dx)
            norms.append(schrodinger_residual(moved, MASS, MASS, g).max_norm)
        assert norms[2] < norms[1] < norms[0]
        slope = convergence_slope(hs, norms)
        assert 1.8 <= slope <= 4.2

    def test_slope_helper_recovers_power_law(self):
        hs = [0.2, 0.1, 0.05]
        assert convergence_slope(hs, [h ** 2 for h in hs]) == pytest.approx(2.0)


class TestMassEqualitySweep:
    def test_quadratic_profile_prefers_ratio_one(self):
        result = mass_equality_sweep(QUAD, MASS, [0.5, 0.9, 1.0, 1.1, 2.0])
        assert not result.degenerate
        assert result.best_ratio == 1.0
        assert result.margin > 10.0
        assert [r for r, _ in result.table] == [0.5, 0.9, 1.0, 1.1, 2.0]
        best = dict(result.table)[1.0]
        for rho, value in result.table:
            if rho != 1.0:
                assert value > 10 * best

    def test_requires_unit_ratio(self):
        with pytest.raises(ValueError, match="1"):
            mass_equality_sweep(QUAD, MASS, [0.5, 2.0])

    def test_linear_profile_is_degenerate(self):
        result = mass_equality_sweep(LINEAR, MASS, [1.0, 2.0])
        assert result.degenerate
        assert result.best_ratio is None
        assert result.margin is None

    def test_zero_profile_is_degenerate(self):
        result = mass_equality_sweep(RatPoly.zero(), MASS, [1.0, 2.0])
        assert result.degenerate

    def test_jsonable_shape(self):
        result = SweepResult(table=[(1.0, 0.5)], degenerate=False,
                             best_ratio=1.0, margin=None)
        data = result.to_jsonable()
        assert data["table"] == [[1.0, 0.5]]
        assert data["best_ratio"] == 1.0
