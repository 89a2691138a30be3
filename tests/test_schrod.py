"""Tests for the accelerated-frame wave checks.

The analytic spreading Gaussian is the only evolution source, so every
residual quoted here is pure discretization error; the frozen bounds
come from reference runs on the same grids.
"""

import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import explab.schrod as schrod
from explab import checks
from explab.groupexp import MilneElement, theta_milne
from explab.ratpoly import RatPoly
from explab.schrod import (
    ROWS_PER_BLOCK,
    SUPPORT_TOL,
    GridSupportError,
    ResidualReport,
    SweepResult,
    WaveField,
    convergence_slope,
    gaussian_packet,
    mass_equality_sweep,
    milne_phase,
    sample_wave,
    schrodinger_residual,
    schrodinger_residuals,
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


# -- per-slice oracle ----------------------------------------------------
# The one-time-slice-at-a-time sampling, transform and residual that the
# blocked versions replace. The blocked code must give the same bits.

def slice_sample_wave(fn, xs, ts, mass):
    values = np.array([fn(xs, t) for t in ts], dtype=complex)
    return WaveField(xs, ts, values, mass)


def slice_lagrange_weights(frac, width=8):
    nodes = np.arange(width) - (width // 2 - 1)
    w = np.ones(width)
    for i in range(width):
        for j in range(width):
            if i != j:
                w[i] *= (frac - nodes[j]) / (nodes[i] - nodes[j])
    return w


def slice_transform_wave(psi, A):
    phase = milne_phase(psi.mass, A)(psi.xs, psi.ts[:, None])
    h = psi.dx
    nx = psi.xs.size
    out = np.zeros_like(psi.values)
    for k, t in enumerate(psi.ts):
        shift = float(A(t))
        vals = psi.values[k]
        margin = min(nx, int(math.ceil(abs(shift) / h)) + 4)
        if margin >= nx:
            raise GridSupportError("shift %.3g exceeds the grid at t=%g" % (shift, t))
        if shift != 0.0:
            edge = vals[:margin] if shift > 0 else vals[-margin:]
            if np.max(np.abs(edge)) > SUPPORT_TOL * max(np.max(np.abs(vals)), 1e-300):
                raise GridSupportError(
                    "wave support escapes the grid at t=%g (shift %.3g)" % (t, shift))
        offset = -shift / h
        n0 = math.floor(offset)
        weights = slice_lagrange_weights(offset - n0)
        row = np.zeros(nx, dtype=complex)
        for widx, wval in enumerate(weights):
            src = n0 + widx - 3
            lo, hi = max(0, -src), min(nx, nx - src)
            if lo < hi:
                row[lo:hi] += wval * vals[lo + src:hi + src]
        out[k] = np.exp(1j * phase[k]) * row
    return WaveField(psi.xs, psi.ts, out, psi.mass)


def slice_schrodinger_residual(psi, m_inertial=None, m_grav=None, g=0.0):
    m_i = psi.mass if m_inertial is None else m_inertial
    m_g = m_i if m_grav is None else m_grav
    g_of_t = g if callable(g) else (lambda t: g)
    h, dt = psi.dx, psi.dt
    v = psi.values
    norms = []
    for k in range(1, psi.ts.size - 1):
        row = v[k]
        d2 = (-row[:-4] + 16 * row[1:-3] - 30 * row[2:-2]
              + 16 * row[3:-1] - row[4:]) / (12 * h * h)
        ddt = (v[k + 1, 2:-2] - v[k - 1, 2:-2]) / (2 * dt)
        x_in = psi.xs[2:-2]
        resid = (1j * ddt + d2 / (2 * m_i)
                 + m_g * g_of_t(float(psi.ts[k])) * x_in * row[2:-2])
        norms.append(math.sqrt(h * float(np.sum(np.abs(resid) ** 2))))
    norms = np.asarray(norms)
    return ResidualReport(times=psi.ts[1:-1], norms=norms,
                          max_norm=float(np.max(norms)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def raised_message(fn, *args):
    with pytest.raises(GridSupportError) as info:
        fn(*args)
    return str(info.value)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_nodes(self, bad):
        # a ValueError, not a pass (NaN) or a RuntimeWarning from inf - inf
        for nodes in ([0.0, bad, 2.0], [bad, 1.0, 2.0], [0.0, 1.0, bad], [0.0, bad, bad]):
            with pytest.raises(ValueError, match="^spatial grid must be uniformly increasing$"):
                WaveField(np.array(nodes), np.array([0.0, 1.0]), np.zeros((2, 3)), 1.0)
            with pytest.raises(ValueError, match="^time grid must be uniformly increasing$"):
                WaveField(np.arange(4.0), np.array(nodes), np.zeros((3, 4)), 1.0)

    @pytest.mark.parametrize("nodes", [[-1e308, 0.0, 1e308], [-1e308, 1e308],
                                       [0.0, 1e308, -1e308]])
    def test_rejects_a_span_that_overflows(self, nodes):
        # finite nodes 1e308 apart or more: a ValueError, neither a step of
        # 1e308 admitted nor the RuntimeWarning of an overflowing subtraction
        with pytest.raises(ValueError, match="^spatial grid must be uniformly increasing$"):
            WaveField(np.array(nodes), np.array([0.0, 1.0]), np.zeros((2, len(nodes))), 1.0)
        with pytest.raises(ValueError, match="^time grid must be uniformly increasing$"):
            WaveField(np.arange(4.0), np.array(nodes), np.zeros((len(nodes), 4)), 1.0)

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

    def test_grid_equals_per_slice_calls(self):
        """One call on the (t, x) grid is bitwise the per-time-slice calls."""
        profile = RatPoly((Fraction(1, 3), Fraction(-2, 7), Fraction(2, 5), Fraction(1, 9)))
        phase = milne_phase(MASS, profile)
        grid = phase(XS, TS[:, None])
        assert grid.shape == (TS.size, XS.size)
        assert np.array_equal(grid, np.array([phase(XS, t) for t in TS]))


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

    @pytest.mark.parametrize("mass", [0.5, 2.0])
    def test_boost_applies_the_wave_mass(self, mass):
        # the phase takes the mass that the wave carries
        moved = transform_wave(free_wave(mass=mass), LINEAR)
        target = sample_wave(gaussian_packet(mass, 0.0, 0.3 + mass * 0.6), XS, TS, mass)
        assert moved.mass == mass
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


# profiles whose shifts are positive, negative, both with an exact zero at
# t = 1/2, and zero throughout
NEG_QUAD = RatPoly((0, 0, Fraction(-2, 5)))
MIXED = RatPoly((0, Fraction(-1, 2), 1))
SHIFT_PROFILES = [QUAD, NEG_QUAD, MIXED, RatPoly.zero()]
# the suite's three levels and a grid shorter than one block
BLOCK_GRIDS = [(161, 41), (321, 81), (641, 161), (161, 3)]


class TestBlocksMatchSliceOracle:
    @pytest.mark.parametrize("nx, nt", BLOCK_GRIDS)
    @pytest.mark.parametrize("packet", [gaussian_packet(MASS, x0=0.0, k0=0.3),
                                        gaussian_packet(2.0, x0=0.5, k0=1.25, width=0.8)])
    def test_sample_wave_bits(self, nx, nt, packet):
        xs, ts = np.linspace(-16, 16, nx), np.linspace(0, 0.8, nt)
        seen = []

        def fn(x, t):
            seen.append((x.shape, t.copy()))
            return packet(x, t)

        got = sample_wave(fn, xs, ts, MASS)
        assert same_bits(got.values, slice_sample_wave(packet, xs, ts, MASS).values)
        # one call per block, in order, x as a row and t as a column
        assert len(seen) == -(-nt // ROWS_PER_BLOCK)
        for x_shape, t in seen:
            assert x_shape == (1, nx)
            assert t.ndim == 2 and t.shape[1] == 1 and 1 <= t.shape[0] <= ROWS_PER_BLOCK
        assert same_bits(np.concatenate([t[:, 0] for _, t in seen]), ts)

    @pytest.mark.parametrize("nx, nt", BLOCK_GRIDS)
    @pytest.mark.parametrize("profile", SHIFT_PROFILES, ids=str)
    def test_transform_and_residual_bits(self, nx, nt, profile):
        w = free_wave(xs=np.linspace(-16, 16, nx), ts=np.linspace(0, 0.8, nt))
        moved = transform_wave(w, profile)
        assert same_bits(moved.values, slice_transform_wave(w, profile).values)
        addot = profile.differentiate().differentiate()
        for g in (lambda t: float(addot(t)), 0.8):
            for m_grav in (MASS, 2 * MASS):
                got = schrodinger_residual(moved, MASS, m_grav, g)
                want = slice_schrodinger_residual(moved, MASS, m_grav, g)
                assert same_bits(got.norms, want.norms)
                assert got.max_norm == want.max_norm
                assert same_bits(got.times, want.times)

    def test_mixed_profile_crosses_zero_on_a_node(self):
        assert MIXED(0.5) == 0.0 and MIXED(0.25) < 0 < MIXED(0.75)
        assert 0.5 in np.linspace(0, 0.8, 161)

    def test_g_is_called_once_per_interior_slice_in_order(self):
        seen = []
        schrodinger_residual(free_wave(), MASS, MASS, lambda t: seen.append(t) or 0.8)
        assert seen == [float(t) for t in TS[1:-1]]
        assert all(type(t) is float for t in seen)
        assert len(seen) > 2 * ROWS_PER_BLOCK

    @pytest.mark.parametrize("xs, ts, profile, first", [
        # support escapes in the second block, for either sign of shift
        (np.linspace(-16, 16, 161), np.linspace(0, 4, 81), RatPoly((0, 0, 1)), 39),
        (np.linspace(-16, 16, 161), np.linspace(0, 4, 81), RatPoly((0, 0, -1)), 36),
        (np.linspace(-5, 5, 101), np.linspace(0, 1, 11), RatPoly((0, 4)), 1),
        # the shift exceeds the grid on the first row, where the support
        # escapes too: the margin error comes first
        (np.linspace(-5, 5, 101), np.linspace(0, 1, 11), RatPoly.constant(40), 0),
    ])
    def test_first_failing_slice_raises_the_same_error(self, xs, ts, profile, first):
        w = free_wave(xs=xs, ts=ts)
        message = raised_message(transform_wave, w, profile)
        assert message == raised_message(slice_transform_wave, w, profile)
        assert message.endswith("t=%g" % ts[first]) or "t=%g " % ts[first] in message

    def test_margin_error_in_a_later_block(self):
        # an all-zero wave never escapes, so only the margin can fail
        xs, ts = np.linspace(-5, 5, 101), np.linspace(0, 1, 81)
        w = WaveField(xs, ts, np.zeros((ts.size, xs.size)), MASS)
        profile = RatPoly((0, 0, 20))
        message = raised_message(transform_wave, w, profile)
        assert message == raised_message(slice_transform_wave, w, profile)
        assert message.startswith("shift") and "t=0.7" in message

    def test_non_finite_shift_exceeds_the_grid(self):
        # A(t) overflows to inf on the second slice
        xs, ts = np.linspace(-5, 5, 101), np.linspace(0, 1e200, 3)
        w = WaveField(xs, ts, np.zeros((ts.size, xs.size)), MASS)
        with np.errstate(over="ignore"), pytest.raises(
                GridSupportError, match="shift inf exceeds the grid at t=5e"):
            transform_wave(w, RatPoly((0, 0, 1)))

    @pytest.mark.parametrize("run", [
        lambda: checks.schrodinger_suite(1, 0),
        lambda: mass_equality_sweep(cubic_profile(1), 1.0, checks.SWEEP_RATIOS)],
        ids=["suite", "cubic-sweep"])
    def test_peak_memory_stays_below_the_per_slice_loop(self, run):
        # 5.83 MB is the largest tracemalloc peak of the per-slice loops,
        # the suite's; blocks keep whole-grid temporaries out of the peak
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_830_000


class TestSharedStencil:
    # unsorted, with a duplicate
    M_GRAVS = [2 * MASS, MASS, 0.5 * MASS, MASS, 1.1 * MASS]

    @pytest.mark.parametrize("nx, nt", BLOCK_GRIDS)
    @pytest.mark.parametrize("profile", SHIFT_PROFILES, ids=str)
    def test_every_mass_has_the_slice_oracle_bits(self, nx, nt, profile):
        w = free_wave(xs=np.linspace(-16, 16, nx), ts=np.linspace(0, 0.8, nt))
        moved = transform_wave(w, profile)
        addot = profile.differentiate().differentiate()
        for g in (lambda t: float(addot(t)), 0.8):
            reports = schrodinger_residuals(moved, MASS, self.M_GRAVS, g)
            assert len(reports) == len(self.M_GRAVS)
            for m_grav, got in zip(self.M_GRAVS, reports):
                want = slice_schrodinger_residual(moved, MASS, m_grav, g)
                assert same_bits(got.norms, want.norms)
                assert got.max_norm == want.max_norm
                assert same_bits(got.times, want.times)

    def test_g_is_called_once_per_interior_slice_not_per_mass(self):
        seen = []
        schrodinger_residuals(free_wave(), MASS, self.M_GRAVS,
                              lambda t: seen.append(t) or 0.8)
        assert seen == [float(t) for t in TS[1:-1]]

    def test_sweep_table_is_the_per_ratio_residuals(self, monkeypatch):
        profile, ratios = cubic_profile(3), [2.0, 0.5, 1.0, 1.1, 0.9]
        addot = profile.differentiate().differentiate()
        xs, ts = schrod.wave_grid(*schrod.SWEEP_GRID)
        packet = gaussian_packet(MASS, x0=0.0, k0=0.3)
        moved = transform_wave(sample_wave(packet, xs, ts, MASS), profile)
        want = [(rho, schrodinger_residual(moved, MASS, rho * MASS,
                                           lambda t: float(addot(t))).max_norm)
                for rho in ratios]
        calls = []
        real = schrod.schrodinger_residuals
        monkeypatch.setattr(schrod, "schrodinger_residuals",
                            lambda *args: calls.append(args) or real(*args))
        assert mass_equality_sweep(profile, MASS, ratios).table == want
        assert len(calls) == 1

    @pytest.mark.parametrize("m_inertial", [0.0, math.inf, -1.0, math.nan])
    def test_degenerate_inertial_mass_is_refused(self, m_inertial):
        seen = []
        g = lambda t: seen.append(t) or 0.8
        with pytest.raises(ValueError, match="m_inertial must be positive and finite"):
            schrodinger_residual(free_wave(), m_inertial, MASS, g)
        with pytest.raises(ValueError, match="m_inertial must be positive and finite"):
            schrodinger_residuals(free_wave(), m_inertial, [MASS, 2 * MASS], g)
        assert seen == []


BAD_MASSES = [0.0, -1.0, math.nan, math.inf]


class TestMassChecks:
    # a non-positive or non-finite mass is refused, by the functions of the
    # wave layer before any grid work

    @pytest.mark.parametrize("mass", BAD_MASSES)
    def test_wave_field(self, mass):
        with pytest.raises(ValueError, match="^mass must be positive and finite$"):
            sample_wave(gaussian_packet(MASS), XS, TS, mass)
        with pytest.raises(ValueError, match="^mass must be positive and finite$"):
            WaveField(XS, TS, np.zeros((TS.size, XS.size)), mass)

    @pytest.mark.parametrize("mass", BAD_MASSES)
    def test_gaussian_packet(self, mass):
        with pytest.raises(ValueError, match="^m must be positive and finite$"):
            gaussian_packet(mass)

    @pytest.mark.parametrize("mass", BAD_MASSES)
    def test_mass_equality_sweep(self, mass, monkeypatch):
        calls = []
        monkeypatch.setattr(schrod, "sample_wave", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^m_inertial must be positive and finite$"):
            mass_equality_sweep(QUAD, mass, [0.5, 1.0, 2.0])
        assert calls == []


def cubic_profile(seed):
    """The benchmark's seeded cubic frame, A(t) = a2 t^2 + a3 t^3."""
    rng = random.Random(seed)
    return RatPoly([0, 0, Fraction(rng.randint(2, 4), 10), Fraction(rng.randint(1, 3), 10)])


class TestGoldenDigests:
    # recorded with the per-slice transform and residual, and the suite
    # computing its finest level itself
    def test_schrodinger_suite(self):
        data = json.dumps(checks.schrodinger_suite(1, 0), sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == (
            "53f7dbc8d6b6b7eb448b0d99f4399aa15054daae3aa4e544950f09ee30e56408")

    def test_seeded_cubic_sweeps(self):
        tables = [mass_equality_sweep(cubic_profile(seed), 1.0,
                                      checks.SWEEP_RATIOS).to_jsonable()
                  for seed in range(1, 11)]
        data = json.dumps(tables, sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == (
            "ca8a8fe4fccde241027b121a5199bc988d829c6e19de3c66acf6cec6492976c4")

    def test_suite_finest_level_is_the_sweep_entry(self):
        suite = {c["name"]: c for c in checks.schrodinger_suite(1, 0)}
        finest = suite["residual-convergence-order"]["residuals"][-1]
        assert finest == dict(suite["mass-ratio-sweep"]["table"])[1.0]


class TestSweepNonFinite:
    @pytest.fixture
    def nan_at_ratio_two(self, monkeypatch):
        real = schrod.schrodinger_residuals

        def planted(psi, m_inertial, m_gravs, g=0.0):
            return [ResidualReport(report.times, report.norms, math.nan)
                    if m_grav == 2.0 * m_inertial else report
                    for m_grav, report in zip(m_gravs, real(psi, m_inertial, m_gravs, g))]

        monkeypatch.setattr(schrod, "schrodinger_residuals", planted)

    @pytest.mark.parametrize("ratios", [[2.0, 0.5, 0.9, 1.0, 1.1],
                                        [0.5, 0.9, 1.0, 1.1, 2.0]],
                             ids=["nan-first", "nan-last"])
    def test_nan_entry_leaves_the_sweep_unscored(self, nan_at_ratio_two, ratios):
        result = mass_equality_sweep(QUAD, MASS, ratios)
        assert math.isnan(dict(result.table)[2.0])
        assert not result.degenerate
        assert result.best_ratio is None and result.margin is None

    def test_nan_entry_fails_the_suite_check(self, nan_at_ratio_two):
        sweep = {c["name"]: c for c in checks.schrodinger_suite(1, 0)}["mass-ratio-sweep"]
        assert not sweep["passed"] and sweep["best_ratio"] is None
