"""Finite-difference covariance check for accelerated-frame wave mechanics.

The only evolution source is the analytic spreading Gaussian; no PDE is
ever stepped.  A wave is moved into a polynomially accelerated frame by
the phase-and-shift transform

    psi'(x, t) = exp(i*theta(x, t)) * psi(x - A(t), t),
    theta(x, t) = m A'(t) x - (m/2) int_0^t A'(s)^2 ds,

and the residual of the field equation

    i d_t psi + (1/(2 m_inertial)) d_xx psi - m_grav * phi * psi,
    phi(x) = -g(t) x,

is measured on interior grid points.  With g = A'' the residual of a
transformed free solution sits at truncation level exactly when
m_grav = m_inertial; every other mass ratio leaves an O(|ratio-1|)
defect that refinement cannot remove.  That asymmetry is what
mass_equality_sweep scores.

sample_wave, transform_wave and schrodinger_residuals work on
ROWS_PER_BLOCK time slices at a time, as numpy calls over the block, with
the stencils and operand order of a one-slice loop, so each value has the
bits that loop gives; the block bound keeps whole-grid temporaries out of
peak memory.  sample_wave calls fn once per block, with x of shape
(1, nx) and t of shape (rows, 1).  The transform checks the support of
every block before any interpolation, derives the shift table (offsets,
whole-node parts and Lagrange weights) once per call, and gathers each
row's (nx + 7)-node window of the padded row once, reading its eight
taps as slices of it, since a row shifts by one whole number of nodes.
One stencil pass per block serves every gravitational mass of a
schrodinger_residuals call: only m_grav * g(t) * x * psi differs between
masses, and schrodinger_residual is its one-mass call.  A callable g is
called once per interior slice with a float t per residual call, not
once per mass.  gaussian_packet, schrodinger_residuals, mass_equality_sweep
and a WaveField, whose mass transform_wave uses, refuse a non-positive or
non-finite mass with a ValueError, the functions before any grid work.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .groupexp import acceleration_phase_polys, milne_phase_value
from .ratpoly import RatPoly

SUPPORT_TOL = 1e-10
# Time slices per block of the wave sampling, the transform and the
# residual. Blocks keep whole-grid temporaries out of peak memory: the
# schrodinger suite peaks at 4.98 MB under tracemalloc, 11.6 MB with the
# whole grid as one block and 6.6 MB with 64 rows; 16 rows save 0.7 MB but
# take 8% longer.
ROWS_PER_BLOCK = 32
# (space, time) nodes of the grid mass_equality_sweep scores on
SWEEP_GRID = (641, 161)


class GridSupportError(ValueError):
    """Transformed wave needs non-negligible data from outside the grid."""


def _require_mass(mass: float, name: str) -> None:
    if not (math.isfinite(mass) and mass > 0):
        raise ValueError("%s must be positive and finite" % name)


def _uniform_spacing(arr, name):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("%s must hold at least two nodes" % name)
    # the good case asserted, so that NaN fails; increasing with a finite span
    # (a Python float difference overflows silently) holds every step finite
    if np.all(arr[1:] > arr[:-1]) and math.isfinite(float(arr[-1]) - float(arr[0])):
        steps = np.diff(arr)
        if np.max(np.abs(steps - steps[0])) <= 1e-12 * steps[0]:
            return arr, float(steps[0])
    raise ValueError("%s must be uniformly increasing" % name)


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex wave samples over a uniform space-time grid."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray  # (len(ts), len(xs))
    mass: float

    def __post_init__(self):
        xs, _ = _uniform_spacing(self.xs, "spatial grid")
        ts, _ = _uniform_spacing(self.ts, "time grid")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (ts.size, xs.size):
            raise ValueError("values must have shape (time, space)")
        _require_mass(self.mass, "mass")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dt(self) -> float:
        return float(self.ts[1] - self.ts[0])


def gaussian_packet(m: float, x0: float = 0.0, k0: float = 0.0,
                    width: float = 1.0) -> Callable:
    """Analytic spreading Gaussian solving i d_t psi = -(1/2m) d_xx psi."""
    _require_mass(m, "m")
    if not width > 0:
        raise ValueError("width must be positive")

    # the imaginary parts are real quotients times 1j: Python's complex
    # division by a float rounds unlike numpy's, so this form gives a float
    # t and an array of t the same bits
    def psi(x, t):
        z = 1 + 1j * (t / (2 * m * width ** 2))
        drift = x - x0 - k0 * t / m
        return ((2 * np.pi * width ** 2) ** -0.25 / np.sqrt(z)
                * np.exp(1j * k0 * (x - x0) - 1j * (k0 ** 2 * t / (2 * m))
                         - drift ** 2 / (4 * width ** 2 * z)))

    return psi


def sample_wave(fn: Callable, xs, ts, mass: float) -> WaveField:
    """fn(x, t) on the grid, one call per block of ROWS_PER_BLOCK slices:
    fn must broadcast x of shape (1, nx) against t of shape (rows, 1).
    Each value has the bits of the call fn(xs, t) for its float t if fn
    rounds alike on a float t and on an array of t, as gaussian_packet
    does."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    values = np.empty((ts.size, xs.size), dtype=complex)
    for start in range(0, ts.size, ROWS_PER_BLOCK):
        rows = slice(start, start + ROWS_PER_BLOCK)
        values[rows] = fn(xs[None, :], ts[rows, None])
    return WaveField(xs, ts, values, mass)


def _profile_rows(A: RatPoly) -> np.ndarray:
    """Divided-power rows of the 1D profile, embedded along the first axis."""
    rows = np.zeros((max(A.degree, 0) + 1, 3))
    for n in range(rows.shape[0]):
        rows[n, 0] = float(A.coeff(n)) * math.factorial(n)
    return rows


def milne_phase(mass: float, A: RatPoly) -> Callable:
    """theta(x, t) for the 1D profile A: theta_milne of the frame change
    x -> x + A(t), with x on the first spatial axis.  x and t broadcast.
    The phase polynomials are derived once here, not once per call."""
    polys = acceleration_phase_polys(mass, _profile_rows(A))
    return lambda x, t: milne_phase_value(polys, 0.0, np.multiply.outer(x, [1.0, 0.0, 0.0]), t)


def _lagrange_weights(frac: np.ndarray, width: int = 8) -> np.ndarray:
    """8-point Lagrange weights at an array of fractional offsets, stacked
    on a new last axis."""
    nodes = np.arange(width) - (width // 2 - 1)
    w = np.ones(frac.shape + (width,))
    for i in range(width):
        for j in range(width):
            if i != j:
                w[..., i] *= (frac - nodes[j]) / (nodes[i] - nodes[j])
    return w


def _check_support(vals: np.ndarray, shifts: np.ndarray, ts: np.ndarray, h: float) -> None:
    """Raise GridSupportError for the first row of the block that shifts
    past the grid or would pull data above SUPPORT_TOL times the row's
    peak in from beyond it; on one row the margin error comes first."""
    nx = vals.shape[1]
    margins = np.minimum(nx, np.ceil(np.abs(shifts) / h) + 4)
    too_far = ~(margins < nx)  # a non-finite shift is too far as well
    mags = np.abs(vals)
    last = np.where(too_far, nx, margins).astype(int)[:, None] - 1
    # running maxima over the widest margin of the block only: the rest of
    # a row is never read
    width = int(last.max()) + 1
    lead = np.take_along_axis(np.maximum.accumulate(mags[:, :width], axis=1), last, 1)[:, 0]
    trail = np.take_along_axis(
        np.maximum.accumulate(mags[:, ::-1][:, :width], axis=1), last, 1)[:, 0]
    edge = np.where(shifts > 0, lead, trail)
    escapes = (shifts != 0.0) & (edge > SUPPORT_TOL * np.maximum(mags.max(axis=1), 1e-300))
    bad = np.flatnonzero(too_far | escapes)
    if bad.size:
        k = bad[0]
        if too_far[k]:
            raise GridSupportError("shift %.3g exceeds the grid at t=%g" % (shifts[k], ts[k]))
        raise GridSupportError(
            "wave support escapes the grid at t=%g (shift %.3g)" % (ts[k], shifts[k]))


def transform_wave(psi: WaveField, A: RatPoly) -> WaveField:
    """Move psi into the frame x -> x + A(t), with the matching phase.

    psi'(x, t) = exp(i*theta(x, t)) * psi(x - A(t), t); off-node source
    points are interpolated with an 8-point Lagrange stencil.  Values are
    taken as zero beyond the grid, which is legitimate only while the
    wave carries negligible amplitude there; the first slice about to pull
    in non-negligible off-grid data raises GridSupportError, before any
    slice is interpolated.  Slices are transformed ROWS_PER_BLOCK at a
    time, each value as the one-slice stencil computes it.
    """
    phase = milne_phase(psi.mass, A)
    shifts = A(psi.ts)
    h = psi.dx
    nx = psi.xs.size
    blocks = [slice(start, start + ROWS_PER_BLOCK)
              for start in range(0, psi.ts.size, ROWS_PER_BLOCK)]
    # every check first: a non-finite shift must raise, not reach the table
    for rows in blocks:
        _check_support(psi.values[rows], shifts[rows], psi.ts[rows], h)
    offset = -shifts / h
    n0 = np.floor(offset)
    weights = _lagrange_weights(offset - n0)
    n0 = n0.astype(int)
    out = np.empty_like(psi.values)
    for rows in blocks:
        vals, starts = psi.values[rows], n0[rows]
        pad = int(np.max(np.abs(starts))) + 4
        padded = np.zeros((vals.shape[0], nx + 2 * pad), dtype=complex)
        padded[:, pad:pad + nx] = vals
        # row k's tap widx is the slice [widx, widx + nx) of its window,
        # which starts at node n0[k] - 3 of the row
        window = sliding_window_view(padded, nx + 7, axis=1)[
            np.arange(vals.shape[0]), starts + (pad - 3)]
        block = np.zeros_like(vals)
        for widx in range(weights.shape[1]):
            block += weights[rows, widx, None] * window[:, widx:widx + nx]
        out[rows] = np.exp(1j * phase(psi.xs, psi.ts[rows, None])) * block
    return WaveField(psi.xs, psi.ts, out, psi.mass)


@dataclass(frozen=True)
class ResidualReport:
    times: np.ndarray   # interior time nodes
    norms: np.ndarray   # discrete L2 residual per interior slice
    max_norm: float


def schrodinger_residual(psi: WaveField, m_inertial: Optional[float] = None,
                         m_grav: Optional[float] = None,
                         g=0.0) -> ResidualReport:
    """Residual of i d_t + (1/(2 m_i)) d_xx - m_g phi with phi = -g(t) x.

    Fourth-order central stencil in x, second-order in t, evaluated on
    interior nodes only; g may be a constant or a callable of t.  The
    one-mass call of schrodinger_residuals.
    """
    m_i = psi.mass if m_inertial is None else m_inertial
    m_g = m_i if m_grav is None else m_grav
    return schrodinger_residuals(psi, m_i, [m_g], g)[0]


def schrodinger_residuals(psi: WaveField, m_inertial: float, m_gravs: Sequence[float],
                          g=0.0) -> List[ResidualReport]:
    """schrodinger_residual(psi, m_inertial, m_g, g) for each m_g of
    m_gravs, in order, from one stencil pass: per block, d_xx, d_t, the
    kinetic part and g(t) are computed once, and only the field term
    m_g * g(t) * x * psi once per mass.
    """
    _require_mass(m_inertial, "m_inertial")
    g_of_t = g if callable(g) else (lambda t: g)
    if psi.xs.size < 5 or psi.ts.size < 3:
        raise ValueError("grid too small for the residual stencils")
    h, dt = psi.dx, psi.dt
    v = psi.values
    x_in = psi.xs[2:-2]
    sums = [[] for _ in m_gravs]
    for start in range(1, psi.ts.size - 1, ROWS_PER_BLOCK):
        stop = min(start + ROWS_PER_BLOCK, psi.ts.size - 1)
        rows = v[start:stop]
        d2 = (-rows[:, :-4] + 16 * rows[:, 1:-3] - 30 * rows[:, 2:-2]
              + 16 * rows[:, 3:-1] - rows[:, 4:]) / (12 * h * h)
        ddt = (v[start + 1:stop + 1, 2:-2] - v[start - 1:stop - 1, 2:-2]) / (2 * dt)
        base = 1j * ddt + d2 / (2 * m_inertial)
        gs = np.array([g_of_t(float(t)) for t in psi.ts[start:stop]])
        core = rows[:, 2:-2]
        for m_g, acc in zip(m_gravs, sums):
            field = m_g * gs
            resid = base + field[:, None] * x_in * core
            acc.append(np.sum(np.abs(resid) ** 2, axis=1))
    reports = []
    for acc in sums:
        norms = np.sqrt(h * np.concatenate(acc))
        reports.append(ResidualReport(times=psi.ts[1:-1], norms=norms,
                                      max_norm=float(np.max(norms))))
    return reports


def convergence_slope(hs: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log(residual) against log(h)."""
    hs = np.log(np.asarray(hs, dtype=float))
    rs = np.log(np.asarray(residuals, dtype=float))
    return float(np.polyfit(hs, rs, 1)[0])


@dataclass(frozen=True)
class SweepResult:
    table: List[Tuple[float, float]]  # (ratio, plateau residual)
    degenerate: bool
    best_ratio: Optional[float]
    margin: Optional[float]  # runner-up residual / best residual

    def to_jsonable(self) -> dict:
        return {
            "table": [[r, v] for r, v in self.table],
            "degenerate": self.degenerate,
            "best_ratio": self.best_ratio,
            "margin": self.margin,
        }


def wave_grid(nx: int, nt: int) -> Tuple[np.ndarray, np.ndarray]:
    """nx x nt uniform nodes over the sweep's domain, x in [-16, 16] and
    t in [0, 0.8]."""
    return np.linspace(-16.0, 16.0, nx), np.linspace(0.0, 0.8, nt)


def mass_equality_sweep(A: RatPoly, m_inertial: float,
                        ratios: Sequence[float]) -> SweepResult:
    """Score gravitational/inertial mass ratios against the transformed wave.

    A Gaussian packet (k0 = 0.3, unit width) is moved into the frame A on
    the SWEEP_GRID nodes of wave_grid, and each ratio's entry is the
    residual there. The inferred uniform field is g(t) = A''(t); when that
    is identically zero the sweep cannot distinguish ratios and is flagged
    degenerate instead of scored. A table with a non-finite entry is not
    scored either: best_ratio and margin are None.
    """
    _require_mass(m_inertial, "m_inertial")
    ratios = [float(r) for r in ratios]
    if not any(r == 1.0 for r in ratios):
        raise ValueError("ratios must include 1")
    addot = A.differentiate().differentiate()
    degenerate = addot.is_zero()
    g_of_t = lambda t: float(addot(t))
    packet = gaussian_packet(m_inertial, x0=0.0, k0=0.3)
    xs, ts = wave_grid(*SWEEP_GRID)
    moved = transform_wave(sample_wave(packet, xs, ts, m_inertial), A)
    reports = schrodinger_residuals(moved, m_inertial, [rho * m_inertial for rho in ratios],
                                    g_of_t)
    table = [(rho, report.max_norm) for rho, report in zip(ratios, reports)]
    if degenerate or not all(math.isfinite(v) for _, v in table):
        return SweepResult(table=table, degenerate=degenerate, best_ratio=None,
                           margin=None)
    best_ratio, best = min(table, key=lambda rv: rv[1])
    others = [v for r, v in table if r != best_ratio]
    margin = (min(others) / best) if others and best > 0 else None
    return SweepResult(table=table, degenerate=False, best_ratio=best_ratio,
                       margin=margin)
