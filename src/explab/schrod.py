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
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .groupexp import acceleration_phase_polys
from .ratpoly import RatPoly

SUPPORT_TOL = 1e-10


class GridSupportError(ValueError):
    """Transformed wave needs non-negligible data from outside the grid."""


def _uniform_spacing(arr, name):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("%s must hold at least two nodes" % name)
    steps = np.diff(arr)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-12 * abs(steps[0]):
        raise ValueError("%s must be uniformly increasing" % name)
    return arr, float(steps[0])


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
        if not self.mass > 0:
            raise ValueError("mass must be positive")
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
    if not width > 0:
        raise ValueError("width must be positive")

    def psi(x, t):
        z = 1 + 1j * t / (2 * m * width ** 2)
        drift = x - x0 - k0 * t / m
        return ((2 * np.pi * width ** 2) ** -0.25 / np.sqrt(z)
                * np.exp(1j * k0 * (x - x0) - 1j * k0 ** 2 * t / (2 * m)
                         - drift ** 2 / (4 * width ** 2 * z)))

    return psi


def sample_wave(fn: Callable, xs, ts, mass: float) -> WaveField:
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    values = np.array([fn(xs, t) for t in ts], dtype=complex)
    return WaveField(xs, ts, values, mass)


def _profile_rows(A: RatPoly) -> np.ndarray:
    """Divided-power rows of the 1D profile, embedded along the first axis."""
    rows = np.zeros((max(A.degree, 0) + 1, 3))
    for n in range(rows.shape[0]):
        rows[n, 0] = float(A.coeff(n)) * math.factorial(n)
    return rows


def milne_phase(mass: float, A: RatPoly) -> Callable:
    """theta(x, t) for the 1D profile A; same closed form as theta_milne."""
    rows = _profile_rows(A)
    if rows.shape[0] == 1:
        return lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    _, uniform = acceleration_phase_polys(mass, rows)
    dA = rows[1:]

    def phase(x, t):
        adot = dA[-1]
        for k in range(dA.shape[0] - 2, -1, -1):
            adot = dA[k] + adot * t / (k + 1)
        return (mass * (adot[0] * np.asarray(x, dtype=float))
                + npoly.polyval(t, uniform) - npoly.polyval(0.0, uniform))

    return phase


def _lagrange_weights(frac: float, width: int = 8) -> np.ndarray:
    nodes = np.arange(width) - (width // 2 - 1)
    w = np.ones(width)
    for i in range(width):
        for j in range(width):
            if i != j:
                w[i] *= (frac - nodes[j]) / (nodes[i] - nodes[j])
    return w


def transform_wave(psi: WaveField, A: RatPoly, mass: Optional[float] = None,
                   support_tol: float = SUPPORT_TOL) -> WaveField:
    """Move psi into the frame x -> x + A(t), with the matching phase.

    psi'(x, t) = exp(i*theta(x, t)) * psi(x - A(t), t); off-node source
    points are interpolated with an 8-point Lagrange stencil.  Values are
    taken as zero beyond the grid, which is legitimate only while the
    wave carries negligible amplitude there; a slice about to pull in
    non-negligible off-grid data raises GridSupportError.
    """
    mass = psi.mass if mass is None else mass
    theta = milne_phase(mass, A)
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
            if np.max(np.abs(edge)) > support_tol * max(np.max(np.abs(vals)), 1e-300):
                raise GridSupportError(
                    "wave support escapes the grid at t=%g (shift %.3g)" % (t, shift))
        offset = -shift / h
        n0 = math.floor(offset)
        weights = _lagrange_weights(offset - n0)
        row = np.zeros(nx, dtype=complex)
        for widx, wval in enumerate(weights):
            src = n0 + widx - 3
            lo, hi = max(0, -src), min(nx, nx - src)
            if lo < hi:
                row[lo:hi] += wval * vals[lo + src:hi + src]
        out[k] = np.exp(1j * theta(psi.xs, t)) * row
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
    interior nodes only; g may be a constant or a callable of t.
    """
    m_i = psi.mass if m_inertial is None else m_inertial
    m_g = m_i if m_grav is None else m_grav
    g_of_t = g if callable(g) else (lambda t: g)
    if psi.xs.size < 5 or psi.ts.size < 3:
        raise ValueError("grid too small for the residual stencils")
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


def mass_equality_sweep(A: RatPoly, m_inertial: float,
                        ratios: Sequence[float]) -> SweepResult:
    """Score gravitational/inertial mass ratios against the transformed wave.

    A Gaussian packet (k0 = 0.3, unit width) is moved into the frame A on
    a 641 x 161 grid over x in [-16, 16], t in [0, 0.8], and each ratio's
    entry is the residual there. The inferred uniform field is
    g(t) = A''(t); when that is identically zero the sweep cannot
    distinguish ratios and is flagged degenerate instead of scored.
    """
    ratios = [float(r) for r in ratios]
    if not any(r == 1.0 for r in ratios):
        raise ValueError("ratios must include 1")
    addot = A.differentiate().differentiate()
    degenerate = addot.is_zero()
    g_of_t = lambda t: float(addot(t))
    packet = gaussian_packet(m_inertial, x0=0.0, k0=0.3)
    xs = np.linspace(-16.0, 16.0, 641)
    ts = np.linspace(0.0, 0.8, 161)
    moved = transform_wave(sample_wave(packet, xs, ts, m_inertial), A)
    table = [(rho, schrodinger_residual(moved, m_inertial, rho * m_inertial,
                                        g_of_t).max_norm)
             for rho in ratios]
    if degenerate:
        return SweepResult(table=table, degenerate=True, best_ratio=None,
                           margin=None)
    best_ratio, best = min(table, key=lambda rv: rv[1])
    others = [v for r, v in table if r != best_ratio]
    margin = (min(others) / best) if others and best > 0 else None
    return SweepResult(table=table, degenerate=False, best_ratio=best_ratio,
                       margin=margin)
