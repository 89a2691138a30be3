"""Kinematical groups, multiplier phases, and exponent extraction.

Conventions fixed once for the whole package:

* elements act on events by ``act(r, x, t)``;
* a phase ``theta`` enters wave transforms as
  ``(T_r psi)(p) = exp(i*theta(r, p)) * psi(act(inverse(r), p))``;
* the finite exponent of a phase is

      xi(r, s, p) = theta(r, p) + theta(s, r^-1 p) - theta(rs, p)

  measuring the failure of ``T_r T_s = T_{rs}``: composing two
  phase-twisted transforms picks up exactly ``exp(i*xi(r, s, p))``.

With this orientation the translation/boost extraction below returns
``+mass``, matching the classification's canonical representative.

Everything is double precision in normal use, but the formulas avoid
float-only operations, so rotation-free elements built from int or
Fraction scalars evaluate exactly (used by the exact identity tests).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .lie import LieAlgebra, Role

ORTHOGONALITY_TOL = 1e-12

Event = Tuple[np.ndarray, float]


class OrderMismatchError(ValueError):
    """Composition of acceleration elements of different polynomial order."""


class ExtrapolationError(RuntimeError):
    """The extrapolated exponent sequence did not converge."""


def _vector(x):
    v = np.asarray(x)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %r" % (v.shape,))
    return v


def _orthogonality_defect(R):
    G = np.dot(np.transpose(R), R)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            worst = max(worst, abs(float(G[i][j] - (1 if i == j else 0))))
    return worst


def _check_rotation(R):
    R = np.asarray(R)
    if R.shape != (3, 3):
        raise ValueError("rotation part must be a 3x3 matrix")
    defect = _orthogonality_defect(R)
    if defect > ORTHOGONALITY_TOL:
        raise ValueError("rotation part is not orthogonal (defect %.3e)" % defect)
    return R


@dataclass(frozen=True, eq=False)
class GalileanElement:
    """Rotation R, boost v, space translation a, time shift b.

    Acts on events by (x, t) -> (R x + v t + a, t + b).
    """

    R: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "R", _check_rotation(self.R))
        object.__setattr__(self, "v", _vector(self.v))
        object.__setattr__(self, "a", _vector(self.a))


@dataclass(frozen=True, eq=False)
class MilneElement:
    """Rotation R, polynomial translation A, time shift b.

    Acts on events by (x, t) -> (R x + A(t), t + b).  Row n of A holds the
    divided-power coefficient v_(n), so A(t) = sum_n t^n/n! * v_(n); the
    order is the number of rows minus one and is preserved by composition.
    """

    R: np.ndarray
    A: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "R", _check_rotation(self.R))
        A = np.asarray(self.A)
        if A.ndim != 2 or A.shape[1] != 3 or A.shape[0] < 1:
            raise ValueError("A must have shape (order+1, 3)")
        object.__setattr__(self, "A", A)

    @property
    def order(self) -> int:
        return self.A.shape[0] - 1


def galilean_identity() -> GalileanElement:
    return GalileanElement(np.eye(3), np.zeros(3), np.zeros(3), 0.0)


def milne_identity(order: int) -> MilneElement:
    return MilneElement(np.eye(3), np.zeros((order + 1, 3)), 0.0)


def _divided_eval(A, t):
    """Evaluate sum_n t^n/n! * A[n] by a divided-power Horner scheme."""
    n = len(A) - 1
    acc = A[n]
    for k in range(n - 1, -1, -1):
        acc = A[k] + acc * t / (k + 1)
    return acc


def _divided_shift(A, b):
    """Divided-power coefficients of t -> A(t + b)."""
    n = len(A)
    rows = []
    for k in range(n):
        acc = A[n - 1]
        for j in range(n - 2, k - 1, -1):
            acc = A[j] + acc * b / (j + 1 - k)
        rows.append(acc)
    return np.array(rows, dtype=A.dtype)


def compose(r, s):
    """Group product: act(compose(r, s), p) = act(r, act(s, p))."""
    if isinstance(r, GalileanElement) and isinstance(s, GalileanElement):
        return GalileanElement(
            np.dot(r.R, s.R),
            np.dot(r.R, s.v) + r.v,
            np.dot(r.R, s.a) + r.v * s.b + r.a,
            r.b + s.b,
        )
    if isinstance(r, MilneElement) and isinstance(s, MilneElement):
        if r.order != s.order:
            raise OrderMismatchError(
                "cannot compose orders %d and %d" % (r.order, s.order))
        rotated = np.dot(s.A, np.transpose(r.R))
        return MilneElement(np.dot(r.R, s.R), rotated + _divided_shift(r.A, s.b),
                            r.b + s.b)
    raise TypeError("cannot compose %s with %s" % (type(r).__name__, type(s).__name__))


def inverse(r):
    if isinstance(r, GalileanElement):
        Rt = np.transpose(r.R)
        return GalileanElement(Rt, -np.dot(Rt, r.v), np.dot(Rt, r.v * r.b - r.a), -r.b)
    if isinstance(r, MilneElement):
        Rt = np.transpose(r.R)
        shifted = _divided_shift(r.A, -r.b)
        return MilneElement(Rt, -np.dot(shifted, r.R), -r.b)
    raise TypeError("not a group element: %r" % (r,))


def act(r, x, t):
    """Apply r to the event (x, t)."""
    x = _vector(x)
    if isinstance(r, GalileanElement):
        return np.dot(r.R, x) + r.v * t + r.a, t + r.b
    if isinstance(r, MilneElement):
        return np.dot(r.R, x) + _divided_eval(r.A, t), t + r.b
    raise TypeError("not a group element: %r" % (r,))


def _act_event(r, p: Event) -> Event:
    return act(r, p[0], p[1])


# -- one-parameter subgroups ---------------------------------------------

def _rotation_matrix(i: int, j: int, angle: float):
    R = np.eye(3)
    c, s = math.cos(angle), math.sin(angle)
    R[i, i] = R[j, j] = c
    R[i, j] = s
    R[j, i] = -s
    return R


def exp_generator(kind: str, role: Optional[Role], tau: float, order: int = 1):
    """exp(tau * generator) in the kind's group for a generator of this role.

    Milne elements get `order`, raised to the level of an acceleration role.
    """
    what = None if role is None else role.kind
    if what in ("rotation", "time"):
        if what == "rotation":
            R, b = _rotation_matrix(role.axes[0] - 1, role.axes[1] - 1, tau), 0.0
        else:
            R, b = np.eye(3), tau
        if kind == "galilean":
            return GalileanElement(R, np.zeros(3), np.zeros(3), b)
        return MilneElement(R, np.zeros((order + 1, 3)), b)
    if kind == "galilean" and what in ("translation", "boost"):
        e = np.zeros(3)
        e[role.axes[0] - 1] = tau
        if what == "translation":
            return GalileanElement(np.eye(3), np.zeros(3), e, 0.0)
        return GalileanElement(np.eye(3), e, np.zeros(3), 0.0)
    if kind == "milne" and what == "acceleration":
        A = np.zeros((max(role.level, order) + 1, 3))
        A[role.level, role.axes[0] - 1] = tau
        return MilneElement(np.eye(3), A, 0.0)
    raise ValueError("no one-parameter subgroup of group %r for role %r" % (kind, role))


# -- phase functions -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Tagged multiplier phase theta(r, x, t) over one of the built-in groups."""

    tag: str
    group: str  # "galilean" or "milne"
    fn: Callable

    def __call__(self, r, x, t):
        return self.fn(r, x, t)


def _num_tag(value) -> str:
    return repr(float(value))


def theta_galilean(mass) -> PhaseFunction:
    """Mass multiplier: theta = -m v.x + (m/2)|v|^2 t on the boost part."""

    def fn(r: GalileanElement, x, t):
        x = np.asarray(x)
        return -mass * np.dot(r.v, x) + mass * np.dot(r.v, r.v) * t / 2

    return PhaseFunction("galilean-mass:%s" % _num_tag(mass), "galilean", fn)


def acceleration_phase_polys(mass, A_rows):
    """Phase data for the polynomial frame change x -> x + A(t).

    Returns (linear, uniform): per-axis standard coefficients of the
    x-gradient m*A'(t), and the spatially uniform part -(m/2) int_0^t A'^2
    as one standard coefficient array.  A wave solving the free evolution,
    shifted into the accelerated frame and multiplied by
    exp(i*(linear.x + uniform)), solves the evolution with the uniform
    field g(t) = A''(t).
    """
    rows = [np.atleast_1d(np.asarray(r)) for r in A_rows]
    axes = rows[0].shape[0]
    linear = []
    square = np.atleast_1d(np.asarray(0 * rows[0][0]))
    for ax in range(axes):
        col = np.array([rows[n][ax] / math.factorial(n) for n in range(len(rows))])
        d = npoly.polyder(col) if len(col) > 1 else col * 0
        linear.append(d * mass)
        square = npoly.polyadd(square, npoly.polymul(d, d))
    uniform = npoly.polyint(square) * mass / (-2)
    return linear, uniform


def theta_milne(mass) -> PhaseFunction:
    """Multiplier phase of the accelerated-frame wave transform.

    theta(r, x, t) = m A'(t - b).x - (m/2) [U(t - b) - U(-b)] with
    U' = |A'|^2 and U(0) = 0; the rotation part never enters, a time
    shift only moves the evaluation point.
    """

    def fn(r: MilneElement, x, t):
        if r.order == 0:
            return 0
        x = np.asarray(x)
        s = t - r.b
        adot = _divided_eval(r.A[1:], s)
        _, uniform = acceleration_phase_polys(mass, r.A)
        return mass * np.dot(adot, x) + npoly.polyval(s, uniform) - npoly.polyval(-r.b, uniform)

    return PhaseFunction("milne-schrodinger:%s" % _num_tag(mass), "milne", fn)


def finite_exponent(theta: PhaseFunction, r, s, p: Event):
    """xi(r, s, p) = theta(r, p) + theta(s, r^-1 p) - theta(rs, p)."""
    x, t = p
    xr, tr = act(inverse(r), x, t)
    return theta(r, x, t) + theta(s, xr, tr) - theta(compose(r, s), x, t)


# -- seeded sampling -------------------------------------------------------

def random_rotation(rng) -> np.ndarray:
    q, rr = np.linalg.qr(rng.normal(size=(3, 3)))
    d = np.diagonal(rr)
    q = q * np.where(d == 0, 1.0, np.sign(d))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def random_element(rng, kind: str, order: int = 2):
    R = random_rotation(rng)
    if kind == "galilean":
        return GalileanElement(R, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
                               rng.uniform(-1, 1))
    if kind == "milne":
        return MilneElement(R, rng.uniform(-1, 1, (order + 1, 3)), rng.uniform(-1, 1))
    raise ValueError("unknown group kind %r" % kind)


def random_event(rng) -> Event:
    return rng.uniform(-1, 1, 3), rng.uniform(-1, 1)


def _group_identity(kind: str, order: int):
    return galilean_identity() if kind == "galilean" else milne_identity(order)


def check_cocycle_identities(theta: Optional[PhaseFunction] = None, *,
                             xi: Optional[Callable] = None,
                             group: Optional[str] = None,
                             samples: int = 1000, seed: int = 0,
                             order: int = 2) -> dict:
    """Sampled verification of the exponent identities.

    Checks, over `samples` random draws of (r, s, g) and an event p:
      composition: xi(r,s,p) + xi(rs,g,p) = xi(s,g,r^-1 p) + xi(r,sg,p)
      unit:        xi(e,e,p) = xi(r,e,p) = xi(e,g,p) = 0
      inverse:     xi(r,r^-1,p) = xi(r^-1,r,r^-1 p)
    Reports the max absolute violation per identity plus (samples, seed).
    """
    if theta is not None:
        group = theta.group
        xi = lambda r, s, p: finite_exponent(theta, r, s, p)
    if xi is None or group is None:
        raise ValueError("need a PhaseFunction or an explicit xi with its group")
    rng = np.random.default_rng(seed)
    e = _group_identity(group, order)
    worst = {"composition": 0.0, "unit": 0.0, "inverse": 0.0}
    for _ in range(samples):
        r = random_element(rng, group, order)
        s = random_element(rng, group, order)
        g = random_element(rng, group, order)
        p = random_event(rng)
        rinv_p = _act_event(inverse(r), p)
        comp = (xi(r, s, p) + xi(compose(r, s), g, p)
                - xi(s, g, rinv_p) - xi(r, compose(s, g), p))
        unit = max(abs(xi(e, e, p)), abs(xi(r, e, p)), abs(xi(e, g, p)))
        inv = xi(r, inverse(r), p) - xi(inverse(r), r, rinv_p)
        worst["composition"] = max(worst["composition"], abs(float(comp)))
        worst["unit"] = max(worst["unit"], float(unit))
        worst["inverse"] = max(worst["inverse"], abs(float(inv)))
    report = dict(worst)
    report["max_violation"] = max(worst.values())
    report["samples"] = samples
    report["seed"] = seed
    return report


def exponent_time_variance(theta: PhaseFunction, samples: int = 100, seed: int = 0,
                           times=None, order: int = 2) -> float:
    """Max variance of xi(r, s, (x, .)) over a time grid; 0 when xi is static."""
    if times is None:
        times = np.linspace(-10.0, 10.0, 21)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = random_element(rng, theta.group, order)
        s = random_element(rng, theta.group, order)
        x = rng.uniform(-1, 1, 3)
        vals = [finite_exponent(theta, r, s, (x, t)) for t in times]
        worst = max(worst, float(np.var(vals)))
    return worst


def equivalence_transform(theta: PhaseFunction, zeta: Callable,
                          tag: Optional[str] = None) -> PhaseFunction:
    """theta' = theta + zeta for a gauge zeta(r, p) with zeta(e, p) = 0."""

    def fn(r, x, t):
        return theta(r, x, t) + zeta(r, (x, t))

    return PhaseFunction(tag or theta.tag + "+gauge", theta.group, fn)


def exponent_shift_violation(theta: PhaseFunction, zeta: Callable,
                             samples: int = 200, seed: int = 0,
                             order: int = 2) -> float:
    """Max violation of xi' = xi + zeta(r,p) + zeta(s,r^-1 p) - zeta(rs,p)."""
    shifted = equivalence_transform(theta, zeta)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = random_element(rng, theta.group, order)
        s = random_element(rng, theta.group, order)
        p = random_event(rng)
        lhs = finite_exponent(shifted, r, s, p)
        rhs = (finite_exponent(theta, r, s, p) + zeta(r, p)
               + zeta(s, _act_event(inverse(r), p)) - zeta(compose(r, s), p))
        worst = max(worst, abs(float(lhs - rhs)))
    return worst


# -- the twisted product group --------------------------------------------

@dataclass(frozen=True, eq=False)
class HElement:
    """Pair {theta, r}: a fiber phase over events with a group element.

    Products twist by the exponent of the attached PhaseFunction:
    {f, r}{f', r'} = {f + f'(r^-1 .) + xi(r, r', .), r r'}.
    """

    theta: Callable  # (x, t) -> real
    r: object
    exponent: PhaseFunction


def h_unit(exponent: PhaseFunction, order: int = 2) -> HElement:
    return HElement(lambda x, t: 0.0, _group_identity(exponent.group, order),
                    exponent)


def h_lift(exponent: PhaseFunction, r) -> HElement:
    """The canonical lift r -> {theta(r, .), r}."""
    return HElement(lambda x, t: exponent(r, x, t), r, exponent)


def h_multiply(h1: HElement, h2: HElement) -> HElement:
    if h1.exponent.tag != h2.exponent.tag:
        raise ValueError("elements carry different exponents: %s vs %s"
                         % (h1.exponent.tag, h2.exponent.tag))
    r1, r2, exponent = h1.r, h2.r, h1.exponent

    def theta(x, t):
        y, u = act(inverse(r1), x, t)
        return h1.theta(x, t) + h2.theta(y, u) + finite_exponent(exponent, r1, r2, (x, t))

    return HElement(theta, compose(r1, r2), exponent)


def h_inverse(h: HElement) -> HElement:
    rinv = inverse(h.r)

    def theta(x, t):
        y, u = act(h.r, x, t)
        return -h.theta(y, u) - finite_exponent(h.exponent, h.r, rinv, (y, u))

    return HElement(theta, rinv, h.exponent)


# -- infinitesimal exponent extraction -------------------------------------

@dataclass(frozen=True)
class ExtractionResult:
    value: float
    error: float


def infinitesimal_from_finite(theta: PhaseFunction, alg: LieAlgebra, a: str, b: str,
                              p: Event, tau0: float = 0.1,
                              levels: int = 6) -> ExtractionResult:
    """Extract the infinitesimal exponent on the generator pair (a, b) of alg at p.

    Evaluates the commutator phase combination

        S(tau) = [ xi(uw, u^-1 w^-1, p) + xi(u, w, p)
                   + xi(u^-1, w^-1, w^-1 u^-1 p)
                   + xi(u, u, p) + xi(w, w, p) ] / tau^2

    with u = exp(tau a), w = exp(tau b) on the halving schedule tau0*2^-k
    and extrapolates tau -> 0; exp(tau a) is taken from the generator's
    role in alg, as a Milne element of order max(level(a), level(b), 1)
    for acceleration groups.  The two diagonal terms vanish identically
    for canonical subgroup exponents and cancel the self-phase defect of
    non-canonical ones.  The error estimate is the last diagonal
    difference of the extrapolation tableau; a tableau whose last
    difference is not below its first, and not within 1e-9 of the value's
    scale either, raises ExtrapolationError.
    """
    if levels < 2:
        raise ValueError("need at least two extrapolation levels")
    kind = theta.group
    ra, rb = alg.roles[alg.index(a)], alg.roles[alg.index(b)]
    order = max([1] + [r.level for r in (ra, rb) if r is not None])

    def S(tau):
        u = exp_generator(kind, ra, tau, order)
        w = exp_generator(kind, rb, tau, order)
        uinv, winv = inverse(u), inverse(w)
        q = _act_event(compose(winv, uinv), p)
        total = (finite_exponent(theta, compose(u, w), compose(uinv, winv), p)
                 + finite_exponent(theta, u, w, p)
                 + finite_exponent(theta, uinv, winv, q)
                 + finite_exponent(theta, u, u, p)
                 + finite_exponent(theta, w, w, p))
        return float(total) / tau ** 2

    prev = [S(tau0)]
    diffs = []
    for k in range(1, levels):
        row = [S(tau0 * 2.0 ** -k)]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (2.0 ** j - 1))
        diffs.append(abs(row[-1] - prev[-1]))
        prev = row
    value = prev[-1]
    error = diffs[-1]
    scale = max(1.0, abs(value))
    if error >= diffs[0] and error > 1e-9 * scale:
        raise ExtrapolationError(
            "no convergence on %s,%s: diagonal differences %s" % (a, b, diffs))
    return ExtractionResult(value=value, error=error)
