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

Sample axes.  Every field of an element may carry leading sample axes:
R has shape (..., 3, 3), v and a (..., 3), A (..., k+1, 3) and b (...);
an event's x has shape (..., 3) and its t (...).  The sample axes of all
fields and events broadcast against each other, so `compose`, `inverse`,
`act`, the built-in phases and `finite_exponent` evaluate a stack of N
samples in one call, and one element is the case without sample axes.
The sampled checks draw all their samples in one call, so a seed maps to
other samples than it did when they were drawn one at a time; their gates
and tolerances are unchanged, and a NaN anywhere fails them.

Everything is double precision in normal use, but the formulas avoid
float-only operations, so rotation-free elements built from int or
Fraction scalars, or object arrays of them, evaluate exactly (used by the
exact identity tests).
"""

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Tuple

import numpy as np

from .lie import LieAlgebra, Role

ORTHOGONALITY_TOL = 1e-12

Event = Tuple[np.ndarray, float]


class OrderMismatchError(ValueError):
    """Composition of acceleration elements of different polynomial order."""


class ExtrapolationError(RuntimeError):
    """The extrapolated exponent sequence did not converge."""


def worst_abs(*values) -> float:
    """Largest absolute entry of the arrays; NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(np.asarray(v, dtype=float)), initial=0.0)
                         for v in values], initial=0.0))


def _vector(x):
    v = np.asarray(x)
    if v.shape[-1:] != (3,):
        raise ValueError("expected 3-vectors, got shape %r" % (v.shape,))
    return v


def _T(R):
    return R.swapaxes(-1, -2)


def _rot(R, x):
    """R x for stacked 3x3 matrices and 3-vectors."""
    return (R @ x[..., None])[..., 0]


def _dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _col(b):
    """A per-sample scalar with a trailing axis, to scale (..., 3) rows."""
    return np.asarray(b)[..., None]


_EYE = np.eye(3)


def _orthogonality_defect(R):
    return float(np.abs(_T(R) @ R - _EYE).max(initial=0.0))


def _check_rotation(R):
    R = np.asarray(R)
    if R.shape[-2:] != (3, 3):
        raise ValueError("rotation part must be a 3x3 matrix")
    defect = _orthogonality_defect(R)
    if not defect <= ORTHOGONALITY_TOL:  # a non-finite R has a NaN or inf defect
        raise ValueError("rotation part is not orthogonal (defect %.3e)" % defect)
    return R


class _Stacked:
    """Sample-axis bookkeeping shared by the element types."""

    CORE: ClassVar[Dict[str, int]]  # field name -> rank of one sample's value

    @property
    def batch(self) -> Tuple[int, ...]:
        """Shape of the sample axes; () for a single element."""
        shapes = []
        for name, core in self.CORE.items():
            shape = getattr(getattr(self, name), "shape", ())
            shapes.append(shape[:len(shape) - core])
        if shapes.count(shapes[0]) == len(shapes):
            return shapes[0]
        return np.broadcast_shapes(*shapes)

    def take(self, index, shape=None):
        """The sample at `index`, with the sample axes first broadcast to
        `shape` (default: `batch`)."""
        shape = self.batch if shape is None else tuple(shape)
        fields = {}
        for name, core in self.CORE.items():
            value = np.asarray(getattr(self, name))
            full = np.broadcast_to(value, shape + value.shape[value.ndim - core:])
            fields[name] = full[index]
        return type(self)(**fields)


@dataclass(frozen=True, eq=False)
class GalileanElement(_Stacked):
    """Rotation R, boost v, space translation a, time shift b.

    Acts on events by (x, t) -> (R x + v t + a, t + b).
    """

    R: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: float

    CORE: ClassVar[Dict[str, int]] = {"R": 2, "v": 1, "a": 1, "b": 0}

    def __post_init__(self):
        object.__setattr__(self, "R", _check_rotation(self.R))
        object.__setattr__(self, "v", _vector(self.v))
        object.__setattr__(self, "a", _vector(self.a))
        self.batch  # raises ValueError unless the sample axes broadcast


@dataclass(frozen=True, eq=False)
class MilneElement(_Stacked):
    """Rotation R, polynomial translation A, time shift b.

    Acts on events by (x, t) -> (R x + A(t), t + b).  Row n of A holds the
    divided-power coefficient v_(n), so A(t) = sum_n t^n/n! * v_(n); the
    order is the number of rows minus one and is preserved by composition.
    """

    R: np.ndarray
    A: np.ndarray
    b: float

    CORE: ClassVar[Dict[str, int]] = {"R": 2, "A": 2, "b": 0}

    def __post_init__(self):
        object.__setattr__(self, "R", _check_rotation(self.R))
        A = np.asarray(self.A)
        if A.ndim < 2 or A.shape[-1] != 3 or A.shape[-2] < 1:
            raise ValueError("A must have shape (..., order+1, 3)")
        object.__setattr__(self, "A", A)
        self.batch  # raises ValueError unless the sample axes broadcast

    @property
    def order(self) -> int:
        return self.A.shape[-2] - 1


def galilean_identity() -> GalileanElement:
    return GalileanElement(np.eye(3), np.zeros(3), np.zeros(3), 0.0)


def milne_identity(order: int) -> MilneElement:
    return MilneElement(np.eye(3), np.zeros((order + 1, 3)), 0.0)


def _divided_eval(A, t):
    """Evaluate sum_n t^n/n! * A[..., n, :] by a divided-power Horner scheme."""
    t = _col(t)
    n = A.shape[-2] - 1
    acc = A[..., n, :]
    for k in range(n - 1, -1, -1):
        acc = A[..., k, :] + acc * t / (k + 1)
    return acc


def _divided_shift(A, b):
    """Divided-power coefficients of t -> A(t + b)."""
    b = _col(b)
    n = A.shape[-2]
    rows = []
    for k in range(n):
        acc = A[..., n - 1, :]
        for j in range(n - 2, k - 1, -1):
            acc = A[..., j, :] + acc * b / (j + 1 - k)
        rows.append(acc)
    return np.stack(np.broadcast_arrays(*rows), axis=-2)


def compose(r, s):
    """Group product: act(compose(r, s), p) = act(r, act(s, p))."""
    if isinstance(r, GalileanElement) and isinstance(s, GalileanElement):
        return GalileanElement(
            r.R @ s.R,
            _rot(r.R, s.v) + r.v,
            _rot(r.R, s.a) + r.v * _col(s.b) + r.a,
            r.b + s.b,
        )
    if isinstance(r, MilneElement) and isinstance(s, MilneElement):
        if r.order != s.order:
            raise OrderMismatchError(
                "cannot compose orders %d and %d" % (r.order, s.order))
        return MilneElement(r.R @ s.R, s.A @ _T(r.R) + _divided_shift(r.A, s.b),
                            r.b + s.b)
    raise TypeError("cannot compose %s with %s" % (type(r).__name__, type(s).__name__))


def inverse(r):
    if isinstance(r, GalileanElement):
        Rt = _T(r.R)
        return GalileanElement(Rt, -_rot(Rt, r.v), _rot(Rt, r.v * _col(r.b) - r.a), -r.b)
    if isinstance(r, MilneElement):
        return MilneElement(_T(r.R), -(_divided_shift(r.A, -r.b) @ r.R), -r.b)
    raise TypeError("not a group element: %r" % (r,))


def act(r, x, t):
    """Apply r to the event (x, t)."""
    x = _vector(x)
    if isinstance(r, GalileanElement):
        return _rot(r.R, x) + r.v * _col(t) + r.a, t + r.b
    if isinstance(r, MilneElement):
        return _rot(r.R, x) + _divided_eval(r.A, t), t + r.b
    raise TypeError("not a group element: %r" % (r,))


def _act_event(r, p: Event) -> Event:
    return act(r, p[0], p[1])


# -- one-parameter subgroups ---------------------------------------------

def _rotation_matrix(i: int, j: int, angle):
    c, s = np.cos(angle), np.sin(angle)
    R = np.broadcast_to(np.eye(3), np.shape(angle) + (3, 3)).copy()
    R[..., i, i] = R[..., j, j] = c
    R[..., i, j] = s
    R[..., j, i] = -s
    return R


def exp_generator(kind: str, role: Optional[Role], tau, order: int = 1):
    """exp(tau * generator) in the kind's group for a generator of this role.

    Milne elements get `order`, raised to the level of an acceleration role.
    An array of tau gives a stack of elements with tau's shape as sample axes.
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
        e = np.zeros(np.shape(tau) + (3,))
        e[..., role.axes[0] - 1] = tau
        if what == "translation":
            return GalileanElement(np.eye(3), np.zeros(3), e, 0.0)
        return GalileanElement(np.eye(3), e, np.zeros(3), 0.0)
    if kind == "milne" and what == "acceleration":
        A = np.zeros(np.shape(tau) + (max(role.level, order) + 1, 3))
        A[..., role.level, role.axes[0] - 1] = tau
        return MilneElement(np.eye(3), A, 0.0)
    raise ValueError("no one-parameter subgroup of group %r for role %r" % (kind, role))


# -- phase functions -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Tagged multiplier phase theta(r, x, t) over one of the built-in groups.

    A `stacked` fn takes elements and events with sample axes and returns
    one value per sample.  Any other fn sees one sample per call: a call
    with sample axes evaluates it sample by sample.
    """

    tag: str
    group: str  # "galilean" or "milne"
    fn: Callable
    stacked: bool = False

    def __call__(self, r, x, t):
        if self.stacked:
            return self.fn(r, x, t)
        x = np.asarray(x)
        shape = np.broadcast_shapes(r.batch, x.shape[:-1], np.shape(t))
        if shape == ():
            return self.fn(r, x, t)
        xs = np.broadcast_to(x, shape + (3,))
        ts = np.broadcast_to(t, shape)
        return np.array([self.fn(r.take(i, shape), xs[i], ts[i])
                         for i in np.ndindex(shape)]).reshape(shape)


def _num_tag(value) -> str:
    return repr(float(value))


def theta_galilean(mass) -> PhaseFunction:
    """Mass multiplier: theta = -m v.x + (m/2)|v|^2 t on the boost part."""

    def fn(r: GalileanElement, x, t):
        x = np.asarray(x)
        return -mass * _dot(r.v, x) + mass * _dot(r.v, r.v) * t / 2

    return PhaseFunction("galilean-mass:%s" % _num_tag(mass), "galilean", fn,
                         stacked=True)


def _horner(c, t):
    """sum_k c[..., k] t^k, for standard coefficients along the last axis."""
    acc = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = c[..., k] + acc * t
    return acc


def acceleration_phase_polys(mass, A_rows):
    """Phase data for the polynomial frame change x -> x + A(t).

    A_rows holds divided-power rows with shape (..., k+1, 3).  Returns
    (linear, uniform) as standard coefficients along the last axis:
    linear (..., 3, k) holds per axis the x-gradient m*A'(t), and uniform
    (..., 2k) the spatially uniform part -(m/2) int_0^t |A'|^2.  A wave
    solving the free evolution, shifted into the accelerated frame and
    multiplied by exp(i*(linear.x + uniform)), solves the evolution with
    the uniform field g(t) = A''(t).
    """
    A = np.asarray(A_rows)
    k = max(A.shape[-2] - 1, 1)
    if A.shape[-2] == 1:
        d = A * 0  # A' = 0
    else:  # A' has standard coefficients A[n+1]/n!
        d = np.stack([A[..., n + 1, :] / math.factorial(n) for n in range(k)], axis=-2)
    gram = d @ _T(d)  # gram[..., i, j] = A'_i . A'_j
    square = [0] * (2 * k - 1)  # |A'|^2, the convolution of A' with itself
    for i in range(k):
        for j in range(k):
            square[i + j] = square[i + j] + gram[..., i, j]
    uniform = [square[0] * 0] + [square[n] / (n + 1) * mass / (-2)
                                 for n in range(2 * k - 1)]
    return _T(d) * mass, np.stack(uniform, axis=-1)


def theta_milne(mass) -> PhaseFunction:
    """Multiplier phase of the accelerated-frame wave transform.

    theta(r, x, t) = m A'(t - b).x - (m/2) [U(t - b) - U(-b)] with
    U' = |A'|^2 and U(0) = 0; the rotation part never enters, a time
    shift only moves the evaluation point.
    """

    def fn(r: MilneElement, x, t):
        x = np.asarray(x)
        s = t - r.b
        linear, uniform = acceleration_phase_polys(mass, r.A)
        return (_dot(_horner(linear, _col(s)), x)
                + _horner(uniform, s) - _horner(uniform, -r.b))

    return PhaseFunction("milne-schrodinger:%s" % _num_tag(mass), "milne", fn,
                         stacked=True)


def finite_exponent(theta: PhaseFunction, r, s, p: Event):
    """xi(r, s, p) = theta(r, p) + theta(s, r^-1 p) - theta(rs, p)."""
    x, t = p
    xr, tr = act(inverse(r), x, t)
    return theta(r, x, t) + theta(s, xr, tr) - theta(compose(r, s), x, t)


def composition_defect(xi: Callable, r, s, g, p: Event):
    """xi(r,s,p) + xi(rs,g,p) - xi(s,g,r^-1 p) - xi(r,sg,p); zero for an exponent."""
    return (xi(r, s, p) + xi(compose(r, s), g, p)
            - xi(s, g, _act_event(inverse(r), p)) - xi(r, compose(s, g), p))


# -- seeded sampling -------------------------------------------------------

def _shape(size: Optional[int]) -> Tuple[int, ...]:
    return () if size is None else (size,)


def random_rotation(rng, size: Optional[int] = None) -> np.ndarray:
    """A random rotation, or `size` of them stacked."""
    q, rr = np.linalg.qr(rng.normal(size=_shape(size) + (3, 3)))
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    q = q * np.where(d == 0, 1.0, np.sign(d))[..., None, :]
    q[..., :, 0] *= np.sign(np.linalg.det(q))[..., None]
    return q


def random_element(rng, kind: str, order: int = 2, size: Optional[int] = None):
    """A random element, or a stack of `size` elements."""
    R = random_rotation(rng, size)
    shape = _shape(size)
    if kind == "galilean":
        return GalileanElement(R, rng.uniform(-1, 1, shape + (3,)),
                               rng.uniform(-1, 1, shape + (3,)), rng.uniform(-1, 1, size))
    if kind == "milne":
        return MilneElement(R, rng.uniform(-1, 1, shape + (order + 1, 3)),
                            rng.uniform(-1, 1, size))
    raise ValueError("unknown group kind %r" % kind)


def random_event(rng, size: Optional[int] = None) -> Event:
    """A random event, or a stack of `size` events."""
    return rng.uniform(-1, 1, _shape(size) + (3,)), rng.uniform(-1, 1, size)


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

    The samples are drawn in one call (all r, then all s, all g and all p)
    and evaluated stacked: `xi(r, s, p)` receives elements and events with
    one leading sample axis, or none for the identity e, and returns one
    value per sample.  A NaN violation propagates into the report.
    """
    if theta is not None:
        group = theta.group
        xi = lambda r, s, p: finite_exponent(theta, r, s, p)
    if xi is None or group is None:
        raise ValueError("need a PhaseFunction or an explicit xi with its group")
    rng = np.random.default_rng(seed)
    e = _group_identity(group, order)
    r, s, g = (random_element(rng, group, order, samples) for _ in range(3))
    p = random_event(rng, samples)
    rinv = inverse(r)
    worst = {
        "composition": worst_abs(composition_defect(xi, r, s, g, p)),
        "unit": worst_abs(xi(e, e, p), xi(r, e, p), xi(e, g, p)),
        "inverse": worst_abs(xi(r, rinv, p) - xi(rinv, r, _act_event(rinv, p))),
    }
    report = dict(worst)
    report["max_violation"] = worst_abs(*worst.values())
    report["samples"] = samples
    report["seed"] = seed
    return report


def exponent_time_variance(theta: PhaseFunction, samples: int = 100, seed: int = 0,
                           times=None, order: int = 2) -> float:
    """Max variance of xi(r, s, (x, .)) over a time grid; 0 when xi is static."""
    if times is None:
        times = np.linspace(-10.0, 10.0, 21)
    times = np.asarray(times)
    rng = np.random.default_rng(seed)
    r = random_element(rng, theta.group, order, samples)
    s = random_element(rng, theta.group, order, samples)
    x = rng.uniform(-1, 1, (samples, 3))
    vals = finite_exponent(theta, r, s, (x, times[:, None]))  # (times, samples)
    return worst_abs(np.var(np.broadcast_to(vals, (len(times), samples)), axis=0))


def equivalence_transform(theta: PhaseFunction, zeta: Callable,
                          tag: Optional[str] = None) -> PhaseFunction:
    """theta' = theta + zeta for a gauge zeta(r, p) with zeta(e, p) = 0."""

    def fn(r, x, t):
        return theta(r, x, t) + zeta(r, (x, t))

    return PhaseFunction(tag or theta.tag + "+gauge", theta.group, fn)


def exponent_shift_violation(theta: PhaseFunction, zeta: Callable,
                             samples: int = 200, seed: int = 0,
                             order: int = 2) -> float:
    """Max violation of xi' = xi + zeta(r,p) + zeta(s,r^-1 p) - zeta(rs,p).

    The group operations run stacked; zeta is called once per sample.
    """
    shifted = equivalence_transform(theta, zeta)
    rng = np.random.default_rng(seed)
    r = random_element(rng, theta.group, order, samples)
    s = random_element(rng, theta.group, order, samples)
    x, t = random_event(rng, samples)
    xr, tr = act(inverse(r), x, t)
    rs = compose(r, s)
    gauge = [zeta(r.take(i), (x[i], t[i])) + zeta(s.take(i), (xr[i], tr[i]))
             - zeta(rs.take(i), (x[i], t[i])) for i in range(samples)]
    lhs = finite_exponent(shifted, r, s, (x, t))
    return worst_abs(lhs - finite_exponent(theta, r, s, (x, t)) - np.asarray(gauge))


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

    with u = exp(tau a), w = exp(tau b) on the halving schedule tau0*2^-k,
    all levels in one stacked evaluation, and extrapolates tau -> 0;
    exp(tau a) is taken from the generator's role in alg, as a Milne
    element of order max(level(a), level(b), 1) for acceleration groups.
    The two diagonal terms vanish identically for canonical subgroup
    exponents and cancel the self-phase defect of non-canonical ones.

    The error estimate is the last diagonal difference of the
    extrapolation tableau.  The differences must fall geometrically:
    ExtrapolationError is raised when a difference above the floor of
    1e-9 times the value's scale exceeds 3/4 of the one before it, or
    when the last difference is above the floor and not below the first
    (a NaN fails both).  Every column of the tableau removes one more
    power of tau, so the differences of a phase smooth at the identity
    shrink fast (the built-in phases never exceed a ratio of 0.63),
    while a singular phase such as a1^2 log|a1| keeps them near a
    constant and its value drifts with tau0.
    """
    if levels < 2:
        raise ValueError("need at least two extrapolation levels")
    kind = theta.group
    ra, rb = alg.roles[alg.index(a)], alg.roles[alg.index(b)]
    order = max([1] + [r.level for r in (ra, rb) if r is not None])

    taus = tau0 * 2.0 ** -np.arange(levels)
    u = exp_generator(kind, ra, taus, order)
    w = exp_generator(kind, rb, taus, order)
    uinv, winv = inverse(u), inverse(w)
    q = _act_event(compose(winv, uinv), p)
    total = (finite_exponent(theta, compose(u, w), compose(uinv, winv), p)
             + finite_exponent(theta, u, w, p)
             + finite_exponent(theta, uinv, winv, q)
             + finite_exponent(theta, u, u, p)
             + finite_exponent(theta, w, w, p))
    S = np.broadcast_to(np.asarray(total, dtype=float), taus.shape) / taus ** 2

    prev = [float(S[0])]
    diffs = []
    for k in range(1, levels):
        row = [float(S[k])]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (2.0 ** j - 1))
        diffs.append(abs(row[-1] - prev[-1]))
        prev = row
    value = prev[-1]
    error = diffs[-1]
    floor = 1e-9 * max(1.0, abs(value))
    geometric = all(d <= floor or d <= 0.75 * before
                    for before, d in zip(diffs, diffs[1:]))
    if not (geometric and (error < diffs[0] or error <= floor)):
        raise ExtrapolationError(
            "no convergence on %s,%s: diagonal differences %s" % (a, b, diffs))
    return ExtractionResult(value=value, error=error)
