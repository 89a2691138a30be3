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

One element type.  Every element is a `MilneElement` (R, A, b) acting by
(x, t) -> (R x + A(t), t + b), with A a polynomial of some order k.  The
Galilean group is the order-1 case, A(t) = a + v t stored as the rows
(a, v); the group kind "galilean" only fixes the order to 1.

Sample axes.  Every field of an element may carry leading sample axes:
R has shape (..., 3, 3), A (..., k+1, 3) and b (...); an event's x has
shape (..., 3) and its t (...).  The sample axes of all fields and events
broadcast against each other, so `compose`, `inverse`, `act`, every
phase and gauge, and `finite_exponent` evaluate a stack of N samples in
one call, and one element is the case without sample axes.  A phase or a
gauge is written once, for whole stacks: array operations, with
`np.where` in place of a per-sample branch.  An exponent table stacks
its generator pairs the same way, with the leading axes (pairs, levels),
one Milne order per call (`extraction_table`), which stacks each order's
distinct one-parameter subgroups once and gathers both sides of every
pair from them, one index per side.
The sampled checks draw all their samples in one call, so a seed maps to
other samples than it did when they were drawn one at a time; their gates
and tolerances are unchanged, and a NaN anywhere fails them.

Gates.  Every element from outside passes the gates of `MilneElement`:
rotations orthogonal to ORTHOGONALITY_TOL (a NaN or inf fails), A of
shape (..., k+1, 3), sample axes that broadcast.  The doors are the
public constructor, `milne_identity`, `exp_generator` and
`random_element`, and through them every CLI and JSON input.  The four
derived paths, `compose`, `inverse`, `MilneElement.take` and `_stack`,
build their results with `MilneElement._derived` and skip the gates:
`inverse` stores a transposed view and `take` and `_stack` gather or
stack values that passed them, so only `compose` makes new rotations,
and a product of gated rotations is orthogonal to rounding (at 10^5
samples: 1.3e-15 for one product, 1.8e-15 for two and for r r^-1, up
to 7e-15 for a chain of nine, against 1e-12; the tests hold them to
1e-14, and the package nests products two deep).
`compose` still refuses other orders and sample axes that do not
broadcast.

Layout.  Every stacked matrix-matrix product takes C-contiguous operands:
the orthogonality gate R^T R, the rotations and the A R^T of `compose`,
and the gram d d^T of `acceleration_phase_polys`, a transpose copied by
`_Tc`.  With a transposed view as an operand numpy multiplies a
(1000, 3, 3) stack about three times slower, to the same bits.  The
matrix-vector products (`act`, `_act_inverse`) keep their views, and so
does the R^T that `inverse` stores, which `act` multiplies vectors by: a
contiguous operand changes the bits of a stacked matrix-vector product.

Derived data.  An element is a value: nothing may write into its arrays,
since what is derived from them is kept, and each building block of an
exponent is computed once per use.  What is kept with an element lives
in its `_memo` dict and dies with it.  `compose(r, s)` finds a product
again while a caller holds it: r keeps a weak reference to it under
id(s), and the product holds its factors, so that id is not reused while
it lives.  `composition_defect`, `_commutator_phase` and
`exponent_shift_violation` therefore form their products before the
finite exponents that form them again.  The values of a `theta_milne`
phase (so of `theta_galilean`) and the events of `_act_inverse` are kept
with the element, keyed by the ids of the event's parts, when the event
is read-only: a scalar, or arrays that refuse writes through every array
they view.  The entry holds the event, so those ids stay unique.  The
sampled checks freeze the events they evaluate more than once (`frozen`),
`_act_inverse` returns frozen events, products and kept arrays are
read-only, and a caller's writable event is never kept.
Each phase keys its values by an object of its own, so no two phases
share them, not even those of the masses 1, 1.0 and Fraction(1): on
exact elements 1.0 gives floats where the others give Fractions.  A kept
value is what the same function returns
on the same inputs, so no result changes.  The phase polynomials
themselves are not kept: at 10^4 samples, keeping them with the element
raised the sampled checks' tracemalloc peaks by 29-42%, against 3-13%
for the values.

Sampling.  `random_rotation` returns the Haar rotation of QR with a sign
fix on a Gaussian matrix (Mezzadri, Notices AMS 54 (2007) 592), computed
by Gram-Schmidt run twice and a cross product, with no LAPACK call per
sample; it draws the normals the QR form drew, so a seed yields the same
rotations to within 1e-12, their rounding.

Everything is double precision in normal use, but the formulas avoid
float-only operations, so rotation-free elements built from int or
Fraction scalars, or object arrays of them, evaluate exactly (used by the
exact identity tests).
"""

import math
import numbers
import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .lie import LieAlgebra, Role

ORTHOGONALITY_TOL = 1e-12

Event = Tuple[np.ndarray, float]


class OrderMismatchError(ValueError):
    """Composition of acceleration elements of different polynomial order."""


class ExtrapolationError(RuntimeError):
    """The extrapolated exponent sequence did not converge."""


def worst_abs(*values) -> float:
    """Largest modulus among the entries of the arrays; NaN if any entry is NaN."""
    return float(np.max([np.max(np.asarray(np.abs(np.asarray(v)), dtype=float), initial=0.0)
                         for v in values], initial=0.0))


def _vector(x):
    v = np.asarray(x)
    if v.shape[-1:] != (3,):
        raise ValueError("expected 3-vectors, got shape %r" % (v.shape,))
    return v


def _T(R):
    return R.swapaxes(-1, -2)


def _Tc(R):
    """_T(R) laid out contiguously, for a stacked matrix-matrix product."""
    return np.ascontiguousarray(_T(R))


def _rot(R, x):
    """R x for stacked 3x3 matrices and 3-vectors."""
    return (R @ x[..., None])[..., 0]


def _dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _col(b):
    """A per-sample scalar with a trailing axis, to scale (..., 3) rows."""
    return np.asarray(b)[..., None]


_EYE = np.eye(3)


def frozen(value):
    """value with writing switched off in it and in every array it views;
    a tuple (an event) has its items frozen.  Returns value."""
    if isinstance(value, tuple):
        for item in value:
            frozen(item)
    array = value
    while isinstance(array, np.ndarray):
        array.setflags(write=False)
        array = array.base
    return value


def _read_only(value) -> bool:
    """True for a scalar, or an array that neither it nor any array it views
    lets anyone write into."""
    while isinstance(value, np.ndarray):
        if value.flags.writeable:
            return False
        value = value.base
    return value is None or isinstance(value, (numbers.Number, np.generic))


def _kept(r, key, event: Event, compute: Callable):
    """compute(), kept with the element r under key for a read-only event
    and returned frozen; for any other event computed on each call.  The
    entry holds the event, so the ids it is found by stay unique while r
    lives (see Derived data)."""
    if not (_read_only(event[0]) and _read_only(event[1])):
        return compute()
    memo = vars(r).setdefault("_memo", {})
    slot = (key, id(event[0]), id(event[1]))
    if slot not in memo:
        memo[slot] = (event, frozen(compute()))
    return memo[slot][1]


def _orthogonality_defect(R):
    with np.errstate(invalid="ignore"):  # inf * 0 in the product of a non-finite R
        return float(np.abs(_Tc(R) @ R - _EYE).max(initial=0.0))


def _check_rotation(R):
    R = np.asarray(R)
    if R.shape[-2:] != (3, 3):
        raise ValueError("rotation part must be a 3x3 matrix")
    defect = _orthogonality_defect(R)
    if not defect <= ORTHOGONALITY_TOL:  # a non-finite R has a NaN or inf defect
        raise ValueError("rotation part is not orthogonal (defect %.3e)" % defect)
    return R


@dataclass(frozen=True, eq=False)
class MilneElement:
    """Rotation R, polynomial translation A, time shift b.

    Acts on events by (x, t) -> (R x + A(t), t + b).  Row n of A holds the
    divided-power coefficient v_(n), so A(t) = sum_n t^n/n! * v_(n); the
    order is the number of rows minus one and is preserved by composition.
    A Galilean element is the order-1 case: A = (a, v) for the space
    translation a and the boost v.
    """

    R: np.ndarray
    A: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "R", _check_rotation(self.R))
        A = np.asarray(self.A)
        if A.ndim < 2 or A.shape[-1] != 3 or A.shape[-2] < 1:
            raise ValueError("A must have shape (..., order+1, 3)")
        object.__setattr__(self, "A", A)
        self.batch  # raises ValueError unless the sample axes broadcast

    @classmethod
    def _derived(cls, R: np.ndarray, A: np.ndarray, b) -> "MilneElement":
        """The element (R, A, b) without the gates of `__post_init__`, for
        fields derived from elements that passed them (see Gates)."""
        element = object.__new__(cls)
        vars(element).update(R=R, A=A, b=b)
        return element

    @property
    def order(self) -> int:
        return self.A.shape[-2] - 1

    @property
    def batch(self) -> Tuple[int, ...]:
        """Shape of the sample axes; () for a single element."""
        shapes = (self.R.shape[:-2], self.A.shape[:-2], getattr(self.b, "shape", ()))
        if shapes[0] == shapes[1] == shapes[2]:
            return shapes[0]
        return np.broadcast_shapes(*shapes)

    def take(self, index) -> "MilneElement":
        """The sample at `index` of the sample axes `batch`; an index
        list along the first axis gathers a stack."""
        batch = self.batch
        return MilneElement._derived(np.broadcast_to(self.R, batch + (3, 3))[index],
                                     np.broadcast_to(self.A, batch + self.A.shape[-2:])[index],
                                     np.broadcast_to(self.b, batch)[index])


def _order(kind: str, order: int) -> int:
    """Polynomial order of the elements of a group kind: 1 for galilean."""
    if kind == "galilean":
        return 1
    if kind == "milne":
        return order
    raise ValueError("unknown group kind %r" % kind)


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
    """Divided-power coefficients of t -> A(t + b): row k is A^(k)(b)."""
    rows = [_divided_eval(A[..., k:, :], b) for k in range(A.shape[-2])]
    out = np.empty(rows[0].shape[:-1] + A.shape[-2:], dtype=rows[0].dtype)
    for k, row in enumerate(rows):  # row 0 has the sample axes of both A and b
        out[..., k, :] = row
    return out


def compose(r: MilneElement, s: MilneElement) -> MilneElement:
    """Group product: act(compose(r, s), p) = act(r, act(s, p)).

    While a caller holds the product of r and s, composing them again
    returns it; its arrays are read-only (see Derived data).
    """
    memo = vars(r).setdefault("_memo", {})
    held = memo.get(("compose", id(s)))
    rs = None if held is None else held()
    if rs is None:
        if r.order != s.order:
            raise OrderMismatchError("cannot compose orders %d and %d" % (r.order, s.order))
        R = np.ascontiguousarray(r.R) @ np.ascontiguousarray(s.R)
        rs = MilneElement._derived(*frozen((R, s.A @ _Tc(r.R) + _divided_shift(r.A, s.b),
                                            r.b + s.b)))
        rs.batch  # raises ValueError unless the sample axes broadcast
        vars(rs)["_factors"] = (r, s)  # so id(s) is not reused while rs lives
        memo["compose", id(s)] = weakref.ref(rs)
    return rs


def inverse(r: MilneElement) -> MilneElement:
    return MilneElement._derived(_T(r.R), -(_divided_shift(r.A, -r.b) @ r.R), -r.b)


def act(r: MilneElement, x, t):
    """Apply r to the event (x, t)."""
    return _rot(r.R, _vector(x)) + _divided_eval(r.A, t), t + r.b


def _act_event(r, p: Event) -> Event:
    return act(r, p[0], p[1])


def _act_inverse(r: MilneElement, x, t):
    """act(inverse(r), x, t) without forming the inverse element; the event
    is read-only, and kept with r for a read-only (x, t)."""

    def event():
        s = t - r.b
        return frozen((_rot(_T(r.R), _vector(x) - _divided_eval(r.A, s)), s))

    return _kept(r, "act_inverse", (x, t), event)


# -- one-parameter subgroups ---------------------------------------------

def _rotation_matrix(i: int, j: int, angle):
    c, s = np.cos(angle), np.sin(angle)
    R = np.broadcast_to(np.eye(3), np.shape(angle) + (3, 3)).copy()
    R[..., i, i] = R[..., j, j] = c
    R[..., i, j] = s
    R[..., j, i] = -s
    return R


# the roles whose one-parameter subgroups move A, per group kind
_VECTOR_ROLES = {"galilean": ("translation", "boost"), "milne": ("acceleration",)}


def exp_generator(kind: str, role: Optional[Role], tau, order: int = 1):
    """exp(tau * generator) in the kind's group for a generator of this role.

    The element has the kind's order (`order` for milne, 1 for galilean),
    raised to the level of the role: a translation has level 0, a boost
    level 1 and the acceleration d_i^(n) level n.  An array of tau gives a
    stack of elements with tau's shape as sample axes.
    """
    order = _order(kind, order)
    what = None if role is None else role.kind
    if what == "rotation":
        R = _rotation_matrix(role.axes[0] - 1, role.axes[1] - 1, tau)
        return MilneElement(R, np.zeros((order + 1, 3)), 0.0)
    if what == "time":
        return MilneElement(np.eye(3), np.zeros((order + 1, 3)), tau)
    if what in _VECTOR_ROLES[kind]:
        A = np.zeros(np.shape(tau) + (max(role.level, order) + 1, 3))
        A[..., role.level, role.axes[0] - 1] = tau
        return MilneElement(np.eye(3), A, 0.0)
    raise ValueError("no one-parameter subgroup of group %r for role %r" % (kind, role))


# -- phase functions -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Tagged multiplier phase theta(r, x, t) over one of the built-in groups.

    fn takes elements and events with their sample axes and returns one
    value per sample; a constant broadcasts over the samples.
    """

    tag: str
    group: str  # "galilean" or "milne"
    fn: Callable

    def __call__(self, r, x, t):
        return self.fn(r, x, t)


def _num_tag(value) -> str:
    return repr(float(value))


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
    gram = d @ _Tc(d)  # gram[..., i, j] = A'_i . A'_j
    square = [0] * (2 * k - 1)  # |A'|^2, the convolution of A' with itself
    for i in range(k):
        for j in range(k):
            square[i + j] = square[i + j] + gram[..., i, j]
    uniform = [square[0] * 0] + [square[n] / (n + 1) * mass / (-2)
                                 for n in range(2 * k - 1)]
    return _T(d) * mass, np.stack(uniform, axis=-1)


def milne_phase_value(polys, b, x, t):
    """theta_milne's value at (x, t) from the element's
    `acceleration_phase_polys` data and its time shift b; a caller that
    evaluates one element many times derives the polynomials once."""
    linear, uniform = polys
    x = np.asarray(x)
    s = t - b
    return (_dot(_horner(linear, _col(s)), x)
            + _horner(uniform, s) - _horner(uniform, -b))


def theta_milne(mass) -> PhaseFunction:
    """Multiplier phase of the accelerated-frame wave transform.

    theta(r, x, t) = m A'(t - b).x - (m/2) [U(t - b) - U(-b)] with
    U' = |A'|^2 and U(0) = 0; the rotation part never enters, a time
    shift only moves the evaluation point.  Its values are kept with the
    element for read-only events, under a key of this phase's own, so no
    other phase (the masses 1, 1.0 and Fraction(1) included) shares them.
    """
    own = object()

    def fn(r: MilneElement, x, t):
        return _kept(r, own, (x, t), lambda: milne_phase_value(
            acceleration_phase_polys(mass, r.A), r.b, x, t))

    return PhaseFunction("milne-schrodinger:%s" % _num_tag(mass), "milne", fn)


def theta_galilean(mass) -> PhaseFunction:
    """Mass multiplier theta = -m v.x + (m/2)|v|^2 t on the boost v = A[..., 1, :].

    It is theta_milne(-m) on the order-1 elements of the Galilean group.
    """
    return PhaseFunction("galilean-mass:%s" % _num_tag(mass), "galilean", theta_milne(-mass).fn)


def finite_exponent(theta: PhaseFunction, r, s, p: Event):
    """xi(r, s, p) = theta(r, p) + theta(s, r^-1 p) - theta(rs, p)."""
    x, t = p
    xr, tr = _act_inverse(r, x, t)
    return theta(r, x, t) + theta(s, xr, tr) - theta(compose(r, s), x, t)


def composition_defect(xi: Callable, r, s, g, p: Event):
    """xi(r,s,p) + xi(rs,g,p) - xi(s,g,r^-1 p) - xi(r,sg,p); zero for an exponent.

    rs is held while the first two terms run and sg while the last two do,
    so the finite exponents that form them again find them; holding one
    at a time keeps a single product in memory besides the terms' own.
    """
    rs = compose(r, s)
    head = xi(r, s, p) + xi(rs, g, p)
    del rs
    sg = compose(s, g)
    return head - xi(s, g, _act_inverse(r, *p)) - xi(r, sg, p)


# -- seeded sampling -------------------------------------------------------

def _shape(size: Optional[int]) -> Tuple[int, ...]:
    return () if size is None else (size,)


def _unit(v):
    return v / np.sqrt(_dot(v, v))[..., None]


def random_rotation(rng, size: Optional[int] = None) -> np.ndarray:
    """A Haar-random rotation, or `size` of them stacked.

    The Q of a Gaussian matrix M = QR with R's diagonal made positive,
    times sign(det M) on its first column, taken by Gram-Schmidt on the
    columns m0, m1, m2 of M: u0 = m0/|m0|, u1 is m1 with its u0 component
    removed twice, normalized, and the rotation has the columns
    (s u0, u1, s u0 x u1) for s the sign of m2.(u0 x u1), a positive
    multiple of det M.
    """
    M = _T(rng.normal(size=_shape(size) + (3, 3)))  # row k is the column m_k
    u0 = _unit(M[..., 0, :])
    v = M[..., 1, :]
    for _ in range(2):  # once leaves a defect of up to 2e-13 in 10^6 samples
        v = v - _dot(u0, v)[..., None] * u0
    u1 = _unit(v)
    w = np.cross(u0, u1)
    s = np.where(_dot(M[..., 2, :], w) < 0, -1.0, 1.0)[..., None]
    return np.stack([s * u0, u1, s * w], axis=-1)


def random_element(rng, kind: str, order: int = 2, size: Optional[int] = None):
    """A random element of the kind's order, or a stack of `size` elements."""
    A_shape = _shape(size) + (_order(kind, order) + 1, 3)
    return MilneElement(random_rotation(rng, size), rng.uniform(-1, 1, A_shape),
                        rng.uniform(-1, 1, size))


def random_event(rng, size: Optional[int] = None) -> Event:
    """A random event, or a stack of `size` events."""
    return rng.uniform(-1, 1, _shape(size) + (3,)), rng.uniform(-1, 1, size)


def _sampler(samples: int, seed: int):
    """The generator of a sampled check, which refuses to pass on no draws."""
    if samples < 1:
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    return np.random.default_rng(seed)


def _group_identity(kind: str, order: int) -> MilneElement:
    return milne_identity(_order(kind, order))


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
    rng = _sampler(samples, seed)
    e = _group_identity(group, order)
    r, s, g = (random_element(rng, group, order, samples) for _ in range(3))
    p = frozen(random_event(rng, samples))
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
                           order: int = 2) -> float:
    """Max variance of xi(r, s, (x, .)) over 21 times in [-10, 10]; 0 if static."""
    times = np.linspace(-10.0, 10.0, 21)
    rng = _sampler(samples, seed)
    r = random_element(rng, theta.group, order, samples)
    s = random_element(rng, theta.group, order, samples)
    x = rng.uniform(-1, 1, (samples, 3))
    vals = finite_exponent(theta, r, s, (x, times[:, None]))  # (times, samples)
    return worst_abs(np.var(np.broadcast_to(vals, (len(times), samples)), axis=0))


def _gauge_phase(group: str, zeta: Callable) -> PhaseFunction:
    """A gauge zeta(r, p) as a phase; like a phase, zeta takes whole sample stacks."""
    return PhaseFunction("gauge", group, lambda r, x, t: zeta(r, (x, t)))


def equivalence_transform(theta: PhaseFunction, zeta: Callable) -> PhaseFunction:
    """theta' = theta + zeta for a gauge zeta(r, p) with zeta(e, p) = 0.

    zeta receives elements and events with their sample axes and returns
    one value per sample, or a constant.
    """
    return PhaseFunction(theta.tag + "+gauge", theta.group,
                         lambda r, x, t: theta(r, x, t) + zeta(r, (x, t)))


def exponent_shift_violation(theta: PhaseFunction, zeta: Callable,
                             samples: int = 200, seed: int = 0,
                             order: int = 2) -> float:
    """Max violation of xi' = xi + zeta(r,p) + zeta(s,r^-1 p) - zeta(rs,p).

    The gauge term is the finite exponent of zeta as a phase.  Each of the
    three finite exponents evaluates all `samples` draws in one call, so
    zeta is called six times in all, each time on the whole stack.
    """
    rng = _sampler(samples, seed)
    r = random_element(rng, theta.group, order, samples)
    s = random_element(rng, theta.group, order, samples)
    p = frozen(random_event(rng, samples))
    rs = compose(r, s)  # held until return, so the three finite exponents share it
    lhs = finite_exponent(equivalence_transform(theta, zeta), r, s, p)
    return worst_abs(lhs - finite_exponent(theta, r, s, p)
                     - finite_exponent(_gauge_phase(theta.group, zeta), r, s, p))


# -- the twisted product group --------------------------------------------

@dataclass(frozen=True, eq=False)
class HElement:
    """Pair {theta, r}: a fiber phase over events with a group element.

    Products twist by the exponent of the attached PhaseFunction:
    {f, r}{f', r'} = {f + f'(r^-1 .) + xi(r, r', .), r r'}.
    When r carries sample axes, the fiber phase receives stacked events
    and returns one value per sample.
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
        y, u = _act_inverse(r1, x, t)
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


# Most generator pairs that one stacked evaluation of an extraction table
# holds.  Its memory grows as pairs x levels x order^2 (the gram matrices of
# acceleration_phase_polys); 64 takes every order of the galilean and
# milne:2 tables in one call.
MAX_STACKED_PAIRS = 64


def _stack(elements, batch) -> MilneElement:
    """One element whose leading axis runs over `elements`, each of them
    broadcast to the sample axes `batch` first."""
    return MilneElement._derived(
        np.stack([np.broadcast_to(e.R, batch + (3, 3)) for e in elements]),
        np.stack([np.broadcast_to(e.A, batch + e.A.shape[-2:]) for e in elements]),
        np.stack([np.broadcast_to(e.b, batch) for e in elements]))


def _commutator_phase(theta: PhaseFunction, u, w, p: Event):
    """tau^2 S(tau): the five finite exponents of the commutator combination."""
    uinv, winv = inverse(u), inverse(w)
    # held, so the finite exponents of (u, w) and (u^-1, w^-1) find them
    uw, uinv_winv = compose(u, w), compose(uinv, winv)
    q = _act_event(compose(winv, uinv), p)
    return (finite_exponent(theta, uw, uinv_winv, p)
            + finite_exponent(theta, u, w, p)
            + finite_exponent(theta, uinv, winv, q)
            + finite_exponent(theta, u, u, p)
            + finite_exponent(theta, w, w, p))


def _extrapolate(S, a: str, b: str) -> ExtractionResult:
    """Richardson tableau of S on the halving schedule, and its convergence gate."""
    prev = [float(S[0])]
    diffs = []
    for k in range(1, len(S)):
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


def extraction_table(theta: PhaseFunction, alg: LieAlgebra,
                     pairs: Sequence[Tuple[str, str]], p: Event, tau0: float = 0.1,
                     levels: int = 6) -> List[ExtractionResult]:
    """`infinitesimal_from_finite` on every generator pair of `pairs`, in order.

    The pairs are grouped by their Milne order max(level(a), level(b), 1).
    The pairs of one order, at most MAX_STACKED_PAIRS of them at a time,
    and all their levels are evaluated in one stacked call, on elements
    with the leading axes (pairs, levels); each sample's arithmetic is the
    one a single pair gets.  The tableaux and their gates then run in the
    order of `pairs`, so the first pair that does not converge raises its
    ExtrapolationError.
    """
    if levels < 2:
        raise ValueError("need at least two extrapolation levels")
    kind = theta.group
    taus = tau0 * 2.0 ** -np.arange(levels)
    roles = [(alg.roles[alg.index(a)], alg.roles[alg.index(b)]) for a, b in pairs]
    orders = [max([1] + [r.level for r in both if r is not None]) for both in roles]
    S = [None] * len(pairs)
    for order in sorted(set(orders)):
        members = [k for k, o in enumerate(orders) if o == order]
        # exp(tau * generator) at this order and every level, stacked once
        # with the leading axes (distinct roles, levels)
        distinct = list(dict.fromkeys(role for k in members for role in roles[k]))
        subgroups = _stack([exp_generator(kind, role, taus, order) for role in distinct],
                           taus.shape)
        position = {role: n for n, role in enumerate(distinct)}
        for start in range(0, len(members), MAX_STACKED_PAIRS):
            chunk = members[start:start + MAX_STACKED_PAIRS]
            u, w = (subgroups.take([position[roles[k][side]] for k in chunk])
                    for side in (0, 1))
            total = np.broadcast_to(np.asarray(_commutator_phase(theta, u, w, p),
                                               dtype=float), (len(chunk),) + taus.shape)
            for k, row in zip(chunk, total / taus ** 2):
                S[k] = row
    return [_extrapolate(row, a, b) for row, (a, b) in zip(S, pairs)]


def infinitesimal_from_finite(theta: PhaseFunction, alg: LieAlgebra, a: str, b: str,
                              p: Event, tau0: float = 0.1,
                              levels: int = 6) -> ExtractionResult:
    """Extract the infinitesimal exponent on the generator pair (a, b) of alg at p.

    Evaluates the commutator phase combination

        S(tau) = [ xi(uw, u^-1 w^-1, p) + xi(u, w, p)
                   + xi(u^-1, w^-1, w^-1 u^-1 p)
                   + xi(u, u, p) + xi(w, w, p) ] / tau^2

    with u = exp(tau a), w = exp(tau b) on the halving schedule tau0*2^-k,
    and extrapolates tau -> 0;
    exp(tau a) is taken from the generator's role in alg, as a Milne
    element of order max(level(a), level(b), 1) for acceleration groups.
    The two diagonal terms vanish identically for canonical subgroup
    exponents and cancel the self-phase defect of non-canonical ones.
    This is the one-pair `extraction_table`, which evaluates all pairs of
    a Milne order and all levels in one stacked call, capped per call.

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
    return extraction_table(theta, alg, [(a, b)], p, tau0, levels)[0]
