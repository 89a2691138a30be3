"""Discretized Hilbert bundle over a time grid.

A bundle here is a finite family of d-dimensional complex fibers, one per
time node, with a quadrature weight per node playing the base measure.
Sections assign a fiber vector to every node; bundle maps move fibers by
per-node unitaries over a permutation of the base.  The ray test decides
whether two sections differ only by a time-dependent phase, which is the
notion of physical indistinguishability the rest of the package feeds.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groupexp import worst_abs

UNITARITY_TOL = 1e-12
DEFAULT_RAY_TOL = 1e-9


class DegenerateSectionError(ValueError):
    """Phase recovery against a section with a zero fiber."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two time nodes")
        # the good case asserted, so that NaN fails; increasing with a finite span
        # (a Python float difference overflows silently) holds every step finite
        if not (np.all(nodes[1:] > nodes[:-1])
                and math.isfinite(float(nodes[-1]) - float(nodes[0]))):
            raise ValueError("nodes must be strictly increasing")
        if weights.shape != nodes.shape or not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("need one positive weight per node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size


def uniform_grid(t0: float, t1: float, n: int) -> TimeGrid:
    """n equally spaced nodes with weights summing to t1 - t0."""
    nodes = np.linspace(t0, t1, n)
    return TimeGrid(nodes, np.full(n, (t1 - t0) / n))


@dataclass(frozen=True, eq=False)
class Section:
    grid: TimeGrid
    fibers: np.ndarray  # (nodes, d) complex

    def __post_init__(self):
        fibers = np.asarray(self.fibers, dtype=complex)
        if fibers.ndim != 2 or fibers.shape[0] != self.grid.size or fibers.shape[1] < 1:
            raise ValueError("fibers must have shape (nodes, d>=1)")
        object.__setattr__(self, "fibers", fibers)

    @property
    def dim(self) -> int:
        return self.fibers.shape[1]


def _check_compatible(s1: Section, s2: Section):
    if s1.grid is not s2.grid and not (
            np.array_equal(s1.grid.nodes, s2.grid.nodes)
            and np.array_equal(s1.grid.weights, s2.grid.weights)):
        raise ValueError("sections live over different grids")
    if s1.dim != s2.dim:
        raise ValueError("fiber dimensions differ: %d vs %d" % (s1.dim, s2.dim))


def fiber_inner(s1: Section, s2: Section, node: int) -> complex:
    """Fiber inner product at one node, conjugate-linear in s1."""
    _check_compatible(s1, s2)
    return complex(np.vdot(s1.fibers[node], s2.fibers[node]))


def direct_integral_norm(s: Section) -> float:
    """sqrt of the weighted sum of fiber norms: the norm of the whole section."""
    sq = np.sum(np.abs(s.fibers) ** 2, axis=1)
    return float(np.sqrt(np.dot(s.grid.weights, sq)))


@dataclass(frozen=True, eq=False)
class BundleMap:
    """Per-node unitaries U_k over a permutation of the base nodes.

    Applying the map sends the fiber at node k to U_k @ fiber, placed at
    node base_map[k].
    """

    base_map: np.ndarray
    matrices: np.ndarray  # (nodes, d, d) complex

    def __post_init__(self):
        perm = np.asarray(self.base_map, dtype=int)
        mats = np.asarray(self.matrices, dtype=complex)
        if perm.ndim != 1 or sorted(perm.tolist()) != list(range(perm.size)):
            raise ValueError("base_map must be a permutation of node indices")
        if mats.ndim != 3 or mats.shape[0] != perm.size or mats.shape[1] != mats.shape[2]:
            raise ValueError("need one square matrix per node")
        d = mats.shape[1]
        for k in range(mats.shape[0]):
            defect = worst_abs(mats[k].conj().T @ mats[k] - np.eye(d))
            if not defect <= UNITARITY_TOL:  # a NaN entry has a NaN defect
                raise ValueError("matrix at node %d not unitary (defect %.3e)"
                                 % (k, defect))
        object.__setattr__(self, "base_map", perm)
        object.__setattr__(self, "matrices", mats)


def phase_bundle_map(grid: TimeGrid, dim: int, phases) -> BundleMap:
    """U_k = exp(i*phases[k]) * identity: a pure gauge transformation."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (grid.size,):
        raise ValueError("need one phase per node")
    mats = np.einsum("k,ij->kij", np.exp(1j * phases), np.eye(dim, dtype=complex))
    return BundleMap(np.arange(grid.size), mats)


def apply_bundle_map(T: BundleMap, s: Section) -> Section:
    if T.matrices.shape[0] != s.grid.size or T.matrices.shape[1] != s.dim:
        raise ValueError("bundle map does not fit the section")
    out = np.empty_like(s.fibers)
    for k in range(s.grid.size):
        out[T.base_map[k]] = T.matrices[k] @ s.fibers[k]
    return Section(s.grid, out)


@dataclass(frozen=True)
class RayResult:
    equivalent: bool
    phases: Optional[np.ndarray]  # one phase per node, in [0, 2*pi)

    def __bool__(self) -> bool:
        return self.equivalent


def ray_equivalent(s1: Section, s2: Section, tol: float = DEFAULT_RAY_TOL) -> RayResult:
    """Decide whether s2 = exp(i*phase(t)) * s1 node by node.

    The phase at each node is read off the largest-modulus component of
    s1's fiber, then verified against the whole fiber to `tol` relative
    accuracy.  s1 must be nonzero on every node, otherwise the phase is
    undefined there.
    """
    _check_compatible(s1, s2)
    phases = np.empty(s1.grid.size)
    for k in range(s1.grid.size):
        f1, f2 = s1.fibers[k], s2.fibers[k]
        scale = np.max(np.abs(f1))
        if scale == 0:
            raise DegenerateSectionError("zero fiber at node %d" % k)
        ref = int(np.argmax(np.abs(f1)))
        phi = float(np.angle(f2[ref] / f1[ref])) if f2[ref] != 0 else 0.0
        if not worst_abs(f2 - np.exp(1j * phi) * f1) <= tol * scale:
            return RayResult(False, None)
        phases[k] = phi % (2 * np.pi)
    return RayResult(True, phases)

