"""Finite-dimensional Lie algebras with rational structure constants.

An algebra is given by its basis labels, the brackets [a_i, a_j] for i < j
as lists of (index, coefficient) terms, and an optional designated
time-translation generator. Built-in constructors cover the kinematical
algebras used throughout: the Galilean algebra, the polynomial-acceleration
algebras of order m, and the abelian phase-space translation algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .ratpoly import as_fraction

__all__ = [
    "LieAlgebra",
    "JacobiViolation",
    "Role",
    "galilean",
    "milne",
    "phase_space",
]

Terms = Tuple[Tuple[int, Fraction], ...]


class Role(NamedTuple):
    """Kinematic role of one basis generator of a built-in algebra.

    kind is "rotation" (axes: the rotated plane (i, j)), "translation" or
    "boost" (axes: (i,)), "acceleration" (axes: (i,), level: n for d_i^(n))
    or "time". Axes count from 1.
    """

    kind: str
    axes: Tuple[int, ...] = ()
    level: int = 0


@dataclass(frozen=True)
class JacobiViolation:
    """One failing instance of the structure-constant Jacobi identity."""

    i: int
    j: int
    k: int
    l: int
    residual: Fraction

    def describe(self, alg: "LieAlgebra") -> str:
        lb = alg.labels
        return "jacobi fails on (%s,%s,%s) at %s: residual %s" % (
            lb[self.i], lb[self.j], lb[self.k], lb[self.l], self.residual)


def _normalize_terms(terms: Iterable[Tuple[int, object]], dim: int) -> Terms:
    acc: Dict[int, Fraction] = {}
    for k, c in terms:
        if not 0 <= k < dim:
            raise ValueError("bracket term index %r out of range" % (k,))
        acc[k] = acc.get(k, Fraction(0)) + as_fraction(c)
    return tuple(sorted((k, c) for k, c in acc.items() if c != 0))


class LieAlgebra:
    """Immutable structure-constant table with a designated time generator."""

    def __init__(self, labels: Sequence[str],
                 brackets: Dict[Tuple[int, int], Iterable[Tuple[int, object]]],
                 time_index: Optional[int] = None,
                 name: str = "custom") -> None:
        labels = tuple(str(s) for s in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        if not labels:
            raise ValueError("empty basis")
        n = len(labels)
        table: Dict[Tuple[int, int], Terms] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("bracket pair (%r, %r) out of range" % (i, j))
            if i >= j:
                raise ValueError("brackets must be stored with i < j")
            tt = _normalize_terms(terms, n)
            if tt:
                table[(i, j)] = tt
        if time_index is not None and not 0 <= time_index < n:
            raise ValueError("time_index out of range")
        self._labels = labels
        self._table = table
        self._time_index = time_index
        self._name = str(name)
        self._index = {s: i for i, s in enumerate(labels)}
        self._roles: Tuple[Optional[Role], ...] = (None,) * n

    # -- basic queries -----------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return len(self._labels)

    @property
    def time_index(self) -> Optional[int]:
        return self._time_index

    @property
    def name(self) -> str:
        return self._name

    @property
    def roles(self) -> Tuple[Optional[Role], ...]:
        """Per-generator kinematic Role; None for a generator without one,
        which includes every generator of a from_dict algebra."""
        return self._roles

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError("no basis generator named %r" % (label,))

    def pairs(self):
        """All index pairs (i, j) with i < j, in lexicographic order."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                yield (i, j)

    # -- bracket -----------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Terms:
        """[a_i, a_j] as ((k, coeff), ...); antisymmetry handled here."""
        if i == j:
            return ()
        if i < j:
            return self._table.get((i, j), ())
        return tuple((k, -c) for k, c in self._table.get((j, i), ()))

    def bracket(self, x: Sequence, y: Sequence) -> List[Fraction]:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        x = [as_fraction(c) for c in x]
        y = [as_fraction(c) for c in y]
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self._table.items():
            w = x[i] * y[j] - x[j] * y[i]
            if w == 0:
                continue
            for k, c in terms:
                out[k] += w * c
        return out

    # -- validation --------------------------------------------------

    def validate(self) -> List[JacobiViolation]:
        """All structure-constant Jacobi violations; empty list means ok."""
        out: List[JacobiViolation] = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [Fraction(0)] * n
                    for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, c in self.bracket_basis(p, q):
                            for l, c2 in self.bracket_basis(m, r):
                                acc[l] += c * c2
                    for l, v in enumerate(acc):
                        if v != 0:
                            out.append(JacobiViolation(i, j, k, l, v))
        return out

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        brackets = []
        for (i, j) in sorted(self._table):
            brackets.append({
                "lhs": self._labels[i],
                "rhs": self._labels[j],
                "out": [[self._labels[k], str(c)] for k, c in self._table[(i, j)]],
            })
        return {
            "labels": list(self._labels),
            "brackets": brackets,
            "time_generator": None if self._time_index is None
                              else self._labels[self._time_index],
        }

    @classmethod
    def from_dict(cls, data: dict, name: str = "custom") -> "LieAlgebra":
        try:
            labels = list(data["labels"])
            raw = data["brackets"]
            tgen = data.get("time_generator")
        except (KeyError, TypeError) as e:
            raise ValueError("malformed algebra spec: %s" % (e,))
        index = {s: i for i, s in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate basis labels")
        brackets: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
        seen = set()
        for entry in raw:
            try:
                li, ri = index[entry["lhs"]], index[entry["rhs"]]
                out = [(index[lab], lab, c) for lab, c in entry["out"]]
            except KeyError as e:
                raise ValueError("unknown label in bracket entry: %s" % (e,))
            terms = []
            for k, lab, c in out:
                try:
                    terms.append((k, as_fraction(c)))
                except (TypeError, ValueError) as e:
                    raise ValueError("bracket entry (%s, %s), coefficient of %s: %s"
                                     % (entry["lhs"], entry["rhs"], lab, e))
            if li == ri:
                raise ValueError("bracket with equal generators %r" % (entry["lhs"],))
            key = (min(li, ri), max(li, ri))
            if key in seen:
                raise ValueError("pair (%s, %s) listed twice" % (entry["lhs"], entry["rhs"]))
            seen.add(key)
            if li > ri:
                terms = [(k, -c) for k, c in terms]
            brackets[key] = terms
        ti = None
        if tgen is not None:
            if tgen not in index:
                raise ValueError("time_generator %r not a basis label" % (tgen,))
            ti = index[tgen]
        alg = cls(labels, brackets, time_index=ti, name=name)
        bad = alg.validate()
        if bad:
            raise ValueError(bad[0].describe(alg))
        return alg

    def __repr__(self) -> str:
        return "LieAlgebra(%s, dim=%d)" % (self._name, self.dim)


# -- built-in algebras ----------------------------------------------

_ROT = ((1, 2), (1, 3), (2, 3))
_AXES = (1, 2, 3)


def _role_label(role: Role) -> str:
    if role.kind == "rotation":
        return "a%d%d" % role.axes
    if role.kind == "acceleration":
        return "d%d_%d" % (role.level, role.axes[0])
    if role.kind == "time":
        return "tau"
    return ("b%d" if role.kind == "translation" else "d%d") % role.axes


def _rotation_rotation(brackets, at):
    # [a_ij, a_kl] = d_jk a_il - d_ik a_jl + d_il a_jk - d_jl a_ik
    def a(i, j):
        if i == j:
            return ()
        sign = 1
        if i > j:
            i, j, sign = j, i, -sign
        return ((at[Role("rotation", (i, j))], Fraction(sign)),)

    for n1, (i, j) in enumerate(_ROT):
        for (k, l) in _ROT[n1 + 1:]:
            terms = []
            if j == k:
                terms.extend(a(i, l))
            if i == k:
                terms.extend((t, -c) for t, c in a(j, l))
            if i == l:
                terms.extend(a(j, k))
            if j == l:
                terms.extend((t, -c) for t, c in a(i, k))
            if terms:
                brackets[(at[Role("rotation", (i, j))],
                          at[Role("rotation", (k, l))])] = terms


def _rotation_vector(brackets, at, kind, level=0):
    # [a_ij, v_k] = d_jk v_i - d_ik v_j for the vectors v of one kind and level
    def v(i):
        return at[Role(kind, (i,), level)]

    for (i, j) in _ROT:
        for k in _AXES:
            terms = []
            if j == k:
                terms.append((v(i), Fraction(1)))
            if i == k:
                terms.append((v(j), Fraction(-1)))
            if terms:
                brackets[(at[Role("rotation", (i, j))], v(k))] = terms


def _kinematic(roles: List[Role], brackets, name: str) -> LieAlgebra:
    alg = LieAlgebra([_role_label(r) for r in roles], brackets,
                     time_index=roles.index(Role("time")), name=name)
    alg._roles = tuple(roles)
    return alg


def galilean() -> LieAlgebra:
    """Rotations, space translations b_i, boosts d_i and time translation."""
    roles = ([Role("rotation", p) for p in _ROT]
             + [Role("translation", (i,)) for i in _AXES]
             + [Role("boost", (i,)) for i in _AXES] + [Role("time")])
    at = {r: n for n, r in enumerate(roles)}
    brackets: dict = {}
    _rotation_rotation(brackets, at)
    _rotation_vector(brackets, at, "translation")
    _rotation_vector(brackets, at, "boost")
    for i in _AXES:
        brackets[(at[Role("boost", (i,))], at[Role("time")])] = [
            (at[Role("translation", (i,))], Fraction(1))]
    return _kinematic(roles, brackets, "galilean")


def milne(m: int) -> LieAlgebra:
    """Order-m polynomial acceleration algebra: rotations, d_i^(0)..d_i^(m), time.

    [d_i^(n), tau] = d_i^(n-1) with d^(-1) = 0; acceleration generators commute.
    m = 0 is rejected: it has no boost sector and the recurrence bookkeeping
    downstream assumes at least one.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    roles = ([Role("rotation", p) for p in _ROT]
             + [Role("acceleration", (i,), n) for n in range(m + 1) for i in _AXES]
             + [Role("time")])
    at = {r: k for k, r in enumerate(roles)}
    brackets: dict = {}
    _rotation_rotation(brackets, at)
    for n in range(m + 1):
        _rotation_vector(brackets, at, "acceleration", n)
        if n >= 1:
            for i in _AXES:
                brackets[(at[Role("acceleration", (i,), n)], at[Role("time")])] = [
                    (at[Role("acceleration", (i,), n - 1)], Fraction(1))]
    return _kinematic(roles, brackets, "milne:%d" % m)


def phase_space(n: int) -> LieAlgebra:
    """2n-dimensional abelian translation algebra, no time generator.

    Its generators have no kinematic role.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = ["p%d" % i for i in range(1, n + 1)] + ["q%d" % i for i in range(1, n + 1)]
    return LieAlgebra(labels, {}, time_index=None, name="phase-space:%d" % n)
