"""Finite-dimensional Lie algebras with rational structure constants.

An algebra is given by its basis labels, the brackets [a_i, a_j] for i < j
as lists of (index, coefficient) terms, and an optional designated
time-translation generator. Built-in constructors cover the kinematical
algebras used throughout: the Galilean algebra, the polynomial-acceleration
algebras of order m, and the abelian phase-space translation algebras.

The kinematical algebras follow two rules. The rotation a_ij (i < j) acts
on R^3 as E_ij - E_ji, the generator of `explab.groupexp`'s rotation in the
(i, j) plane: [a_ij, v_j] = v_i and [a_ij, v_i] = -v_j for every vector
v^(n), and the rotations close into so(3) as the matrix commutators do.
Time lowers the level of a vector: [v_i^(n), tau] = v_i^(n-1), v^(-1) = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .ratpoly import as_fraction

__all__ = [
    "LieAlgebra",
    "JacobiViolation",
    "Role",
    "galilean",
    "milne",
    "phase_space",
    "family_index",
    "family_dim",
]

Terms = Tuple[Tuple[int, object], ...]
# Significant digits that family_index reads. Every admitted index has two; a larger
# one of up to nine is refused by the column or pair limit, which names its size.
MAX_INDEX_DIGITS = 9


class Role(NamedTuple):
    """Kinematic role of one basis generator of a built-in algebra.

    kind is "rotation" (axes: the rotated plane (i, j)), "translation"
    (axes: (i,), level 0), "boost" (axes: (i,), level 1), "acceleration"
    (axes: (i,), level: n for d_i^(n)) or "time". Axes count from 1. The
    level of a vector generator is its place in the polynomial
    translation A(t): a translation moves A's constant term, a boost its
    linear term.
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
    # integral constants as ints, once: Fraction products are slow
    acc: Dict[int, Fraction] = {}
    for k, c in terms:
        if not 0 <= k < dim:
            raise ValueError("bracket term index %r out of range" % (k,))
        acc[k] = acc.get(k, Fraction(0)) + as_fraction(c)
    return tuple(sorted((k, c.numerator if c.denominator == 1 else c)
                        for k, c in acc.items() if c != 0))


class LieAlgebra:
    """Immutable structure-constant table with a designated time generator."""

    def __init__(self, labels: Sequence[str],
                 brackets: Dict[Tuple[int, int], Iterable[Tuple[int, object]]],
                 time_index: Optional[int] = None,
                 name: str = "custom") -> None:
        labels = tuple(labels)
        if not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be strings")
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
        self._memo: Dict[object, object] = {}

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
        """[a_i, a_j] as ((k, coeff), ...), an integral coeff as an int;
        antisymmetry handled here."""
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

    def memo(self, key, build: Callable[[], object]):
        """build() once per key for this instance.

        Data derived from the structure constants (the cyclic bracket sums,
        the Jacobi check, the solver's operator templates) is kept here, so
        it lives and dies with the algebra and is never shared with an
        equal one.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def forget(self, key) -> None:
        """Drop what memo(key) built, once its last reader has it."""
        self._memo.pop(key, None)

    # -- validation --------------------------------------------------

    def validate(self) -> List[JacobiViolation]:
        """All structure-constant Jacobi violations; empty list means ok."""
        return list(self.memo("validate", lambda: list(self._jacobi_violations())))

    def _require_valid(self) -> None:
        """Raise ValueError naming the first Jacobi violation, or else the
        first bracket with a time component: time acts on polynomials in t as
        -d/dt, a representation (so d1 d1 = 0) only if no bracket yields it.
        The Jacobi scan stops at its first violation; a clean scan is kept
        as validate()'s empty list, and the time bracket scan beside it."""
        bad = self._memo.get("validate")
        if bad is None:
            bad = list(itertools.islice(self._jacobi_violations(), 1))
            if not bad:
                self.memo("validate", list)
        if bad:
            raise ValueError(bad[0].describe(self))
        ti = self._time_index
        pair = self.memo("time bracket", lambda: min(
            (p for p, terms in self._table.items() if ti in dict(terms)), default=None))
        if pair is not None:
            lb = self._labels
            raise ValueError(
                "bracket [%s, %s] has a component along the time generator %s, "
                "so polynomials in t are not a module of the algebra"
                % (lb[pair[0]], lb[pair[1]], lb[ti]))

    def cyclic_sums(self) -> Dict[Tuple[int, int, int], Tuple[Tuple[int, int, object], ...]]:
        """Per basis triple i < j < k, in lexicographic order, the cyclic sum
        of c_pq^m (a_m, a_r) over (p, q, r) in (i, j, k), (j, k, i), (k, i, j),
        as terms (a, b, coefficient) on pairs a < b, (a_r, a_m) counted as
        -(a_m, a_r) and (a_r, a_r) as zero, integral coefficients as ints; a
        triple whose sum vanishes is left out. Contracted with c_ab^l it is
        the Jacobi residual at l; on a two-cochain it is the bracket part of
        the cocycle condition. Computed once per instance, or kept from a
        Jacobi scan that ran to the end, until `explab.cochain` has read it
        (`forget`)."""
        return self.memo("cyclic sums", lambda: dict(self._iter_cyclic_sums()))

    def _iter_cyclic_sums(self) -> Iterator[Tuple[Tuple[int, int, int],
                                                  Tuple[Tuple[int, int, object], ...]]]:
        """The items of `cyclic_sums`, each summed when it is drawn."""
        # a triple's sum reads only the brackets of its three pairs, so only
        # triples holding a pair with a nonzero bracket are visited
        triples = {tuple(sorted((i, j, k))) for i, j in self._table
                   for k in range(self.dim) if k != i and k != j}
        # [a_p, a_q] for both orders of each pair
        oriented: Dict[Tuple[int, int], Terms] = dict(self._table)
        for (i, j), terms in self._table.items():
            oriented[j, i] = tuple((m, -c) for m, c in terms)
        for triple in sorted(triples):
            i, j, k = triple
            acc: Dict[Tuple[int, int], object] = {}
            for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c in oriented.get((p, q), ()):
                    if m != r:
                        pair, s = ((m, r), c) if m < r else ((r, m), -c)
                        acc[pair] = acc.get(pair, 0) + s
            terms = tuple((a, b, c.numerator if c.denominator == 1 else c)
                          for (a, b), c in acc.items() if c)
            if terms:
                yield triple, terms

    def _jacobi_violations(self) -> Iterator[JacobiViolation]:
        """The violations triple by triple, in `cyclic_sums` order, and by
        output index within a triple.  Each triple's sum is built when the
        scan reaches it, so a scan stopped at its first violation builds no
        more; one that runs to the end keeps the sums for `cyclic_sums`."""
        table, sums = self._table, {}
        for triple, terms in self._iter_cyclic_sums():
            sums[triple] = terms
            i, j, k = triple
            acc: Dict[int, object] = {}
            for a, b, c in terms:
                for l, c2 in table.get((a, b), ()):
                    acc[l] = acc.get(l, 0) + c * c2
            for l, v in sorted(acc.items()):
                if v:
                    yield JacobiViolation(i, j, k, l, Fraction(v))
        self._memo["cyclic sums"] = sums

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
        """The algebra of a JSON spec (`to_dict`), validated. `labels` is a
        list of strings, `time_generator` a string or null, and `brackets` a
        list of {"lhs": label, "rhs": label, "out": [[label, coefficient],
        ...]}; a ValueError names the first field of another type."""
        if not isinstance(data, dict):
            raise ValueError("malformed algebra spec: expected an object")
        labels, raw, tgen = (data.get(k) for k in ("labels", "brackets", "time_generator"))
        if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
            raise ValueError("labels must be a list of strings")
        if not (tgen is None or isinstance(tgen, str)):
            raise ValueError("time_generator must be a string or null")
        if not isinstance(raw, list):
            raise ValueError("brackets must be a list")
        index = {s: i for i, s in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate basis labels")
        brackets: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
        for n, entry in enumerate(raw):
            if not (isinstance(entry, dict) and isinstance(entry.get("lhs"), str)
                    and isinstance(entry.get("rhs"), str) and isinstance(entry.get("out"), list)
                    and all(isinstance(t, list) and len(t) == 2 and isinstance(t[0], str)
                            for t in entry["out"])):
                raise ValueError('brackets[%d] must be {"lhs": label, "rhs": label, '
                                 '"out": [[label, coefficient], ...]}' % n)
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
            if key in brackets:
                raise ValueError("pair (%s, %s) listed twice" % (entry["lhs"], entry["rhs"]))
            if li > ri:
                terms = [(k, -c) for k, c in terms]
            brackets[key] = terms
        if tgen is not None and tgen not in index:
            raise ValueError("time_generator %r not a basis label" % (tgen,))
        alg = cls(labels, brackets, time_index=index.get(tgen), name=name)
        alg._require_valid()
        return alg

    def __repr__(self) -> str:
        return "LieAlgebra(%s, dim=%d)" % (self._name, self.dim)


# -- built-in algebras ----------------------------------------------

_ROT = ((1, 2), (1, 3), (2, 3))
_AXES = (1, 2, 3)
# so(3): [a_ij, a_kl] for the three pairs of _ROT, each one rotation times a sign
_SO3 = {((1, 2), (1, 3)): ((2, 3), -1),
        ((1, 2), (2, 3)): ((1, 3), 1),
        ((1, 3), (2, 3)): ((1, 2), -1)}


def _role_label(role: Role) -> str:
    if role.kind == "rotation":
        return "a%d%d" % role.axes
    if role.kind == "acceleration":
        return "d%d_%d" % (role.level, role.axes[0])
    if role.kind == "time":
        return "tau"
    return ("b%d" if role.kind == "translation" else "d%d") % role.axes


def _polynomial_translations(kinds: Sequence[str], name: str) -> LieAlgebra:
    """Rotations, the vectors v_i^(n) of levels n = 0..len(kinds)-1 and
    time, with [v_i^(n), tau] = v_i^(n-1) and v^(-1) = 0; the vectors
    commute.  kinds[n] is the role kind of the level-n vectors."""
    roles = ([Role("rotation", p) for p in _ROT]
             + [Role(kind, (i,), n) for n, kind in enumerate(kinds) for i in _AXES]
             + [Role("time")])
    at = {r: k for k, r in enumerate(roles)}
    rot = {p: at[Role("rotation", p)] for p in _ROT}
    brackets: dict = {(rot[p], rot[q]): [(rot[r], c)] for (p, q), (r, c) in _SO3.items()}
    for n, kind in enumerate(kinds):
        v = {i: at[Role(kind, (i,), n)] for i in _AXES}
        for i, j in _ROT:
            # a_ij acts on R^3 as E_ij - E_ji
            brackets[rot[i, j], v[i]] = [(v[j], -1)]
            brackets[rot[i, j], v[j]] = [(v[i], 1)]
        if n >= 1:
            for i in _AXES:
                brackets[v[i], at[Role("time")]] = [(at[Role(kinds[n - 1], (i,), n - 1)], 1)]
    alg = LieAlgebra([_role_label(r) for r in roles], brackets,
                     time_index=roles.index(Role("time")), name=name)
    alg._roles = tuple(roles)
    return alg


def galilean() -> LieAlgebra:
    """Rotations, space translations b_i, boosts d_i and time translation:
    the order-1 acceleration algebra, with the levels 0 and 1 named
    translations and boosts."""
    return _polynomial_translations(("translation", "boost"), "galilean")


def milne(m: int) -> LieAlgebra:
    """Order-m polynomial acceleration algebra: rotations, d_i^(0)..d_i^(m), time.

    [d_i^(n), tau] = d_i^(n-1) with d^(-1) = 0; acceleration generators commute.
    m = 0 is rejected: it has no boost sector and the recurrence bookkeeping
    downstream assumes at least one.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    return _polynomial_translations(("acceleration",) * (m + 1), "milne:%d" % m)


def phase_space(n: int) -> LieAlgebra:
    """2n-dimensional abelian translation algebra, no time generator.

    Its generators have no kinematic role.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = ["p%d" % i for i in range(1, n + 1)] + ["q%d" % i for i in range(1, n + 1)]
    return LieAlgebra(labels, {}, time_index=None, name="phase-space:%d" % n)


def family_index(spec: str, family: str) -> Optional[int]:
    """The index n of a `<family>:<n>` spec such as `milne:3`.

    None when spec does not start with `<family>:`; ValueError when the
    index is not written in ASCII decimal digits alone, is too long, or is below 1.
    """
    prefix = family + ":"
    if not spec.startswith(prefix):
        return None
    digits = spec[len(prefix):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("bad index in %r: expected %s:<integer>" % (spec, family))
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_INDEX_DIGITS:
        raise ValueError("%s index has more than %d digits" % (family, MAX_INDEX_DIGITS))
    value = int(digits)
    if value < 1:
        raise ValueError("%s index must be >= 1" % family)
    return value


def family_dim(family: str, index: int) -> int:
    """Dimension of <family>:<index> without building it: milne:m has 3m+7
    generators, phase-space:n has 2n."""
    return {"milne": 3 * index + 7, "phase-space": 2 * index}[family]
