"""Classification of polynomial cocycles modulo coboundaries, exactly.

The cocycle condition per basis triple is a linear constraint on the
polynomial coefficients of a two-cochain. The rows of the constraints and of
d1 expand from the algebra's complex templates (`explab.cochain`), whose
one column numbering, entry-first (pairs (i, j) lexicographic) then by
ascending power of t, fixes pivots, echelon forms and therefore every
canonical output. It does not depend on the degree bound, so the degree
escalation grows two echelons as the bound rises, and the one canonical
solve at the bound it reports starts from them.

All arithmetic in this module is exact; no floats anywhere.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .cochain import (MAX_COLUMNS, OneCochain, TwoCochain, _complex, coboundary, is_cocycle,
                      pair_power)
from .lie import LieAlgebra, family_dim
from .ratpoly import RatPoly

__all__ = [
    "Classification",
    "EquivalenceResult",
    "DegreeCapError",
    "ColumnLimitError",
    "check_columns",
    "check_family_columns",
    "MilneStructureReport",
    "classify",
    "are_equivalent",
    "verify_milne_structure",
    "realizable_subspace",
]


class DegreeCapError(RuntimeError):
    """Auto-degree escalation hit the cap without the quotient stabilizing."""


class ColumnLimitError(ValueError):
    """A degree bound that needs more than MAX_COLUMNS coefficient columns."""


# -- degree bound -------------------------------------------------------

def _column_count(dim: int, name: str, degree: int) -> int:
    """Coefficient columns at `degree` on an algebra of dimension `dim`;
    ColumnLimitError beyond MAX_COLUMNS. An admitted degree on an algebra
    with a pair is below MAX_COLUMNS, the width of the column numbering."""
    if degree < 0:
        raise ValueError("degree bound must be >= 0")
    ncols = dim * (dim - 1) // 2 * (degree + 1)
    if ncols > MAX_COLUMNS:
        raise ColumnLimitError("degree %d needs %d coefficient columns on %s; the limit is %d"
                               % (degree, ncols, name, MAX_COLUMNS))
    return ncols


def _columns(alg: LieAlgebra, degree: int) -> int:
    return _column_count(alg.dim, alg.name, degree)


def _first_degree(timed: bool, degree) -> int:
    """Degree bound of classify's first solve."""
    return (1 if timed else 0) if degree == "auto" else int(degree)


def check_columns(name: str, dim: int, timed: bool, degree="auto") -> None:
    """Raise the ColumnLimitError that classify(alg, degree) raises first on
    an algebra `name` of dimension `dim`, with a time generator if `timed`,
    without building or validating it."""
    _column_count(dim, name, _first_degree(timed, degree))


def check_family_columns(family: str, index: int, degree="auto") -> None:
    """check_columns for <family>:<index>: milne:m has a time generator,
    phase-space:n none."""
    check_columns("%s:%d" % (family, index), family_dim(family, index),
                  family == "milne", degree)


# -- classification -----------------------------------------------------

@dataclass
class Classification:
    alg: LieAlgebra
    cocycle_dim: int
    coboundary_dim: int
    quotient_dim: int
    representatives: List[TwoCochain]
    degree_used: int
    coordinates: Optional[List[str]] = None

    def to_jsonable(self) -> dict:
        return {
            "algebra": self.alg.name,
            "labels": list(self.alg.labels),
            "cocycle_dim": self.cocycle_dim,
            "coboundary_dim": self.coboundary_dim,
            "quotient_dim": self.quotient_dim,
            "degree_used": self.degree_used,
            "coordinates": self.coordinates,
            "representatives": [r.to_jsonable() for r in self.representatives],
        }


@dataclass
class _DegreeSolve:
    degree: int
    cocycle_rows: List[Dict[int, Fraction]]
    coboundary_dim: int
    rep_rows: List[Dict[int, Fraction]]


class _Ladder:
    """Quotient dimensions at degree bounds 0, 1, 2, ... from two integer
    echelons that grow with the bound; in the complex's column numbering the
    full cocycle rows of a power below D and the unit images of a power up
    to D are the same rows at every bound D.

    At bound D, `cocycle` holds the echelon of the full rows of powers below
    D, `coboundary` that of the unit images of powers up to D, and
    `constraints` a shallow copy of `cocycle` grown by the rows of power D
    without their derivative term: the whole constraint system at D. Each
    unit image is checked against the cocycle templates, so the coboundaries
    lie in the cocycle space and the quotient dimension is the number of
    columns minus both ranks.
    """

    def __init__(self, alg: LieAlgebra) -> None:
        self.alg = alg
        self.cx = _complex(alg)
        self.degree = -1
        self.quotient: Optional[int] = None
        self.cocycle: Dict[int, Dict[int, int]] = {}
        self.coboundary: Dict[int, Dict[int, int]] = {}
        self.constraints: Dict[int, Dict[int, int]] = {}

    def climb_to(self, D: int) -> int:
        """Raise the bound to D, one degree at a time; the quotient dimension at D."""
        while self.degree < D:
            self._climb()
        return self.quotient

    def _climb(self) -> None:
        D = self.degree + 1
        ncols = _columns(self.alg, D)
        cx = self.cx
        if D:
            linalg.echelon_int(cx.cocycle_rows(D - 1, full=True), self.cocycle)
        images = [linalg.scale_to_int(cx.unit_row(k, u)) for k, u in cx.units(D) if u == D]
        if not all(cx.annihilates(cx.row_coefficients(r)) for r in images):
            raise AssertionError("coboundary basis escapes the cocycle space")
        linalg.echelon_int(images, self.coboundary)
        self.constraints = linalg.echelon_int(cx.cocycle_rows(D, full=False),
                                              dict(self.cocycle))
        self.degree = D
        self.quotient = ncols - len(self.constraints) - len(self.coboundary)

    def solve(self) -> _DegreeSolve:
        """Cocycle basis, coboundary rank and quotient representatives at the
        current bound, from the echelons, which it takes over. Reduced row
        echelon form is canonical for a row space, so the rank many
        constraint rows give the cocycle basis that the whole system would,
        and each cocycle reduces against the coboundary echelon as against
        its RREF."""
        D = self.degree
        constraints, coboundary = self.constraints, self.coboundary
        self.cocycle = self.coboundary = self.constraints = None
        z_vecs = linalg.nullspace(list(constraints.values()), self.cx.columns(D))
        del constraints
        reduced = [linalg.reduce_mod_rows(v, coboundary) for v in z_vecs]
        rep_rows = linalg.rref([r for r in reduced if r])
        if len(rep_rows) != len(z_vecs) - len(coboundary):
            raise AssertionError("coboundary basis escapes the cocycle space")
        return _DegreeSolve(D, z_vecs, len(coboundary), rep_rows)


def _solve_at_degree(alg: LieAlgebra, D: int) -> _DegreeSolve:
    """The canonical solve at entry-degree bound D, after the ladder up to D."""
    ladder = _Ladder(alg)
    ladder.climb_to(D)
    return ladder.solve()


def _kind(alg: LieAlgebra, i: int) -> Optional[str]:
    role = alg.roles[i]
    return None if role is None else role.kind


def _coordinate_names(alg: LieAlgebra, rep_rows: List[Dict[int, Fraction]]) -> List[str]:
    """Name each representative row after the generator pair of its pivot:
    gamma_(l,n) on acceleration levels, gamma on a translation and the
    boost along the same axis, c(a,b)*t^p for any other pair."""
    names = []
    pairs = _complex(alg).pairs
    for row in rep_rows:
        pidx, power = pair_power(min(row))
        i, j = pairs[pidx]
        ri, rj = alg.roles[i], alg.roles[j]
        kinds = (_kind(alg, i), _kind(alg, j))
        if kinds == ("acceleration", "acceleration"):
            names.append("gamma_(%d,%d)" % (ri.level, rj.level))
        elif kinds == ("translation", "boost") and ri.axes == rj.axes:
            names.append("gamma")
        else:
            suffix = "" if power == 0 else "*t^%d" % power
            names.append("c(%s,%s)%s" % (alg.labels[i], alg.labels[j], suffix))
    return names


def _classification(alg: LieAlgebra, solve: _DegreeSolve) -> Classification:
    cx = _complex(alg)
    return Classification(
        alg=alg,
        cocycle_dim=len(solve.cocycle_rows),
        coboundary_dim=solve.coboundary_dim,
        quotient_dim=len(solve.rep_rows),
        representatives=[cx.to_cochain(alg, r) for r in solve.rep_rows],
        degree_used=solve.degree,
        coordinates=_coordinate_names(alg, solve.rep_rows),
    )


def classify(alg: LieAlgebra, degree="auto", cap: int = 16) -> Classification:
    """Cocycle space, coboundary space, quotient and canonical representatives.

    With degree="auto" the entry-degree bound escalates from 1 until the
    quotient dimension agrees at two consecutive bounds; degree_used records
    the confirming bound. Each bound's quotient dimension is counted from
    echelons that grow with the bound (`_Ladder`), and the canonical solve
    runs once, at the confirming bound. Algebras without a time generator
    are classified at degree 0: nothing in the constraint system couples
    powers of t there, so every higher degree replicates the same
    classification and escalation would never terminate.
    """
    first = _first_degree(alg.time_index is not None, degree)
    _columns(alg, first)  # refuse a negative or oversized first solve before validating
    alg._require_valid()
    if degree != "auto" or alg.time_index is None:
        return _classification(alg, _solve_at_degree(alg, first))

    ladder = _Ladder(alg)
    prev = ladder.climb_to(1)
    for D in range(2, cap + 1):
        cur = ladder.climb_to(D)
        if cur == prev:
            return _classification(alg, ladder.solve())
        prev = cur
    raise DegreeCapError(
        "quotient dimension of %s did not stabilize by degree %d" % (alg.name, cap))


# -- equivalence --------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceResult:
    __slots__ = ("equivalent", "witness", "__weakref__")
    equivalent: bool
    witness: Optional[OneCochain]

    def __bool__(self) -> bool:
        return self.equivalent


_INEQUIVALENT = EquivalenceResult(False, None)


class _D1Solver:
    """The tagged d1 echelon of one algebra at one degree bound, built on
    its first query, and the positive results from it that callers hold."""

    __slots__ = ("echelon", "results")

    def __init__(self, alg: LieAlgebra, D: int) -> None:
        self.echelon = linalg.augment(_complex(alg).coboundary_rows(D))
        # weak: a result keeps its witness's algebra, and so this, alive
        self.results = weakref.WeakValueDictionary()

    def shared(self, alg: LieAlgebra, comps: Tuple[RatPoly, ...]) -> EquivalenceResult:
        """The result for these witness components that a caller still
        holds, or a new one."""
        result = self.results.get(comps)
        if result is None:
            witness = OneCochain(alg, comps)
            result = self.results[witness.components] = EquivalenceResult(True, witness)
        return result


def _d1_solver(alg: LieAlgebra, D: int) -> _D1Solver:
    """The algebra's d1 solver at degree bound D, made on first use and
    kept with the algebra instance."""
    return alg.memo(("d1", D), lambda: _D1Solver(alg, D))


def are_equivalent(x1: TwoCochain, x2: TwoCochain) -> EquivalenceResult:
    """Decide whether x2 - x1 is a coboundary; return a witness when it is.

    The witness search runs over one-cochains of component degree
    deg(x2 - x1) + 1. That bound is known to fall short: when ad tau has a
    nilpotent block on the other generators, the top degrees of lambda can
    cancel in d lambda, so a coboundary of entry degree k - 1 may need a
    witness of degree k + 1, and is then reported inequivalent to zero
    (Bug C in ROADMAP). The search solves over the d1 images of the unit
    one-cochains, the rows `classify` eliminates: a unit whose image
    reduces to zero against the images of earlier units gets coefficient
    zero, so the witness is unique in the operators' unit order.

    The images are eliminated once per algebra instance and degree bound,
    on the first query, and kept with the algebra (`LieAlgebra.memo`); each
    query reduces only its own target. Results are immutable and shared:
    every negative verdict is one object, and a positive result equal to
    one a caller still holds, on the same algebra and bound, is that
    object. The echelon keeps no result alive.
    """
    if x1.alg.labels != x2.alg.labels:
        raise ValueError("cochains live on different algebras")
    alg = x1.alg
    alg._require_valid()
    for x in (x1, x2):
        if not is_cocycle(x):
            raise ValueError("input is not a cocycle")
    delta = x2 - x1
    if delta.is_zero():
        return EquivalenceResult(True, OneCochain.zero(alg))
    lam_degree = max(delta.max_degree() + 1, 1)
    _columns(alg, lam_degree)
    cx = _complex(alg)
    solver = _d1_solver(alg, lam_degree)
    weights = linalg.solve_augmented(solver.echelon, cx.to_row(delta))
    if weights is None:
        return _INEQUIVALENT
    coeffs = [[Fraction(0)] * (lam_degree + 1) for _ in range(alg.dim)]
    units = cx.units(lam_degree)
    for ucol, v in weights.items():
        k, u = units[ucol]
        coeffs[k][u] = v
    result = solver.shared(alg, tuple(RatPoly(c) for c in coeffs))
    if coboundary(result.witness) != delta:
        raise AssertionError("witness verification failed")
    return result


# -- acceleration-algebra structure reports ------------------------------

@dataclass
class MilneStructureReport:
    order: int
    failures: Dict[str, List[str]] = field(default_factory=dict)

    CHECKS = ("isotropy", "p00_zero", "antisymmetry", "recurrence",
              "degree_bound", "support")

    def record(self, check: str, detail: str) -> None:
        self.failures.setdefault(check, []).append(detail)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "order": self.order,
            "ok": self.ok,
            "checks": {name: self.failures.get(name, []) for name in self.CHECKS},
        }


def _acceleration_index(alg: LieAlgebra) -> Dict[Tuple[int, int], int]:
    """(level n, axis i) -> index of d_i^(n)."""
    return {(r.level, r.axes[0]): k for k, r in enumerate(alg.roles)
            if r is not None and r.kind == "acceleration"}


def _p_table(rep: TwoCochain, acc: Dict[Tuple[int, int], int],
             m: int) -> List[List[RatPoly]]:
    return [[rep.entry(acc[l, 1], acc[n, 1]) for n in range(m + 1)]
            for l in range(m + 1)]


def verify_milne_structure(c: Classification, m: int) -> MilneStructureReport:
    """Check the canonical representatives against the scalar-family structure.

    Every representative must be supported on acceleration pairs, isotropic
    (entry (d_i^(l), d_k^(n)) = P^(l,n) delta_ik), with P antisymmetric in
    (l, n), P^(0,0) = 0, degree(P^(l,n)) <= l+n-1, and the derivative ladder
    dP^(l,n)/dt = P^(l-1,n) + P^(l,n-1).
    """
    report = MilneStructureReport(order=m)
    alg = c.alg
    acc = _acceleration_index(alg)
    for s, rep in enumerate(c.representatives):
        tag = "rep[%d]" % s
        P = _p_table(rep, acc, m)
        for l in range(m + 1):
            for n in range(m + 1):
                for i in (1, 2, 3):
                    for k in (1, 2, 3):
                        e = rep.entry(acc[l, i], acc[n, k])
                        want = P[l][n] if i == k else RatPoly.zero()
                        if e != want:
                            report.record("isotropy", "%s (l=%d,n=%d,i=%d,k=%d)"
                                          % (tag, l, n, i, k))
        if not P[0][0].is_zero():
            report.record("p00_zero", tag)
        for l in range(m + 1):
            for n in range(m + 1):
                if P[l][n] != -P[n][l]:
                    report.record("antisymmetry", "%s (l=%d,n=%d)" % (tag, l, n))
                if P[l][n].degree > max(l + n - 1, -1):
                    report.record("degree_bound", "%s (l=%d,n=%d)" % (tag, l, n))
                lhs = P[l][n].differentiate()
                rhs = (P[l - 1][n] if l >= 1 else RatPoly.zero()) \
                    + (P[l][n - 1] if n >= 1 else RatPoly.zero())
                if lhs != rhs:
                    report.record("recurrence", "%s (l=%d,n=%d)" % (tag, l, n))
        for (i, j) in rep.nonzero_entries():
            if (_kind(alg, i), _kind(alg, j)) != ("acceleration", "acceleration"):
                report.record("support", "%s entry (%s,%s)"
                              % (tag, alg.labels[i], alg.labels[j]))
    return report


def realizable_subspace(c: Classification, m: int) -> Classification:
    """Restrict the quotient to classes with P^(l,q)(0) = 0 for all l, q >= 1."""
    reps = c.representatives
    if not reps:
        return c
    acc = _acceleration_index(c.alg)
    constraints: List[Dict[int, Fraction]] = []
    for l in range(1, m + 1):
        for n in range(l + 1, m + 1):
            row = {}
            for s, rep in enumerate(reps):
                v = rep.entry(acc[l, 1], acc[n, 1])(Fraction(0))
                if v:
                    row[s] = v
            if row:
                constraints.append(row)
    combos = linalg.nullspace(constraints, range(len(reps)))
    degree = max([r.max_degree() for r in reps] + [0])
    _columns(c.alg, degree)
    cx = _complex(c.alg)
    rep_rows = [cx.to_row(rep) for rep in reps]
    rows = []
    for combo in combos:
        row: Dict[int, Fraction] = {}
        for s, coeff in combo.items():
            for col, v in rep_rows[s].items():
                row[col] = row.get(col, 0) + coeff * v
        rows.append(row)
    restricted_rows = linalg.rref(rows)
    out = Classification(
        alg=c.alg,
        cocycle_dim=c.cocycle_dim,
        coboundary_dim=c.coboundary_dim,
        quotient_dim=len(restricted_rows),
        representatives=[cx.to_cochain(c.alg, r) for r in restricted_rows],
        degree_used=c.degree_used,
    )
    out.coordinates = _coordinate_names(c.alg, restricted_rows)
    return out
