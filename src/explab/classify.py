"""Classification of polynomial cocycles modulo coboundaries, exactly.

The Jacobi/cocycle condition per basis triple is a linear constraint on the
polynomial coefficients of a two-cochain. Unknowns are ordered entry-first
(pairs (i, j) lexicographic) then by ascending power of t; this single global
ordering fixes pivots, echelon forms and therefore every canonical output.

All arithmetic in this module is exact; no floats anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .cochain import OneCochain, TwoCochain, coboundary, is_cocycle
from .lie import LieAlgebra
from .ratpoly import RatPoly

__all__ = [
    "Classification",
    "EquivalenceResult",
    "DegreeCapError",
    "MilneStructureReport",
    "classify",
    "are_equivalent",
    "verify_milne_structure",
    "realizable_subspace",
]


class DegreeCapError(RuntimeError):
    """Auto-degree escalation hit the cap without the quotient stabilizing."""


def _require_valid(alg: LieAlgebra) -> None:
    bad = alg.validate()
    if bad:
        raise ValueError(bad[0].describe(alg))


# -- coefficient layout ------------------------------------------------

class _Layout:
    """Column numbering for cochain coefficients at a fixed degree bound."""

    def __init__(self, alg: LieAlgebra, degree: int) -> None:
        if degree < 0:
            raise ValueError("degree bound must be >= 0")
        self.alg = alg
        self.degree = degree
        self.pairs: List[Tuple[int, int]] = list(alg.pairs())
        self.rank = {p: n for n, p in enumerate(self.pairs)}
        self.ncols = len(self.pairs) * (degree + 1)

    def col(self, i: int, j: int, power: int) -> int:
        return self.rank[(i, j)] * (self.degree + 1) + power

    def to_row(self, xi: TwoCochain) -> Dict[int, Fraction]:
        row: Dict[int, Fraction] = {}
        for (i, j), p in xi.nonzero_entries().items():
            if p.degree > self.degree:
                raise ValueError("entry degree %d exceeds bound %d" % (p.degree, self.degree))
            base = self.rank[(i, j)] * (self.degree + 1)
            for u, c in enumerate(p.coeffs):
                if c:
                    row[base + u] = c
        return row

    def to_cochain(self, row: Dict[int, Fraction]) -> TwoCochain:
        width = self.degree + 1
        polys: Dict[int, List[Fraction]] = {}
        for col, v in row.items():
            polys.setdefault(col // width, [Fraction(0)] * width)[col % width] = v
        return TwoCochain(self.alg, {self.pairs[k]: RatPoly(cs) for k, cs in polys.items()})


# -- constraint assembly -----------------------------------------------

def _cocycle_rows(alg: LieAlgebra, layout: _Layout) -> List[Dict[int, Fraction]]:
    D = layout.degree
    ti = alg.time_index
    rows: List[Dict[int, Fraction]] = []
    for (i, j, k) in itertools.combinations(range(alg.dim), 3):
        per_power: List[Dict[int, Fraction]] = [{} for _ in range(D + 1)]

        def add(col: int, value: Fraction, power: int) -> None:
            tgt = per_power[power]
            nv = tgt.get(col, Fraction(0)) + value
            if nv:
                tgt[col] = nv
            else:
                tgt.pop(col, None)

        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in alg.bracket_basis(p, q):
                if m == r:
                    continue
                if m < r:
                    pidx, s = layout.rank[(m, r)], c
                else:
                    pidx, s = layout.rank[(r, m)], -c
                base = pidx * (D + 1)
                for u in range(D + 1):
                    add(base + u, s, u)
            if ti is not None and p == ti:
                # -bold(tau) = +d/dt on the (q, r) entry
                if q < r:
                    pidx, s = layout.rank[(q, r)], Fraction(1)
                else:
                    pidx, s = layout.rank[(r, q)], Fraction(-1)
                base = pidx * (D + 1)
                for u in range(D):
                    add(base + u + 1, s * (u + 1), u)
        rows.extend(pp for pp in per_power if pp)
    return rows


def _lambda_units(alg: LieAlgebra, D: int):
    for k in range(alg.dim):
        top = 0 if k == alg.time_index else D
        for u in range(top + 1):
            comps = [RatPoly.zero()] * alg.dim
            comps[k] = RatPoly.monomial(u)
            yield OneCochain(alg, comps)


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
    layout: _Layout
    cocycle_rows: List[Dict[int, Fraction]]
    coboundary_rows: List[Dict[int, Fraction]]
    rep_rows: List[Dict[int, Fraction]]


def _solve_at_degree(alg: LieAlgebra, D: int) -> _DegreeSolve:
    """Cocycle basis, coboundary echelon basis and quotient representatives
    at entry-degree bound D, all as rows in the layout's column numbering."""
    layout = _Layout(alg, D)
    z_vecs = linalg.nullspace(_cocycle_rows(alg, layout), layout.ncols)
    b_rows = linalg.rref([layout.to_row(coboundary(lam)) for lam in _lambda_units(alg, D)])
    reduced = [linalg.reduce_mod_rows(v, b_rows) for v in z_vecs]
    rep_rows = linalg.rref([r for r in reduced if r])
    if len(rep_rows) != len(z_vecs) - len(b_rows):
        raise AssertionError("coboundary basis escapes the cocycle space")
    return _DegreeSolve(layout, z_vecs, b_rows, rep_rows)


def _kind(alg: LieAlgebra, i: int) -> Optional[str]:
    role = alg.roles[i]
    return None if role is None else role.kind


def _coordinate_names(alg: LieAlgebra, solve: _DegreeSolve) -> List[str]:
    """Name each representative after the generator pair of its pivot:
    gamma_(l,n) on acceleration levels, gamma on a translation and the
    boost along the same axis, c(a,b)*t^p for any other pair."""
    names = []
    width = solve.layout.degree + 1
    for row in solve.rep_rows:
        lead = min(row)
        i, j = solve.layout.pairs[lead // width]
        power = lead % width
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


def classify(alg: LieAlgebra, degree="auto", cap: int = 16) -> Classification:
    """Cocycle space, coboundary space, quotient and canonical representatives.

    With degree="auto" the entry-degree bound escalates from 1 until the
    quotient dimension agrees at two consecutive bounds; degree_used records
    the confirming bound. Algebras without a time generator are classified at
    degree 0: nothing in the constraint system couples powers of t there, so
    every higher degree replicates the same classification and escalation
    would never terminate.
    """
    _require_valid(alg)

    def finish(solve: _DegreeSolve, used: int) -> Classification:
        reps = [solve.layout.to_cochain(r) for r in solve.rep_rows]
        cls = Classification(
            alg=alg,
            cocycle_dim=len(solve.cocycle_rows),
            coboundary_dim=len(solve.coboundary_rows),
            quotient_dim=len(solve.rep_rows),
            representatives=reps,
            degree_used=used,
        )
        cls.coordinates = _coordinate_names(alg, solve)
        return cls

    if degree != "auto":
        D = int(degree)
        if D < 0:
            raise ValueError("degree must be >= 0")
        return finish(_solve_at_degree(alg, D), D)

    if alg.time_index is None:
        return finish(_solve_at_degree(alg, 0), 0)

    prev = _solve_at_degree(alg, 1)
    for D in range(2, cap + 1):
        cur = _solve_at_degree(alg, D)
        if len(cur.rep_rows) == len(prev.rep_rows):
            return finish(cur, D)
        prev = cur
    raise DegreeCapError(
        "quotient dimension of %s did not stabilize by degree %d" % (alg.name, cap))


# -- equivalence --------------------------------------------------------

@dataclass
class EquivalenceResult:
    equivalent: bool
    witness: Optional[OneCochain] = None

    def __bool__(self) -> bool:
        return self.equivalent


def are_equivalent(x1: TwoCochain, x2: TwoCochain) -> EquivalenceResult:
    """Decide whether x2 - x1 is a coboundary; return a witness when it is.

    The witness search runs over one-cochains of component degree
    deg(x2 - x1) + 1; a coboundary of that entry degree cannot need more,
    since both the bracket pairing and the time derivative lower or preserve
    component degree.
    """
    if x1.alg.labels != x2.alg.labels:
        raise ValueError("cochains live on different algebras")
    alg = x1.alg
    _require_valid(alg)
    for x in (x1, x2):
        if not is_cocycle(x):
            raise ValueError("input is not a cocycle")
    delta = x2 - x1
    if delta.is_zero():
        return EquivalenceResult(True, OneCochain.zero(alg))
    lam_degree = max(delta.max_degree() + 1, 1)
    units = list(_lambda_units(alg, lam_degree))
    layout = _Layout(alg, max(lam_degree, delta.max_degree()))

    eq_rows: Dict[int, Dict[int, Fraction]] = {}
    for ucol, lam in enumerate(units):
        img = layout.to_row(coboundary(lam))
        for ecol, v in img.items():
            eq_rows.setdefault(ecol, {})[ucol] = v
    ncols = len(units)
    rhs = layout.to_row(delta)
    rows = []
    for ecol in set(eq_rows) | set(rhs):
        row = dict(eq_rows.get(ecol, {}))
        b = rhs.get(ecol)
        if b:
            row[ncols] = b
        rows.append(row)
    sol = linalg.solve_augmented(rows, ncols)
    if sol is None:
        return EquivalenceResult(False, None)
    comps = [RatPoly.zero()] * alg.dim
    for ucol, coeff in sol.items():
        lam = units[ucol]
        for k, p in enumerate(lam.components):
            if not p.is_zero():
                comps[k] = comps[k] + p * coeff
    witness = OneCochain(alg, comps)
    if coboundary(witness) != delta:
        raise AssertionError("witness verification failed")
    return EquivalenceResult(True, witness)


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
    combos = linalg.nullspace(constraints, len(reps))
    degree = max((r.max_degree() for r in reps), default=0)
    layout = _Layout(c.alg, max(degree, 0))
    rows = []
    for combo in combos:
        acc = TwoCochain.zero(c.alg)
        for s, coeff in combo.items():
            acc = acc + coeff * reps[s]
        rows.append(layout.to_row(acc))
    rep_rows = linalg.rref(rows)
    restricted = [layout.to_cochain(r) for r in rep_rows]
    out = Classification(
        alg=c.alg,
        cocycle_dim=c.cocycle_dim,
        coboundary_dim=c.coboundary_dim,
        quotient_dim=len(restricted),
        representatives=restricted,
        degree_used=c.degree_used,
    )
    solve = _DegreeSolve(layout, [], [], rep_rows)
    out.coordinates = _coordinate_names(c.alg, solve)
    return out
