"""Classification of polynomial cocycles modulo coboundaries, exactly.

The Jacobi/cocycle condition per basis triple is a linear constraint on the
polynomial coefficients of a two-cochain. Unknowns are ordered entry-first
(pairs (i, j) lexicographic) then by ascending power of t; this single global
ordering fixes pivots, echelon forms and therefore every canonical output.

All arithmetic in this module is exact; no floats anywhere.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from . import linalg
from .cochain import OneCochain, TwoCochain, coboundary
from .lie import LieAlgebra
from .ratpoly import RatPoly

__all__ = [
    "Classification",
    "EquivalenceResult",
    "DegreeCapError",
    "ColumnLimitError",
    "MilneStructureReport",
    "classify",
    "are_equivalent",
    "verify_milne_structure",
    "realizable_subspace",
]


class DegreeCapError(RuntimeError):
    """Auto-degree escalation hit the cap without the quotient stabilizing."""


class ColumnLimitError(ValueError):
    """A degree bound whose coefficient layout exceeds MAX_COLUMNS."""


def _require_valid(alg: LieAlgebra) -> None:
    bad = alg.validate()
    if bad:
        raise ValueError(bad[0].describe(alg))


# -- coefficient layout ------------------------------------------------

# Largest number of coefficient columns a layout may have. It admits auto
# mode's default cap (degree 16) on every built-in algebra up to milne:7
# (378 pairs x 17 powers = 6426 columns) and refuses an oversized explicit
# degree before any row is built.
MAX_COLUMNS = 10_000


def _columns(alg: LieAlgebra, degree: int) -> int:
    """Coefficient columns at `degree`; ColumnLimitError beyond MAX_COLUMNS."""
    if degree < 0:
        raise ValueError("degree bound must be >= 0")
    ncols = alg.dim * (alg.dim - 1) // 2 * (degree + 1)
    if ncols > MAX_COLUMNS:
        raise ColumnLimitError("degree %d needs %d coefficient columns on %s; the limit is %d"
                               % (degree, ncols, alg.name, MAX_COLUMNS))
    return ncols


class _Layout:
    """Column numbering for cochain coefficients at a fixed degree bound."""

    def __init__(self, alg: LieAlgebra, degree: int) -> None:
        ncols = _columns(alg, degree)
        cx = _complex(alg)
        self.alg = alg
        self.degree = degree
        self.pairs: List[Tuple[int, int]] = cx.pairs
        self.rank = cx.rank
        self.ncols = ncols

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


# -- the cochain complex as sparse integer operators ----------------------

class _Complex:
    """Degree-free templates of one algebra's cochain complex.

    Pair numbers are ranks in the lexicographic pair order, so the column
    of (pair, power) at degree bound D is pair * (D + 1) + power. Rows at
    any D expand from the templates in time linear in their size:

    * cocycle constraints, one row per basis triple and power of t: the
      cyclic sum of bracket entries, plus -bold(tau) = +d/dt on the pair
      opposite the time generator. Each triple's template is scaled to
      integers once, which changes neither the kernel nor the test
      row . xi = 0;
    * d1 of each unit one-cochain t^u e_k: -c_k^{ij} t^u on every pair,
      plus bold(tau) t^u = -u t^(u-1) on the pair of e_k with the time
      generator, signed by the time generator's slot.

    The templates hold no reference to the algebra, which holds them
    (`_complex`), so they are freed with it and never shared with another.
    """

    def __init__(self, alg: LieAlgebra) -> None:
        self.dim = alg.dim
        self.time_index = ti = alg.time_index
        self.pairs: List[Tuple[int, int]] = list(alg.pairs())
        self.rank = rank = {p: n for n, p in enumerate(self.pairs)}

        def signed(a: int, b: int, c) -> Tuple[int, Fraction]:
            return (rank[(a, b)], c) if a < b else (rank[(b, a)], -c)

        # per triple: ((pair, c), ...) of the bracket sum and (pair, c) of the
        # derivative term or None; triples_at lists the triples reading a pair
        self.triples: List[Tuple[Tuple[Tuple[int, int], ...], Optional[Tuple[int, int]]]] = []
        self.triples_at: Dict[int, List[int]] = {}
        for (i, j, k) in itertools.combinations(range(alg.dim), 3):
            bracket: Dict[int, Fraction] = {}
            deriv = None
            for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c in alg.bracket_basis(p, q):
                    if m != r:
                        pidx, s = signed(m, r, c)
                        bracket[pidx] = bracket.get(pidx, 0) + s
                if p == ti:
                    deriv = signed(q, r, 1)
            bracket = {pidx: c for pidx, c in bracket.items() if c}
            if not bracket and deriv is None:
                continue
            scale = 1
            for c in bracket.values():
                scale = scale * c.denominator // gcd(scale, c.denominator)
            entry = (tuple((pidx, int(c * scale)) for pidx, c in bracket.items()),
                     None if deriv is None else (deriv[0], deriv[1] * scale))
            for pidx in set(bracket) | ({deriv[0]} if deriv else set()):
                self.triples_at.setdefault(pidx, []).append(len(self.triples))
            self.triples.append(entry)

        # d1: per generator k, ((pair, -c_k^{ij}), ...), integral values as ints
        lowered: Dict[int, List[Tuple[int, object]]] = {}
        for n, (i, j) in enumerate(self.pairs):
            for k, c in alg.bracket_basis(i, j):
                lowered.setdefault(k, []).append((n, -c.numerator if c.denominator == 1 else -c))
        self.lowered = lowered
        # (pair, sign) of the time-grading term of each generator
        self.time_pair = {} if ti is None else \
            {k: signed(ti, k, -1) for k in range(alg.dim) if k != ti}

    def cocycle_rows(self, D: int) -> List[Dict[int, int]]:
        """Integer rows at degree bound D; xi is a cocycle iff each row . xi = 0."""
        width = D + 1
        rows: List[Dict[int, int]] = []
        for bracket, deriv in self.triples:
            for u in range(width):
                row = {pidx * width + u: c for pidx, c in bracket}
                if deriv is not None and u < D:
                    row[deriv[0] * width + u + 1] = deriv[1] * (u + 1)
                if row:
                    rows.append(row)
        return rows

    def units(self, D: int) -> List[Tuple[int, int]]:
        """(k, u) of each unit one-cochain t^u e_k at degree bound D; the
        time generator's component is constant, so its only unit is t^0."""
        return [(k, u) for k in range(self.dim)
                for u in range((0 if k == self.time_index else D) + 1)]

    def coboundary_rows(self, D: int) -> List[Dict[int, object]]:
        """d1 of each unit of `units(D)`, in that order, as rows at bound D."""
        width = D + 1
        rows: List[Dict[int, object]] = []
        for k, u in self.units(D):
            row = {pidx * width + u: c for pidx, c in self.lowered.get(k, ())}
            if u > 0 and k in self.time_pair:
                pidx, sign = self.time_pair[k]
                row[pidx * width + u - 1] = sign * u
            rows.append(row)
        return rows

    def is_cocycle(self, xi: TwoCochain) -> bool:
        """True iff every constraint row annihilates xi, whatever its degree."""
        coeffs = {self.rank[p]: poly.coeffs for p, poly in xi.nonzero_entries().items()}
        touched = set()
        for pidx in coeffs:
            touched.update(self.triples_at.get(pidx, ()))
        for t in touched:
            bracket, deriv = self.triples[t]
            residual: Dict[int, Fraction] = {}
            for pidx, c in bracket:
                for u, v in enumerate(coeffs.get(pidx, ())):
                    residual[u] = residual.get(u, 0) + c * v
            if deriv is not None:
                for u, v in enumerate(coeffs.get(deriv[0], ())):
                    if u:
                        residual[u - 1] = residual.get(u - 1, 0) + deriv[1] * u * v
            if any(residual.values()):
                return False
        return True


def _complex(alg: LieAlgebra) -> _Complex:
    """The algebra's complex templates, assembled once per instance."""
    return alg.memo("complex", lambda: _Complex(alg))


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
    cx = _complex(alg)
    z_vecs = linalg.nullspace(cx.cocycle_rows(D), layout.ncols)
    b_rows = linalg.rref(cx.coboundary_rows(D))
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
    first = (0 if alg.time_index is None else 1) if degree == "auto" else int(degree)
    _columns(alg, first)  # refuse a negative or oversized first solve before validating
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

    if degree != "auto" or alg.time_index is None:
        return finish(_solve_at_degree(alg, first), first)

    prev = _solve_at_degree(alg, 1)
    for D in range(2, cap + 1):
        cur = _solve_at_degree(alg, D)
        if len(cur.rep_rows) == len(prev.rep_rows):
            return finish(cur, D)
        prev = cur
    raise DegreeCapError(
        "quotient dimension of %s did not stabilize by degree %d" % (alg.name, cap))


# -- equivalence --------------------------------------------------------

# Witness components are mostly small polynomials that recur from query to
# query (in 126 seeded queries on galilean and milne:2, 1600 witness
# coefficients took 7 distinct values). RatPoly is immutable, so results
# share one object per recurring value, and a caller that keeps many
# results holds each value once.
_shared_poly = functools.lru_cache(maxsize=4096)(RatPoly)


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
    component degree. The witness is the solution whose free unit
    coefficients are zero, in the operators' unit order.
    """
    if x1.alg.labels != x2.alg.labels:
        raise ValueError("cochains live on different algebras")
    alg = x1.alg
    _require_valid(alg)
    cx = _complex(alg)
    for x in (x1, x2):
        if not cx.is_cocycle(x):
            raise ValueError("input is not a cocycle")
    delta = x2 - x1
    if delta.is_zero():
        return EquivalenceResult(True, OneCochain.zero(alg))
    lam_degree = max(delta.max_degree() + 1, 1)
    layout = _Layout(alg, lam_degree)
    units = cx.units(lam_degree)

    eq_rows: Dict[int, Dict[int, object]] = {}
    for ucol, img in enumerate(cx.coboundary_rows(lam_degree)):
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
    coeffs = [[Fraction(0)] * (lam_degree + 1) for _ in range(alg.dim)]
    for ucol, v in sol.items():
        k, u = units[ucol]
        coeffs[k][u] = v
    witness = OneCochain(alg, [_shared_poly(tuple(c)) for c in coeffs])
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
