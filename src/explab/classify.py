"""Classification of polynomial cocycles modulo coboundaries, exactly.

The cocycle condition per basis triple is a linear constraint on the
polynomial coefficients of a two-cochain. The rows of the constraints and of
d1 expand from the algebra's complex templates (`explab.cochain`), whose
one column numbering, entry-first (pairs (i, j) lexicographic) then by
ascending power of t, fixes pivots, echelon forms and therefore every
canonical output.

An explicit degree bound D computes H^2(g; V_D), where V_D holds the
polynomials in t of degree <= D, the time generator tau acts as -d/dt and
every other generator as zero: cocycles with entries in V_D modulo the
coboundaries of one-cochains with components in V_D. Auto mode computes
H^2(g; R[t]) instead, certified by Hochschild-Serre (Ann. Math. 57 (1953)
591-603), and solves once, at a bound the certificate gives.

The certificate. No bracket has a tau component (refused before any
solve), so the other generators span an ideal h and g = h x| R tau. A
two-cochain xi is a pair: its entries xi_h on pairs of h, and
eta(x) = xi(tau, x). A one-cochain lambda enters d lambda only through its
restriction lambda_h to h, and

    d lambda = (d_h lambda_h, Delta lambda_h),   Delta = -d/dt + L,

where d_h is the differential of h with trivial coefficients and L the
action of ad tau on cochains of h, which commutes with d_h. xi is a cocycle
iff d_h xi_h = 0 and Delta xi_h = d_h eta.

Lemma. On W[t], for a finite-dimensional W with an endomorphism L, Delta
is onto, and f of degree <= D has a preimage of degree <= D + k, where k is
the nilpotency index of L on its generalized kernel (0 when that is zero).
Fitting splits W = W_0 + W_1, both L-invariant, with L nilpotent on W_0 and
invertible on W_1. On W_1, g = sum_j L^-(j+1) f^(j) is a finite sum of
degree <= deg f; on W_0, g = -sum_(j<k) (I L)^j I f, with I the integral
from 0, has degree <= deg f + k; each solves Delta g = f.

Part 1: H^2(g; R[t]) is isomorphic to the kernel of Delta on
H^2(h) (x) R[t]. The map
xi -> [xi_h] sends cocycles into that kernel (Delta xi_h is exact) and
onto it (for a representative xi_h of a class in the kernel, Delta xi_h =
d_h eta solves for eta), and coboundaries to zero. A cocycle in its kernel
is, less d lambda for some lambda_h, a cocycle (0, eta) with d_h eta = 0:
eta lies in H^1(h) (x) R[t], where H^1(h) = Z^1(h) = ann [h, h] is
L-invariant, so by the Lemma eta = Delta alpha there, and (0, eta) = d alpha.
This is Hochschild-Serre's H^2(g; R[t]) = H^0(R tau; H^2(h) (x) R[t]):
its H^1 term vanishes because Delta maps W[t] onto itself. The kernel is
omega(t) = exp(t L) omega_0, a polynomial iff omega_0 lies in the
generalized kernel of L on H^2(h). So the dimension is q*, that kernel's
dimension, and every class has a representative whose h-entries, cocycles
representing omega(t), have degree <= N - 1, N the nilpotency index of L
there; its tau-pair entries, eta = d_h^-1 Delta xi_h on a complement of
ker d_h, have no higher degree.

Part 2: a coboundary d lambda whose entries have degree <= D is d lambda'
for a lambda' of degree <= D + k1, k1 the nilpotency index of L on the
generalized kernel in H^1(h) = ann [h, h]. Split lambda_h = alpha + beta,
alpha along ann [h, h] and beta along a complement, on which d_h is
injective and keeps degrees: d_h beta = d_h lambda_h has degree <= D, so
beta does, and Delta alpha = (Delta lambda_h) - Delta beta has degree <= D.
The Lemma on W = ann [h, h] gives alpha' of degree <= D + k1 with
Delta alpha' = Delta alpha, and lambda' = alpha' + beta.

So at every bound D >= N - 1, the cocycles with entries in V_D modulo the
coboundaries of witnesses of degree D + k1 that land in V_D are H^2(g; R[t]):
the map into it is one-to-one by Part 2 and onto by Part 1. Auto mode reads
q* and N from g's own templates (`_certificate`), solves at D = max(2, N),
asserts that the quotient dimension is q*, and reports D as degree_used.
k1 is 0 on every built-in algebra, where this is the explicit solve at D.

All arithmetic in this module is exact; no floats anywhere.
"""

from __future__ import annotations

import itertools
import numbers
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from . import linalg
from .cochain import (MAX_COLUMNS, OneCochain, TwoCochain, _coefficient_lists, _complex,
                      column, is_cocycle, pair_power)
from .lie import LieAlgebra, family_dim
from .ratpoly import RatPoly

__all__ = [
    "Classification",
    "EquivalenceResult",
    "ColumnLimitError",
    "check_columns",
    "check_family_columns",
    "classify",
    "are_equivalent",
    "verify_milne_structure",
    "realizable_subspace",
]


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
    """Degree bound that classify checks before it validates: an explicit
    degree, 0 without a time generator, and 1 in auto mode with one, below
    the certified bound (at least 2) that it checks once it has it.
    ValueError for a degree that is neither "auto" nor an integer (a bool
    is not one)."""
    if isinstance(degree, str) and degree == "auto":
        return 1 if timed else 0
    if not isinstance(degree, numbers.Integral) or isinstance(degree, bool):
        raise ValueError('degree must be "auto" or an integer, not %r' % (degree,))
    return int(degree)


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


# -- the certificate ------------------------------------------------------

def _generalized_kernel(rows: Iterable[Dict[int, object]], table: Dict[int, list],
                        modulo: Dict[int, Dict[int, int]]) -> Tuple[int, int]:
    """(dimension, nilpotency index) of the generalized kernel of a linear
    map on the span of `rows` modulo the integer echelon `modulo`, which it
    only reads. The map is its column table {c: [(row, value), ...]}: ad tau
    on h from `_k1`, L as `_certificate` reads it off the templates. The rank
    of the k-th power is that of the k-th image, which falls strictly until
    the generalized kernel is used up."""
    def image(vectors):
        return list(linalg.echelon_int(linalg.reduce_mod_rows(v, modulo)
                                       for v in vectors).values())

    def apply(v):
        out: Dict[int, object] = {}
        for c, w in v.items():
            for r, x in table.get(c, ()):
                out[r] = out.get(r, 0) + x * w
        return out

    space = image(rows)
    dim, index = len(space), 0
    while space:
        nxt = image(apply(v) for v in space)
        if len(nxt) == len(space):
            break
        space, index = nxt, index + 1
    return dim - len(space), index


def _k1(alg: LieAlgebra) -> int:
    """Nilpotency index of L on its generalized kernel in H^1(h) =
    ann [h, h], that of ad tau on h / [h, h], whose dual it is; kept with
    the algebra, and 0 without a time generator."""
    def build() -> int:
        ti = alg.time_index
        if ti is None:
            return 0
        h = [k for k in range(alg.dim) if k != ti]
        derived = linalg.echelon_int(linalg.scale_to_int(dict(alg.bracket_basis(i, j)))
                                     for i, j in alg.pairs() if ti not in (i, j))
        ad = {a: alg.bracket_basis(ti, a) for a in h}  # column a: [tau, e_a]
        return _generalized_kernel(({a: 1} for a in h), ad, derived)[1]
    return alg.memo("k1", build)


def _h_echelon(alg: LieAlgebra) -> Dict[int, Dict[int, int]]:
    """The integer echelon of the cocycle rows of h's triples at power 0 of
    t, in `column` numbering, eliminated once per algebra and kept with it.
    Its readers copy what they change."""
    return alg.memo("h echelon",
                    lambda: linalg.echelon_int(_complex(alg).triple_rows(timed=False)))


def _certificate(alg: LieAlgebra) -> Tuple[int, int]:
    """(q*, N): the dimension and nilpotency index of the generalized kernel
    of L on H^2(h), from the power-0 rows of g's templates. Z^2(h) is the
    kernel of the cocycle rows of the triples of h (`_h_echelon`, whose
    column(p, 0) is pair p: the order is the same), B^2(h) the span of the
    d1 images of h's units restricted to pairs of h; columns are pair
    numbers. L is read off the templates: the one of tau and a pair p of h
    is (Delta xi_h - d_h eta)(p), Delta = -d/dt + L, times minus its
    derivative coefficient, so its terms on pairs of h over minus that
    coefficient are row p of L."""
    cx = _complex(alg)
    ti = alg.time_index
    h_pairs = [p for p, pair in enumerate(cx.pairs) if ti not in pair]
    in_h = set(h_pairs)
    h = {lead: dict(row) for lead, row in _h_echelon(alg).items()}
    z2 = [{pair_power(c)[0]: v for c, v in vec.items()}
          for vec in linalg.echelon_nullspace(h, [column(p, 0) for p in h_pairs])]
    b2 = linalg.echelon_int(linalg.scale_to_int({p: v for p, v in cx.lowered.get(k, ())
                                                 if p in in_h})
                            for k in range(alg.dim) if k != ti)
    L: Dict[int, List[Tuple[int, Fraction]]] = {}  # column: [(row, value), ...]
    for bracket, deriv, _, _ in cx.triples.values():
        if deriv is not None:
            for p, c in bracket:
                if p in in_h:
                    L.setdefault(p, []).append((deriv[0], Fraction(-c, deriv[1])))
    return _generalized_kernel(z2, L, b2)


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


def _coboundary_echelon(alg: LieAlgebra, witness: int, D: int) -> Dict[int, Dict[int, int]]:
    """Integer echelon of the coboundaries of witnesses of degree `witness`
    that land in V_D, built for one solve and not kept. The d1 images of
    the units are eliminated in unit order, untagged, with every column of
    a power above D moved below 0, so such a column leads every row that
    holds one; the rows that lead at a column >= 0 hold none, and span the
    images with no entry above D."""
    cx = _complex(alg)
    shift = len(cx.pairs) * MAX_COLUMNS
    pivots = linalg.echelon_int(linalg.scale_to_int({c - shift if pair_power(c)[1] > D else c: v
                                                     for c, v in row.items()})
                                for row in cx.coboundary_rows(witness))
    return {lead: row for lead, row in pivots.items() if lead >= 0}


def _solve(alg: LieAlgebra, D: int, witness: int) -> _DegreeSolve:
    """The canonical solve at entry-degree bound D, modulo the coboundaries
    of witnesses of degree `witness` that land in V_D. h's echelon at power
    0, moved u columns, spans h's rows at power u, so D + 1 such copies
    start the constraint echelon; the rows of the triples holding tau enter
    it power by power. The cocycle basis is read from it by back-reduction
    (`echelon_nullspace`), and reduced row echelon form is canonical for a
    row space, so it is the basis that the whole constraint list would give.
    Each cocycle reduces against the coboundary echelon
    (`_coboundary_echelon`) as against its RREF. dim((Z + B)/B) =
    dim Z - dim(Z & B), so the rank check below holds iff those
    coboundaries B lie in the cocycles Z."""
    cx = _complex(alg)
    h = _h_echelon(alg)
    constraints = linalg.echelon_int(itertools.chain.from_iterable(
        cx.triple_rows(True, u, full=u < D) for u in range(D + 1)),
        {lead + u: {c + u: v for c, v in row.items()} for u in range(D + 1)
         for lead, row in h.items()})
    z_vecs = linalg.echelon_nullspace(constraints, cx.columns(D))  # empties it
    coboundary = _coboundary_echelon(alg, witness, D)
    reduced = [linalg.reduce_mod_rows(v, coboundary) for v in z_vecs]
    rep_rows = linalg.rref([r for r in reduced if r])
    if len(rep_rows) != len(z_vecs) - len(coboundary):
        raise AssertionError("coboundary basis escapes the cocycle space")
    return _DegreeSolve(D, z_vecs, len(coboundary), rep_rows)


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


def classify(alg: LieAlgebra, degree="auto") -> Classification:
    """Cocycle space, coboundary space, quotient and canonical representatives.

    An explicit degree D classifies H^2(g; V_D), with witnesses of degree
    D. With degree="auto" an algebra with a time generator is classified
    as H^2(g; R[t]) by one solve at the certified bound (module docstring):
    degree_used is max(2, N), the smallest bound >= 2 above every class's
    lift degree N - 1, and the coboundaries are those of witnesses of
    degree degree_used + k1 that land in V_degree_used. The quotient
    dimension is checked against the certificate's q*. Algebras without a
    time generator are classified at degree 0: nothing in the constraint
    system couples powers of t there, so every higher degree replicates the
    same classification.
    """
    first = _first_degree(alg.time_index is not None, degree)
    _columns(alg, first)  # refuse a negative or oversized first solve before validating
    alg._require_valid()
    if degree != "auto" or alg.time_index is None:
        return _classification(alg, _solve(alg, first, first))
    _columns(alg, 2 + _k1(alg))  # D >= 2: refuse before the certificate builds the complex
    q, N = _certificate(alg)
    D = max(2, N)
    witness = D + _k1(alg)
    _columns(alg, witness)
    result = _classification(alg, _solve(alg, D, witness))
    if result.quotient_dim != q:
        raise AssertionError("quotient dimension %d of %s at degree %d is not the certified %d"
                             % (result.quotient_dim, alg.name, D, q))
    return result


# -- equivalence --------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceResult:
    __slots__ = ("equivalent", "witness", "__weakref__")
    equivalent: bool
    witness: Optional[OneCochain]

    def __bool__(self) -> bool:
        return self.equivalent


_INEQUIVALENT = EquivalenceResult(False, None)


def are_equivalent(x1: TwoCochain, x2: TwoCochain) -> EquivalenceResult:
    """Decide whether x2 - x1 is a coboundary; return a witness when it is.

    The witness search runs over one-cochains of component degree
    deg(x2 - x1) + max(1, k1). By Part 2 of the module docstring, a
    coboundary whose entries have degree <= d is the coboundary of a
    one-cochain of degree <= d + k1, where k1 is the nilpotency index of
    ad tau on its generalized kernel in ann [h, h] (0 without a time
    generator, where d_h alone is injective on a complement of its kernel).
    The top degrees of lambda cancel in d lambda only along that kernel:
    where ad tau is one Jordan block of size 2 on an abelian ideal
    (x0, x1), k1 = 2, and a constant on (tau, x0) needs a witness of
    degree 2. Where k1 <= 1 the search runs at deg + 1.
    The search solves over the d1 images of the unit one-cochains: a unit
    whose image reduces to zero against the images of earlier units gets
    coefficient zero, so the witness is unique in the operators' unit order.

    The images are eliminated, each tagged (`linalg.augment`), once per
    algebra instance and witness degree by the first query at that degree,
    and kept with the algebra under ("d1", degree) (`LieAlgebra.memo`);
    each query reduces only its own target. Both inputs are cocycle-checked
    on their integer coefficients before any solve. Both degrees of cochain
    hold integers over one denominator, so the target is diff = x2 - x1 as
    an integer row, diff times its denominator; the weights over that
    denominator are the witness's coefficients, and the d1 images of its
    units, summed on them (`_Complex.d1_image`), must equal the target row,
    cross-multiplied by the two denominators, the zero witness when
    x2 == x1. An input of degree MAX_COLUMNS or more is refused before any
    row is numbered, since its top power would wrap into the next pair's
    columns. Results are immutable and shared: every negative verdict is
    one object, and a positive result with a witness equal to one a caller
    still holds, on the same algebra instance, is that object. The algebra
    holds those results weakly, in one table: a witness fixes x2 - x1, and
    so the degree it was searched at.
    """
    diff = x2 - x1  # refuses cochains on different algebras
    alg = x1.alg
    alg._require_valid()
    for x in (x1, x2):
        if not is_cocycle(x):
            raise ValueError("input is not a cocycle")
    top = max(x1.max_degree(), x2.max_degree())
    if top >= MAX_COLUMNS:  # column(pair, power) would wrap into the next pair
        _columns(alg, top)
    lam_degree = diff.max_degree() + max(1, _k1(alg))
    _columns(alg, lam_degree)
    cx = _complex(alg)
    echelon = alg.memo(("d1", lam_degree),
                       lambda: linalg.augment(cx.coboundary_rows(lam_degree)))
    target = cx.to_row(diff)
    weights = linalg.solve_augmented(echelon, target)
    if weights is None:
        return _INEQUIVALENT
    units = cx.units(lam_degree)
    witness = OneCochain._of(alg, _coefficient_lists((units[ucol], v)
                                                     for ucol, v in weights.items()), diff._den)
    if ({col: v * diff._den for col, v in cx.d1_image(witness).items() if v}
            != {col: v * witness._den for col, v in target.items()}):
        raise AssertionError("witness verification failed")
    # weak: a result keeps its witness's algebra, and so this table, alive
    results = alg.memo("results", weakref.WeakValueDictionary)
    return results.setdefault(witness, EquivalenceResult(True, witness))


# -- acceleration-algebra structure reports ------------------------------

def _acceleration_index(alg: LieAlgebra, m: int) -> Dict[Tuple[int, int], int]:
    """(level n, axis i) -> index of d_i^(n); a ValueError unless m is the
    largest acceleration level of alg."""
    acc = {(r.level, r.axes[0]): k for k, r in enumerate(alg.roles)
           if r is not None and r.kind == "acceleration"}
    if max((level for level, _ in acc), default=None) != m:
        raise ValueError("m = %d is not the largest acceleration level of %s" % (m, alg.name))
    return acc


def verify_milne_structure(c: Classification, m: int) -> Dict[str, List[str]]:
    """Check the canonical representatives against the scalar-family structure.

    Every representative must be supported on acceleration pairs, isotropic
    (entry (d_i^(l), d_k^(n)) = P^(l,n) delta_ik), with P antisymmetric in
    (l, n), P^(0,0) = 0, degree(P^(l,n)) <= l+n-1, and the derivative ladder
    dP^(l,n)/dt = P^(l-1,n) + P^(l,n-1). Returns {check name: failure
    details} for the six checks in that order, an empty list for a check
    that holds. m must be the largest acceleration level of c.alg; any
    other is a ValueError.

    `antisymmetry` and `p00_zero` hold by construction: `TwoCochain.entry`
    returns -entry(i, j) for (j, i) and zero on the diagonal, so P^(l,n) =
    -P^(n,l) and P^(0,0) = 0 for any cochain. They stay only so that
    `verify --suite milne:<m>` keeps its report bytes (the
    `VERIFY_GOLDEN["milne:2"]` digest of `tests/test_cli.py`).
    """
    failures = {name: [] for name in ("isotropy", "p00_zero", "antisymmetry",
                                      "recurrence", "degree_bound", "support")}
    alg = c.alg
    acc = _acceleration_index(alg, m)
    levels, axes, zero = range(m + 1), (1, 2, 3), RatPoly.zero()
    for s, rep in enumerate(c.representatives):
        tag = "rep[%d]" % s
        P = [[rep.entry(acc[l, 1], acc[n, 1]) for n in levels] for l in levels]
        for l, n in itertools.product(levels, levels):
            failures["isotropy"] += [
                "%s (l=%d,n=%d,i=%d,k=%d)" % (tag, l, n, i, k)
                for i, k in itertools.product(axes, axes)
                if rep.entry(acc[l, i], acc[n, k]) != (P[l][n] if i == k else zero)]
            at = "%s (l=%d,n=%d)" % (tag, l, n)
            if P[l][n] != -P[n][l]:
                failures["antisymmetry"].append(at)
            if P[l][n].degree > max(l + n - 1, -1):
                failures["degree_bound"].append(at)
            ladder = (P[l - 1][n] if l else zero) + (P[l][n - 1] if n else zero)
            if P[l][n].differentiate() != ladder:
                failures["recurrence"].append(at)
        if not P[0][0].is_zero():
            failures["p00_zero"].append(tag)
        failures["support"] += ["%s entry (%s,%s)" % (tag, alg.labels[i], alg.labels[j])
                                for i, j in rep.nonzero_entries()
                                if (_kind(alg, i), _kind(alg, j)) != ("acceleration",) * 2]
    return failures


def realizable_subspace(c: Classification, m: int) -> Classification:
    """Restrict the quotient to classes with P^(l,q)(0) = 0 for all l, q >= 1;
    m must be the largest acceleration level of c.alg, else a ValueError."""
    acc = _acceleration_index(c.alg, m)
    reps = c.representatives
    if not reps:
        return c
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
    combined = [sum((coeff * reps[s] for s, coeff in combo.items()), TwoCochain.zero(c.alg))
                for combo in combos]
    # the RREF of a combination's integer row, whatever its scale
    restricted_rows = linalg.rref(cx.to_row(x) for x in combined)
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
