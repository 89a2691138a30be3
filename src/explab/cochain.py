"""One- and two-cochains with polynomial time dependence, and their complex.

A two-cochain assigns to every basis pair (a_i, a_j), i < j, a polynomial
Xi(a_i, a_j, t); the lower triangle is the negative by convention. A
one-cochain Lam assigns a polynomial to every generator.

Time grading. Generators act on the scalar time dependence of a cochain
through the pullback of their flow on the time axis. Only the designated
time generator moves time (t -> t + sigma under its flow), so its action is
(bold(tau) f)(t) = -df/dt, and every other generator acts as zero. Paired
with the ladder normalization [d, tau] = +d' of the built-in algebras, this
orientation is what produces the downstream integration recurrences with
plus signs; flipping either the grading sign or the ladder sign alone would
flip them. The sign is written once, in the templates of `_Complex`.

Admissibility of one-cochains. Lam must pair constantly with each generator
along that generator's own flow. Flows of generators other than the time
generator keep t fixed, so their components are unconstrained polynomials;
the time generator's flow translates t, so its component must be constant.
Algebras without a time generator carry no constraint at all.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .lie import LieAlgebra
from .ratpoly import RatPoly, as_fraction

__all__ = ["TwoCochain", "OneCochain", "coboundary", "jacobi_residual", "is_cocycle"]


def _as_poly(value) -> RatPoly:
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly((value,))
    raise TypeError("RatPoly or exact rational expected, got %r" % (value,))


def _lowest_terms(rows: Dict[object, Sequence], den: int) -> Tuple[Dict[object, tuple], int]:
    """rows[key] / den in canonical form, for int or Fraction values and a
    positive int den: integer tuples with no trailing zero and no zero key,
    over the positive denominator that puts them in lowest terms (1 for zero)."""
    # a set: the distinct denominators are few, so lcm gets a short argument list
    scale = lcm(*{v.denominator for cs in rows.values() for v in cs})
    den *= scale
    out: Dict[object, list] = {}
    for key, cs in rows.items():
        top = len(cs)
        while top and not cs[top - 1]:
            top -= 1
        if top:
            out[key] = [v.numerator * (scale // v.denominator) for v in cs[:top]]
    g = gcd(den, *itertools.chain.from_iterable(out.values()))
    return {key: tuple(v // g for v in cs) for key, cs in out.items()}, den // g


def _coefficient_lists(terms: Iterable[Tuple[Tuple[object, int], object]]) -> Dict[object, list]:
    """{key: coefficients} with each ((key, power), value) term at its power."""
    out: Dict[object, list] = {}
    for (key, power), v in terms:
        cs = out.setdefault(key, [])
        cs.extend([0] * (power + 1 - len(cs)))
        cs[power] = v
    return out


class _Cochain:
    """The one form of one- and two-cochains (`_lowest_terms`): per key, a
    generator or a pair i < j, the integer coefficients of its polynomial in
    ascending powers of t over one positive denominator `_den`. Immutable;
    equal cochains compare and hash equal. Cochains on algebras that are
    neither one instance nor equal in `to_dict()` are refused."""

    __slots__ = ("alg", "_rows", "_den")

    def _init(self, alg: LieAlgebra, rows: Dict[object, Sequence], den: int) -> None:
        rows, den = _lowest_terms(rows, den)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def _of(cls, alg: LieAlgebra, rows: Dict[object, Sequence], den: int = 1):
        """The cochain on `alg` with coefficients rows[key] / den."""
        out = cls.__new__(cls)
        out._init(alg, rows, den)
        return out

    @classmethod
    def zero(cls, alg: LieAlgebra):
        return cls._of(alg, {})

    def _poly(self, key, den: int) -> RatPoly:
        return RatPoly([Fraction(v, den) for v in self._rows.get(key, ())])

    def _same_algebra(self, other: "_Cochain") -> None:
        if self.alg is not other.alg and self.alg.to_dict() != other.alg.to_dict():
            raise ValueError("cochains live on different algebras")

    def is_zero(self) -> bool:
        return not self._rows

    def max_degree(self) -> int:
        return max(map(len, self._rows.values()), default=0) - 1

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        self._same_algebra(other)
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((self.alg.labels, self._den, tuple(sorted(self._rows.items()))))


def _check_indices(alg: LieAlgebra, *indices: int) -> None:
    """ValueError unless every index numbers a generator of `alg`."""
    if not all(0 <= i < alg.dim for i in indices):
        raise ValueError("entry index out of range: %r" % (indices,))


class TwoCochain(_Cochain):
    """Antisymmetric polynomial-valued bilinear form on an algebra's basis,
    keyed by pairs i < j; entries are RatPoly views built on demand."""

    __slots__ = ()

    def __init__(self, alg: LieAlgebra,
                 entries: Optional[Dict[Tuple[int, int], RatPoly]] = None) -> None:
        table: Dict[Tuple[int, int], tuple] = {}
        for (i, j), p in (entries or {}).items():
            _check_indices(alg, i, j)
            if i >= j:
                raise ValueError("entries are stored strictly upper-triangular")
            table[(i, j)] = _as_poly(p).coeffs
        self._init(alg, table, 1)

    @classmethod
    def from_labels(cls, alg: LieAlgebra, entries: Dict[Tuple[str, str], object]) -> "TwoCochain":
        table: Dict[Tuple[int, int], RatPoly] = {}
        for (l1, l2), p in entries.items():
            i, j = alg.index(l1), alg.index(l2)
            p = _as_poly(p)
            if i == j:
                raise ValueError("diagonal entry (%s, %s)" % (l1, l2))
            if i > j:
                i, j, p = j, i, -p
            table[(i, j)] = table.get((i, j), RatPoly.zero()) + p
        return cls(alg, table)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> RatPoly:
        _check_indices(self.alg, i, j)
        return self._poly((i, j), self._den) if i < j else self._poly((j, i), -self._den)

    def entry_by_labels(self, l1: str, l2: str) -> RatPoly:
        return self.entry(self.alg.index(l1), self.alg.index(l2))

    def nonzero_entries(self) -> Dict[Tuple[int, int], RatPoly]:
        return {pair: self.entry(*pair) for pair in self._rows}

    # -- linear structure ------------------------------------------------

    def _merge(self, other: "TwoCochain", sign: int) -> "TwoCochain":
        """self + sign * other over the lcm of the denominators."""
        self._same_algebra(other)
        g = gcd(self._den, other._den)
        mine, theirs = other._den // g, self._den // g * sign  # the cofactors of the lcm
        rows = {pair: [v * mine for v in cs] for pair, cs in self._rows.items()}
        for pair, cs in other._rows.items():
            acc = rows.setdefault(pair, [])
            acc.extend([0] * (len(cs) - len(acc)))
            for u, v in enumerate(cs):
                acc[u] += v * theirs
        return TwoCochain._of(self.alg, rows, mine * self._den)

    def __add__(self, other: "TwoCochain") -> "TwoCochain":
        if not isinstance(other, TwoCochain):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other: "TwoCochain") -> "TwoCochain":
        if not isinstance(other, TwoCochain):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> "TwoCochain":
        return self * -1

    def __mul__(self, scalar) -> "TwoCochain":
        c = as_fraction(scalar)
        return TwoCochain._of(self.alg, {pair: [v * c.numerator for v in cs]
                                         for pair, cs in self._rows.items()},
                              self._den * c.denominator)

    __rmul__ = __mul__

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> List[dict]:
        """Entries in pair order; each coefficient prints as RatPoly's would."""
        return [{"i": self.alg.labels[i], "j": self.alg.labels[j],
                 "poly": [str(Fraction(v, self._den)) for v in self._rows[i, j]]}
                for (i, j) in sorted(self._rows)]

    @classmethod
    def from_jsonable(cls, alg: LieAlgebra, data: Iterable[dict]) -> "TwoCochain":
        entries = {}
        for item in data:
            i, j = alg.index(item["i"]), alg.index(item["j"])
            if i >= j:
                raise ValueError("entries must be upper-triangular, got (%s, %s)"
                                 % (item["i"], item["j"]))
            if (i, j) in entries:
                raise ValueError("pair (%s, %s) listed twice" % (item["i"], item["j"]))
            entries[(i, j)] = RatPoly.from_strings(item["poly"])
        return cls(alg, entries)

    def __repr__(self) -> str:
        return "TwoCochain(%s, %d nonzero entries)" % (self.alg.name, len(self._rows))


class OneCochain(_Cochain):
    """Polynomial covector on the algebra basis, admissible for coboundaries,
    in the one form keyed by generator; `components` are RatPoly views."""

    __slots__ = ()

    def __init__(self, alg: LieAlgebra, components: Sequence) -> None:
        comps = tuple(_as_poly(p) for p in components)
        if len(comps) != alg.dim:
            raise ValueError("component count does not match algebra dimension")
        ti = alg.time_index
        if ti is not None and not comps[ti].is_constant():
            raise ValueError(
                "the time-generator component must be constant in t, got %s"
                % (comps[ti],))
        self._init(alg, {k: p.coeffs for k, p in enumerate(comps)}, 1)

    @classmethod
    def from_labels(cls, alg: LieAlgebra, components: Dict[str, object]) -> "OneCochain":
        comps = [RatPoly.zero()] * alg.dim
        for label, p in components.items():
            comps[alg.index(label)] = _as_poly(p)
        return cls(alg, comps)

    @property
    def components(self) -> Tuple[RatPoly, ...]:
        return tuple(self._poly(k, self._den) for k in range(self.alg.dim))

    def __repr__(self) -> str:
        return "OneCochain(%s, %d nonzero components)" % (self.alg.name, len(self._rows))


# -- the cochain complex as sparse integer operators ----------------------

# Largest number of coefficient columns a solve may have. It admits auto
# mode's certified bound on every built-in algebra up to milne:8 (degree 15:
# 465 pairs x 16 powers = 7440 columns; milne:9 needs degree 17, 10,098
# columns) and refuses an oversized explicit degree before any row is built
# (`explab.classify`). It is also the width of the column numbering: no
# admissible bound puts a power of t at it.
MAX_COLUMNS = 10_000


def column(pair: int, power: int) -> int:
    """The column of coefficient (pair, power of t) in every row of the
    complex, whatever the degree bound: entry-first, by pair and then by
    ascending power, which fixes the pivots of every canonical output."""
    return pair * MAX_COLUMNS + power


def pair_power(col: int) -> Tuple[int, int]:
    """(pair, power of t) of a column; the inverse of `column`."""
    return divmod(col, MAX_COLUMNS)


class _Complex:
    """Degree-free templates of one algebra's cochain complex.

    Pair numbers are ranks in the lexicographic pair order, and every row
    is numbered by `column`, so a row is the same at every degree bound that
    holds it and an echelon can grow with the bound. Rows expand from the
    templates in time linear in their size:

    * the cocycle condition, one row per basis triple i < j < k and power
      of t: the triple's cyclic bracket sum (`LieAlgebra.cyclic_sums`), plus
      -bold(tau) = +d/dt on the pair opposite the time generator, which a
      triple of h lacks, so its rows are one row shifted. Each triple's
      template is scaled to integers once, which changes neither the kernel
      nor the test row . xi = 0. `readers` lists these terms by the pair
      they read, and `scatter` applies them;
    * d1 of each unit one-cochain t^u e_k: -c_k^{ij} t^u on every pair,
      plus bold(tau) t^u = -u t^(u-1) on the pair of e_k with the time
      generator, signed by the time generator's slot.

    They are the only formulas for d1, the cocycle condition and the time
    grading: the functions below apply them, and `explab.classify` solves
    with them, checks its witnesses on `d1_image` and reads ad tau on the
    two-cochains of h off them. Its two d1 eliminations both expand
    `coboundary_rows`: classify's, untagged, once per solve, and
    are_equivalent's, tagged, once per algebra and witness degree.

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

        # per triple with a nonzero template: ((pair, c), ...) of the bracket
        # sum, (pair, c) of the derivative term or None, the integer scale
        # and the triple's slot, its rank here; readers lists per pair
        # (slot, c, offset), the offset 1 on the derivative term, 0 elsewhere
        self.triples: Dict[Tuple[int, int, int], tuple] = {}
        self.readers: Dict[int, List[Tuple[int, int, int]]] = {}
        sums = alg.cyclic_sums()
        # their other reader, the Jacobi check, runs before every solve
        alg.forget("cyclic sums")
        # only a triple with a bracket sum or the time generator has a template
        timed = () if ti is None else (
            tuple(sorted((ti,) + pair)) for pair in itertools.combinations(
                [k for k in range(alg.dim) if k != ti], 2))
        for triple in sorted(set(sums).union(timed)):
            i, j, k = triple
            bracket = {rank[a, b]: c for a, b, c in sums.get(triple, ())}
            deriv = next((signed(q, r, 1) for p, q, r in ((i, j, k), (j, k, i), (k, i, j))
                          if p == ti), None)
            if not bracket and deriv is None:
                continue
            scale = lcm(*(c.denominator for c in bracket.values()))
            slot = len(self.triples)
            terms = tuple((pidx, int(c * scale)) for pidx, c in bracket.items())
            deriv = None if deriv is None else (deriv[0], deriv[1] * scale)
            self.triples[triple] = (terms, deriv, scale, slot)
            for pidx, c in terms:
                self.readers.setdefault(pidx, []).append((slot, c, 0))
            if deriv is not None:
                self.readers.setdefault(deriv[0], []).append((slot, deriv[1], 1))

        # d1: per generator k, ((pair, -c_k^{ij}), ...)
        self.lowered: Dict[int, List[Tuple[int, object]]] = {}
        for n, (i, j) in enumerate(self.pairs):
            for k, c in alg.bracket_basis(i, j):
                self.lowered.setdefault(k, []).append((n, -c))
        # (pair, sign) of the time-grading term of each generator
        self.time_pair = {} if ti is None else \
            {k: signed(ti, k, -1) for k in range(alg.dim) if k != ti}

    def units(self, D: int) -> List[Tuple[int, int]]:
        """(k, u) of each unit one-cochain t^u e_k at degree bound D; the
        time generator's component is constant, so its only unit is t^0."""
        return [(k, u) for k in range(self.dim)
                for u in range((0 if k == self.time_index else D) + 1)]

    def d1_unit(self, k: int, u: int) -> List[Tuple[int, int, object]]:
        """d1 of the unit one-cochain t^u e_k as (pair, power, value) terms."""
        terms = [(pidx, u, c) for pidx, c in self.lowered.get(k, ())]
        if u > 0 and k in self.time_pair:
            pidx, sign = self.time_pair[k]
            terms.append((pidx, u - 1, sign * u))
        return terms

    def columns(self, D: int) -> List[int]:
        """Every column at degree bound D, in ascending order."""
        return [column(pidx, u) for pidx in range(len(self.pairs)) for u in range(D + 1)]

    def coboundary_rows(self, D: int) -> List[Dict[int, object]]:
        """d1 of each unit of `units(D)` as a row, in that order, unscaled."""
        return [{column(pidx, power): c for pidx, power, c in self.d1_unit(k, u)}
                for k, u in self.units(D)]

    def triple_rows(self, timed: bool, u: int = 0, full: bool = False) -> List[Dict[int, int]]:
        """The cocycle condition's integer rows at power u of t of the
        triples holding the time generator if `timed`, else of h's triples,
        whose rows at power u are those at power 0 moved u columns. A full
        row adds the derivative term, which reads power u + 1. At bound D
        the constraints are h's rows at every power <= D and the timed rows,
        full below D and without that term at D; xi is a cocycle at bound D
        iff each of them . xi = 0."""
        rows: List[Dict[int, int]] = []
        for bracket, deriv, _, _ in self.triples.values():
            if (deriv is not None) == timed:
                row = {column(pidx, u): c for pidx, c in bracket}
                if full and timed:
                    row[column(deriv[0], u + 1)] = deriv[1] * (u + 1)
                if row:
                    rows.append(row)
        return rows

    def scatter(self, rows: Dict[Tuple[int, int], tuple]) -> Dict[Tuple[int, int], int]:
        """row . xi of every triple's template per power of t, keyed (slot,
        power), for xi given as {pair: integer coefficients}: each triple's
        scale times its Jacobi residual. Each coefficient is added through its
        pair's readers; the derivative term reads power u at power u - 1,
        times u."""
        sums: Dict[Tuple[int, int], int] = {}
        for pair, cs in rows.items():
            for slot, c, off in self.readers.get(self.rank[pair], ()):
                for u, v in enumerate(cs[off:], off):
                    if v:
                        key = (slot, u - off)
                        sums[key] = sums.get(key, 0) + (c * u * v if off else c * v)
        return sums

    def d1_image(self, lam: OneCochain) -> Dict[int, object]:
        """d1 of lam times its denominator as a row: the d1 rows of its
        units summed on its integer coefficients."""
        image: Dict[int, object] = {}
        for k, cs in lam._rows.items():
            for u, v in enumerate(cs):
                for pidx, power, c in self.d1_unit(k, u) if v else ():
                    col = column(pidx, power)
                    image[col] = image.get(col, 0) + c * v
        return image

    def to_row(self, xi: TwoCochain) -> Dict[int, int]:
        """xi times its denominator as an integer row; the caller keeps xi's
        degree at a bound that `explab.classify` admits, so no power reaches the width."""
        return {column(self.rank[pair], u): v for pair, cs in xi._rows.items()
                for u, v in enumerate(cs) if v}

    def to_cochain(self, alg: LieAlgebra, row: Dict[int, object], den: int = 1) -> TwoCochain:
        """The two-cochain on `alg` whose coefficients are `row` over `den`."""
        rows = _coefficient_lists((pair_power(col), v) for col, v in row.items())
        return TwoCochain._of(alg, {self.pairs[pidx]: cs for pidx, cs in rows.items()}, den)


def _complex(alg: LieAlgebra) -> _Complex:
    """The algebra's complex templates, assembled once per instance."""
    return alg.memo("complex", lambda: _Complex(alg))


def coboundary(lam: OneCochain) -> TwoCochain:
    """d[Lam](a_i, a_j) = bold(a_i)Lam_j - bold(a_j)Lam_i - Lam([a_i, a_j]),
    summed from the d1 templates of Lam's unit one-cochains on Lam's integer
    coefficients, over Lam's denominator."""
    cx = _complex(lam.alg)
    return cx.to_cochain(lam.alg, cx.d1_image(lam), lam._den)


def jacobi_residual(xi: TwoCochain, i: int, j: int, k: int) -> RatPoly:
    """Cocycle defect on the basis triple (i, j, k); zero iff the condition holds there.

    Xi([a_i,a_j], a_k) + Xi([a_j,a_k], a_i) + Xi([a_k,a_i], a_j)
      - bold(a_i)Xi(a_j,a_k) - bold(a_j)Xi(a_k,a_i) - bold(a_k)Xi(a_i,a_j),
    read from the sorted triple's template, unscaled and signed by the permutation.
    """
    _check_indices(xi.alg, i, j, k)
    if len({i, j, k}) != 3:
        raise ValueError("indices must be distinct")
    cx = _complex(xi.alg)
    triple = tuple(sorted((i, j, k)))
    if triple not in cx.triples:
        return RatPoly.zero()
    _, _, scale, slot = cx.triples[triple]
    res = {u: v for (s, u), v in cx.scatter(xi._rows).items() if s == slot}
    scale *= xi._den * (-1) ** ((i > j) + (i > k) + (j > k))
    return RatPoly([Fraction(res.get(u, 0), scale) for u in range(max(res, default=-1) + 1)])


def is_cocycle(xi: TwoCochain) -> bool:
    """True iff every triple's template, which is integral, annihilates
    xi's integer coefficients, whatever its degree (`_Complex.scatter`)."""
    return not any(_complex(xi.alg).scatter(xi._rows).values())
