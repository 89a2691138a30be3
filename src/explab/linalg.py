"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero int or Fraction. Every row
enters through `scale_to_int`, so elimination runs on integer-scaled rows
and no Fraction arithmetic happens in the hot path. A combination leaves its
row a nonzero multiple of what it was; it strips the row's common factor
only when it scaled the row. Every row an echelon stores is primitive with a
positive lead, so the echelon is fixed by its rows and their order whatever
the scales met on the way. Reduced results are converted back to Fractions
with unit pivots, which no scale changes, except `reduce_mod_rows`, whose
integer rows are only ever reduced again. Reduced row echelon form is
canonical for a row space, which is what makes every downstream output
deterministic.

`solve_augmented` writes a target as a combination of given rows in two
steps: `augment` eliminates the rows once, in their own order, each tagged
in a column of its own, and every target is then reduced against that
echelon, which it reads and never changes. A caller that solves many
targets over the same rows keeps the echelon; a one-off solve is
`solve_augmented(augment(rows), target)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence

IntRow = Dict[int, int]
FracRow = Dict[int, Fraction]

__all__ = ["scale_to_int", "echelon_int", "rref", "nullspace", "echelon_nullspace",
           "Augmented", "augment", "solve_augmented", "reduce_mod_rows"]


def scale_to_int(row: Dict[int, object]) -> IntRow:
    """Clear the denominators of int or Fraction values and strip the
    common integer factor; a row of ints needs no lcm."""
    lcm, ints = 1, True
    for v in row.values():
        if type(v) is not int:
            ints = False
            lcm = lcm // gcd(lcm, v.denominator) * v.denominator
    if ints:
        out = {c: v for c, v in row.items() if v}
    else:
        out = {c: v.numerator * (lcm // v.denominator) for c, v in row.items() if v}
    _strip(out)
    return out


def _strip(row: IntRow) -> None:
    """Divide by the gcd of the values and make the leading entry positive."""
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in list(row):
            row[c] //= g


def _combine(row: IntRow, pivot_row: IntRow, col: int) -> None:
    """Eliminate row[col] using pivot_row (in place on row): row becomes a
    nonzero multiple of b * row - a * pivot_row, a and b their entries at
    col. Only a row scaled by b / gcd(a, b) != 1 is stripped; any other
    keeps its common factor and sign, which only a stored row must shed."""
    a = row[col]
    b = pivot_row[col]
    g = gcd(a, b)
    fr, fp = b // g, a // g
    for c, v in pivot_row.items():
        nv = row.get(c, 0) * fr - v * fp
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    if fr != 1:
        for c in list(row):
            if c not in pivot_row:
                row[c] *= fr
        _strip(row)


def _reduce(row: IntRow, pivots: Dict[int, IntRow]) -> Optional[int]:
    """Eliminate row's leading entries in place against the echelon's rows,
    which are read, never changed; the first lead without a pivot, or None
    when row reduces to zero."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        _combine(row, piv, lead)
    return None


def echelon_int(rows: Iterable[IntRow], pivots: Optional[dict] = None) -> Dict[int, IntRow]:
    """Forward elimination of the rows in order; returns {pivot column:
    row}, each row's smallest column its pivot. Given `pivots`, such an
    echelon of primitive rows with positive leads, it continues that one in
    place. The input rows are copied, never changed."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        row = dict(row)
        lead = _reduce(row, pivots)
        if lead is not None:
            _strip(row)
            pivots[lead] = row
    return pivots


def _back_reduce(pivots: Dict[int, IntRow]) -> None:
    """Clear every pivot column above its pivot, last pivot first.

    By the time column `col` is cleared, its pivot row has no entry in any
    later pivot column and none before `col`, so clearing it changes other
    rows only at `col` and at non-pivot columns. Which rows hold an entry in
    a pivot column is therefore fixed by the forward pass and indexed once.
    """
    holders: Dict[int, List[int]] = {col: [] for col in pivots}
    for lead, row in pivots.items():
        for c in row:
            if c != lead and c in holders:
                holders[c].append(lead)
    for col in sorted(pivots, reverse=True):
        piv = pivots[col]
        for other in holders[col]:
            _combine(pivots[other], piv, col)


def _to_unit_fracrow(row: IntRow, pivot_col: int) -> FracRow:
    p = row[pivot_col]
    return {c: Fraction(v, p) for c, v in row.items()}


def rref(rows: Iterable[Dict[int, object]]) -> List[FracRow]:
    """Canonical reduced row echelon form, sorted by pivot column, pivots 1."""
    pivots = echelon_int(scale_to_int(r) for r in rows)
    _back_reduce(pivots)
    return [_to_unit_fracrow(pivots[c], c) for c in sorted(pivots)]


def nullspace(rows: Iterable[Dict[int, object]], columns: Iterable[int]) -> List[FracRow]:
    """Canonical basis of {x : Ax = 0} for rows on the given columns, listed
    in ascending order: one vector per free column f, in that order (x_f = 1,
    other free columns 0); not in echelon form. The rows are eliminated
    once, by `echelon_int`, and the basis read off that echelon."""
    return echelon_nullspace(echelon_int(scale_to_int(r) for r in rows), columns)


def echelon_nullspace(pivots: Dict[int, IntRow], columns: Iterable[int]) -> List[FracRow]:
    """`nullspace` of the rows of an integer echelon {pivot column: row}, as
    `echelon_int` gives it: back-reduced and read off at its free columns.
    The echelon is used up; its rows are changed and removed."""
    _back_reduce(pivots)
    basis: Dict[int, FracRow] = {f: {f: Fraction(1)} for f in columns
                                 if f not in pivots}
    # each reduced row holds one pivot and otherwise only free columns
    for p in sorted(pivots):
        row = pivots.pop(p)
        lead = row[p]
        for f, v in row.items():
            if f != p:
                basis[f][p] = Fraction(-v, lead)
    return list(basis.values())


@dataclass(frozen=True)
class Augmented:
    """The integer echelon of rows tagged past a marker column, just past
    their largest column: row i gets a tag 1 in column marker + 1 + i."""
    marker: int
    pivots: Dict[int, IntRow]


def augment(rows: Sequence[Dict[int, object]]) -> Augmented:
    """Eliminate the tagged rows in order."""
    marker = 1 + max((c for r in rows for c in r), default=-1)
    return Augmented(marker, echelon_int(
        scale_to_int({**r, marker + 1 + i: 1}) for i, r in enumerate(rows)))


def solve_augmented(aug: Augmented, target: Dict[int, object]) -> Optional[FracRow]:
    """Weights {row index: w} with sum_i w * rows[i] = target over the rows
    of `aug`, or None when target lies outside their row space.

    The target, marked 1 in the marker column, is reduced against the rows'
    echelon as a row eliminated after them would be. It stops at its marker
    having met only rows independent of earlier ones, so a dependent row
    gets weight 0. A target column at or past the marker is one that no row
    touches."""
    marker = aug.marker
    if any(c >= marker for c in target):
        return None
    reduced = scale_to_int({**target, marker: 1})
    if _reduce(reduced, aug.pivots) != marker:
        return None
    # reduced = a * (target, marker) - sum_i b_i * (rows[i], tag i) with no
    # image entry left, so target = sum_i (b_i / a) * rows[i]
    a = reduced[marker]
    return {c - marker - 1: Fraction(-v, a) for c, v in reduced.items() if c != marker}


def reduce_mod_rows(vec: Dict[int, object], pivots: Dict[int, IntRow]) -> IntRow:
    """vec scaled to integers less a combination of an integer echelon's
    rows {pivot column: row}, zero at every pivot column: the unique such
    vector modulo the row space, up to a nonzero scalar, not necessarily
    primitive. Each pivot row's smallest column is its pivot, so clearing a
    column touches none before it. The pivot columns the vector holds are
    cleared in ascending order, those a clearing fills included; none is
    refilled once cleared."""
    out = scale_to_int(vec)
    todo = [c for c in out if c in pivots]
    heapify(todo)
    while todo:
        col = heappop(todo)
        if col not in out:  # cleared on the way, or a repeat
            continue
        piv = pivots[col]
        for c in piv:
            if c not in out and c in pivots:
                heappush(todo, c)
        _combine(out, piv, col)
    return out
