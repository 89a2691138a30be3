"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping column index to a nonzero value. Elimination runs on
integer-scaled rows (gcd-normalized after every combination) so no Fraction
arithmetic happens in the hot path; reduced results are converted back to
Fractions with unit pivots. Reduced row echelon form is canonical for a row
space, which is what makes every downstream output deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

IntRow = Dict[int, int]
FracRow = Dict[int, Fraction]

__all__ = ["scale_to_int", "echelon_int", "rref", "nullspace", "solve_augmented",
           "reduce_mod_rows"]


def scale_to_int(row: Dict[int, Fraction]) -> IntRow:
    """Clear denominators and strip the common integer factor."""
    out: IntRow = {}
    lcm = 1
    for v in row.values():
        if v == 0:
            continue
        d = v.denominator if isinstance(v, Fraction) else 1
        lcm = lcm // gcd(lcm, d) * d
    for c, v in row.items():
        if v == 0:
            continue
        out[c] = int(v * lcm)
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
    """Eliminate row[col] using pivot_row (in place on row)."""
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


def echelon_int(rows: Iterable[IntRow]) -> Dict[int, IntRow]:
    """Forward elimination; returns {pivot column: row}."""
    pivots: Dict[int, IntRow] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                _strip(row)
                pivots[lead] = row
                break
            _combine(row, piv, lead)
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
    int_rows = []
    for r in rows:
        if any(isinstance(v, Fraction) for v in r.values()):
            int_rows.append(scale_to_int({c: Fraction(v) for c, v in r.items()}))
        else:
            rr = {c: int(v) for c, v in r.items() if v}
            _strip(rr)
            int_rows.append(rr)
    pivots = echelon_int(int_rows)
    _back_reduce(pivots)
    return [_to_unit_fracrow(pivots[c], c) for c in sorted(pivots)]


def nullspace(rows: Iterable[Dict[int, object]], ncols: int) -> List[FracRow]:
    """Canonical basis of {x : Ax = 0}, one vector per free column f in
    ascending order (x_f = 1, other free columns 0); not in echelon form."""
    reduced = rref(rows)
    leads = [min(r) for r in reduced]
    pivots = set(leads)
    basis: Dict[int, FracRow] = {f: {f: Fraction(1)} for f in range(ncols)
                                 if f not in pivots}
    # each reduced row holds one pivot and otherwise only free columns
    for r, p in zip(reduced, leads):
        for f, coef in r.items():
            if f != p:
                basis[f][p] = -coef
    return list(basis.values())


def solve_augmented(rows: Iterable[Dict[int, object]], ncols: int) -> Optional[FracRow]:
    """Solve Ax = b given rows with the right-hand side stored at column `ncols`.

    Returns the particular solution with all free variables zero, or None if
    the system is inconsistent.
    """
    reduced = rref(rows)
    sol: FracRow = {}
    for r in reduced:
        lead = min(r)
        if lead == ncols:
            return None
        # reduced rows have unit pivots and no other pivot columns, so any
        # remaining columns are free variables, pinned to zero here
        sol[lead] = r.get(ncols, Fraction(0))
    return {c: v for c, v in sol.items() if v}


def reduce_mod_rows(vec: FracRow, reduced_rows: List[FracRow]) -> FracRow:
    """Subtract multiples of RREF rows to zero vec at their pivot columns."""
    out = dict(vec)
    for r in reduced_rows:
        p = min(r)
        coef = out.get(p)
        if not coef:
            continue
        for c, v in r.items():
            nv = out.get(c, Fraction(0)) - coef * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)
    return out
