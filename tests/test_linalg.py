"""Properties of the sparse exact elimination in explab.linalg, against a
dense Fraction oracle that shares no code with it."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from explab import linalg

# one fixed profile: the same examples on every run
FIXED = settings(max_examples=80, deadline=None, derandomize=True)

entries = st.integers(min_value=-3, max_value=3)
scales = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def dense_rank(rows, ncols):
    """Rank by plain dense Gaussian elimination over Fraction."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    """(rows, ncols): sparse rows of small ints or Fractions, empty rows
    included, with repeated and combined rows so that some depend on
    earlier ones."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(("fresh", "fresh", "combo", "empty")))
        if kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = draw(entries), draw(scales)
            row = {c: ka * a.get(c, 0) + kb * b.get(c, 0) for c in set(a) | set(b)}
        elif kind == "empty":
            row = {}
        else:
            row = {c: draw(entries) for c in range(ncols)}
            if draw(st.booleans()):
                row = {c: Fraction(v, draw(st.integers(min_value=1, max_value=3)))
                       for c, v in row.items()}
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


def combine(rows, weights):
    out = {}
    for i, w in weights.items():
        for c, v in rows[i].items():
            out[c] = out.get(c, 0) + w * v
    return {c: v for c, v in out.items() if v}


class TestRref:
    @FIXED
    @given(matrices(), st.data())
    def test_canonical_under_permutation_and_scaling(self, mat, data):
        rows, _ = mat
        order = data.draw(st.permutations(range(len(rows))))
        factors = [data.draw(scales) for _ in rows]
        moved = [{c: factors[i] * v for c, v in rows[i].items()} for i in order]
        assert linalg.rref(moved) == linalg.rref(rows)

    @FIXED
    @given(matrices())
    def test_unit_pivots_and_rank(self, mat):
        rows, ncols = mat
        reduced = linalg.rref(rows)
        leads = [min(r) for r in reduced]
        assert leads == sorted(set(leads))
        for r, p in zip(reduced, leads):
            assert r[p] == 1
            assert all(isinstance(v, Fraction) and v for v in r.values())
            assert not any(c in r for c in leads if c != p)
        assert len(reduced) == dense_rank(rows, ncols)

    def test_int_and_fraction_rows_agree(self):
        rows = [{0: 2, 2: -4}, {1: 3, 2: 6}]
        as_fractions = [{c: Fraction(v) for c, v in r.items()} for r in rows]
        assert linalg.rref(rows) == linalg.rref(as_fractions) \
            == [{0: 1, 2: -2}, {1: 1, 2: 2}]


class TestNullspace:
    @FIXED
    @given(matrices())
    def test_annihilates_rows_and_counts_free_columns(self, mat):
        rows, ncols = mat
        basis = linalg.nullspace(rows, range(ncols))
        assert len(basis) == ncols - dense_rank(rows, ncols)
        for vec in basis:
            assert all(sum(r.get(c, 0) * v for c, v in vec.items()) == 0 for r in rows)
        assert dense_rank(basis, ncols) == len(basis)

    def test_free_columns_follow_the_column_list(self):
        # the columns need not be contiguous: one vector per free column,
        # in the listed order
        rows = [{10_000: 2, 20_000: -2}]
        basis = linalg.nullspace(rows, [5, 10_000, 10_001, 20_000])
        assert basis == [{5: 1}, {10_001: 1}, {20_000: 1, 10_000: 1}]


class TestSolveAugmented:
    @FIXED
    @given(matrices(), st.data())
    def test_weights_reproduce_a_target_in_the_row_space(self, mat, data):
        rows, _ = mat
        planted = {i: data.draw(scales) for i in range(len(rows)) if data.draw(st.booleans())}
        target = combine(rows, planted)
        weights = linalg.solve_augmented(linalg.augment(rows), target)
        assert weights is not None
        assert combine(rows, weights) == target

    @FIXED
    @given(matrices(), st.data())
    def test_dependent_rows_get_weight_zero(self, mat, data):
        rows, ncols = mat
        target = combine(rows, {i: data.draw(entries) for i in range(len(rows))})
        weights = linalg.solve_augmented(linalg.augment(rows), target)
        for i in range(len(rows)):
            if dense_rank(rows[:i + 1], ncols) == dense_rank(rows[:i], ncols):
                assert i not in weights
        assert all(weights.values())

    @FIXED
    @given(matrices(), st.data())
    def test_none_outside_the_row_space(self, mat, data):
        rows, ncols = mat
        col = data.draw(st.integers(min_value=0, max_value=ncols))
        target = combine(rows, {i: data.draw(entries) for i in range(len(rows))})
        target[col] = target.get(col, 0) + data.draw(scales)
        target = {c: v for c, v in target.items() if v}
        inside = dense_rank(rows + [target], ncols + 1) == dense_rank(rows, ncols + 1)
        weights = linalg.solve_augmented(linalg.augment(rows), target)
        if inside:
            assert combine(rows, weights) == target
        else:
            assert weights is None

    def test_all_empty_rows(self):
        # an abelian algebra's unit images are all zero, as on phase space
        rows = [{}, {}, {}]
        assert linalg.solve_augmented(linalg.augment(rows), {}) == {}
        assert linalg.solve_augmented(linalg.augment(rows), {4: Fraction(1, 2)}) is None
        assert linalg.solve_augmented(linalg.augment([]), {}) == {}
        assert linalg.solve_augmented(linalg.augment([]), {0: 1}) is None

    def test_first_of_two_equal_rows_carries_the_weight(self):
        rows = [{}, {0: 2, 1: 1}, {0: 4, 1: 2}, {2: Fraction(1, 3)}]
        assert linalg.solve_augmented(linalg.augment(rows), {0: 1, 1: Fraction(1, 2), 2: 1}) \
            == {1: Fraction(1, 2), 3: Fraction(3)}

    @FIXED
    @given(matrices(), st.data())
    def test_one_echelon_serves_many_targets(self, mat, data):
        rows, ncols = mat
        aug = linalg.augment(rows)
        before = {col: dict(row) for col, row in aug.pivots.items()}
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            target = combine(rows, {i: data.draw(entries) for i in range(len(rows))})
            if data.draw(st.booleans()):
                col = data.draw(st.integers(min_value=0, max_value=ncols))
                target[col] = target.get(col, 0) + data.draw(scales)
            target = {c: v for c, v in target.items() if v}
            weights = linalg.solve_augmented(aug, target)
            assert weights == linalg.solve_augmented(linalg.augment(rows), target)
            inside = dense_rank(rows + [target], ncols + 1) == dense_rank(rows, ncols + 1)
            assert (weights is not None) == inside
            if inside:
                assert combine(rows, weights) == target
        assert aug.pivots == before

    def test_target_at_or_past_the_marker_is_outside(self):
        rows = [{0: 1}, {1: 2}]
        aug = linalg.augment(rows)
        assert aug.marker == 2
        assert linalg.solve_augmented(aug, {0: 2, 1: 1}) == {0: 2, 1: Fraction(1, 2)}
        assert linalg.solve_augmented(aug, {0: 1, 2: 1}) is None
        assert linalg.solve_augmented(aug, {5: Fraction(1, 2)}) is None


class TestReduceModRows:
    @FIXED
    @given(matrices(), st.data())
    def test_reduction_is_the_rref_remainder_up_to_scale(self, mat, data):
        rows, ncols = mat
        vec = combine(rows, {i: data.draw(entries) for i in range(len(rows))})
        for c in range(ncols):
            if data.draw(st.booleans()):
                vec[c] = vec.get(c, 0) + data.draw(scales)
        vec = {c: v for c, v in vec.items() if v}
        reduced = linalg.rref(rows)
        want = dict(vec)
        for r in reduced:  # Fraction reduction against the RREF rows
            coef = want.get(min(r), 0)
            for c, v in r.items():
                want[c] = want.get(c, 0) - coef * v
        want = {c: v for c, v in want.items() if v}
        pivots = linalg.echelon_int(linalg.scale_to_int(r) for r in rows)
        before = {col: dict(row) for col, row in pivots.items()}
        got = linalg.reduce_mod_rows(vec, pivots)
        assert pivots == before
        assert all(isinstance(v, int) for v in got.values())
        assert not set(got) & set(pivots)
        assert set(got) == set(want)
        if want:
            lead = min(want)
            assert {c: Fraction(v, got[lead]) for c, v in got.items()} \
                == {c: v / want[lead] for c, v in want.items()}


# -- reference: the kernel that strips after every combination ---------

def eager_scale_to_int(row):
    lcm = 1
    for v in row.values():
        lcm = lcm // gcd(lcm, v.denominator) * v.denominator
    out = {c: v.numerator * (lcm // v.denominator) for c, v in row.items() if v}
    eager_strip(out)
    return out


def eager_strip(row):
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if row[min(row)] < 0:
        g = -g
    for c in list(row):
        row[c] //= g


def eager_combine(row, pivot_row, col):
    a, b = row[col], pivot_row[col]
    g = gcd(a, b)
    fr, fp = b // g, a // g
    for c, v in pivot_row.items():
        nv = row.get(c, 0) * fr - v * fp
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    for c in list(row):
        if c not in pivot_row:
            row[c] *= fr
    eager_strip(row)


def eager_reduce(row, pivots):
    while row:
        lead = min(row)
        if lead not in pivots:
            return lead
        eager_combine(row, pivots[lead], lead)
    return None


def eager_echelon_int(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        lead = eager_reduce(row, pivots)
        if lead is not None:
            eager_strip(row)
            pivots[lead] = row
    return pivots


def eager_back_reduce(pivots):
    for col in sorted(pivots, reverse=True):
        for other, row in pivots.items():
            if other != col and col in row:
                eager_combine(row, pivots[col], col)


def eager_rref(rows):
    pivots = eager_echelon_int(eager_scale_to_int(r) for r in rows)
    eager_back_reduce(pivots)
    return [{c: Fraction(v, pivots[p][p]) for c, v in pivots[p].items()}
            for p in sorted(pivots)]


def eager_nullspace(rows, columns):
    pivots = eager_echelon_int(eager_scale_to_int(r) for r in rows)
    eager_back_reduce(pivots)
    basis = {f: {f: Fraction(1)} for f in columns if f not in pivots}
    for p in sorted(pivots):
        for f, v in pivots[p].items():
            if f != p:
                basis[f][p] = Fraction(-v, pivots[p][p])
    return list(basis.values())


def eager_solve(rows, target):
    marker = 1 + max((c for r in rows for c in r), default=-1)
    pivots = eager_echelon_int(eager_scale_to_int({**r, marker + 1 + i: 1})
                                for i, r in enumerate(rows))
    if any(c >= marker for c in target):
        return None
    reduced = eager_scale_to_int({**target, marker: 1})
    if eager_reduce(reduced, pivots) != marker:
        return None
    a = reduced[marker]
    return {c - marker - 1: Fraction(-v, a) for c, v in reduced.items() if c != marker}


def eager_reduce_mod_rows(vec, pivots):
    out = eager_scale_to_int(vec)
    for col in sorted(pivots):
        if col in out:
            eager_combine(out, pivots[col], col)
    return out


big = st.integers(min_value=-10 ** 30, max_value=10 ** 30).filter(bool)


@st.composite
def kernel_matrices(draw):
    """matrices() with copies, negations and large-coefficient multiples
    of its rows, and rows of large coefficients, put among them."""
    rows, ncols = draw(matrices())
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("duplicate", "negated", "multiple", "large")))
        if kind == "large" or not rows:
            row = {c: draw(big) for c in range(ncols) if draw(st.booleans())}
        else:
            src = draw(st.sampled_from(rows))
            factor = {"duplicate": 1, "negated": -1, "multiple": draw(big)}[kind]
            row = {c: factor * v for c, v in src.items()}
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows, ncols


def nearby_target(rows, ncols, data):
    """A combination of the rows, sometimes moved off their row space."""
    target = combine(rows, {i: data.draw(entries) for i in range(len(rows))})
    if data.draw(st.booleans()):
        col = data.draw(st.integers(min_value=0, max_value=ncols))
        target[col] = target.get(col, 0) + data.draw(st.one_of(scales, big))
    return {c: v for c, v in target.items() if v}


class TestAgainstStripEveryCombination:
    """The kernel strips a row only when a combination scales it; the one
    that stripped after every combination gives the same outputs."""

    @FIXED
    @given(kernel_matrices())
    def test_rref_nullspace_and_echelon_are_equal(self, mat):
        rows, ncols = mat
        assert linalg.rref(rows) == eager_rref(rows)
        assert linalg.nullspace(rows, range(ncols)) == eager_nullspace(rows, range(ncols))
        scaled = [linalg.scale_to_int(r) for r in rows]
        assert scaled == [eager_scale_to_int(r) for r in rows]
        got, want = linalg.echelon_int(scaled), eager_echelon_int(scaled)
        assert list(got) == list(want)  # the same leads, in the same order
        assert got == want

    @FIXED
    @given(kernel_matrices())
    def test_nullspace_of_an_echelon_is_the_nullspace_of_its_rows(self, mat):
        rows, ncols = mat
        pivots = linalg.echelon_int(linalg.scale_to_int(r) for r in rows)
        assert linalg.echelon_nullspace(pivots, range(ncols)) \
            == linalg.nullspace(rows, range(ncols))

    @FIXED
    @given(kernel_matrices(), st.data())
    def test_a_continued_echelon_is_the_echelon_of_all_rows(self, mat, data):
        rows, ncols = mat
        scaled = [linalg.scale_to_int(r) for r in rows]
        split = data.draw(st.integers(min_value=0, max_value=len(scaled)))
        start = linalg.echelon_int(scaled[:split])
        got = linalg.echelon_int(scaled[split:], start)
        assert got is start
        assert list(got.items()) == list(linalg.echelon_int(scaled).items())

    @FIXED
    @given(kernel_matrices(), st.data())
    def test_solve_weights_are_equal(self, mat, data):
        rows, ncols = mat
        aug = linalg.augment(rows)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            target = nearby_target(rows, ncols, data)
            assert linalg.solve_augmented(aug, target) == eager_solve(rows, target)

    @FIXED
    @given(kernel_matrices(), st.data())
    def test_reduce_mod_rows_is_equal_up_to_scale(self, mat, data):
        rows, ncols = mat
        pivots = linalg.echelon_int(linalg.scale_to_int(r) for r in rows)
        vec = nearby_target(rows, ncols, data)
        got, want = linalg.reduce_mod_rows(vec, pivots), eager_reduce_mod_rows(vec, pivots)
        assert set(got) == set(want)
        if want:
            lead = min(want)
            assert got[lead] and all(v * want[lead] == want[c] * got[lead]
                                     for c, v in got.items())

    def test_floats_are_refused(self):
        for row in ({0: 1.5}, {0: 1, 1: 0.5}, {0: 2.0}):
            with pytest.raises(AttributeError):
                linalg.scale_to_int(row)
