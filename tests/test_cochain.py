import gc
import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from explab.classify import ColumnLimitError, are_equivalent, classify
from explab.cochain import (OneCochain, TwoCochain, _coefficient_lists, _complex, _Complex,
                            coboundary, is_cocycle, jacobi_residual)
from explab.lie import LieAlgebra, galilean, milne, phase_space
from explab.ratpoly import RatPoly
from test_classify import ONE_H_ECHELON_CASES


def heisenberg():
    # non-abelian algebra without a time generator, for the classical-limit test
    return LieAlgebra(["x", "y", "z"], {(0, 1): [(2, 1)]}, time_index=None,
                      name="heisenberg")


def mass_family(gamma):
    """Galilean cochain Xi(b_i, d_k) = gamma(t) * delta_ik."""
    return TwoCochain.from_labels(
        galilean(), {("b%d" % i, "d%d" % i): gamma for i in (1, 2, 3)})


small_polys = st.lists(
    st.integers(min_value=-3, max_value=3).map(Fraction), max_size=3).map(RatPoly)


def constrained_cochains(alg):
    def build(polys):
        comps = list(polys)
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        return OneCochain(alg, comps)
    return st.lists(small_polys, min_size=alg.dim, max_size=alg.dim).map(build)


def random_two_cochains(alg):
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    def build(polys):
        return TwoCochain(alg, dict(zip(pairs, polys)))
    return st.lists(small_polys, min_size=len(pairs), max_size=len(pairs)).map(build)


class TestTwoCochainBasics:
    def test_antisymmetry_by_storage(self):
        xi = TwoCochain.from_labels(galilean(), {("b1", "d1"): RatPoly.t()})
        assert xi.entry_by_labels("d1", "b1") == -RatPoly.t()
        assert xi.entry_by_labels("b1", "b1") == RatPoly.zero()

    def test_lower_triangular_input_flipped(self):
        xi = TwoCochain.from_labels(galilean(), {("d1", "b1"): 1})
        assert xi.entry_by_labels("b1", "d1") == RatPoly.constant(-1)

    def test_zero_entries_dropped(self):
        xi = TwoCochain.from_labels(galilean(), {("b1", "d1"): 0})
        assert xi.is_zero()

    def test_out_of_range_indices_are_refused(self):
        # -1 does not name the last generator, tau, and 50 no pair at all
        g = galilean()
        xi = mass_family(RatPoly.t())
        for i, j in ((0, 50), (-1, 3), (3, -1), (g.dim, 0), (0, g.dim)):
            with pytest.raises(ValueError, match="^entry index out of range"):
                xi.entry(i, j)
        assert xi.entry(3, 3).is_zero() and xi.entry(g.dim - 1, g.dim - 1).is_zero()
        assert xi.entry_by_labels("d1", "b1") == -RatPoly.t()

    def test_linear_ops(self):
        xi = mass_family(RatPoly.t())
        assert (xi + xi) == 2 * xi
        assert (xi - xi).is_zero()

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_and_differences_merge_entry_by_entry(self, seed):
        # y repeats some of x's entries, so x - y cancels there, and x + y
        # cancels where y repeats their negatives
        rng = random.Random(seed)
        g = milne(1)
        pairs = list(g.pairs())

        def poly():
            return RatPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3))])

        unequal_denominators = 0
        for _ in range(20):
            x = TwoCochain(g, {p: poly() for p in rng.sample(pairs, 8)})
            y = TwoCochain(g, {p: poly() for p in rng.sample(pairs, 8)})
            shared = rng.sample(sorted(x.nonzero_entries()), 3)
            y = TwoCochain(g, {**y.nonzero_entries(),
                               **{p: x.nonzero_entries()[p] for p in shared[:2]},
                               shared[2]: -x.nonzero_entries()[shared[2]]})
            before = (x.nonzero_entries(), y.nonzero_entries())
            unequal_denominators += x._den != y._den
            assert x - y == x + (-y) == x + (-1) * y
            assert x - x == TwoCochain.zero(g) and (x + (-x)).is_zero()
            for z, sign in ((x + y, 1), (x - y, -1)):
                assert all(not p.is_zero() for p in z.nonzero_entries().values())
                for i, j in pairs:
                    assert z.entry(i, j) == x.entry(i, j) + sign * y.entry(i, j)
            assert (x.nonzero_entries(), y.nonzero_entries()) == before
        assert unequal_denominators

    def test_serialization_roundtrip(self):
        g = milne(2)
        xi = TwoCochain.from_labels(g, {
            ("d0_1", "d1_1"): RatPoly((Fraction(1, 2), 3)),
            ("d1_2", "tau"): RatPoly.t(),
        })
        again = TwoCochain.from_jsonable(g, xi.to_jsonable())
        assert again == xi

    def test_from_jsonable_refuses_floats_and_bools(self):
        g = galilean()
        for item in (0.1, True):
            with pytest.raises(TypeError):
                TwoCochain.from_jsonable(g, [{"i": "b1", "j": "d1", "poly": ["1", item]}])
        xi = TwoCochain.from_jsonable(g, [{"i": "b1", "j": "d1", "poly": ["0.1"]}])
        assert xi.entry_by_labels("b1", "d1") == RatPoly.constant(Fraction(1, 10))

    def test_from_jsonable_refuses_an_object(self):
        # a dict of strings would be read by its keys, as 1/2 + 7t here
        g = galilean()
        for poly in ({"1/2": 0, "7": 1}, "12", 7, None):
            with pytest.raises(TypeError, match="^a list of coefficient strings expected"):
                TwoCochain.from_jsonable(g, [{"i": "b1", "j": "d1", "poly": poly}])
        xi = TwoCochain.from_jsonable(g, [{"i": "b1", "j": "d1", "poly": ("1/2", "7")}])
        assert xi.entry_by_labels("b1", "d1") == RatPoly((Fraction(1, 2), 7))

    def test_from_jsonable_refuses_a_pair_listed_twice(self):
        g = galilean()
        for second in (["5"], ["1"], []):
            with pytest.raises(ValueError, match=r"pair \(b1, d1\) listed twice"):
                TwoCochain.from_jsonable(g, [{"i": "b1", "j": "d1", "poly": ["1"]},
                                             {"i": "b2", "j": "d2", "poly": ["2"]},
                                             {"i": "b1", "j": "d1", "poly": second}])

    def test_jsonable_is_sorted_and_labelled(self):
        g = galilean()
        xi = TwoCochain.from_labels(g, {("b2", "d2"): 1, ("a12", "b1"): RatPoly.t()})
        data = xi.to_jsonable()
        assert [d["i"] for d in data] == ["a12", "b2"]
        assert data[0]["poly"] == ["0", "1"]


def assert_canonical(x):
    """Integer tuples on pairs i < j, no trailing zero and no zero pair,
    over a positive denominator in lowest terms (1 for zero)."""
    assert x._den > 0
    assert gcd(x._den, *itertools.chain.from_iterable(x._rows.values())) == 1
    for (i, j), cs in x._rows.items():
        assert i < j and cs and cs[-1] and all(type(v) is int for v in cs)


class TestCanonicalForm:
    # a time generator, and structure constants that are not integers
    ALGEBRAS = [milne(1), galilean(),
                LieAlgebra(["x", "y", "z"], {(0, 1): [(2, Fraction(1, 2))]},
                           time_index=None, name="half-heisenberg")]
    fractions = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=1, max_value=6))
    polys = st.lists(fractions, max_size=4).map(RatPoly)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_construction_gives_the_one_form(self, data):
        alg = data.draw(st.sampled_from(self.ALGEBRAS))
        pairs, labels = list(alg.pairs()), alg.labels
        cochains = st.dictionaries(st.sampled_from(pairs), self.polys, max_size=6)
        entries = data.draw(cochains)
        x, y = TwoCochain(alg, entries), TwoCochain(alg, data.draw(cochains))
        q = data.draw(self.fractions.filter(bool))
        # every entry given lower-triangular, and one pair given both ways
        # with parts that cancel
        flipped = {(labels[j], labels[i]): -p for (i, j), p in entries.items()}
        i, j = data.draw(st.sampled_from(pairs))
        extra = data.draw(self.polys)
        flipped[labels[j], labels[i]] = -entries.get((i, j), RatPoly.zero()) + extra
        flipped[labels[i], labels[j]] = extra
        cx = _complex(alg)
        forms = [TwoCochain.from_labels(alg, flipped),
                 TwoCochain.from_jsonable(alg, x.to_jsonable()),
                 TwoCochain(alg, x.nonzero_entries()),
                 (x + y) - y, (x - y) + y, y + x - y, -(-x),
                 (x * q) * (1 / q), q * x * (1 / q),
                 cx.to_cochain(alg, {c: Fraction(v, x._den) for c, v in cx.to_row(x).items()}),
                 cx.to_cochain(alg, cx.to_row(x)) * Fraction(1, x._den)]
        for z in [x, y, x * 0, x + y, x - y] + forms:
            assert_canonical(z)
        assert x * 0 == TwoCochain.zero(alg) and (x * 0)._den == 1
        for z in forms:
            assert z == x and hash(z) == hash(x)
            assert (z._rows, z._den) == (x._rows, x._den)
        assert [item["poly"] for item in x.to_jsonable()] == \
            [x.entry(i, j).to_strings() for i, j in sorted(x.nonzero_entries())]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_coboundary_gives_the_one_form(self, data):
        alg = data.draw(st.sampled_from(self.ALGEBRAS))
        comps = [data.draw(self.polys) for _ in range(alg.dim)]
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        q = data.draw(self.fractions.filter(bool))
        d = coboundary(OneCochain(alg, comps))
        forms = [TwoCochain(alg, d.nonzero_entries()),
                 coboundary(OneCochain(alg, [p * q for p in comps])) * (1 / q),
                 d + TwoCochain.zero(alg)]
        for z in [d] + forms:
            assert_canonical(z)
        for z in forms:
            assert z == d and hash(z) == hash(d)
            assert (z._rows, z._den) == (d._rows, d._den)


def assert_one_canonical(lam):
    """Integer tuples per generator, no trailing zero and no zero
    component, over a positive denominator in lowest terms (1 for zero)."""
    assert lam._den > 0
    assert gcd(lam._den, *itertools.chain.from_iterable(lam._rows.values())) == 1
    for k, cs in lam._rows.items():
        assert 0 <= k < lam.alg.dim and cs and cs[-1] and all(type(v) is int for v in cs)
    if lam.is_zero():
        assert lam._den == 1


class TestOneCochainCanonicalForm:
    ALGEBRAS = TestCanonicalForm.ALGEBRAS

    @staticmethod
    def forms(lam, scale, padding):
        """lam built every other way: from its components, from labels and
        from unit weights scaled by `scale` with `padding` zero powers on top."""
        alg = lam.alg
        comps = lam.components
        weights = [((k, u), c * scale) for k, p in enumerate(comps) for u, c in enumerate(p.coeffs)]
        weights += [((k, len(p.coeffs) + pad), 0) for k, p in enumerate(comps)
                    for pad in range(padding)]
        return [OneCochain(alg, comps),
                OneCochain.from_labels(alg, {alg.labels[k]: p for k, p in enumerate(comps)
                                             if p or k % 2}),
                OneCochain._of(alg, _coefficient_lists(weights), scale)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_construction_gives_the_one_form(self, data):
        alg = data.draw(st.sampled_from(self.ALGEBRAS))
        comps = [data.draw(TestCanonicalForm.polys) for _ in range(alg.dim)]
        if alg.time_index is not None:
            comps[alg.time_index] = RatPoly.constant(comps[alg.time_index].coeff(0))
        scale = data.draw(st.integers(min_value=1, max_value=12))
        padding = data.draw(st.integers(min_value=0, max_value=2))
        lam = OneCochain(alg, comps)
        witness = are_equivalent(TwoCochain.zero(alg), coboundary(lam)).witness
        zero = OneCochain.zero(alg)
        assert zero == OneCochain(alg, [RatPoly.zero()] * alg.dim) and zero._den == 1
        for x in (lam, witness, zero):
            assert_one_canonical(x)
            for z in self.forms(x, scale, padding):
                assert_one_canonical(z)
                assert z == x and hash(z) == hash(x)
                assert (z._rows, z._den) == (x._rows, x._den)
        assert lam.components == tuple(comps)
        assert coboundary(witness) == coboundary(lam)
        with pytest.raises(AttributeError):
            lam.components = comps
        with pytest.raises(AttributeError):
            lam._den = 1


class TestOneCochainConstraint:
    def test_time_component_must_be_constant(self):
        g = galilean()
        with pytest.raises(ValueError):
            OneCochain.from_labels(g, {"tau": RatPoly.t()})

    def test_spatial_components_free(self):
        g = galilean()
        lam = OneCochain.from_labels(g, {"b1": RatPoly((0, 0, Fraction(5, 3))), "tau": 2})
        assert lam.components[g.index("b1")].degree == 2

    def test_no_time_generator_unconstrained(self):
        ps = phase_space(2)
        OneCochain(ps, [RatPoly.t()] * ps.dim)  # must not raise


class TestCoboundary:
    def test_translation_component_feeds_boost_time_entry(self):
        g = galilean()
        c = Fraction(7, 2)
        lam = OneCochain.from_labels(g, {"b1": c})
        d = coboundary(lam)
        assert d.entry_by_labels("d1", "tau") == RatPoly.constant(-c)

    def test_zero_cochain(self):
        assert coboundary(OneCochain.zero(galilean())).is_zero()

    def test_phase_space_constant_lambda(self):
        ps = phase_space(3)
        lam = OneCochain(ps, [RatPoly.constant(k) for k in range(ps.dim)])
        assert coboundary(lam).is_zero()

    def test_time_dependent_boost_component(self):
        # entry(d1, tau) picks up the pullback derivative of Lam_d1
        g = galilean()
        lam = OneCochain.from_labels(g, {"d1": RatPoly.t()})
        d = coboundary(lam)
        assert d.entry_by_labels("d1", "tau") == RatPoly.constant(1)

    @settings(max_examples=25)
    @given(st.data())
    def test_coboundaries_are_cocycles(self, data):
        for alg in (galilean(), milne(1), milne(2), milne(3),
                    phase_space(1), phase_space(2), phase_space(3)):
            lam = data.draw(constrained_cochains(alg))
            assert is_cocycle(coboundary(lam))


class TestJacobiResidual:
    def test_time_derivative_of_mass_family(self):
        g = galilean()
        gamma = RatPoly((0, 0, 1))  # t^2
        xi = mass_family(gamma)
        r = jacobi_residual(xi, g.index("tau"), g.index("b1"), g.index("d1"))
        assert r == gamma.differentiate()

    def test_zero_cochain(self):
        g = galilean()
        assert jacobi_residual(TwoCochain.zero(g), 0, 4, 7).is_zero()

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError):
            jacobi_residual(TwoCochain.zero(galilean()), 1, 1, 2)

    def test_out_of_range_indices_are_refused(self):
        xi = mass_family(RatPoly.t())
        for triple in ((0, 1, 99), (-1, 4, 7), (0, 1, 10)):
            with pytest.raises(ValueError, match="^entry index out of range"):
                jacobi_residual(xi, *triple)
        assert not jacobi_residual(xi, 9, 3, 6).is_zero()  # (tau, b1, d1)

    @settings(max_examples=20)
    @given(st.data())
    def test_alternating_in_indices(self, data):
        alg = galilean()
        xi = data.draw(random_two_cochains(alg))
        i, j, k = 2, 5, 9
        base = jacobi_residual(xi, i, j, k)
        for perm in itertools.permutations((i, j, k)):
            sign = 1
            inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                             if perm[a] > perm[b])
            if inversions % 2:
                sign = -1
            assert jacobi_residual(xi, *perm) == sign * base

    @settings(max_examples=20)
    @given(st.data())
    def test_classical_cyclic_sum_without_time(self, data):
        # with no time generator the residual must equal the plain cyclic sum
        for alg in (phase_space(2), heisenberg()):
            xi = data.draw(random_two_cochains(alg))
            n = alg.dim
            for (i, j, k) in itertools.combinations(range(n), 3):
                cyc = RatPoly.zero()
                for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in alg.bracket_basis(p, q):
                        cyc = cyc + xi.entry(m, r) * c
                assert jacobi_residual(xi, i, j, k) == cyc


class TestIsCocycle:
    def test_zero(self):
        assert is_cocycle(TwoCochain.zero(milne(2)))

    def test_constant_isotropic_mass(self):
        assert is_cocycle(mass_family(RatPoly.constant(Fraction(5, 2))))

    def test_time_dependent_mass_fails(self):
        assert not is_cocycle(mass_family(RatPoly.t()))

    def test_anisotropic_mass_fails(self):
        xi = TwoCochain.from_labels(galilean(), {("b1", "d1"): 1})
        assert not is_cocycle(xi)

    def test_a_defect_in_the_derivative_term_alone_fails(self):
        # no bracket sum reads the pair (a12, a13) of galilean, so a
        # constant there is a cocycle; t^2 there fails on one triple only,
        # (a12, a13, tau), by the derivative term -bold(tau) t^2 = 2t
        g = galilean()
        assert is_cocycle(TwoCochain.from_labels(g, {("a12", "a13"): 5}))
        bad = TwoCochain.from_labels(g, {("a12", "a13"): RatPoly.monomial(2)})
        assert not is_cocycle(bad)
        defects = {t: jacobi_residual(bad, *t)
                   for t in itertools.combinations(range(g.dim), 3)}
        a12, a13, tau = g.index("a12"), g.index("a13"), g.index("tau")
        assert {t: r for t, r in defects.items() if not r.is_zero()} == \
            {(a12, a13, tau): RatPoly((0, 2))}
        rep = classify(g).representatives[0]
        for x1, x2 in ((bad, rep), (rep, bad), (bad, bad)):
            with pytest.raises(ValueError, match="^input is not a cocycle$"):
                are_equivalent(x1, x2)


def extension_spec(alg, omega, D):
    """The spec of g + V_D, V_D = span(t^0 .. t^D) labelled t0..tD: g's
    brackets plus omega's coefficients on t^k, and [tau, t^k] = -k t^(k-1),
    tau acting on polynomials as -d/dt. A standard fact, independent of the
    cochain templates: it satisfies Jacobi iff omega is a cocycle."""
    t = ["t%d" % k for k in range(D + 1)]
    assert not set(t) & set(alg.labels)
    brackets = {(b["lhs"], b["rhs"]): list(b["out"]) for b in alg.to_dict()["brackets"]}
    for (i, j), poly in omega.nonzero_entries().items():
        out = brackets.setdefault((alg.labels[i], alg.labels[j]), [])
        out += [[t[k], str(c)] for k, c in enumerate(poly.coeffs) if c]
    if alg.time_index is not None:
        for k in range(1, D + 1):
            brackets[alg.labels[alg.time_index], t[k]] = [[t[k - 1], str(-k)]]
    return {"labels": list(alg.labels) + t, "time_generator": None,
            "brackets": [{"lhs": a, "rhs": b, "out": out} for (a, b), out in brackets.items()]}


def jacobi_accepts(spec):
    """Whether `lie`'s Jacobi scan accepts the algebra of `spec`."""
    try:
        LieAlgebra.from_dict(spec)
    except ValueError as e:
        assert str(e).startswith("jacobi fails on ")
        return False
    return True


def extension_brackets(alg, omega, D):
    """The brackets of `extension_spec` as {(a, b): {c: value}} on the
    indices of its labels, g's first, in both orders; not validated."""
    spec = extension_spec(alg, omega, D)
    index = {label: n for n, label in enumerate(spec["labels"])}
    table = {}
    for b in spec["brackets"]:
        i, j = index[b["lhs"]], index[b["rhs"]]
        table[i, j] = {index[k]: Fraction(c) for k, c in b["out"]}
        table[j, i] = {k: -v for k, v in table[i, j].items()}
    return table


def homomorphism_defects(alg, x1, x2, lam, D):
    """The basis pairs (a, b) of g + V_D on which phi(x + f) = x - lam(x) + f
    fails to carry the bracket of the extension by x1 to that of the
    extension by x2. Both brackets read [x + f, y + g] = [x, y] + x.g - y.f
    + omega(x, y), so phi is a homomorphism iff x2 = x1 + d lam with
    d lam(a, b) = a.lam(b) - b.lam(a) - lam([a, b]), `coboundary`'s sign."""
    source, target = extension_brackets(alg, x1, D), extension_brackets(alg, x2, D)
    n = alg.dim
    phi = [{a: 1} for a in range(n + D + 1)]
    for a, poly in enumerate(lam.components):
        for k, c in enumerate(poly.coeffs):
            if c:
                phi[a][n + k] = -c

    def image(vec):
        out = {}
        for a, c in vec.items():
            for b, v in phi[a].items():
                out[b] = out.get(b, 0) + c * v
        return {b: v for b, v in out.items() if v}

    def bracket(u, v):
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                for k, c in target.get((a, b), {}).items():
                    out[k] = out.get(k, 0) + x * y * c
        return {k: v for k, v in out.items() if v}

    return [(a, b) for a, b in itertools.combinations(range(n + D + 1), 2)
            if image(source.get((a, b), {})) != bracket(phi[a], phi[b])]


TIMED_ECHELON_CASES = [(name, build) for name, build in ONE_H_ECHELON_CASES
                       if not name.startswith("phase-space:")]


class TestExtensionAlgebraOracle:
    """Every representative omega builds an extension g + V_D that the
    Jacobi scan accepts; one entry moved by 1 breaks it wherever a time
    generator acts, unless that doubles omega, and is_cocycle agrees with
    the scan each time. A witness of rep ~ rep + d lambda maps the one
    extension onto the other."""

    @pytest.mark.parametrize("name, build", ONE_H_ECHELON_CASES,
                             ids=[name for name, _ in ONE_H_ECHELON_CASES])
    def test_representatives_extend_and_perturbations_break(self, name, build):
        alg = build()
        reps = classify(alg).representatives
        D = max(max(rep.max_degree() for rep in reps), 0)
        refused = 0
        for rep in reps:
            assert is_cocycle(rep) and jacobi_accepts(extension_spec(alg, rep, D))
            entries = rep.nonzero_entries()
            pair = min(entries)
            moved = TwoCochain(alg, {**entries, pair: entries[pair] + RatPoly((1,))})
            accepted = jacobi_accepts(extension_spec(alg, moved, D))
            assert is_cocycle(moved) == accepted
            refused += not accepted
        if alg.time_index is None:
            # phase space is abelian: every cochain is a cocycle
            assert refused == 0
            return
        # the move doubles a representative that is one constant entry;
        # no built-in algebra with a time generator has one
        doubled = sum(len(rep.nonzero_entries()) == 1 and rep.max_degree() == 0
                      for rep in reps)
        assert doubled == 0 or alg.name == "custom"
        assert refused == len(reps) - doubled

    @pytest.mark.parametrize("name, build", TIMED_ECHELON_CASES,
                             ids=[name for name, _ in TIMED_ECHELON_CASES])
    def test_a_witness_maps_one_extension_onto_the_other(self, name, build):
        # a coefficient of power u >= 1 of a generator other than tau moves
        # d lambda by the time-grading term -u t^(u-1) at least, so the
        # moved witness is wrong, and must fail the check
        alg = build()
        ti = alg.time_index
        rng = random.Random(name)
        for rep in classify(alg).representatives:
            comps = [RatPoly([Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                              for _ in range(rng.randint(0, 3))]) for _ in range(alg.dim)]
            comps[ti] = RatPoly.constant(comps[ti].coeff(0))
            target = rep + coboundary(OneCochain(alg, comps))
            witness = are_equivalent(rep, target).witness
            moved = list(witness.components)
            k = rng.choice([a for a in range(alg.dim) if a != ti])
            moved[k] = moved[k] + RatPoly.monomial(rng.randint(1, max(witness.max_degree(), 1)))
            moved = OneCochain(alg, moved)
            D = max(rep.max_degree(), target.max_degree(), moved.max_degree(), 1)
            assert homomorphism_defects(alg, rep, target, witness, D) == []
            assert rep + coboundary(moved) != target
            assert homomorphism_defects(alg, rep, target, moved, D)


def all_triples_templates(alg):
    """The complex's (triples, readers) from a visit of every triple
    i < j < k."""
    ti = alg.time_index
    rank = {p: n for n, p in enumerate(alg.pairs())}

    def signed(a, b, c):
        return (rank[(a, b)], c) if a < b else (rank[(b, a)], -c)

    sums = alg.cyclic_sums()
    triples, readers = {}, {}
    for triple in itertools.combinations(range(alg.dim), 3):
        i, j, k = triple
        bracket = {rank[a, b]: c for a, b, c in sums.get(triple, ())}
        deriv = next((signed(q, r, 1) for p, q, r in ((i, j, k), (j, k, i), (k, i, j))
                      if p == ti), None)
        if not bracket and deriv is None:
            continue
        scale = lcm(*(c.denominator for c in bracket.values()))
        slot = len(triples)
        triples[triple] = (
            tuple((pidx, int(c * scale)) for pidx, c in bracket.items()),
            None if deriv is None else (deriv[0], deriv[1] * scale), scale, slot)
        for pidx, c in bracket.items():
            readers.setdefault(pidx, []).append((slot, int(c * scale), 0))
        if deriv is not None:
            readers.setdefault(deriv[0], []).append((slot, deriv[1] * scale, 1))
    return triples, readers


def random_algebra(seed):
    # random structure constants, Jacobi or not, with or without a time
    # generator anywhere in the basis
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    brackets = {pair: [(rng.randrange(n), Fraction(rng.choice([-2, -1, 1, 3]),
                                                  rng.choice([1, 2, 3])))
                       for _ in range(rng.randint(1, 2))]
                for pair in itertools.combinations(range(n), 2) if rng.random() < 0.3}
    time_index = rng.choice([None] + list(range(n)))
    return LieAlgebra(["x%d" % k for k in range(n)], brackets, time_index=time_index)


def bracket_free_timed(n):
    return LieAlgebra(["x%03d" % k for k in range(n - 1)] + ["tau"], {}, time_index=n - 1)


class TestComplexTriples:
    CENTRAL_HEISENBERG = LieAlgebra(["tau", "x", "y", "z"], {(1, 2): [(3, 1)]},
                                    time_index=0, name="central-heisenberg")

    @pytest.mark.parametrize("alg", [galilean()] + [milne(m) for m in range(1, 6)]
                             + [phase_space(2), CENTRAL_HEISENBERG]
                             + [random_algebra(seed) for seed in range(12)],
                             ids=lambda alg: alg.name)
    def test_templates_match_the_all_triples_loop(self, alg):
        # the templates and their order, which orders the cocycle rows
        triples, readers = all_triples_templates(alg)
        cx = _Complex(alg)
        assert list(cx.triples.items()) == list(triples.items())
        assert list(cx.readers.items()) == list(readers.items())

    def test_wide_bracket_free_algebra_is_refused_quickly(self):
        # only the triples holding tau have a template; visiting all
        # 161,700 triples of the 100 labels took most of the refusal. Each
        # side is its fastest of three runs in this thread's CPU time,
        # collected before and without the collector during, and the sides
        # alternate: neither the heap a long test run leaves, nor other
        # threads, nor a slow spell of the machine times one side alone
        def timed(run):
            gc.collect()
            gc.disable()
            try:
                started = time.thread_time()
                run()
                return time.thread_time() - started
            finally:
                gc.enable()

        def refuse():
            with pytest.raises(ColumnLimitError,
                               match="^degree 3 needs 19800 coefficient columns on custom; "
                                     "the limit is 10000$"):
                classify(bracket_free_timed(100))

        rounds = [(timed(lambda: all_triples_templates(bracket_free_timed(100))),
                   timed(refuse)) for _ in range(3)]
        assert min(r for _, r in rounds) < min(a for a, _ in rounds) / 2
