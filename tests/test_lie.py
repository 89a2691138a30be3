import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from explab.classify import classify
from explab.lie import (MAX_INDEX_DIGITS, JacobiViolation, LieAlgebra, Role, family_index,
                        galilean, milne, phase_space)
from test_classify import rescaled_copy


def unit(alg, label):
    v = [Fraction(0)] * alg.dim
    v[alg.index(label)] = Fraction(1)
    return v


def bracket_labels(alg, l1, l2):
    """Bracket of two basis generators as a {label: coeff} dict."""
    out = alg.bracket(unit(alg, l1), unit(alg, l2))
    return {alg.labels[k]: c for k, c in enumerate(out) if c != 0}


def rational_vectors(alg):
    coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.lists(coeff, min_size=alg.dim, max_size=alg.dim)


class TestGalilean:
    def test_dim(self):
        assert galilean().dim == 10

    def test_boost_time(self):
        assert bracket_labels(galilean(), "d1", "tau") == {"b1": 1}

    def test_rotation_translation(self):
        assert bracket_labels(galilean(), "a12", "b2") == {"b1": 1}

    def test_translation_time(self):
        assert bracket_labels(galilean(), "b1", "tau") == {}

    def test_translations_commute(self):
        assert bracket_labels(galilean(), "b1", "b2") == {}

    def test_boost_translation_commute(self):
        assert bracket_labels(galilean(), "b1", "d1") == {}

    def test_rotation_rotation(self):
        g = galilean()
        assert bracket_labels(g, "a12", "a13") == {"a23": -1}
        assert bracket_labels(g, "a12", "a23") == {"a13": 1}
        assert bracket_labels(g, "a13", "a23") == {"a12": -1}

    def test_valid(self):
        assert galilean().validate() == []

    def test_time_index(self):
        g = galilean()
        assert g.labels[g.time_index] == "tau"


class TestMilne:
    def test_dims(self):
        for m in range(1, 5):
            assert milne(m).dim == 3 * m + 7

    def test_acceleration_ladder(self):
        g = milne(2)
        assert bracket_labels(g, "d2_1", "tau") == {"d1_1": 1}
        assert bracket_labels(g, "d1_3", "tau") == {"d0_3": 1}
        assert bracket_labels(g, "d0_1", "tau") == {}

    def test_accelerations_commute(self):
        g = milne(3)
        assert bracket_labels(g, "d0_1", "d3_2") == {}
        assert bracket_labels(g, "d2_2", "d2_3") == {}

    def test_rotation_acts_on_each_level(self):
        g = milne(2)
        assert bracket_labels(g, "a13", "d2_3") == {"d2_1": 1}
        assert bracket_labels(g, "a13", "d2_1") == {"d2_3": -1}

    def test_valid(self):
        for m in range(1, 5):
            assert milne(m).validate() == []

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            milne(0)

    def test_nested_structure(self):
        big, small = milne(3), milne(2)
        for l1 in small.labels:
            for l2 in small.labels:
                assert bracket_labels(small, l1, l2) == bracket_labels(big, l1, l2)


class TestRoles:
    """Every bracket the role table predicts is in the structure constants."""

    @pytest.mark.parametrize("alg", [galilean()] + [milne(m) for m in range(1, 5)],
                             ids=lambda alg: alg.name)
    def test_roles_match_structure_constants(self, alg):
        roles = alg.roles
        at = {r: k for k, r in enumerate(roles)}
        assert len(at) == alg.dim
        assert roles[alg.time_index] == Role("time")
        tau = alg.time_index

        def bracket(i, j):
            return dict(alg.bracket_basis(i, j))

        for k, r in enumerate(roles):
            if r.kind == "boost":
                assert bracket(k, tau) == {at[Role("translation", r.axes)]: 1}
            elif r.kind == "translation" or (r.kind == "acceleration" and r.level == 0):
                assert bracket(k, tau) == {}
            elif r.kind == "acceleration":
                below = Role("acceleration", r.axes, r.level - 1)
                assert bracket(k, tau) == {at[below]: 1}
            if r.kind in ("translation", "boost", "acceleration"):
                (axis,) = r.axes
                for rot in (q for q in roles if q.kind == "rotation"):
                    i, j = rot.axes
                    # [a_ij, v_k] = d_jk v_i - d_ik v_j
                    want = {}
                    if j == axis:
                        want[at[r._replace(axes=(i,))]] = 1
                    if i == axis:
                        want[at[r._replace(axes=(j,))]] = -1
                    assert bracket(at[rot], k) == want

    def test_galilean_is_milne_of_order_one(self):
        gal, mil = galilean(), milne(1)
        assert gal.time_index == mil.time_index
        for i, j in itertools.product(range(gal.dim), repeat=2):
            assert gal.bracket_basis(i, j) == mil.bracket_basis(i, j)

    def test_other_algebras_have_no_roles(self):
        for alg in (phase_space(2), LieAlgebra.from_dict(milne(1).to_dict())):
            assert alg.roles == (None,) * alg.dim


class TestBuiltinTables:
    """The built-in bracket tables and roles, byte for byte."""

    # sha256 of json.dumps(alg.to_dict(), sort_keys=True) and of json.dumps(alg.roles)
    DIGESTS = {
        "galilean": ("fa9b949fbfc837bed3155b634322dee0aca7d0509347b333103bc76c9b912667",
                     "2776f297554cad2a72852306461bf032864472d75831b3c99daec9660f605cf5"),
        "milne:1": ("e1604f794f47a10f382f25a6397fc4d994dae6719caabc617ae2f2af66db79b0",
                    "1d80668c766e6c6db913a801a6c07ae5cfcc693ce5b7d360b787e0de61ec129e"),
        "milne:2": ("3a646d8e1c59a79a5beb1d07781b118307e2a0f427f4098cdbb83859461b6a2d",
                    "1f7c5beb857f5c8cbb193c54bf0a5ca362ad01d0376459f9f8bb02a7757b6768"),
        "milne:3": ("b9d496be0635cd7165b29af6b8b1c8e6fe425475726ae8cf0c3db96fb4d0c776",
                    "2aa76ec2504283823df1671f9bf510b35f533475fb44c8721f249091018bdd20"),
        "milne:4": ("d29e72c4a7394930858edaf9c64c251a30fda3d6da6bb838ff115b8473b2cf5a",
                    "b3a07102c129d17c239d699f6c82322c64fb52753b106f61530b83f71e6d1c2b"),
        "milne:5": ("25bfac9dbe2280d2b21cc4af96fdff9033ad4f4bb88e796bb2fd724212c86a2e",
                    "808bc3cdf451943c991dcb0d14749fd53635b38b3aec40957190b36e88ce06fd"),
        "milne:6": ("cfb36e3c49c93dce566e7119726ab80c10ebcd4e6c6ac49adfa37e1253ddb2fc",
                    "812907a9a181c85bfa83e4a696999a5ad30ebec4963b1b30cc5e1bd87e080aa4"),
        "milne:7": ("7ced3e580ecd455a8539059c0d1d9d03af82f8c876c881a686057515ae2278d2",
                    "379b90270f226363231607d6e76bada03deaa5cb7a86a29e9cfd77eead797ae4"),
        "milne:8": ("8046068cc9b7f30ca68c44ab426a4d325d41cdcf0ffa2bac74913144929207e9",
                    "6eca34e24fe0d457474faeb1053ac20a43d6621e12ea155961d711122f20dfb3"),
        "phase-space:1": ("314650e64d851a2afe03411973fbc7fb4025fd87fcf902e3c3efa331a477de98",
                          "6d9695b0f6f0de8c737c15a199b1658001af6e4ef0d756109efffbd0c69ad4c9"),
        "phase-space:2": ("9f89962eeb0d6d72389451e13c4cc3d74dfc8b33204977f25f422316c5b20bd8",
                          "f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0"),
        "phase-space:3": ("d46deabde10b07a8c10f666682854a01d1cb1aba86d610fea249e34a8c953f90",
                          "bab8e165016b9e9afecb2009351f146d2b1d4e9df427f621eb9d7eca0328f0e9"),
    }

    @pytest.mark.parametrize("alg", [galilean()] + [milne(m) for m in range(1, 9)]
                             + [phase_space(n) for n in range(1, 4)], ids=lambda alg: alg.name)
    def test_table_and_roles_are_pinned(self, alg):
        def digest(value, **kw):
            return hashlib.sha256(json.dumps(value, **kw).encode()).hexdigest()
        assert (digest(alg.to_dict(), sort_keys=True), digest(alg.roles)) == self.DIGESTS[alg.name]
        # to_dict prints Fraction(1) as 1 too: the table itself holds ints
        assert all(type(c) is int for i, j in alg.pairs() for _, c in alg.bracket_basis(i, j))


class TestPhaseSpace:
    def test_dim(self):
        assert phase_space(1).dim == 2
        assert phase_space(3).dim == 6

    def test_abelian(self):
        g = phase_space(2)
        for l1 in g.labels:
            for l2 in g.labels:
                assert bracket_labels(g, l1, l2) == {}

    def test_valid(self):
        assert phase_space(3).validate() == []

    def test_no_time(self):
        assert phase_space(2).time_index is None


class TestBracketProperties:
    @settings(max_examples=40)
    @given(st.data())
    def test_antisymmetry_and_jacobi(self, data):
        # Jacobi on random vectors is an independent check of the tables:
        # validate() walks structure constants, this walks bracket().
        for alg in (galilean(), milne(2), phase_space(2)):
            x = data.draw(rational_vectors(alg))
            y = data.draw(rational_vectors(alg))
            z = data.draw(rational_vectors(alg))
            assert alg.bracket(x, x) == [0] * alg.dim
            xy = alg.bracket(x, y)
            yx = alg.bracket(y, x)
            assert [a + b for a, b in zip(xy, yx)] == [0] * alg.dim
            cyc = [
                sum(col) for col in zip(
                    alg.bracket(alg.bracket(x, y), z),
                    alg.bracket(alg.bracket(y, z), x),
                    alg.bracket(alg.bracket(z, x), y),
                )
            ]
            assert cyc == [0] * alg.dim

    @settings(max_examples=40)
    @given(st.data())
    def test_bilinearity(self, data):
        alg = galilean()
        x = data.draw(rational_vectors(alg))
        y = data.draw(rational_vectors(alg))
        z = data.draw(rational_vectors(alg))
        c = Fraction(data.draw(st.integers(min_value=-5, max_value=5)))
        lhs = alg.bracket([c * a + b for a, b in zip(x, y)], z)
        xz = alg.bracket(x, z)
        yz = alg.bracket(y, z)
        assert lhs == [c * a + b for a, b in zip(xz, yz)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            galilean().bracket([0] * 3, [0] * 10)


class TestValidateCatchesCorruption:
    def test_flipped_structure_constant(self):
        data = galilean().to_dict()
        for entry in data["brackets"]:
            if entry["lhs"] == "d1" and entry["rhs"] == "tau":
                entry["out"] = [["b2", "1"]]
        with pytest.raises(ValueError, match="jacobi"):
            LieAlgebra.from_dict(data)

    def test_violation_report_contents(self):
        data = galilean().to_dict()
        for entry in data["brackets"]:
            if entry["lhs"] == "d1" and entry["rhs"] == "tau":
                entry["out"] = [["b2", "1"]]
        idx = {s: i for i, s in enumerate(data["labels"])}
        raw = {}
        for entry in data["brackets"]:
            raw[(idx[entry["lhs"]], idx[entry["rhs"]])] = [
                (idx[lab], Fraction(c)) for lab, c in entry["out"]]
        alg = LieAlgebra(data["labels"], raw, time_index=idx["tau"])
        bad = alg.validate()
        assert bad
        # the defect must surface on a triple containing a rotation
        rot = {idx["a12"], idx["a13"], idx["a23"]}
        assert any({v.i, v.j, v.k} & rot for v in bad)


def iter_fraction_violations(alg):
    """validate() from bracket() on basis vectors, in Fractions throughout:
    per triple i < j < k and output l, the l-component of
    [[a_i, a_j], a_k] + [[a_j, a_k], a_i] + [[a_k, a_i], a_j] where nonzero."""
    def e(k):
        return [Fraction(int(n == k)) for n in range(alg.dim)]

    for i, j, k in itertools.combinations(range(alg.dim), 3):
        cyc = [sum(col, Fraction(0)) for col in zip(
            alg.bracket(alg.bracket(e(i), e(j)), e(k)),
            alg.bracket(alg.bracket(e(j), e(k)), e(i)),
            alg.bracket(alg.bracket(e(k), e(i)), e(j)))]
        yield from (JacobiViolation(i, j, k, l, v) for l, v in enumerate(cyc) if v)


def fraction_violations(alg):
    return list(iter_fraction_violations(alg))


def random_structure_constants(seed, denominators):
    # Jacobi or not; coefficients over the given denominators
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    brackets = {pair: [(rng.randrange(n), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                  rng.choice(denominators)))
                       for _ in range(rng.randint(1, 3))]
                for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5}
    return LieAlgebra(["x%d" % k for k in range(n)], brackets,
                      name="random-%d-%s" % (seed, max(denominators)))


class TestValidateOracle:
    # integral structure constants are multiplied as ints, rational ones
    # as Fractions; every residual is reported as a Fraction either way
    @pytest.mark.parametrize(
        "alg",
        [galilean(), milne(2), phase_space(2)]
        + [random_structure_constants(seed, [1]) for seed in range(6)]
        + [rescaled_copy(galilean()), rescaled_copy(milne(2))]
        + [random_structure_constants(seed, [1, 2, 3]) for seed in range(6)],
        ids=lambda alg: alg.name)
    def test_validate_matches_a_fraction_oracle(self, alg):
        got, want = alg.validate(), fraction_violations(alg)
        assert got == want
        assert all(type(v.residual) is Fraction for v in got)
        assert [v.describe(alg) for v in got] == [v.describe(alg) for v in want]

    def test_random_tables_break_jacobi(self):
        # the oracle is compared on violations, not only on empty lists
        assert all(random_structure_constants(seed, d).validate()
                   for seed in range(6) for d in ([1], [1, 2, 3]))


def dense_invalid_table(n):
    """The seeded dense table that CI refuses: n labels, every bracket with
    all n outputs in +-{1, 2, 3}; it breaks Jacobi on its first triple."""
    rng = random.Random(0)
    labels = ["x%02d" % k for k in range(n)]
    brackets = {(a, b): [(c, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))) for c in range(n)]
                for a in range(n) for b in range(a + 1, n)}
    return LieAlgebra(labels, brackets, name="dense-%d" % n)


def require_valid_error(alg):
    with pytest.raises(ValueError) as raised:
        alg._require_valid()
    return str(raised.value)


class TestRequireValidStopsEarly:
    # the refusal names validate()'s first violation without the others
    @pytest.mark.parametrize(
        "build",
        [functools.partial(random_structure_constants, seed, d)
         for seed in range(6) for d in ([1], [1, 2, 3])]
        + [functools.partial(dense_invalid_table, 10)],
        ids=lambda build: build().name)
    def test_error_is_the_first_violation(self, build):
        alg = build()
        error = require_valid_error(alg)
        assert alg.validate() == fraction_violations(alg)
        assert error == alg.validate()[0].describe(alg)
        fresh = build()
        assert fresh.validate() == fraction_violations(fresh)
        assert require_valid_error(fresh) == error

    def test_dense_table_is_refused_at_its_first_triple(self, monkeypatch):
        alg = dense_invalid_table(40)
        first = next(iter_fraction_violations(alg))
        assert (first.i, first.j, first.k) == (0, 1, 2)
        contracted = []
        violations = LieAlgebra._jacobi_violations

        def spy(self):
            for v in violations(self):
                contracted.append(v)
                yield v

        monkeypatch.setattr(LieAlgebra, "_jacobi_violations", spy)
        assert require_valid_error(alg) == first.describe(alg)
        assert contracted == [first]

    def test_a_clean_scan_is_kept_for_validate(self, monkeypatch):
        calls = []
        jacobi = LieAlgebra._jacobi_violations
        monkeypatch.setattr(LieAlgebra, "_jacobi_violations",
                            lambda alg: calls.append(alg) or jacobi(alg))
        g = galilean()
        g._require_valid()
        g._require_valid()
        assert g.validate() == []
        assert calls == [g]

    @pytest.mark.parametrize("build, error", [
        (galilean, None),
        (lambda: LieAlgebra(["tau", "x", "y"], {(1, 2): [(0, 1)]}, time_index=0),
         "bracket [x, y] has a component along the time generator tau, "
         "so polynomials in t are not a module of the algebra")],
        ids=["clean", "time-component"])
    def test_a_second_call_does_not_scan_the_table_again(self, build, error):
        class Table(dict):
            def items(self):
                scans.append(self)
                return super().items()

        def refusal(alg):
            if error is None:
                alg._require_valid()
                return None
            return require_valid_error(alg)

        alg = build()
        scans = []
        alg._table = Table(alg._table)
        assert refusal(alg) == error
        assert scans  # the first call scans for a time component
        del scans[:]
        assert [refusal(alg) for _ in range(3)] == [error] * 3
        assert scans == []
        assert refusal(build()) == error


def all_triples_cyclic_sums(alg):
    """The cyclic sums from a visit of every triple i < j < k."""
    out = {}
    for triple in itertools.combinations(range(alg.dim), 3):
        i, j, k = triple
        acc = {}
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in alg.bracket_basis(p, q):
                if m != r:
                    pair, s = ((m, r), c) if m < r else ((r, m), -c)
                    acc[pair] = acc.get(pair, 0) + s
        terms = tuple((a, b, c.numerator if c.denominator == 1 else c)
                      for (a, b), c in acc.items() if c)
        if terms:
            out[triple] = terms
    return out


class TestCyclicSums:
    @pytest.mark.parametrize("seed", range(8))
    def test_sums_match_the_all_triples_loop(self, seed):
        # random structure constants, Jacobi or not: the sums and their
        # lexicographic order, which names the first Jacobi violation
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        brackets = {pair: [(rng.randrange(n), Fraction(rng.choice([-2, -1, 1, 3]),
                                                      rng.choice([1, 2])))
                           for _ in range(rng.randint(1, 2))]
                    for pair in itertools.combinations(range(n), 2) if rng.random() < 0.3}
        alg = LieAlgebra(["x%d" % k for k in range(n)], brackets)
        want = all_triples_cyclic_sums(alg)
        got = alg.cyclic_sums()
        assert got == want and list(got) == list(want)

    def test_bracket_free_algebra_visits_no_triple(self):
        alg = LieAlgebra(["x%03d" % k for k in range(101)], {})
        started = time.perf_counter()
        assert alg.validate() == [] and alg.cyclic_sums() == {}
        assert time.perf_counter() - started < 0.1

    def test_sums_are_dropped_once_the_complex_has_read_them(self):
        alg = milne(5)
        classify(alg)
        assert "cyclic sums" not in alg._memo


def collected_cyclic_sums(alg):
    """The cyclic sums as one dict, summed before any is read: the form
    that the streamed scan replaced."""
    triples = {tuple(sorted((i, j, k))) for i, j in alg._table
               for k in range(alg.dim) if k != i and k != j}
    out = {}
    for triple in sorted(triples):
        i, j, k = triple
        acc = {}
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in alg.bracket_basis(p, q):
                if m != r:
                    c = c.numerator if c.denominator == 1 else c
                    pair, s = ((m, r), c) if m < r else ((r, m), -c)
                    acc[pair] = acc.get(pair, 0) + s
        terms = tuple((a, b, c.numerator if c.denominator == 1 else c)
                      for (a, b), c in acc.items() if c)
        if terms:
            out[triple] = terms
    return out


def count_drawn_sums(monkeypatch):
    """Patch LieAlgebra._iter_cyclic_sums to count the scans and the sums drawn."""
    drawn = {"scans": 0, "sums": 0}
    stream = LieAlgebra._iter_cyclic_sums

    def counted(alg):
        drawn["scans"] += 1
        for item in stream(alg):
            drawn["sums"] += 1
            yield item

    monkeypatch.setattr(LieAlgebra, "_iter_cyclic_sums", counted)
    return drawn


class TestStreamedJacobiScan:
    @pytest.mark.parametrize("build", [galilean, functools.partial(milne, 3)]
                             + [functools.partial(random_structure_constants, seed, d)
                                for seed in range(6) for d in ([1], [1, 2, 3])],
                             ids=lambda build: build().name)
    def test_sums_equal_the_collected_form(self, build):
        want = collected_cyclic_sums(build())
        got = build().cyclic_sums()
        assert got == want and list(got) == list(want)
        # and the same dict when a full Jacobi scan collected it
        scanned = build()
        scanned.validate()
        assert list(scanned._memo["cyclic sums"].items()) == list(want.items())

    def test_a_clean_scan_keeps_the_sums_it_built(self, monkeypatch):
        drawn = count_drawn_sums(monkeypatch)
        alg = milne(2)
        alg._require_valid()
        assert alg._memo["cyclic sums"] == collected_cyclic_sums(alg)
        kept = alg._memo["cyclic sums"]
        assert alg.cyclic_sums() is kept and alg.validate() == []
        assert drawn == {"scans": 1, "sums": len(kept)}

    def test_a_scan_after_cyclic_sums_streams_again(self, monkeypatch):
        alg = random_structure_constants(3, [1, 2, 3])
        want = alg.cyclic_sums()
        drawn = count_drawn_sums(monkeypatch)
        assert alg.validate() == fraction_violations(alg)
        assert drawn == {"scans": 1, "sums": len(want)}
        assert alg.cyclic_sums() == want

    def test_dense_table_builds_only_its_first_triple(self, monkeypatch):
        drawn = count_drawn_sums(monkeypatch)
        alg = dense_invalid_table(40)
        assert require_valid_error(alg).startswith("jacobi fails on (x00,x01,x02)")
        assert drawn == {"scans": 1, "sums": 1}
        assert "cyclic sums" not in alg._memo


class TestSerialization:
    def test_roundtrip(self):
        for alg in (galilean(), milne(2), phase_space(2)):
            again = LieAlgebra.from_dict(alg.to_dict(), name=alg.name)
            assert again.labels == alg.labels
            assert again.time_index == alg.time_index
            for l1 in alg.labels:
                for l2 in alg.labels:
                    assert bracket_labels(again, l1, l2) == bracket_labels(alg, l1, l2)

    def test_reversed_pair_normalized(self):
        data = {
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "y", "rhs": "x", "out": [["z", "-1"]]}],
            "time_generator": None,
        }
        alg = LieAlgebra.from_dict(data)
        assert bracket_labels(alg, "x", "y") == {"z": 1}

    def test_duplicate_pair_rejected(self):
        data = {
            "labels": ["x", "y"],
            "brackets": [
                {"lhs": "x", "rhs": "y", "out": []},
                {"lhs": "y", "rhs": "x", "out": []},
            ],
            "time_generator": None,
        }
        with pytest.raises(ValueError, match="twice"):
            LieAlgebra.from_dict(data)

    @pytest.mark.parametrize("labels", [[None, 2, "tau"], ["x", b"y"], ["x", 1.5]])
    def test_non_string_labels_rejected_at_both_doors(self, labels):
        # the library door refuses what from_dict refuses, not str() of it
        with pytest.raises(ValueError, match="^labels must be strings$"):
            LieAlgebra(labels, {}, time_index=len(labels) - 1)
        with pytest.raises(ValueError, match="^labels must be a list of strings$"):
            LieAlgebra.from_dict({"labels": labels, "brackets": []})

    def test_unknown_labels_rejected(self):
        data = {"labels": ["x"], "brackets": [], "time_generator": "nope"}
        with pytest.raises(ValueError):
            LieAlgebra.from_dict(data)

    def test_rational_coefficients_survive(self):
        data = {
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "2/3"]]}],
            "time_generator": None,
        }
        alg = LieAlgebra.from_dict(data)
        assert bracket_labels(alg, "x", "y") == {"z": Fraction(2, 3)}


class TestFamilySpecs:
    def test_index_of_each_family(self):
        assert family_index("milne:3", "milne") == 3
        assert family_index("phase-space:2", "phase-space") == 2

    def test_other_specs_are_not_parsed(self):
        for spec in ("galilean", "phase-space:2", "milne", "my-milne:3.json"):
            assert family_index(spec, "milne") is None

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match=r"^phase-space index must be >= 1$"):
            family_index("phase-space:0", "phase-space")
        with pytest.raises(ValueError, match=r"expected phase-space:<integer>"):
            family_index("phase-space:two", "phase-space")

    @pytest.mark.parametrize("index", ["1_0", " 2", "2 ", "+2", "\u0663", "\u00b2", "", "-1"])
    def test_index_is_ascii_digits_only(self, index):
        # int() would read these as 10, 2, 2, 2, 3, an error, an error and -1
        with pytest.raises(ValueError, match=r"^bad index in .*: expected milne:<integer>$"):
            family_index("milne:" + index, "milne")

    def test_leading_zeros_are_digits(self):
        assert family_index("milne:03", "milne") == 3
        assert family_index("milne:" + "0" * 5000 + "3", "milne") == 3
        with pytest.raises(ValueError, match=r"^milne index must be >= 1$"):
            family_index("milne:" + "0" * 5000, "milne")

    def test_index_digits_are_bounded_before_int_reads_them(self):
        largest = "9" * MAX_INDEX_DIGITS
        assert family_index("milne:" + largest, "milne") == int(largest)
        for digits in ("1" + "0" * MAX_INDEX_DIGITS, "9" * 5000):
            with pytest.raises(ValueError) as raised:
                family_index("phase-space:" + digits, "phase-space")
            assert str(raised.value) == "phase-space index has more than 9 digits"
