from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from explab.lie import LieAlgebra, Role, galilean, milne, phase_space


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

    def test_other_algebras_have_no_roles(self):
        for alg in (phase_space(2), LieAlgebra.from_dict(milne(1).to_dict())):
            assert alg.roles == (None,) * alg.dim


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
