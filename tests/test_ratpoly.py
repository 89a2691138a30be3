import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from explab.lie import LieAlgebra
from explab.ratpoly import RatPoly, as_fraction


def P(*coeffs):
    return RatPoly(coeffs)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
polys = st.lists(rationals, max_size=7).map(RatPoly)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))

    def test_zero_degree(self):
        assert RatPoly().degree == -1
        assert P(0, 0).degree == -1
        assert P(5).degree == 0

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RatPoly((0.5,))
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_bools_rejected(self):
        # bool is an int subclass; a JSON true is not the number 1
        for value in (True, False):
            with pytest.raises(TypeError):
                as_fraction(value)
            with pytest.raises(TypeError):
                RatPoly((1, value))

    def test_decimal_strings_keep_their_values(self):
        assert as_fraction("0.1") == Fraction(1, 10)
        assert as_fraction("2/5") == Fraction(2, 5)
        assert as_fraction("1e5") == 100000
        assert as_fraction("-3E-2") == Fraction(-3, 100)
        assert as_fraction("1e4299") == 10 ** 4299
        assert as_fraction("1e-4299") == Fraction(1, 10 ** 4299)
        assert as_fraction("9" * 4300) == 10 ** 4300 - 1
        assert as_fraction(-10 ** 4300 + 1) == -10 ** 4300 + 1
        assert as_fraction("1.5e4299") == 15 * 10 ** 4298

    def test_zero_denominator_is_a_value_error(self):
        for text in ("1/0", "-3/0", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                as_fraction(text)
            with pytest.raises(ValueError):
                RatPoly.from_strings(["1", text])

    def test_decimal_exponent_is_bounded(self):
        # Fraction("1e<n>") computes 10**n; "1e10000000" alone took seconds
        for text in ("1e4301", "1e-4301", "1E+4_301", "1e10000000", "1e100000000",
                     "2.5e" + "9" * 5000):
            with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
                as_fraction(text)

    def test_coefficients_beyond_4300_digits_are_refused(self):
        # CPython prints no int of more than 4300 digits; 10**4300 has 4301
        for value in ("1e4300", "1e-4300", "-1E+4300", "12e4299", "1.5e4300", "1.5e-4300",
                      10 ** 4300, -10 ** 4300, 10 ** 5000):
            with pytest.raises(ValueError, match="coefficient beyond 4300 digits"):
                as_fraction(value)
            with pytest.raises(ValueError, match="coefficient beyond 4300 digits"):
                RatPoly((1, value))

    def test_an_admitted_coefficient_round_trips_through_an_algebra(self):
        for text in ("1e4299", "-1e-4299", "9" * 4300):
            spec = {"labels": ["x", "y", "z"],
                    "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", text]]}]}
            data = LieAlgebra.from_dict(spec).to_dict()
            printed = data["brackets"][0]["out"][0][1]
            assert as_fraction(printed) == as_fraction(text)
            assert max(len(part.lstrip("-")) for part in printed.split("/")) == 4300
            assert LieAlgebra.from_dict(data).to_dict() == data
        spec["brackets"][0]["out"][0][1] = "1e4300"
        with pytest.raises(ValueError, match="coefficient beyond 4300 digits"):
            LieAlgebra.from_dict(spec)

    def test_monomial(self):
        assert RatPoly.monomial(3, Fraction(1, 2)) == P(0, 0, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            RatPoly.monomial(-1)

    def test_immutable(self):
        p = P(1, 2)
        with pytest.raises(AttributeError):
            p._coeffs = ()


class TestArithmetic:
    def test_additive_inverse(self):
        assert P(1, 1) + P(-1, -1) == RatPoly.zero()

    def test_disjoint_degrees(self):
        assert P(0, 0, 1) + P(0, 2) == P(0, 2, 1)

    def test_exact_rational_add(self):
        # 1/2 t + 1/3 t = 5/6 t
        assert P(0, Fraction(1, 2)) + P(0, Fraction(1, 3)) == P(0, Fraction(5, 6))

    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_mul_by_zero(self):
        assert P(3, 1, 4) * RatPoly.zero() == RatPoly.zero()

    def test_t_squared(self):
        assert RatPoly.t() * RatPoly.t() == P(0, 0, 1)

    def test_scalar_ops(self):
        assert 2 * P(1, 1) == P(2, 2)
        assert P(1, 1) - 1 == P(0, 1)

    @given(polys, polys)
    def test_mul_degree(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, rationals)
    def test_evaluation_is_ring_hom(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


class TestEvaluation:
    def test_root(self):
        assert P(-1, 0, 1)(1) == 0

    def test_constant(self):
        assert P(Fraction(7, 3))(Fraction(9999)) == Fraction(7, 3)

    def test_half_t_at_third(self):
        # (t/2)(1/3) = 1/6
        assert P(0, Fraction(1, 2))(Fraction(1, 3)) == Fraction(1, 6)

    def test_float_argument(self):
        v = P(1, 2)(0.5)
        assert isinstance(v, float) and abs(v - 2.0) < 1e-15

    def test_zero_poly(self):
        assert RatPoly.zero()(Fraction(3)) == 0
        assert RatPoly.zero()(1.5) == 0.0


def fraction_horner(p, t):
    """Horner on the Fraction coefficients, mixing them with a float t."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc if p.coeffs else 0.0


def bits(x):
    return struct.pack("<d", x)


# negative, zero and negative-zero arguments are where a float path could
# part from the Fraction one in sign or rounding
float_args = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -0.8]),
                       st.floats(min_value=-1e3, max_value=1e3))


class TestFloatEvaluation:
    @given(polys, float_args)
    def test_float_argument_matches_fraction_horner(self, p, t):
        value = p(t)
        assert type(value) is float
        assert bits(value) == bits(fraction_horner(p, t))
        assert bits(p(np.float64(t))) == bits(value)

    @given(polys, st.lists(float_args, max_size=9))
    def test_array_argument_matches_scalar_calls(self, p, ts):
        arr = np.array(ts, dtype=float)
        values = p(arr)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == arr.shape
        assert [bits(v) for v in values] == [bits(p(t)) for t in ts]

    def test_negative_zero(self):
        assert bits(P(0, 1)(-0.0)) == bits(0.0)
        assert bits(P(0, 0, 1)(np.array([-0.0]))[0]) == bits(0.0)

    def test_object_array_stays_exact(self):
        values = P(1, Fraction(1, 3))(np.array([Fraction(3), Fraction(1, 2)], dtype=object))
        assert list(values) == [Fraction(2), Fraction(7, 6)]


class TestCalculus:
    def test_derivative_half_t_squared(self):
        assert P(0, 0, Fraction(1, 2)).differentiate() == RatPoly.t()

    def test_derivative_constant(self):
        assert P(9).differentiate() == RatPoly.zero()

    def test_derivative_quadratic_family(self):
        g1, g2, g3 = Fraction(3, 2), Fraction(-4), Fraction(7, 5)
        p = P(g3, g2, g1 / 2)
        assert p.differentiate() == P(g2, g1)

    @given(polys)
    def test_degree_drop(self, p):
        if p.degree >= 1:
            assert p.differentiate().degree == p.degree - 1

    @given(polys, polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).differentiate()
        rhs = p.differentiate() * q + p * q.differentiate()
        assert lhs == rhs


class TestSerialization:
    def test_strings(self):
        p = P(Fraction(1, 2), -3, 0, Fraction(2, 7))
        assert p.to_strings() == ["1/2", "-3", "0", "2/7"]
        assert RatPoly.from_strings(p.to_strings()) == p

    def test_from_strings_refuses_inexact_items(self):
        # JSON 0.1 is a float; read through Fraction it would become
        # 3602879701896397/36028797018963968
        for item in (0.1, True):
            with pytest.raises(TypeError):
                RatPoly.from_strings(["1", item])
        assert RatPoly.from_strings(["0.1"]) == P(Fraction(1, 10))
        with pytest.raises(TypeError):
            RatPoly.from_strings("12")  # not 1 + 2t

    def test_from_strings_reads_only_a_list_or_tuple(self):
        # a dict iterates its keys, a set in no fixed order
        for items in ({"1/2": 0, "7": 1}, {"1", "2"}, iter(["1"]), 3):
            with pytest.raises(TypeError, match="^a list of coefficient strings expected"):
                RatPoly.from_strings(items)
        assert RatPoly.from_strings(("1/2", "7")) == P(Fraction(1, 2), 7)

    def test_no_denominator_one(self):
        assert P(4).to_strings() == ["4"]

    @given(polys)
    def test_roundtrip(self, p):
        assert RatPoly.from_strings(p.to_strings()) == p

    def test_str_form(self):
        assert str(P(1, -1)) == "1 - t"
        assert str(RatPoly.zero()) == "0"
        assert str(P(0, 0, Fraction(1, 2))) == "1/2*t^2"
