"""The one text grammar of field elements, polynomials and points (``gf.text_terms``).

The oracle draws terms as data, renders them to text in varied ways, and compares what the
parsers make of the text with the value built by field arithmetic and the polynomial built
through the constructor and ``+``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strangeci.errors import InvalidInputError, ParseError
from strangeci.geometry import parse_point
from strangeci.gf import make_field, text_terms
from strangeci.hompoly import HomogeneousPolynomial, parse_poly

F2, F3, F5, F4, F8, F9 = (make_field(p, m) for p, m in [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
FIELDS = [F2, F3, F5, F4, F8, F9]


def space(draw) -> str:
    return draw(st.sampled_from(["", "", "", " ", "  ", "\t"]))


def sign_run(draw, sign: int, first: bool) -> str:
    """Signs multiplying to ``sign``; empty only before the first term."""
    minus = 2 * draw(st.integers(0, 1)) + (sign < 0)
    plus = draw(st.integers(0 if first or minus else 1, 2))
    return "".join(draw(st.permutations("-" * minus + "+" * plus)))


def product(draw, factors: list[str]) -> str:
    """The factors in any order, joined by '*' with whitespace about it."""
    return "*".join(space(draw) + f + space(draw) for f in draw(st.permutations(factors)))


@st.composite
def elements(draw, F):
    """(text, value): terms sign * c * t^k drawn as data, the value summed with FieldElement."""
    t = F.element(F.p) if F.m > 1 else None  # x encodes as p
    value, parts = F.zero, []
    for i in range(draw(st.integers(1, 3))):
        sign, c, k = draw(st.sampled_from([1, -1])), draw(st.integers(0, 3 * F.p)), draw(st.integers(0, F.m - 1))
        value = value + (t**k if k else F.one) * (sign * c)
        factors = [] if c == 1 and k and draw(st.booleans()) else [str(c)]
        if k:  # t^k as one factor, or as k factors t
            factors += draw(st.sampled_from([[f"t^{k}"], ["t"] * k]))
        elif F.m > 1 and draw(st.booleans()):
            factors.append("t^0")
        parts.append(sign_run(draw, sign, i == 0) + space(draw) + product(draw, factors or ["1"]))
    return "".join(parts), value


@st.composite
def polynomials(draw):
    """(F, n_vars, text, expected): terms (sign, coefficient, exponent vector) drawn as data."""
    F, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    expected, parts = HomogeneousPolynomial.zero(F, n, d), []
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([1, -1]))
        exps = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)):
            exps[j] += 1
        if F.m > 1 and draw(st.booleans()):  # an (element) coefficient
            elem_text, value = draw(elements(F))
            coeff, factors = (value if sign > 0 else -value).val, [f"({elem_text})"]
        else:
            c = draw(st.integers(0, 3 * F.p))
            coeff, factors = sign * c % F.p, [] if c == 1 and d and draw(st.booleans()) else [str(c)]
        for j, e in enumerate(exps):
            if e:  # z_j^e as one factor, or as e factors z_j, with whitespace inside
                factors += draw(st.sampled_from([[f"z{space(draw)}{j}^{space(draw)}{e}"], [f"z{j}"] * e]))
        expected = expected + HomogeneousPolynomial(F, n, d, {tuple(exps): coeff})
        parts.append(sign_run(draw, sign, i == 0) + space(draw) + product(draw, factors))
    return F, n, "".join(parts), expected


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_element_text(self, data):
        F = data.draw(st.sampled_from(FIELDS))
        text, value = data.draw(elements(F))
        assert F.parse(text) == value.val

    @settings(max_examples=300, deadline=None)
    @given(polynomials())
    def test_polynomial_text(self, case):
        F, n, text, expected = case
        assert parse_poly(text, F, n) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="zt0123456789^*+-() :@GF٣_\t", max_size=16), st.sampled_from(FIELDS))
    def test_any_text_raises_only_input_errors(self, text, F):
        """ParseError and HomogeneityError are InvalidInputErrors: nothing else escapes."""
        for parse in (F.parse, lambda s: parse_poly(s, F, 3), lambda s: parse_point(s, F)):
            try:
                parse(text)
            except InvalidInputError:
                pass


class TestGrammar:
    def test_terms_and_factors(self):
        assert text_terms("-+- 2*z1^3 * (t+1) -- z0", "z") == [(1, [2, (1, 3), "t+1"]), (1, [(0, 1)])]
        assert text_terms("-t", "t") == [(-1, [(None, 1)])]

    @pytest.mark.parametrize(
        "field, text, value",
        [
            (F9, "t*2", 6),  # factors in any order, as in polynomials
            (F3, "--1", 1),  # sign runs, as in polynomials
            (F4, "-+-t", 2),
            (F5, "2*3", 1),
            (F8, "t*t", 4),
            (F4, "1 +\tt", 3),  # any whitespace
        ],
    )
    def test_elements_now_accepted(self, field, text, value):
        assert field.parse(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "t^", "t^x", "t^-1", "*t",  # raised ValueError before
            "1+", "+", "t*", "t**t",  # trailing, lone or doubled operators
            "٣", "1_0",  # digits other than ASCII
            "t^2", "t*t*t",  # unreduced over GF(4)
            "t0", "(t)", "2t", "",
        ],
    )
    def test_elements_rejected(self, text):
        with pytest.raises(ParseError):
            F4.parse(text)

    def test_prime_field_has_no_t(self):
        with pytest.raises(ParseError, match="may hold only integers$"):
            F3.parse("0*t")

    @pytest.mark.parametrize(
        "text",
        [
            "z0*", "z0^2+", "z0-", "z0*+z1",  # trailing operators
            "*z0", "z0**z1",  # leading or doubled '*'
            "٣*z0", "z٠", "z0^٢",  # digits other than ASCII
            "z0^1234567890", "z", "z0z1", "2z0", "(t)z0", "((t))*z0", "(t+1*z0", "x0", "",
        ],
    )
    def test_polynomials_rejected(self, text):
        with pytest.raises(ParseError):
            parse_poly(text, F4, 2)

    def test_polynomial_semantics(self):
        assert parse_poly("0", F3, 2).is_zero() and parse_poly("0", F3, 2).degree == 0
        assert parse_poly("z1 * 2 * z0 -- 4*z0*z1", F5, 2).terms == {(1, 1): 1}
        with pytest.raises(InvalidInputError):
            parse_poly("z0", F3, 0)

    def test_numbers_longer_than_int_takes(self):
        with pytest.raises(ParseError):
            parse_poly("9" * 5000 + "*z0", F3, 2)
        with pytest.raises(ParseError):
            parse_poly("z" + "1" * 5000, F3, 2)
        with pytest.raises(ParseError):
            parse_point("@GF(" + "9" * 5000 + ")(1:0)", F3)
