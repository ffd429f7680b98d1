"""Input checks of the public constructors and functions: each raises its own error type with
its own message, and the small FieldElement and Field operations not used elsewhere."""

import numpy as np
import pytest

from strangeci.census import phi_surjectivity_check
from strangeci.errors import FieldMismatchError, HomogeneityError, InvalidInputError, SingularPointError
from strangeci.exactla import MatrixOverField, in_span
from strangeci.families import prop31_construct
from strangeci.geometry import LinearSubspace, PolynomialSystem, ProjectivePoint, gauss_map
from strangeci.gf import embed, make_field
from strangeci.hompoly import HomogeneousPolynomial, parse_poly

F2, F3, F9 = make_field(2), make_field(3), make_field(3, 2)


def poly(text, field=F3, n_vars=3):
    return parse_poly(text, field, n_vars)


CHECKS = [
    # HomogeneousPolynomial
    ("poly-no-variables", lambda: HomogeneousPolynomial(F3, 0, 1, {}),
     InvalidInputError, "need at least one variable"),
    ("poly-negative-degree", lambda: HomogeneousPolynomial(F3, 2, -1, {}),
     InvalidInputError, "degree must be non-negative"),
    ("poly-exponent-length", lambda: HomogeneousPolynomial(F3, 2, 1, {(1, 0, 0): 1}),
     InvalidInputError, "exponent vector (1, 0, 0) has wrong length"),
    ("poly-negative-exponent", lambda: HomogeneousPolynomial(F3, 2, 1, {(2, -1): 1}),
     InvalidInputError, "negative exponent in (2, -1)"),
    ("poly-term-degree", lambda: HomogeneousPolynomial(F3, 2, 2, {(2, 0): 1, (1, 0): 1}),
     HomogeneityError, "monomial (1, 0) has degree 1, expected 2"),
    # an exponent vector is checked before its zero coefficient drops the term
    ("poly-zero-term-exponent-length", lambda: HomogeneousPolynomial(F3, 2, 1, {(1, 2, 3): 0}),
     InvalidInputError, "exponent vector (1, 2, 3) has wrong length"),
    ("multiply-monomial-zero-coefficient", lambda: poly("z0", F9, 2).multiply_monomial((1, 0, 0), 9),
     InvalidInputError, "exponent vector (1, 0, 0) has wrong length"),
    # PolynomialSystem
    ("system-no-generators", lambda: PolynomialSystem([]),
     InvalidInputError, "a system needs at least one generator"),
    ("system-mixed-rings", lambda: PolynomialSystem([poly("z0"), poly("z0", F2)]),
     FieldMismatchError, "generators live in different rings"),
    ("system-mixed-variables", lambda: PolynomialSystem([poly("z0"), poly("z0", F3, 4)]),
     FieldMismatchError, "generators live in different rings"),
    ("system-zero-generator", lambda: PolynomialSystem([HomogeneousPolynomial(F3, 3, 2, {})]),
     InvalidInputError, "zero generator rejected"),
    ("system-degree-zero", lambda: PolynomialSystem([HomogeneousPolynomial(F3, 3, 0, {(0, 0, 0): 1})]),
     InvalidInputError, "generator degrees must be >= 1"),
    ("system-too-many", lambda: PolynomialSystem([poly("z0"), poly("z1"), poly("z2")]),
     InvalidInputError, "too many generators: r=3 > N=2"),
    # MatrixOverField
    ("matrix-ragged", lambda: MatrixOverField(F3, [[1, 0], [1]]),
     InvalidInputError, "ragged matrix rows"),
    ("matrix-declared-columns", lambda: MatrixOverField(F3, [[1, 0]], ncols=3),
     InvalidInputError, "declared column count disagrees with rows"),
    # LinearSubspace and in_span
    ("subspace-basis-length", lambda: LinearSubspace(F3, 3, [[1, 0]]),
     InvalidInputError, "basis vector length mismatch"),
    ("subspace-point-field", lambda: LinearSubspace(F3, 2, [[1, 0]]).contains_point(ProjectivePoint(F9, [1, 0])),
     FieldMismatchError, "point and subspace over different fields"),
    ("in-span-generator-length", lambda: in_span(F3, [1, 0], [[1, 0], [1]]),
     InvalidInputError, "generator length mismatch"),
    # gauss_map
    ("gauss-all-partials-vanish", lambda: gauss_map(poly("z1^2 + z2^2", F2), ProjectivePoint(F2, [1, 1, 1])),
     SingularPointError, "all partials vanish at (1:1:1)"),
    # prop31_construct: every precondition, in the order they are checked
    ("prop31-no-generators", lambda: prop31_construct([], [1, 0, 0], 3),
     InvalidInputError, "need at least one generator"),
    ("prop31-other-field", lambda: prop31_construct([poly("z1^3", F9, 4)], [1, 0, 0], 3),
     InvalidInputError, "generators must have GF(p) coefficients"),
    ("prop31-other-p", lambda: prop31_construct([poly("z1^3", F3, 4)], [1, 0, 0], 2),
     InvalidInputError, "generators must have GF(p) coefficients"),
    ("prop31-involves-z0", lambda: prop31_construct([poly("z1^3", F3, 4), poly("z0*z2", F3, 4)], [1, 0, 0], 3),
     InvalidInputError, "generators must not involve z0"),
    ("prop31-degree", lambda: prop31_construct([poly("z1^2", F3, 4)], [1, 0, 0], 3),
     InvalidInputError, "deg f^1 = 2 < p = 3"),
    ("prop31-beta-length", lambda: prop31_construct([poly("z1^3", F3, 4)], [1, 0], 3),
     InvalidInputError, "beta needs 3 coordinates"),
    ("prop31-beta1-zero", lambda: prop31_construct([poly("z1^3 + z2^3", F3, 4)], [3, 1, 0], 3),
     InvalidInputError, "beta_1 must be nonzero"),
    ("prop31-f1-vanishes", lambda: prop31_construct([poly("z1^3 - z2^3", F3, 4)], [1, 1, 0], 3),
     InvalidInputError, "f^1(beta) must be nonzero"),
    ("prop31-beta-off-z", lambda: prop31_construct([poly("z1^3", F3, 4), poly("z2*z3", F3, 4)], [1, 1, 1], 3),
     InvalidInputError, "f^2(beta) must vanish (beta must lie on Z)"),
    ("prop31-beta-smooth-on-z", lambda: prop31_construct([poly("z1^3", F3, 4), poly("z2", F3, 4)], [1, 0, 1], 3),
     InvalidInputError, "beta must be a singular point of Z"),
    # Field
    ("pow-zero-negative-exponent", lambda: F9.pow(0, -1),
     ZeroDivisionError, "inverse of zero field element"),
    ("embed-other-characteristic", lambda: embed(F2.element(1), F9),
     FieldMismatchError, "cannot embed GF(2) into GF(3^2): different characteristics"),
]

# every reader of a caller's values reads them by Field.read, which refuses a float and a str
READERS = [
    ("field-read", lambda v: F3.read(v)),
    ("field-encode", lambda v: F3.encode([1, v])),
    ("point", lambda v: ProjectivePoint(F3, [1, v])),
    ("matrix", lambda v: MatrixOverField(F3, [[1, v]])),
    ("subspace", lambda v: LinearSubspace(F3, 2, [[1, v]])),
    ("in-span-target", lambda v: in_span(F3, [1, v], [[1, 0]])),
    ("in-span-generator", lambda v: in_span(F3, [1, 0], [[1, v]])),
    ("poly-coefficient", lambda v: HomogeneousPolynomial(F3, 2, 1, {(1, 0): v})),
    ("poly-scale", lambda v: poly("z0", F3, 2).scale(v)),
    ("prop31-beta", lambda v: prop31_construct([poly("z1^3", F3, 4)], [1, v, 0], 3)),
    ("phi-target", lambda v: phi_surjectivity_check(ProjectivePoint(F3, [0, 1, 1]), 2, [v])),
]
NOT_ELEMENTS = [
    ("float", 1.5, "1.5 is not an element of GF(3) (an integer or a FieldElement)"),
    ("str", "2", "'2' is not an element of GF(3) (an integer or a FieldElement)"),
]
CHECKS += [
    (f"{name}-{kind}", lambda read=read, v=v: read(v), InvalidInputError, message)
    for name, read in READERS
    for kind, v, message in NOT_ELEMENTS
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


class TestHomogeneousPolynomialCoefficients:
    def test_out_of_range_coefficient_is_read_mod_p(self):
        # outside range(order) an integer is a prime-subfield value: 10 and -2 are 1 mod 3
        f = HomogeneousPolynomial(F9, 2, 1, {(1, 0): 10, (0, 1): -2})
        assert f.terms == {(1, 0): 1, (0, 1): 1}

    def test_in_range_coefficient_is_kept(self):
        assert HomogeneousPolynomial(F9, 2, 1, {(1, 0): 8}).terms == {(1, 0): 8}

    def test_coefficient_zero_mod_p_drops_the_term(self):
        assert HomogeneousPolynomial(F9, 2, 1, {(1, 0): 9, (0, 1): 1}).terms == {(0, 1): 1}


class TestOneReading:
    """Every reader of a caller's integers goes through Field.read: -1 is -1 over every field."""

    def test_minus_one_over_gf9_reads_as_2_at_every_reader(self):
        assert F9.read(-1) == F9.read(np.int64(-1)) == 2 and F9.encode([-1, np.int32(8)]) == [2, 8]
        assert ProjectivePoint(F9, [1, -1]).coords == (1, 2)
        assert MatrixOverField(F9, [[-1]]).rows == [[2]]
        assert LinearSubspace(F9, 2, [[1, -1]]).basis == ((1, 2),)
        assert in_span(F9, [-1], [[1]]) == (True, [2]) and in_span(F9, [2], [[-1]]) == (True, [1])
        assert HomogeneousPolynomial(F9, 2, 1, {(1, 0): -1}).terms == {(1, 0): 2}
        assert poly("z0 + z1", F9, 2).scale(-1).terms == {(1, 0): 2, (0, 1): 2}
        assert phi_surjectivity_check(ProjectivePoint(F9, [0, 1, 1]), 2, [-1])

    def test_minus_one_is_p_minus_one_in_prop31_construct(self):
        # the construction takes GF(p) systems
        gens = [poly("z1^3 + z2^3", F3, 4)]
        (S, alpha), (T, beta) = prop31_construct(gens, [-1, 0, 0], 3), prop31_construct(gens, [2, 0, 0], 3)
        assert alpha == beta == ProjectivePoint(F3, [1, 2, 0, 0]) and S.gens == T.gens

    def test_an_operand_int_is_an_integer_multiple_of_one(self):
        # the FieldElement operators keep their own rule: x * 2 is x + x
        F8 = make_field(2, 3)
        assert F8.element(5) * 2 == F8.zero and 2 * F8.element(5) == F8.zero
        assert F9.element(5) * -1 == -F9.element(5)


class TestFieldElement:
    def test_subtraction_and_reflected_operators(self):
        for x in range(F9.order):
            a = F9.element(x)
            for y in range(F9.order):
                b = F9.element(y)
                assert (a - b) + b == a
            assert (2 - a) + a == F9.element(2)
            if a:
                assert (1 / a) * a == F9.element(1)
                assert (a / a).val == 1

    def test_bool(self):
        assert [bool(F9.element(x)) for x in range(F9.order)] == [False] + [True] * 8

    def test_coeffs_and_str(self):
        # t + 2 is encoded 2 + 1*3: its digits low first
        a = F9.element(5)
        assert a.coeffs == (2, 1) and str(a) == "t + 2"
        assert F3.element(2).coeffs == (2,) and str(F3.element(2)) == "2"

    def test_other_operand_types_are_refused(self):
        with pytest.raises(TypeError):
            F9.element(1) - "1"
        with pytest.raises(TypeError):
            "1" / F9.element(1)


class TestFieldPow:
    @pytest.mark.parametrize("F", [F3, F9], ids=str)
    def test_negative_exponent_inverts(self, F):
        for a in range(1, F.order):
            for e in range(1, 5):
                assert F.pow(a, -e) == F.inv(F.pow(a, e))
                assert F.mul(F.pow(a, -e), F.pow(a, e)) == 1
