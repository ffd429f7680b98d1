import pytest

from strangeci.errors import InvalidInputError
from strangeci.families import (
    cone_over,
    prop31_construct,
    quadric_normal_form,
    strange_hypersurface_p_divides,
    strange_hypersurface_p_not_divides,
)
from strangeci.geometry import (
    PolynomialSystem,
    ProjectivePoint,
    is_singular_at,
    singular_search,
)
from strangeci.gf import make_field
from strangeci.hompoly import parse_poly
from strangeci.strangeness import is_cone_with_vertex, is_strange_for, strange_locus

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def unit_point(field, n_plus_1, i):
    return ProjectivePoint(field, [1 if j == i else 0 for j in range(n_plus_1)])


class TestQuadricNormalForm:
    def test_explicit_forms(self):
        assert quadric_normal_form(2, 2).gens[0] == parse_poly("z0^2 + z1*z2", F2, 3)
        assert quadric_normal_form(3, 3).gens[0] == parse_poly("z0*z1 + z2*z3", F3, 4)
        assert quadric_normal_form(4, 5).gens[0] == parse_poly(
            "z0^2 + z1*z2 + z3*z4", F5, 5
        )

    @pytest.mark.parametrize("N,p", [(2, 3), (3, 2), (6, 5), (9, 2), (40, 3), (201, 7)])
    def test_documented_formula(self, N, p):
        """z0^2 + z1*z2 + ... + z_{N-1}*z_N for N even, z0*z1 + ... + z_{N-1}*z_N for N odd."""
        text = " + ".join(["z0^2"] * (N % 2 == 0) + [f"z{i}*z{i + 1}" for i in range(1 - N % 2, N, 2)])
        assert quadric_normal_form(N, p).gens[0] == parse_poly(text, make_field(p), N + 1)

    def test_always_smooth(self):
        for N in range(2, 6):
            for p in (2, 3, 5):
                assert singular_search(quadric_normal_form(N, p), m_max=2) == []

    def test_strangeness_table(self):
        # strange iff p = 2 and N even (odd-dimensional quadric in char 2)
        for N in range(2, 6):
            for p in (2, 3, 5):
                loc = strange_locus(quadric_normal_form(N, p))
                assert loc.is_nonzero() == (p == 2 and N % 2 == 0)

    def test_bad_n_rejected(self):
        with pytest.raises(InvalidInputError):
            quadric_normal_form(1, 2)


class TestPDividesFamily:
    def test_explicit_form(self):
        S = strange_hypersurface_p_divides(3, 3, 3)
        assert S.gens[0] == parse_poly("z3*z2^2 + z2*z1^2 + z0^3", F3, 4)

    @pytest.mark.parametrize("N,e,p", [(2, 3, 3), (3, 4, 2), (7, 6, 3), (12, 10, 5), (150, 4, 2)])
    def test_documented_formula(self, N, e, p):
        """z_N z_{N-1}^{e-1} + ... + z_2 z_1^{e-1} + z_0^e."""
        text = " + ".join([f"z{i}*z{i - 1}^{e - 1}" for i in range(N, 1, -1)] + [f"z0^{e}"])
        assert strange_hypersurface_p_divides(N, e, p).gens[0] == parse_poly(text, make_field(p), N + 1)

    def test_strange_and_singular_at_last_unit(self):
        for N, e, p in [(2, 4, 2), (3, 3, 3), (2, 6, 3), (4, 4, 2)]:
            S = strange_hypersurface_p_divides(N, e, p)
            F = S.field
            assert is_strange_for(S, unit_point(F, N + 1, 0)).verdict
            assert singular_search(S, m_max=2) == [(1, unit_point(F, N + 1, N))]

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            strange_hypersurface_p_divides(3, 5, 3)  # p does not divide e
        with pytest.raises(InvalidInputError):
            strange_hypersurface_p_divides(3, 2, 2)  # e < 3
        with pytest.raises(InvalidInputError):
            strange_hypersurface_p_divides(1, 4, 2)  # N < 2


class TestPNotDividesFamily:
    def test_explicit_form(self):
        S = strange_hypersurface_p_not_divides(3, 3, 2)
        assert S.gens[0] == parse_poly("z0^2*z1 + z2^3 + z3^3", F2, 4)

    @pytest.mark.parametrize("N,e,p", [(2, 3, 2), (3, 4, 3), (8, 7, 5), (13, 9, 2), (150, 5, 3)])
    def test_documented_formula(self, N, e, p):
        """z0^p z1^{e-p} + z2^e + ... + zN^e."""
        text = " + ".join([f"z0^{p}*z1^{e - p}"] + [f"z{i}^{e}" for i in range(2, N + 1)])
        assert strange_hypersurface_p_not_divides(N, e, p).gens[0] == parse_poly(text, make_field(p), N + 1)

    def test_singular_locus_cases(self):
        # e = p+1: only (0:1:0:...:0); e > p+1: both unit points
        S = strange_hypersurface_p_not_divides(3, 3, 2)
        assert singular_search(S, m_max=2) == [(1, unit_point(F2, 4, 1))]
        S = strange_hypersurface_p_not_divides(3, 5, 2)
        assert {pt for _, pt in singular_search(S, m_max=2)} == {
            unit_point(F2, 4, 0),
            unit_point(F2, 4, 1),
        }
        S = strange_hypersurface_p_not_divides(2, 4, 3)
        assert singular_search(S, m_max=2) == [(1, unit_point(F3, 3, 1))]

    def test_strange_for_e0(self):
        for N, e, p in [(3, 3, 2), (3, 5, 2), (2, 4, 3)]:
            S = strange_hypersurface_p_not_divides(N, e, p)
            assert is_strange_for(S, unit_point(S.field, N + 1, 0)).verdict

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            strange_hypersurface_p_not_divides(3, 4, 2)  # p | e
        with pytest.raises(InvalidInputError):
            strange_hypersurface_p_not_divides(3, 2, 3)  # e <= p


class TestConeOver:
    def test_cone_is_cone_with_given_vertex(self):
        base = PolynomialSystem.parse(["z1^2 + z2*z3"], F3, 4)
        alpha = ProjectivePoint(F3, [1, 1, 2, 0])
        C = cone_over(base, alpha)
        assert is_cone_with_vertex(C, alpha)
        assert is_strange_for(C, alpha).verdict

    def test_vertex_on_cone_and_singular_when_base_positive_degree(self):
        base = PolynomialSystem.parse(["z1^3 + z2^2*z3"], F5, 4)
        alpha = ProjectivePoint(F5, [1, 0, 1, 4])
        C = cone_over(base, alpha)
        assert C.on_zero_set(alpha)
        assert is_singular_at(C, alpha)

    def test_identity_retraction_when_vertex_is_e0(self):
        base = PolynomialSystem.parse(["z1^2 + z2*z3"], F3, 4)
        C = cone_over(base, unit_point(F3, 4, 0))
        assert C.gens == base.gens

    def test_preconditions(self):
        base = PolynomialSystem.parse(["z0^2 + z1*z2"], F3, 4)
        with pytest.raises(InvalidInputError):
            cone_over(base, unit_point(F3, 4, 0))  # base involves z0
        good = PolynomialSystem.parse(["z1^2 + z2*z3"], F3, 4)
        with pytest.raises(InvalidInputError):
            cone_over(good, unit_point(F3, 4, 1))  # vertex in the hyperplane


class TestProp31:
    def test_hypersurface_case(self):
        # f^1 = z1^4 + z2^4 + z3^4 over GF(2), beta = (1:1:1), f^1(beta) = 1
        f1 = parse_poly("z1^4 + z2^4 + z3^4", F2, 4)
        S, alpha = prop31_construct([f1], [1, 1, 1], 2)
        assert alpha == ProjectivePoint(F2, [1, 1, 1, 1])
        assert S.gens[0].partial_derivative(0).is_zero()
        assert is_strange_for(S, unit_point(F2, 4, 0)).verdict
        assert is_singular_at(S, alpha)

    def test_complete_intersection_case(self):
        # Z = (z1*z2^2 + z3^3 = 0) is singular at beta = (1:0:0) in the
        # hyperplane; f^1 of degree 3 with f^1(beta) != 0
        f1 = parse_poly("z1^3 + z2^3 + z3^3 + z1*z2*z3", F3, 4)
        f2 = parse_poly("z1*z2^2 + z3^3", F3, 4)
        beta = [1, 0, 0]
        S, alpha = prop31_construct([f1, f2], beta, 3)
        assert alpha == ProjectivePoint(F3, [1, 1, 0, 0])
        assert is_strange_for(S, unit_point(F3, 4, 0)).verdict
        assert is_singular_at(S, alpha)

    def test_precondition_f1_vanishing(self):
        f1 = parse_poly("z1^2*z2 + z2^3", F2, 4)  # vanishes at (1:1:anything)? check (1:1:0): 1+1=0
        with pytest.raises(InvalidInputError):
            prop31_construct([f1], [1, 1, 0], 2)

    def test_precondition_smooth_beta_rejected(self):
        f1 = parse_poly("z1^3 + z2^3 + z3^3 + z1*z2*z3", F3, 4)
        f2 = parse_poly("z1*z2 + z3^2", F3, 4)  # smooth conic in the hyperplane
        with pytest.raises(InvalidInputError):
            prop31_construct([f1, f2], [1, 0, 0], 3)

    def test_precondition_degree(self):
        f1 = parse_poly("z1^2 + z2*z3", F3, 4)  # degree 2 < p = 3
        with pytest.raises(InvalidInputError):
            prop31_construct([f1], [1, 0, 0], 3)
