import itertools
import random
import re
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strangeci.errors import FieldMismatchError, HomogeneityError, InvalidInputError, UnsupportedVertexError
from strangeci.exactla import MatrixOverField, in_span, invert, rank, rank_and_kernel
from strangeci.families import (
    quadric_normal_form,
    strange_hypersurface_p_divides,
    strange_hypersurface_p_not_divides,
)
from strangeci.geometry import (
    LinearSubspace,
    PolynomialSystem,
    ProjectivePoint,
    enumerate_points,
    gauss_map,
    is_singular_at,
    parse_point,
)
from strangeci.gf import make_field
from strangeci.hompoly import HomogeneousPolynomial, format_poly, monomials_of_degree, normalize_z0, parse_poly
from strangeci.strangeness import (
    GradedIdeal,
    cone_corollary_check,
    graded_membership,
    is_cone_with_vertex,
    is_strange_for,
    move_point_to_origin_chart,
    normalize_system,
    strange_locus,
)

from matrices import mat_mul, mat_vec

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def unit_point(field, n_plus_1, i):
    return ProjectivePoint(field, [1 if j == i else 0 for j in range(n_plus_1)])


class TestGradedMembership:
    def test_generator_is_member(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2"], F3, 3)
        ok, w = graded_membership(S.gens[0], S)
        assert ok and w.multipliers[0].terms == {(0, 0, 0): 1}

    def test_zero_is_member(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2"], F3, 3)
        ok, w = graded_membership(HomogeneousPolynomial.zero(F3, 3, 5), S)
        assert ok and all(m.is_zero() for m in w.multipliers)

    def test_non_member(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2"], F3, 3)
        ok, w = graded_membership(parse_poly("z0^2", F3, 3), S)
        assert not ok and w is None

    def test_degree_below_all_generators(self):
        S = PolynomialSystem.parse(["z0^2 + z1*z2"], F2, 3)
        ok, _ = graded_membership(parse_poly("z0", F2, 3), S)
        assert not ok

    def test_witness_reconstructs(self):
        rng = random.Random(19)
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z1^2 + z0*z2"], F3, 3)
        for _ in range(20):
            # random degree-3 ideal element: linear combo with monomial multipliers
            mults = [
                HomogeneousPolynomial(
                    F3, 3, 1, {m: rng.randrange(3) for m in monomials_of_degree(3, 1)}
                )
                for _ in range(2)
            ]
            h = mults[0] * S.gens[0] + mults[1] * S.gens[1]
            if h.is_zero():
                continue
            ok, w = graded_membership(h, S)
            assert ok
            recon = w.multipliers[0] * S.gens[0] + w.multipliers[1] * S.gens[1]
            assert recon == h


    def test_witness_matches_span_of_products(self):
        """The witness is the one in_span solves for over the Macaulay rows as Python lists (same
        pivots, free coefficients zero), and sum_k q_k f^k = h; on both sides of LOOP_CELLS."""
        rng = random.Random(43)
        members = 0
        for F, n_vars, degrees, d in (
            (F2, 3, (1, 2), 3), (F3, 3, (2, 2), 3), (F4, 3, (2,), 4), (F5, 4, (2, 3), 3), (F2, 5, (2, 2), 4),
        ):
            def form(e):
                basis = monomials_of_degree(n_vars, e)
                return HomogeneousPolynomial.from_coeff_vector(F, n_vars, e, basis, [rng.randrange(F.order) for _ in basis])

            S = PolynomialSystem([form(e) for e in degrees])
            ideal = GradedIdeal(S.gens)
            for trial in range(6):
                h = form(d)
                if trial % 2:
                    h = HomogeneousPolynomial.zero(F, n_vars, d)
                    for g in S.gens:
                        h = h + form(d - g.degree) * g
                ok, w = graded_membership(h, S)
                span_ok, coeffs = in_span(F, ideal.vectors([h], d)[0].tolist(), ideal.macaulay_matrix(d).tolist())
                assert ok == span_ok
                if not ok:
                    assert w is None
                    continue
                members += 1
                expected, at = [], 0
                for e in S.degrees:
                    basis = monomials_of_degree(n_vars, d - e)
                    expected.append(HomogeneousPolynomial(F, n_vars, d - e, dict(zip(basis, coeffs[at:]))))
                    at += len(basis)
                assert w.multipliers == expected
                recon = HomogeneousPolynomial.zero(F, n_vars, d)
                for q, g in zip(w.multipliers, S.gens):
                    recon = recon + q * g
                assert recon == h
        assert members >= 15


def _span_verdict(gens, h):
    """Membership of h in I_deg(h) from the products m * f_k, eliminated by in_span."""
    d, F = h.degree, h.field
    basis = monomials_of_degree(h.n_vars, d)
    products = [
        g.multiply_monomial(m)
        for g in gens
        if g.degree <= d
        for m in monomials_of_degree(h.n_vars, d - g.degree)
    ]
    ok, _ = in_span(F, [h.terms.get(m, 0) for m in basis], [[q.terms.get(m, 0) for m in basis] for q in products])
    return ok


def _expr(f, z):
    """f as a sympy expression in the symbols z, with its integer coefficients."""
    import sympy

    return sympy.Add(*(c * sympy.Mul(*(v**e for v, e in zip(z, m))) for m, c in f.terms.items()))


@st.composite
def membership_cases(draw, fields):
    """(generators, h): about half the h are built as ideal members, half drawn at random."""
    F = draw(st.sampled_from(fields))
    n_vars = draw(st.integers(2, 4))

    def form(e, nonzero=False):
        basis = monomials_of_degree(n_vars, e)
        coeffs = st.lists(st.integers(0, F.order - 1), min_size=len(basis), max_size=len(basis))
        return HomogeneousPolynomial.from_coeff_vector(
            F, n_vars, e, basis, draw(coeffs.filter(any) if nonzero else coeffs)
        )

    gens = [form(e, nonzero=True) for e in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    member = draw(st.booleans())
    d = draw(st.integers(min(g.degree for g in gens) if member else 0, 4))
    if not member:
        return gens, form(d)
    h = HomogeneousPolynomial.zero(F, n_vars, d)
    for g in gens:
        if g.degree <= d:
            h = h + form(d - g.degree, nonzero=True) * g
    return gens, h


class TestGradedIdeal:
    def test_macaulay_rows_are_the_products_in_order(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z1^3 + 2*z0*z2^2"], F3, 3)
        ideal = GradedIdeal(S.gens)
        basis = monomials_of_degree(3, 4)
        expected = [
            [g.multiply_monomial(m).terms.get(b, 0) for b in basis]
            for g in S.gens
            for m in monomials_of_degree(3, 4 - g.degree)
        ]
        assert ideal.macaulay_matrix(4).tolist() == expected
        assert ideal.macaulay_matrix(1).shape == (0, 3)

    def test_residues_below_every_generator_build_no_piece(self):
        """I_d = 0 below every generator's degree: residues hand T back and build no piece.  Once a
        generator has degree <= d, the piece is built, eliminated once and cached."""
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z1^3 + 2*z0*z2^2"], F3, 3)
        ideal = GradedIdeal(S.gens)
        T = np.arange(6, dtype=np.int64).reshape(2, 3) % 3
        assert ideal.residues(T, 1) is T and ideal._pieces == {}
        V = ideal.vectors([S.gens[0], HomogeneousPolynomial.monomial(F3, 3, (2, 0, 0))], 2)
        R = ideal.residues(V, 2)
        assert list(ideal._pieces) == [2] and not R[0].any() and R[1].any()
        piece = ideal._pieces[2]
        assert ideal.residues(V, 2).tolist() == R.tolist() and ideal._pieces == {2: piece}

    def test_vectors_follow_monomials_of_degree(self):
        for n_vars, d in ((1, 3), (2, 0), (3, 4), (5, 3), (100, 2)):
            F = F5
            ideal = GradedIdeal([HomogeneousPolynomial.monomial(F, n_vars, (1,) + (0,) * (n_vars - 1))])
            basis = monomials_of_degree(n_vars, d)
            V = ideal.vectors([HomogeneousPolynomial.monomial(F, n_vars, m, 2) for m in basis], d)
            assert V.shape == (len(basis), len(basis))
            assert (V.argmax(axis=1) == np.arange(len(basis))).all() and (V.sum(axis=1) == 2).all()

    def test_vectors_fill_each_polynomial_in_its_row(self):
        """Polynomials of different term counts, a zero one among them, give the rows that
        placing each term at its monomial's index gives."""
        rng = random.Random(29)
        for F, n_vars, d in ((F3, 3, 4), (make_field(3, 2), 4, 2), (F2, 1, 5), (F5, 5, 0), (F2, 6, 3)):
            basis = monomials_of_degree(n_vars, d)
            polys = [
                HomogeneousPolynomial(F, n_vars, d, {mo: 1 + rng.randrange(F.order - 1) for mo in rng.sample(basis, k)})
                for k in (len(basis), 1, len(basis) // 2)
            ]
            polys.insert(1, HomogeneousPolynomial.zero(F, n_vars, d))
            want = np.zeros((len(polys), len(basis)), dtype=np.int64)
            for i, h in enumerate(polys):
                for mono, c in h.terms.items():
                    want[i, basis.index(mono)] = c
            ideal = GradedIdeal([HomogeneousPolynomial.monomial(F, n_vars, basis[0])])
            assert np.array_equal(ideal.vectors(polys, d), want)
            assert ideal.vectors([], d).shape == (0, len(basis))

    def test_vectors_reject_a_nonzero_polynomial_of_another_degree(self):
        """Over GF(3) in 3 variables, with f = z0^2 + z1*z2: z0^3 has no row in degree 2, nor f one in degree 3."""
        f = parse_poly("z0^2 + z1*z2", F3, 3)
        ideal = GradedIdeal([f])
        for polys, d in (([parse_poly("z0^3", F3, 3)], 2), ([f], 3), ([f, parse_poly("z2^3", F3, 3)], 2)):
            with pytest.raises(HomogeneityError):
                ideal.vectors(polys, d)

    def test_vectors_keep_zero_polynomials_of_any_degree_as_zero_rows(self):
        f = parse_poly("z0^2 + z1*z2", F3, 3)
        zeros = [HomogeneousPolynomial.zero(F3, 3, e) for e in (0, 2, 5)]
        V = GradedIdeal([f]).vectors(zeros[:1] + [f] + zeros[1:], 2)
        assert V.tolist() == [[0] * 6, f.dense().tolist(), [0] * 6, [0] * 6]

    def test_empty_piece_takes_no_elimination(self, monkeypatch):
        """Below every generator's degree I_d is empty: its piece, residues and Hilbert
        function come without an elimination, and strange_locus eliminates once."""
        from strangeci import exactla, strangeness

        calls = []
        for mod in (exactla, strangeness):
            monkeypatch.setattr(mod, "rref", lambda *args, fn=mod.rref: calls.append(args) or fn(*args))
        ideal = GradedIdeal([parse_poly("z0^2 + z1*z2", F3, 3), parse_poly("z0*z1*z2", F3, 3)])
        T = np.arange(9, dtype=np.int64).reshape(3, 3) % 3
        assert ideal.hilbert_function(1) == 3 and ideal.residues(T, 1) is T
        assert ideal.annihilator(1).tolist() == np.eye(3, dtype=np.int64).tolist() and not calls
        assert ideal.hilbert_function(2) == 5 and len(calls) == 1
        calls.clear()
        assert strange_locus(PolynomialSystem([parse_poly("z0^2 + z1*z2", F2, 3)])).dim == 1
        assert len(calls) == 1

    def test_many_variables_low_degree(self):
        q = parse_poly(" + ".join(f"z{2 * i}*z{2 * i + 1}" for i in range(50)), F3, 100)
        ideal = GradedIdeal([q])
        assert ideal.contains(q.scale(2)) and not ideal.contains(parse_poly("z0*z1", F3, 100))
        assert ideal.hilbert_function(2) == comb(101, 2) - 1

    def test_annihilator_is_the_kernel_of_the_piece(self):
        for F in (F3, make_field(3, 2), F4, make_field(2, 3)):
            S = PolynomialSystem.parse(["z0*z1 + z2^2", "z1^2 + z0*z3"], F, 4)
            ideal = GradedIdeal(S.gens)
            for d in range(5):
                A = ideal.macaulay_matrix(d)
                _, kernel = rank_and_kernel(MatrixOverField(F, A.tolist(), ncols=A.shape[1]))
                assert ideal.annihilator(d).tolist() == kernel
                assert ideal.hilbert_function(d) == len(kernel)

    def test_rejects_mixed_rings(self):
        with pytest.raises(InvalidInputError):
            GradedIdeal([])
        ideal = GradedIdeal([parse_poly("z0*z1", F3, 3)])
        with pytest.raises(FieldMismatchError):
            ideal.contains(parse_poly("z0*z1", F5, 3))
        with pytest.raises(FieldMismatchError):
            GradedIdeal([parse_poly("z0*z1", F3, 3), parse_poly("z0", F3, 2)])

    @settings(max_examples=300, deadline=None)
    @given(membership_cases(fields=(F2, F3, F5)))
    def test_contains_agrees_with_groebner_oracle(self, case):
        sympy = pytest.importorskip("sympy")
        gens, h = case
        z = sympy.symbols(f"z0:{h.n_vars}")
        G = sympy.groebner([_expr(g, z) for g in gens], *z, modulus=h.field.p, order="grevlex")
        assert GradedIdeal(gens).contains(h) == G.contains(_expr(h, z))

    @settings(max_examples=100, deadline=None)
    @given(membership_cases(fields=(make_field(2, 2), make_field(3, 2), make_field(2, 3), make_field(5, 2))))
    def test_contains_agrees_with_span_products_over_extension_fields(self, case):
        gens, h = case
        assert GradedIdeal(gens).contains(h) == _span_verdict(gens, h)

    def test_contains_near_the_field_order_bound(self):
        """Over GF(1048573) the sums t[pivots] @ R stay exact in int64."""
        F = make_field(1048573)
        rng = random.Random(67)
        members = 0
        for _ in range(12):
            gens = [
                HomogeneousPolynomial.from_coeff_vector(
                    F, 4, e, monomials_of_degree(4, e), [rng.randrange(F.p) for _ in monomials_of_degree(4, e)]
                )
                for e in (2, 2)
            ]
            mult = [rng.randrange(F.p) for _ in monomials_of_degree(4, 1)]
            h = gens[0] * HomogeneousPolynomial.from_coeff_vector(F, 4, 1, monomials_of_degree(4, 1), mult)
            if rng.random() < 0.5:
                h = h + HomogeneousPolynomial.monomial(F, 4, (0, 0, 0, 3), rng.randrange(1, F.p))
            verdict = GradedIdeal(gens).contains(h)
            assert verdict == _span_verdict(gens, h)
            members += verdict
        assert 0 < members < 12

    @staticmethod
    def _ci_hilbert(n_vars, degrees, top):
        """Coefficients of prod(1 - t^e) / (1 - t)^n_vars up to t^top."""
        num = [1] + [0] * top
        for e in degrees:
            num = [num[k] - (num[k - e] if k >= e else 0) for k in range(top + 1)]
        return [sum(num[j] * comb(k - j + n_vars - 1, n_vars - 1) for j in range(k + 1)) for k in range(top + 1)]

    def test_hilbert_function_of_quadrics(self):
        for N in range(2, 5):
            for p in (2, 3, 5):
                ideal = GradedIdeal(quadric_normal_form(N, p).gens)
                assert [ideal.hilbert_function(d) for d in range(3)] == self._ci_hilbert(N + 1, (2,), 2)

    def test_hilbert_function_tells_a_complete_intersection(self):
        ci = GradedIdeal(PolynomialSystem.parse(["z0*z1 + z2^2", "z1^2 + z0*z3"], F3, 4).gens)
        assert [ci.hilbert_function(d) for d in range(5)] == [1, 4, 8, 12, 16]
        assert self._ci_hilbert(4, (2, 2), 4) == [1, 4, 8, 12, 16]
        non_ci = GradedIdeal(PolynomialSystem.parse(["z0*z1", "z0*z2"], F3, 4).gens)
        assert [non_ci.hilbert_function(d) for d in range(5)] == [1, 4, 8, 13, 19]
        assert ci.hilbert_function(-1) == 0


class TestMovePoint:
    def test_swap_example(self):
        M = move_point_to_origin_chart(parse_point("(0:0:1)", F2))
        assert M.rows == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_shear_example(self):
        M = move_point_to_origin_chart(parse_point("(1:1:0)", F2))
        assert M.rows == [[1, 0, 0], [1, 1, 0], [0, 0, 1]]

    def test_maps_e0_to_vertex(self):
        rng = random.Random(23)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            F = make_field(p)
            coords = [rng.randrange(p) for _ in range(4)]
            if not any(coords):
                continue
            v = ProjectivePoint(F, coords)
            M = move_point_to_origin_chart(v)
            assert rank(M) == 4
            assert ProjectivePoint(F, mat_vec(M, [1, 0, 0, 0])) == v

    def test_rows_are_not_encoded_again(self, monkeypatch):
        points = [parse_point(text, F) for text, F in [("(0:0:1)", F2), ("(0:1:2)", F3), ("(1:t:0)", F4)]]
        encoded = []
        original = type(F2).encode
        monkeypatch.setattr(type(F2), "encode", lambda self, values: encoded.append(values) or original(self, values))
        charts = [move_point_to_origin_chart(v) for v in points]
        monkeypatch.undo()
        assert encoded == []
        for v, M in zip(points, charts):
            assert M.rows == MatrixOverField(v.field, M.rows).rows and M.nrows == M.ncols == 3
            assert ProjectivePoint(v.field, mat_vec(M, [1, 0, 0])) == v

    def test_deterministic(self):
        v = parse_point("(0:1:2)", F3)
        assert move_point_to_origin_chart(v).rows == move_point_to_origin_chart(v).rows

    @pytest.mark.parametrize("p,m,n1", [(2, 1, 4), (2, 2, 4), (3, 2, 4), (3, 1, 5), (5, 1, 6)])
    def test_is_swap_times_shear(self, p, m, n1):
        """On every nonzero coordinate vector: the permutation swapping slot 0 and
        the first nonzero slot of v, times the shear whose column 0 is the
        swapped lift of v."""
        F = make_field(p, m)
        for vec in itertools.product(range(F.order), repeat=n1):
            if not any(vec):
                continue
            v = ProjectivePoint(F, vec)
            pivot = next(i for i, c in enumerate(v.coords) if c)
            swap = {0: pivot, pivot: 0}
            perm = [[int(j == swap.get(i, i)) for j in range(n1)] for i in range(n1)]
            w = [v.coords[swap.get(i, i)] for i in range(n1)]
            shear = [[w[i] if j == 0 else int(i == j) for j in range(n1)] for i in range(n1)]
            expected = mat_mul(MatrixOverField(F, perm), MatrixOverField(F, shear))
            assert move_point_to_origin_chart(v).rows == expected.rows


class TestIsStrangeFor:
    def test_char2_conic_strange_for_e0(self):
        S = quadric_normal_form(2, 2)
        rep = is_strange_for(S, unit_point(F2, 3, 0))
        assert rep.verdict
        assert rep.witness_generators is not None
        assert all(g.partial_derivative(0).is_zero() for g in rep.witness_generators)

    def test_char2_conic_not_strange_elsewhere(self):
        S = quadric_normal_form(2, 2)
        rep = is_strange_for(S, unit_point(F2, 3, 1))
        assert not rep.verdict and rep.failing_index == 0 and rep.certificate

    def test_p3_conic_not_strange(self):
        S = quadric_normal_form(2, 3)
        assert not any(
            is_strange_for(S, v).verdict for v in enumerate_points(F3, 2)
        )

    def test_families_strange_for_e0(self):
        for S in (
            strange_hypersurface_p_divides(3, 3, 3),
            strange_hypersurface_p_not_divides(3, 3, 2),
        ):
            assert is_strange_for(S, unit_point(S.field, 4, 0)).verdict

    def test_extension_vertex_rejected(self):
        S = quadric_normal_form(2, 2)
        with pytest.raises(UnsupportedVertexError):
            is_strange_for(S, parse_point("@GF(2^2)(1:t:0)", F2))

    def test_vertex_of_other_characteristic_rejected(self):
        S = quadric_normal_form(2, 2)
        for text in ("@GF(3)(1:1:0)", "@GF(3^2)(1:0:0)"):
            with pytest.raises(FieldMismatchError):
                is_strange_for(S, parse_point(text, F2))
            with pytest.raises(FieldMismatchError):
                is_cone_with_vertex(S, parse_point(text, F2))

    def test_vertex_of_the_wrong_length_is_named(self):
        S = quadric_normal_form(2, 2)
        for text, count in [("(1:0)", 2), ("(1:0:0:1)", 4), ("@GF(2^2)(1:0:1:1)", 4)]:
            message = f"^vertex {re.escape(text)} has {count} coordinates, expected N\\+1 = 3$"
            with pytest.raises(InvalidInputError, match=message):
                is_strange_for(S, parse_point(text, F2))
            with pytest.raises(InvalidInputError, match=message):
                is_cone_with_vertex(S, parse_point(text, F2))

    def test_prime_rational_extension_vertex_accepted(self):
        S = quadric_normal_form(2, 2)
        assert is_strange_for(S, parse_point("@GF(2^2)(1:0:0)", F2)).verdict

    def test_geometric_oracle_char2_conic(self):
        # geometric definition: strange for v iff every tangent line at a
        # smooth rational point passes through v; checked over GF(2)
        # and GF(4) for the char-2 conic
        S = quadric_normal_form(2, 2)
        f = S.gens[0]
        for v in enumerate_points(F2, 2):
            expect = True
            for F in (F2, F4):
                fl = f.lift_to(F)
                for a in enumerate_points(F, 2):
                    if fl.evaluate(a.coords, F) != 0:
                        continue
                    if is_singular_at(PolynomialSystem([fl]), a):
                        continue
                    dual = gauss_map(fl, a)
                    pairing = 0
                    for dv, vv in zip(dual.coords, v.coords):
                        pairing = F.add(pairing, F.mul(dv, vv))
                    if pairing != 0:
                        expect = False
            assert is_strange_for(S, v).verdict == expect

    def test_pgl_equivariance(self):
        rng = random.Random(29)
        S = strange_hypersurface_p_divides(2, 4, 2)
        v = unit_point(F2, 3, 0)
        for _ in range(15):
            while True:
                rows = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
                M = MatrixOverField(F2, rows)
                if rank(M) == 3:
                    break
            # S strange for M*w iff S∘M strange for w
            w = ProjectivePoint(F2, mat_vec(M, list(v.coords)))
            assert is_strange_for(S.linear_change(rows), v).verdict == is_strange_for(
                S, w
            ).verdict


class TestStrangeLocus:
    def test_char2_conic(self):
        loc = strange_locus(quadric_normal_form(2, 2))
        assert loc.dim == 1 and loc.subspace.basis == ((1, 0, 0),)

    def test_p3_conic_trivial(self):
        assert strange_locus(quadric_normal_form(2, 3)).dim == 0

    def test_even_dim_quadric_p2_trivial(self):
        assert strange_locus(quadric_normal_form(3, 2)).dim == 0

    def test_two_generators_in_p3(self):
        S = PolynomialSystem.parse(["z0^2 + z1*z2 + z3^2", "z1^3 + z2*z3^2"], F2, 4)
        assert strange_locus(S).subspace.basis == ((1, 0, 0, 0), (0, 0, 0, 1))

    def test_agrees_with_pointwise_decision(self):
        rng = random.Random(37)
        for _ in range(15):
            basis = monomials_of_degree(3, 2)
            terms = {m: rng.randrange(2) for m in basis}
            f = HomogeneousPolynomial(F2, 3, 2, terms)
            if f.is_zero():
                continue
            S = PolynomialSystem([f])
            loc = strange_locus(S)
            for v in enumerate_points(F2, 2):
                assert is_strange_for(S, v).verdict == loc.subspace.contains_point(v)

    def test_matches_two_elimination_reference(self):
        """The locus is the reduced echelon form of rank_and_kernel's basis of the condition
        matrix's kernel, on complete intersections with r = 1 and 2 whose loci have dimension 0 to 2."""
        rng = random.Random(53)

        def form(F, e, free):
            """A random form of degree e in the variables from z_free on."""
            basis = [m for m in monomials_of_degree(5, e) if not any(m[:free])]
            return HomogeneousPolynomial.from_coeff_vector(F, 5, e, basis, [rng.randrange(F.p) for _ in basis])

        dims = set()
        for p in (2, 3, 5):
            F = make_field(p)
            for free, degrees in ((0, (3,)), (1, (2, 3)), (2, (3,)), (2, (2, 2)), (1, (2,))):
                gens = [form(F, e, free) for e in degrees]
                while True:
                    A = MatrixOverField(F, [[rng.randrange(p) for _ in range(5)] for _ in range(5)])
                    if rank(A) == 5:
                        break
                S = PolynomialSystem(gens).linear_change(A.rows)
                ideal = GradedIdeal(S.gens)
                conditions = []
                for g in S.gens:
                    basis = monomials_of_degree(5, g.degree - 1)
                    T = np.zeros((5, len(basis)), dtype=np.int64)
                    for j in range(5):
                        for mono, c in g.partial_derivative(j).terms.items():
                            T[j, basis.index(mono)] = c
                    conditions += ideal.residues(T, g.degree - 1).T.tolist()
                _, kernel = rank_and_kernel(MatrixOverField(F, conditions, ncols=5))
                loc = strange_locus(S)
                assert loc.subspace == LinearSubspace(F, 5, kernel)
                dims.add(loc.dim)
        assert dims >= {0, 1, 2}

    def test_matches_membership_of_directional_derivatives(self):
        """v is in the locus iff each sum_i v_i f^k_{z_i} is in the ideal, for all v in GF(p)^(N+1)."""
        rng = random.Random(41)

        def random_form(F, n_vars, e, with_z0):
            basis = [m for m in monomials_of_degree(n_vars, e) if with_z0 or m[0] == 0]
            return HomogeneousPolynomial(F, n_vars, e, {m: rng.randrange(F.p) for m in basis})

        nonzero = 0
        for p, N in ((3, 3), (2, 4), (2, 3)):
            F = make_field(p)
            for _ in range(3):
                # strange for e0 through the ideal only: f_{z0} = q * l_{z0} is a
                # nonzero multiple of q, so the quartic's functionals decide
                q = random_form(F, N + 1, 2, False)
                f = random_form(F, N + 1, 4, False) + q * random_form(F, N + 1, 2, True)
                while True:
                    A = MatrixOverField(F, [[rng.randrange(p) for _ in range(N + 1)] for _ in range(N + 1)])
                    if rank(A) == N + 1:
                        break
                S = PolynomialSystem([q, f]).linear_change(A.rows)
                loc = strange_locus(S)
                nonzero += loc.is_nonzero()
                for v in itertools.product(range(p), repeat=N + 1):
                    expected = True
                    for g in S.gens:
                        h = HomogeneousPolynomial.zero(F, N + 1, g.degree - 1)
                        for i, c in enumerate(v):
                            h = h + g.partial_derivative(i).scale(c)
                        expected = expected and graded_membership(h, S)[0]
                    assert loc.subspace.contains(list(v)) == expected
        assert nonzero >= 6


class TestNormalize:
    def test_known_examples(self):
        assert normalize_z0(parse_poly("z0*z1 + z2^2", F2, 3)) == parse_poly("z2^2", F2, 3)
        assert normalize_z0(parse_poly("z0^2*z1", F3, 2)).is_zero()

    def test_normalize_system_equal_when_strange(self):
        S = quadric_normal_form(2, 2)
        normalized, equal = normalize_system(S)
        assert equal
        assert all(g.partial_derivative(0).is_zero() for g in normalized)

    def test_normalize_system_unequal_when_not_strange(self):
        S = quadric_normal_form(2, 3)
        _, equal = normalize_system(S)
        assert not equal

    def test_normalize_system_keeps_a_generator_that_normalizes_to_zero(self):
        """Every term of z0*z3 has z0-exponent 1, prime to p: it normalizes to zero, which no
        system admits, and the ideal it leaves is smaller."""
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z0*z3"], F3, 4)
        normalized, equal = normalize_system(S)
        assert normalized == [parse_poly("z2^2", F3, 4), HomogeneousPolynomial.zero(F3, 4, 2)] and not equal
        normalized, equal = normalize_system(PolynomialSystem.parse(["z0*z1"], F2, 3))
        assert normalized == [HomogeneousPolynomial.zero(F2, 3, 2)] and not equal


class TestCones:
    def test_cone_over_plane_curve(self):
        # z1^3 + z2^3 + z3^3 in P^3 over GF(5) is a cone with vertex e0
        S = PolynomialSystem.parse(["z1^3 + z2^3 + z3^3"], F5, 4)
        assert is_cone_with_vertex(S, unit_point(F5, 4, 0))
        assert not is_cone_with_vertex(S, unit_point(F5, 4, 1))

    def test_smooth_quadric_not_a_cone(self):
        S = quadric_normal_form(3, 3)
        assert not any(
            is_cone_with_vertex(S, unit_point(F3, 4, i)) for i in range(4)
        )

    def test_strange_non_cone_exists(self):
        # char-2 conic is strange for e0 yet not a cone (degree = p)
        S = quadric_normal_form(2, 2)
        assert is_strange_for(S, unit_point(F2, 3, 0)).verdict
        assert not is_cone_with_vertex(S, unit_point(F2, 3, 0))

    def test_cone_pgl_equivariance(self):
        rng = random.Random(41)
        S = PolynomialSystem.parse(["z1^2 + z2*z3"], F3, 4)
        v = unit_point(F3, 4, 0)
        for _ in range(10):
            while True:
                rows = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
                M = MatrixOverField(F3, rows)
                if rank(M) == 4:
                    break
            w = ProjectivePoint(F3, mat_vec(M, list(v.coords)))
            assert is_cone_with_vertex(S.linear_change(rows), v) == is_cone_with_vertex(
                S, w
            )

    def test_cone_corollary(self):
        # strange + all degrees < p forces a cone
        S = PolynomialSystem.parse(["z1^2 + z2*z3"], F5, 4)
        v = unit_point(F5, 4, 0)
        assert cone_corollary_check(S, v)

    def test_cone_corollary_preconditions(self):
        with pytest.raises(InvalidInputError):
            cone_corollary_check(quadric_normal_form(2, 2), unit_point(F2, 3, 0))
        S = PolynomialSystem.parse(["z0^2 + z1*z2"], F5, 4)
        with pytest.raises(InvalidInputError):
            cone_corollary_check(S, unit_point(F5, 4, 0))


class TestHvCharacterization:
    def test_monomial_characterization(self):
        # a hypersurface is strange for e0 iff every z0-exponent is 0 mod p
        rng = random.Random(43)
        for p in (2, 3):
            F = make_field(p)
            for _ in range(20):
                basis = monomials_of_degree(3, p + 1)
                terms = {m: rng.randrange(p) for m in basis}
                f = HomogeneousPolynomial(F, 3, p + 1, terms)
                if f.is_zero():
                    continue
                S = PolynomialSystem([f])
                expect = all(m[0] % p == 0 for m in f.terms)
                assert is_strange_for(S, unit_point(F, 3, 0)).verdict == expect


# -- the decisions at a vertex against Groebner oracles, and the work they skip ------


@st.composite
def vertex_cases(draw):
    """(S, v) over GF(2), GF(3) or GF(5) with N <= 3 and r <= 2 generators of degrees 2-3 in any order.

    Each generator is drawn generic, free of z0 (a cone with vertex e0) or with every z0-exponent
    divisible by p (strange for e0).  The system is then moved by a random invertible matrix A, and
    v is A e0.  In about half the cases each generator g becomes g - g(v) z_i^e, i the first nonzero
    coordinate of v, so that every generator vanishes at v.  Coefficients and A come from a drawn
    seed: uniform draws keep the system and v generic, where shrunk ones give coordinate points.
    """
    F = draw(st.sampled_from((F2, F3, F5)))
    n1 = draw(st.integers(3, 4))
    keep = {"generic": lambda w: True, "z0-free": lambda w: w[0] == 0, "strange at e0": lambda w: w[0] % F.p == 0}
    kinds = draw(st.lists(st.sampled_from(sorted(keep)), min_size=1, max_size=2))
    degrees = draw(st.lists(st.integers(2, 3), min_size=len(kinds), max_size=len(kinds)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = []
    for kind, e in zip(kinds, degrees):
        g = HomogeneousPolynomial.zero(F, n1, e)
        while g.is_zero():
            g = HomogeneousPolynomial(F, n1, e, {m: rng.randrange(F.p) for m in monomials_of_degree(n1, e) if keep[kind](m)})
        gens.append(g)
    S, v = _moved_to(PolynomialSystem(gens), rng)
    if draw(st.booleans()):
        i = next(j for j, c in enumerate(v.coords) if c)
        gens = [g - HomogeneousPolynomial(F, n1, g.degree, {tuple(g.degree * (j == i) for j in range(n1)): g.evaluate(v.coords)}) for g in S.gens]
        assume(not any(g.is_zero() for g in gens))
        S = PolynomialSystem(gens)
    return S, v


def _moved_to(S, rng):
    """(S o A^-1, A e0) for a random invertible A: S at e0 is the result at A e0."""
    F, n1 = S.field, S.n + 1
    while True:
        A = MatrixOverField(F, [[rng.randrange(F.p) for _ in range(n1)] for _ in range(n1)])
        if rank(A) == n1:
            return S.linear_change(invert(A).rows), ProjectivePoint(F, [row[0] for row in A.rows])


def _groebner(S):
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols(f"z0:{S.n + 1}")
    return z, sympy.groebner([_expr(g, z) for g in S.gens], *z, modulus=S.field.p, order="grevlex")


class TestDecisionOracles:
    @settings(max_examples=150, deadline=None)
    @given(vertex_cases())
    def test_strange_agrees_with_directional_derivatives_in_the_ideal(self, case):
        """S is strange for v iff every sum_i v_i d g_k / d z_i lies in I, in the original coordinates
        with nothing moved; the report fails at the least k whose derivative does not, and names the
        z0-partial of the moved generator, or gives every moved generator normalized as witness."""
        import sympy

        S, v = case
        z, G = _groebner(S)
        inside = [
            G.contains(sympy.expand(sum(c * sympy.diff(_expr(g, z), zi) for c, zi in zip(v.coords, z))))
            for g in S.gens
        ]
        rep = is_strange_for(S, v)
        assert rep.verdict == all(inside)
        assert rep.failing_index == (None if all(inside) else inside.index(False))
        moved = S.linear_change(move_point_to_origin_chart(v).rows).gens
        if rep.verdict:
            assert rep.witness_generators == [normalize_z0(g) for g in moved] and rep.certificate is None
        else:
            dg = moved[rep.failing_index].partial_derivative(0)
            assert rep.witness_generators is None and rep.certificate == (
                f"z0-partial of transformed generator {rep.failing_index} is {format_poly(dg)}, "
                f"not in the degree-{dg.degree} graded piece of the ideal"
            )

    @settings(max_examples=150, deadline=None)
    @given(vertex_cases())
    def test_cone_agrees_with_translates_in_the_ideal(self, case):
        """S is a cone with vertex v iff every t-coefficient of every g(z + t v) lies in I."""
        import sympy

        S, v = case
        z, G = _groebner(S)
        t = sympy.Symbol("t")
        shift = {zi: zi + c * t for zi, c in zip(z, v.coords)}
        expected = all(
            G.contains(c)
            for g in S.gens
            for c in sympy.Poly(sympy.expand(_expr(g, z).subs(shift, simultaneous=True)), t).all_coeffs()
        )
        assert is_cone_with_vertex(S, v) == expected


class TestReportOverExtensions:
    @pytest.mark.parametrize("p, m", [(2, 2), (3, 2)])
    def test_report_matches_the_moved_chart(self, p, m):
        """Over GF(4) and GF(9), with coefficients off GF(p): the whole report is the one read in the
        chart of v, each generator moved there and its z0-partial tested in the ideal of the moved
        generators of lower degree."""
        F = make_field(p, m)
        rng = random.Random(97 + p)
        verdicts = set()
        for _ in range(30):
            n1 = rng.randint(3, 4)
            gens = []
            for e in rng.choices(range(1, 5), k=rng.randint(1, n1 - 1)):
                strange = rng.random() < 0.6  # every z0-exponent divisible by p: strange for e0
                g = HomogeneousPolynomial.zero(F, n1, e)
                while g.is_zero():
                    monos = [w for w in monomials_of_degree(n1, e) if not strange or w[0] % p == 0]
                    g = HomogeneousPolynomial(F, n1, e, {w: rng.randrange(F.order) for w in monos})
                gens.append(g)
            S, v = _moved_to(PolynomialSystem(gens), rng)
            moved = S.linear_change(move_point_to_origin_chart(v).rows).gens
            expected = {"verdict": True, "vertex": str(ProjectivePoint(make_field(p), v.coords))}
            for k, g in enumerate(moved):
                dg, lower = g.partial_derivative(0), [h for h in moved if h.degree < g.degree]
                if not dg.is_zero() and not (lower and GradedIdeal(lower).contains(dg)):
                    expected.update(verdict=False, failing_index=k, certificate=(
                        f"z0-partial of transformed generator {k} is {format_poly(dg)}, "
                        f"not in the degree-{dg.degree} graded piece of the ideal"))
                    break
            else:
                expected["witness_generators"] = [format_poly(normalize_z0(g)) for g in moved]
            assert is_strange_for(S, v).to_dict() == expected
            verdicts.add(expected["verdict"])
        assert verdicts == {True, False}


class TestDecisionsSkipWork:
    """Each decision at a vertex does the work its verdict needs, and no piece twice."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """The generators moved, the eliminations, and the degree of each Macaulay matrix built."""
        from strangeci import exactla, hompoly, strangeness

        log = {"moved": [], "rref": [], "pieces": []}
        change, macaulay = HomogeneousPolynomial.linear_change, GradedIdeal.macaulay_matrix
        monkeypatch.setattr(HomogeneousPolynomial, "linear_change", lambda g, M: log["moved"].append(g) or change(g, M))
        monkeypatch.setattr(GradedIdeal, "macaulay_matrix", lambda I, d: log["pieces"].append(d) or macaulay(I, d))
        for mod in (exactla, hompoly, strangeness):
            monkeypatch.setattr(mod, "rref", lambda *args, fn=mod.rref: log["rref"].append(args) or fn(*args))
        return log

    @staticmethod
    def _random_system(F, n1, degrees, seed):
        rng = random.Random(seed)
        return PolynomialSystem(
            [HomogeneousPolynomial(F, n1, e, {m: rng.randrange(F.p) for m in monomials_of_degree(n1, e)}) for e in degrees]
        )

    def test_cone_off_x_moves_and_eliminates_nothing(self, spy):
        S = self._random_system(F3, 6, (4, 3, 2), 71)
        v = ProjectivePoint(F3, [1, 2, 0, 1, 1, 2])
        assert not S.on_zero_set(v)
        assert is_cone_with_vertex(S, v) is False
        assert spy == {"moved": [], "rref": [], "pieces": []}

    def test_strange_failing_at_generator_0_moves_it_only(self, spy):
        """The checks read the system unmoved; only the failing generator moves, for its certificate."""
        S = self._random_system(F2, 5, (3, 2, 3, 4), 73)
        v = ProjectivePoint(F2, [1, 1, 0, 1, 0])
        assert is_strange_for(S, v).failing_index == 0
        assert spy["moved"] == [S.gens[0]] and spy["pieces"] == [2]
        spy["moved"].clear(), spy["pieces"].clear()
        S = self._random_system(F2, 5, (2, 3, 2), 79)
        assert is_strange_for(S, v).failing_index == 0
        assert spy["moved"] == [S.gens[0]] and spy["pieces"] == []

    def test_no_piece_is_eliminated_twice(self, spy):
        """A system strange through its ideal, with two cubics whose z0-partials lie in I_2, reads
        I_2 for both and builds it once; a cone on X tries slices of each degree and builds each
        piece once."""
        rng = random.Random(83)

        def form(e, with_z0=False):
            return HomogeneousPolynomial(
                F2, 5, e, {m: rng.randrange(2) for m in monomials_of_degree(5, e) if with_z0 or m[0] == 0}
            )

        for _ in range(4):
            q = form(2)
            while q.is_zero():
                q = form(2)
            # each cubic's z0-partial is q times the z0-coefficient 1 of its linear factor
            cubics = [form(3) + q * (parse_poly("z0", F2, 5) + form(1)) for _ in range(2)]
            S, v = _moved_to(PolynomialSystem([cubics[0], q, cubics[1]]), rng)
            spy["moved"].clear(), spy["rref"].clear(), spy["pieces"].clear()
            assert is_strange_for(S, v).verdict
            assert spy["pieces"] == [2] and len(spy["rref"]) == 1  # I_2 alone: the chart takes no rank check
            assert spy["moved"] == [S.gens[0], S.gens[1], S.gens[2]]
        S = PolynomialSystem.parse(["z1^2 + z2*z3", "z1^3 + z2^3 + z3^3 + z4^3", "z2^2*z4 + z2^3 + z1^3"], F5, 5)
        spy["pieces"].clear()
        assert is_cone_with_vertex(S, unit_point(F5, 5, 0)) and spy["pieces"] == [2, 3]
        spy["pieces"].clear()
        v = ProjectivePoint(F5, [0, 0, 1, 0, 4])
        assert S.on_zero_set(v) and not is_cone_with_vertex(S, v)
        assert len(spy["pieces"]) == len(set(spy["pieces"]))
