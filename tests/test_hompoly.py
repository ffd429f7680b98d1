import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strangeci import hompoly
from strangeci.errors import FieldMismatchError, HomogeneityError, InvalidInputError, ParseError
from strangeci.exactla import MatrixOverField, invert, rank
from strangeci.geometry import PolynomialSystem, ProjectivePoint, _BlockEvaluator, enumerate_points
from strangeci.gf import make_field
from strangeci.hompoly import (
    HomogeneousPolynomial,
    format_poly,
    monomials_of_degree,
    normalize_z0,
    parse_poly,
)

from matrices import mat_mul, mat_vec

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def random_poly(rng, field, n_vars, degree):
    basis = monomials_of_degree(n_vars, degree)
    return HomogeneousPolynomial(
        field, n_vars, degree, {m: rng.randrange(field.order) for m in basis}
    )


def random_change(rng, F, n, kind):
    """Rows of an invertible matrix: random, a shear of the first column, or a permutation."""
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    if kind == "shear":
        from strangeci.strangeness import move_point_to_origin_chart

        coords = [rng.randrange(F.order) for _ in range(n)]
        coords[rng.randrange(n)] = 1
        return move_point_to_origin_chart(ProjectivePoint(F, coords)).rows
    while True:
        rows = [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)]
        if rank(MatrixOverField(F, rows)) == n:
            return rows


def naive_change(f, rows):
    """sum_m c_m * prod_i L_i^(m_i), L_i = sum_j rows[i][j] z_j, from polynomial + and * only."""
    F, n = f.field, f.n_vars
    L = [
        HomogeneousPolynomial(F, n, 1, {tuple(int(k == j) for k in range(n)): rows[i][j] for j in range(n)})
        for i in range(n)
    ]
    out = HomogeneousPolynomial.zero(F, n, f.degree)
    for mono, c in f.terms.items():
        term = HomogeneousPolynomial.monomial(F, n, (0,) * n, c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * L[i]
        out = out + term
    return out


class TestParse:
    def test_paper_quadric(self):
        f = parse_poly("z0^2 + z1*z2", F2, 3)
        assert f.degree == 2 and len(f.terms) == 2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(HomogeneityError):
            parse_poly("z0 + z1^2", F2, 3)

    def test_coefficient_reduction_to_zero(self):
        f = parse_poly("3*z0*z1", F3, 3)
        assert f.is_zero() and f.degree == 2

    def test_variable_out_of_range(self):
        with pytest.raises(InvalidInputError):
            parse_poly("z5^2", F2, 3)

    def test_minus_means_p_minus_one(self):
        f = parse_poly("-z0^2", F3, 2)
        assert f.terms == {(2, 0): 2}
        assert parse_poly("z0^2 - z0^2", F3, 2).is_zero()

    def test_extension_coefficients(self):
        F4 = make_field(2, 2)
        f = parse_poly("(t+1)*z0*z1", F4, 2)
        assert f.terms == {(1, 1): 3}

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("z0^2 + qq", F2, 3)

    def test_exponent_beyond_nine_digits_rejected(self):
        """Exponent rows are int64, so a parsed exponent has at most nine digits."""
        assert parse_poly("z0^999999999", F2, 2).degree == 999999999
        with pytest.raises(ParseError):
            parse_poly("z0^99999999999999999999", F2, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_parse_format_roundtrip(self, seed):
        rng = random.Random(seed)
        f = random_poly(rng, F3, 4, 3)
        assert parse_poly(format_poly(f), F3, 4) == f


class TestDerivative:
    def test_char2_square_dies(self):
        f = parse_poly("z0^2 + z1*z2", F2, 3)
        assert f.partial_derivative(0).is_zero()

    def test_power_rule(self):
        for p, e in [(2, 4), (3, 3), (3, 4), (5, 7)]:
            F = make_field(p)
            f = parse_poly(f"z0^{e}", F, 2)
            d = f.partial_derivative(0)
            if e % p == 0:
                assert d.is_zero()
            else:
                assert d.terms == {(e - 1, 0): e % p}

    def test_p3_mixed(self):
        f = parse_poly("z0^2*z1", F3, 2)
        assert f.partial_derivative(0).terms == {(1, 1): 2}

    def test_p_fold_z0_derivative_vanishes(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            F = make_field(p)
            f = random_poly(rng, F, 3, p + 1)
            for _ in range(p):
                f = f.partial_derivative(0)
            assert f.is_zero()

    def test_keeps_no_derivative_state(self):
        """A partial is formed anew on every call, and a polynomial has no slot to keep one in."""
        f = parse_poly("z0^2*z1 + z1*z2^2 + 2*z2^3", F3, 3)
        assert HomogeneousPolynomial.__slots__ == ("field", "n_vars", "degree", "terms", "_arrays", "_dense")
        assert all(f.partial_derivative(j) == f.partial_derivative(j) for j in range(3))
        assert all(f.partial_derivative(j) is not f.partial_derivative(j) for j in range(3))

    def test_partials_of_a_lift_live_over_its_field(self):
        F9 = make_field(3, 2)
        f = parse_poly("z0^2*z1 + z1*z2^2 + 2*z2^3", F3, 3)
        before = [f.partial_derivative(j) for j in range(3)]
        lifted = f.lift_to(F9)
        for j, d in enumerate(before):
            assert lifted.partial_derivative(j).field == F9
            assert lifted.partial_derivative(j).terms == d.terms and d.field == F3

    def test_leibniz_rule(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            F = make_field(p)
            for _ in range(10):
                f = random_poly(rng, F, 3, 2)
                g = random_poly(rng, F, 3, 3)
                for i in range(3):
                    lhs = (f * g).partial_derivative(i)
                    rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
                    assert lhs == rhs


class TestGradientAtAPoint:
    """The one-pass gradient against the reference, each partial_derivative evaluated on its own."""

    @staticmethod
    def random_poly_with_p_powers(rng, F, n_vars):
        """A few terms of one degree: random monomials, and z_k^p or z_k^(2p) times one, so that
        exponents divisible by p (and zero) are common; coefficients anywhere in F."""
        p, degree = F.p, rng.randint(1, 2 * F.p + 1)
        basis, terms = monomials_of_degree(n_vars, degree), {}
        for _ in range(rng.randint(1, 5)):
            mono = list(rng.choice(basis))
            if degree >= 2 * p and rng.random() < 0.5:
                mono = [0] * n_vars
                mono[rng.randrange(n_vars)] += 2 * p if degree >= 3 * p or rng.random() < 0.5 else p
                rest = rng.choice(monomials_of_degree(n_vars, degree - sum(mono)))
                mono = [a + b for a, b in zip(mono, rest)]
            terms[tuple(mono)] = rng.randrange(1, F.order)
        return HomogeneousPolynomial(F, n_vars, degree, terms)

    @pytest.mark.parametrize("q", [2, 3, 5, 4])
    def test_matches_each_partial_at_every_point(self, q):
        """Every point of P^2 and P^3 over GF(p) and GF(p^2), GF(4) coefficients also over GF(16) in
        P^2.  FieldMismatchError comes exactly when the point field is not f's and some term with a
        w_j not divisible by p has a coefficient outside GF(p): what the reference raises."""
        p = 2 if q == 4 else q
        K = make_field(p, 2 if q == 4 else 1)
        rng = random.Random(f"gradient-{q}")
        rejected = 0
        for n_vars in (3, 4):
            fields = [make_field(p), make_field(p, 2)] + ([make_field(2, 4)] if q == 4 and n_vars == 3 else [])
            for _ in range(6 if q == 4 else 2):
                f = self.random_poly_with_p_powers(rng, K, n_vars)
                partials = [f.partial_derivative(j) for j in range(n_vars)]
                for F in fields:
                    points = [x.coords for x in enumerate_points(F, n_vars - 1)]
                    rule = F != K and any(c >= p and any(w % p for w in mono) for mono, c in f.terms.items())
                    if rule:
                        rejected += 1
                        with pytest.raises(FieldMismatchError):
                            [d.evaluate(points[0], F) for d in partials]
                        for x in points[:5]:
                            with pytest.raises(FieldMismatchError):
                                f._gradient(x, F)
                    else:
                        for x in points:
                            assert f._gradient(x, F) == [d.evaluate(x, F) for d in partials], (f, F, x)
        assert rejected or q != 4


def block_values(E, C, F, X):
    """Column k of the result: at the points X, the polynomial with exponent rows E and coefficient
    column C[:, k], by geometry._BlockEvaluator, which shares no scalar code.  It takes coefficients
    in GF(p), so each polynomial goes in as its m base-p digit polynomials, put together again as
    sum over d of x^d * (digit polynomial d) with array arithmetic."""
    k = C.shape[1]
    V = _BlockEvaluator((E, F.to_digits(C).reshape(len(C), k * F.m)), F)(X).reshape(len(X), k, F.m)
    V = F.mul_array(V, F.place)
    out = V[..., 0]
    for d in range(1, F.m):
        out = F.add_array(out, V[..., d])
    return out


class TestTermLoops:
    """evaluate and _gradient, the scalar term loops, against the block evaluator: prime and extension
    fields, polynomials over GF(p) and over the point field, about 30% of the coordinates zero."""

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 16), (3, 10)])
    def test_match_the_block_evaluator(self, p, m):
        F = make_field(p, m)
        rng = random.Random(f"term-loops-{F.order}")
        rows = [[0 if rng.random() < 0.3 else rng.randrange(1, F.order) for _ in range(5)] for _ in range(120)]
        for n_vars in (2, 3, 5):
            X = np.array([row[:n_vars] for row in rows if any(row[:n_vars])], dtype=np.int64)
            for K in [make_field(p)] + [F] * (m > 1):  # coefficients in GF(p), then anywhere in F
                for _ in range(3):
                    f = TestGradientAtAPoint.random_poly_with_p_powers(rng, K, n_vars)
                    E, c = f.arrays()
                    values = block_values(E, c[:, None], F, X)[:, 0].tolist()
                    assert [f.evaluate(x, F) for x in X.tolist()] == values, (f, F)
                    gradients = block_values(*f.gradient_stack(), F, X).tolist()
                    assert [f._gradient(x, F) for x in X.tolist()] == gradients, (f, F)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_extension_coefficients_at_prime_field_points_refused(self, p):
        """Over GF(p), a coefficient of GF(p^2) outside GF(p) is refused by both loops, on a term that
        some partial keeps; at zero coordinates too."""
        K, F = make_field(p, 2), make_field(p)
        f = HomogeneousPolynomial(K, 3, p + 1, {(p, 1, 0): p, (1, 0, p): 1})
        for x in ([1, 1, 1], [0, 0, 1], [0, 1, 0]):
            with pytest.raises(FieldMismatchError):
                f.evaluate(x, F)
            with pytest.raises(FieldMismatchError):
                f._gradient(x, F)


class TestEvaluate:
    def test_simple(self):
        f = parse_poly("z1*z2", F2, 3)
        assert f.evaluate([1, 1, 1], F2) == 1

    def test_quadric_at_ones(self):
        f = parse_poly("z0^2 + z1*z2", F2, 3)
        assert f.evaluate([1, 1, 1], F2) == 0

    def test_zero_poly(self):
        f = HomogeneousPolynomial.zero(F5, 3, 4)
        assert f.evaluate([2, 3, 4], F5) == 0

    def test_extension_point_prime_coefficients(self):
        F4 = make_field(2, 2)
        f = parse_poly("z0^2 + z1*z2", F2, 3)
        t, t1 = 2, 3
        # t^2 = t+1 over t^2+t+1; t^2 + (t+1)*1 = 0
        assert f.evaluate([t, t1, 1], F4) == 0


class TestWrappers:
    """scale and multiply_monomial read a coefficient as the constructor does, an int outside
    range(q) mod p; evaluate and _gradient refuse coordinates outside an extension point field."""

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_multiply_monomial_is_the_product_with_the_monomial(self, p, m):
        F = make_field(p, m)
        q, rng = F.order, random.Random(f"multiply-monomial-{F.order}")
        for n_vars in (1, 2, 3):
            for degree in (0, 1, 3):
                f = random_poly(rng, F, n_vars, degree)
                for coeff in (1, -1, p, q, q + 1, rng.randrange(q)):
                    exps = tuple(rng.randrange(3) for _ in range(n_vars))
                    c = coeff if 0 <= coeff < q else coeff % p
                    expect = {tuple(a + b for a, b in zip(w, exps)): F.mul(v, c) for w, v in f.terms.items() if c}
                    g = f.multiply_monomial(exps, coeff)
                    assert g == f * HomogeneousPolynomial.monomial(F, n_vars, exps, coeff), (f, exps, coeff)
                    assert g.terms == expect and g.degree == degree + sum(exps), (f, exps, coeff)

    def test_multiply_monomial_checks_the_exponents(self):
        """A wrong-length or negative exponent vector is refused, also on a zero polynomial."""
        F = make_field(3, 2)
        for f in (parse_poly("z0*z1", F, 2), HomogeneousPolynomial.zero(F, 2, 2)):
            for exps in ((1,), (1, 0, 0), (-1, 2)):
                with pytest.raises(InvalidInputError):
                    f.multiply_monomial(exps)

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (3, 1), (5, 1)])
    def test_scale_reads_integers_mod_p(self, p, m):
        F = make_field(p, m)
        f = random_poly(random.Random(f"scale-{F.order}"), F, 3, 2)
        constant = HomogeneousPolynomial.monomial(F, 3, (0, 0, 0), p - 1)
        assert f.scale(-1) == -f == f * constant
        assert f.scale(F.order + 1) == f and f.scale(F.order) == HomogeneousPolynomial.zero(F, 3, 2)
        assert f.scale(-p - 1) == -f and f.scale(p**40 + 1) == f

    @pytest.mark.parametrize("p,m", [(3, 2), (2, 4)])
    def test_coordinates_outside_the_point_field_refused(self, p, m):
        F = make_field(p, m)
        for K in (make_field(p), F):
            f = parse_poly("z0*z1 + z1^2", K, 2)
            for bad in (-1, F.order, 10**30):
                for x in ([bad, 1], [1, bad], [0, bad]):
                    with pytest.raises(InvalidInputError):
                        f.evaluate(x, F)
                    with pytest.raises(InvalidInputError):
                        f._gradient(x, F)

    def test_prime_field_reads_any_int_mod_p(self):
        f = parse_poly("z0^2*z1 + 2*z1^3 + z0*z1*z2", F3, 3)
        for x in ([-1, 1, 1], [1, -1, 0], [-4, 5, 2], [10**30, 2, -10**30]):
            residues = [a % 3 for a in x]
            assert f.evaluate(x, F3) == f.evaluate(residues, F3)
            assert f._gradient(x, F3) == f._gradient(residues, F3)


class TestEulerIdentity:
    def test_char2_quadric_by_hand(self):
        # sum z_j f_{z_j} = z1*z2 + z2*z1 = 0 = (2 mod 2) * f
        f = parse_poly("z0^2 + z1*z2", F2, 3)
        assert f.euler_identity_check()

    def test_monomials(self):
        for p in (2, 3, 5):
            F = make_field(p)
            for mono in monomials_of_degree(3, 4):
                assert HomogeneousPolynomial.monomial(F, 3, mono).euler_identity_check()

    def test_random(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            F = make_field(p)
            f = random_poly(rng, F, rng.randint(2, 4), rng.randint(1, 4))
            assert f.euler_identity_check()


class TestLinearChange:
    def test_identity(self):
        f = parse_poly("z0*z1 + z2^2", F3, 3)
        assert f.linear_change([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == f

    def test_swap(self):
        f = parse_poly("z0*z1 + z2^2", F2, 3)
        g = f.linear_change([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert g == parse_poly("z2*z1 + z0^2", F2, 3)

    def test_singular_matrix_rejected(self):
        f = parse_poly("z0^2", F2, 2)
        with pytest.raises(InvalidInputError):
            f.linear_change([[1, 1], [1, 1]])

    def test_entries_outside_the_field_rejected(self):
        f = parse_poly("z0^2 + z1^2", F3, 2)
        for bad in (3, 4, -1):
            with pytest.raises(InvalidInputError, match=rf"entry \[0\]\[0\] = {bad} "):
                f.linear_change([[bad, 0], [0, 1]])
        # over GF(9) the entry 4 is the element t + 1, and (t + 1)^2 = 2t
        F9 = make_field(3, 2)
        g = f.lift_to(F9).linear_change([[4, 0], [0, 1]])
        assert g == parse_poly("(2*t)*z0^2 + z1^2", F9, 2)

    def test_substitution_evaluation_commutes(self):
        rng = random.Random(5)
        for _ in range(30):
            F = make_field(*rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
            f = random_poly(rng, F, 3, rng.randint(1, 3))
            while True:
                rows = [[rng.randrange(F.order) for _ in range(3)] for _ in range(3)]
                M = MatrixOverField(F, rows)
                if rank(M) == 3:
                    break
            g = f.linear_change(rows)
            for _ in range(5):
                a = [rng.randrange(F.order) for _ in range(3)]
                assert g.evaluate(a, F) == f.evaluate(mat_vec(M, a), F)
        # a four-term binary form of degree 512 over GF(1048573): its expansion reads the monomial
        # tables of every degree up to 512, and a wrong form vanishes at a point with chance <= 512/p
        F = make_field(1048573)
        f = parse_poly("z0^512 + 2*z0^312*z1^200 + 3*z0*z1^511 + 5*z1^512", F, 2)
        M = MatrixOverField(F, [[1, 2], [3, 4]])
        g = f.linear_change(M.rows)
        assert g.degree == 512 and len(g.terms) == 513
        for _ in range(5):
            a = [rng.randrange(F.order) for _ in range(2)]
            assert g.evaluate(a) == f.evaluate(mat_vec(M, a))

    def test_matches_termwise_expansion(self):
        """Equal to sum_m c_m * prod_i L_i^(m_i), built from polynomial + and *."""
        rng = random.Random(31)
        for _ in range(30):
            F = make_field(*rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
            n = rng.randint(1, 5)
            f = random_poly(rng, F, n, rng.randint(0, 4))
            while True:
                rows = [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)]
                if rank(MatrixOverField(F, rows)) == n:
                    break
            assert f.linear_change(rows) == naive_change(f, rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(2, 1), (3, 1), (5, 1), (1048573, 1), (2, 2), (3, 2), (2, 8)]),
        st.sampled_from(["full", "shear", "permutation"]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_matches_naive_expansion_and_round_trips(self, pm, kind, dense, seed):
        rng = random.Random(seed)
        F = make_field(*pm)
        n, e = rng.randint(1, 6), rng.randint(0, 5)
        basis = monomials_of_degree(n, e)
        # dense f takes every monomial, kept to at most 56 so that the oracle stays quick
        if dense and len(basis) > 56:
            e = min(e, 2)
            basis = monomials_of_degree(n, e)
        picked = basis if dense else rng.sample(basis, min(len(basis), rng.randint(1, 6)))
        f = HomogeneousPolynomial(F, n, e, {mono: rng.randrange(1, F.order) for mono in picked})
        rows = random_change(rng, F, n, kind)
        assert f.linear_change(rows) == naive_change(f, rows)
        back = invert(MatrixOverField(F, rows)).rows
        assert f.linear_change(rows).linear_change(back) == f

    @pytest.mark.parametrize(
        "n,e,nterms,kind",
        [(30, 4, 25, "shear"), (100, 2, 60, "permutation")],
    )
    def test_large_sparse_inputs_in_small_memory(self, n, e, nterms, kind):
        """Rows are nodes x monomials: a nodes x monomials x variables block would take
        hundreds of MB here."""
        rng = random.Random(f"{n}-{e}")
        F = make_field(5)
        terms = {}
        while len(terms) < nterms:
            mono = [0] * n
            for _ in range(e):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.randrange(1, 5)
        f = HomogeneousPolynomial(F, n, e, terms)
        rows = random_change(rng, F, n, kind)
        for table in (hompoly._monomial_array, hompoly._times_z, hompoly._gather):
            table.cache_clear()  # the index tables built for this change count in the peak
        tracemalloc.start()
        try:
            g = f.linear_change(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == naive_change(f, rows)
        assert peak < 64 << 20

    @pytest.mark.parametrize("n,e", [(100, 2), (30, 4)])
    def test_float64_headroom_over_the_largest_prime(self, n, e):
        """Over GF(1048573), the largest prime below 2^20, with coefficients and entries near
        p - 1: a sparse f against the termwise expansion, and a dense f, which fills every
        parent's block so that a level's sums come near their bound e n p^2 < 2^53, against
        evaluation at points (a wrong form of degree e vanishes at a point with chance <= e/p)."""
        F = make_field(1048573)
        p, rng = F.p, random.Random(f"headroom-{n}-{e}")
        rows = [[p - 1 - rng.randrange(1 << 10) for _ in range(n)] for _ in range(n)]
        sparse = {}
        while len(sparse) < 4:
            mono = [0] * n
            for _ in range(e):
                mono[rng.randrange(n)] += 1
            sparse[tuple(mono)] = p - 1 - rng.randrange(4)
        f = HomogeneousPolynomial(F, n, e, sparse)
        assert f.linear_change(rows) == naive_change(f, rows)
        f = HomogeneousPolynomial(F, n, e, {mo: p - 1 - rng.randrange(4) for mo in monomials_of_degree(n, e)})
        g, M = f.linear_change(rows), MatrixOverField(F, rows)
        for _ in range(2):
            a = [rng.randrange(p) for _ in range(n)]
            assert g.evaluate(a) == f.evaluate(mat_vec(M, a))

    def test_system_change_checks_the_matrix_once(self, monkeypatch):
        """PolynomialSystem.linear_change checks the matrix once for all generators, with the
        errors each generator's own linear_change raises, and gives the same generators."""
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z0^3 + z1*z2^2 + z2^3"], F3, 3)
        rows = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
        calls = []
        monkeypatch.setattr(hompoly, "rref", lambda *args, fn=hompoly.rref: calls.append(args) or fn(*args))
        moved = S.linear_change(rows)
        assert len(calls) == 1
        assert moved.gens == tuple(g.linear_change(rows) for g in S.gens)
        for bad in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 3, 0], [0, 0, 1]], [[1, 0, 0], [0, 1.0, 0], [0, 0, 1]],
                    [[1, 1, 0], [2, 2, 0], [0, 0, 1]]):
            with pytest.raises(InvalidInputError) as own:
                S.gens[0].linear_change(bad)
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(own.value))}$"):
                S.linear_change(bad)
        # a change checked for another ring is checked again for this one
        with pytest.raises(InvalidInputError, match="wrong shape"):
            S.gens[0].linear_change(hompoly._Change(F3, 2, [[1, 0], [0, 1]]))
        with pytest.raises(InvalidInputError, match=r"entry \[1\]\[1\] = 3 "):
            S.gens[0].linear_change(hompoly._Change(F5, 3, [[1, 0, 0], [0, 3, 0], [0, 0, 1]]))

    def test_composition_law(self):
        rng = random.Random(9)
        F = make_field(3)
        f = random_poly(rng, F, 3, 2)
        while True:
            A = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            B = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            MA, MB = MatrixOverField(F, A), MatrixOverField(F, B)
            if rank(MA) == 3 and rank(MB) == 3:
                break
        # (f o B) o A substitutes z <- B*A*z
        BA = mat_mul(MB, MA).rows
        assert f.linear_change(BA) == f.linear_change(B).linear_change(A)


def scattered(f: HomogeneousPolynomial, degree: int) -> list[int]:
    """f's coefficients placed by looking each monomial of the given degree up in the term map."""
    return [f.terms.get(mo, 0) for mo in monomials_of_degree(f.n_vars, degree)]


class TestMonomialOrder:
    @pytest.mark.parametrize("n_vars", [1, 2, 3, 4, 5, 6, 100])
    def test_descending_lex_and_ranked(self, n_vars):
        """Every exponent vector once, in descending lex order, which is the column order of
        monomial_rank; the cached table they are read from is read-only."""
        for degree in [2] if n_vars == 100 else range(61 if n_vars <= 3 else 9):
            monos = monomials_of_degree(n_vars, degree)
            assert monos == sorted(monos, reverse=True) and len(set(monos)) == math.comb(n_vars - 1 + degree, degree)
            assert all(len(mo) == n_vars and sum(mo) == degree and min(mo) >= 0 for mo in monos)
            ranks = hompoly.monomial_rank(np.array(monos, dtype=np.int64).reshape(len(monos), n_vars), degree)
            assert ranks.tolist() == list(range(len(monos)))
            table = hompoly._monomial_array(n_vars, degree)
            assert table.tolist() == [list(mo) for mo in monos] and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_rank_table_is_binomials(self):
        """Each column the cumulative sum of the one before: C(s - 1 + k, k), as math.comb gives it."""
        for n_vars, degree in [(n, d) for n in range(1, 7) for d in range(41)] + [(2, 512)]:
            table = hompoly._rank_table(n_vars, degree)
            expect = [[math.comb(s - 1 + k, k) for k in range(1, n_vars)] for s in range(degree + 1)]
            assert table.shape == (degree + 1, n_vars - 1) and table.tolist() == expect


class TestDense:
    @pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_row_is_the_terms_scattered(self, pm):
        F = make_field(*pm)
        rng = random.Random(f"dense-{pm}")
        for e in range(5):
            for n in range(1, 5):
                basis = monomials_of_degree(n, e)
                f = HomogeneousPolynomial(F, n, e, {m: rng.randrange(F.order) for m in basis if rng.random() < 0.6})
                for g in (f, HomogeneousPolynomial.zero(F, n, e)):
                    assert g.dense().dtype == np.int64 and g.dense().tolist() == scattered(g, e)

    def test_row_of_built_polynomials(self):
        """Polynomials made from arrays (sum, product, coordinate change) place their terms too."""
        f, g = parse_poly("z0^2 + z1*z2", F3, 3), parse_poly("2*z1 + z2", F3, 3)
        for h in (f + f.scale(2), f * g, f.linear_change([[1, 1, 0], [0, 1, 0], [2, 0, 1]])):
            assert h.dense().tolist() == scattered(h, h.degree)

    def test_read_only_cached_and_shared_by_lift(self):
        f = parse_poly("z0*z1 + z2^2", F2, 3)
        row = f.dense()
        assert f.dense() is row and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1
        assert f.lift_to(make_field(2, 2)).dense() is row

    def test_given_row_kept_read_only(self):
        row = np.array([1, 0, 0, 0, 0, 1], dtype=np.int64)
        f = HomogeneousPolynomial._trusted(F3, 3, 2, {(2, 0, 0): 1, (0, 0, 2): 1}, dense=row)
        assert f.dense() is row and not row.flags.writeable


class TestGradientRows:
    @pytest.mark.parametrize("pm", [(3, 1), (1048573, 1), (3, 2)])
    def test_rows_are_the_partials_vectors(self, pm):
        from strangeci.strangeness import GradedIdeal

        F = make_field(*pm)
        rng = random.Random(f"gradient-{pm}")
        for _ in range(40):
            n, e = rng.randint(1, 6), rng.randint(1, 5)
            basis = monomials_of_degree(n, e)
            f = HomogeneousPolynomial(F, n, e, {m: rng.randrange(F.order) for m in basis if rng.random() < 0.5})
            ideal = GradedIdeal([f])
            want = ideal.vectors([f.partial_derivative(i) for i in range(n)], e - 1)
            assert (f.gradient_rows() == want).all()

    @pytest.mark.parametrize(
        "text,F,n",
        [
            ("2", F3, 2),  # degree 0: every partial is the zero constant
            ("z0 + 2*z2", F3, 3),  # degree 1: constant partials
            ("z0^2*z1 + z1^3 + z0*z1*z2", F2, 3),  # p divides w_0 in z0^2*z1
            ("z0^3 + 2*z1^3 + z0*z1*z2", F3, 3),  # p divides w_0 in z0^3 and w_1 in z1^3
            ("(t)*z0^2*z1 + (t+1)*z1*z2^2 + z2^3", make_field(2, 2), 3),  # GF(4) coefficients
        ],
    )
    def test_rows_are_the_partials_in_edge_cases(self, text, F, n):
        f = parse_poly(text, F, n)
        want = [scattered(f.partial_derivative(j), max(f.degree - 1, 0)) for j in range(n)]
        assert f.gradient_rows().tolist() == want

    def test_one_gather_from_the_dense_row(self, monkeypatch):
        """Once the rank table of the degree below is cached, gradient rows place no term."""
        from strangeci import hompoly

        f = parse_poly("z0^2*z1 + 2*z1*z2^2 + z2^3", F3, 3)
        want = f.gradient_rows()
        g = HomogeneousPolynomial._trusted(F3, 3, 3, dict(f.terms), dense=np.array(f.dense()))

        def refuse(*args):
            raise AssertionError("gradient_rows placed terms")

        monkeypatch.setattr(hompoly, "monomial_rank", refuse)
        assert np.array_equal(g.gradient_rows(), want) and g._arrays is None


class TestNormalizeOperator:
    def test_char2_example(self):
        g = parse_poly("z0*z1 + z2^2", F2, 3)
        assert normalize_z0(g) == parse_poly("z2^2", F2, 3)

    def test_fixed_point(self):
        g = parse_poly("z1^3 + z2^3", F5, 3)
        assert normalize_z0(g) == g

    def test_p3_collapse(self):
        g = parse_poly("z0^2*z1", F3, 2)
        assert normalize_z0(g).is_zero()

    def test_kills_z0_partial_and_preserves_mod_z0(self):
        rng = random.Random(21)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            F = make_field(p)
            g = random_poly(rng, F, 4, rng.randint(1, 4))
            gt = normalize_z0(g)
            assert gt.partial_derivative(0).is_zero()
            diff = gt - g
            assert all(mono[0] > 0 for mono in diff.terms)

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (5, 2)])
    def test_matches_taylor_series_operator(self, p, m):
        """The exponent filter equals sum_{j<p} (-z_0)^j / j! * d^j g / d z_0^j,
        taken term by term from the derivatives as the reference."""

        def taylor(g):
            out, dj = g, g
            for j in range(1, p):
                dj = dj.partial_derivative(0)
                if not dj.is_zero():
                    scalar = (-1) ** j * pow(math.factorial(j) % p, p - 2, p) % p
                    out = out + dj.multiply_monomial((j,) + (0,) * (g.n_vars - 1), scalar)
            return out

        rng = random.Random(f"normalize-{p}-{m}")
        F = make_field(p, m)
        for _ in range(30):
            g = random_poly(rng, F, rng.randint(1, 3), rng.randint(0, 3 * p))
            assert normalize_z0(g) == taylor(g)


class TestInvariants:
    def test_degree_invariant_everywhere(self):
        f = parse_poly("z0^2 + z1*z2", F3, 3)
        assert all(sum(m) == 2 for m in f.terms)
        assert all(sum(m) == 1 for m in f.partial_derivative(1).terms)

    def test_zero_coefficients_never_stored(self):
        f = parse_poly("z0^2 + 2*z0^2", F3, 2)
        assert (2, 0) not in f.terms or f.terms[(2, 0)] != 0


VIEW_FIELDS = [(2, 1), (3, 1), (1048573, 1), (2, 2), (3, 2), (2, 8)]


def check_view(f):
    """arrays() is one read-only int64 view equal to .terms row by row, and f is already valid."""
    E, c = view = f.arrays()
    assert f.arrays() is view and not (E.flags.writeable or c.flags.writeable)
    assert E.dtype == c.dtype == np.int64 and E.shape == (len(f.terms), f.n_vars)
    assert list(zip(map(tuple, E.tolist()), c.tolist())) == list(f.terms.items())
    assert (c != 0).all()
    assert f == HomogeneousPolynomial(f.field, f.n_vars, f.degree, dict(f.terms))


def schoolbook_add(f, g):
    F, terms = f.field, dict(f.terms)
    for mono, c in g.terms.items():
        s = F.add(terms.get(mono, 0), c)
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
    return terms


def schoolbook_mul(f, g):
    F, terms = f.field, {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = F.add(terms.get(mono, 0), F.mul(c1, c2))
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return terms


def sparse_poly(rng, F, n, e, density):
    return HomogeneousPolynomial(
        F, n, e, {m: rng.randrange(F.order) for m in monomials_of_degree(n, e) if rng.random() < density}
    )


class TestArrayView:
    @settings(max_examples=150, deadline=None)
    @given(
        pm=st.sampled_from(VIEW_FIELDS),
        n=st.integers(1, 4),
        e=st.integers(0, 4),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_every_constructor_path(self, pm, n, e, density, seed):
        from strangeci.strangeness import _z0_slices

        F, rng = make_field(*pm), random.Random(seed)
        f, g = sparse_poly(rng, F, n, e, density), sparse_poly(rng, F, n, e, 0.5)
        prime = sparse_poly(rng, make_field(F.p), n, e, density)
        made = [
            f,
            parse_poly(format_poly(f), F, n),
            f.linear_change(random_change(rng, F, n, rng.choice(["random", "shear", "permutation"]))),
            *(f.partial_derivative(i) for i in range(n)),
            prime.lift_to(F),
            normalize_z0(f),
            f + g,
            f + (-f),
            f * g,
            *_z0_slices(f).values(),
        ]
        for h in made:
            check_view(h)

    @settings(max_examples=150, deadline=None)
    @given(
        pm=st.sampled_from(VIEW_FIELDS),
        n=st.integers(1, 4),
        e1=st.integers(0, 3),
        e2=st.integers(0, 3),
        seed=st.integers(0, 2**32),
    )
    def test_add_mul_parse_match_schoolbook(self, pm, n, e1, e2, seed):
        F, rng = make_field(*pm), random.Random(seed)
        f, g, h = (sparse_poly(rng, F, n, e, rng.choice([0.0, 0.4, 1.0])) for e in (e1, e1, e2))
        assert (f + g).terms == schoolbook_add(f, g)
        assert (f - g).terms == schoolbook_add(f, -g)
        assert (f * h).terms == schoolbook_mul(f, h) and (f * h).degree == e1 + e2
        # a term list with repeats and signs parses to its schoolbook sum
        monos = monomials_of_degree(n, e1)
        picks = [(rng.choice(monos), rng.randrange(1, F.order), rng.random() < 0.3) for _ in range(rng.randint(1, 8))]
        want: dict = {}
        for mono, c, minus in picks:
            s = F.add(want.get(mono, 0), F.neg(c) if minus else c)
            if s:
                want[mono] = s
            else:
                want.pop(mono, None)
        text = " + ".join(
            ("-" if minus else "") + "*".join([f"({F.format(c)})"] + [f"z{i}^{k}" for i, k in enumerate(mono) if k])
            for mono, c, minus in picks
        )
        parsed = parse_poly(text, F, n)
        assert parsed.terms == want and parsed.degree == e1

    def test_cancellation_and_zero_operands_of_another_degree(self):
        f = parse_poly("z0*z1 + 2*z1^2", F3, 2)
        for zero in [f + (-f), f - f, parse_poly("z0*z1 - z0*z1", F3, 2)]:
            assert zero.is_zero() and zero.degree == 2
            check_view(zero)
        z5 = HomogeneousPolynomial.zero(F3, 2, 5)
        assert z5 + f == f and f + z5 == f and (z5 + z5).degree == 5
        assert (f * z5).is_zero() and (f * z5).degree == 7
