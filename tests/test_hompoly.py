import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strangeci.errors import HomogeneityError, InvalidInputError, ParseError
from strangeci.exactla import MatrixOverField, invert, rank
from strangeci.geometry import ProjectivePoint
from strangeci.gf import make_field
from strangeci.hompoly import (
    HomogeneousPolynomial,
    format_poly,
    monomials_of_degree,
    normalize_z0,
    parse_poly,
)

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
        from strangeci.exactla import MatrixOverField, mat_vec, rank

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
        tracemalloc.start()
        try:
            g = f.linear_change(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == naive_change(f, rows)
        assert peak < 64 << 20

    def test_composition_law(self):
        rng = random.Random(9)
        from strangeci.exactla import MatrixOverField, mat_mul, rank

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
