import random
import tracemalloc

import numpy as np

import pytest

from strangeci import geometry
from strangeci.errors import (
    BudgetExceededError,
    FieldMismatchError,
    InvalidInputError,
    SingularPointError,
)
from strangeci.exactla import MatrixOverField, rank, rank_and_kernel
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
    _BLOCK,
    _BlockEvaluator,
    _stack,
    _block_level,
    _first_zeros,
    _float_log,
    _grid,
    _orbit,
    _point_blocks,
    _table,
    _table_level,
    is_singular_at,
    jacobian_full,
    parse_point,
    singular_search,
    tangent_space,
)
from strangeci.gf import make_field
from strangeci.hompoly import HomogeneousPolynomial, monomials_of_degree, parse_poly

from matrices import mat_mul, mat_vec

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def unit_point(field, n_plus_1, i):
    return ProjectivePoint(field, [1 if j == i else 0 for j in range(n_plus_1)])


class TestProjectivePoint:
    def test_normalization(self):
        a = ProjectivePoint(F3, [0, 2, 1])
        assert a.coords == (0, 1, 2)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            ProjectivePoint(F2, [0, 0, 0])

    def test_parse_and_format_roundtrip(self):
        a = parse_point("(0:1:2)", F3)
        assert a.coords == (0, 1, 2)
        assert parse_point(str(a), F3) == a

    def test_parse_extension_prefix(self):
        a = parse_point("@GF(2^2)(1:t:t+1)", F2)
        assert a.field is F4 and a.coords == (1, 2, 3)
        assert parse_point(str(a), F2) == a

    def test_minimal_subfield_degree(self):
        assert parse_point("@GF(2^2)(1:t:0)", F2).minimal_subfield_degree() == 2
        assert parse_point("@GF(2^2)(1:1:0)", F2).minimal_subfield_degree() == 1

    def test_galois_canonical_is_orbit_minimum(self):
        a = parse_point("@GF(2^2)(1:t+1:0)", F2)
        assert a.galois_canonical().coords == (1, 2, 0)

    # every point of P^2 over GF(4), GF(8), GF(9); 200 seeded points of P^3 over GF(16), GF(27)
    @pytest.mark.parametrize("p,m,n,count", [(2, 2, 2, 0), (2, 3, 2, 0), (3, 2, 2, 0), (2, 4, 3, 200), (3, 3, 3, 200)])
    def test_orbit_methods_match_brute_force_walk(self, p, m, n, count):
        """minimal_subfield_degree and galois_canonical against the conjugates Frobenius^k(a),
        k = 1..m, taken coordinate-wise: the first k that gives back a, and their least."""
        F = make_field(p, m)
        if count:
            rng = random.Random(f"orbit-{F.order}")
            points = []
            while len(points) < count:
                coords = [rng.randrange(F.order) for _ in range(n + 1)]
                if any(coords):
                    points.append(ProjectivePoint(F, coords))
        else:
            points = list(enumerate_points(F, n))
        degrees = set()
        for a in points:
            conjugates, cur = [], a.coords
            for _ in range(m):
                cur = tuple(F.frobenius(c) for c in cur)
                conjugates.append(cur)
            degree = conjugates.index(a.coords) + 1
            assert a.minimal_subfield_degree() == degree
            assert a.galois_canonical() == ProjectivePoint(F, min(conjugates))
            degrees.add(degree)
        divisors = {d for d in range(1, m + 1) if m % d == 0}
        assert m in degrees and degrees <= divisors and (count or degrees == divisors)

    def test_orbit_over_prime_field_is_the_point(self):
        """Frobenius is the identity on GF(p); over GF(4) the walk still takes t to t + 1."""
        for F in (F2, F3, F5):
            for a in enumerate_points(F, 2):
                assert _orbit(F, a.coords) == [a.coords]
        assert _orbit(F4, (1, 2, 0)) == [(1, 2, 0), (1, 3, 0)] and _orbit(F4, (0, 1, 1)) == [(0, 1, 1)]

    def test_point_count(self):
        # |P^2(GF(3))| = 9 + 3 + 1
        assert len(list(enumerate_points(F3, 2))) == 13

    def test_enumeration_no_duplicates(self):
        pts = list(enumerate_points(F4, 2))
        assert len(pts) == len(set(pts)) == 16 + 4 + 1


class TestJacobians:
    def test_quadric_gradient(self):
        S = PolynomialSystem.parse(["z0^2 + z1*z2"], F2, 3)
        a = parse_point("(1:1:1)", F2)
        # partials are (0, z2, z1); D drops column 0, D' columns 0 and N
        rows = jacobian_full(S, a).rows
        assert rows == [[0, 1, 1]]
        assert [row[1:] for row in rows] == [[1, 1]]
        assert [row[1:-1] for row in rows] == [[1]]

    def test_p_divides_family_vanishing_row(self):
        S = strange_hypersurface_p_divides(3, 3, 3)
        v = unit_point(F3, 4, 3)
        assert jacobian_full(S, v).rows == [[0, 0, 0, 0]]

    def test_checks_the_field_against_each_partial(self):
        """A point over GF(16) may meet GF(4) coefficients that differentiate away: every
        partial of (t)*z0^2 + z1*z2 lies in GF(2)[z], though the polynomial does not."""
        F16 = make_field(2, 4)
        a = ProjectivePoint(F16, [1, 0, 0])
        S = PolynomialSystem.parse(["(t)*z0^2 + z1*z2"], F4, 3)
        assert jacobian_full(S, a).rows == [[0, 0, 0]]
        with pytest.raises(FieldMismatchError):
            S.gens[0].evaluate(a.coords, F16)
        with pytest.raises(FieldMismatchError):
            jacobian_full(PolynomialSystem.parse(["(t)*z0*z1 + z2^2"], F4, 3), a)
        with pytest.raises(FieldMismatchError, match="not an extension of the coefficient field"):
            jacobian_full(S, ProjectivePoint(make_field(3), [1, 0, 0]))

    def test_shapes(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2", "z1^2 + z0*z3"], F5, 4)
        a = parse_point("(1:0:0:0)", F5)
        J = jacobian_full(S, a)
        assert J.ncols == 4
        assert [len(row[1:]) for row in J.rows] == [3, 3]
        assert [len(row[1:-1]) for row in J.rows] == [2, 2]


class TestTangentAndGauss:
    def test_smooth_conic_tangent(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2"], F3, 3)
        a = parse_point("(1:0:0)", F3)
        T = tangent_space(S, a)
        # gradient is (z1, z0, 2z2) = (0, 1, 0): tangent plane z1 = 0
        assert T.dim == 2
        assert T.contains([1, 0, 0]) and T.contains([0, 0, 1]) and not T.contains([0, 1, 0])

    def test_tangent_contains_the_point(self):
        rng = random.Random(6)
        S = PolynomialSystem.parse(["z0*z1 + z2*z3"], F3, 4)
        count = 0
        for a in enumerate_points(F3, 3):
            if S.on_zero_set(a) and not is_singular_at(S, a):
                assert tangent_space(S, a).contains_point(a)
                count += 1
        assert count > 0

    def test_match_partials_and_two_elimination_reference(self):
        """At smooth points over extension fields of random complete intersections, r = 1 and 2:
        the Gauss map is the point of the partials' values, and the tangent space the reduced
        echelon form of rank_and_kernel's basis of the Jacobian's kernel."""
        rng = random.Random(29)
        checked = {1: 0, 2: 0}
        for F, degrees in ((F4, (3,)), (F4, (2, 2)), (make_field(3, 2), (2,)), (make_field(3, 2), (2, 2))):
            for _ in range(2):
                gens = []
                for e in degrees:
                    terms = {mono: rng.randrange(F.p) for mono in monomials_of_degree(4, e)}
                    gens.append(HomogeneousPolynomial(make_field(F.p), 4, e, terms))
                S = PolynomialSystem(gens)
                for x in enumerate_points(F, 3):
                    if x.minimal_subfield_degree() == 1 or not S.on_zero_set(x) or is_singular_at(S, x):
                        continue
                    J = jacobian_full(S, x)
                    expected = LinearSubspace(F, 4, rank_and_kernel(J)[1])
                    assert tangent_space(S, x) == expected and len(expected.basis) == 4 - S.r
                    if S.r == 1:
                        f = S.gens[0]
                        grad = [f.partial_derivative(j).evaluate(x.coords, F) for j in range(4)]
                        assert gauss_map(f, x) == ProjectivePoint(F, grad)
                    checked[S.r] += 1
        assert min(checked.values()) >= 20

    def test_off_zero_set_rejected(self):
        S = PolynomialSystem.parse(["z0^2 + z1*z2"], F3, 3)
        with pytest.raises(InvalidInputError):
            tangent_space(S, parse_point("(1:0:0)", F3))

    def test_singular_point_rejected(self):
        S = strange_hypersurface_p_divides(2, 4, 2)
        with pytest.raises(SingularPointError):
            tangent_space(S, unit_point(F2, 3, 2))

    def test_gauss_map_strange_conic_is_constant(self):
        # in char 2 the conic z0^2 + z1*z2 has gradient (0, z2, z1):
        # every tangent line passes through (1:0:0)
        f = quadric_normal_form(2, 2).gens[0]
        e0 = unit_point(F2, 3, 0)
        for a in enumerate_points(F2, 2):
            if f.evaluate(a.coords, F2) == 0:
                g = gauss_map(f, a)
                assert g.coords[0] == 0  # dual hyperplane contains e0
        # same over the quadratic extension
        fl = f.lift_to(F4)
        for a in enumerate_points(F4, 2):
            if fl.evaluate(a.coords, F4) == 0:
                assert gauss_map(fl, a).coords[0] == 0

    def test_gauss_map_p3_not_constant(self):
        f = quadric_normal_form(2, 3).gens[0]
        duals = set()
        for a in enumerate_points(F3, 2):
            if f.evaluate(a.coords, F3) == 0:
                duals.add(gauss_map(f, a))
        assert len(duals) > 1


class TestIsSingularAt:
    def test_smooth_quadric_everywhere(self):
        S = quadric_normal_form(3, 3)
        assert not any(is_singular_at(S, a) for a in enumerate_points(F3, 3))

    def test_known_singular_point(self):
        S = strange_hypersurface_p_divides(2, 4, 2)
        assert is_singular_at(S, unit_point(F2, 3, 2))
        assert not is_singular_at(S, unit_point(F2, 3, 0))

    def test_pgl_equivariance(self):
        rng = random.Random(31)
        S = strange_hypersurface_p_divides(3, 3, 3)
        for _ in range(20):
            while True:
                rows = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
                if rank(MatrixOverField(F3, rows)) == 4:
                    break
            M = MatrixOverField(F3, rows)
            SM = S.linear_change(rows)
            for a in [unit_point(F3, 4, i) for i in range(4)]:

                Ma = ProjectivePoint(F3, mat_vec(M, list(a.coords)))
                assert is_singular_at(SM, a) == is_singular_at(S, Ma)


class TestBlockEvaluator:
    """The log-table evaluator against the scalar HomogeneousPolynomial.evaluate."""

    @staticmethod
    def polys(F, n_vars, rng):
        """Forms over F's prime field: dense ones of degrees 0..4, whose monomials
        give a zero coordinate exponent 0 or a positive one; a form whose every
        monomial involves z0; and one of degree q + 1, whose exponents pass q - 1."""
        P, pad = make_field(F.p), (0,) * (n_vars - 2)
        out = []
        for e in range(5):
            basis = monomials_of_degree(n_vars, e)
            out.append(HomogeneousPolynomial(P, n_vars, e, {mo: rng.randrange(1, F.p) for mo in basis}))
        out.append(HomogeneousPolynomial(P, n_vars, 3, {(3, 0) + pad: 1, (1, 2) + pad: F.p - 1}))
        q = F.order
        out.append(HomogeneousPolynomial(P, n_vars, q + 1, {(q + 1, 0) + pad: 1, (1, q) + pad: 1, pad + (0, q + 1): 1}))
        return out

    # over GF(2), q - 1 = 1: every nonzero log is 0 and the zero sentinel is 1
    FIELDS = [(2, 1, 4), (3, 1, 3), (65521, 1, 3), (2, 2, 4), (2, 3, 4), (3, 2, 3), (5, 2, 3), (2, 8, 3)]

    @pytest.mark.parametrize("p,m,n_vars", FIELDS, ids=[f"{p}-{n}" if m == 1 else f"{p}^{m}-{n}" for p, m, n in FIELDS])
    def test_matches_scalar_evaluate(self, p, m, n_vars):
        F = make_field(p, m)
        rng = random.Random(f"block-{F.order}")
        polys = self.polys(F, n_vars, rng)
        # random points, a third of the coordinates zero
        rows = [[0 if rng.random() < 0.3 else rng.randrange(F.order) for _ in range(n_vars)] for _ in range(300)]
        points = [np.array(rows, dtype=np.int64)]
        if F.order < 10:  # every point of P^(n_vars - 1)
            points.extend(_point_blocks(F.order, n_vars))
        X = np.concatenate(points)
        got = _BlockEvaluator(_stack(polys), F)(X)
        assert got.shape == (len(X), len(polys)) and got.dtype == np.int64
        assert got.tolist() == [[f.evaluate(row.tolist(), F) for f in polys] for row in X]
        assert (got[X.any(axis=1)] != 0).any() and (got[:, 1:] == 0).any()

    def test_exact_past_float64_bound(self):
        """8 256 terms over GF(1048571): T (p-1)^2 passes 2^53, and at (-1, -1, -1),
        where every monomial of odd degree is -1, so does the sum of the products."""
        p, e = 1048571, 127
        F, rng = make_field(p), random.Random("block-2^53")
        f = HomogeneousPolynomial(F, 3, e, {mo: rng.randrange(p - 8, p) for mo in monomials_of_degree(3, e)})
        E, C = f.arrays()
        assert len(C) * (p - 1) ** 2 >= 1 << 53
        rows = [[p - 1] * 3, [1, 0, 0], [0, 2, p - 2]] + [[rng.randrange(p) for _ in range(3)] for _ in range(5)]
        got = _BlockEvaluator((E, C[:, None]), F)(np.array(rows, dtype=np.int64))
        assert got[:, 0].tolist() == [f.evaluate(row, F) for row in rows]

    def test_float_log_table_shared_and_read_only(self):
        """Evaluators over one field and zero sentinel read one float64 log table."""
        F = make_field(2, 4)
        f = HomogeneousPolynomial(F2, 3, 2, {(2, 0, 0): 1, (0, 1, 1): 1})
        a, b = _BlockEvaluator(_stack([f]), F), _BlockEvaluator(_stack([f, f]), F)
        assert a.log is b.log is _float_log(F, a.zero_log)
        assert a.log.dtype == np.float64 and not a.log.flags.writeable
        assert a.log[0] == a.zero_log and a.log[1:].tolist() == F.array_tables()[1][1:].tolist()


class TestSplitFilter:
    """The head x tail product against the block evaluator over _point_blocks."""

    @staticmethod
    def random_form(p, n_vars, e, rng):
        basis = monomials_of_degree(n_vars, e)
        terms = {mo: rng.randrange(p) for mo in basis}
        terms[basis[-1]] = 1
        return HomogeneousPolynomial(make_field(p), n_vars, e, terms)

    @staticmethod
    def enumerated_grids(monkeypatch):
        """The numbers of coordinates of the point grids _first_zeros goes on to
        enumerate: the whole grid on the block path, heads and tails when split."""
        grids = []

        def spy(q, n, *args, **kwargs):
            grids.append(n)
            yield from _point_blocks(q, n, *args, **kwargs)

        monkeypatch.setattr(geometry, "_point_blocks", spy)
        return grids

    # e = 0 stands for the smooth quadric quadric_normal_form(n_vars - 1, p).  Over
    # GF(257) in P^2 the tail is z2 alone, so an entry of P sums at most e + 1
    # products of digits: below 11 * 256^2 < 2^22, the float32 product.
    @pytest.mark.parametrize(
        "p,m,n_vars,e",
        [(5, 2, 5, 0), (5, 2, 5, 3), (2, 6, 4, 3), (3, 3, 5, 2), (257, 1, 3, 2), (2, 4, 4, 4), (257, 1, 3, 9), (257, 1, 3, 10)],
    )
    def test_survivors_match_block_path_in_order(self, p, m, n_vars, e, monkeypatch):
        """On the whole grid and on the grid restricted to Frobenius-orbit representatives."""
        rng = random.Random(f"split-{p}-{m}-{e}")
        f = self.random_form(p, n_vars, e, rng) if e else quadric_normal_form(n_vars - 1, p).gens[0]
        F = make_field(p, m)
        ev = _BlockEvaluator(_stack([f]), F)
        for reps in [None, F.frobenius_representatives()]:
            grids = self.enumerated_grids(monkeypatch)
            got = list(_first_zeros(f, F, n_vars, reps))
            assert grids and n_vars not in grids, "the grid should take the head x tail product"
            monkeypatch.undo()
            blocks = list(_point_blocks(F.order, n_vars, reps=reps))
            expect = np.concatenate([X[ev(X)[:, 0] == 0] for X in blocks])
            assert np.array_equal(np.concatenate(got), expect)
            assert 0 < len(expect) < sum(len(X) for X in blocks)

    def test_float64_product_past_float32_range(self, monkeypatch):
        """f = z1^40 - (z0^40 + z0^39 z2 + ... + z2^40) over GF(1021): at a head (1, x),
        P = (x^40 - 1) + 1020 (t + t^2 + ... + t^40 mod p), which passes 2^24 at
        nearly every tail t, where float32 no longer holds every integer."""
        p, d = 1021, 40
        F = make_field(p)
        terms = {(d - k, 0, k): p - 1 for k in range(d + 1)}
        terms[(0, d, 0)] = 1
        f = HomogeneousPolynomial(F, 3, d, terms)
        t = np.arange(p)
        powers = sum((p - 1) * np.array([pow(int(x), k, p) for x in t]) for k in range(1, d + 1))
        assert (powers >= 1 << 24).mean() > 0.9
        grids = self.enumerated_grids(monkeypatch)
        got = np.concatenate(list(_first_zeros(f, F, 3)))
        assert grids and 3 not in grids, "the grid should take the head x tail product"
        monkeypatch.undo()
        ev = _BlockEvaluator(_stack([f]), F)
        expect = np.concatenate([X[ev(X)[:, 0] == 0] for X in _point_blocks(p, 3)])
        assert np.array_equal(got, expect) and len(expect) > 1000

    @pytest.mark.parametrize("p,m,n_vars", [(2, 2, 4), (2, 3, 3), (2, 4, 3), (3, 2, 3), (3, 3, 3), (5, 2, 3), (2, 3, 4), (2, 6, 2)])
    def test_restricted_grid_keeps_every_galois_orbit_in_order(self, p, m, n_vars):
        """The points whose coordinate after the pivot is a Frobenius-orbit
        representative meet every orbit, and their Galois-canonical points come
        in the order of the whole grid's: each orbit's canonical point comes first."""
        F = make_field(p, m)
        reps = F.frobenius_representatives()

        def first_of_each_orbit(reps):
            """{canonical point: the first point of its orbit}, in enumeration order, and the point count."""
            rows = np.concatenate(list(_point_blocks(F.order, n_vars, reps=reps))).tolist()
            first = {}
            for row in rows:
                a = ProjectivePoint(F, row)
                first.setdefault(a.galois_canonical(), a)
            return first, len(rows)

        full, full_count = first_of_each_orbit(None)
        restricted, count = first_of_each_orbit(reps)
        assert list(restricted) == list(full)
        assert all(canon == a for canon, a in restricted.items())
        assert count == 1 + sum(len(reps) * F.order**k for k in range(n_vars - 1)) < full_count

    @pytest.mark.parametrize("p,m,n_vars", [(2, 3, 4), (3, 2, 4), (5, 2, 3), (2, 6, 3)])
    def test_small_grids_keep_block_path(self, p, m, n_vars, monkeypatch):
        """Below 2^10 points, or 16 tail grids, the split's set-up costs more than it saves."""
        grids = self.enumerated_grids(monkeypatch)
        list(_first_zeros(self.random_form(p, n_vars, 3, random.Random(p)), make_field(p, m), n_vars))
        assert grids == [n_vars]

    def test_exact_budget_at_level_boundaries(self):
        """781 points at m = 1 and 407 682 at m <= 2: each level is charged its
        whole grid, though GF(25) enumerates only its Frobenius-orbit representatives."""
        S = quadric_normal_form(4, 5)
        assert singular_search(S, m_max=2, budget=407_682) == []
        for budget, completed, used in [(407_681, 1, 781), (780, 0, 0)]:
            with pytest.raises(BudgetExceededError) as exc:
                singular_search(S, m_max=2, budget=budget)
            assert exc.value.completed_m == completed and exc.value.partial == []
            assert exc.value.used == used


class TestTables:
    """Census-sized levels, evaluated from the cached monomial tables."""

    @staticmethod
    def random_system(p, n_vars, degrees, rng):
        basis = {e: monomials_of_degree(n_vars, e) for e in degrees}
        return [HomogeneousPolynomial(make_field(p), n_vars, e, {mo: rng.randrange(p) for mo in basis[e]} | {basis[e][-1]: 1})
                for e in degrees]

    # the grid is every point over GF(p) and the Frobenius-restricted one over GF(p^m), m > 1
    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
    def test_values_and_jacobians_match_block_path(self, p, m):
        F, rng = make_field(p, m), random.Random(f"table-{p}-{m}")
        reps = F.frobenius_representatives() if m > 1 else None
        levels = 0
        for n_vars in (3, 4, 5):
            X = _grid(F, n_vars)
            assert np.array_equal(X, np.concatenate(list(_point_blocks(F.order, n_vars, reps=reps))))
            for e in range(1, 5):
                basis = monomials_of_degree(n_vars, e)
                if len(X) * len(basis) > _BLOCK:
                    continue  # singular_search takes such a level on the block path
                D = _table(F, n_vars, e)
                assert D.shape == (m, len(X), len(basis)) and D.dtype == F.array_tables()[2].dtype
                assert not D.flags.writeable and _table(F, n_vars, e) is D
                (f,) = self.random_system(p, n_vars, [e], rng)
                row = np.array([f.terms.get(mo, 0) for mo in basis])
                values = sum(D[d].astype(np.int64) @ row % p * p**d for d in range(m))
                assert values.tolist() == _BlockEvaluator(_stack([f]), F)(X)[:, 0].tolist()
                self.assert_paths_agree(self.random_system(p, n_vars, [e, max(e - 1, 1)], rng), F, reps)
                levels += 1
            # every partial of z1^p + ... + zN^p vanishes mod p, so its gradient stack has no rows
            frobenius = parse_poly(" + ".join(f"z{j}^{p}" for j in range(1, n_vars)), make_field(p), n_vars)
            assert len(frobenius.gradient_stack()[0]) == 0
            (linear,) = self.random_system(p, n_vars, [1], rng)
            if len(X) * len(monomials_of_degree(n_vars, p)) <= _BLOCK:
                self.assert_paths_agree([frobenius], F, reps)
                self.assert_paths_agree([linear, frobenius], F, reps)
                levels += 1
            self.assert_paths_agree([linear], F, reps)
        assert levels >= 5

    @staticmethod
    def assert_paths_agree(gens, F, reps):
        """The table path and the block path give the same zeros, in order, and Jacobians."""
        n_vars = gens[0].n_vars
        pts, J = _table_level(gens, F, n_vars)
        later, gradients = [_stack([g]) for g in gens[1:]], [g.gradient_stack() for g in gens]
        blocks = list(_block_level(gens, later, gradients, F, n_vars, reps))
        assert np.array_equal(pts, np.concatenate([b[0] for b in blocks]))
        assert np.array_equal(J, np.concatenate([b[1] for b in blocks])) and J.shape == (len(pts), len(gens), n_vars)

    @pytest.mark.parametrize("p,N,degrees,m_max", [(2, 3, (3,), 4), (2, 3, (2, 2), 4), (3, 3, (3,), 2), (2, 3, (4,), 4)])
    def test_census_levels_build_no_block_evaluator(self, p, N, degrees, m_max, monkeypatch):
        """Every level the census configurations reach up to GF(16) and GF(9) takes the tables."""
        from strangeci.census import CensusSpec, sample_hv

        made = []

        class Spy(_BlockEvaluator):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        systems = list(sample_hv(CensusSpec(p, N, degrees, count=3, seed=21)))
        monkeypatch.setattr(geometry, "_BlockEvaluator", Spy)
        hits = [singular_search(S, m_max=m_max) for S in systems]
        assert made == []
        monkeypatch.undo()
        assert hits == [TestSingularSearch.bruteforce_singular_points(S, m_max) for S in systems]

    def test_large_level_builds_no_table_or_grid(self, monkeypatch):
        """GF(25)'s 244 141-point grid in P^4 takes the block path: no grid is held for it."""
        built = []
        for name in ("_grid", "_table"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda F, *args, fn=fn: built.append(F) or fn(F, *args))
        assert singular_search(quadric_normal_form(4, 5), m_max=2) == []
        assert built and set(built) == {F5}

    def test_coefficients_outside_the_prime_field_rejected(self):
        """t * z0^2 + z1 * z2 over GF(4) has a coefficient outside GF(2): no level runs."""
        S = PolynomialSystem.parse(["(t)*z0^2 + z1*z2"], F4, 3)
        with pytest.raises(FieldMismatchError):
            singular_search(S, m_max=1)

    def test_gradient_stack_matches_partial_derivative(self):
        """Each generator's gradient stack holds every monomial once, equals the nonzero columns of
        its gradient_rows() in their order, and has the values of its partials from partial_derivative."""
        rng = random.Random("jacobian-stack")
        systems = [self.random_system(p, n, degrees, rng) for p, n, degrees in [(2, 4, (3, 1)), (3, 4, (4, 3)), (5, 3, (6,))]]
        for gens in systems:
            F = make_field(gens[0].field.p, 2)
            X = np.array([[rng.randrange(F.order) for _ in range(gens[0].n_vars)] for _ in range(200)])
            for g in gens:
                E, C = g.gradient_stack()
                assert len(np.unique(E, axis=0)) == len(E)
                G = g.gradient_rows()
                keep = G.any(axis=0)
                assert np.array_equal(E, np.array(monomials_of_degree(g.n_vars, g.degree - 1))[keep])
                assert np.array_equal(C, G[:, keep].T)
                expect = _BlockEvaluator(_stack([g.partial_derivative(j) for j in range(g.n_vars)]), F)(X)
                assert np.array_equal(_BlockEvaluator((E, C), F)(X), expect)


class TestSingularSearch:
    def test_p_divides_family_exact_locus(self):
        # (3, 4, 2) at m_max = 6 takes the head x tail product over GF(64)
        for N, e, p, m_max in [(2, 4, 2, 2), (3, 3, 3, 2), (2, 6, 3, 2), (3, 4, 2, 6)]:
            F = make_field(p)
            S = strange_hypersurface_p_divides(N, e, p)
            hits = singular_search(S, m_max=m_max)
            assert hits == [(1, unit_point(F, N + 1, N))]

    def test_sparse_high_degree_search_in_small_memory(self):
        """The block path's Jacobian stack follows the generator's 8 terms, not its C(27, 7) = 888 030
        monomials: a stack gathered from the dense gradient rows peaks near 250 MB here."""
        S = strange_hypersurface_p_divides(7, 20, 2)
        tracemalloc.start()
        try:
            hits = singular_search(S, m_max=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == [(1, unit_point(F2, 8, 7))]
        assert peak < 32 << 20
        # at degree 10^9 in 27 variables the degree-(e-1) monomials overflow an int64 count;
        # 999 999 999 is 0 mod 3, so z0^999999999 drops out of every partial
        E, C = parse_poly("z1^999999998*z2 + z0^999999999", make_field(3), 27).gradient_stack()
        assert E.tolist() == [[0, 999_999_998] + [0] * 25, [0, 999_999_997, 1] + [0] * 24]
        assert C.tolist() == [[0, 0, 1] + [0] * 24, [0, 2] + [0] * 25]

    def test_p_not_divides_family(self):
        # e = p + 1: only (0:1:0:...); e > p + 1: both unit points
        hits = singular_search(strange_hypersurface_p_not_divides(3, 3, 2), m_max=2)
        assert hits == [(1, unit_point(F2, 4, 1))]
        hits = singular_search(strange_hypersurface_p_not_divides(3, 5, 2), m_max=2)
        assert set(pt for _, pt in hits) == {unit_point(F2, 4, 0), unit_point(F2, 4, 1)}

    def test_smooth_quadric_empty(self):
        S = quadric_normal_form(4, 2)
        assert singular_search(S, m_max=3) == []

    def test_lift_independence(self):
        # points found over GF(2) are reported at m=1 even when scanning m_max=3
        hits = singular_search(strange_hypersurface_p_divides(2, 4, 2), m_max=3)
        assert all(m == 1 for m, _ in hits)

    @staticmethod
    def bruteforce_singular_points(S, m_max):
        """is_singular_at at every point of enumerate_points, in search order."""
        expect = []
        for m in range(1, m_max + 1):
            F = make_field(S.field.p, m)
            lifted = PolynomialSystem([g.lift_to(F) for g in S.gens])
            for a in enumerate_points(F, S.n):
                if a.minimal_subfield_degree() == m and is_singular_at(lifted, a):
                    hit = (m, a.galois_canonical())
                    if hit not in expect:
                        expect.append(hit)
        return expect

    @staticmethod
    def singular_at(a, e, rng):
        """A random form of degree e over GF(p) singular at a, and so at a's conjugates: its
        coefficients are a random nonzero vector of the kernel of the GF(p)-linear
        conditions f(a) = 0 and df/dz_j(a) = 0, each read digit by digit."""
        F, n_vars = a.field, a.n + 1
        P = make_field(F.p)
        basis = monomials_of_degree(n_vars, e)
        monos = [HomogeneousPolynomial(P, n_vars, e, {mo: 1}) for mo in basis]
        rows = []
        for h in [monos] + [[mo.partial_derivative(j) for mo in monos] for j in range(n_vars)]:
            digits = [F.coeffs(g.evaluate(a.coords, F)) for g in h]
            rows += [[d[k] for d in digits] for k in range(F.m)]
        _, kernel = rank_and_kernel(MatrixOverField(P, rows, ncols=len(basis)))
        while True:
            mult = [rng.randrange(P.p) for _ in kernel]
            coeffs = [sum(c * v[i] for c, v in zip(mult, kernel)) % P.p for i in range(len(basis))]
            if any(coeffs):
                return HomogeneousPolynomial(P, n_vars, e, dict(zip(basis, coeffs)))

    @staticmethod
    def level_paths(monkeypatch, n_vars):
        """The orders of the fields whose level takes the head x tail product (it enumerates grids
        of fewer coordinates than the level's), and of those whose level reads the grid tables."""
        split, tables = set(), set()

        def blocks(q, n, *args, **kwargs):
            if n < n_vars:
                split.add(q)
            yield from _point_blocks(q, n, *args, **kwargs)

        monkeypatch.setattr(geometry, "_point_blocks", blocks)
        monkeypatch.setattr(geometry, "_grid", lambda F, n: tables.add(F.order) or _grid(F, n))
        return split, tables

    def test_matches_bruteforce_oracle(self, monkeypatch):
        rng = random.Random(14)
        from strangeci.census import CensusSpec, sample_hv
        from strangeci.hompoly import HomogeneousPolynomial, monomials_of_degree

        systems = []
        for _ in range(10):
            basis = monomials_of_degree(3, 3)
            terms = {mo: rng.randrange(2) for mo in basis}
            f = HomogeneousPolynomial(F2, 3, 3, terms)
            if not f.is_zero():
                systems.append((PolynomialSystem([f]), 2))
        # GF(9) digit planes and 2x4 elimination; GF(25) with a cubic;
        # 3x5 elimination over GF(2)
        for p, N, degrees in [(3, 3, (2, 2)), (5, 2, (3,)), (2, 4, (2, 2, 2))]:
            F = make_field(p)
            for _ in range(3):
                gens = []
                for e in degrees:
                    basis = monomials_of_degree(N + 1, e)
                    terms = {mo: rng.randrange(p) for mo in basis}
                    terms[basis[-1]] = 1
                    gens.append(HomogeneousPolynomial(F, N + 1, e, terms))
                systems.append((PolynomialSystem(gens), 2))
            spec = CensusSpec(p=p, N=N, degrees=degrees, count=3, seed=rng.randrange(1 << 30))
            systems.extend((S, 2) for S in sample_hv(spec))
        # Up to m_max = 3 or 4: hypersurfaces singular at a planted point, each with the
        # field whose level takes the head x tail product, GF(8) in P^4 and GF(27) in P^3,
        # or None where every level reads the grid tables, as GF(16) in P^3 does.
        # Planted at a pair over GF(4) or GF(9), the singular locus holds pairs
        # only at this seed.  Over GF(16) the coordinate after the pivot lies in a proper
        # subfield: x4 in GF(4) for (1:x4:g:1) and (0:1:x4:g), 1 in GF(2) for (0:1:1:g);
        # in the last two it is the tail's first coordinate, behind the head (0:1).
        F4, F8, F9, F16, F27 = (make_field(p, m) for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
        x4, g = F16.array_tables()[0][[5, 1]].tolist()  # g^5 has order 3: it lies in GF(4)
        planted = [
            (ProjectivePoint(F4, [1, 2, 3, 0]), 4, 4, True, None),
            (ProjectivePoint(F4, [1, 2, 0, 1, 3]), 3, 3, True, 8),
            (ProjectivePoint(F9, [0, 1, 4, 0]), 3, 3, True, 27),
            (ProjectivePoint(F16, [1, x4, g, 1]), 4, 4, False, None),
            (ProjectivePoint(F16, [0, 1, x4, g]), 4, 4, False, None),
            (ProjectivePoint(F16, [0, 1, 1, g]), 4, 4, False, None),
            (ProjectivePoint(F8, [1, 1, 2, 0, 1]), 3, 3, False, 8),
            (ProjectivePoint(F27, [1, 2, 3, 1]), 3, 3, False, 27),
        ]
        nonempty = 0
        for S, m_max in systems:
            expect = self.bruteforce_singular_points(S, m_max)
            assert singular_search(S, m_max=m_max) == expect, str(S)
            nonempty += bool(expect)
        assert nonempty >= 6
        prng = random.Random(0)
        for a, e, m_max, pairs_only, split_order in planted:
            S = PolynomialSystem([self.singular_at(a, e, prng)])
            expect = self.bruteforce_singular_points(S, m_max)
            split, tables = self.level_paths(monkeypatch, a.n + 1)
            got = singular_search(S, m_max=m_max)
            monkeypatch.undo()
            assert got == expect, str(S)
            orders = {a.field.p**m for m in range(1, m_max + 1)}
            assert split == ({split_order} if split_order else set()) and tables == orders - split
            assert (a.field.m, a.galois_canonical()) in expect
            assert not pairs_only or all(m == 2 for m, _ in expect)

    def test_found_points_are_canonical(self, monkeypatch):
        """The search builds its points unchecked from the enumeration's rows: each is the point the
        checked constructor makes of its coordinates, held as Python ints, at its minimal field.
        Hypersurfaces singular at a planted point over GF(2), GF(3), GF(4), GF(8) and GF(9), whose
        points come from both the table and the block levels."""
        F8, F9 = make_field(2, 3), make_field(3, 2)
        planted = [
            (ProjectivePoint(F2, [1, 1, 0, 1]), 3, 2),
            (ProjectivePoint(F3, [1, 2, 0, 1, 1, 0, 2]), 3, 1),  # 1 093 points x 84 cubics: a block level
            (ProjectivePoint(F4, [1, 2, 3, 0]), 4, 2),
            (ProjectivePoint(F8, [1, 1, 2, 0, 1]), 3, 3),  # GF(8) in P^4 is a block level
            (ProjectivePoint(F9, [0, 1, 4, 0]), 3, 2),
            (ProjectivePoint(F9, [1, 5, 2, 7]), 3, 2),
        ]
        levels = {}  # the path each level of one search takes, by field order

        def spy(name, field_arg):
            level = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *args: levels.setdefault(args[field_arg].order, name) and level(*args))

        spy("_table_level", 1)
        spy("_block_level", 3)
        rng, paths = random.Random(5), set()
        for a, e, m_max in planted:
            S = PolynomialSystem([self.singular_at(a, e, rng)])
            levels.clear()
            hits = singular_search(S, m_max=m_max)
            assert (a.field.m, a.galois_canonical()) in hits
            for m, pt in hits:
                assert pt == ProjectivePoint(pt.field, pt.coords), str(S)
                assert all(type(c) is int for c in pt.coords)
                assert pt.field == make_field(S.field.p, m) and pt.minimal_subfield_degree() == m
                paths.add(levels[pt.field.order])
        assert paths == {"_table_level", "_block_level"}

    def test_stop_early(self):
        hits = singular_search(
            strange_hypersurface_p_divides(2, 4, 2), m_max=4, stop_early=True
        )
        assert hits and all(m == 1 for m, _ in hits)

    def test_budget_exceeded_carries_partial(self):
        """15 + 85 points fill a budget of 100 at m = 2; GF(8)'s 585 do not fit."""
        S = quadric_normal_form(3, 2)
        with pytest.raises(BudgetExceededError) as exc:
            singular_search(S, m_max=5, budget=100)
        assert exc.value.partial == []
        assert exc.value.completed_m == 2 and exc.value.used == 100

    def test_budget_exceeded_error_defaults(self):
        exc = BudgetExceededError("out of points")
        assert (str(exc), exc.partial, exc.completed_m, exc.used) == ("out of points", [], 0, 0)

    def test_budget_env_override(self, monkeypatch):
        from strangeci.geometry import point_budget

        monkeypatch.setenv("STRANGECI_BUDGET", "12345")
        assert point_budget() == 12345
        monkeypatch.setenv("STRANGECI_BUDGET", "bogus")
        with pytest.raises(InvalidInputError):
            point_budget()


class TestLinearSubspace:
    def test_dim_and_membership(self):
        L = LinearSubspace(F3, 3, [[1, 1, 0], [2, 2, 0], [0, 0, 1]])
        assert L.dim == 2
        assert L.contains([1, 1, 2]) and not L.contains([1, 0, 0])

    def test_contains_rejects_wrong_length(self):
        for basis in ([], [[1, 1, 0]]):
            for vec in ([0, 0], [0, 0, 0, 0]):
                with pytest.raises(InvalidInputError):
                    LinearSubspace(F3, 3, basis).contains(vec)

    def test_canonical_equality(self):
        A = LinearSubspace(F3, 3, [[1, 1, 0], [0, 0, 1]])
        B = LinearSubspace(F3, 3, [[2, 2, 2], [0, 0, 2]])
        C = LinearSubspace(F3, 3, [[5, -1, 3], [-3, 0, 4]])
        assert A == B == C

    def test_hyperplane_section_of_tangent(self):
        # intersecting a smooth quadric threefold with z3 = 0 intersects
        # tangent spaces accordingly at common smooth points
        S = PolynomialSystem.parse(["z0*z1 + z2*z3 + z4^2"], F3, 5)
        Ssec = PolynomialSystem.parse(["z0*z1 + z4^2", "z3"], F3, 5)
        a = parse_point("(1:0:0:0:0)", F3)
        T = tangent_space(S, a)
        Tsec = tangent_space(Ssec, a)
        assert Tsec.dim == T.dim - 1
        assert all(T.contains(list(b)) for b in Tsec.basis)
