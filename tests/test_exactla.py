import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from strangeci.errors import InvalidInputError
from strangeci.exactla import (
    LOOP_CELLS,
    MatrixOverField,
    in_span,
    invert,
    kernel_basis,
    rank,
    rank_and_kernel,
    reduced_kernel,
    rref,
)
from strangeci.geometry import LinearSubspace
from strangeci.gf import make_field

from matrices import mat_mul, mat_vec

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def random_matrix(rng, field, rows, cols):
    return MatrixOverField(
        field, [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)]
    )


class TestRankAndKernel:
    def test_zero_matrix(self):
        M = MatrixOverField(F3, [[0, 0, 0], [0, 0, 0]])
        rk, K = rank_and_kernel(M)
        assert rk == 0 and len(K) == 3

    def test_identity(self):
        M = MatrixOverField(F3, [[1, 0], [0, 1]])
        rk, K = rank_and_kernel(M)
        assert rk == 2 and K == []

    def test_vanishing_jacobian_row(self):
        # gradient row of the p|e family at (0:...:0:1) is identically zero
        M = MatrixOverField(F2, [[0, 0, 0]])
        rk, _ = rank_and_kernel(M)
        assert rk == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(4)
        for field in (F2, F3, F4):
            for _ in range(30):
                M = random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
                rk, K = rank_and_kernel(M)
                assert rk + len(K) == M.ncols
                for v in K:
                    assert all(x == 0 for x in mat_vec(M, v))

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(8)
        for _ in range(40):
            field = random.Random(rng.random()).choice([F2, F3, F4])
            M = random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(M) == rank(MatrixOverField(M.field, [list(c) for c in zip(*M.rows)], ncols=M.nrows))

    def test_kernel_basis_deterministic(self):
        M = MatrixOverField(F3, [[1, 2, 1], [2, 1, 1]])
        assert rank_and_kernel(M) == rank_and_kernel(M)


def low_rank_rows(rng, F, m, n):
    """An m x n matrix over F of rank at most r, a random product through inner dimension r."""
    r = rng.randint(0, min(m, n))
    B = [[rng.randrange(F.order) for _ in range(r)] for _ in range(m)]
    C = [[rng.randrange(F.order) for _ in range(n)] for _ in range(r)]
    return mat_mul(MatrixOverField(F, B, ncols=r), MatrixOverField(F, C, ncols=n)).rows


def shapes(rng, count):
    """Tall and wide shapes with LOOP_CELLS - 1, LOOP_CELLS and LOOP_CELLS + 1 entries, so that
    rref runs each strategy at its edge, then ``count`` random shapes on both sides of it."""
    out = []
    for cells in (LOOP_CELLS - 1, LOOP_CELLS, LOOP_CELLS + 1):
        r = max(d for d in range(1, int(cells**0.5) + 1) if cells % d == 0)
        out += [(r, cells // r), (cells // r, r)]
    return out + [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(count)]


def gauss_jordan(F, rows, ncols):
    """Reference reduced echelon form through the field's scalar mul, sub and inv."""
    R, pivots = [list(r) for r in rows], []
    for col in range(ncols):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(R)) if R[i][col]), None)
        if sel is None:
            continue
        R[pr], R[sel] = R[sel], R[pr]
        inv = F.inv(R[pr][col])
        R[pr] = [F.mul(inv, x) for x in R[pr]]
        for i in range(len(R)):
            if i != pr:
                f = R[i][col]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[pr])]
        pivots.append(col)
    return R, pivots


def check_rref(F, rows, n, expected):
    """rref of the rows, given as lists and as an int64 array, equals ``expected``;
    each result comes back in its input's container."""
    R, pivots = rref(F, rows, n)
    assert all(type(x) is int for r in R for x in r)
    assert (R, pivots) == expected
    A, pivots = rref(F, np.array(rows, dtype=np.int64).reshape(len(rows), n), n)
    assert A.dtype == np.int64 and A.shape == (len(rows), n)
    assert (A.tolist(), pivots) == expected
    return len(pivots)


class TestPrimeFieldElimination:
    """rref over GF(p) against sympy's DomainMatrix.rref."""

    # 1048573 is the largest prime below the field-order bound 2^20: it pins
    # the int64 headroom of the digit update's f * row products
    PRIMES = (2, 3, 5, 1048573)

    def test_matches_sympy_rref(self):
        rng = random.Random(23)
        sides = [0, 0]
        deficient = 0
        for p in self.PRIMES:
            F, K = make_field(p), GF(p, symmetric=False)
            for m, n in shapes(rng, 44):
                rows = low_rank_rows(rng, F, m, n)
                R, pivots = DomainMatrix([[K(x) for x in r] for r in rows], (m, n), K).rref()
                expected = ([[int(x) for x in r] for r in R.to_list()], list(pivots))
                deficient += check_rref(F, rows, n, expected) < min(m, n)
                sides[m * n >= LOOP_CELLS] += 1
        assert min(sides) >= 50 and deficient >= 40

    def test_largest_products_over_the_largest_prime(self):
        """Over GF(1048573), rows that are p - 1 but for a 1 on the diagonal (invertible, as
        2 - n is nonzero mod p) and rows of entries near p - 1: the float64 update subtracts f * y
        up to (p - 1)^2 at the first pivot, and agrees with scalar Gauss-Jordan."""
        F, rng = make_field(1048573), random.Random(7)
        p, n = F.p, 20
        for rows in (
            [[1 if i == j else p - 1 for j in range(n)] for i in range(n)],
            [[p - 1 - rng.randrange(16) for _ in range(n + 5)] for _ in range(n)],
        ):
            assert len(rows) * len(rows[0]) >= LOOP_CELLS
            check_rref(F, rows, len(rows[0]), gauss_jordan(F, rows, len(rows[0])))


class TestExtensionFieldElimination:
    """rref over GF(p^m), m > 1, against Gauss-Jordan through the field's scalar arithmetic."""

    FIELDS = tuple(make_field(p, m) for p, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 8)))

    def test_matches_field_gauss_jordan(self):
        rng = random.Random(61)
        sides = [0, 0]
        deficient = 0
        for F in self.FIELDS:
            for m, n in shapes(rng, 24):
                rows = low_rank_rows(rng, F, m, n)
                deficient += check_rref(F, rows, n, gauss_jordan(F, rows, n)) < min(m, n)
                sides[m * n >= LOOP_CELLS] += 1
        assert min(sides) >= 40 and deficient >= 30


class TestRref:
    """Cases both strategies of rref must handle alike."""

    FIELDS = tuple(make_field(p) for p in TestPrimeFieldElimination.PRIMES) + TestExtensionFieldElimination.FIELDS

    def test_degenerate_shapes(self):
        big = LOOP_CELLS // 10 + 1  # a big x 10 matrix takes the digit update
        for F in self.FIELDS:
            for h in (3, big):
                assert check_rref(F, [[0] * 10] * h, 10, ([[0] * 10] * h, [])) == 0
                ones = [[1] * 10] + [[0] * 10] * (h - 1)
                assert check_rref(F, [[F.order - 1] * 10] * h, 10, (ones, [0])) == 1
            assert check_rref(F, [], 4, ([], [])) == 0
            assert check_rref(F, [[] for _ in range(3)], 0, ([[], [], []], [])) == 0

    def test_reduces_entries_outside_the_field(self):
        """The public readers read entries by Field.read, an integer outside range(q) mod p, and
        hand rref encodings, on both sides of LOOP_CELLS; as lists and as an int64 array."""
        big = LOOP_CELLS // 2  # rows of zeros that send the matrix to the digit update
        for F, rows, read in (
            (make_field(5), [[7, 3], [2, 5]], [[2, 3], [2, 0]]),
            (make_field(3), [[-1, 4], [-3, 2]], [[2, 1], [0, 2]]),
            (F4, [[6, 3], [2, 9]], [[0, 3], [2, 1]]),
            (F4, [[7, 1]], [[1, 1]]),
        ):
            R, pivots = gauss_jordan(F, read, 2)
            for zeros in ([], [[0, 0]] * big):
                for given in (rows + zeros, np.array(rows + zeros, dtype=np.int64)):
                    M = MatrixOverField(F, given)
                    assert M.rows == read + zeros and rank(M) == len(pivots)
                    assert rank_and_kernel(M) == (len(pivots), kernel_basis(F, R, pivots, 2))
                assert LinearSubspace(F, 2, rows + zeros).basis == tuple(map(tuple, R[: len(pivots)]))

    def test_reduces_integers_past_int64(self):
        """List entries beyond int64 are read exactly, as their residues mod p, on both sides of
        LOOP_CELLS: by MatrixOverField and rank, in_span and LinearSubspace."""
        M = MatrixOverField(F2, [[2**70 + 1, 1]])
        assert M.rows == [[1, 1]] and rank(M) == 1
        M = MatrixOverField(F2, [[2**70 + 1] * 300])
        assert M.rows == [[1] * 300] and rank(M) == 1
        rng = random.Random(19)
        sides = [0, 0]
        for F in self.FIELDS:
            for n in (2, LOOP_CELLS):
                reduced = low_rank_rows(rng, F, 3, n)
                rows = [[x + rng.randrange(-(2**70), 2**70) * F.order for x in r] for r in reduced]
                assert not any(0 <= y < F.order for r in rows for y in r)
                read = [[y % F.p for y in r] for r in rows]  # over GF(p), the rows of reduced
                R, pivots = gauss_jordan(F, read, n)
                M = MatrixOverField(F, rows)
                assert M.rows == read and rank(M) == len(pivots)
                sides[3 * n >= LOOP_CELLS] += 1
                for target in (reduced[0], [rng.randrange(F.order) for _ in range(n)]):
                    assert in_span(F, target, rows) == in_span(F, target, read)
                assert LinearSubspace(F, n, rows) == LinearSubspace(F, n, read)
                assert LinearSubspace(F, n, rows).basis == tuple(map(tuple, R[: len(pivots)]))
        assert min(sides) == len(self.FIELDS)

    def test_leaves_its_input_unchanged(self):
        """rref returns a new container and leaves its rows, lists or an int64 array, as they were."""
        rng = random.Random(29)
        for F in self.FIELDS:
            for m, n in ((4, 5), (LOOP_CELLS // 10 + 1, 10)):
                rows = [[rng.randrange(F.order) for _ in range(n)] for _ in range(m)]
                kept, A = [list(r) for r in rows], np.array(rows, dtype=np.int64)
                R, _ = rref(F, rows, n)
                assert R != rows and rows == kept
                RA, _ = rref(F, A, n)
                assert RA.tolist() == R and A.tolist() == kept

    def test_zero_rows_across_the_threshold(self):
        """Padding a matrix with zero rows past LOOP_CELLS keeps its nonzero rows and pivots."""
        rng = random.Random(5)
        for F in self.FIELDS:
            for _ in range(4):
                rows = low_rank_rows(rng, F, 6, 12)
                assert len(rows) * 12 < LOOP_CELLS
                R, pivots = rref(F, rows, 12)
                padded = rows + [[0] * 12] * (LOOP_CELLS // 12)
                P, padded_pivots = rref(F, padded, 12)
                assert padded_pivots == pivots and P[: len(pivots)] == R[: len(pivots)]
                assert not any(map(any, P[len(pivots):]))


class TestReducedKernel:
    """reduced_kernel against the two-elimination route: rank_and_kernel, then the
    reduced echelon form of its basis."""

    FIELDS = (F2, make_field(5), make_field(2, 4), make_field(3, 2))

    @staticmethod
    def check(F, rows, n):
        rk, kernel = rank_and_kernel(MatrixOverField(F, rows, ncols=n))
        expected = (rk, [list(v) for v in LinearSubspace(F, n, kernel).basis])
        assert reduced_kernel(F, rows, n) == expected
        assert reduced_kernel(F, np.array(rows, dtype=np.int64).reshape(len(rows), n), n) == expected
        return expected

    def test_matches_reduced_kernel_of_rank_and_kernel(self):
        rng = random.Random(71)
        sides = [0, 0]
        for F in self.FIELDS:
            for m, n in shapes(rng, 16):
                rk, basis = self.check(F, low_rank_rows(rng, F, m, n), n)
                assert rk + len(basis) == n
                sides[m * n >= LOOP_CELLS] += 1
        assert min(sides) >= 30

    def test_degenerate_shapes(self):
        big = LOOP_CELLS // 10 + 1  # a big x 10 matrix takes the digit update
        identity = [[int(i == j) for j in range(10)] for i in range(10)]
        for F in self.FIELDS:
            for h in (3, big):
                assert self.check(F, [[0] * 10] * h, 10) == (0, identity)
            assert self.check(F, [], 3) == (0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
            assert self.check(F, identity, 10) == (10, [])
            assert self.check(F, identity + [[0] * 10] * big, 10) == (10, [])
            # rank_and_kernel's basis is the identity on its free columns 0 and 2, this one on 0 and 1
            assert rank_and_kernel(MatrixOverField(F, [[0, 1, 1]]))[1] == [[1, 0, 0], [0, F.neg(1), 1]]
            assert self.check(F, [[0, 1, 1]], 3) == (1, [[1, 0, 0], [0, 1, F.neg(1)]])


class TestInSpan:
    def test_zero_target(self):
        ok, w = in_span(F3, [0, 0], [[1, 0], [0, 1]])
        assert ok and w == [0, 0]

    def test_unit_vectors_insufficient(self):
        ok, w = in_span(F2, [0, 0, 1], [[1, 0, 0], [0, 1, 0]])
        assert not ok and w is None

    def test_witness_reconstructs_target(self):
        rng = random.Random(13)
        for _ in range(50):
            field = rng.choice([F2, F3, F4])
            n = rng.randint(2, 5)
            gens = [[rng.randrange(field.order) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            coeffs = [rng.randrange(field.order) for _ in gens]
            target = [0] * n
            for c, g in zip(coeffs, gens):
                target = [field.add(t, field.mul(c, x)) for t, x in zip(target, g)]
            ok, w = in_span(field, target, gens)
            assert ok
            recon = [0] * n
            for c, g in zip(w, gens):
                recon = [field.add(t, field.mul(c, x)) for t, x in zip(recon, g)]
            assert recon == target

    def test_encodes_target_and_generators(self):
        """Entries are read by Field.read, an integer outside range(q) mod p, so the witness is a
        field element."""
        assert in_span(F4, [7], [[1]]) == (True, [1])
        assert in_span(F3, [-1], [[1]]) == (True, [2])
        assert in_span(F3, [3, 0], [[1, 1]]) == (True, [0])
        assert in_span(F3, [3, 0], []) == (True, [])
        assert in_span(F3, [1, 2], [[-2, 5]]) == (True, [1])

    def test_membership_iff_rank_equality(self):
        rng = random.Random(17)
        for _ in range(50):
            field = rng.choice([F2, F3])
            n = 4
            gens = [[rng.randrange(field.p) for _ in range(n)] for _ in range(2)]
            target = [rng.randrange(field.p) for _ in range(n)]
            ok, _ = in_span(field, target, gens)
            rk_g = rank(MatrixOverField(field, gens, ncols=n))
            rk_aug = rank(MatrixOverField(field, gens + [target], ncols=n))
            assert ok == (rk_g == rk_aug)


class TestInvert:
    def test_inverse_roundtrip(self):
        rng = random.Random(2)
        for field in (F2, F3, F4):
            for _ in range(20):
                n = rng.randint(1, 4)
                M = random_matrix(rng, field, n, n)
                if rank(M) < n:
                    with pytest.raises(InvalidInputError):
                        invert(M)
                    continue
                I = mat_mul(M, invert(M))
                assert I.rows == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            invert(MatrixOverField(F2, [[1, 0]]))

    @pytest.mark.parametrize("n", [3, 14], ids=["row-loop", "array-update"])
    def test_result_is_not_encoded_again(self, monkeypatch, n):
        """The inverse's rows come out of rref as encodings, Python ints, and are kept as they are."""
        rng = random.Random(n)
        for field in (F3, F4):
            M = random_matrix(rng, field, n, n)
            while rank(M) < n:
                M = random_matrix(rng, field, n, n)
            encoded = []
            original = type(field).encode
            monkeypatch.setattr(type(field), "encode", lambda self, values: encoded.append(values) or original(self, values))
            inverse = invert(M)
            monkeypatch.undo()
            assert encoded == []
            assert all(type(x) is int and 0 <= x < field.order for row in inverse.rows for x in row)
            assert (inverse.nrows, inverse.ncols) == (n, n)
            assert mat_mul(M, inverse).rows == [[int(i == j) for j in range(n)] for i in range(n)]
