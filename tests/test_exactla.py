import random

import numpy as np
import pytest

from strangeci.errors import InvalidInputError
from strangeci.exactla import (
    MatrixOverField,
    in_span,
    invert,
    mat_mul,
    mat_vec,
    rank,
    rank_and_kernel,
    rref,
    rref_array,
)
from strangeci.gf import make_field

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


class TestPrimeFieldElimination:
    def test_matches_extension_field_path(self):
        """Integer rows mod p reduce as they do in GF(p^2), whose table path is the reference."""
        rng = random.Random(23)
        deficient = 0
        for p in (2, 3, 5, 7):
            Fp, Fp2 = make_field(p), make_field(p, 2)
            for _ in range(15):
                m, n = rng.randint(1, 12), rng.randint(1, 15)
                # a product through an inner dimension r has rank at most r
                r = rng.randint(0, min(m, n))
                B = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
                C = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
                rows = [
                    [sum(B[i][k] * C[k][j] for k in range(r)) % p for j in range(n)]
                    for i in range(m)
                ]
                R, pivots = rref(Fp, rows, n)
                assert (R, pivots) == rref(Fp2, rows, n)
                deficient += len(pivots) < min(m, n)
        assert deficient >= 10


class TestArrayKernel:
    """The int64 array elimination returns the rows and pivots of the list kernel."""

    # 1048573 is the largest prime below the field-order bound 2^20: it pins
    # the int64 headroom of the f * row products
    PRIMES = (2, 3, 5, 7, 1048573)
    FIELDS = tuple(make_field(p) for p in PRIMES) + tuple(
        make_field(p, m) for p, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 8))
    )

    @staticmethod
    def _check(F, rows, n):
        R, pivots = rref_array(F, np.array(rows, dtype=np.int64).reshape(len(rows), n))
        assert R.dtype == np.int64 and R.shape == (len(rows), n)
        assert (R.tolist(), pivots) == rref(F, rows, n)
        return len(pivots)

    def test_matches_list_kernel_on_seeded_matrices(self):
        rng = random.Random(61)
        checked = deficient = 0
        for F in self.FIELDS:
            for _ in range(24):
                m, n = rng.randint(1, 14), rng.randint(1, 16)
                # a product through an inner dimension r has rank at most r
                r = rng.randint(0, min(m, n))
                B = [[rng.randrange(F.order) for _ in range(r)] for _ in range(m)]
                C = [[rng.randrange(F.order) for _ in range(n)] for _ in range(r)]
                rows = mat_mul(MatrixOverField(F, B, ncols=r), MatrixOverField(F, C, ncols=n)).rows
                deficient += self._check(F, rows, n) < min(m, n)
                checked += 1
        assert checked >= 100 and deficient >= 20

    def test_degenerate_shapes(self):
        for F in self.FIELDS:
            assert self._check(F, [[0] * 5 for _ in range(3)], 5) == 0
            assert self._check(F, [], 4) == 0
            assert self._check(F, [[] for _ in range(3)], 0) == 0
            assert self._check(F, [[F.order - 1] * 6 for _ in range(4)], 6) == 1

    def test_reduces_entries_outside_the_field(self):
        R, pivots = rref_array(make_field(5), np.array([[7, 3], [2, 5]]))
        assert (R.tolist(), pivots) == rref(make_field(5), [[2, 3], [2, 0]], 2)
        R, pivots = rref_array(F4, np.array([[6, 3], [2, 9]]))
        assert (R.tolist(), pivots) == rref(F4, [[2, 3], [2, 1]], 2)


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
