import copy
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime

import strangeci
from strangeci import gf
from strangeci.errors import FieldMismatchError, InvalidInputError
from strangeci.exactla import MatrixOverField, in_span, rank
from strangeci.geometry import ProjectivePoint
from strangeci.gf import Field, FieldElement, embed, make_field


def naive_polymul_mod(a, b, mod, p):
    """Independent schoolbook multiplication oracle on coefficient tuples."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    deg = len(mod) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for k in range(deg):
                prod[-deg + k] = (prod[-deg + k] - lead * mod[k]) % p
    return tuple(prod + [0] * (deg - len(prod)))


def _coeffs(val, p, m):
    return tuple(val // p**i % p for i in range(m))


def _encode(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _divides(d, f, p):
    """Whether monic d divides f, coefficient tuples low degree first."""
    r = list(f)
    while len(r) >= len(d):
        lead = r.pop()
        shift = len(r) - (len(d) - 1)
        for i, dc in enumerate(d[:-1]):
            r[shift + i] = (r[shift + i] - lead * dc) % p
    return not any(r)


def reference_tables(p, m):
    """(modulus, exp, log) of GF(p^m) the slow way, as an oracle.

    The modulus is the first monic degree-m polynomial, in lexicographic
    order of (c_0, ..., c_{m-1}) from all zeros, with no monic divisor of
    degree 1..m/2.  The generator is the smallest element whose powers,
    taken by schoolbook products, first return to 1 after p^m - 1 steps;
    that walk is the exp table.
    """
    q = p**m
    for low in itertools.product(range(p), repeat=m):
        modulus = low + (1,)
        if not any(
            _divides(_coeffs(i, p, d) + (1,), modulus, p)
            for d in range(1, m // 2 + 1)
            for i in range(p**d)
        ):
            break
    for g in range(2, q):
        exp = [1]
        while True:
            nxt = _encode(naive_polymul_mod(_coeffs(exp[-1], p, m), _coeffs(g, p, m), modulus, p), p)
            if nxt == 1:
                break
            exp.append(nxt)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, a in enumerate(exp):
        log[a] = i
    return modulus, exp, log


SMALL_EXTENSIONS = [
    (p, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for m in range(2, 13)
    if p**m <= 4096
]


class TestConstruction:
    def test_prime_field(self):
        F = make_field(2, 1)
        assert F.p == 2 and F.m == 1 and F.order == 2

    def test_gf4_modulus_is_unique_irreducible(self):
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_gf9_modulus_matches_exhaustive_scan(self):
        # oracle: scan all 9 monic quadratics over GF(3) for irreducibility
        # (no roots in GF(3) suffices in degree 2)
        candidates = []
        for c0 in range(3):
            for c1 in range(3):
                if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                    candidates.append((c0, c1))
        least = min(candidates)
        assert make_field(3, 2).modulus == (*least, 1)

    @pytest.mark.parametrize("p,degrees", [(2, range(2, 11)), (3, range(2, 7)), (5, range(2, 5)), (7, range(2, 4))])
    def test_rabin_test_matches_trial_division(self, p, degrees):
        """Rabin's test on the companion matrix agrees with "no monic divisor of degree 1..m/2"
        on every monic polynomial of these degrees, constant term 0 and squares such as (x+1)^2
        among them."""
        for m in degrees:
            for low in itertools.product(range(p), repeat=m):
                f = low + (1,)
                divisors = (_coeffs(i, p, d) + (1,) for d in range(1, m // 2 + 1) for i in range(p**d))
                assert gf._is_irreducible(f, p) == (not any(_divides(g, f, p) for g in divisors)), f

    def test_rabin_rank_condition_rejects_squarefree_products(self):
        """(x+1)(x^2+x+1)(x^3+x+1) over GF(2) divides x^64 - x, as its factors' degrees divide 6:
        only the rank of X^(2^3) - X or X^(2^2) - X rejects it."""
        f = (1, 1, 0, 0, 1, 0, 1)
        X = gf._companion(f, 2)
        assert np.array_equal(gf._power(X, 2**6, 2), X) and not gf._is_irreducible(f, 2)

    def test_is_prime_matches_sympy(self):
        for n in [*range(5000), 1048573, 1048575, 1048576, 1048583]:
            assert gf.is_prime(n) == isprime(n), n

    def test_non_prime_rejected(self):
        with pytest.raises(InvalidInputError):
            make_field(4, 1)

    def test_bad_extension_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            make_field(2, 0)

    def test_float_arguments_rejected_whatever_the_cache_holds(self):
        """The cache keys 3.0 like 3, so types are checked before it is read."""
        assert make_field(3).order == 3
        for args in [(3.0,), (3, 1.0), (3.0, 1.0)]:
            with pytest.raises(InvalidInputError):
                make_field(*args)

    def test_deterministic(self):
        assert make_field(5, 3).modulus == make_field(5, 3).modulus

    @pytest.mark.parametrize("p,m", [(3, 1), (2, 4), (5, 2)])
    def test_one_object_per_field(self, p, m):
        """Every spelling of (p, m), and a pickle or deep-copy round trip,
        gives the one cached field."""
        F = make_field(p, m)
        assert make_field(p, m=m) is F and make_field(p=p, m=m) is F
        if m == 1:
            assert make_field(p) is F and make_field(p=p) is F
        assert pickle.loads(pickle.dumps(F)) is F and copy.deepcopy(F) is F
        x = F.element(F.order - 1)
        assert pickle.loads(pickle.dumps(x)).field is F and copy.deepcopy(x) == x

    @pytest.mark.parametrize("p,m", SMALL_EXTENSIONS)
    def test_tables_match_reference_builder(self, p, m):
        F = make_field(p, m)
        modulus, exp, log = reference_tables(p, m)
        exp2, log_table, _ = F.array_tables()
        assert F.modulus == modulus
        assert exp2.tolist() == exp + exp
        assert log_table.tolist() == log

    @pytest.mark.parametrize(
        "p,m",
        [(p, m) for p, m in SMALL_EXTENSIONS if p**m <= 1 << 10]
        + [(p, 1) for p in range(2, 1 << 10) if all(p % d for d in range(2, p))],
    )
    def test_generator_is_least_primitive_element(self, p, m):
        """Over GF(p^m), m > 1, the generator search skips GF(p), whose
        elements never have order q - 1; over GF(p) it starts at 1."""
        F, q = make_field(p, m), p**m

        def order(g):
            acc, k = _coeffs(g, p, m), 1
            while acc != _coeffs(1, p, m):
                acc, k = naive_polymul_mod(acc, _coeffs(g, p, m), F.modulus, p), k + 1
            return k

        exp2, log, _ = F.array_tables()
        assert exp2[1] == next(g for g in range(1, q) if order(g) == q - 1)
        assert (exp2[log[1:]] == np.arange(1, q)).all()
        assert (log[exp2[: q - 1]] == np.arange(q - 1)).all()

    def test_prime_field_tables_wait_for_array_tables(self):
        """GF(p) scalar arithmetic, elimination, linear changes and graded
        ideals build no exp/log tables; array_tables builds them once.  The
        checks run in a fresh interpreter, as make_field holds one GF(1048573)
        per process, whose tables any test before this one may have built."""
        code = textwrap.dedent(
            """
            from strangeci.exactla import MatrixOverField, rank
            from strangeci.gf import Field, make_field
            from strangeci.hompoly import HomogeneousPolynomial
            from strangeci.strangeness import GradedIdeal

            F = make_field(1048573)
            a, b = F.p - 2, 12345
            assert F.mul(F.div(a, b), b) == a and F.pow(F.inv(a), -1) == a
            assert rank(MatrixOverField(F, [[a, b], [b, a]])) == 2
            f = HomogeneousPolynomial(F, 2, 2, {(2, 0): a, (1, 1): b})
            g = f.linear_change([[1, 1], [0, 1]])
            assert GradedIdeal([f]).contains(f * g.partial_derivative(0))
            assert F._exp is None and F._log is None and F._arrays is None
            fresh = Field(1021, 1, (0, 1))
            assert fresh._exp is None
            tables = fresh.array_tables()
            assert fresh._exp is not None and fresh.array_tables() is tables
            """
        )
        src = str(Path(strangeci.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "p,m,g,digest",
        [
            (2, 16, 6, "3cad62fe612b8c78"),
            (3, 10, 34, "bb1be2d55951169a"),
            (2, 20, 2, "4cb1763d286d33f4"),
            (3, 12, 4, "91d1352aef801c29"),
            (5, 8, 6, "2662421036df1e4a"),
            (1021, 2, 1030, "e878aad652c5ec4b"),
            (1048573, 1, 2, "46938002dd1ca9e3"),
        ],
    )
    def test_golden_tables(self, p, m, g, digest):
        """Fields too large for the reference builder: the generator and a digest of the exp
        table.  GF(1021^2), modulus (1, 5, 1), has the largest p of any extension under
        MAX_ORDER, so its construction multiplies the largest matrix entries."""
        F = make_field(p, m)
        exp2, _, _ = F.array_tables()
        assert exp2[1] == g
        assert hashlib.sha256(exp2[: F.order - 1].tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "p,m,modulus",
        [
            (2, 16, (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)),
            (3, 10, (1,) + (0,) * 7 + (2, 0, 1)),
        ],
    )
    def test_large_field_tables(self, p, m, modulus):
        F = make_field(p, m)
        assert F.modulus == modulus
        assert all(F._exp[F._log[a]] == a for a in range(1, F.order))
        rng = random.Random(f"gf-{p}-{m}")
        for _ in range(2000):
            a, b = rng.randrange(F.order), rng.randrange(F.order)
            assert F.coeffs(F.mul(a, b)) == naive_polymul_mod(F.coeffs(a), F.coeffs(b), modulus, p)


class TestArithmetic:
    def test_gf5_inverse(self):
        F = make_field(5)
        assert F.element(2).inverse().val == 3

    def test_gf4_against_multiplication_table_oracle(self):
        F = make_field(2, 2)
        # oracle: schoolbook polynomial multiplication mod t^2+t+1
        for a in range(4):
            for b in range(4):
                expect = naive_polymul_mod(F.coeffs(a), F.coeffs(b), F.modulus, 2)
                assert F.coeffs(F.mul(a, b)) == expect
        t = F.element(2)
        assert (t * F.element(3)).val == 1

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2), (2, 8)])
    def test_inverse_exhaustive(self, p, m):
        F = make_field(p, m)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == 1

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (2, 8)])
    def test_frobenius_additive_multiplicative(self, p, m):
        F = make_field(p, m)
        for a in range(F.order):
            for b in range(F.order):
                assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
                assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))

    def test_frobenius_fixes_prime_subfield(self):
        F = make_field(5, 2)
        for a in range(5):
            assert F.frobenius(a) == a

    @pytest.mark.parametrize("p,m", [(2, 1), (7, 1)] + SMALL_EXTENSIONS)
    def test_frobenius_representatives_are_orbit_minima(self, p, m):
        """One element per orbit of a -> a^p, the least, in increasing order: as
        many as there are necklaces of length m over p colours."""
        F = make_field(p, m)
        reps = F.frobenius_representatives()
        orbit_min = {min(F.pow(a, p**k) for k in range(m)) for a in range(F.order)}
        assert reps.tolist() == sorted(orbit_min)
        phi = lambda n: sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)
        assert len(reps) * m == sum(phi(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
        assert reps.dtype == np.int64 and not reps.flags.writeable
        assert F.frobenius_representatives() is reps

    def test_division_by_zero(self):
        F = make_field(3)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F.element(1) / F.element(0)

    def test_mixed_fields_rejected(self):
        a = make_field(2).element(1)
        b = make_field(3).element(1)
        with pytest.raises(FieldMismatchError):
            a + b

    def test_element_of_another_field_rejected_on_encoding(self):
        """An element of another field is never read as an encoding: not by encode, a point, a
        matrix or an in_span target.  Elements of the field itself still are."""
        F, G = make_field(2, 2), make_field(2, 3)
        x, y = G.element(7), F.element(3)
        with pytest.raises(FieldMismatchError):
            make_field(3).encode([make_field(5).element(4)])
        for build in [
            lambda v: F.encode([v, 1]),
            lambda v: ProjectivePoint(F, [v, 1]),
            lambda v: MatrixOverField(F, [[v, 1]]),
            lambda v: in_span(F, [v, 1], [[1, 0], [0, 1]]),
        ]:
            with pytest.raises(FieldMismatchError):
                build(x)
            build(y)
        assert F.encode([y, 5]) == [3, 1]
        assert ProjectivePoint(F, [y, 1]).coords == (1, F.inv(3))
        assert rank(MatrixOverField(F, [[y, 1]])) == 1
        assert in_span(F, [y, 0], [[1, 0]]) == (True, [3])

    @given(a=st.integers(0, 26), b=st.integers(0, 26), c=st.integers(0, 26))
    def test_gf27_ring_axioms(self, a, b, c):
        F = make_field(3, 3)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, F.neg(a)) == 0

    def test_pow_matches_repeated_multiplication(self):
        F = make_field(3, 2)
        for a in range(F.order):
            acc = 1
            for e in range(6):
                assert F.pow(a, e) == acc
                acc = F.mul(acc, a)


class TestElementOperators:
    """Each FieldElement operator is its Field method: both operand orders, every pair of elements
    and int operands read mod p; any other operand type is refused."""

    OPERATORS = [
        (lambda x, y: x + y, Field.add),
        (lambda x, y: x - y, Field.sub),
        (lambda x, y: x * y, Field.mul),
        (lambda x, y: x / y, Field.div),
    ]

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_match_the_field_methods(self, p, m):
        F = make_field(p, m)
        ints = [0, 1, p - 1, p, p + 1, -1, -p - 1, 10**30 + 1]
        for apply, method in self.OPERATORS:
            for a in range(F.order):
                x = F.element(a)
                for b in range(F.order):
                    if method is Field.div and b == 0:
                        with pytest.raises(ZeroDivisionError):
                            apply(x, F.element(b))
                        continue
                    assert apply(x, F.element(b)) == FieldElement(F, method(F, a, b))
                for n in ints:
                    if n % p or method is not Field.div:
                        assert apply(x, n) == FieldElement(F, method(F, a, n % p))
                    if a or method is not Field.div:
                        assert apply(n, x) == FieldElement(F, method(F, n % p, a))

    @pytest.mark.parametrize("other", ["1", 1.0, 0.5, None, [1]])
    def test_other_operand_types_refused(self, other):
        x = make_field(3, 2).element(4)
        for apply, _ in self.OPERATORS:
            with pytest.raises(TypeError):
                apply(x, other)
            with pytest.raises(TypeError):
                apply(other, x)

    def test_mixed_fields_refused(self):
        with pytest.raises(FieldMismatchError):
            make_field(3, 2).element(4) * make_field(3).element(2)


class TestZechAddition:
    """Scalar add, sub and neg over odd GF(p^m), m > 1, read the Zech table: against add_array and
    the digit-wise definition, on every pair of the small fields and seeded pairs of the large."""

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 10), (3, 12), (5, 8), (7, 7)])
    def test_matches_array_and_digit_wise_arithmetic(self, p, m):
        F = make_field(p, m)
        if F.order <= 27:
            a, b = np.divmod(np.arange(F.order**2), F.order)
        else:
            a, b = np.random.default_rng(F.order).integers(0, F.order, (2, 20_000))
            a[:100], b[100:200] = 0, 0  # zero operands
            b[200:400] = (-F.to_digits(a[200:400]) % p) @ F.place  # a + (-a), the -1 entry
        da, db = F.to_digits(a), F.to_digits(b)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert [F.add(x, y) for x, y in pairs] == ((da + db) % p @ F.place).tolist() == F.add_array(a, b).tolist()
        assert [F.sub(x, y) for x, y in pairs] == ((da - db) % p @ F.place).tolist()
        assert [F.neg(x) for x in a.tolist()] == (-da % p @ F.place).tolist()
        assert all(F.add(x, F.neg(x)) == 0 for x in a.tolist())

    def test_zech_table(self):
        """zech[k] = log(1 + g^k), -1 at the one k where g^k = -1; read-only int32, and only odd
        extension fields hold one."""
        for p, m in [(3, 2), (5, 2), (3, 3), (7, 2)]:
            F = make_field(p, m)
            exp2, log, _ = F.array_tables()
            zech = F._zech.obj
            assert zech.dtype == np.int32 and not zech.flags.writeable and len(zech) == F.order - 1
            for k in range(F.order - 1):
                one_plus = F.add_array(np.int64(1), exp2[k])
                assert zech[k] == (log[one_plus] if one_plus else -1)
            assert zech.tolist().count(-1) == 1
        assert make_field(2, 16)._zech is None and make_field(7)._zech is None


class TestArrayArithmetic:
    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
    def test_matches_scalar_on_every_pair(self, p, m):
        F = make_field(p, m)
        a, b = np.meshgrid(np.arange(F.order), np.arange(F.order), indexing="ij")
        pairs = [[(x, y) for y in range(F.order)] for x in range(F.order)]
        assert F.add_array(a, b).tolist() == [[F.add(x, y) for x, y in row] for row in pairs]
        assert F.mul_array(a, b).tolist() == [[F.mul(x, y) for x, y in row] for row in pairs]

    def test_tables_built_once_per_field(self):
        F = make_field(3, 3)
        exp2, log, digits = tables = F.array_tables()
        F.mul_array(np.arange(27), np.arange(27))
        assert make_field(3, 3).array_tables() is tables
        _, exp, log_ref = reference_tables(3, 3)
        assert exp2.tolist() == exp + exp and log.tolist() == log_ref
        assert digits.T.tolist() == [list(F.coeffs(a)) for a in exp] + [[0, 0, 0]]

    @pytest.mark.parametrize(
        "p,m,dtype", [(2, 16, np.uint8), (3, 10, np.uint8), (65521, 1, np.uint16), (1048573, 1, np.uint32)]
    )
    def test_digit_table_in_smallest_dtype(self, p, m, dtype):
        """digits is one (m, q) array of the smallest unsigned dtype holding p - 1."""
        F = make_field(p, m)
        exp2, _, digits = F.array_tables()
        assert digits.dtype == dtype and digits.shape == (m, F.order)
        values = (digits.astype(np.int64) * p ** np.arange(m)[:, None]).sum(axis=0)
        assert np.array_equal(values[:-1], exp2[: F.order - 1]) and values[-1] == 0

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 16), (3, 10), (7, 1)])
    def test_digits_and_multiplication_matrices_match_scalar_mul(self, p, m):
        """to_digits(b) @ mul_matrices(a) mod p is to_digits(a * b): on every pair
        of elements of the small fields, on seeded samples of the large ones."""
        F = make_field(p, m)
        if F.order <= 9:
            a, b = np.divmod(np.arange(F.order**2), F.order)
        else:
            a, b = np.random.default_rng(F.order).integers(0, F.order, (2, 2000))
        digits = F.to_digits(b)
        assert digits.tolist() == [list(F.coeffs(x)) for x in b.tolist()]
        assert np.array_equal(digits @ F.place, b) and not F.place.flags.writeable
        M = F.mul_matrices(a)
        assert M.shape == (len(a), m, m)
        for j in range(m):  # row j holds the digits of a * x^j
            assert np.array_equal(M[:, j], F.to_digits([F.mul(x, p**j) for x in a.tolist()]))
        products = [F.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert ((digits[:, None] @ M)[:, 0] % p).tolist() == F.to_digits(products).tolist()
        assert np.shares_memory(digits, b) == (m == 1)  # over GF(p) a view

    def test_scalar_and_array_arithmetic_read_one_table(self):
        """Each exp/log table is held once, as a read-only int64 array that
        scalar mul reads and array_tables returns; no field keeps a list."""
        fields = [make_field(2, 16), make_field(3, 10), make_field(1048573)]
        for F in fields:
            exp2, log, digits = F.array_tables()
            assert np.shares_memory(exp2, F._exp) and np.shares_memory(log, F._log)
            assert not (exp2.flags.writeable or log.flags.writeable or digits.flags.writeable)
            assert exp2.dtype == log.dtype == np.int64 and len(exp2) == 2 * (F.order - 1)
            a, b = F.order - 2, F.order // 3
            assert F.mul_array(np.array([a]), np.array([b]))[0] == F.mul(a, b)
            assert not any(isinstance(getattr(F, slot), list) for slot in Field.__slots__)


class TestEmbedding:
    def test_prime_into_extension_is_constant(self):
        F2, F4 = make_field(2), make_field(2, 2)
        assert embed(F2.element(1), F4).val == 1

    def test_homomorphism_random_pairs(self):
        rng = random.Random(7)
        F4, F16 = make_field(2, 2), make_field(2, 4)
        for _ in range(100):
            x = F4.element(rng.randrange(4))
            y = F4.element(rng.randrange(4))
            assert embed(x + y, F16) == embed(x, F16) + embed(y, F16)
            assert embed(x * y, F16) == embed(x, F16) * embed(y, F16)

    def test_generator_image_satisfies_source_modulus(self):
        F4, F16 = make_field(2, 2), make_field(2, 4)
        t = embed(F4.element(2), F16)
        # image is a root of t^2 + t + 1, found by exhaustive scan
        roots = [v for v in range(16) if F16.add(F16.add(F16.mul(v, v), v), 1) == 0]
        assert t.val == min(roots)
        assert t * t + t + F16.one == F16.zero

    def test_non_divisible_degrees_rejected(self):
        with pytest.raises(InvalidInputError):
            embed(make_field(2, 2).element(2), make_field(2, 3))

    def test_consistent_across_calls(self):
        F4, F16 = make_field(2, 2), make_field(2, 4)
        assert embed(F4.element(3), F16) == embed(F4.element(3), F16)

    @staticmethod
    def scanned_root(p, s, T):
        """The least root of GF(p^s)'s modulus in GF(p^T), found by evaluating it at every element."""
        src, tgt = make_field(p, s), make_field(p, T)
        for cand in range(tgt.order):
            acc = 0
            for c in reversed(src.modulus):
                acc = tgt.add(tgt.mul(acc, cand), c)
            if acc == 0:
                return cand
        raise AssertionError("no root")

    def test_root_matches_a_scan_of_the_target(self):
        """Every (p, s, T), s | T, 1 < p^T <= 2^12 and T > 1: the root read from the subfield is the
        least root of the whole target."""
        cases = [
            (p, s, T)
            for p in range(2, 65)
            if gf.is_prime(p)
            for T in range(2, 13)
            if p**T <= 1 << 12
            for s in range(1, T + 1)
            if T % s == 0
        ]
        assert len(cases) == 97
        for p, s, T in cases:
            assert gf._embedding_root(p, s, T) == self.scanned_root(p, s, T), (p, s, T)

    @pytest.mark.parametrize("p,s,T", [(2, 5, 20), (3, 2, 12)])
    def test_embedding_preserves_sums_and_products(self, p, s, T):
        src, tgt = make_field(p, s), make_field(p, T)
        rng = random.Random(f"embed-{p}-{s}-{T}")
        images = [gf.embed_val(a, src, tgt) for a in range(src.order)]
        assert len(set(images)) == src.order and images[:p] == list(range(p))
        for _ in range(2000):
            a, b = rng.randrange(src.order), rng.randrange(src.order)
            assert images[src.add(a, b)] == tgt.add(images[a], images[b])
            assert images[src.mul(a, b)] == tgt.mul(images[a], images[b])


class TestTextForm:
    @pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 3), (3, 2)])
    def test_format_parse_roundtrip(self, p, m):
        F = make_field(p, m)
        for v in range(F.order):
            assert F.parse(F.format(v)) == v

    def test_extension_syntax(self):
        F8 = make_field(2, 3)
        assert F8.parse("t^2+t+1") == 7
        assert F8.format(3) == "t + 1"
