import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strangeci.errors import FieldMismatchError, InvalidInputError
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
        ideals build no exp/log tables; array_tables builds them once."""
        from strangeci.exactla import MatrixOverField, rank
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
