"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements are canonical residues encoded as integers: the residue with
coefficient vector (c_0, ..., c_{m-1}) over GF(p), low degree first, is
encoded as c_0 + c_1*p + ... + c_{m-1}*p^(m-1).  The integer encoding
doubles as the deterministic enumeration order (odometer, low-degree
coefficient fastest).  A :class:`Field` exposes arithmetic directly on the
integer encodings, on Python ints and elementwise on int64 numpy arrays, and
alone holds their digits for numpy code: ``place``, the encodings of x^j,
:meth:`Field.to_digits` and :meth:`Field.mul_matrices`; and the least element of
each Frobenius orbit, :meth:`Field.frobenius_representatives`.
:class:`FieldElement` wraps that: each binary operator reads the other operand,
an element of the same field or an int n as n * 1, applies the :class:`Field`
method and wraps the result.  Every other reader of a caller's values goes through
:meth:`Field.read`, the one reduction of an integer outside range(q) into the field.
Element and polynomial text share one grammar, read by :func:`text_terms`.

The reduction modulus of GF(p^m) is the lexicographically least monic
irreducible polynomial of degree m over GF(p), coefficients compared low
degree first, found by scanning candidates in that order with Rabin's test
on each candidate's companion matrix.  The scan starts at constant term 1,
because every candidate with constant term 0 is divisible by x.  The
exp/log tables are the powers of g, the smallest element of order p^m - 1,
found by powers of its multiplication matrix, an m x m matrix over GF(p)
built from the companion matrix of the modulus.  They are filled in numpy
by repeated doubling: multiplying the first n powers by g^n, a GF(p)-linear
map on coefficient vectors, gives the next n.  Each table is held once, as a
read-only int64 array: scalar arithmetic indexes memoryviews of it and
:meth:`Field.array_tables` returns it.  Every field has these tables; GF(p),
whose scalar arithmetic is plain modular arithmetic, builds them on the
first call to :meth:`Field.array_tables`.  An odd GF(p^m), m > 1, also holds
Zech's logarithms (K. Huber, IEEE Trans. Inf. Theory 36(4), 1990), zech[k] =
log(1 + g^k) and -1 where 1 + g^k = 0, a read-only int32 array built from
digit 0 of the exp table: scalar a + b = a (1 + b / a) is three table reads,
where the digit-wise sum loops over m digits.  Polynomial evaluation at a
point reads these tables too.  Construction is a pure function of (p, m).
GF(p^s) embeds in GF(p^m), s | m, sending x to the least root of its modulus
among the p^s elements of the subfield: 0 and exp[k (p^m - 1)/(p^s - 1)].
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError, InvalidInputError, ParseError

MAX_ORDER = 1 << 20

# a separator, then one factor: an integer, a parenthesized element, or a letter with an
# optional index and exponent; an exponent of ten digits fails the lookahead, and the text with it
_FACTOR = re.compile(r"([+-]*|\*)(?:([0-9]+)|\(([^()]*)\)|([a-z])([0-9]*)(?:\^([0-9]{1,9})(?![0-9]))?)")


def text_terms(text: str, symbol: str) -> list[tuple[int, list]]:
    """The terms of element or polynomial text, each as (sign, factors), in the one grammar

        text   := sign* term (sign+ term)*        sign := '+' | '-'
        term   := factor ('*' factor)*
        factor := integer | '(' element ')' | symbol [index] ['^' exponent]

    where integer, index and exponent are ASCII digits, an exponent at most nine of them
    (exponent rows are int64), and whitespace is ignored.  A sign run is -1 when it holds an
    odd number of '-'.  A factor comes back as an int (an integer), a str (the text inside
    the parentheses) or a pair (index or None, exponent), the exponent 1 when not written.
    Any other text raises :class:`ParseError`.
    """
    s = "".join(text.split())
    terms: list[tuple[int, list]] = []
    pos = 0
    while pos < len(s) or not terms:
        m = _FACTOR.match(s, pos)
        # the first factor takes no '*', and every later one a '*' or a sign run
        if m is None or m[1] == ("" if terms else "*") or m[4] not in (None, symbol):
            raise ParseError(f"cannot parse {text!r} at {s[pos:]!r}" if s else "empty text")
        sep, integer, element, _, index, exponent = m.groups()
        if sep != "*":
            terms.append((-1 if sep.count("-") % 2 else 1, []))
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            if integer:
                factor = int(integer)
            elif element is not None:
                factor = element
            else:
                factor = (int(index) if index else None, int(exponent or 1))
        except ValueError:
            raise ParseError(f"number too long in {text!r}") from None
        terms[-1][1].append(factor)
        pos = m.end()
    return terms


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, in increasing order, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _mod(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n, exact for float64 integers |x| < 2^53 (x / n rounds to no other integer); faster than %."""
    return x - n * np.floor(x / n)


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _digits(val: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(val % p)
        val //= p
    return out


def _companion(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """X, the companion matrix of the monic modulus, multiplies by x: row j holds the digits of
    x^(j+1).  A polynomial g reduced mod the modulus is g(X), and entries stay below p, so int64
    products, at most m (p-1)^2, are exact."""
    m = len(modulus) - 1
    X = np.eye(m, k=1, dtype=np.int64)
    X[-1] = np.negative(modulus[:m]) % p
    return X


def _power(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e over GF(p), by repeated squaring."""
    R = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            R = R @ M % p
        M, e = M @ M % p, e >> 1
    return R


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9(2), 1980): a monic f of degree m is irreducible over GF(p)
    exactly when x^(p^m) = x mod f and, for every prime r dividing m, x^(p^(m/r)) - x is prime
    to f.  On the companion matrix X of f, the first is X^(p^m) = X, and the second says that
    X^(p^(m/r)) - X has rank m: its eigenvalues are a^(p^(m/r)) - a at the roots a of f."""
    from .exactla import rref  # exactla imports this module

    m, F = len(modulus) - 1, make_field(p)
    X = _companion(modulus, p)
    return np.array_equal(_power(X, p**m, p), X) and all(
        len(rref(F, (_power(X, p ** (m // r), p) - X) % p, m)[1]) == m for r in _prime_factors(m)
    )


class Field:
    """GF(p^m) with exact arithmetic on integer-encoded residues.

    Do not instantiate directly; use :func:`make_field`, which caches and
    guarantees one object per (p, m).
    """

    __slots__ = ("p", "m", "order", "modulus", "place", "_exp", "_log", "_zech", "_arrays", "_reps")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus  # full coefficient tuple, low degree first, monic
        self.place = p ** np.arange(m, dtype=np.int64)  # the encodings of x^0, ..., x^(m-1)
        self.place.flags.writeable = False
        self._exp: memoryview | None = None  # read-only views of the int64 tables
        self._log: memoryview | None = None
        self._zech: memoryview | None = None
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._reps: np.ndarray | None = None
        if m > 1:
            self._build_tables()

    def __reduce__(self):
        return make_field, (self.p, self.m)

    # -- discrete-log tables (built with the field when m > 1) -------------

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.order
        # Find a primitive element: smallest g whose order is q - 1.  The matrix of a,
        # mul_matrices(a), is the sum of a's digits times X^0, ..., X^(m-1).
        factors = _prime_factors(q - 1)
        X, one = _companion(self.modulus, p), np.eye(m, dtype=np.int64)
        powers = [one]
        for _ in range(m - 1):
            powers.append(powers[-1] @ X % p)
        # start past GF(p) when m > 1: its elements have orders dividing p - 1
        for g in range(1 if m == 1 else p, q):
            M = np.tensordot(self.to_digits(g), powers, 1) % p
            if all((_power(M, (q - 1) // f, p) != one).any() for f in factors):
                break
        # exp holds g^0, ..., g^(q-2) twice over, so that a sum of two logs
        # indexes it unreduced.  Row j of M holds the digits of c * x^j: the
        # matrix of multiplication by c = g^n on coefficient vectors.  Once
        # exp[:n] is filled, c * exp[:n] are the next n powers, and M @ M is the
        # matrix of c^2, so about log2(q) doublings fill exp.  Over GF(p^m),
        # m > 1, c * a is the sum of c * (the h low digits of a) and c * (the
        # rest), each read from a table of about sqrt(q) products.
        h = m // 2
        exp = np.empty(2 * (q - 1), dtype=np.int64)
        exp[0], n = 1, 1
        while n < q - 1:
            a = exp[: min(n, q - 1 - n)]
            if m == 1:
                exp[n : n + len(a)] = a * M[0, 0] % p
            else:
                low, high = (
                    self.to_digits(np.arange(p**k))[:, :k] @ rows % p @ self.place
                    for k, rows in ((h, M[:h]), (m - h, M[h:]))
                )
                exp[n : n + len(a)] = self.add_array(low[a % p**h], high[a // p**h])
            n, M = n + len(a), M @ M % p
        exp[q - 1 :] = exp[: q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        exp.flags.writeable = log.flags.writeable = False
        self._exp, self._log = memoryview(exp), memoryview(log)
        if p > 2 and m > 1:  # Zech's logarithms: zech[k] = log(1 + g^k), -1 where 1 + g^k = 0
            one_plus = exp[: q - 1] - exp[: q - 1] % p + (exp[: q - 1] + 1) % p  # 1 adds to digit 0
            zech = np.where(one_plus > 0, log[one_plus], -1).astype(np.int32)
            zech.flags.writeable = False
            self._zech = memoryview(zech)

    # -- integer-encoded arithmetic --------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.order - 1)]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.mul(a, self.p - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.m == 1:
            return pow(a, e, self.p)
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    # -- elementwise arithmetic on int64 arrays of encodings ---------------

    def array_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only tables: exp twice over, so that a sum of two logs indexes
        it unreduced, and log, the very int64 arrays scalar arithmetic reads;
        and digits[d], mapping k < q-1 to digit d of g^k and q-1 to 0, in the
        smallest unsigned dtype that holds p - 1, built on first use.  Over
        GF(p) this is the first call that builds the exp/log tables at all."""
        if self._arrays is None:
            if self._exp is None:
                self._build_tables()
            exp2, log = self._exp.obj, self._log.obj
            values = np.append(exp2[: self.order - 1], 0)  # index q-1 stands for zero
            digits = np.empty((self.m, self.order), dtype=np.min_scalar_type(self.p - 1))
            for d in range(self.m):  # one digit at a time: no (m, q) int64 temporary
                digits[d] = values % self.p
                values //= self.p
            digits.flags.writeable = False
            self._arrays = (exp2, log, digits)
        return self._arrays

    def frobenius_representatives(self) -> np.ndarray:
        """The least encoding in each orbit of a -> a^p, in increasing order, as a
        read-only int64 array built on first use: 0, and every a > 0 that is at
        most each exp[p^k log a mod (q-1)], k < m.  Over GF(p) every element."""
        if self._reps is None:
            exp2, log, _ = self.array_tables()
            q1 = self.order - 1
            powers = log[1:].copy()  # log a^(p^k) for a = 1..q-1
            least = np.arange(1, self.order)
            for _ in range(self.m - 1):
                powers *= self.p
                powers %= q1
                np.minimum(least, exp2[powers], out=least)
            reps = np.flatnonzero(least == np.arange(1, self.order)) + 1
            self._reps = np.concatenate([[0], reps])
            self._reps.flags.writeable = False
        return self._reps

    def add_array(self, a, b) -> np.ndarray:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out, shift = 0, 1
        for _ in range(self.m):
            out = out + (a + b) % p * shift
            a, b, shift = a // p, b // p, shift * p
        return out

    def mul_array(self, a, b) -> np.ndarray:
        if self.m == 1:
            return a * b % self.p
        exp2, log, _ = self.array_tables()
        return np.where((a != 0) & (b != 0), exp2[log[a] + log[b]], 0)

    def to_digits(self, a) -> np.ndarray:
        """The digits of the encodings a on a new last axis, low degree first:
        their coordinates over GF(p), which ``digits @ place`` encodes again.
        Over GF(p) an encoding is its own digit, and this is a view of a."""
        a = np.asarray(a)
        return a[..., None] if self.m == 1 else a[..., None] // self.place % self.p

    def mul_matrices(self, a) -> np.ndarray:
        """Multiplication by each of the encodings a as an m x m matrix over
        GF(p): entry [..., j, s] is digit s of a * x^j, so that
        ``to_digits(b) @ mul_matrices(a) % p`` is ``to_digits(a * b)``."""
        return self.to_digits(self.mul_array(np.asarray(a)[..., None], self.place))

    # -- representation ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_digits(a, self.p, self.m))

    def element(self, val: int) -> "FieldElement":
        if not 0 <= val < self.order:
            raise InvalidInputError(f"encoded value {val} out of range for GF({self.p}^{self.m})")
        return FieldElement(self, val)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def format(self, a: int) -> str:
        if self.m == 1:
            return str(a)
        parts = []
        for i in range(self.m - 1, -1, -1):
            c = (a // self.p**i) % self.p
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts) if parts else "0"

    def parse(self, text: str) -> int:
        """Parse the element text form, the grammar of :func:`text_terms` with symbol ``t``:
        integers for prime fields, reduced polynomial expressions in ``t`` for extensions."""
        val = 0
        for sign, factors in text_terms(text, "t"):
            coeff, power = sign, 0
            for f in factors:
                if isinstance(f, int):
                    coeff = coeff * f % self.p
                elif isinstance(f, str) or f[0] is not None or self.m == 1:
                    kinds = "integers" if self.m == 1 else "integers and powers of t"
                    raise ParseError(f"element text {text!r} over {self} may hold only {kinds}")
                else:
                    power += f[1]
            if power >= self.m:
                raise ParseError(f"unreduced element text: {text!r}")
            val = self.add(val, coeff % self.p * self.p**power)
        return val

    def read(self, v) -> int:
        """The encoding of a caller's value: a :class:`FieldElement` of this field (another's raises
        :class:`FieldMismatchError`), an integer (Python or numpy) in range(q) as that encoding, any
        other integer n as n mod p, its image under Z -> GF(p); InvalidInputError for anything else."""
        if isinstance(v, (int, np.integer)):
            return int(v) if 0 <= v < self.order else int(v) % self.p
        if isinstance(v, FieldElement):
            return self._own_val(v)
        raise InvalidInputError(f"{v!r} is not an element of {self} (an integer or a FieldElement)")

    def encode(self, values) -> list[int]:
        """The encodings of ``values``, each read by :meth:`read`, the one reader that reduces."""
        return [self.read(v) for v in values]

    def _own_val(self, x: "FieldElement") -> int:
        if x.field != self:
            raise FieldMismatchError(f"mixed fields {self} and {x.field}")
        return x.val

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m))


def make_field(p: int, m: int = 1) -> Field:
    """Construct GF(p^m) deterministically: one object per (p, m), however
    the arguments are spelled (``make_field(3)``, ``make_field(3, m=1)``).

    The modulus is the lexicographically least monic irreducible polynomial
    of degree m over GF(p), coefficients compared low degree first.
    """
    # checked before the cache, which keys 3.0 and 3 alike
    if not isinstance(p, int) or p < 2:
        raise InvalidInputError(f"characteristic must be prime, got {p}")
    if not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"extension degree must be >= 1, got {m}")
    return _make_field(p, m)


@functools.lru_cache(maxsize=None)
def _make_field(p: int, m: int) -> Field:
    # the bound comes before the trial-division primality test, which would
    # run for hours on a large characteristic; as p >= 2, an m above the
    # bound's bit length exceeds it without computing p^m
    if p > MAX_ORDER or m > MAX_ORDER.bit_length() or p**m > MAX_ORDER:
        raise InvalidInputError(f"field order {p}^{m} exceeds the supported bound {MAX_ORDER}")
    if not is_prime(p):
        raise InvalidInputError(f"characteristic must be prime, got {p}")
    if m == 1:
        return Field(p, 1, (0, 1))
    # c_0 = 0 would make the candidate divisible by x, so never irreducible; the odometer with
    # the highest-degree coefficient fastest gives increasing lexicographic order on (c_0, ...)
    for idx in range(p ** (m - 1), p**m):
        modulus = (*reversed(_digits(idx, p, m)), 1)
        if _is_irreducible(modulus, p):
            return Field(p, m, modulus)
    raise AssertionError("no irreducible polynomial found")  # unreachable


make_field.cache_info = _make_field.cache_info  # misses count cold constructions


def _operator(op, reflected: bool = False):
    """The FieldElement operator applying the Field method ``op``: the other operand is an element of
    the same field or an int, read mod p; for anything else it returns NotImplemented."""
    def apply(self, other):
        if isinstance(other, FieldElement):
            v = self.field._own_val(other)
        elif isinstance(other, int):
            v = other % self.field.p
        else:
            return NotImplemented
        return FieldElement(self.field, op(self.field, v, self.val) if reflected else op(self.field, self.val, v))

    return apply


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An element of GF(p^m), canonical reduced residue."""

    field: Field
    val: int

    __add__ = __radd__ = _operator(Field.add)
    __sub__, __rsub__ = _operator(Field.sub), _operator(Field.sub, reflected=True)
    __mul__ = __rmul__ = _operator(Field.mul)
    __truediv__, __rtruediv__ = _operator(Field.div), _operator(Field.div, reflected=True)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.val, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.val)

    def __str__(self) -> str:
        return self.field.format(self.val)


def _horner(F: Field, coeffs, x: int) -> int:
    """The polynomial with coefficients ``coeffs``, low degree first, at x over F, by Horner's scheme."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


@functools.lru_cache(maxsize=None)
def _embedding_root(p: int, src_m: int, tgt_m: int) -> int:
    """Image of the GF(p^src_m) generator in GF(p^tgt_m), tgt_m > 1: the least root (in enumeration
    order) of the source modulus, tried only on the q = p^src_m elements of the subfield that holds
    its roots, 0 and g^(k (Q - 1)/(q - 1)) for k < q - 1, g the target's primitive element of order Q - 1."""
    src, tgt = make_field(p, src_m), make_field(p, tgt_m)
    subfield = [0, *tgt._exp[: tgt.order - 1 : (tgt.order - 1) // (src.order - 1)]]
    return min(a for a in subfield if _horner(tgt, src.modulus, a) == 0)


def embed_val(val: int, src: Field, tgt: Field) -> int:
    """Embed an integer-encoded element of src into tgt (same p, src.m | tgt.m)."""
    if src.p != tgt.p:
        raise FieldMismatchError(f"cannot embed {src} into {tgt}: different characteristics")
    if tgt.m % src.m != 0:
        raise InvalidInputError(f"cannot embed {src} into {tgt}: {src.m} does not divide {tgt.m}")
    if src.m == 1 or src == tgt:
        return val
    return _horner(tgt, src.coeffs(val), _embedding_root(src.p, src.m, tgt.m))


def embed(x: FieldElement, target: Field) -> FieldElement:
    """Ring-homomorphic embedding of x into an extension field.

    The embedding is fixed once per (source, target) pair and consistent
    across calls.
    """
    return FieldElement(target, embed_val(x.val, x.field, target))
