"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements are canonical residues encoded as integers: the residue with
coefficient vector (c_0, ..., c_{m-1}) over GF(p), low degree first, is
encoded as c_0 + c_1*p + ... + c_{m-1}*p^(m-1).  The integer encoding
doubles as the deterministic enumeration order (odometer, low-degree
coefficient fastest).  A :class:`Field` exposes arithmetic directly on the
integer encodings, on Python ints and elementwise on int64 numpy arrays;
:class:`FieldElement` is a thin operator-overloading wrapper on top of that.

The reduction modulus of GF(p^m) is the lexicographically least monic
irreducible polynomial of degree m over GF(p), coefficients compared low
degree first, found by scanning candidates in that order with trial
division.  The scan starts at constant term 1, because every candidate with
constant term 0 is divisible by x.  The exp/log tables are the powers of g,
the smallest element of order p^m - 1, filled in numpy by repeated
doubling: multiplying the first n powers by g^n, a GF(p)-linear map on
coefficient vectors, gives the next n.  Each table is held once, as a
read-only int64 array: scalar arithmetic indexes memoryviews of it and
:meth:`Field.array_tables` returns it.  Every field has these tables; GF(p),
whose scalar arithmetic is plain modular arithmetic, builds them on the
first call to :meth:`Field.array_tables`.  Construction is a pure function
of (p, m).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FieldMismatchError, InvalidInputError, ParseError

MAX_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _digits(val: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(val % p)
        val //= p
    return out


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic b, coefficient lists low degree first."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * bc) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                prod[i + j] = (prod[i + j] + ac * bc) % p
    return _poly_rem(prod, mod, p)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial by trial division.

    Divides by every monic polynomial of degree 1..deg/2 (reducible trial
    divisors are harmless: they only ever divide reducible inputs).
    """
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            div = _digits(idx, p, d) + [1]
            if not _poly_rem(poly, div, p):
                return False
    return True


class Field:
    """GF(p^m) with exact arithmetic on integer-encoded residues.

    Do not instantiate directly; use :func:`make_field`, which caches and
    guarantees one object per (p, m).
    """

    __slots__ = ("p", "m", "order", "modulus", "_exp", "_log", "_arrays")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus  # full coefficient tuple, low degree first, monic
        self._exp: memoryview | None = None  # read-only views of the int64 tables
        self._log: memoryview | None = None
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if m > 1:
            self._build_tables()

    def __reduce__(self):
        return make_field, (self.p, self.m)

    # -- discrete-log tables (built with the field when m > 1) -------------

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        pa = _digits(a, p, self.m)
        pb = _digits(b, p, self.m)
        r = _poly_mulmod(pa, pb, list(self.modulus), p)
        val = 0
        for c in reversed(r):
            val = val * p + c
        return val

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.order
        # Find a primitive element: smallest g whose order is q - 1.
        factors = []
        n = q - 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                factors.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            factors.append(n)

        def pow_raw(a: int, e: int) -> int:
            r = 1
            while e:
                if e & 1:
                    r = self._mul_raw(r, a)
                a = self._mul_raw(a, a)
                e >>= 1
            return r

        # start past GF(p) when m > 1: its elements have orders dividing p - 1
        g = None
        for cand in range(1 if m == 1 else p, q):
            if all(pow_raw(cand, (q - 1) // f) != 1 for f in factors):
                g = cand
                break
        assert g is not None
        # exp holds g^0, ..., g^(q-2) twice over, so that a sum of two logs
        # indexes it unreduced.  Row j of M holds the digits of c * x^j: the
        # matrix of multiplication by c = g^n on coefficient vectors.  Once
        # exp[:n] is filled, c * exp[:n] are the next n powers, and M @ M is the
        # matrix of c^2, so about log2(q) doublings fill exp.  Over GF(p^m),
        # m > 1, c * a is the sum of c * (the h low digits of a) and c * (the
        # rest), each read from a table of about sqrt(q) products.
        h, place = m // 2, p ** np.arange(m, dtype=np.int64)
        M = np.array([_digits(self._mul_raw(g, p**j), p, m) for j in range(m)], dtype=np.int64)
        exp = np.empty(2 * (q - 1), dtype=np.int64)
        exp[0], n = 1, 1
        while n < q - 1:
            a = exp[: min(n, q - 1 - n)]
            if m == 1:
                exp[n : n + len(a)] = a * M[0, 0] % p
            else:
                low, high = (
                    np.arange(p**k)[:, None] // place[:k] % p @ rows % p @ place
                    for k, rows in ((h, M[:h]), (m - h, M[h:]))
                )
                exp[n : n + len(a)] = self.add_array(low[a % p**h], high[a // p**h])
            n, M = n + len(a), M @ M % p
        exp[q - 1 :] = exp[: q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        exp.flags.writeable = log.flags.writeable = False
        self._exp, self._log = memoryview(exp), memoryview(log)

    # -- integer-encoded arithmetic --------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        r = 0
        shift = 1
        while a or b:
            r += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return r

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
        """Read-only int64 tables, the very arrays scalar arithmetic reads:
        exp twice over, so that a sum of two logs indexes it unreduced; log;
        and digits[d], mapping k < q-1 to digit d of g^k and q-1 to 0, built
        on first use.  Over GF(p) this is the first call that builds the
        exp/log tables at all."""
        if self._arrays is None:
            if self._exp is None:
                self._build_tables()
            exp2, log = self._exp.obj, self._log.obj
            values = np.append(exp2[: self.order - 1], 0)  # index q-1 stands for zero
            digits = values // self.p ** np.arange(self.m, dtype=np.int64)[:, None] % self.p
            digits.flags.writeable = False
            self._arrays = (exp2, log, digits)
        return self._arrays

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

    # -- representation ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_digits(a, self.p, self.m))

    def from_coeffs(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + c % self.p
        return val

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
        """Parse the element text form: integers for prime fields,
        reduced polynomial expressions in ``t`` for extensions."""
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty field element")
        val = 0
        for term in s.replace("-", "+-").split("+"):
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            coeff = 1
            power = 0
            if "t" in term:
                if self.m == 1:
                    raise ParseError(f"generator symbol in prime-field element: {text!r}")
                head, _, tail = term.partition("t")
                if head:
                    if not head.endswith("*"):
                        raise ParseError(f"bad element term: {term!r}")
                    coeff = int(head[:-1])
                if tail:
                    if not tail.startswith("^"):
                        raise ParseError(f"bad element term: {term!r}")
                    power = int(tail[1:])
                else:
                    power = 1
                if power >= self.m:
                    raise ParseError(f"unreduced element text: {text!r}")
            else:
                try:
                    coeff = int(term)
                except ValueError as exc:
                    raise ParseError(f"bad element term: {term!r}") from exc
            val = self.add(val, self.from_coeffs([0] * power + [sign * coeff % self.p]))
        return val

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
    # idx < p^(m-1) would give c_0 = 0: divisible by x, so never irreducible
    for idx in range(p ** (m - 1), p**m):
        lows = _digits(idx, p, m)
        # odometer with the last (highest-degree) coefficient fastest gives
        # increasing lexicographic order on (c_0, ..., c_{m-1})
        coeffs = [lows[m - 1 - i] for i in range(m)]
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return Field(p, m, tuple(poly))
    raise AssertionError("no irreducible polynomial found")  # unreachable


make_field.cache_info = _make_field.cache_info  # misses count cold constructions


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An element of GF(p^m), canonical reduced residue."""

    field: Field
    val: int

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")
            return other.val
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(v, self.val))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.val, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.val))

    def frobenius(self) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius(self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.val)

    def __str__(self) -> str:
        return self.field.format(self.val)


@functools.lru_cache(maxsize=None)
def _embedding_root(p: int, src_m: int, tgt_m: int) -> int:
    """Image of the GF(p^src_m) generator in GF(p^tgt_m): the least root
    (in enumeration order) of the source modulus in the target field."""
    src = make_field(p, src_m)
    tgt = make_field(p, tgt_m)
    mod = src.modulus
    for cand in range(tgt.order):
        acc = 0
        for c in reversed(mod):
            acc = tgt.add(tgt.mul(acc, cand), c)
        if acc == 0:
            return cand
    raise AssertionError("source modulus has no root in target field")  # unreachable


def embed_val(val: int, src: Field, tgt: Field) -> int:
    """Embed an integer-encoded element of src into tgt (same p, src.m | tgt.m)."""
    if src.p != tgt.p:
        raise FieldMismatchError(f"cannot embed {src} into {tgt}: different characteristics")
    if tgt.m % src.m != 0:
        raise InvalidInputError(f"cannot embed {src} into {tgt}: {src.m} does not divide {tgt.m}")
    if src.m == 1 or src == tgt:
        return val
    root = _embedding_root(src.p, src.m, tgt.m)
    acc = 0
    for c in reversed(src.coeffs(val)):
        acc = tgt.add(tgt.mul(acc, root), c)
    return acc


def embed(x: FieldElement, target: Field) -> FieldElement:
    """Ring-homomorphic embedding of x into an extension field.

    The embedding is fixed once per (source, target) pair and consistent
    across calls.
    """
    return FieldElement(target, embed_val(x.val, x.field, target))
