"""Sparse homogeneous multivariate polynomial arithmetic.

A polynomial in N+1 variables z_0, ..., z_N of fixed degree e is a map
from exponent vectors (length N+1, summing to e) to nonzero coefficients.
Coefficients are integer-encoded elements of the polynomial's field (see
:mod:`strangeci.gf`).  The zero polynomial is an empty term map with a
declared degree.

Terms are kept in graded-lexicographic order with z_0 greatest; since all
monomials of a homogeneous polynomial share the total degree, that is
plain descending lexicographic order on exponent vectors, and the one column
order of dense coefficient rows (:func:`monomial_rank`).  ``linear_change``
expands f(L_0, ..., L_N) level-wise by Horner's scheme over numpy rows of
base-p digits: one path for every GF(p^m), GF(p) being m = 1.

``.terms`` is the public term map; numpy code reads ``arrays()``, one cached,
read-only int64 view (E, c) of it, built on first use or kept from the arrays
that made the polynomial.  Only the public constructor validates terms; the
library builds through ``_trusted``, and +, * and parsing share :func:`_merge`.
"""

from __future__ import annotations

import functools
import re
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .errors import (
    FieldMismatchError,
    HomogeneityError,
    InvalidInputError,
    ParseError,
)
from .gf import Field

Monomial = tuple[int, ...]


def monomials_of_degree(n_vars: int, degree: int) -> list[Monomial]:
    """All exponent vectors of total degree ``degree``, descending grlex."""
    out = []
    for combo in combinations_with_replacement(range(n_vars), degree):
        exps = [0] * n_vars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(reverse=True)
    return out


@functools.lru_cache(maxsize=64)
def _rank_table(n_vars: int, degree: int) -> np.ndarray:
    """table[s, k - 1] = C(s - 1 + k, k) for s <= degree and 0 < k < n_vars."""
    table = [comb(s - 1 + k, k) for s in range(degree + 1) for k in range(1, n_vars)]
    return np.array(table, dtype=np.int64).reshape(degree + 1, n_vars - 1)


def monomial_rank(E: np.ndarray, degree: int) -> np.ndarray:
    """Position in monomials_of_degree of each degree-``degree`` exponent vector (last axis of E).

    Before e come, per variable i but the last, the C(s - 1 + k, k) monomials that agree
    with e before i and exceed it at i, where e leaves degree s to the k variables after i.
    """
    n = E.shape[-1]
    rest = degree - np.cumsum(E[..., :-1], axis=-1)
    return _rank_table(n, degree)[rest, np.arange(n - 2, -1, -1)].sum(axis=-1)


@functools.lru_cache(maxsize=64)
def _monomial_array(n_vars: int, degree: int) -> np.ndarray:
    return np.array(monomials_of_degree(n_vars, degree), dtype=np.int64).reshape(-1, n_vars)


@functools.lru_cache(maxsize=64)
def _times_z(n_vars: int, degree: int) -> np.ndarray:
    """Rank in degree + 1 of each degree-``degree`` monomial (row) times z_j (column j)."""
    E, unit = _monomial_array(n_vars, degree), np.eye(n_vars, dtype=np.int64)
    return np.stack([monomial_rank(E + unit[j], degree + 1) for j in range(n_vars)], axis=1)


class HomogeneousPolynomial:
    """Immutable sparse homogeneous polynomial over a finite field."""

    __slots__ = ("field", "n_vars", "degree", "terms", "_arrays")

    def __init__(self, field: Field, n_vars: int, degree: int, terms: dict[Monomial, int]):
        if n_vars < 1:
            raise InvalidInputError("need at least one variable")
        if degree < 0:
            raise InvalidInputError("degree must be non-negative")
        clean: dict[Monomial, int] = {}
        for mono, c in terms.items():
            if not 0 <= c < field.order:
                # out-of-range integers are treated as prime-subfield values
                c %= field.p
            if c == 0:
                continue
            if len(mono) != n_vars:
                raise InvalidInputError(f"exponent vector {mono} has wrong length")
            if any(e < 0 for e in mono):
                raise InvalidInputError(f"negative exponent in {mono}")
            if sum(mono) != degree:
                raise HomogeneityError(
                    f"monomial {mono} has degree {sum(mono)}, expected {degree}"
                )
            clean[mono] = c
        self.field = field
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean
        self._arrays = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, n_vars: int, degree: int, terms=None, arrays=None):
        """A polynomial the library built, checked no further: exponent vectors of length n_vars and
        sum degree, nonzero coefficients in range(field.order).  Give the term map, the int64 view
        (E, c) of it, or only the view, which is then made read-only and the map read from it."""
        f = object.__new__(cls)
        if terms is None:
            arrays[0].flags.writeable = arrays[1].flags.writeable = False
            terms = dict(zip(map(tuple, arrays[0].tolist()), arrays[1].tolist()))
        f.field, f.n_vars, f.degree, f.terms, f._arrays = field, n_vars, degree, terms, arrays
        return f

    @classmethod
    def zero(cls, field: Field, n_vars: int, degree: int) -> "HomogeneousPolynomial":
        return cls(field, n_vars, degree, {})

    @classmethod
    def monomial(cls, field: Field, n_vars: int, exps: Monomial, coeff: int = 1) -> "HomogeneousPolynomial":
        return cls(field, n_vars, sum(exps), {tuple(exps): coeff})

    @classmethod
    def from_coeff_vector(
        cls, field: Field, n_vars: int, degree: int, basis: list[Monomial], vec
    ) -> "HomogeneousPolynomial":
        return cls(field, n_vars, degree, {m: c for m, c in zip(basis, vec) if c})

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.field == other.field
            and self.n_vars == other.n_vars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n_vars, self.degree, frozenset(self.terms.items())))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only int64 view (E, c): row i of E and c[i] are the i-th entry of ``terms``."""
        if self._arrays is None:
            E = np.fromiter(chain.from_iterable(self.terms), np.int64).reshape(-1, self.n_vars)
            c = np.fromiter(self.terms.values(), np.int64)
            E.flags.writeable = c.flags.writeable = False
            self._arrays = (E, c)
        return self._arrays

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousPolynomial") -> None:
        if self.field != other.field or self.n_vars != other.n_vars:
            raise FieldMismatchError("polynomials live in different rings")

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._check_compatible(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise HomogeneityError("cannot add homogeneous polynomials of different degrees")
        degree = other.degree if self.is_zero() and other.terms else self.degree
        (E1, c1), (E2, c2) = self.arrays(), other.arrays()
        return _merge(self.field, self.n_vars, degree, np.concatenate([E1, E2]), np.concatenate([c1, c2]))

    def __neg__(self) -> "HomogeneousPolynomial":
        return self.scale(self.field.p - 1)  # p - 1 encodes -1

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def scale(self, c: int) -> "HomogeneousPolynomial":
        F, c = self.field, c % self.field.order
        terms = {m: F.mul(v, c) for m, v in self.terms.items()} if c else {}
        return HomogeneousPolynomial._trusted(F, self.n_vars, self.degree, terms)

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._check_compatible(other)
        (E1, c1), (E2, c2) = self.arrays(), other.arrays()
        E = (E1[:, None] + E2[None]).reshape(-1, self.n_vars)
        c = self.field.mul_array(c1[:, None], c2[None]).ravel()
        return _merge(self.field, self.n_vars, self.degree + other.degree, E, c)

    def multiply_monomial(self, exps: Monomial, coeff: int = 1) -> "HomogeneousPolynomial":
        F = self.field
        return HomogeneousPolynomial(
            F,
            self.n_vars,
            self.degree + sum(exps),
            {
                tuple(a + b for a, b in zip(m, exps)): F.mul(c, coeff)
                for m, c in self.terms.items()
            },
        )

    # -- calculus ---------------------------------------------------------

    def partial_derivative(self, i: int) -> "HomogeneousPolynomial":
        """Formal partial derivative with respect to z_i, reduced mod p."""
        if not 0 <= i < self.n_vars:
            raise InvalidInputError(f"variable index {i} out of range")
        F = self.field
        # w -> w - e_i is one-to-one, and c * (w_i mod p) is zero only when p divides w_i
        terms = {
            mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: F.mul(c, mono[i] % F.p)
            for mono, c in self.terms.items()
            if mono[i] % F.p
        }
        return HomogeneousPolynomial._trusted(F, self.n_vars, max(self.degree - 1, 0), terms)

    def gradient_rows(self) -> np.ndarray:
        """Coefficient rows of f_{z_0}, ..., f_{z_N}: row i holds c * (w_i mod p) at the rank of
        w - e_i for each term c * z^w with w_i > 0."""
        F, n, d = self.field, self.n_vars, max(self.degree - 1, 0)
        monos, coeffs = self.arrays()
        var, term = np.nonzero(monos.T)
        out = np.zeros((n, comb(d + n - 1, n - 1)), dtype=np.int64)
        ranks = monomial_rank(monos[term] - np.eye(n, dtype=np.int64)[var], d)
        out[var, ranks] = F.mul_array(coeffs[term], monos[term, var] % F.p)
        return out

    def evaluate(self, coords, point_field: Field | None = None) -> int:
        """Evaluate at a coordinate vector of integer-encoded elements.

        The point may live in an extension of the coefficient field as long
        as the coefficients themselves are prime-subfield residues (which is
        the case for all stored system generators).
        """
        F = point_field if point_field is not None else self.field
        coords = list(coords)
        if len(coords) != self.n_vars:
            raise InvalidInputError("coordinate vector has wrong length")
        if F != self.field:
            if F.p != self.field.p or any(c >= self.field.p for c in self.terms.values()):
                raise FieldMismatchError(
                    "evaluation field is not an extension of the coefficient field"
                )
        acc = 0
        for mono, c in self.terms.items():
            t = c
            for idx, e in enumerate(mono):
                if e == 0:
                    continue
                if coords[idx] == 0:
                    t = 0
                    break
                t = F.mul(t, F.pow(coords[idx], e))
            acc = F.add(acc, t)
        return acc

    def euler_identity_check(self) -> bool:
        """Whether sum_j z_j * f_{z_j} equals (e mod p) * f.  Always true."""
        F = self.field
        lhs = HomogeneousPolynomial.zero(F, self.n_vars, self.degree)
        for j in range(self.n_vars):
            exps = tuple(1 if i == j else 0 for i in range(self.n_vars))
            lhs = lhs + self.partial_derivative(j).multiply_monomial(exps)
        return lhs == self.scale(self.degree % F.p)

    # -- coordinate changes ----------------------------------------------

    def lift_to(self, field: Field) -> "HomogeneousPolynomial":
        """Reinterpret over an extension field (prime-subfield coefficients)."""
        if field == self.field:
            return self
        if field.p != self.field.p or any(c >= self.field.p for c in self.terms.values()):
            raise FieldMismatchError("can only lift prime-subfield coefficients")
        return HomogeneousPolynomial._trusted(field, self.n_vars, self.degree, dict(self.terms), self._arrays)

    def linear_change(self, matrix) -> "HomogeneousPolynomial":
        """Substitute z_i <- sum_j M[i][j] z_j for an invertible matrix M.

        M is given as rows of integer-encoded entries of the polynomial's
        field; an entry outside range(field.order) is rejected, not reduced.
        :func:`_expand` expands f(M z) level-wise over base-p digit rows.
        """
        from .exactla import MatrixOverField, rank

        rows = [list(r) for r in matrix]
        n = self.n_vars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidInputError("matrix has wrong shape")
        F = self.field
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if not isinstance(c, int) or not 0 <= c < F.order:
                    raise InvalidInputError(
                        f"matrix entry [{i}][{j}] = {c!r} is not an element of {F} "
                        f"(an integer in range({F.order}))"
                    )
        if rank(MatrixOverField(F, rows)) < n:
            raise InvalidInputError("matrix is singular")
        return HomogeneousPolynomial._trusted(F, n, self.degree, arrays=_expand(self, rows))

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<{self.field} poly deg {self.degree}: {format_poly(self)}>"


def _expand(f: HomogeneousPolynomial, rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The view (E, c) of f(L_0, ..., L_N), L_i = sum_j rows[i][j] z_j, by Horner's scheme level-wise.

    A term c * z_(s_1) ... z_(s_e), s_1 <= ... <= s_e, lies below the level-k node P = (s_1, ..., s_k),
    which holds the row over the degree-(e - k) monomials of W(P), the sum of c * L_(s_(k+1)) ...
    L_(s_e) over the terms below P.  As W(P) = sum_i L_i * W(P + (i,)), a level step multiplies each row
    by the form of its node's last variable, one z_j at a time so that memory stays at nodes x
    columns, and adds it into the parent's row; W(()) = f(L).  Rows hold m base-p digits per
    coefficient; a * x is the m x m GF(p) matrix with rows the digits of a * t^r, applied to x.
    int64 is exact: a bin collects at most n children x n variables x m digits products below
    p^2 before the reduction mod p once per level, and n^2 * m * p^2 < 2^63 for p^m <= 2^20
    (MAX_ORDER) and n < 2^11.
    """
    F, (E, c), e = f.field, f.arrays(), f.degree
    if not len(c) or e == 0:
        return E, c
    n, m, p, place = len(rows), F.m, F.p, F.p ** np.arange(F.m, dtype=np.int64)
    # times[i, j, r, s] = digit s of M[i][j] * t^r, built once per distinct entry
    values, index = np.unique(np.array(rows, dtype=np.int64), return_inverse=True)
    products = [[F.mul(a, b) for b in place.tolist()] for a in values.tolist()]
    times = (np.array(products, dtype=np.int64)[..., None] // place % p)[index.reshape(n, n)]
    # each term's variables, ascending; sorting them puts equal prefixes side by side
    seq = np.repeat(np.tile(np.arange(n), len(c)), E.ravel()).reshape(-1, e)
    order = np.lexsort(seq.T[::-1])
    seq, coeffs = seq[order], c[order]
    first = np.ones((len(seq), e + 1), dtype=bool)  # first[t, k]: term t starts its level-k node
    first[1:, 1:], first[1:, 0] = np.logical_or.accumulate(seq[1:] != seq[:-1], axis=1), False
    W = (coeffs[:, None] // place % p)[:, :, None]
    for k in range(e, 0, -1):
        nodes = np.flatnonzero(first[:, k])
        last, cols = seq[nodes, k - 1], _times_z(n, e - k)
        out = np.zeros((len(nodes), m, comb(e - k + n, n - 1)), dtype=np.int64)
        for j in np.flatnonzero(times[last].any(axis=(0, 2, 3))):
            out[:, :, cols[:, j]] += sum(times[last, j, r, :, None] * W[:, r, None, :] for r in range(m))
        W = np.add.reduceat(out, np.flatnonzero(first[nodes, k - 1]), axis=0) % p
    coeffs = place @ W[0]
    nz = np.flatnonzero(coeffs)
    return _monomial_array(n, e)[nz], coeffs[nz]


def _merge(F: Field, n_vars: int, degree: int, E: np.ndarray, c: np.ndarray) -> HomogeneousPolynomial:
    """The sum of the terms c[i] * z^E[i], all of degree ``degree``: rows sorted descending, equal ones
    added digit by digit mod p (one digit over GF(p)), zero sums dropped."""
    order = np.lexsort(E.T[::-1])[::-1]
    E, c, place = E[order], c[order], F.p ** np.arange(F.m, dtype=np.int64)
    starts = np.flatnonzero(np.diff(E, axis=0, prepend=-1).any(axis=1))
    sums = np.add.reduceat(c[:, None] // place % F.p, starts) % F.p @ place
    nz = np.flatnonzero(sums)
    return HomogeneousPolynomial._trusted(F, n_vars, degree, arrays=(E[starts[nz]], sums[nz]))


def normalize_z0(g: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Kill the z_0-partial while preserving the ideal modulo z_0.

    Returns g + sum_{j=1}^{p-1} (-1)^j z_0^j / j! * d^j g / d z_0^j.  That
    operator multiplies a term c * z_0^a * r by sum_{j <= min(a, p-1)} (-1)^j
    C(a, j): 1 for a = 0, 0 for 0 < a < p, and (-1)^(p-1) C(a-1, p-1) for
    a >= p, which by Lucas's theorem is 1 mod p when p divides a and 0
    otherwise.  So the result keeps exactly the terms whose z_0-exponent p
    divides: it has zero z_0-partial and differs from g by a multiple of z_0.
    """
    p = g.field.p
    return HomogeneousPolynomial._trusted(
        g.field, g.n_vars, g.degree, {mono: c for mono, c in g.terms.items() if mono[0] % p == 0}
    )


_TOKEN_RE = re.compile(r"z(\d+)(?:\^(\d{1,9}))?$")  # exponents stay far below int64


def parse_poly(text: str, field: Field, n_vars: int) -> HomogeneousPolynomial:
    """Parse the ASCII polynomial grammar.

    poly := term ('+' term)*; term := [coeff '*']? factor ('*' factor)*;
    factor := 'z' index ['^' exponent]; coeff := integer or parenthesized
    extension element.  '-' is interpreted as +(p-1)*.
    """
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return HomogeneousPolynomial.zero(field, n_vars, 0)
    # split into signed terms at top level (outside parentheses)
    raw_terms: list[tuple[int, str]] = []
    depth = 0
    cur = ""
    sign = 1
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0:
            if cur:
                raw_terms.append((sign, cur))
                cur = ""
                sign = 1
            if ch == "-":
                sign = -sign
            continue
        cur += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    if cur:
        raw_terms.append((sign, cur))
    if not raw_terms:
        raise ParseError(f"cannot parse polynomial {text!r}")

    F = field
    degree: int | None = None
    monos, coeffs = [], []
    for sgn, term in raw_terms:
        # split factors at top-level '*'
        factors = []
        depth = 0
        cur = ""
        for ch in term:
            if ch == "(":
                depth += 1
            if ch == ")":
                depth -= 1
            if ch == "*" and depth == 0:
                factors.append(cur)
                cur = ""
                continue
            cur += ch
        if cur:
            factors.append(cur)
        coeff = 1
        exps = [0] * n_vars
        for fac in factors:
            if not fac:
                raise ParseError(f"empty factor in term {term!r}")
            if fac[0] == "z":
                mt = _TOKEN_RE.match(fac)
                if not mt:
                    raise ParseError(f"bad factor {fac!r}")
                idx = int(mt.group(1))
                if idx >= n_vars:
                    raise InvalidInputError(
                        f"variable z{idx} out of range for {n_vars} variables"
                    )
                exps[idx] += int(mt.group(2)) if mt.group(2) else 1
            elif fac[0] == "(" and fac[-1] == ")":
                coeff = F.mul(coeff, F.parse(fac[1:-1]))
            else:
                try:
                    coeff = F.mul(coeff, int(fac) % F.p)
                except ValueError as exc:
                    raise ParseError(f"bad factor {fac!r}") from exc
        if sgn < 0:
            coeff = F.neg(coeff)
        d = sum(exps)
        if degree is None:
            degree = d
        elif d != degree:
            raise HomogeneityError(f"term {term!r} has degree {d}, expected {degree}")
        monos.append(exps)
        coeffs.append(coeff)
    return _merge(F, n_vars, degree, np.array(monos, dtype=np.int64), np.array(coeffs, dtype=np.int64))


def format_poly(f: HomogeneousPolynomial) -> str:
    if f.is_zero():
        return "0"
    F = f.field
    parts = []
    for mono, c in sorted(f.terms.items(), reverse=True):
        factors = []
        if c != 1 or all(e == 0 for e in mono):
            cs = F.format(c)
            factors.append(f"({cs})" if F.m > 1 and ("+" in cs or "t" in cs) else cs)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            factors.append(f"z{i}" if e == 1 else f"z{i}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
