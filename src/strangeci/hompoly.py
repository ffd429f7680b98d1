"""Sparse homogeneous multivariate polynomial arithmetic.

A polynomial in N+1 variables z_0, ..., z_N of fixed degree e is a map
from exponent vectors (length N+1, summing to e) to nonzero coefficients.
Coefficients are integer-encoded elements of the polynomial's field (see
:mod:`strangeci.gf`).  The zero polynomial is an empty term map with a
declared degree.

Terms are kept in graded-lexicographic order with z_0 greatest; since all
monomials of a homogeneous polynomial share the total degree, that is plain
descending lexicographic order on exponent vectors and the one column order of
dense coefficient rows.  :func:`monomial_rank` alone defines it; every monomial
list reads its inverse, the cached read-only table :func:`_monomial_array`.
``linear_change`` expands f(L_0, ..., L_N) level-wise by Horner's scheme over
base-p digit rows, one float64 BLAS product with the change's GF(p) matrix per
level, exact below 2^53: one path for every GF(p^m), GF(p) being m = 1.

``.terms`` is the public term map; numpy code reads ``arrays()``, one cached,
read-only int64 view (E, c) of it, built on first use or kept from the arrays
that made the polynomial, and ``dense()``, the cached read-only coefficient row
over ``monomials_of_degree``, from which gradient rows are one gather.  Only the
public constructor validates terms, reading coefficients (and ``scale`` its scalar)
by :meth:`Field.read`; the library builds through ``_trusted``, and +, * and
parsing share :func:`_merge`.
No polynomial keeps a derivative: this module alone forms them, with the rule
c z^w -> c (w_j mod p) z^(w - e_j), as polynomials (``partial_derivative``),
as gradient rows and stacks, and as the gradient at a point, one pass over the
terms (:meth:`_gradient`).  A dense row, monomial table, Macaulay piece or
coordinate change holds at most ``MONOMIAL_BUDGET`` monomials of one degree.
Text is read in the grammar of :func:`strangeci.gf.text_terms`.
"""

from __future__ import annotations

import functools
from itertools import chain
from math import comb

import numpy as np

from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    HomogeneityError,
    InvalidInputError,
    ParseError,
)
from .exactla import rref
from .gf import Field, _mod, text_terms

Monomial = tuple[int, ...]

_NOT_EXTENSION = "evaluation field is not an extension of the coefficient field"

MONOMIAL_BUDGET = 1_000_000  # monomials of one degree that a dense row, table or piece may hold


def monomial_count(n_vars: int, degree: int) -> int:
    """C(n_vars - 1 + degree, degree), the number of monomials of the degree, or BudgetExceededError
    past MONOMIAL_BUDGET.  With N = n_vars - 1, C(N + e, N) >= C(N + e, j) >= 2^j for j <= min(N, e),
    so j need not pass the budget's bit length: that keeps the test cheap when N and e are both huge."""
    N = n_vars - 1
    if comb(N + degree, min(N, degree, MONOMIAL_BUDGET.bit_length())) > MONOMIAL_BUDGET:
        raise BudgetExceededError(f"degree {degree} in {n_vars} variables has more than {MONOMIAL_BUDGET} monomials")
    return comb(N + degree, N)


def monomials_of_degree(n_vars: int, degree: int) -> list[Monomial]:
    """All exponent vectors of total degree ``degree`` in the order of :func:`monomial_rank`,
    descending lex: the rows of :func:`_monomial_array` as tuples; at most MONOMIAL_BUDGET."""
    return list(zip(*_monomial_array(n_vars, degree).T.tolist()))


@functools.lru_cache(maxsize=64)
def _rank_table(n_vars: int, degree: int) -> np.ndarray:
    """table[s, k - 1] = C(s - 1 + k, k) for s <= degree and 0 < k < n_vars: column 0 is s, and each
    next column the cumulative sum of the one before, as C(s - 1 + k, k) = sum over t < s of
    C(t + k - 1, k - 1).  Its largest entry is below monomial_count(n_vars, degree)."""
    table, column = np.empty((degree + 1, n_vars - 1), dtype=np.int64), np.arange(degree + 1, dtype=np.int64)
    for k in range(n_vars - 1):
        table[:, k], column = column, np.cumsum(column)
    return table


def monomial_rank(E: np.ndarray, degree: int) -> np.ndarray:
    """Position of each degree-``degree`` exponent vector (last axis of E) in the one column order
    of dense rows, descending lex, that :func:`_monomial_array` inverts.

    Before e come, per variable i but the last, the C(s - 1 + k, k) monomials that agree
    with e before i and exceed it at i, where e leaves degree s to the k variables after i.
    """
    n = E.shape[-1]
    rest = degree - np.cumsum(E[..., :-1], axis=-1)
    return _rank_table(n, degree)[rest, np.arange(n - 2, -1, -1)].sum(axis=-1)


@functools.lru_cache(maxsize=64)
def _monomial_array(n_vars: int, degree: int) -> np.ndarray:
    """The read-only int64 table whose row r is the exponent vector of rank r: the inverse of
    :func:`monomial_rank`.  A rank sums, over the variables i but the last, i's rank-table column
    at s_i, the degree left after i; the column increases in s, and the terms after i sum to less
    than its step at s_i, so one ``searchsorted`` per variable finds every row's s_i."""
    count = monomial_count(n_vars, degree)
    table, left, s = _rank_table(n_vars, degree), np.arange(count), np.full(count, degree)
    E = np.empty((count, n_vars), dtype=np.int64)
    for i in range(n_vars - 1):
        column = table[:, n_vars - 2 - i]
        rest = np.searchsorted(column, left, side="right") - 1
        E[:, i], s = s - rest, rest
        left -= column[rest]
    E[:, -1] = s
    E.flags.writeable = False
    return E


@functools.lru_cache(maxsize=64)
def _times_z(n_vars: int, degree: int) -> np.ndarray:
    """Rank in degree + 1 of each degree-``degree`` monomial (row) times z_j (column j)."""
    E, unit = _monomial_array(n_vars, degree), np.eye(n_vars, dtype=np.int64)
    return np.stack([monomial_rank(E + unit[j], degree + 1) for j in range(n_vars)], axis=1)


@functools.lru_cache(maxsize=64)
def _gather(n_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions u * n_vars + j of :func:`_times_z`, sorted by the rank of u * z_j, and
    where each rank starts: ``reduceat`` over them sums the products that land on one monomial."""
    ranks = _times_z(n_vars, degree).ravel()
    return np.argsort(ranks, kind="stable"), np.searchsorted(np.sort(ranks), np.arange(ranks.max() + 1))


class HomogeneousPolynomial:
    """Immutable sparse homogeneous polynomial over a finite field."""

    __slots__ = ("field", "n_vars", "degree", "terms", "_arrays", "_dense")

    def __init__(self, field: Field, n_vars: int, degree: int, terms: dict[Monomial, int]):
        if n_vars < 1:
            raise InvalidInputError("need at least one variable")
        if degree < 0:
            raise InvalidInputError("degree must be non-negative")
        clean: dict[Monomial, int] = {}
        for mono, c in terms.items():
            if len(mono) != n_vars:
                raise InvalidInputError(f"exponent vector {mono} has wrong length")
            if any(e < 0 for e in mono):
                raise InvalidInputError(f"negative exponent in {mono}")
            if sum(mono) != degree:
                raise HomogeneityError(f"monomial {mono} has degree {sum(mono)}, expected {degree}")
            if c := field.read(c):  # a zero coefficient drops its checked term
                clean[mono] = c
        self.field = field
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean
        self._arrays, self._dense = None, None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, n_vars: int, degree: int, terms=None, arrays=None, dense=None):
        """A polynomial the library built, checked no further: exponent vectors of length n_vars and
        sum degree, nonzero coefficients in range(field.order).  Give the term map, the int64 view
        (E, c) of it, or only the view, which is then made read-only and the map read from it; and,
        if known, the row of ``dense()``, which is made read-only too."""
        f = object.__new__(cls)
        if terms is None:
            arrays[0].flags.writeable = arrays[1].flags.writeable = False
            terms = dict(zip(map(tuple, arrays[0].tolist()), arrays[1].tolist()))
        if dense is not None:
            dense.flags.writeable = False
        f.field, f.n_vars, f.degree, f.terms, f._arrays, f._dense = field, n_vars, degree, terms, arrays, dense
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

    def dense(self) -> np.ndarray:
        """The read-only int64 coefficient row over ``monomials_of_degree(n_vars, degree)``, the
        column order of :func:`monomial_rank`: built once from ``arrays()``, or kept as given."""
        if self._dense is None:
            E, c = self.arrays()
            row = np.zeros(monomial_count(self.n_vars, self.degree), dtype=np.int64)
            row[monomial_rank(E, self.degree)] = c
            row.flags.writeable = False
            self._dense = row
        return self._dense

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
        return self.scale(-1)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def scale(self, c: int) -> "HomogeneousPolynomial":
        """c * f, c read by :meth:`Field.read` as the constructor reads coefficients."""
        F, c = self.field, self.field.read(c)
        terms = {m: F.mul(v, c) for m, v in self.terms.items()} if c else {}
        return HomogeneousPolynomial._trusted(F, self.n_vars, self.degree, terms)

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._check_compatible(other)
        (E1, c1), (E2, c2) = self.arrays(), other.arrays()
        E = (E1[:, None] + E2[None]).reshape(-1, self.n_vars)
        c = self.field.mul_array(c1[:, None], c2[None]).ravel()
        return _merge(self.field, self.n_vars, self.degree + other.degree, E, c)

    def multiply_monomial(self, exps: Monomial, coeff: int = 1) -> "HomogeneousPolynomial":
        """f times coeff * z^exps, the monomial checked and its coefficient read as :meth:`monomial` does."""
        return self * HomogeneousPolynomial.monomial(self.field, self.n_vars, exps, coeff)

    # -- calculus ---------------------------------------------------------

    def partial_derivative(self, i: int) -> "HomogeneousPolynomial":
        """Formal partial derivative with respect to z_i, reduced mod p; a new polynomial per call."""
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
        """Coefficient rows of f_{z_0}, ..., f_{z_N}, one gather from ``dense()``: row j holds
        dense[rank of u + e_j] * ((u_j + 1) mod p) at the rank of each degree-(e - 1) monomial u."""
        n, F = self.n_vars, self.field
        if not self.degree:
            return np.zeros((n, 1), dtype=np.int64)
        row = self.dense()  # bounds f's own degree before the degree-(e - 1) tables
        U = _monomial_array(n, self.degree - 1)
        return F.mul_array(row[_times_z(n, self.degree - 1).T], (U.T + 1) % F.p)

    def gradient_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, C), C[k, j] the coefficient of the degree-(e-1) monomial E[k] in f_{z_j}: the nonzero
        columns of ``gradient_rows()``, in order, read from the view as c * (w_j mod p) at w - e_j
        for each term c * z^w, so that their size follows the terms, not the monomials; not cached."""
        F, (W, c) = self.field, self.arrays()
        term, var = np.nonzero(W % F.p)
        E = W[term] - np.eye(self.n_vars, dtype=np.int64)[var]
        order = np.lexsort(E.T[::-1])[::-1]
        E, term, var = E[order], term[order], var[order]
        new = np.ones(len(E), dtype=bool)
        new[1:] = (E[1:] != E[:-1]).any(axis=1)
        C = np.zeros((np.count_nonzero(new), self.n_vars), dtype=np.int64)
        C[np.cumsum(new) - 1, var] = F.mul_array(c[term], W[term, var] % F.p)
        return E[new], C

    def evaluate(self, coords, point_field: Field | None = None) -> int:
        """The value at a vector of coordinates over ``point_field`` (f's field by default): encodings in
        range(q), any int mod p over GF(p).  It may extend f's field when f's coefficients lie in GF(p)."""
        F = point_field if point_field is not None else self.field
        coords = self._checked(coords, F)
        if F != self.field and not self._prime_coefficients():
            raise FieldMismatchError(_NOT_EXTENSION)
        if F.m == 1:
            p, acc = F.p, 0
            for mono, t in self.terms.items():
                for a, e in zip(coords, mono):
                    if e:
                        if not a:
                            break
                        t = t * pow(a, e, p) % p
                else:
                    acc += t
            return acc % p
        # over GF(p^m), m > 1, c z^w at a is exp[log c + sum of w_i log a_i], each log read once
        exp, log, q1, acc = F._exp, F._log, F.order - 1, 0
        logs = _logs(F, coords)
        for mono, c in self.terms.items():
            L = log[c]
            for l, e in zip(logs, mono):
                if e:
                    if l is None:
                        break
                    L += e * l
            else:
                acc = F.add(acc, exp[L % q1])
        return acc

    def _gradient(self, coords, F: Field) -> list[int]:
        """[f_{z_0}(a), ..., f_{z_N}(a)] over F in one pass over the terms: c * z^w adds
        (w_j mod p) c a^(w - e_j) to entry j.  F extends f's field as for ``evaluate``, except
        that only the terms some partial keeps, those with a w_j not divisible by p, must have
        coefficients in GF(p): what evaluating each partial over F requires."""
        coords, p, foreign = self._checked(coords, F), F.p, F != self.field
        grad, prime = [0] * self.n_vars, F.m == 1
        if not prime:  # the term loop of evaluate, on logs
            exp, log, q1 = F._exp, F._log, F.order - 1
            logs = _logs(F, coords)
        for mono, c in self.terms.items():
            support = [(i, e) for i, e in enumerate(mono) if e]
            for j, w in support:
                if w % p:
                    if foreign and c >= p:
                        raise FieldMismatchError(_NOT_EXTENSION)
                    if prime:
                        t = c * w
                        for i, e in support:
                            e -= i == j
                            if e:
                                if not coords[i]:
                                    break
                                t = t * pow(coords[i], e, p) % p
                        else:
                            grad[j] += t
                        continue
                    L = log[c] + log[w % p]
                    for i, e in support:
                        e -= i == j
                        if e:
                            if logs[i] is None:
                                break
                            L += e * logs[i]
                    else:
                        grad[j] = F.add(grad[j], exp[L % q1])
        return [v % p for v in grad] if prime else grad

    def _checked(self, coords, F: Field) -> list[int]:
        """The coordinates as a list, once their count is right and F has f's characteristic."""
        coords = list(coords)
        if len(coords) != self.n_vars:
            raise InvalidInputError("coordinate vector has wrong length")
        if F.p != self.field.p:
            raise FieldMismatchError(_NOT_EXTENSION)
        return coords

    def _prime_coefficients(self) -> bool:
        """Whether every coefficient lies in the prime subfield: at once over GF(p)."""
        return self.field.m == 1 or all(c < self.field.p for c in self.terms.values())

    def euler_identity_check(self) -> bool:
        """Whether sum_j z_j * f_{z_j} equals (e mod p) * f.  Always true."""
        n, unit = self.n_vars, np.eye(self.n_vars, dtype=np.int64)
        Es, cs = zip(*(self.partial_derivative(j).arrays() for j in range(n)))
        E = np.concatenate([E + unit[j] for j, E in enumerate(Es)])
        lhs = _merge(self.field, n, self.degree, E, np.concatenate(cs))
        return lhs == self.scale(self.degree % self.field.p)

    # -- coordinate changes ----------------------------------------------

    def lift_to(self, field: Field) -> "HomogeneousPolynomial":
        """Reinterpret over an extension field (prime-subfield coefficients)."""
        if field == self.field:
            return self
        if field.p != self.field.p or not self._prime_coefficients():
            raise FieldMismatchError("can only lift prime-subfield coefficients")
        return HomogeneousPolynomial._trusted(
            field, self.n_vars, self.degree, dict(self.terms), self._arrays, self._dense
        )

    def linear_change(self, matrix) -> "HomogeneousPolynomial":
        """Substitute z_i <- sum_j M[i][j] z_j for an invertible matrix M.

        M is given as rows of integer-encoded entries of the polynomial's
        field; an entry outside range(field.order) is rejected, not reduced.
        A :class:`_Change` of this ring counts as checked.
        """
        F, n = self.field, self.n_vars
        if not (isinstance(matrix, _Change) and matrix.field == F and len(matrix) == n):
            matrix = _Change(F, n, matrix)
        return HomogeneousPolynomial._trusted(F, n, self.degree, arrays=_expand(self, matrix.times))

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<{self.field} poly deg {self.degree}: {format_poly(self)}>"


def _logs(F: Field, coords: list[int]) -> list[int | None]:
    """log a over GF(p^m), m > 1, for each coordinate a, None for 0; InvalidInputError for one outside
    range(q), by the table's IndexError: a negative a is looked up at a - q, below the table's first index."""
    log, q = F._log, F.order
    try:
        return [log[a] if a > 0 else None if a == 0 else log[a - q] for a in coords]
    except IndexError:
        raise InvalidInputError(f"coordinate vector has an entry outside {F} (range({q}))") from None


def _check_expansion(f: HomogeneousPolynomial) -> None:
    """BudgetExceededError if the rows of f's expansion would hold too many monomials; a zero or
    constant f is not expanded."""
    if f.degree and not f.is_zero():
        monomial_count(f.n_vars, f.degree)


class _Change(list):
    """The rows of M in z_i <- sum_j M[i][j] z_j for n variables over F: n rows of n entries in
    range(F.order), invertible, checked once unless the library built them so (:meth:`_trusted`).
    ``times`` is the float64 (n m x n m) GF(p) matrix that :func:`_expand` multiplies by,
    [(i, r), (j, s)] digit s of M[i][j] * t^r."""

    __slots__ = ("field", "times")

    def __init__(self, F: Field, n: int, matrix):
        super().__init__(list(r) for r in matrix)
        if len(self) != n or any(len(r) != n for r in self):
            raise InvalidInputError("matrix has wrong shape")
        for i, row in enumerate(self):
            for j, c in enumerate(row):
                if not isinstance(c, int) or not 0 <= c < F.order:
                    raise InvalidInputError(
                        f"matrix entry [{i}][{j}] = {c!r} is not an element of {F} "
                        f"(an integer in range({F.order}))"
                    )
        if len(rref(F, self, n)[1]) < n:
            raise InvalidInputError("matrix is singular")
        self._set_times(F)

    @classmethod
    def _trusted(cls, F: Field, rows: list[list[int]]) -> "_Change":
        """The change of rows the library built right by construction, checked no further."""
        change = cls.__new__(cls)
        change.extend(rows)
        change._set_times(F)
        return change

    def _set_times(self, F: Field) -> None:
        n, times = len(self), F.mul_matrices(np.array(self, dtype=np.int64)).transpose(0, 2, 1, 3)
        self.field, self.times = F, times.reshape(n * F.m, n * F.m).astype(np.float64)


def _expand(f: HomogeneousPolynomial, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The view (E, c) of f(L_0, ..., L_N), L_i = sum_j M[i][j] z_j, by Horner's scheme level-wise;
    ``times`` is the float64 GF(p) matrix of the change, [(i, r), (j, s)] digit s of M[i][j] * t^r.

    A term c * z_(s_1) ... z_(s_e), s_1 <= ... <= s_e, lies below the level-k node P = (s_1, ..., s_k),
    which holds the row over the degree-(e - k) monomials of W(P), the sum of c * L_(s_(k+1)) ...
    L_(s_e) over the terms below P; W(()) = f(L).  As W(P) = sum_i L_i * W(P + (i,)), a level step
    places each node's row, as m base-p digits per monomial, in its parent's block at its last
    variable i, multiplies every parent's (monomials x n m) block by ``times`` in one BLAS
    product, and adds the products at u, z_j into the column of u * z_j by one gather and
    ``reduceat``: the rows come mod p once per level.  float64 is exact: a level sum adds at most
    e products at u, z_j of n m terms below p^2, and while e n m p^2 >= 2^53 the product takes
    ``times`` in row groups, each added to the residue mod p of the groups before it.
    """
    _check_expansion(f)  # the last level's rows, checked before the first level runs
    F, (E, c), e = f.field, f.arrays(), f.degree
    if not len(c) or e == 0:
        return E, c
    n, m, p = f.n_vars, F.m, F.p
    group = ((1 << 53) // e - p) // (p - 1) ** 2  # rows of times per exact partial sum
    # each term's variables, ascending; sorting them puts equal prefixes side by side
    seq = np.repeat(np.tile(np.arange(n), len(c)), E.ravel()).reshape(-1, e)
    order = np.lexsort(seq.T[::-1])
    seq, coeffs = seq[order], c[order]
    first = np.ones((len(seq), e + 1), dtype=bool)  # first[t, k]: term t starts its level-k node
    first[1:, 1:], first[1:, 0] = np.logical_or.accumulate(seq[1:] != seq[:-1], axis=1), False
    W = F.to_digits(coeffs)[:, None, :].astype(np.float64)  # [node, monomial, digit]
    for k in range(e, 0, -1):
        nodes = np.flatnonzero(first[:, k])
        parent = np.cumsum(first[nodes, k - 1]) - 1
        S = np.zeros((parent[-1] + 1, W.shape[1], n, m))  # [parent, monomial, variable, digit]
        S[parent, :, seq[nodes, k - 1], :] = W
        Y = 0.0
        for g in range(0, n * m, group):  # one product unless e n m p^2 >= 2^53
            Y = _mod(Y, p) + S.reshape(-1, n * m)[:, g : g + group] @ times[g : g + group]
        perm, starts = _gather(n, e - k)
        W = _mod(np.add.reduceat(Y.reshape(parent[-1] + 1, -1, m)[:, perm], starts, axis=1), p)
    coeffs = (W[0] @ F.place).astype(np.int64)
    nz = np.flatnonzero(coeffs)
    return _monomial_array(n, e)[nz], coeffs[nz]


def _merge(F: Field, n_vars: int, degree: int, E: np.ndarray, c: np.ndarray) -> HomogeneousPolynomial:
    """The sum of the terms c[i] * z^E[i], all of degree ``degree``: rows sorted descending, equal ones
    added digit by digit mod p (one digit over GF(p)), zero sums dropped."""
    order = np.lexsort(E.T[::-1])[::-1]
    E, c = E[order], c[order]
    starts = np.flatnonzero(np.diff(E, axis=0, prepend=-1).any(axis=1))
    sums = np.add.reduceat(F.to_digits(c), starts) % F.p @ F.place
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


def parse_poly(text: str, field: Field, n_vars: int) -> HomogeneousPolynomial:
    """Parse a polynomial in z0, ..., z(n_vars - 1) written in the grammar of
    :func:`strangeci.gf.text_terms` with symbol ``z``, which takes an index here.

    Every term has one degree.  Integer factors are reduced mod p, a parenthesized factor
    is a coefficient in the element text form of ``field``, and '-' multiplies by p - 1.
    """
    if n_vars < 1:
        raise InvalidInputError("need at least one variable")
    F, monos, coeffs = field, [], []
    for sign, factors in text_terms(text, "z"):
        coeff, exps = sign % F.p, [0] * n_vars
        for f in factors:
            if isinstance(f, int):
                coeff = F.mul(coeff, f % F.p)
            elif isinstance(f, str):
                coeff = F.mul(coeff, F.parse(f))
            elif f[0] is None:
                raise ParseError(f"variable without an index in {text!r}")
            elif f[0] >= n_vars:
                raise InvalidInputError(f"variable z{f[0]} out of range for {n_vars} variables")
            else:
                exps[f[0]] += f[1]
        if monos and sum(exps) != sum(monos[0]):
            raise HomogeneityError(f"term {len(monos) + 1} of {text!r} is not of degree {sum(monos[0])}")
        monos.append(exps)
        coeffs.append(coeff)
    return _merge(F, n_vars, sum(monos[0]), np.array(monos, dtype=np.int64), np.array(coeffs, dtype=np.int64))


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
