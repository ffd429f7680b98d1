"""Pointwise projective geometry over finite fields.

Projective points, Jacobian matrices, tangent spaces, the Gauss map, the
Jacobian singularity criterion, and exhaustive singular-point search over
bounded field extensions.

The search enumerates normalized projective representatives (first nonzero
coordinate 1) over GF(p^m) for m = 1..m_max, in blocks of 2^16 points.  The
generators have GF(p) coefficients, so Frobenius maps the singular locus to
itself.  Over GF(p^m), m > 1, the coordinate after the pivot therefore runs
only over the least element of each orbit of x -> x^p: that keeps the least
conjugate of every point, and first among its conjugates.  The budget is
charged each level's whole grid before the level is enumerated.  A level whose
point count, counted from q and the number of orbit representatives, times the
monomials of the largest degree is at most 2^16 takes cached tables, one per
field, N+1 and degree e: the base-p digits of every degree-e monomial at every
point of the level, in the digit table's dtype.  A generator's values there
are one product of each digit plane with its dense coefficient column, and its
Jacobian rows at the zeros the degree-(e-1) table's rows times its gradient
rows.  Larger levels stack later generators and gradient rows when the first of
them runs.  A block evaluator computes polynomials at once from exponent and
coefficient matrices through the field's discrete-log tables, one float64 path
for every field, its log and digit products in BLAS and exact below 2^53.  On
a grid of at least 2^10 points and 16 times the tail grid, the first generator
f splits at a tail t, the last w = 2 coordinates (w = 1 when q^2 > 2^14), and
a head h in P^(N-w): f(h, t) is the sum over tail exponents tau of t^tau
g_tau(h), and multiplying by g_tau(h) is the m x m matrix over GF(p) whose
column j holds the digits of g_tau(h) x^j.  So f's digits on a chunk of heads
times all tails are one product P = (heads*m x tau*m) @ (tau*m x tails), zero
mod p where P == p rint(P/p).  Each entry of P is at most b = the number of
tail exponents times m(p-1)^2; the product runs in float32, exact for b <
2^22, and else in float64, exact for b < 2^51.  Other grids, zero heads, later
generators and the Jacobians at the survivors take the block evaluator.  On
both paths each generator's Jacobian rows are its ``gradient_rows()``; the
block path takes them as its ``gradient_stack()``, their nonzero entries read
from its terms, so its stacks grow with the terms, not the monomials.
:mod:`strangeci.hompoly` forms every derivative, stacks and gradients at a
point included; this module only evaluates them.  A batched Gaussian
elimination tests the Jacobian ranks.  Points come at their minimal field,
one per Galois orbit.
"""

from __future__ import annotations

import functools
import os
import re
from math import comb

import numpy as np

from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    InvalidInputError,
    ParseError,
    SingularPointError,
)
from .exactla import MatrixOverField, in_span, rank, reduced_kernel, rref
from .gf import Field, _mod, make_field
from .hompoly import HomogeneousPolynomial, _Change, _monomial_array, format_poly, parse_poly

DEFAULT_BUDGET = 100_000_000


def point_budget() -> int:
    """Point-evaluation budget; STRANGECI_BUDGET overrides the default."""
    raw = os.environ.get("STRANGECI_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise InvalidInputError(f"STRANGECI_BUDGET is not an integer: {raw!r}")
    return DEFAULT_BUDGET


class ProjectivePoint:
    """A point of P^N over GF(p^m), canonically normalized.

    Coordinates, read by :meth:`Field.read`, are kept as encodings scaled so
    that the first nonzero coordinate equals 1.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        vals = field.encode(coords)
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is None:
            raise InvalidInputError("projective point needs a nonzero coordinate")
        if vals[pivot] != 1:
            inv = field.inv(vals[pivot])
            vals = [field.mul(v, inv) for v in vals]
        self.field = field
        self.coords = tuple(vals)

    @classmethod
    def _trusted(cls, field: Field, coords: tuple[int, ...]) -> "ProjectivePoint":
        """A point the library built, checked no further: a tuple of Python int encodings in
        range(field.order), the first nonzero one 1, kept as given."""
        pt = object.__new__(cls)
        pt.field, pt.coords = field, coords
        return pt

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def minimal_subfield_degree(self) -> int:
        """Smallest d with all coordinates fixed by the d-fold Frobenius."""
        return len(_orbit(self.field, self.coords))

    def galois_canonical(self) -> "ProjectivePoint":
        """Least Frobenius-orbit representative in enumeration order."""
        return ProjectivePoint(self.field, min(_orbit(self.field, self.coords)))

    def __str__(self) -> str:
        body = ":".join(self.field.format(c) for c in self.coords)
        if self.field.m > 1:
            return f"@GF({self.field.p}^{self.field.m})({body})"
        return f"({body})"

    __repr__ = __str__


def _orbit(F: Field, coords: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct Frobenius conjugates of coords, coords first: Frobenius^m is the identity
    on GF(p^m), so the walk comes back to coords within m steps.  Frobenius fixes 0 and 1, so
    the conjugates of a normalized point are normalized.  Over GF(p) Frobenius is the identity:
    the orbit is [coords], with no walk."""
    if F.m == 1:
        return [coords]
    orbit = [coords]
    while (nxt := tuple(F.frobenius(c) for c in orbit[-1])) != coords:
        orbit.append(nxt)
    return orbit


# p and m: at most nine ASCII digits each, as more exceed MAX_ORDER anyway
_FIELD_PREFIX = re.compile(r"@GF\(\s*([0-9]{1,9})\s*(?:\^\s*([0-9]{1,9})\s*)?\)(.*)")


def parse_point(text: str, default_field: Field) -> ProjectivePoint:
    """Parse ``(c0:c1:...:cN)``, optionally prefixed ``@GF(p^m)`` or ``@GF(p)``."""
    s = text.strip()
    fld = default_field
    if s.startswith("@"):
        match = _FIELD_PREFIX.fullmatch(s)
        if match is None:
            raise ParseError(f"bad field prefix in point {text!r}: expected @GF(p^m) or @GF(p)")
        fld = make_field(int(match[1]), int(match[2] or 1))
        s = match[3].strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise InvalidInputError(f"bad point syntax: {text!r}")
    parts = s[1:-1].split(":")
    return ProjectivePoint(fld, [fld.parse(part) for part in parts])


class PolynomialSystem:
    """Ordered generators (f^1, ..., f^r) of degrees (e^1, ..., e^r) in P^N.

    Generators have prime-field coefficients; evaluation points may live in
    any extension GF(p^m).
    """

    __slots__ = ("field", "n", "r", "degrees", "gens")

    def __init__(self, gens: list[HomogeneousPolynomial]):
        if not gens:
            raise InvalidInputError("a system needs at least one generator")
        field = gens[0].field
        n_vars = gens[0].n_vars
        for g in gens:
            if g.field != field or g.n_vars != n_vars:
                raise FieldMismatchError("generators live in different rings")
            if g.is_zero():
                raise InvalidInputError("zero generator rejected")
            if g.degree < 1:
                raise InvalidInputError("generator degrees must be >= 1")
        if len(gens) > n_vars - 1:
            raise InvalidInputError(f"too many generators: r={len(gens)} > N={n_vars - 1}")
        self.field = field
        self.n = n_vars - 1
        self.r = len(gens)
        self.degrees = tuple(g.degree for g in gens)
        self.gens = tuple(gens)

    @classmethod
    def parse(cls, texts: list[str], field: Field, n_vars: int) -> "PolynomialSystem":
        return cls([parse_poly(t, field, n_vars) for t in texts])

    def linear_change(self, matrix) -> "PolynomialSystem":
        """Every generator under z_i <- sum_j M[i][j] z_j, M checked once for all of them."""
        change = _Change(self.field, self.n + 1, matrix)
        return PolynomialSystem([g.linear_change(change) for g in self.gens])

    def on_zero_set(self, a: ProjectivePoint) -> bool:
        """Whether every generator vanishes at a; stops at the first that does not."""
        return all(g.evaluate(a.coords, a.field) == 0 for g in self.gens)

    def __str__(self) -> str:
        return "; ".join(format_poly(g) for g in self.gens)

    __repr__ = __str__


class LinearSubspace:
    """A vector subspace of K^(N+1), spanned by rows read by :meth:`Field.read`
    and kept as basis rows in reduced echelon form."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis):
        rows = [field.encode(r) for r in basis]
        if any(len(r) != ambient_dim for r in rows):
            raise InvalidInputError("basis vector length mismatch")
        R, pivots = rref(field, rows, ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in R[: len(pivots)])

    @classmethod
    def _reduced(cls, field: Field, ambient_dim: int, basis: list[list[int]]) -> "LinearSubspace":
        """The span of rows already in reduced echelon form, such as the kernel basis of
        :func:`~strangeci.exactla.reduced_kernel`, kept as given."""
        V = object.__new__(cls)
        V.field, V.ambient_dim, V.basis = field, ambient_dim, tuple(map(tuple, basis))
        return V

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise InvalidInputError("vector length mismatch")
        return in_span(self.field, vec, self.basis)[0]

    def contains_point(self, a: ProjectivePoint) -> bool:
        if a.field != self.field:
            raise FieldMismatchError("point and subspace over different fields")
        return self.contains(list(a.coords))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSubspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"<subspace dim {self.dim} of K^{self.ambient_dim} over {self.field}>"


# -- Jacobians ------------------------------------------------------------


def jacobian_full(S: PolynomialSystem, a: ProjectivePoint) -> MatrixOverField:
    """The r x (N+1) matrix [f^k_{z_j}(a)], j = 0..N."""
    F = a.field
    return MatrixOverField._trusted(F, [g._gradient(a.coords, F) for g in S.gens], S.n + 1)


def tangent_space(S: PolynomialSystem, x: ProjectivePoint) -> LinearSubspace:
    """Embedded tangent space at a smooth point, as the kernel of the Jacobian."""
    if not S.on_zero_set(x):
        raise InvalidInputError("point does not lie on the zero set")
    J = jacobian_full(S, x)
    rk, kernel = reduced_kernel(J.field, J.rows, J.ncols)
    if rk < S.r:
        raise SingularPointError(f"Jacobian rank {rk} < r = {S.r} at {x}")
    return LinearSubspace._reduced(x.field, S.n + 1, kernel)


def gauss_map(f: HomogeneousPolynomial, a: ProjectivePoint) -> ProjectivePoint:
    """Dual point of the tangent hyperplane of the hypersurface (f=0) at a."""
    F = a.field
    if f.evaluate(a.coords, F) != 0:
        raise InvalidInputError("point does not lie on the hypersurface")
    grad = f._gradient(a.coords, F)
    if all(v == 0 for v in grad):
        raise SingularPointError(f"all partials vanish at {a}")
    return ProjectivePoint(F, grad)


def is_singular_at(S: PolynomialSystem, a: ProjectivePoint) -> bool:
    """Jacobian criterion: on the zero set with full Jacobian rank < r."""
    if not S.on_zero_set(a):
        return False
    return rank(jacobian_full(S, a)) < S.r


# -- singular-point search ------------------------------------------------

_BLOCK = 1 << 16  # points a search block holds, and monomial values a block evaluator holds, at once


@functools.lru_cache(maxsize=8)
def _float_log(F: Field, zero_log: int) -> np.ndarray:
    """F's log table as read-only float64, with log[0] set to zero_log."""
    log = F.array_tables()[1].astype(np.float64)
    log[0] = zero_log
    log.flags.writeable = False
    return log


def _log_index(X: np.ndarray, log: np.ndarray, ET: np.ndarray, zero_log: int, q1: int) -> np.ndarray:
    """Where each monomial (column of the float64 exponents ET) at each point (row of X) lies in
    the digit tables: L = log[X] @ ET mod q1, or q1, the entry of zero, when L >= zero_log."""
    L = log[X] @ ET
    idx = _mod(L, q1)
    idx[L >= zero_log] = q1
    return idx.astype(np.intp)


def _stack(polys: list[HomogeneousPolynomial]) -> tuple[np.ndarray, np.ndarray]:
    """(E, C): E (T x n_vars) stacks the exponent rows of every polynomial's view, and
    column k of C (T x len(polys)) holds polynomial k's coefficients in its own rows."""
    Es, cs = zip(*(f.arrays() for f in polys))
    owner = np.repeat(np.eye(len(polys), dtype=np.int64), [len(c) for c in cs], axis=0)
    return np.concatenate(Es), owner * np.concatenate(cs)[:, None]


class _BlockEvaluator:
    """Evaluates polynomials with prime-field coefficients at blocks of points.

    The polynomials are given as the pair (E, C) of :func:`_stack`, or as any
    such pair.  Every field takes one float64 path, through its discrete-log
    tables: the monomial with logs L = log[coords] @ E.T has digit d equal
    to digits[d][L mod (q-1)], and log[0] is set above any sum of logs of
    nonzero values, so a larger L marks a vanishing monomial.  Coefficients
    in GF(p) act on each base-p digit separately, so digit d of the values
    is (digit_d(monomials) @ C) mod p: gathered from the uint8 (or wider)
    digit table, multiplied by a float64 C in BLAS, exact while T (p-1)^2 <
    2^53 for T terms.  Points are taken in row chunks of at most _BLOCK
    monomials.
    """

    def __init__(self, EC: tuple[np.ndarray, np.ndarray], F: Field):
        (E, C), self.F = EC, F
        self.rows = max(1, _BLOCK // max(len(E), 1))
        self.digits = F.array_tables()[2]
        self.zero_log = int(E.sum(axis=1).max(initial=0)) * (F.order - 2) + 1
        # float64 so that both products run in BLAS; every sum of logs is below 2^53
        self.log = _float_log(F, self.zero_log)
        self.ET = E.T.astype(np.float64)
        self.C = C.astype(np.float64)
        # Once T (p-1)^2 reaches 2^53 (T >= 8 192 near p = 2^20), the terms go in
        # groups of G, each added to the residue mod p of the groups before it, so
        # every sum stays under 2^53: one float kernel for every T, where keeping
        # the int64 product would be a second kernel with a 2^63 bound of its own.
        self.group = ((1 << 53) - F.p) // (F.p - 1) ** 2

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Values at the points X (k x n_vars), shape (k, len(polys))."""
        p, q1, G = self.F.p, self.F.order - 1, self.group
        out = np.zeros((X.shape[0], self.C.shape[1]))
        for s in range(0, X.shape[0], self.rows):
            idx = _log_index(X[s : s + self.rows], self.log, self.ET, self.zero_log, q1)
            for d, table in enumerate(self.digits):
                V = table[idx[:, :G]] @ self.C[:G]
                for g in range(G, len(self.C), G):
                    V = _mod(V, p) + table[idx[:, g : g + G]] @ self.C[g : g + G]
                out[s : s + self.rows] += _mod(V, p) * p**d
        return out.astype(np.int64)


def _rank_below(J: np.ndarray, r: int, F: Field) -> np.ndarray:
    """Mask of the points k whose r x (N+1) Jacobian J[k] has rank < r.

    For r >= 2 this is fraction-free Gaussian elimination batched over the
    points: each point takes the first nonzero entry of row i as its own
    pivot and clears that column from the rows below (a zero row clears
    nothing).  The rank is the number of rows left nonzero; the last row,
    with no row below it, is only counted.
    """
    if r == 1:
        return ~J.any(axis=(1, 2))
    A = J.copy()
    at = np.arange(A.shape[0])
    rank = np.zeros(A.shape[0], dtype=np.int64)
    for i in range(r - 1):
        row = A[:, i, :]
        has = row.any(axis=1)
        rank += has
        col = np.argmax(row != 0, axis=1)
        piv = np.where(has, row[at, col], 1)[:, None]
        for j in range(i + 1, r):
            minus = F.mul_array(A[at, j, col], F.p - 1)[:, None]  # -J[j, col]; p-1 encodes -1
            A[:, j, :] = F.add_array(F.mul_array(A[:, j, :], piv), F.mul_array(row, minus))
    return rank + A[:, r - 1, :].any(axis=1) < r


def _point_blocks(q: int, n_plus_1: int, block: int = _BLOCK, reps: np.ndarray | None = None):
    """Yield blocks of normalized projective representatives over GF(q).

    For pivot position i the coordinates are (0,...,0,1,*,...,*) with the
    free tail enumerated in odometer order, last coordinate fastest.  With
    ``reps``, an increasing array of encodings, the coordinate after the
    pivot runs over reps alone.  Consecutive pivots share a block, so every
    block but the last holds ``block`` points.
    """
    parts: list[np.ndarray] = []
    filled = 0
    for pivot in range(n_plus_1):
        free = n_plus_1 - 1 - pivot
        total = q**free if reps is None or not free else len(reps) * q ** (free - 1)
        start = 0
        while start < total:
            count = min(block - filled, total - start)
            idx = np.arange(start, start + count, dtype=np.int64)
            coords = np.zeros((count, n_plus_1), dtype=np.int64)
            coords[:, pivot] = 1
            rem = idx
            for j in range(n_plus_1 - 1, pivot + 1, -1):
                coords[:, j] = rem % q
                rem = rem // q
            if free:
                coords[:, pivot + 1] = rem if reps is None else reps[rem]
            parts.append(coords)
            filled += count
            start += count
            if filled == block:
                yield parts[0] if len(parts) == 1 else np.concatenate(parts)
                parts, filled = [], 0
    if parts:
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_zeros(f: HomogeneousPolynomial, F: Field, n_plus_1: int, reps: np.ndarray | None = None):
    """Yield the zeros of f among the points of ``_point_blocks(q, n_plus_1, reps=reps)``,
    in enumeration order, by the head x tail product of the module docstring where it applies."""
    q, p, m = F.order, F.p, F.m
    w = 2 if 4 * q * q <= _BLOCK else 1  # a wider tail grid costs more to set up than it saves
    E, c = f.arrays()
    rest, bound = _point_blocks(q, n_plus_1, reps=reps), 1 << 51  # the block path unless split
    if q**w <= _BLOCK and max(1 << 10, 16 * q**w) <= (q**n_plus_1 - 1) // (q - 1):
        taus, tau_of = np.unique(E[:, n_plus_1 - w :], axis=0, return_inverse=True)
        bound = len(taus) * m * (p - 1) ** 2  # an entry of P sums len(taus) m products of two digits
    if bound < 1 << 51:
        real = np.float32 if bound < 1 << 22 else np.float64  # exact below 2^22 and 2^51
        heads = _BlockEvaluator((E[:, : n_plus_1 - w], np.eye(len(taus), dtype=np.int64)[tau_of] * c[:, None]), F)
        tails = np.indices((q,) * w).reshape(w, -1).T  # odometer, last coordinate fastest
        # after the head (0,...,0,1) comes the tail's first coordinate, restricted to reps
        after_last = np.isin(tails[:, 0], np.arange(q) if reps is None else reps)
        T = _BlockEvaluator((taus, np.eye(len(taus), dtype=np.int64)), F)(tails)
        B = (T.T[:, None] // F.place[:, None] % p).reshape(-1, len(tails)).astype(real)
        buffers = np.empty((2, _BLOCK // len(tails) * m, len(tails)), real)  # fresh ones cost page faults
        for H in _point_blocks(q, n_plus_1 - w, _BLOCK // len(tails), reps):
            G = F.mul_array(heads(H)[:, :, None], F.place)  # g_tau(h) x^j, axes (head, tau, j)
            A = (G[:, None] // F.place[:, None, None] % p).reshape(len(H) * m, -1)  # rows (head, digit)
            P, R = buffers[:, : len(A)]
            np.matmul(A.astype(real), B, out=P)
            np.multiply(np.rint(np.multiply(P, real(1 / p), out=R), out=R), p, out=R)
            zero = (R == P).reshape(len(H), m, -1).all(axis=1)
            zero[~H[:, :-1].any(axis=1)] &= after_last
            h, t = np.divmod(np.flatnonzero(zero), len(tails))  # head-major, tail fastest
            yield np.concatenate([H[h], tails[t]], axis=1)
        rest = (np.pad(X, ((0, 0), (n_plus_1 - w, 0))) for X in _point_blocks(q, w, reps=reps))  # zero heads
    ev = _BlockEvaluator((E, c[:, None]), F)
    for coords in rest:
        yield coords[ev(coords)[:, 0] == 0]


@functools.lru_cache(maxsize=16)
def _grid(F: Field, n_plus_1: int) -> np.ndarray:
    """The points a search level enumerates over F, as one read-only array in the order of
    ``_point_blocks``: every point over GF(p), the Frobenius-restricted grid over GF(p^m), m > 1."""
    reps = F.frobenius_representatives() if F.m > 1 else None
    X = np.concatenate(list(_point_blocks(F.order, n_plus_1, reps=reps)))
    X.flags.writeable = False
    return X


@functools.lru_cache(maxsize=64)
def _table(F: Field, n_plus_1: int, e: int) -> np.ndarray:
    """D[d, i, k], digit d of the k-th monomial of ``monomials_of_degree(n_plus_1, e)`` at point i
    of ``_grid(F, n_plus_1)``: read-only, in the dtype of F's digit table, gathered whole from it
    as :class:`_BlockEvaluator` gathers: singular_search asks only for tables of <= _BLOCK entries."""
    X, E, digits = _grid(F, n_plus_1), _monomial_array(n_plus_1, e), F.array_tables()[2]
    zero_log = e * (F.order - 2) + 1
    idx = _log_index(X, _float_log(F, zero_log), E.T.astype(np.float64), zero_log, F.order - 1)
    D = np.stack([table[idx] for table in digits])
    D.flags.writeable = False
    return D


def _table_level(gens: list[HomogeneousPolynomial], F: Field, n_plus_1: int):
    """The points of ``_grid(F, n_plus_1)`` where every generator vanishes, and their r x (N+1)
    Jacobians: a generator's values are its degree table times its ``dense()`` row, its
    Jacobian rows the degree-(e-1) table's rows at the zeros times its transposed gradient rows.
    GF(p) coefficients act on each base-p digit alone; the digit planes are multiplied one at a
    time, so no int64 copy of a whole table is made."""
    p, X = F.p, _grid(F, n_plus_1)

    def times(D: np.ndarray, C: np.ndarray) -> np.ndarray:
        out = D[0] @ C % p
        for d in range(1, len(D)):
            out += D[d] @ C % p * p**d
        return out

    zero = np.ones(len(X), dtype=bool)
    for g in gens:
        zero &= times(_table(F, n_plus_1, g.degree), g.dense()) == 0
    at = np.flatnonzero(zero)
    J = np.empty((len(at), len(gens), n_plus_1), dtype=np.int64)
    for k, g in enumerate(gens):
        J[:, k] = times(_table(F, n_plus_1, g.degree - 1)[:, at], g.gradient_rows().T)
    return X[at], J


def _block_level(
    gens: list[HomogeneousPolynomial], later: list, gradients: list, F: Field, n_plus_1: int, reps: np.ndarray | None
):
    """Yield, block by block, the zeros of every generator among the points of
    ``_point_blocks(q, n_plus_1, reps=reps)`` and their Jacobians: the first generator's zeros
    from :func:`_first_zeros`, the later generators by block evaluators of the stacks ``later``,
    and row k of each Jacobian by generator k's ``gradient_stack()`` in ``gradients``."""
    later_gens = [_BlockEvaluator(EC, F) for EC in later]
    jacobian = [_BlockEvaluator(EC, F) for EC in gradients]
    for pts in _first_zeros(gens[0], F, n_plus_1, reps):
        for ev in later_gens:
            pts = pts[ev(pts)[:, 0] == 0]
        yield pts, np.stack([ev(pts) for ev in jacobian], axis=1)


def singular_search(
    S: PolynomialSystem,
    m_max: int = 3,
    budget: int | None = None,
    stop_early: bool = False,
) -> list[tuple[int, ProjectivePoint]]:
    """All singular points rational over GF(p^m), m = 1..m_max.

    Each point is reported once, at its minimal field of definition, with
    Galois-conjugate orbits collapsed to the representative least in
    enumeration order; over GF(p^m), m > 1, only the points whose coordinate
    after the pivot is a Frobenius-orbit representative are enumerated.  The
    budget counts whole grids, (q^(N+1) - 1)/(q - 1) points at q = p^m, each
    charged before its level is enumerated; a level that does not fit raises
    BudgetExceededError with the results of the levels before it.  With
    ``stop_early`` the scan stops after the first extension degree that
    yields any point.
    """
    if m_max < 1:
        raise InvalidInputError("m_max must be >= 1")
    if budget is None:
        budget = point_budget()
    p = S.field.p
    n1 = S.n + 1
    gens = [g.lift_to(make_field(p)) for g in S.gens]  # coefficients must lie in GF(p)
    cells = comb(max(S.degrees) + S.n, S.n)  # the monomials of the largest degree, a table's columns
    stacks = None  # the block path's later generators and gradients, stacked for its first level
    found: list[tuple[int, ProjectivePoint]] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    used = 0
    for m in range(1, m_max + 1):
        F = make_field(p, m)
        grid = (F.order**n1 - 1) // (F.order - 1)
        if used + grid > budget:
            msg = f"point budget {budget} exhausted at extension degree {m}"
            raise BudgetExceededError(msg, partial=found, completed_m=m - 1, used=used)
        used += grid
        reps = F.frobenius_representatives() if m > 1 else None
        # the points _point_blocks enumerates, counted without enumerating them
        count = 1 + (F.order if reps is None else len(reps)) * (F.order**S.n - 1) // (F.order - 1)
        if count * cells <= _BLOCK:
            blocks = [_table_level(gens, F, n1)]
        else:
            if stacks is None:
                stacks = [_stack([g]) for g in gens[1:]], [g.gradient_stack() for g in gens]
            blocks = _block_level(gens, *stacks, F, n1, reps)
        for pts, J in blocks:
            for row in pts[_rank_below(J, S.r, F)].tolist():  # normalized, as the enumeration makes them
                orbit = _orbit(F, tuple(row))
                key = (m, min(orbit))  # the same coordinates over two fields are two points
                if len(orbit) == m and key not in seen:  # a shorter orbit was reported over a smaller field
                    seen.add(key)
                    found.append((m, ProjectivePoint._trusted(F, key[1])))
        if stop_early and found:
            break
    return found


def enumerate_points(field: Field, n: int):
    """All points of P^n(GF(q)) in deterministic enumeration order."""
    for coords in _point_blocks(field.order, n + 1):
        for row in coords:
            yield ProjectivePoint(field, [int(v) for v in row])
