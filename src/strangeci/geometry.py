"""Pointwise projective geometry over finite fields.

Projective points, Jacobian matrices, tangent spaces, the Gauss map, the
Jacobian singularity criterion, and exhaustive singular-point search over
bounded field extensions.

The search enumerates normalized projective representatives (first nonzero
coordinate 1) over GF(p^m) for m = 1..m_max, in numpy blocks of points.
Both stages are vectorized over a block.  A block evaluator computes a
list of polynomials at once from exponent and coefficient matrices, through
the field's discrete-log tables, in one path for GF(p) and GF(p^m) alike.
The zero-set filter evaluates each generator on the points the previous
generators left; one evaluator for all r(N+1) partial derivatives gives the
survivors' r x (N+1) Jacobians, and their rank is tested by Gaussian
elimination batched over the survivors.  Found points are reported at their
minimal field of definition, Galois orbits collapsed to the representative
least in enumeration order.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    InvalidInputError,
    ParseError,
    SingularPointError,
)
from .exactla import MatrixOverField, rank, rank_and_kernel, rref
from .gf import Field, FieldElement, make_field
from .hompoly import HomogeneousPolynomial, format_poly, parse_poly

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

    Coordinates are integer-encoded field elements scaled so that the
    first nonzero coordinate equals 1.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        vals = [c.val if isinstance(c, FieldElement) else int(c) % field.order for c in coords]
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is None:
            raise InvalidInputError("projective point needs a nonzero coordinate")
        if vals[pivot] != 1:
            inv = field.inv(vals[pivot])
            vals = [field.mul(v, inv) for v in vals]
        self.field = field
        self.coords = tuple(vals)

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

    def frobenius(self) -> "ProjectivePoint":
        F = self.field
        return ProjectivePoint(F, [F.frobenius(c) for c in self.coords])

    def minimal_subfield_degree(self) -> int:
        """Smallest d with all coordinates fixed by the d-fold Frobenius."""
        F = self.field
        cur = self.coords
        for d in range(1, F.m + 1):
            cur = tuple(F.frobenius(c) for c in cur)
            if cur == self.coords:
                return d
        return F.m

    def galois_canonical(self) -> "ProjectivePoint":
        """Least Frobenius-orbit representative in enumeration order."""
        F = self.field
        best = self.coords
        cur = self.coords
        for _ in range(F.m - 1):
            cur = tuple(F.frobenius(c) for c in cur)
            if cur < best:
                best = cur
        return ProjectivePoint(F, best)

    def __str__(self) -> str:
        body = ":".join(self.field.format(c) for c in self.coords)
        if self.field.m > 1:
            return f"@GF({self.field.p}^{self.field.m})({body})"
        return f"({body})"

    __repr__ = __str__


_FIELD_PREFIX = re.compile(r"@GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\)(.*)")


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
        return PolynomialSystem([g.linear_change(matrix) for g in self.gens])

    def evaluate_all(self, coords, point_field: Field) -> list[int]:
        return [g.evaluate(coords, point_field) for g in self.gens]

    def on_zero_set(self, a: ProjectivePoint) -> bool:
        return all(v == 0 for v in self.evaluate_all(a.coords, a.field))

    def __str__(self) -> str:
        return "; ".join(format_poly(g) for g in self.gens)

    __repr__ = __str__


class LinearSubspace:
    """A vector subspace of K^(N+1), basis rows in reduced echelon form."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis):
        rows = [
            [e.val if isinstance(e, FieldElement) else int(e) % field.order for e in row]
            for row in basis
        ]
        if any(len(r) != ambient_dim for r in rows):
            raise InvalidInputError("basis vector length mismatch")
        R, pivots = rref(field, rows, ambient_dim)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in R[: len(pivots)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        vals = [e.val if isinstance(e, FieldElement) else int(e) % self.field.order for e in vec]
        from .exactla import in_span

        ok, _ = in_span(self.field, vals, [list(b) for b in self.basis])
        return ok

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
    rows = []
    for g in S.gens:
        rows.append([g.partial_derivative(j).evaluate(a.coords, F) for j in range(S.n + 1)])
    return MatrixOverField(F, rows, ncols=S.n + 1)


def tangent_space(S: PolynomialSystem, x: ProjectivePoint) -> LinearSubspace:
    """Embedded tangent space at a smooth point, as the kernel of the Jacobian."""
    if not S.on_zero_set(x):
        raise InvalidInputError("point does not lie on the zero set")
    J = jacobian_full(S, x)
    rk, kernel = rank_and_kernel(J)
    if rk < S.r:
        raise SingularPointError(f"Jacobian rank {rk} < r = {S.r} at {x}")
    return LinearSubspace(x.field, S.n + 1, kernel)


def gauss_map(f: HomogeneousPolynomial, a: ProjectivePoint) -> ProjectivePoint:
    """Dual point of the tangent hyperplane of the hypersurface (f=0) at a."""
    F = a.field
    if f.evaluate(a.coords, F) != 0:
        raise InvalidInputError("point does not lie on the hypersurface")
    grad = [f.partial_derivative(j).evaluate(a.coords, F) for j in range(f.n_vars)]
    if all(v == 0 for v in grad):
        raise SingularPointError(f"all partials vanish at {a}")
    return ProjectivePoint(F, grad)


def is_singular_at(S: PolynomialSystem, a: ProjectivePoint) -> bool:
    """Jacobian criterion: on the zero set with full Jacobian rank < r."""
    if not S.on_zero_set(a):
        return False
    return rank(jacobian_full(S, a)) < S.r


# -- singular-point search ------------------------------------------------

_CHUNK_CELLS = 1 << 16  # monomial values held at once by a block evaluator


class _BlockEvaluator:
    """Evaluates polynomials with prime-field coefficients at blocks of points.

    E (T x n_vars) stacks the exponent rows of every polynomial's view, and
    column k of C (T x len(polys)) holds polynomial k's coefficients in its
    own rows.  Every field takes one path, through its discrete-log tables:
    the monomial with logs L = log[coords] @ E.T has digit d equal to
    digits[d][L mod (q-1)], and log[0] is set above any sum of logs of
    nonzero values, so a larger L marks a vanishing monomial.  Coefficients
    in GF(p) act on each base-p digit separately, so digit d of the values
    is (digit_d(monomials) @ C) mod p.  Points are taken in row chunks of at
    most _CHUNK_CELLS monomials.
    """

    def __init__(self, polys: list[HomogeneousPolynomial], F: Field):
        Es, cs = zip(*(f.arrays() for f in polys))
        self.F = F
        E = np.concatenate(Es)
        # entries of a digit plane @ C stay below T * (p-1)^2 < 2^63 for T < 2^23
        owner = np.repeat(np.eye(len(polys), dtype=np.int64), [len(c) for c in cs], axis=0)
        self.C = owner * np.concatenate(cs)[:, None]
        self.rows = max(1, _CHUNK_CELLS // max(len(E), 1))
        _, log, self.digits = F.array_tables()
        self.zero_log = int(E.sum(axis=1).max(initial=0)) * (F.order - 2) + 1
        # float64 so that the product runs in BLAS; every sum is below 2^53
        self.log = log.astype(np.float64)
        self.log[0] = self.zero_log
        self.ET = E.T.astype(np.float64)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Values at the points X (k x n_vars), shape (k, len(polys))."""
        p, q1 = self.F.p, self.F.order - 1
        out = np.zeros((X.shape[0], self.C.shape[1]), dtype=np.int64)
        for s in range(0, X.shape[0], self.rows):
            L = (self.log[X[s : s + self.rows]] @ self.ET).astype(np.int64)
            idx = np.where(L < self.zero_log, L % q1, q1)
            for d, table in enumerate(self.digits):
                out[s : s + self.rows] += (table[idx] @ self.C % p) * p**d
        return out


def _rank_below(J: np.ndarray, r: int, F: Field) -> np.ndarray:
    """Mask of the points k whose r x (N+1) Jacobian J[k] has rank < r.

    For r >= 2 this is fraction-free Gaussian elimination batched over the
    points: each point takes the first nonzero entry of row i as its own
    pivot and clears that column from the rows below (a zero row clears
    nothing).  The rank is the number of rows left nonzero.
    """
    if r == 1:
        return ~J.any(axis=(1, 2))
    A = J.copy()
    at = np.arange(A.shape[0])
    rank = np.zeros(A.shape[0], dtype=np.int64)
    for i in range(r):
        row = A[:, i, :]
        has = row.any(axis=1)
        rank += has
        col = np.argmax(row != 0, axis=1)
        piv = np.where(has, row[at, col], 1)[:, None]
        for j in range(i + 1, r):
            minus = F.mul_array(A[at, j, col], F.p - 1)[:, None]  # -J[j, col]; p-1 encodes -1
            A[:, j, :] = F.add_array(F.mul_array(A[:, j, :], piv), F.mul_array(row, minus))
    return rank < r


def _point_blocks(q: int, n_plus_1: int, block: int = 1 << 16):
    """Yield blocks of normalized projective representatives over GF(q).

    For pivot position i the coordinates are (0,...,0,1,*,...,*) with the
    free tail enumerated in odometer order, last coordinate fastest.
    Consecutive pivots share a block, so every block but the last holds
    ``block`` points.
    """
    parts: list[np.ndarray] = []
    filled = 0
    for pivot in range(n_plus_1):
        total = q ** (n_plus_1 - 1 - pivot)
        start = 0
        while start < total:
            count = min(block - filled, total - start)
            idx = np.arange(start, start + count, dtype=np.int64)
            coords = np.zeros((count, n_plus_1), dtype=np.int64)
            coords[:, pivot] = 1
            rem = idx
            for j in range(n_plus_1 - 1, pivot, -1):
                coords[:, j] = rem % q
                rem = rem // q
            parts.append(coords)
            filled += count
            start += count
            if filled == block:
                yield parts[0] if len(parts) == 1 else np.concatenate(parts)
                parts, filled = [], 0
    if parts:
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


def singular_search(
    S: PolynomialSystem,
    m_max: int = 3,
    budget: int | None = None,
    stop_early: bool = False,
) -> list[tuple[int, ProjectivePoint]]:
    """All singular points rational over GF(p^m), m = 1..m_max.

    Each point is reported once, at its minimal field of definition, with
    Galois-conjugate orbits collapsed to the representative least in
    enumeration order.  Raises BudgetExceededError (with partial results)
    when the point-evaluation budget runs out.  With ``stop_early`` the
    scan stops after the first extension degree that yields any point.
    """
    if m_max < 1:
        raise InvalidInputError("m_max must be >= 1")
    if budget is None:
        budget = point_budget()
    p = S.field.p
    n1 = S.n + 1
    gens = [g.lift_to(make_field(p)) for g in S.gens]  # coefficients must lie in GF(p)
    partials = [g.partial_derivative(j) for g in gens for j in range(n1)]
    found: list[tuple[int, ProjectivePoint]] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    used = 0
    for m in range(1, m_max + 1):
        F = make_field(p, m)
        gen_evals = [_BlockEvaluator([g], F) for g in gens]
        jacobian = _BlockEvaluator(partials, F)
        level_hits: list[ProjectivePoint] = []
        for coords in _point_blocks(F.order, n1):
            used += coords.shape[0]
            if used > budget:
                raise BudgetExceededError(
                    f"point budget {budget} exhausted at extension degree {m}",
                    partial=found,
                    completed_m=m - 1,
                )
            pts = coords
            for ev in gen_evals:
                pts = pts[ev(pts)[:, 0] == 0]
            J = jacobian(pts).reshape(pts.shape[0], S.r, n1)
            for row in pts[_rank_below(J, S.r, F)]:
                level_hits.append(ProjectivePoint(F, [int(v) for v in row]))
        for pt in level_hits:
            d = pt.minimal_subfield_degree()
            if d < m:
                continue  # already reported over the smaller field
            canon = pt.galois_canonical()
            key = (m, canon.coords)
            if key in seen:
                continue
            seen.add(key)
            found.append((m, canon))
        if stop_early and found:
            break
    return found


def enumerate_points(field: Field, n: int):
    """All points of P^n(GF(q)) in deterministic enumeration order."""
    for coords in _point_blocks(field.order, n + 1):
        for row in coords:
            yield ProjectivePoint(field, [int(v) for v in row])
