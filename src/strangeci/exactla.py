"""Exact dense linear algebra over GF(p^m).

Matrices carry integer-encoded entries (see :mod:`strangeci.gf`) and a field reference.
:class:`MatrixOverField` and :func:`in_span` read a caller's values by :meth:`Field.read`;
the rest, :func:`rref` first, takes encodings and reduces nothing.  Elimination uses
deterministic pivoting: the first nonzero entry scanning left-to-right, top-to-bottom.
Kernel bases and span-membership witnesses are therefore reproducible across runs.  Every
elimination goes through :func:`rref`, which runs a loop over Python rows below
``LOOP_CELLS`` entries and one array update per pivot from there on: a float64 row update
mod p over GF(p), int64 on base-p digits over GF(p^m).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .gf import Field, _mod

# rows x columns from which rref takes the array update: its fixed cost per pivot is tens of
# microseconds, and the row loop is faster below about 150-300 entries over GF(p), by the shape
LOOP_CELLS = 300


class MatrixOverField:
    """Dense row-major matrix of integer-encoded field elements."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        clean = [field.encode(row) for row in rows]
        if clean:
            ncols_found = len(clean[0])
            if any(len(r) != ncols_found for r in clean):
                raise InvalidInputError("ragged matrix rows")
            if ncols is not None and ncols != ncols_found:
                raise InvalidInputError("declared column count disagrees with rows")
            ncols = ncols_found
        elif ncols is None:
            ncols = 0
        self.rows = clean
        self.nrows = len(clean)
        self.ncols = ncols

    @classmethod
    def _trusted(cls, field: Field, rows: list[list[int]], ncols: int) -> "MatrixOverField":
        """A matrix the library built, checked no further: rows of ``ncols`` encodings in
        range(field.order), kept as given."""
        M = object.__new__(cls)
        M.field, M.rows, M.nrows, M.ncols = field, rows, len(rows), ncols
        return M

    def __repr__(self) -> str:
        return f"<{self.nrows}x{self.ncols} matrix over {self.field}>"


def rref(field: Field, rows, ncols: int) -> tuple[list[list[int]] | np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns).

    ``rows`` is a list of rows or a 2-D integer array of encodings, which rref neither reduces nor
    mutates: its callers read values by :meth:`Field.read`.  The reduced rows come back in a new
    container of the same kind, lists of ints or an int64 array.  Both strategies take the same pivots.
    """
    as_array = isinstance(rows, np.ndarray)
    if len(rows) * ncols < LOOP_CELLS:
        R, pivots = _rref_rows(field, rows.tolist() if as_array else list(rows), ncols)
        return (np.array(R, dtype=np.int64).reshape(len(R), ncols) if as_array else R), pivots
    R, pivots = _rref_digits(field, np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols))
    return (R if as_array else R.tolist()), pivots


def _rref_rows(field: Field, R: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on the list R in place; a row is replaced, never changed.

    Over a prime field the row operations run on plain integers mod p;
    over GF(p^m), m > 1, through the field's table arithmetic.
    """
    if field.m == 1:
        p = field.p

        def scaled(row, a):
            return [x * a % p for x in row]

        def reduced(row, f, piv):
            return [(x - f * y) % p for x, y in zip(row, piv)]

        def inverse(a):
            return pow(a, p - 2, p)
    else:
        mul, sub = field.mul, field.sub

        def scaled(row, a):
            return [mul(x, a) for x in row]

        def reduced(row, f, piv):
            return [sub(x, mul(f, y)) for x, y in zip(row, piv)]

        inverse = field.inv
    m = len(R)
    pivots: list[int] = []
    pr = 0
    for col in range(ncols):
        sel = -1
        for r in range(pr, m):
            if R[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        R[pr], R[sel] = R[sel], R[pr]
        inv = inverse(R[pr][col])
        if inv != 1:
            R[pr] = scaled(R[pr], inv)
        piv = R[pr]
        for r in range(m):
            if r != pr and R[r][col]:
                R[r] = reduced(R[r], R[r][col], piv)
        pivots.append(col)
        pr += 1
        if pr == m:
            break
    return R, pivots


def _rref_digits(F: Field, R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan on a copy of the int64 array R, entries in range(F.order); returns an int64 array.

    A pivot row y is scaled to 1, and its column f cleared from the other rows, in the trailing
    block only (y is zero left of its pivot), by one update.  Over GF(p) that is R - f (x) y on
    one float64 array, reduced by x - p floor(x / p) and exact, as -p^2 < R - f (x) y < p.  Over
    GF(p^m), m > 1, digit s of f * y is (to_digits(y) @ mul_matrices(f))[s] mod p, in int64 for
    p <= 2^20; that digit update in float64 for every m was measured no faster over GF(p).
    """
    p, prime = F.p, F.m == 1
    R = R.astype(np.float64 if prime else np.int64)  # a copy
    pivots: list[int] = []
    for col in range(R.shape[1]):
        pr = len(pivots)
        if pr == len(R):
            break
        nonzero = R[pr:, col].nonzero()[0]
        if not nonzero.size:
            continue
        sel = pr + int(nonzero[0])
        if sel != pr:
            R[[pr, sel]] = R[[sel, pr]]
        inv = F.inv(int(R[pr, col]))
        if inv != 1:
            R[pr, col:] = _mod(R[pr, col:] * inv, p) if prime else F.mul_array(R[pr, col:], inv)
        f = R[:, col].copy()
        f[pr] = 0
        rows = f.nonzero()[0]
        if prime:
            R[rows, col:] = _mod(R[rows, col:] - f[rows, None] * R[pr, col:], p)
        else:
            D = F.to_digits(R[rows, col:]) - F.to_digits(R[pr, col:]) @ F.mul_matrices(f[rows])
            R[rows, col:] = D % p @ F.place
        pivots.append(col)
    return R.astype(np.int64, copy=False), pivots


def rank(M: MatrixOverField) -> int:
    _, pivots = rref(M.field, M.rows, M.ncols)
    return len(pivots)


def kernel_basis(field: Field, R, pivots: list[int], ncols: int) -> list[list[int]]:
    """Basis of the right kernel of a matrix, read from its reduced rows R and pivots: each
    vector has a 1 in its free column and zeros in the other vectors' free columns."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(int(R[r][j]))
        basis.append(vec)
    return basis


def rank_and_kernel(M: MatrixOverField) -> tuple[int, list[list[int]]]:
    """Rank and a basis of the right kernel that is the identity on the free columns
    (see :func:`kernel_basis`); kernel vectors are lists of integer-encoded entries."""
    R, pivots = rref(M.field, M.rows, M.ncols)
    return len(pivots), kernel_basis(M.field, R, pivots, M.ncols)


def reduced_kernel(field: Field, rows, ncols: int) -> tuple[int, list[list[int]]]:
    """Rank and the reduced echelon basis of the right kernel, from one elimination.

    ``rows`` is read as :func:`rref` reads it.  Eliminating with the columns reversed, the
    vector of :func:`kernel_basis` for the free column j' is 1 at j', zero at the other free
    columns and nonzero only left of j'; reversed back, each vector's first nonzero entry is
    a 1 in its own free column, where the others are zero.  That is the kernel's reduced
    echelon form, which is unique, so rref of the basis :func:`rank_and_kernel` gives is the same.
    """
    flipped = rows[:, ::-1] if isinstance(rows, np.ndarray) else [r[::-1] for r in rows]
    R, pivots = rref(field, flipped, ncols)
    return len(pivots), [v[::-1] for v in reversed(kernel_basis(field, R, pivots, ncols))]


def invert(M: MatrixOverField) -> MatrixOverField:
    """Inverse of a square matrix; raises on singular input."""
    if M.nrows != M.ncols:
        raise InvalidInputError("matrix is not square")
    n = M.nrows
    aug = [list(M.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    R, pivots = rref(M.field, aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise InvalidInputError("matrix is singular")
    return MatrixOverField._trusted(M.field, [r[n:] for r in R], n)


def in_span(
    field: Field, target: list[int], generators: list[list[int]]
) -> tuple[bool, list[int] | None]:
    """Decide membership of a vector in the span of generator vectors.

    Target and generator entries are read by :meth:`Field.read`.  Returns (verdict, witness); on
    success the witness c satisfies target = sum_i c_i * generators[i] (free coefficients set to zero).
    """
    target, generators = field.encode(target), [field.encode(g) for g in generators]
    if any(len(g) != len(target) for g in generators):
        raise InvalidInputError("generator length mismatch")
    return _solve(field, list(zip(*generators, target)), len(generators))


def _solve(field: Field, aug, k: int) -> tuple[bool, list[int] | None]:
    """:func:`in_span` on the rows of encodings aug, lists or an int64 array: the k generators as
    columns, then the target's, which lies in their span when rref takes no pivot there."""
    R, pivots = rref(field, aug, k + 1)
    if k in pivots:
        return False, None
    witness = [0] * k
    for r, pc in enumerate(pivots):
        witness[pc] = int(R[r][k])
    return True, witness
