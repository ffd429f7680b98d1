"""Decision procedures for strangeness, cones, and graded ideal membership.

Every decision reduces to membership in graded pieces I_d of an ideal.  A
:class:`GradedIdeal` builds each degree-d Macaulay matrix (the products
m * f^k of degree d) as an int64 array once and eliminates it once with
:func:`~strangeci.exactla.rref`; every membership and annihilator question is
then one digit-wise product with that echelon form.  :func:`graded_membership`,
which also solves for a witness, eliminates the products with h appended instead.

Strangeness of a complete-intersection system S for a GF(p)-rational point v
is one condition per generator: the derivative along v, sum_i v_i f^k_{z_i},
lies in the degree-(e^k - 1) graded piece of the ideal.  The strange locus
solves it for every lift v in one exact linear solve; the strangeness test
reads it at one v, in the system's own coordinates.  The cone test moves v to
(1:0:...:0) and decides, slice by slice, whether the ideal admits generators
free of the vertex coordinate.

Both decisions at a vertex raise every error before any answer, and then
stop as soon as the verdict is known.  The chart to v takes no rank check:
it is invertible by construction.  The cone test answers False for a vertex
off X with nothing moved, then takes the slices by ascending degree, the
smallest pieces first.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import FieldMismatchError, HomogeneityError, InvalidInputError, UnsupportedVertexError
from .exactla import MatrixOverField, _solve, reduced_kernel, rref
from .geometry import LinearSubspace, PolynomialSystem, ProjectivePoint
from .gf import make_field
from .hompoly import (
    HomogeneousPolynomial,
    Monomial,
    _Change,
    _check_expansion,
    _monomial_array,
    format_poly,
    monomial_count,
    monomial_rank,
    normalize_z0,
)


@dataclass
class MembershipWitness:
    """Multiplier polynomials q_k with h = sum_k q_k * f^k."""

    multipliers: list[HomogeneousPolynomial]


@dataclass
class StrangeReport:
    system: PolynomialSystem
    vertex: ProjectivePoint
    verdict: bool
    witness_generators: list[HomogeneousPolynomial] | None = None
    failing_index: int | None = None
    certificate: str | None = None

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "vertex": str(self.vertex)}
        if self.witness_generators is not None:
            out["witness_generators"] = [format_poly(g) for g in self.witness_generators]
        if self.failing_index is not None:
            out["failing_index"] = self.failing_index
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


@dataclass
class StrangeLocus:
    subspace: LinearSubspace

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def is_nonzero(self) -> bool:
        return self.subspace.dim > 0

    def to_dict(self) -> dict:
        return {
            "dim": self.subspace.dim,
            "basis": [list(b) for b in self.subspace.basis],
        }


# -- graded ideal membership ----------------------------------------------


class GradedIdeal:
    """The ideal of homogeneous generators, one graded piece I_d at a time.

    Each piece is built as a Macaulay matrix and eliminated at most once per
    object; membership, annihilators and the Hilbert function are read from
    that echelon form.
    """

    def __init__(self, gens):
        self.gens = list(gens)
        if not self.gens:
            raise InvalidInputError("an ideal needs at least one generator")
        self.field, self.n_vars = self.gens[0].field, self.gens[0].n_vars
        self._check_ring(self.gens)
        self._pieces: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _check_ring(self, polys) -> None:
        if any(h.field != self.field or h.n_vars != self.n_vars for h in polys):
            raise FieldMismatchError("polynomials live in different rings")

    def _dim(self, d: int) -> int:
        return monomial_count(self.n_vars, d)

    def vectors(self, polys, d: int) -> np.ndarray:
        """Coefficient rows of degree-d polynomials in monomials_of_degree order, each its
        ``dense()`` row; a zero polynomial of any degree gives a zero row."""
        self._check_ring(polys)
        T = np.zeros((len(polys), self._dim(d)), dtype=np.int64)
        for i, h in enumerate(polys):
            if h.terms:
                if h.degree != d:
                    raise HomogeneityError(f"polynomial of degree {h.degree} in the degree-{d} piece")
                T[i] = h.dense()
        return T

    def macaulay_matrix(self, d: int) -> np.ndarray:
        """The products m * f^k of degree d as rows: generator k, then multiplier
        monomials, both in order; columns in monomials_of_degree order."""
        n = self.n_vars
        blocks = [np.zeros((0, self._dim(d)), dtype=np.int64)]
        for g in self.gens:
            if g.degree <= d:
                mults = _monomial_array(n, d - g.degree)
                E, c = g.arrays()
                A = np.zeros((len(mults), self._dim(d)), dtype=np.int64)
                A[np.arange(len(mults))[:, None], monomial_rank(mults[:, None, :] + E[None], d)] = c
                blocks.append(A)
        return np.concatenate(blocks)

    def _piece(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pivot and free columns of the reduced echelon form R of I_d as int64 arrays, and R's nonzero
        rows at the free columns on base-p digits, row (i, j) digit j of row i; built once, with no
        elimination when every generator's degree exceeds d, as I_d is then empty."""
        if d not in self._pieces:
            D, F = self._dim(d), self.field
            pivots, free, digits = np.zeros(0, dtype=np.int64), np.arange(D), np.zeros((0, D), dtype=np.int64)
            if any(g.degree <= d for g in self.gens):
                R, piv = rref(F, self.macaulay_matrix(d), D)
                pivots, free = np.array(piv, dtype=np.int64), np.delete(free, piv)
                digits = F.to_digits(R[: len(piv), free]).transpose(0, 2, 1).reshape(len(piv) * F.m, len(free))
            self._pieces[d] = (pivots, free, digits)
        return self._pieces[d]

    def residues(self, T: np.ndarray, d: int) -> np.ndarray:
        """Rows t of T (degree d) reduced modulo I_d, read at the free columns:
        entry j is phi_j(t) for row j of :meth:`annihilator`, all zero iff t is in I_d.

        T - T[:, pivots] @ R at the free columns on base-p digits, one product over pivots i and digits j:
        digit s of T[t, i] * R[i, c] is the sum over j of (digit s of T[t, i] x^j) (digit j of R[i, c])."""
        (pivots, free, rhs), F = self._piece(d), self.field
        if not len(pivots):
            return T
        lhs = F.mul_matrices(T[:, pivots]).transpose(0, 3, 1, 2).reshape(len(T), F.m, -1)  # [t, s, (i, j)]
        return F.place @ ((F.to_digits(T[:, free]).transpose(0, 2, 1) - lhs @ rhs) % F.p)  # [t, s, c] digits

    def contains(self, h: HomogeneousPolynomial) -> bool:
        """Whether h lies in the graded piece of its degree."""
        return h.is_zero() or not self.residues(self.vectors([h], h.degree), h.degree).any()

    def annihilator(self, d: int) -> np.ndarray:
        """The functionals vanishing on I_d, one per row: the kernel basis of the Macaulay
        matrix that :func:`~strangeci.exactla.rank_and_kernel` gives, the identity on the free columns."""
        return self.residues(np.eye(self._dim(d), dtype=np.int64), d).T

    def hilbert_function(self, d: int) -> int:
        """dim S_d - dim I_d."""
        return self._dim(d) - len(self._piece(d)[0]) if d >= 0 else 0


def graded_membership(
    h: HomogeneousPolynomial, S: PolynomialSystem
) -> tuple[bool, MembershipWitness | None]:
    """Exact membership of h in the degree-deg(h) graded piece of the ideal.

    The solve of :func:`~strangeci.exactla.in_span`, on one int64 array of the unreduced products
    m * f^k and h's row, decides it and finds a witness in one elimination, free products' coefficients
    zero; the witness's entries for f^k are its multiplier's, on the degree-(d - e_k) monomials in order.
    """
    ideal, d, n1 = GradedIdeal(S.gens), h.degree, S.n + 1
    target, A = ideal.vectors([h], d)[0], ideal.macaulay_matrix(d)
    member, coeffs = _solve(S.field, np.column_stack([A.T, target]), len(A))
    if not member:
        return False, None
    coeffs, mults = np.array(coeffs, dtype=np.int64), []
    for e in S.degrees:
        E = _monomial_array(n1, d - e) if e <= d else np.zeros((0, n1), dtype=np.int64)
        c, coeffs = coeffs[: len(E)], coeffs[len(E) :]
        nz = np.flatnonzero(c)
        mults.append(HomogeneousPolynomial._trusted(S.field, n1, max(d - e, 0), arrays=(E[nz], c[nz])))
    return True, MembershipWitness(mults)


# -- coordinate moves -----------------------------------------------------


def move_point_to_origin_chart(v: ProjectivePoint) -> MatrixOverField:
    """Deterministic invertible M with M * e_0 equal to the lift of v.

    The identity with column 0 replaced by the lift of v and, when the
    first nonzero coordinate of v has index pivot > 0, column pivot
    replaced by e_0.  Depends only on the normalized v.
    """
    n1 = len(v.coords)
    pivot = next(i for i, c in enumerate(v.coords) if c)
    rows = [[int(i == j) for j in range(n1)] for i in range(n1)]
    for row, c in zip(rows, v.coords):
        row[0] = c
    if pivot:
        rows[0][pivot], rows[pivot][pivot] = 1, 0
    return MatrixOverField._trusted(v.field, rows, n1)


def _require_prime_rational(v: ProjectivePoint) -> ProjectivePoint:
    F = v.field
    if F.m == 1:
        return v
    if any(c >= F.p for c in v.coords):
        raise UnsupportedVertexError(
            "vertex must be rational over the prime field GF(p)"
        )
    return ProjectivePoint(make_field(F.p), list(v.coords))


def _chart(S: PolynomialSystem, v: ProjectivePoint) -> tuple[ProjectivePoint, _Change]:
    """v as a GF(p)-point and the change that moves it to (1:0:...:0).

    Every error that moving S can raise comes from here, before any answer: a vertex of another
    characteristic, off GF(p) or of the wrong length, and then a generator too large to expand.
    The chart's shape, entries and rank are right by construction, so they are not checked.
    """
    if v.field.p != S.field.p:
        raise FieldMismatchError(f"vertex over {v.field} but system over {S.field}: characteristics differ")
    w = _require_prime_rational(v)
    if len(w.coords) != S.n + 1:
        raise InvalidInputError(f"vertex {v} has {len(w.coords)} coordinates, expected N+1 = {S.n + 1}")
    for g in S.gens:
        _check_expansion(g)
    return w, _Change._trusted(S.field, move_point_to_origin_chart(w).rows)


# -- strangeness ----------------------------------------------------------


def is_strange_for(S: PolynomialSystem, v: ProjectivePoint) -> StrangeReport:
    """Decide whether the system is strange for the GF(p)-rational point v.

    Generator k passes when its derivative along v lies in I_(e_k - 1), which only the generators
    of degree < e_k span: the condition of :func:`strange_locus` at v.  As M e_0 = v for the chart
    M, that derivative moved is the z0-partial of the moved generator, which the report names; the
    generators are moved only for the report.
    """
    v, change = _chart(S, v)
    F, ideal = S.field, GradedIdeal(S.gens)
    for k, g in enumerate(S.gens):
        # v lies in GF(p): the derivative's digits are the rows' digits combined by v, mod p
        dv = np.tensordot(v.coords, F.to_digits(g.gradient_rows()), axes=1) % F.p @ F.place
        if dv.any() and ideal.residues(dv[None], g.degree - 1).any():
            dg = g.linear_change(change).partial_derivative(0)
            return StrangeReport(
                system=S,
                vertex=v,
                verdict=False,
                failing_index=k,
                certificate=(
                    f"z0-partial of transformed generator {k} is "
                    f"{format_poly(dg)}, not in the degree-{dg.degree} "
                    "graded piece of the ideal"
                ),
            )
    witness = [normalize_z0(g.linear_change(change)) for g in S.gens]
    return StrangeReport(system=S, vertex=v, verdict=True, witness_generators=witness)


def strange_locus(S: PolynomialSystem) -> StrangeLocus:
    """The linear space of all lifts v-hat for which S is strange.

    A lift v is valid iff, for every generator f^k, the directional
    derivative sum_i v_i f^k_{z_i} lies in the degree-(e^k - 1) graded
    piece of the ideal.  Membership of a v-linear family in a fixed span
    is one exact linear solve: stack, per generator, the functionals
    vanishing on the span applied to each coordinate derivative.
    """
    F = S.field
    n1 = S.n + 1
    ideal = GradedIdeal(S.gens)
    conditions = np.concatenate([ideal.residues(g.gradient_rows(), g.degree - 1).T for g in S.gens])
    return StrangeLocus(LinearSubspace._reduced(F, n1, reduced_kernel(F, conditions, n1)[1]))


# -- normalization --------------------------------------------------------


def normalize_system(S: PolynomialSystem) -> tuple[list[HomogeneousPolynomial], bool]:
    """Every generator normalized, in order, and whether they span the ideal of S degree-wise.

    A list, as a generator may normalize to zero.  Flag true implies S is strange for (1:0:...:0).
    """
    normalized = [normalize_z0(g) for g in S.gens]
    ideal, normal_ideal = GradedIdeal(S.gens), GradedIdeal(normalized)
    equal = all(map(normal_ideal.contains, S.gens)) and all(map(ideal.contains, normalized))
    return normalized, equal


# -- cones ----------------------------------------------------------------


def _z0_slices(g: HomogeneousPolynomial) -> dict[int, HomogeneousPolynomial]:
    """Decompose g = sum_j z_0^j h_j with z_0-free slices h_j."""
    slices: dict[int, dict[Monomial, int]] = {}
    for mono, c in g.terms.items():
        slices.setdefault(mono[0], {})[(0,) + mono[1:]] = c
    F, n = g.field, g.n_vars
    return {j: HomogeneousPolynomial._trusted(F, n, g.degree - j, terms) for j, terms in slices.items()}


def is_cone_with_vertex(S: PolynomialSystem, v: ProjectivePoint) -> bool:
    """Whether the ideal admits generators omitting the vertex coordinate.

    After moving v to (1:0:...:0), each generator is sliced along powers of
    z_0; the system is a cone iff every slice lies in the ideal.  The slice
    criterion is exact in both directions: z_0-free generators reproduce
    each slice degree by degree, and conversely slices in the ideal let the
    generators be rewritten z_0-free.

    Two facts order the work, cheapest first.  A moved generator's degree-0
    slice is its value at the lift of v, and I_0 = 0 as every generator has
    degree >= 1: so a vertex off X is no cone, with nothing moved.  On X the
    slices of all moved generators are taken by ascending degree, the small
    pieces first, and the first slice outside the ideal ends the test.
    """
    v, change = _chart(S, v)
    if not S.on_zero_set(ProjectivePoint(S.field, v.coords)):
        return False
    ideal = GradedIdeal(g.linear_change(change) for g in S.gens)
    slices = sorted((h for g in ideal.gens for h in _z0_slices(g).values()), key=attrgetter("degree"))
    return all(map(ideal.contains, slices))


def cone_corollary_check(S: PolynomialSystem, v: ProjectivePoint) -> bool:
    """Theorem self-test: strange with all degrees < p implies cone."""
    if any(e >= S.field.p for e in S.degrees):
        raise InvalidInputError("cone corollary requires every degree < p")
    if not is_strange_for(S, v).verdict:
        raise InvalidInputError("cone corollary requires a strange system")
    return is_cone_with_vertex(S, v)
