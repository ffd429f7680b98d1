"""Decision procedures for strangeness, cones, and graded ideal membership.

Every decision reduces to membership in graded pieces I_d of an ideal.  A
:class:`GradedIdeal` builds each degree-d Macaulay matrix (the products
m * f^k of degree d) once and eliminates it once; every membership and
annihilator question is then read from that echelon form.

Strangeness of a complete-intersection system S for a GF(p)-rational point
v is decided algebraically: move v to (1:0:...:0) by a deterministic
coordinate change, then check that the z_0-partial of every transformed
generator lies in the matching graded piece.  For a single hypersurface
this degenerates to "f_{z_0} is the zero polynomial".

The strange locus is the linear space of all valid vertex lifts, computed
in one exact linear solve; the cone test decides whether the ideal admits
generators free of the vertex coordinate, slice by slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import FieldMismatchError, InvalidInputError, UnsupportedVertexError
from .exactla import MatrixOverField, _rref_mod_p, in_span, rank_and_kernel, rref
from .geometry import LinearSubspace, PolynomialSystem, ProjectivePoint
from .hompoly import (
    HomogeneousPolynomial,
    Monomial,
    format_poly,
    monomial_rank,
    monomials_of_degree,
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
        self._pieces: dict[int, tuple[np.ndarray, list[int]]] = {}

    def _check_ring(self, polys) -> None:
        if any(h.field != self.field or h.n_vars != self.n_vars for h in polys):
            raise FieldMismatchError("polynomials live in different rings")

    def _dim(self, d: int) -> int:
        return comb(d + self.n_vars - 1, self.n_vars - 1)

    def vectors(self, polys, d: int) -> np.ndarray:
        """Coefficient rows of degree-d polynomials in monomials_of_degree order."""
        self._check_ring(polys)
        T = np.zeros((len(polys), self._dim(d)), dtype=np.int64)
        for i, h in enumerate(polys):
            E, c = h.arrays()
            T[i, monomial_rank(E, d)] = c
        return T

    def macaulay_matrix(self, d: int) -> np.ndarray:
        """The products m * f^k of degree d as rows: generator k, then multiplier
        monomials, both in order; columns in monomials_of_degree order."""
        n = self.n_vars
        blocks = [np.zeros((0, self._dim(d)), dtype=np.int64)]
        for g in self.gens:
            if g.degree <= d:
                mults = np.array(monomials_of_degree(n, d - g.degree), dtype=np.int64)
                E, c = g.arrays()
                A = np.zeros((len(mults), self._dim(d)), dtype=np.int64)
                A[np.arange(len(mults))[:, None], monomial_rank(mults[:, None, :] + E[None], d)] = c
                blocks.append(A)
        return np.concatenate(blocks)

    def _piece(self, d: int) -> tuple[np.ndarray, list[int]]:
        """Nonzero rows of the reduced echelon form of I_d, and their pivots."""
        if d not in self._pieces:
            A, F = self.macaulay_matrix(d), self.field
            if F.m == 1:
                R, pivots = _rref_mod_p(A, F.p)
            else:
                rows, pivots = rref(F, A.tolist(), A.shape[1])
                R = np.array(rows, dtype=np.int64).reshape(A.shape)
            self._pieces[d] = (R[: len(pivots)], pivots)
        return self._pieces[d]

    def residues(self, T: np.ndarray, d: int) -> np.ndarray:
        """Rows t of T (degree d) reduced modulo I_d, read at the free columns:
        entry j is phi_j(t) for row j of :meth:`annihilator`, all zero iff t is in I_d.

        T - T[:, pivots] @ R; over GF(p^m) one pivot column at a time, which is the
        same, as R is reduced: clearing a pivot column leaves the others unchanged."""
        R, pivots = self._piece(d)
        F = self.field
        if not pivots:
            return T
        if F.m == 1:
            T = (T - T[:, pivots] @ R) % F.p
        else:
            minus_R = F.mul_array(R, F.p - 1)  # p-1 encodes -1
            for row, col in zip(minus_R, pivots):
                T = F.add_array(T, F.mul_array(T[:, col, None], row))
        return np.delete(T, pivots, axis=1)

    def contains(self, h: HomogeneousPolynomial) -> bool:
        """Whether h lies in the graded piece of its degree."""
        return h.is_zero() or not self.residues(self.vectors([h], h.degree), h.degree).any()

    def annihilator(self, d: int) -> np.ndarray:
        """The functionals vanishing on I_d, one per row: the reduced-echelon
        kernel :func:`rank_and_kernel` gives for the Macaulay matrix."""
        return self.residues(np.eye(self._dim(d), dtype=np.int64), d).T

    def hilbert_function(self, d: int) -> int:
        """dim S_d - dim I_d."""
        return self._dim(d) - len(self._piece(d)[1]) if d >= 0 else 0


def graded_membership(
    h: HomogeneousPolynomial, S: PolynomialSystem
) -> tuple[bool, MembershipWitness | None]:
    """Exact membership of h in the degree-deg(h) graded piece of the ideal.

    A member's witness is solved for once, over the unreduced products
    m * f^k, with the coefficients of free products zero.
    """
    ideal, d, n1 = GradedIdeal(S.gens), h.degree, S.n + 1
    if not ideal.contains(h):
        return False, None
    _, coeffs = in_span(S.field, ideal.vectors([h], d)[0].tolist(), ideal.macaulay_matrix(d).tolist())
    labels = [(k, mono) for k, e in enumerate(S.degrees) if e <= d for mono in monomials_of_degree(n1, d - e)]
    terms: list[dict[Monomial, int]] = [{} for _ in S.degrees]
    for (k, mono), c in zip(labels, coeffs):
        if c:
            terms[k][mono] = c
    mults = [HomogeneousPolynomial._trusted(S.field, n1, max(d - e, 0), t) for e, t in zip(S.degrees, terms)]
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
    return MatrixOverField(v.field, rows)


def _require_prime_rational(v: ProjectivePoint) -> ProjectivePoint:
    F = v.field
    if F.m == 1:
        return v
    if any(c >= F.p for c in v.coords):
        raise UnsupportedVertexError(
            "vertex must be rational over the prime field GF(p)"
        )
    from .gf import make_field

    return ProjectivePoint(make_field(F.p), list(v.coords))


def _moved(S: PolynomialSystem, v: ProjectivePoint) -> tuple[ProjectivePoint, PolynomialSystem, GradedIdeal]:
    """v as a GF(p)-point, S with v moved to (1:0:...:0), and the ideal of the moved system."""
    v = _require_prime_rational(v)
    SM = S.linear_change(move_point_to_origin_chart(v).rows)
    return v, SM, GradedIdeal(SM.gens)


# -- strangeness ----------------------------------------------------------


def is_strange_for(S: PolynomialSystem, v: ProjectivePoint) -> StrangeReport:
    """Decide whether the system is strange for the GF(p)-rational point v."""
    v, SM, ideal = _moved(S, v)
    for k, g in enumerate(SM.gens):
        dg = g.partial_derivative(0)
        if not ideal.contains(dg):
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
    witness = [normalize_z0(g) for g in SM.gens]
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
    condition_rows = [row for g in S.gens for row in ideal.residues(g.gradient_rows(), g.degree - 1).T.tolist()]
    _, kernel = rank_and_kernel(MatrixOverField(F, condition_rows, ncols=n1))
    return StrangeLocus(LinearSubspace(F, n1, kernel))


# -- normalization --------------------------------------------------------


def normalize_system(S: PolynomialSystem) -> tuple[PolynomialSystem, bool]:
    """Normalize every generator; the flag reports degree-wise ideal equality.

    Flag true implies S is strange for (1:0:...:0).
    """
    normalized = PolynomialSystem([normalize_z0(g) for g in S.gens])
    ideal, normal_ideal = GradedIdeal(S.gens), GradedIdeal(normalized.gens)
    equal = all(map(normal_ideal.contains, S.gens)) and all(map(ideal.contains, normalized.gens))
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
    """
    _, SM, ideal = _moved(S, v)
    return all(ideal.contains(h) for g in SM.gens for _, h in sorted(_z0_slices(g).items()))


def cone_corollary_check(S: PolynomialSystem, v: ProjectivePoint) -> bool:
    """Theorem self-test: strange with all degrees < p implies cone."""
    if any(e >= S.field.p for e in S.degrees):
        raise InvalidInputError("cone corollary requires every degree < p")
    if not is_strange_for(S, v).verdict:
        raise InvalidInputError("cone corollary requires a strange system")
    return is_cone_with_vertex(S, v)
