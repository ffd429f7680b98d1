"""Decision procedures for strangeness, cones, and graded ideal membership.

Strangeness of a complete-intersection system S for a GF(p)-rational point
v is decided algebraically: move v to (1:0:...:0) by a deterministic
coordinate change, then check that the z_0-partial of every transformed
generator lies in the matching graded piece of the generated ideal.  For a
single hypersurface this degenerates to "f_{z_0} is the zero polynomial".

The strange locus is the linear space of all valid vertex lifts, computed
in one exact linear solve; the cone test decides whether the ideal admits
generators free of the vertex coordinate, slice by slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInputError, UnsupportedVertexError
from .exactla import MatrixOverField, in_span, mat_mul, rank_and_kernel
from .gf import Field
from .geometry import LinearSubspace, PolynomialSystem, ProjectivePoint
from .hompoly import (
    HomogeneousPolynomial,
    Monomial,
    format_poly,
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


def _span_products(
    S: PolynomialSystem, d: int
) -> tuple[list[Monomial], list[tuple[int, Monomial]], list[list[int]]]:
    """Degree-d products m*f^k spanning the graded piece of the ideal.

    Returns (monomial basis of degree d, product labels (k, multiplier
    monomial), product coefficient vectors).
    """
    basis = monomials_of_degree(S.n + 1, d)
    index = {mono: i for i, mono in enumerate(basis)}
    labels: list[tuple[int, Monomial]] = []
    vectors: list[list[int]] = []
    for k, g in enumerate(S.gens):
        dd = d - g.degree
        if dd < 0:
            continue
        for mult in monomials_of_degree(S.n + 1, dd):
            prod = g.multiply_monomial(mult)
            vec = [0] * len(basis)
            for mono, c in prod.terms.items():
                vec[index[mono]] = c
            labels.append((k, mult))
            vectors.append(vec)
    return basis, labels, vectors


def graded_membership(
    h: HomogeneousPolynomial, S: PolynomialSystem
) -> tuple[bool, MembershipWitness | None]:
    """Exact membership of h in the degree-deg(h) graded piece of the ideal."""
    if h.is_zero():
        zero_mults = [
            HomogeneousPolynomial.zero(S.field, S.n + 1, max(h.degree - e, 0))
            for e in S.degrees
        ]
        return True, MembershipWitness(zero_mults)
    basis, labels, vectors = _span_products(S, h.degree)
    index = {mono: i for i, mono in enumerate(basis)}
    target = [0] * len(basis)
    for mono, c in h.terms.items():
        target[index[mono]] = c
    ok, coeffs = in_span(S.field, target, vectors)
    if not ok:
        return False, None
    mults = [
        HomogeneousPolynomial.zero(S.field, S.n + 1, max(h.degree - e, 0))
        for e in S.degrees
    ]
    for (k, mono), c in zip(labels, coeffs):
        if c:
            mults[k] = mults[k] + HomogeneousPolynomial.monomial(S.field, S.n + 1, mono, c)
    return True, MembershipWitness(mults)


# -- coordinate moves -----------------------------------------------------


def move_point_to_origin_chart(v: ProjectivePoint) -> MatrixOverField:
    """Deterministic invertible M with M * e_0 equal to the lift of v.

    The permutation bringing the first nonzero coordinate of v to slot 0,
    followed by the shear clearing the remaining coordinates.  Depends only
    on the normalized v.
    """
    F = v.field
    n1 = len(v.coords)
    pivot = next(i for i, c in enumerate(v.coords) if c)
    perm = [[1 if j == (i if i not in (0, pivot) else (pivot if i == 0 else 0)) else 0 for j in range(n1)] for i in range(n1)]
    w = list(v.coords)
    w[0], w[pivot] = w[pivot], w[0]
    shear = [[w[i] if j == 0 else (1 if i == j else 0) for j in range(n1)] for i in range(n1)]
    return mat_mul(MatrixOverField(F, perm), MatrixOverField(F, shear))


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


# -- strangeness ----------------------------------------------------------


def is_strange_for(S: PolynomialSystem, v: ProjectivePoint) -> StrangeReport:
    """Decide whether the system is strange for the GF(p)-rational point v."""
    v = _require_prime_rational(v)
    M = move_point_to_origin_chart(v)
    SM = S.linear_change(M.rows)
    for k, g in enumerate(SM.gens):
        dg = g.partial_derivative(0)
        ok, _ = graded_membership(dg, SM)
        if not ok:
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
    witness, _ = normalize_system(SM)
    return StrangeReport(system=S, vertex=v, verdict=True, witness_generators=list(witness.gens))


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
    condition_rows: list[list[int]] = []
    for g in S.gens:
        d = g.degree - 1
        basis, _, vectors = _span_products(S, d)
        index = {mono: i for i, mono in enumerate(basis)}
        grads = []
        for i in range(n1):
            vec = [0] * len(basis)
            for mono, c in g.partial_derivative(i).terms.items():
                vec[index[mono]] = c
            grads.append(vec)
        if vectors:
            _, functionals = rank_and_kernel(MatrixOverField(F, vectors, ncols=len(basis)))
        else:
            functionals = [
                [1 if j == i else 0 for j in range(len(basis))] for i in range(len(basis))
            ]
        for phi in functionals:
            # a reduced-echelon kernel vector is nonzero only at its free
            # column and at pivot columns, so apply it at those entries only
            support = [(k, a) for k, a in enumerate(phi) if a]
            if F.m == 1:
                row = [sum(a * grad[k] for k, a in support) % F.p for grad in grads]
            else:
                row = [reduce(F.add, (F.mul(a, grad[k]) for k, a in support), 0) for grad in grads]
            condition_rows.append(row)
    _, kernel = rank_and_kernel(MatrixOverField(F, condition_rows, ncols=n1))
    return StrangeLocus(LinearSubspace(F, n1, kernel))


# -- normalization --------------------------------------------------------


def normalize_system(S: PolynomialSystem) -> tuple[PolynomialSystem, bool]:
    """Normalize every generator; the flag reports degree-wise ideal equality.

    Flag true implies S is strange for (1:0:...:0).
    """
    normalized = PolynomialSystem([normalize_z0(g) for g in S.gens])
    equal = True
    for g in S.gens:
        ok, _ = graded_membership(g, normalized)
        if not ok:
            equal = False
            break
    if equal:
        for g in normalized.gens:
            ok, _ = graded_membership(g, S)
            if not ok:
                equal = False
                break
    return normalized, equal


# -- cones ----------------------------------------------------------------


def _z0_slices(g: HomogeneousPolynomial) -> dict[int, HomogeneousPolynomial]:
    """Decompose g = sum_j z_0^j h_j with z_0-free slices h_j."""
    F = g.field
    slices: dict[int, dict[Monomial, int]] = {}
    for mono, c in g.terms.items():
        j = mono[0]
        stripped = (0,) + mono[1:]
        slices.setdefault(j, {})[stripped] = c
    return {
        j: HomogeneousPolynomial(F, g.n_vars, g.degree - j, terms)
        for j, terms in slices.items()
    }


def is_cone_with_vertex(S: PolynomialSystem, v: ProjectivePoint) -> bool:
    """Whether the ideal admits generators omitting the vertex coordinate.

    After moving v to (1:0:...:0), each generator is sliced along powers of
    z_0; the system is a cone iff every slice lies in the ideal.  The slice
    criterion is exact in both directions: z_0-free generators reproduce
    each slice degree by degree, and conversely slices in the ideal let the
    generators be rewritten z_0-free.
    """
    v = _require_prime_rational(v)
    M = move_point_to_origin_chart(v)
    SM = S.linear_change(M.rows)
    for g in SM.gens:
        for j, h in sorted(_z0_slices(g).items()):
            ok, _ = graded_membership(h, SM)
            if not ok:
                return False
    return True


def cone_corollary_check(S: PolynomialSystem, v: ProjectivePoint) -> bool:
    """Theorem self-test: strange with all degrees < p implies cone."""
    if any(e >= S.field.p for e in S.degrees):
        raise InvalidInputError("cone corollary requires every degree < p")
    if not is_strange_for(S, v).verdict:
        raise InvalidInputError("cone corollary requires a strange system")
    return is_cone_with_vertex(S, v)
