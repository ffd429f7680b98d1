"""Deterministic constructors for the explicit example families.

Quadric normal forms, the two singular strange hypersurface families (one
for p dividing the degree, one for p < e with p not dividing e), cones
over hyperplane varieties, and the complete-intersection construction
that plants an isolated singular point away from the vertex.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .exactla import rank
from .gf import Field, make_field
from .geometry import PolynomialSystem, ProjectivePoint, jacobian_full
from .hompoly import HomogeneousPolynomial


def _mono(field: Field, n_vars: int, pairs: dict[int, int], coeff: int = 1) -> HomogeneousPolynomial:
    exps = [0] * n_vars
    for i, e in pairs.items():
        exps[i] = e
    return HomogeneousPolynomial.monomial(field, n_vars, tuple(exps), coeff)


def quadric_normal_form(N: int, p: int) -> PolynomialSystem:
    """The smooth quadric normal form in P^N over GF(p).

    z0^2 + z1*z2 + ... + z_{N-1}*z_N when dim = N-1 is odd (N even),
    z0*z1 + z2*z3 + ... + z_{N-1}*z_N when dim is even (N odd).
    """
    if N < 2:
        raise InvalidInputError("quadric normal form needs N >= 2")
    F = make_field(p)
    n_vars = N + 1
    f = HomogeneousPolynomial.zero(F, n_vars, 2)
    if N % 2 == 0:
        f = f + _mono(F, n_vars, {0: 2})
        start = 1
    else:
        start = 0
    for i in range(start, N, 2):
        f = f + _mono(F, n_vars, {i: 1, i + 1: 1})
    return PolynomialSystem([f])


def strange_hypersurface_p_divides(N: int, e: int, p: int) -> PolynomialSystem:
    """f = z_N z_{N-1}^{e-1} + ... + z_2 z_1^{e-1} + z_0^e with p | e.

    Strange for (1:0:...:0); the singular locus is the single point
    (0:...:0:1).
    """
    if e < 3 or e % p != 0 or N < 2:
        raise InvalidInputError("family requires e >= 3, p | e, N >= 2")
    F = make_field(p)
    n_vars = N + 1
    f = _mono(F, n_vars, {0: e})
    for i in range(2, N + 1):
        f = f + _mono(F, n_vars, {i: 1, i - 1: e - 1})
    return PolynomialSystem([f])


def strange_hypersurface_p_not_divides(N: int, e: int, p: int) -> PolynomialSystem:
    """f = z0^p z1^{e-p} + z2^e + ... + zN^e with e > p and p not dividing e.

    Strange for (1:0:...:0); singular exactly at (1:0:...:0) and
    (0:1:0:...:0) when e > p+1, only at (0:1:0:...:0) when e = p+1.
    """
    if e <= p or e % p == 0 or N < 2:
        raise InvalidInputError("family requires e > p, p not dividing e, N >= 2")
    F = make_field(p)
    n_vars = N + 1
    f = _mono(F, n_vars, {0: p, 1: e - p})
    for i in range(2, N + 1):
        f = f + _mono(F, n_vars, {i: e})
    return PolynomialSystem([f])


def cone_over(Sbase: PolynomialSystem, alpha: ProjectivePoint) -> PolynomialSystem:
    """Cone over a variety in the hyperplane (z_0 = 0) with vertex alpha.

    The base generators must be z_0-free and alpha must have nonzero z_0
    coordinate.  The cone is cut out by the base generators pulled back
    along the retraction z_i <- z_i - alpha_i * z_0 (i >= 1), which fixes
    the hyperplane and collapses lines through alpha.
    """
    for g in Sbase.gens:
        if any(mono[0] for mono in g.terms):
            raise InvalidInputError("base generators must not involve z0")
    if alpha.coords[0] == 0:
        raise InvalidInputError("vertex must lie outside the hyperplane (z0 = 0)")
    F = Sbase.field
    if alpha.field != F:
        raise InvalidInputError("vertex and base system over different fields")
    n1 = Sbase.n + 1
    a = alpha.coords  # normalized, a[0] == 1
    rows = [[1 if i == j else 0 for j in range(n1)] for i in range(n1)]
    for i in range(1, n1):
        rows[i][0] = F.neg(a[i])
    return Sbase.linear_change(rows)


def prop31_construct(
    gens: list[HomogeneousPolynomial],
    beta: list[int],
    p: int,
) -> tuple[PolynomialSystem, ProjectivePoint]:
    """Perturb a z_0-free system into a strange one singular away from e_0.

    ``gens`` = (f^1, ..., f^r), all z_0-free, where f^2, ..., f^r cut a
    variety Z in the hyperplane that is singular at beta = (beta_1 : ... :
    beta_N) with beta_1 != 0, and f^1(beta) != 0 with deg f^1 >= p.  The
    first generator is replaced by

        g^1 = f^1 - f^1(beta) / beta_1^(e1 - p) * z0^p * z1^(e1 - p),

    which has zero z_0-partial; the returned point alpha =
    (1 : beta_1 : ... : beta_N) is singular on the new system.
    """
    if not gens:
        raise InvalidInputError("need at least one generator")
    F = gens[0].field
    if F.p != p or F.m != 1:
        raise InvalidInputError("generators must have GF(p) coefficients")
    n_vars = gens[0].n_vars
    N = n_vars - 1
    for g in gens:
        if any(mono[0] for mono in g.terms):
            raise InvalidInputError("generators must not involve z0")
    e1 = gens[0].degree
    if e1 < p:
        raise InvalidInputError(f"deg f^1 = {e1} < p = {p}")
    if len(beta) != N:
        raise InvalidInputError(f"beta needs {N} coordinates")
    beta = [b % F.p for b in beta]
    if beta[0] == 0:
        raise InvalidInputError("beta_1 must be nonzero")
    coords = [0] + beta
    f1_beta = gens[0].evaluate(coords, F)
    if f1_beta == 0:
        raise InvalidInputError("f^1(beta) must be nonzero")
    for k, g in enumerate(gens[1:], start=2):
        if g.evaluate(coords, F) != 0:
            raise InvalidInputError(f"f^{k}(beta) must vanish (beta must lie on Z)")
    if len(gens) > 1:
        # the z_0 column of the Jacobian of the z_0-free f^2, ..., f^r is zero
        if rank(jacobian_full(PolynomialSystem(gens[1:]), ProjectivePoint(F, coords))) >= len(gens) - 1:
            raise InvalidInputError("beta must be a singular point of Z")
    scalar = F.div(f1_beta, F.pow(beta[0], e1 - p))
    exps = [0] * n_vars
    exps[0] = p
    exps[1] = e1 - p
    g1 = gens[0] - HomogeneousPolynomial.monomial(F, n_vars, tuple(exps), scalar)
    system = PolynomialSystem([g1] + list(gens[1:]))
    if not g1.partial_derivative(0).is_zero():
        raise AssertionError("construction failed to kill the z0-partial")  # unreachable
    alpha = ProjectivePoint(F, [1] + beta)
    return system, alpha
