"""Sampling of the strange parameter space and the singularity census.

The parameter space for vertex v = (1:0:...:0) consists of generator
tuples whose z_0-partials all vanish; its monomial basis in degree e is
the set of degree-e monomials whose z_0-exponent is divisible by p.  The
census samples (or exhausts) members, hunts for singular points over
bounded field extensions, and writes JSONL records.  Unresolved is a
first-class outcome: the search proves singularity when it finds a point
and never certifies smoothness.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import __version__
from .errors import BudgetExceededError, InvalidInputError
from .exactla import MatrixOverField, rank
from .gf import Field, _digits, make_field
from .geometry import PolynomialSystem, ProjectivePoint, jacobian_full, singular_search
from .hompoly import HomogeneousPolynomial, Monomial, _monomial_array, format_poly, monomial_count
from .strangeness import strange_locus

EXHAUSTIVE_BUDGET = 1_000_000


@dataclass(frozen=True)
class CensusSpec:
    p: int
    N: int
    degrees: tuple[int, ...]
    mode: str = "sample"  # "sample" or "exhaustive"
    count: int = 100
    seed: int = 0
    m_max: int = 3

    def __post_init__(self):
        if any(e < 2 for e in self.degrees):
            raise InvalidInputError("census degrees must all be >= 2")
        if len(self.degrees) > self.N - 1:
            raise InvalidInputError("need r <= N-1 for a positive-dimensional scheme")
        if self.mode not in ("sample", "exhaustive"):
            raise InvalidInputError(f"unknown census mode {self.mode!r}")
        for e in self.degrees:  # a member's dense row holds every monomial of its degree
            monomial_count(self.N + 1, e)

    def is_excluded_case(self) -> bool:
        """The odd-dimensional quadric space in characteristic 2."""
        return self.p == 2 and self.degrees == (2,) and self.N % 2 == 0

    def to_dict(self) -> dict:
        """The spec as JSON; ``count`` and ``seed`` only for a sampled census, as an exhaustive one uses neither."""
        out = {"p": self.p, "N": self.N, "degrees": list(self.degrees), "mode": self.mode, "m_max": self.m_max}
        if self.mode == "sample":
            out.update(count=self.count, seed=self.seed)
        return out


@dataclass
class CensusRecord:
    index: int
    system: PolynomialSystem
    strange_locus_dim: int
    singular_points: list[tuple[int, ProjectivePoint]]
    resolution: str  # "found" or "unresolved"
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "generators": [format_poly(g) for g in self.system.gens],
            "degrees": list(self.system.degrees),
            "p": self.system.field.p,
            "N": self.system.n,
            "strange_locus_dim": self.strange_locus_dim,
            "singular_points": [{"m": m, "point": str(pt)} for m, pt in self.singular_points],
            "resolution": self.resolution,
            "elapsed_ms": self.elapsed_ms,
        }


def hv_monomial_basis(p: int, N: int, e: int) -> list[Monomial]:
    """Degree-e monomials whose z_0-exponent is divisible by p.

    This is exactly the kernel basis of f -> f_{z_0} on the degree-e
    monomial space; graded-lex ordered, z_0 greatest.
    """
    return list(_hv_basis(p, N, e))


@functools.lru_cache(maxsize=64)
def _hv_ranks(p: int, N: int, e: int) -> np.ndarray:
    """The ranks in ``monomials_of_degree(N + 1, e)`` of the basis monomials, those whose
    z_0-exponent p divides."""
    if e < 1:
        raise InvalidInputError("degree must be >= 1")
    return np.flatnonzero(_monomial_array(N + 1, e)[:, 0] % p == 0)


@functools.lru_cache(maxsize=64)
def _hv_basis(p: int, N: int, e: int) -> tuple[Monomial, ...]:
    """The basis monomials as exponent tuples, in the order of ``_hv_ranks``."""
    return tuple(map(tuple, _monomial_array(N + 1, e)[_hv_ranks(p, N, e)].tolist()))


def _member(F: Field, N: int, e: int, coeffs: list[int]) -> HomogeneousPolynomial:
    """The generator with the given coefficients on the basis monomials, zero ones left out of
    its term map, and its dense row placed at the basis ranks."""
    row = np.zeros(monomial_count(N + 1, e), dtype=np.int64)
    row[_hv_ranks(F.p, N, e)] = coeffs
    terms = {mono: c for mono, c in zip(_hv_basis(F.p, N, e), coeffs) if c}
    return HomogeneousPolynomial._trusted(F, N + 1, e, terms, dense=row)


def sample_hv(spec: CensusSpec) -> Iterator[PolynomialSystem]:
    """Stream members of the strange parameter space.

    The sampled stream is a pure function of (seed, spec); generators with
    all-zero coefficient vectors are skipped (resampled or, exhaustively,
    excluded from the product).
    """
    F = make_field(spec.p)
    sizes = [len(_hv_ranks(spec.p, spec.N, e)) for e in spec.degrees]
    if spec.mode == "exhaustive":
        total = 1
        for size in sizes:
            total *= spec.p ** size - 1
        if total > EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(
                f"exhaustive census of {total} members exceeds budget {EXHAUSTIVE_BUDGET}"
            )
        ranges = [range(1, spec.p ** size) for size in sizes]
        for combo in itertools.product(*ranges):
            gens = [_member(F, spec.N, e, _digits(c, spec.p, size)) for c, size, e in zip(combo, sizes, spec.degrees)]
            yield PolynomialSystem(gens)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.count):
            gens = []
            for size, e in zip(sizes, spec.degrees):
                while True:
                    coeffs = [rng.randrange(spec.p) for _ in range(size)]
                    if any(coeffs):
                        break
                gens.append(_member(F, spec.N, e, coeffs))
            yield PolynomialSystem(gens)


def verify_singularity_theorem(
    spec: CensusSpec,
    budget_per_sample: int = 4_000_000,
    out_path: str | None = None,
) -> dict:
    """Empirically verify that every sampled member defines a singular scheme.

    Each member is searched once, over GF(p^m) for m = 1..2*m_max, stopping
    at the first extension degree with a singular point; exhausting
    ``budget_per_sample`` points first yields an unresolved record.  The
    summary counts outcomes and always reports zero smooth certifications
    (the search cannot certify smoothness).  With ``out_path`` the file is opened, and its
    header written, before the first sample is drawn, and each record is written as it completes.
    """
    records: list[CensusRecord] = []

    def run() -> Iterator[CensusRecord]:
        for index, S in enumerate(sample_hv(spec)):
            t0 = time.monotonic()
            locus_dim = strange_locus(S).dim
            try:
                points = singular_search(S, 2 * spec.m_max, budget=budget_per_sample, stop_early=True)
            except BudgetExceededError as exc:
                points = list(exc.partial)  # empty: stop_early returns once a point is found
            resolution = "found" if points else "unresolved"
            elapsed_ms = int((time.monotonic() - t0) * 1000)
            records.append(CensusRecord(index, S, locus_dim, points, resolution, elapsed_ms))
            yield records[-1]

    if out_path is None:
        for _ in run():
            pass
    else:
        run_meta = {"spec": spec.to_dict()}
        if spec.mode == "sample":  # an exhaustive census draws nothing
            run_meta["seed"] = spec.seed
        persist(run(), out_path, run_meta=run_meta)
    unresolved = [r.index for r in records if r.resolution == "unresolved"]
    summary = {
        "spec": spec.to_dict(),
        "excluded_case": spec.is_excluded_case(),
        "total": len(records),
        "found": len(records) - len(unresolved),
        "unresolved": unresolved,
        "unresolved_fraction": (len(unresolved) / len(records)) if records else 0.0,
        "smooth_certified": 0,
    }
    return {"summary": summary, "records": records}


def euler_rank_lemma_check(S: PolynomialSystem, a: ProjectivePoint) -> bool:
    """Self-test of the last-column dependence of the Jacobian.

    For a member of the strange parameter space and a zero point a with
    a_N != 0, the last column of D is the explicit combination
    -sum_j (a_j / a_N) * column_j of the others; consequently
    rank D = rank D'.  Returns True when both hold (always, per theorem).
    """
    for k, g in enumerate(S.gens):
        if not g.partial_derivative(0).is_zero():
            raise InvalidInputError(f"generator {k} has nonzero z0-partial")
    F = a.field
    N = S.n
    if a.coords[N] == 0:
        raise InvalidInputError("point must have nonzero last coordinate")
    if not S.on_zero_set(a):
        raise InvalidInputError("point must lie on the zero set")
    J = jacobian_full(S, a)
    D = MatrixOverField._trusted(F, [row[1:] for row in J.rows], N)
    inv_aN = F.inv(a.coords[N])
    for row in D.rows:
        acc = 0
        for j in range(1, N):
            acc = F.add(acc, F.mul(F.mul(a.coords[j], inv_aN), row[j - 1]))
        if row[N - 1] != F.neg(acc):
            return False
    return rank(D) == rank(MatrixOverField._trusted(F, [row[1:-1] for row in J.rows], N - 1))


def phi_surjectivity_check(a: ProjectivePoint, e: int, b: list[int]) -> bool:
    """Self-test of the explicit preimage of the derivative-evaluation map.

    For a with a_N != 0 and targets b_1..b_{N-1} (read by Field.read), the polynomial
    f = sum_j b_j / a_N^(e-1) * z_j * z_N^(e-1) is z_0-free (hence in the
    strange space) and satisfies f_{z_j}(a) = b_j.  Returns True when the
    reproduction is exact (always, per the construction).
    """
    if e < 2:
        raise InvalidInputError("degree must be >= 2")
    F = a.field
    N = a.n
    if a.coords[N] == 0:
        raise InvalidInputError("point must have nonzero last coordinate")
    if len(b) != N - 1:
        raise InvalidInputError(f"need {N - 1} target values")
    b = F.encode(b)
    scale = F.inv(F.pow(a.coords[N], e - 1))
    monos = [tuple(int(i == j) + (e - 1) * (i == N) for i in range(N + 1)) for j in range(1, N)]
    f = HomogeneousPolynomial(F, N + 1, e, {mono: F.mul(bj, scale) for mono, bj in zip(monos, b)})
    return f.partial_derivative(0).is_zero() and f._gradient(a.coords, F)[1:N] == b


def persist(records, path: str, run_meta: dict | None = None) -> None:
    """Write one JSON object per line, preceded by a run metadata header.  The file is opened and
    the header flushed before the first record is asked for, and each record is flushed as it
    comes, so ``records`` may be a generator that computes them."""
    header = {"run": dict(run_meta or {})}
    header["run"].setdefault("version", __version__)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.flush()
        for rec in records:
            obj = rec.to_dict() if isinstance(rec, CensusRecord) else rec
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
            fh.flush()


def load_records(path: str) -> tuple[dict, list[dict]]:
    """Reload a persisted census run: (header, record dicts)."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "run" not in lines[0]:
        raise InvalidInputError(f"{path} is not a census run file")
    return lines[0], lines[1:]
