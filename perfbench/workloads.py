"""The benchmark's four workloads: seeded inputs, one operation each, and its output check.

Each workload is a fixed pool of ``pool_size`` operations, run in passes by
a closed loop with one caller: operation i+1 is issued when operation i
returns.  Building a workload object is the set-up the benchmark times
(cold construction of every field it touches plus input generation);
``run`` is one operation and calls strangeci's public API through module
attributes looked up at call time, so the tracer's wrappers see every call;
``check`` verifies the output of one operation and is never timed.

``tiny=True`` selects small inputs of the same shape for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from strangeci import census, exactla, families, geometry, gf, hompoly, strangeness


class Workload:
    name = ""
    item = "op"  # what the throughput counts
    pool_size = 1  # operations in one pass; the traced run makes one pass
    min_passes = 2  # a run makes at least this many passes over the pool
    timing = "mean"  # an operation's time over the passes: "mean" or "best" (see worker.py)
    tail_pct = 99.0  # fixed per workload so runs compare like with like

    def input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def work(self, inp, result) -> int:
        return 1

    def outcome(self, inp, result) -> str:
        """A canonical text form of the output, for determinism checks."""
        return repr(result)


def digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


# -- census ---------------------------------------------------------------


class Census(Workload):
    """One operation = one sample: verify_singularity_theorem with count=1.

    The three acceptance configurations at m_max=4, and (2, 3, (4,)) at
    m_max=2, which escalates to 2*m_max=4 for about 4% of samples and leaves
    most of those unresolved, in rotation.  The pool is large because a few
    percent of samples take most of the time: with 2500 samples the
    throughput still spreads about 5% across seeds.
    """

    name = "census"
    item = "sample"
    tail_pct = 99.0  # 25 beyond; p99.5 and up follow a handful of rare samples
    CONFIGS = [(2, 3, (3,), 4), (2, 3, (2, 2), 4), (3, 3, (3,), 4), (2, 3, (4,), 2)]
    TINY = [(2, 3, (3,), 2), (2, 3, (2, 2), 2), (3, 3, (3,), 1), (2, 3, (4,), 1)]

    def __init__(self, seed: int, tiny: bool = False):
        configs = self.TINY if tiny else self.CONFIGS
        for p, _, _, m_max in configs:
            for m in range(1, 2 * m_max + 1):
                gf.make_field(p, m)
        rng = random.Random(f"census:{seed}")
        self.pool = []
        for i in range(8 if tiny else 2500):
            p, N, degrees, m_max = configs[i % len(configs)]
            self.pool.append(census.CensusSpec(p, N, degrees, count=1, seed=rng.randrange(1 << 62), m_max=m_max))
        self.pool_size = len(self.pool)

    def input(self, i: int) -> census.CensusSpec:
        return self.pool[i]

    def run(self, spec: census.CensusSpec):
        return census.verify_singularity_theorem(spec)

    def check(self, spec, result):
        summary, records = result["summary"], result["records"]
        if summary["total"] != spec.count or len(records) != spec.count:
            return f"total {summary['total']} != {spec.count} samples"
        if summary["smooth_certified"] != 0:
            return "smooth_certified is not 0"
        if summary["found"] + len(summary["unresolved"]) != summary["total"]:
            return "found + unresolved != total"
        for rec in records:
            if (rec.resolution == "found") != bool(rec.singular_points):
                return f"record {rec.index}: resolution {rec.resolution} with {len(rec.singular_points)} points"
            for m, pt in rec.singular_points:
                if pt.field != gf.make_field(spec.p, m):
                    return f"point {pt} is not over GF({spec.p}^{m})"
                if pt.minimal_subfield_degree() != m:
                    return f"point {pt} is not at its minimal field of definition"
                if not geometry.is_singular_at(rec.system, pt):
                    return f"point {pt} is not singular"
        return None

    def outcome(self, spec, result) -> str:
        return json.dumps([[r.resolution, [f"{m}:{pt}" for m, pt in r.singular_points]]
                           for r in result["records"]])


# -- search ---------------------------------------------------------------


class Search(Workload):
    """One operation = singular_search on a smooth quadric in P^4 over GF(5), m_max=2.

    Each quadric is the normal form quadric_normal_form(4, 5) moved by a
    seeded monomial matrix (a permutation of the coordinates times a nonzero
    diagonal), so it keeps the normal form's sparsity and its smoothness:
    the right answer is [].  A search enumerates 407 682 points over GF(5)
    and GF(25), about 4% of them zero-set survivors.  The pool holds six
    quadrics; one search takes about 0.25 s, so a run repeats each many
    times.  The roadmap names the N=5 search (10.2 M points) as the hot
    path; N=4 runs the same filter and survivor code on a 25x smaller
    input, short enough to repeat and to calibrate around.
    """

    name = "search"
    item = "point"
    tail_pct = 100.0  # six operations: the tail is the slowest search
    POOL = 6

    def __init__(self, seed: int, tiny: bool = False):
        N, p, self.m_max = (3, 3, 2) if tiny else (4, 5, 2)
        for m in range(1, self.m_max + 1):
            gf.make_field(p, m)
        rng = random.Random(f"search:{seed}")
        base = families.quadric_normal_form(N, p)
        self.pool = []
        for _ in range(self.POOL):
            perm = rng.sample(range(N + 1), N + 1)
            rows = [[rng.randrange(1, p) if j == perm[i] else 0 for j in range(N + 1)] for i in range(N + 1)]
            self.pool.append(base.linear_change(rows))
        self.pool_size = len(self.pool)
        self.points = sum((p ** (m * (N + 1)) - 1) // (p**m - 1) for m in range(1, self.m_max + 1))

    def input(self, i: int) -> geometry.PolynomialSystem:
        return self.pool[i]

    def run(self, system):
        return geometry.singular_search(system, m_max=self.m_max)

    def check(self, system, result):
        return None if result == [] else f"smooth quadric reported singular points {result[:3]}"

    def work(self, system, result) -> int:
        return self.points


# -- decide ---------------------------------------------------------------


@dataclass
class DecideSystem:
    """A system S whose vertex v = A e0 is the image of e0 under a seeded invertible A.

    S is strange for v exactly when S.linear_change(A) is strange for e0.
    """

    system: geometry.PolynomialSystem
    vertex: geometry.ProjectivePoint
    A: exactla.MatrixOverField
    unmoved: geometry.PolynomialSystem | None  # S.linear_change(A), when known at set-up

    @property
    def strange_by_construction(self) -> bool:
        return self.unmoved is not None


@dataclass(frozen=True)
class DecideOp:
    index: int  # into Decide.systems
    kind: str  # "strange", "locus" or "cone"


class Decide(Workload):
    """One operation = one decision on a system whose vertex is not e0.

    Per system: is_strange_for, strange_locus and is_cone_with_vertex.
    Per configuration, two systems are members of the strange parameter
    space (strange for e0) moved by a seeded invertible matrix, and two have
    every monomial's coefficient random.  A random system moved by a fixed
    matrix is again a random system, so those are drawn directly; the
    unmoved form the check compares against is computed by the check.  With
    one system of each kind per configuration the throughput spread 12%
    across seeds: the strange and cone decisions on a strange-space member
    stop early or late depending on the member.
    """

    name = "decide"
    item = "decision"
    min_passes = 3  # each operation's mean is over at least three passes
    tail_pct = 83.3  # 60 decisions: the highest percentile with ten beyond it
    CONFIGS = [(2, 9, (2, 4)), (3, 9, (2, 4)), (3, 6, (2, 5)), (2, 8, (2, 2, 4)), (5, 5, (2, 5))]
    TINY = [(2, 3, (2, 3)), (3, 3, (3,))]
    PER_KIND = 2
    KINDS = ("strange", "locus", "cone")

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"decide:{seed}")
        self.systems: list[DecideSystem] = []
        for p, N, degrees in self.TINY if tiny else self.CONFIGS:
            F = gf.make_field(p)
            spec = census.CensusSpec(p, N, degrees, count=self.PER_KIND, seed=rng.randrange(1 << 62))
            for hv in census.sample_hv(spec):
                A = self._invertible(F, N + 1, rng)
                self.systems.append(self._at(hv.linear_change(exactla.invert(A).rows), A, hv))
            for _ in range(self.PER_KIND):
                A = self._invertible(F, N + 1, rng)
                self.systems.append(self._at(self._generic(F, N, degrees, rng), A, None))
        self.pool_size = len(self.systems) * len(self.KINDS)
        self._reference: dict[int, tuple[bool, int, bool]] = {}

    @staticmethod
    def _invertible(F, n1, rng) -> exactla.MatrixOverField:
        while True:
            A = exactla.MatrixOverField(F, [[rng.randrange(F.p) for _ in range(n1)] for _ in range(n1)])
            if exactla.rank(A) == n1:
                return A

    @staticmethod
    def _at(S, A, unmoved) -> DecideSystem:
        return DecideSystem(S, geometry.ProjectivePoint(S.field, [row[0] for row in A.rows]), A, unmoved)

    @staticmethod
    def _generic(F, N, degrees, rng) -> geometry.PolynomialSystem:
        gens = []
        for e in degrees:
            basis = hompoly.monomials_of_degree(N + 1, e)
            coeffs = [0]
            while not any(coeffs):
                coeffs = [rng.randrange(F.p) for _ in basis]
            gens.append(hompoly.HomogeneousPolynomial.from_coeff_vector(F, N + 1, e, basis, coeffs))
        return geometry.PolynomialSystem(gens)

    def input(self, i: int) -> DecideOp:
        return DecideOp(i // len(self.KINDS), self.KINDS[i % len(self.KINDS)])

    def run(self, inp: DecideOp):
        ds = self.systems[inp.index]
        if inp.kind == "strange":
            return strangeness.is_strange_for(ds.system, ds.vertex).verdict
        if inp.kind == "locus":
            return strangeness.strange_locus(ds.system)
        return strangeness.is_cone_with_vertex(ds.system, ds.vertex)

    def reference(self, index: int) -> tuple[bool, int, bool]:
        """Verdicts of the unmoved system at e0: strange, locus dimension, cone."""
        if index not in self._reference:
            ds = self.systems[index]
            S = ds.unmoved if ds.unmoved is not None else ds.system.linear_change(ds.A.rows)
            e0 = geometry.ProjectivePoint(S.field, [1] + [0] * S.n)
            self._reference[index] = (
                strangeness.is_strange_for(S, e0).verdict,
                strangeness.strange_locus(S).dim,
                strangeness.is_cone_with_vertex(S, e0),
            )
        return self._reference[index]

    def check(self, inp, result):
        ds = self.systems[inp.index]
        strange, locus_dim, cone = self.reference(inp.index)
        if ds.strange_by_construction and not strange:
            return "strange-space member is not strange for e0"
        if inp.kind == "strange" and result != strange:
            return f"verdict {result} at the moved vertex, {strange} at e0 before the move"
        if inp.kind == "cone" and result != cone:
            return f"cone verdict {result} at the moved vertex, {cone} at e0 before the move"
        if inp.kind == "locus":
            if result.dim != locus_dim:
                return f"strange locus of dimension {result.dim}, {locus_dim} before the move"
            if result.subspace.contains(list(ds.vertex.coords)) != strange:
                return "strange locus disagrees with the strangeness verdict at the vertex"
        return None

    def outcome(self, inp, result) -> str:
        if inp.kind == "locus":
            return json.dumps(result.to_dict())
        return repr(result)


# -- gauss ----------------------------------------------------------------


@dataclass(frozen=True)
class GaussOp:
    system: geometry.PolynomialSystem
    point: geometry.ProjectivePoint


class Gauss(Workload):
    """One operation = gauss_map + tangent_space at a smooth point over a large field.

    The hypersurfaces are strange_hypersurface_p_divides (strange for e0,
    singular only at (0:...:0:1)).  Each point takes random z_0..z_{N-1}
    with z_{N-1} != 0 and solves f = 0 for z_N, so it is smooth.
    """

    name = "gauss"
    item = "tangent"
    timing = "best"  # about 0.1 ms an operation, a tenth of a reference reading
    tail_pct = 99.0  # 20 beyond
    POINTS_PER_CONFIG = 500
    CONFIGS = [(2, 16, 3, 4), (2, 16, 5, 6), (3, 10, 3, 3), (3, 10, 4, 6)]
    TINY = [(2, 4, 3, 4), (2, 4, 5, 6), (3, 2, 3, 3), (3, 2, 4, 6)]

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"gauss:{seed}")
        configs = self.TINY if tiny else self.CONFIGS
        per = 8 if tiny else self.POINTS_PER_CONFIG
        pools = []
        for p, m, N, e in configs:
            F = gf.make_field(p, m)
            S = families.strange_hypersurface_p_divides(N, e, p)
            pools.append([GaussOp(S, self._point(S.gens[0], F, N, e, rng)) for _ in range(per)])
        self.pool = [op for ops in zip(*pools) for op in ops]
        self.pool_size = len(self.pool)

    @staticmethod
    def _point(f, F, N, e, rng) -> geometry.ProjectivePoint:
        # f = z_N z_{N-1}^(e-1) + (terms free of z_N), so z_N is determined
        coords = [rng.randrange(F.order) for _ in range(N - 1)] + [rng.randrange(1, F.order)]
        rest = f.evaluate(coords + [0], F)
        z_n = F.neg(F.div(rest, F.pow(coords[-1], e - 1)))
        return geometry.ProjectivePoint(F, coords + [z_n])

    def input(self, i: int) -> GaussOp:
        return self.pool[i]

    def run(self, inp: GaussOp):
        return (geometry.gauss_map(inp.system.gens[0], inp.point),
                geometry.tangent_space(inp.system, inp.point))

    def check(self, inp, result):
        image, tangent = result
        n1 = inp.system.n + 1
        if image.coords[0] != 0:
            return f"Gauss image {image} has nonzero z0-coordinate"
        if not tangent.contains([1] + [0] * (n1 - 1)):
            return f"tangent space at {inp.point} misses e0"
        F = inp.point.field
        for b in tangent.basis:
            acc = 0
            for g, x in zip(image.coords, b):
                acc = F.add(acc, F.mul(g, x))
            if acc:
                return f"tangent space at {inp.point} is not the Gauss image's hyperplane"
        return None

    def outcome(self, inp, result) -> str:
        image, tangent = result
        return f"{image} {tangent.basis}"


WORKLOADS = {w.name: w for w in (Census, Search, Decide, Gauss)}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
