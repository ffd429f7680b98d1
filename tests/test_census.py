import math
import random

import pytest

from strangeci.census import (
    CensusSpec,
    euler_rank_lemma_check,
    hv_monomial_basis,
    load_records,
    persist,
    phi_surjectivity_check,
    sample_hv,
    verify_singularity_theorem,
)
from strangeci.errors import BudgetExceededError, InvalidInputError
from strangeci.geometry import PolynomialSystem, ProjectivePoint, enumerate_points, singular_search
from strangeci.gf import make_field
from strangeci.hompoly import HomogeneousPolynomial, monomials_of_degree

F2 = make_field(2)
F3 = make_field(3)
# the configurations of the benchmark's census workload: (p, N, degrees, m_max)
CENSUS_CONFIGS = [(2, 3, (3,), 4), (2, 3, (2, 2), 4), (3, 3, (3,), 4), (2, 3, (4,), 2)]


class TestHvBasis:
    def test_derivative_kernel_oracle(self):
        # the basis is exactly the set of degree-e monomials killed by d/dz0
        for p, N, e in [(2, 2, 2), (2, 3, 3), (3, 2, 4), (5, 3, 3)]:
            F = make_field(p)
            expect = [
                m
                for m in monomials_of_degree(N + 1, e)
                if HomogeneousPolynomial.monomial(F, N + 1, m)
                .partial_derivative(0)
                .is_zero()
            ]
            assert hv_monomial_basis(p, N, e) == expect

    def test_fresh_list_per_call(self):
        basis = hv_monomial_basis(2, 3, 3)
        expect = list(basis)
        basis.clear()
        assert hv_monomial_basis(2, 3, 3) == expect and len(expect) == 13

    def test_count_p2_N2_e2(self):
        # z0^2, z1^2, z1z2, z2^2
        assert len(hv_monomial_basis(2, 2, 2)) == 4

    def test_dimension_binomial_identity(self):
        # #(z0-exponent = p*i) = C(e - p*i + N - 1, N - 1)
        for p, N, e in [(2, 3, 4), (3, 2, 6)]:
            expect = sum(
                math.comb(e - p * i + N - 1, N - 1) for i in range(e // p + 1)
            )
            assert len(hv_monomial_basis(p, N, e)) == expect


class TestSampling:
    def test_seed_determinism(self):
        spec = CensusSpec(p=3, N=3, degrees=(3,), count=10, seed=42)
        a = [str(S) for S in sample_hv(spec)]
        b = [str(S) for S in sample_hv(spec)]
        assert a == b
        c = [str(S) for S in sample_hv(CensusSpec(p=3, N=3, degrees=(3,), count=10, seed=43))]
        assert a != c

    def test_stream_reference(self):
        """Each generator draws one coefficient per basis monomial from random.Random(seed),
        again until one is nonzero, and keeps the nonzero ones in basis order."""
        for p, N, degrees, seed in [(2, 3, (3,), 5), (3, 3, (2, 2), 6), (2, 4, (4, 2, 2), 7)]:
            spec = CensusSpec(p=p, N=N, degrees=degrees, count=10, seed=seed)
            rng = random.Random(seed)
            for S in sample_hv(spec):
                for g, e in zip(S.gens, degrees):
                    basis = hv_monomial_basis(p, N, e)
                    while not any(coeffs := [rng.randrange(p) for _ in basis]):
                        pass
                    expect = HomogeneousPolynomial(make_field(p), N + 1, e, dict(zip(basis, coeffs)))
                    assert g == expect and list(g.terms.items()) == list(expect.terms.items())

    @pytest.mark.parametrize("p,N,degrees,m_max", CENSUS_CONFIGS)
    def test_members_carry_their_dense_rows(self, p, N, degrees, m_max):
        """Each member's preset row is the row its terms give, read-only."""
        for S in sample_hv(CensusSpec(p=p, N=N, degrees=degrees, count=20, seed=m_max)):
            for g, e in zip(S.gens, degrees):
                assert g._dense is not None and not g._dense.flags.writeable
                assert g._dense.tolist() == [g.terms.get(mo, 0) for mo in monomials_of_degree(N + 1, e)]

    def test_exhaustive_members_carry_their_dense_rows(self):
        for S in sample_hv(CensusSpec(p=3, N=2, degrees=(2,), mode="exhaustive")):
            (g,) = S.gens
            assert g._dense.tolist() == [g.terms.get(mo, 0) for mo in monomials_of_degree(3, 2)]

    def test_samples_live_in_strange_space(self):
        spec = CensusSpec(p=2, N=3, degrees=(3, 2), count=20, seed=1)
        for S in sample_hv(spec):
            assert S.degrees == (3, 2)
            assert all(g.partial_derivative(0).is_zero() for g in S.gens)

    def test_exhaustive_count(self):
        # p=2, N=2, e=2: 4 basis monomials, 2^4 - 1 nonzero vectors
        spec = CensusSpec(p=2, N=2, degrees=(2,), mode="exhaustive")
        systems = list(sample_hv(spec))
        assert len(systems) == 15
        assert len({str(S) for S in systems}) == 15

    def test_exhaustive_budget_guard(self):
        spec = CensusSpec(p=3, N=4, degrees=(4, 3), mode="exhaustive")
        with pytest.raises(BudgetExceededError):
            list(sample_hv(spec))

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            CensusSpec(p=2, N=3, degrees=(1,))
        with pytest.raises(InvalidInputError):
            CensusSpec(p=2, N=2, degrees=(2, 2))
        with pytest.raises(InvalidInputError):
            CensusSpec(p=2, N=3, degrees=(2,), mode="bogus")

    def test_excluded_case_flag(self):
        assert CensusSpec(p=2, N=4, degrees=(2,)).is_excluded_case()
        assert not CensusSpec(p=2, N=3, degrees=(2,)).is_excluded_case()
        assert not CensusSpec(p=3, N=4, degrees=(2,)).is_excluded_case()


class TestVerifyTheorem:
    @pytest.mark.parametrize("p,N,degrees,m_max", CENSUS_CONFIGS)
    def test_samples_place_no_terms_once_warm(self, p, N, degrees, m_max, monkeypatch):
        """After a warm-up pass fills the rank tables, 50 samples call monomial_rank under no name."""
        from strangeci import census, exactla, families, geometry, gf, hompoly, strangeness

        spec = CensusSpec(p=p, N=N, degrees=degrees, count=50, seed=1, m_max=m_max)
        expect = verify_singularity_theorem(spec)["summary"]
        calls, rank = [], hompoly.monomial_rank
        for mod in (census, exactla, families, geometry, gf, hompoly, strangeness):
            if hasattr(mod, "monomial_rank"):
                monkeypatch.setattr(mod, "monomial_rank", lambda *args: calls.append(args) or rank(*args))
        assert verify_singularity_theorem(spec)["summary"] == expect
        assert calls == []

    def test_small_run_all_found(self):
        spec = CensusSpec(p=2, N=3, degrees=(3,), count=25, seed=7, m_max=3)
        out = verify_singularity_theorem(spec)
        s = out["summary"]
        assert s["total"] == 25 and s["smooth_certified"] == 0
        assert s["found"] == 25 and s["unresolved"] == []
        for rec in out["records"]:
            assert rec.resolution == "found" and rec.singular_points
            assert rec.strange_locus_dim >= 1

    def test_excluded_case_unresolved(self):
        # odd-dimensional quadrics in char 2 are smooth: nothing is found
        spec = CensusSpec(p=2, N=4, degrees=(2,), count=5, seed=3, m_max=1)
        out = verify_singularity_theorem(spec, budget_per_sample=10_000)
        smooth = [r for r in out["records"] if r.strange_locus_dim >= 1]
        # the normal-form member at least stays unresolved
        assert out["summary"]["smooth_certified"] == 0

    def test_reported_points_are_singular(self):
        from strangeci.geometry import is_singular_at

        spec = CensusSpec(p=3, N=3, degrees=(3,), count=10, seed=11, m_max=2)
        out = verify_singularity_theorem(spec)
        for rec in out["records"]:
            for m, pt in rec.singular_points:
                F = make_field(3, m)
                lifted = PolynomialSystem([g.lift_to(F) for g in rec.system.gens])
                assert is_singular_at(lifted, pt)

    @pytest.mark.parametrize(
        "budget,kinds",
        [
            (1000, {"found by m_max", "found after m_max", "unresolved"}),
            (50, {"found by m_max", "unresolved"}),  # the budget runs out before m_max
        ],
    )
    def test_one_search_matches_two_passes(self, budget, kinds):
        """The one search up to 2*m_max gives the points of a search up to m_max
        followed, when that finds nothing, by a second search up to 2*m_max with
        a fresh budget."""
        spec = CensusSpec(p=2, N=3, degrees=(4,), count=30, seed=0, m_max=2)
        records = verify_singularity_theorem(spec, budget_per_sample=budget)["records"]
        reference = []
        for S in sample_hv(spec):
            points = []
            for bound in (spec.m_max, 2 * spec.m_max):
                try:
                    points = singular_search(S, bound, budget=budget, stop_early=True)
                except BudgetExceededError as exc:
                    points = list(exc.partial)
                if points:
                    break
            reference.append(points)
        assert [rec.singular_points for rec in records] == reference
        assert [rec.resolution for rec in records] == ["found" if pts else "unresolved" for pts in reference]
        seen = {
            "unresolved" if not pts else "found by m_max" if pts[0][0] <= spec.m_max else "found after m_max"
            for pts in reference
        }
        assert seen == kinds


class TestEulerRankLemma:
    def _random_member(self, rng, p, N, e, m):
        Fp = make_field(p)
        basis = hv_monomial_basis(p, N, e)
        while True:
            coeffs = [rng.randrange(p) for _ in basis]
            if any(coeffs):
                break
        f = HomogeneousPolynomial.from_coeff_vector(Fp, N + 1, e, basis, coeffs)
        return PolynomialSystem([f])

    def test_holds_on_random_instances(self):
        rng = random.Random(51)
        checked = 0
        for _ in range(300):
            p = rng.choice([2, 3])
            m = rng.choice([1, 2])
            N = rng.choice([2, 3])
            e = rng.randint(2, 4)
            S = self._random_member(rng, p, N, e, m)
            F = make_field(p, m)
            lifted = PolynomialSystem([g.lift_to(F) for g in S.gens])
            for a in enumerate_points(F, N):
                if a.coords[N] != 0 and lifted.on_zero_set(a):
                    assert euler_rank_lemma_check(lifted, a)
                    checked += 1
                    break
        assert checked > 100

    def test_preconditions(self):
        S = PolynomialSystem.parse(["z0*z1 + z2^2"], F3, 3)
        with pytest.raises(InvalidInputError):
            euler_rank_lemma_check(S, ProjectivePoint(F3, [1, 0, 0]))
        S2 = PolynomialSystem.parse(["z1^2 + z0^2"], F3, 3)
        with pytest.raises(InvalidInputError):
            # last coordinate zero
            euler_rank_lemma_check(S2, ProjectivePoint(F3, [1, 0, 0]))


class TestPhiSurjectivity:
    def test_random_triples(self):
        rng = random.Random(57)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            F = make_field(p)
            N = rng.choice([2, 3, 4])
            e = rng.randint(2, 5)
            coords = [rng.randrange(p) for _ in range(N)] + [rng.randrange(1, p)]
            a = ProjectivePoint(F, coords)
            b = [rng.randrange(p) for _ in range(N - 1)]
            assert phi_surjectivity_check(a, e, b)

    def test_preconditions(self):
        a = ProjectivePoint(F3, [1, 0, 0])
        with pytest.raises(InvalidInputError):
            phi_surjectivity_check(a, 2, [0])  # a_N = 0
        a = ProjectivePoint(F3, [1, 0, 1])
        with pytest.raises(InvalidInputError):
            phi_surjectivity_check(a, 1, [0])  # degree too small
        with pytest.raises(InvalidInputError):
            phi_surjectivity_check(a, 2, [0, 0])  # wrong target length


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        spec = CensusSpec(p=2, N=3, degrees=(3,), count=5, seed=9, m_max=2)
        path = tmp_path / "run.jsonl"
        out = verify_singularity_theorem(spec, out_path=str(path))
        header, records = load_records(str(path))
        assert header["run"]["spec"] == spec.to_dict()
        assert len(records) == 5
        for rec_dict, rec in zip(records, out["records"]):
            assert rec_dict == rec.to_dict()

    def test_streamed_file_loads_as_the_records_written_at_once(self, tmp_path):
        """The file written as the samples complete loads to the header and records that writing
        the finished run's records in one go gives; both hold the same elapsed_ms."""
        spec = CensusSpec(p=2, N=3, degrees=(2, 2), count=6, seed=4, m_max=2)
        streamed, at_once = tmp_path / "streamed.jsonl", tmp_path / "at_once.jsonl"
        records = verify_singularity_theorem(spec, out_path=str(streamed))["records"]
        persist(records, str(at_once), run_meta={"spec": spec.to_dict(), "seed": spec.seed})
        assert load_records(str(streamed)) == load_records(str(at_once))
        assert streamed.read_bytes() == at_once.read_bytes()

    def test_each_record_is_on_disk_before_the_next_is_computed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        seen = []

        def records():
            for index in range(3):
                seen.append(path.read_text().count("\n"))  # lines on disk before record index
                yield {"index": index}

        persist(records(), str(path), run_meta={"seed": 1})
        assert seen == [1, 2, 3]
        assert [r["index"] for r in load_records(str(path))[1]] == [0, 1, 2]

    def test_byte_determinism(self, tmp_path):
        spec = CensusSpec(p=2, N=3, degrees=(3,), count=5, seed=9, m_max=2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = verify_singularity_theorem(spec, out_path=str(p1))["records"]
        r2 = verify_singularity_theorem(spec, out_path=str(p2))["records"]
        # elapsed_ms may differ between runs; compare payloads modulo timing
        d1 = [dict(r.to_dict(), elapsed_ms=0) for r in r1]
        d2 = [dict(r.to_dict(), elapsed_ms=0) for r in r2]
        assert d1 == d2

    def test_sampled_spec_reports_count_and_seed(self, tmp_path):
        spec = CensusSpec(p=2, N=3, degrees=(3,), count=5, seed=9, m_max=2)
        assert spec.to_dict() == {"p": 2, "N": 3, "degrees": [3], "mode": "sample", "count": 5, "seed": 9, "m_max": 2}
        path = tmp_path / "run.jsonl"
        verify_singularity_theorem(spec, out_path=str(path))
        run = load_records(str(path))[0]["run"]
        assert run["seed"] == 9 and run["spec"] == spec.to_dict()

    def test_exhaustive_spec_leaves_out_count_and_seed(self, tmp_path):
        """An exhaustive census draws nothing: its summary and file header carry no count or seed."""
        spec = CensusSpec(p=2, N=2, degrees=(2,), mode="exhaustive", count=100, seed=4, m_max=1)
        assert spec.to_dict() == {"p": 2, "N": 2, "degrees": [2], "mode": "exhaustive", "m_max": 1}
        path = tmp_path / "run.jsonl"
        out = verify_singularity_theorem(spec, out_path=str(path))
        assert out["summary"]["spec"] == spec.to_dict() and out["summary"]["total"] == 15
        run = load_records(str(path))[0]["run"]
        assert "seed" not in run and run["spec"] == spec.to_dict()

    def test_header_carries_package_version(self, tmp_path):
        import strangeci

        path = tmp_path / "run.jsonl"
        persist([], str(path), run_meta={"seed": 1})
        assert load_records(str(path))[0]["run"] == {"seed": 1, "version": strangeci.__version__}

    def test_non_run_file_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"index": 0}\n')
        with pytest.raises(InvalidInputError):
            load_records(str(path))
