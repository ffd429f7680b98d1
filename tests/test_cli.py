import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strangeci.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    build_parser,
    main,
)
from strangeci.families import quadric_normal_form
from strangeci.geometry import ProjectivePoint
from strangeci.gf import make_field
from strangeci.strangeness import is_strange_for, strange_locus


REPO_ROOT = Path(__file__).resolve().parents[1]
VERIFY_ARGV = ["verify", "--suite", "quadric-table"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_verify_ok(proc):
    """The console script exited 0 with exactly one JSON document saying ok."""
    assert proc.returncode == EXIT_OK, proc.stderr
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == "", "stdout holds more than one document"
    assert doc["ok"] is True


class TestStrangeCheck:
    def test_char2_conic_verdict_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "strange-check",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--vertex", "(1:0:0)",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        F2 = make_field(2)
        rep = is_strange_for(quadric_normal_form(2, 2), ProjectivePoint(F2, [1, 0, 0]))
        assert doc == rep.to_dict()
        assert doc["verdict"] is True

    def test_negative_verdict_still_exit_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "strange-check",
            "--char", "3", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--vertex", "(1:0:0)",
        )
        assert code == EXIT_OK and json.loads(out)["verdict"] is False

    def test_pretty_output_parses(self, capsys):
        code, out, _ = run(
            capsys,
            "strange-check", "--pretty",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--vertex", "(1:0:0)",
        )
        assert code == EXIT_OK and json.loads(out)["verdict"] is True
        assert "\n" in out.strip()


class TestStrangeLocus:
    def test_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "strange-locus",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
        )
        assert code == EXIT_OK
        assert json.loads(out) == strange_locus(quadric_normal_form(2, 2)).to_dict()


class TestNormalize:
    def test_known_example(self, capsys):
        code, out, _ = run(
            capsys,
            "normalize",
            "--char", "2", "--n", "2",
            "--poly", "z0*z1 + z2^2",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"normalized": ["z2^2"]}

    def test_normalize_system_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "normalize-system",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
        )
        assert code == EXIT_OK and json.loads(out)["ideal_equal"] is True


class TestConeAndSearch:
    def test_cone_check(self, capsys):
        code, out, _ = run(
            capsys,
            "cone-check",
            "--char", "5", "--n", "3",
            "--poly", "z1^3 + z2^3 + z3^3",
            "--vertex", "(1:0:0:0)",
        )
        assert code == EXIT_OK and json.loads(out)["cone"] is True

    def test_singular_search_family(self, capsys):
        code, out, _ = run(
            capsys,
            "singular-search",
            "--char", "2", "--n", "2", "--ext-bound", "2",
            "--poly", "z2*z1^3 + z0^4",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"singular_points": [{"m": 1, "point": "(0:0:1)"}]}

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("STRANGECI_BUDGET", "10")
        code, out, err = run(
            capsys,
            "singular-search",
            "--char", "2", "--n", "3", "--ext-bound", "4",
            "--poly", "z0*z1 + z2*z3",
        )
        assert code == EXIT_BUDGET and out == "" and "budget" in err


class TestTangentAndGauss:
    def test_tangent(self, capsys):
        code, out, _ = run(
            capsys,
            "tangent",
            "--char", "3", "--n", "2",
            "--poly", "z0*z1 + z2^2",
            "--point", "(1:0:0)",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dim"] == 2

    def test_gauss(self, capsys):
        code, out, _ = run(
            capsys,
            "gauss",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--point", "(1:1:1)",
        )
        assert code == EXIT_OK and json.loads(out) == {"dual_point": "(0:1:1)"}


class TestFamilyCommand:
    def test_quadric(self, capsys):
        code, out, _ = run(capsys, "family", "--id", "quadric", "--char", "2", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "generators": ["z0^2 + z1*z2"],
            "degrees": [2],
            "p": 2,
            "N": 2,
        }

    def test_p_divides(self, capsys):
        code, out, _ = run(
            capsys, "family", "--id", "p-divides", "--char", "2", "--n", "2", "--e", "4"
        )
        assert code == EXIT_OK and json.loads(out)["degrees"] == [4]

    def test_bad_family_params(self, capsys):
        code, _, err = run(
            capsys, "family", "--id", "p-divides", "--char", "2", "--n", "2", "--e", "5"
        )
        assert code == EXIT_INVALID and err


class TestCensusCommand:
    def test_small_census(self, capsys, tmp_path):
        out_path = tmp_path / "census.jsonl"
        code, out, _ = run(
            capsys,
            "census",
            "--char", "2", "--n", "3", "--degrees", "3",
            "--samples", "10", "--seed", "5", "--ext-bound", "2",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["total"] == 10 and doc["smooth_certified"] == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 11  # header + 10 records
        assert "run" in json.loads(lines[0])

    def test_degree_past_the_monomial_budget(self, capsys):
        """Rejected by the spec before any monomial is enumerated, not by a MemoryError."""
        code, out, err = run(capsys, "census", "--char", "2", "--n", "3", "--degrees", "99999999999", "--samples", "1")
        assert code == EXIT_BUDGET and out == "" and err.count("\n") == 1
        assert err.startswith("error: degree 99999999999 in 4 variables has more than 1000000 monomials")

    def test_unwritable_out_fails_before_any_sample(self, capsys, monkeypatch, tmp_path):
        drawn = []
        monkeypatch.setattr("strangeci.census.sample_hv", lambda spec: drawn.append(spec) or iter(()))
        code, out, err = run(
            capsys, "census", "--char", "2", "--n", "3", "--degrees", "3", "--samples", "50",
            "--out", str(tmp_path / "missing" / "run.jsonl"),
        )
        assert code == EXIT_INVALID and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert drawn == []

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("strangeci.cli.verify_singularity_theorem", exhausted)
        code, out, err = run(capsys, "census", "--char", "2", "--n", "3", "--degrees", "3", "--samples", "1")
        assert code == EXIT_BUDGET and out == "" and err == "error: out of memory\n"


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite,samples",
        [("euler", 50), ("lemma-rank", 30), ("phi-surjectivity", 50), ("quadric-table", 1)],
    )
    def test_suites_pass(self, capsys, suite, samples):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--samples", str(samples)
        )
        assert code == EXIT_OK and json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "suite, check",
        [("lemma-rank", "euler_rank_lemma_check"), ("phi-surjectivity", "phi_surjectivity_check"),
         ("cone-corollary", "cone_corollary_check")],
    )
    def test_a_failed_check_exits_1(self, capsys, monkeypatch, suite, check):
        """One failed sample makes ok false and the exit code 1; every sample is still counted."""
        results = iter([True, False])
        monkeypatch.setattr(f"strangeci.cli.{check}", lambda *args: next(results, True))
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", "5")
        assert code == EXIT_CHECK_FAILED and err == ""
        assert json.loads(out) == {"suite": suite, "checked": 5, "ok": False}

    def test_cone_corollary_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "cone-corollary", "--samples", "10"
        )
        assert code == EXIT_OK and json.loads(out)["checked"] == 10


class TestInputHandling:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("2 2 2\nz0^2 + z1*z2\n")
        code, out, _ = run(
            capsys,
            "strange-locus", "--char", "2", "--n", "2", "--in", str(path),
        )
        assert code == EXIT_OK and json.loads(out)["dim"] == 1

    def test_file_header_mismatch(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("3 2 2\nz0^2 + z1*z2\n")
        code, _, err = run(
            capsys,
            "strange-locus", "--char", "2", "--n", "2", "--in", str(path),
        )
        assert code == EXIT_INVALID and "header" in err

    @pytest.mark.parametrize("header", ["", "x 3", "2"], ids=["empty", "not-an-integer", "one-field"])
    def test_bad_file_header_one_error_line(self, capsys, tmp_path, header):
        path = tmp_path / "system.txt"
        path.write_text(header + "\n")
        code, out, err = run(
            capsys,
            "strange-locus", "--char", "2", "--n", "2", "--in", str(path),
        )
        self.assert_one_error_line(code, out, err)
        assert "header must start with the integers p N" in err

    def test_non_utf8_file_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_bytes(b"2 2\n\xff\xfe z0\n")
        code, out, err = run(
            capsys,
            "strange-locus", "--char", "2", "--n", "2", "--in", str(path),
        )
        self.assert_one_error_line(code, out, err)
        assert "is not UTF-8 text" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [["census", "--char", "2", "--n", "3", "--degrees", "2"], ["verify", "--suite", "euler"]],
        ids=["census", "verify"],
    )
    def test_samples_below_one_is_a_usage_error(self, capsys, argv, samples):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--samples", samples])
        out = capsys.readouterr()
        self.assert_one_error_line(exc.value.code, out.out, out.err)
        assert "argument --samples: must be an integer of at least 1" in out.err

    @pytest.mark.parametrize("coord", ["t^", "t^x", "t^-1", "*t"])
    @pytest.mark.parametrize("cmd, flag", [("tangent", "--point"), ("strange-check", "--vertex")])
    def test_malformed_coordinate_one_error_line(self, capsys, cmd, flag, coord):
        code, out, err = run(
            capsys,
            cmd, "--char", "2", "--ext", "2", "--n", "2",
            "--poly", "z0^2+z1*z2", f"{flag}=(1:{coord}:1)",
        )
        self.assert_one_error_line(code, out, err)
        assert "cannot parse" in err

    def test_ext_only_where_a_point_is_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strange-locus", "--char", "2", "--n", "2", "--poly", "z0", "--ext", "2"])
        out = capsys.readouterr()
        self.assert_one_error_line(exc.value.code, out.out, out.err)
        assert "unrecognized arguments: --ext 2" in out.err
        # argparse takes --ext as an abbreviation where a longer flag starts with it
        args = build_parser().parse_args(
            ["singular-search", "--char", "2", "--n", "2", "--poly", "z0", "--ext", "1"]
        )
        assert args.ext_bound == 1 and not hasattr(args, "ext")
        for cmd in ("strange-check", "cone-check", "tangent", "gauss", "family"):
            point = {"family": ["--id", "cone"], "tangent": ["--point", "(1:0:0)"],
                     "gauss": ["--point", "(1:0:0)"]}.get(cmd, ["--vertex", "(1:0:0)"])
            args = build_parser().parse_args([cmd, "--char", "2", "--n", "2", "--ext", "2", *point])
            assert args.ext == 2

    def test_no_generators(self, capsys):
        code, _, err = run(capsys, "strange-locus", "--char", "2", "--n", "2")
        assert code == EXIT_INVALID and err

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys,
            "strange-locus", "--char", "2", "--n", "2", "--poly", "z0 + z1^2",
        )
        assert code == EXIT_INVALID and err

    @staticmethod
    def assert_one_error_line(code, out, err):
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_family_without_degree(self, capsys):
        code, out, err = run(capsys, "family", "--id", "p-divides", "--char", "2", "--n", "3")
        self.assert_one_error_line(code, out, err)
        assert "--e" in err

    def test_census_degrees_not_integers(self, capsys):
        code, out, err = run(
            capsys, "census", "--char", "2", "--n", "3", "--degrees", "a", "--samples", "1"
        )
        self.assert_one_error_line(code, out, err)
        assert "--degrees" in err

    def test_vertex_bad_field_prefix(self, capsys):
        code, out, err = run(
            capsys,
            "strange-check",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--vertex", "@GF(x)(1:0:0)",
        )
        self.assert_one_error_line(code, out, err)
        assert "@GF(p^m)" in err

    def test_vertex_wrong_length(self, capsys):
        code, out, err = run(
            capsys,
            "strange-check",
            "--char", "2", "--n", "2",
            "--poly", "z0^2 + z1*z2",
            "--vertex", "(1:0)",
        )
        self.assert_one_error_line(code, out, err)
        assert "2 coordinates, expected N+1 = 3" in err

    @pytest.mark.parametrize("cmd", ["strange-check", "cone-check"])
    def test_vertex_of_other_characteristic(self, capsys, cmd):
        # (1:1:0) holds valid encodings of GF(2) too: only the characteristic tells them apart
        code, out, err = run(
            capsys,
            cmd,
            "--char", "2", "--n", "2",
            "--poly", "z0^2+z1*z2",
            "--vertex", "@GF(3)(1:1:0)",
        )
        self.assert_one_error_line(code, out, err)
        assert "GF(3)" in err and "GF(2)" in err

    def test_huge_characteristic_rejected_quickly(self):
        # the order bound is checked before trial division, which would take hours here
        proc = subprocess.run(
            [sys.executable, "-m", "strangeci.cli", "strange-locus",
             "--char", "1000000000000000003", "--n", "2", "--poly", "z0"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
            )),
        )
        self.assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
        assert "exceeds the supported bound" in proc.stderr

    @pytest.mark.parametrize(
        "cmd, code",
        [
            (["strange-locus"], EXIT_BUDGET),
            (["strange-check", "--vertex", "(1:0:0)"], EXIT_BUDGET),
            (["cone-check", "--vertex", "(1:0:0)"], EXIT_BUDGET),
            (["singular-search"], EXIT_OK),
        ],
    )
    def test_huge_degree_meets_the_monomial_budget(self, cmd, code):
        """Dense rows, tables, pieces and coordinate changes over C(10^8 + 1, 2) monomials are
        refused before they are built; the search reads the one term and finishes."""
        proc = subprocess.run(
            [sys.executable, "-m", "strangeci.cli", *cmd, "--char", "2", "--n", "2", "--poly", "z0^99999999"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
            )),
        )
        if code == EXIT_OK:
            assert proc.returncode == EXIT_OK and json.loads(proc.stdout)["singular_points"]
        else:
            assert proc.returncode == EXIT_BUDGET and proc.stdout == "" and proc.stderr.count("\n") == 1
            assert proc.stderr.startswith("error: degree 999999") and "has more than 1000000 monomials" in proc.stderr

    def test_huge_degree_error_names_the_degree_written(self, capsys):
        """strange-locus bounds the generator's own degree before the degree-(e - 1) gradient rows."""
        errors = [
            run(capsys, *cmd, "--char", "2", "--n", "2", "--poly", "z0^99999999")
            for cmd in (["strange-locus"], ["strange-check", "--vertex", "(1:0:0)"], ["cone-check", "--vertex", "(1:0:0)"])
        ]
        expected = (EXIT_BUDGET, "", "error: degree 99999999 in 3 variables has more than 1000000 monomials\n")
        assert errors == [expected] * 3

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["strange-locus", "--char", "x", "--n", "2", "--poly", "z0"], "invalid int value: 'x'"),
            (["strange-locus", "--n", "2", "--poly", "z0"], "required: --char"),
        ],
    )
    def test_usage_error_one_line(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        self.assert_one_error_line(exc.value.code, out.out, out.err)
        assert fragment in out.err

    def test_console_script_installed(self, tmp_path):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "strangeci" in scripts
        # Run the declared entry point the way the installed wrapper does,
        # with this checkout's src first on the path so that an installed
        # copy of the package cannot stand in for it. The working directory
        # is empty because `python -c` puts it ahead of PYTHONPATH.
        launcher = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"ep = EntryPoint('strangeci', {scripts['strangeci']!r}, "
            "'console_scripts'); sys.exit(ep.load()())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher, *VERIFY_ARGV],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert_verify_ok(proc)

    @pytest.mark.skipif(
        shutil.which("strangeci") is None,
        reason="no strangeci console script on PATH (package not installed)",
    )
    def test_console_script_on_path(self):
        proc = subprocess.run(
            [shutil.which("strangeci"), *VERIFY_ARGV],
            capture_output=True, text=True, timeout=300,
        )
        assert_verify_ok(proc)


# -- the CLI contract over near-valid argument lists ---------------------------

POLYS = {"2": ["z0^2 + z1*z2", "z0*z1 - (2)*z2^2", "z1^3 + z0*z2^2"],
         "3": ["z0^2 + z1*z2", "z0*z1 + z2*z3", "z1^3 + z2^3 + z3^3", "z0^2*z1 + z2^3"]}
POINTS = {"2": ["(1:0:0)", "(0:1:1)", "(1:1:0)"], "3": ["(1:0:0:0)", "(0:1:1:0)", "(1:0:1:1)"]}
T_POINTS = {"2": ["(1:t:0)", "(t:1:t+1)"], "3": ["(1:t+1:0:0)", "(0:1:t:1)"]}
SUITES = ["euler", "lemma-rank", "phi-surjectivity", "quadric-table", "cone-corollary"]


def mutations(s: str):
    """s with one character inserted, deleted or replaced."""
    i = st.integers(0, len(s))
    ch = st.sampled_from("zt0129^*+-():@,x \u0663")
    return st.one_of(
        st.tuples(i, ch).map(lambda a: s[: a[0]] + a[1] + s[a[0]:]),
        st.tuples(i, st.just("")).map(lambda a: s[: a[0]] + s[a[0] + 1:]),
        st.tuples(i, ch).map(lambda a: s[: a[0]] + a[1] + s[a[0] + 1:]),
    )


@st.composite
def argument_lists(draw):
    """(argv, --in file bytes or None) with at most one value malformed: replaced by a bad one, or,
    for text, edited by one character.  Runs stay small: N <= 3, --ext-bound <= 2 and
    --samples <= 2, so numbers are never edited."""
    broken, count = draw(st.integers(0, 8)), iter(range(9))

    def value(valid, bad=(), text=False):
        s = draw(st.sampled_from(valid))
        if next(count, None) != broken:
            return s
        return draw(st.one_of(*([mutations(s)] if text else []), *([st.sampled_from(bad)] if bad else [])))

    numbers = ["0", "-1", "x", "", "2.5"]
    cmd = draw(st.sampled_from([
        "strange-check", "strange-locus", "normalize", "normalize-system", "cone-check",
        "singular-search", "tangent", "gauss", "family", "census", "verify",
    ]))
    if cmd == "verify":
        return ["verify", "--suite", draw(st.sampled_from(SUITES)), "--samples", value(["1", "2"], numbers),
                "--seed", value(["0", "7"], numbers)], None
    p, n = value(["2", "3", "5"], ["4", "1", *numbers]), value(["2", "3"], ["1", *numbers])
    argv, infile, polys = [cmd, "--char", p, "--n", n], None, POLYS.get(n, POLYS["3"])
    if cmd == "census":
        return argv + ["--degrees", value(["2", "3", "2,2"], ["a", "1", ",", "2,", "", "2,2,2,2"]),
                       "--samples", value(["1", "2"], numbers), "--ext-bound", value(["1", "2"], numbers)], None
    if cmd == "family":
        argv += ["--id", draw(st.sampled_from(["quadric", "p-divides", "p-not-divides", "cone", "nope"]))]
        argv += ["--e", value(["2", "3", "4", "6"], numbers)] if draw(st.booleans()) else []
    flag = {"tangent": "--point", "gauss": "--point", "family": "--vertex",
            "strange-check": "--vertex", "cone-check": "--vertex"}.get(cmd)
    if flag:
        ext = value(["1", "2"], numbers)
        points = POINTS.get(n, POINTS["3"]) + (T_POINTS.get(n, T_POINTS["3"]) if ext == "2" else [])
        argv += ["--ext", ext, f"{flag}={value(points, ['(t^:1:0)'], text=True)}"]
    if cmd == "singular-search":
        argv += ["--ext-bound", value(["1", "2"], numbers)]
    if draw(st.booleans()):
        argv += [f"--poly={value(polys, text=True)}" for _ in range(draw(st.integers(1, 2)))]
    else:
        header = value([f"{p} {n}", f"{p} {n} 2"], ["x 3", "2", "3 3"], text=True)
        body = "\n".join(value(polys, text=True) for _ in range(draw(st.integers(1, 2))))
        infile = (header + "\n" + body + "\n").encode() + draw(st.sampled_from([b"", b"", b"\xff\xfe z0\n"]))
    return argv, infile


def run_in_process(argv):
    """main(argv) with its output captured; argparse's SystemExit counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestContract:
    @settings(max_examples=300, deadline=None)
    @given(argument_lists())
    @example((["strange-check", "--char", "2", "--ext", "2", "--n", "2",
               "--poly", "z0^2 + z1*z2", "--vertex=(t^:1:0)"], None))
    def test_every_argument_list_keeps_the_contract(self, case):
        """Exit 0-3; JSON alone on stdout for 0 and 1, else nothing there and one error: line."""
        argv, infile = case
        with tempfile.TemporaryDirectory() as tmp:
            if infile is not None:
                path = Path(tmp) / "system.txt"
                path.write_bytes(infile)
                argv = argv + ["--in", str(path)]
            code, out, err = run_in_process(argv)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_BUDGET), (argv, err)
        if code in (EXIT_OK, EXIT_CHECK_FAILED):
            _, end = json.JSONDecoder().raw_decode(out)
            assert out[end:].strip() == "", out
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
