import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
