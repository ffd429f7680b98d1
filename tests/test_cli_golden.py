"""The CLI's observable behaviour, pinned: stdout, stderr and exit code of each invocation.

``cli_golden.json`` holds what each invocation below printed and returned.  A change to the
CLI that keeps its behaviour leaves every row passing; a change that alters an output on
purpose re-records the file and says why::

    PYTHONPATH=src python tests/test_cli_golden.py

``--help`` text is left out: argparse formats it differently between Python versions.
"""

import json
import sys
from pathlib import Path

import pytest

from test_cli import run_in_process

GOLDEN = Path(__file__).with_name("cli_golden.json")
CONIC = ["--char", "2", "--n", "2", "--poly", "z0^2 + z1*z2"]

# (id, argv, environment variables)
INVOCATIONS = [
    # README's examples
    ("readme-strange-check", ["strange-check", *CONIC, "--vertex", "(1:0:0)"], {}),
    ("readme-strange-locus", ["strange-locus", *CONIC], {}),
    ("readme-normalize", ["normalize", "--char", "2", "--n", "2", "--poly", "z0*z1 + z2^2"], {}),
    ("readme-singular-search",
     ["singular-search", "--char", "2", "--n", "3", "--ext-bound", "3", "--poly", "z3*z2^3 + z2*z1^3 + z0^4"], {}),
    ("readme-family", ["family", "--id", "p-divides", "--char", "2", "--n", "3", "--e", "4"], {}),
    ("readme-census",
     ["census", "--char", "2", "--n", "3", "--degrees", "3", "--samples", "200", "--ext-bound", "4",
      "--out", "run.jsonl"], {}),
    ("readme-verify", ["verify", "--suite", "quadric-table"], {}),
    # every other subcommand, and the options that change a document
    ("strange-check-pretty",
     ["strange-check", "--pretty", "--char", "3", "--n", "2", "--poly", "z0^2 + z1*z2", "--vertex", "(1:0:0)"], {}),
    ("normalize-system", ["normalize-system", *CONIC], {}),
    ("normalize-system-zero-generator",
     ["normalize-system", "--char", "3", "--n", "3", "--poly", "z0*z1 + z2^2", "--poly", "z0*z3"], {}),
    ("cone-check-true",
     ["cone-check", "--char", "5", "--n", "3", "--poly", "z1^3 + z2^3 + z3^3", "--vertex", "(1:0:0:0)"], {}),
    ("cone-check-false", ["cone-check", *CONIC, "--vertex", "(1:0:0)"], {}),
    ("tangent", ["tangent", "--char", "3", "--n", "2", "--poly", "z0*z1 + z2^2", "--point", "(1:0:0)"], {}),
    ("gauss", ["gauss", *CONIC, "--point", "(1:1:1)"], {}),
    ("family-quadric-pretty", ["family", "--id", "quadric", "--char", "2", "--n", "4", "--pretty"], {}),
    ("family-p-not-divides", ["family", "--id", "p-not-divides", "--char", "3", "--n", "2", "--e", "4"], {}),
    ("family-cone",
     ["family", "--id", "cone", "--char", "2", "--n", "3", "--poly", "z1^2 + z2*z3", "--vertex", "(1:0:0:0)"], {}),
    ("census-exits-1",
     ["census", "--char", "3", "--n", "3", "--degrees", "3", "--samples", "10", "--ext-bound", "1"], {}),
    ("census-excluded-case",
     ["census", "--char", "2", "--n", "2", "--degrees", "2", "--samples", "10", "--ext-bound", "1"], {}),
    ("census-exhaustive",
     ["census", "--char", "2", "--n", "2", "--degrees", "2", "--exhaustive", "--ext-bound", "1", "--seed", "4"], {}),
    *[
        (f"verify-{suite}-seed{seed}", ["verify", "--suite", suite, "--seed", str(seed)], {})
        for suite in ["euler", "lemma-rank", "phi-surjectivity", "quadric-table", "cone-corollary"]
        for seed in (0, 3)
    ],
    ("verify-lemma-rank-samples", ["verify", "--suite", "lemma-rank", "--samples", "7", "--seed", "5"], {}),
    # usage errors: exit 2 from the parser
    ("usage-no-command", [], {}),
    ("usage-missing-char", ["strange-locus", "--n", "2", "--poly", "z0"], {}),
    ("usage-bad-int", ["strange-locus", "--char", "x", "--n", "2", "--poly", "z0"], {}),
    ("usage-samples-zero", ["verify", "--suite", "euler", "--samples", "0"], {}),
    ("usage-ext-not-taken", ["strange-locus", "--char", "2", "--n", "2", "--poly", "z0", "--ext", "2"], {}),
    # input errors: exit 2
    ("input-no-generators", ["strange-locus", "--char", "2", "--n", "2"], {}),
    ("input-parse-error", ["strange-locus", "--char", "2", "--n", "2", "--poly", "z0 + z1^2"], {}),
    ("input-family-needs-e", ["family", "--id", "p-divides", "--char", "2", "--n", "3"], {}),
    ("input-family-needs-vertex", ["family", "--id", "cone", "--char", "2", "--n", "3", "--poly", "z1"], {}),
    ("input-census-degrees", ["census", "--char", "2", "--n", "3", "--degrees", "a"], {}),
    ("input-vertex-not-rational", ["strange-check", *CONIC, "--ext", "2", "--vertex", "(1:t:0)"], {}),
    ("input-vertex-length", ["strange-check", *CONIC, "--vertex", "(1:0)"], {}),
    ("input-gauss-two-generators",
     ["gauss", "--char", "2", "--n", "2", "--poly", "z0", "--poly", "z1", "--point", "(0:0:1)"], {}),
    ("input-not-a-prime", ["strange-locus", "--char", "4", "--n", "2", "--poly", "z0"], {}),
    ("input-bad-budget-variable", ["singular-search", *CONIC], {"STRANGECI_BUDGET": "x"}),
    # resource budget: exit 3
    ("budget-points",
     ["singular-search", "--char", "2", "--n", "3", "--ext-bound", "4", "--poly", "z0*z1 + z2*z3"],
     {"STRANGECI_BUDGET": "10"}),
    ("budget-monomials",
     ["strange-check", "--char", "2", "--n", "2", "--poly", "z0^99999999", "--vertex", "(1:0:0)"], {}),
    # the first generator alone would answer (not strange, not on X): the budget error still comes first
    *[
        (f"budget-monomials-{cmd}-second-generator",
         [cmd, "--char", "2", "--n", "3", "--poly", "z1^2 + z0*z2", "--poly", "z0^99999999", "--vertex", "(1:0:0:0)"],
         {})
        for cmd in ("strange-check", "cone-check")
    ],
    # the second generator alone is outside the first's ideal: the first generator's budget error comes first
    ("budget-monomials-normalize-system-first-generator",
     ["normalize-system", "--char", "2", "--n", "3", "--poly", "z0^99999998", "--poly", "z1^2 + z0*z2"], {}),
]


def test_every_invocation_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(name for name, _, _ in INVOCATIONS)


@pytest.mark.parametrize("name, argv, env", INVOCATIONS, ids=[row[0] for row in INVOCATIONS])
def test_invocation_matches_the_record(name, argv, env, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRANGECI_BUDGET", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_in_process(argv)
    assert {"code": code, "stdout": out, "stderr": err} == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import os
    import tempfile

    records = {}
    for name, argv, env in INVOCATIONS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            os.environ.pop("STRANGECI_BUDGET", None)
            os.environ.update(env)
            code, out, err = run_in_process(argv)
        records[name] = {"code": code, "stdout": out, "stderr": err}
        print(name, code, file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
