"""Command-line frontend with machine-readable JSON output.

Each subcommand is one row of ``COMMANDS``: its name, help text, function and flags.  The
function maps the parsed arguments to a JSON document and whether its check passed; ``main``
alone prints the document and picks the exit code.

Exit codes: 0 completed, 1 property/theorem check failed, 2 invalid
input, 3 resource budget exceeded or memory exhausted.  Output is a single
JSON document on stdout (or indented human-oriented JSON with --pretty);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Iterator
from itertools import islice

from .census import (
    CensusSpec,
    euler_rank_lemma_check,
    phi_surjectivity_check,
    sample_hv,
    verify_singularity_theorem,
)
from .errors import BudgetExceededError, InvalidInputError, StrangeCIError
from .families import (
    cone_over,
    quadric_normal_form,
    strange_hypersurface_p_divides,
    strange_hypersurface_p_not_divides,
)
from .geometry import (
    PolynomialSystem,
    ProjectivePoint,
    enumerate_points,
    gauss_map,
    parse_point,
    singular_search,
    tangent_space,
)
from .gf import make_field
from .hompoly import HomogeneousPolynomial, format_poly, monomials_of_degree, normalize_z0
from .strangeness import (
    cone_corollary_check,
    is_cone_with_vertex,
    is_strange_for,
    normalize_system,
    strange_locus,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, exit status 2.

    Subparsers are made with the class of their parent, so they report the same way.
    """

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {self.prog}: {message}\n")


def _count(text: str) -> int:
    """A --samples value: an integer of at least 1, so that a run always checks something."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser, *, polys: bool = True, ext: bool = False) -> None:
    """Flags shared by the subcommands; --ext only for those that parse a point."""
    parser.add_argument("--char", type=int, required=True, metavar="P", help="field characteristic")
    if ext:
        parser.add_argument("--ext", type=int, default=1, metavar="M", help="extension degree of points")
    parser.add_argument("--n", type=int, required=True, metavar="N", help="ambient dimension of P^N")
    if polys:
        parser.add_argument("--poly", action="append", default=None, help="generator (repeatable)")
        parser.add_argument("--in", dest="infile", default=None, help="read generators from file")
    parser.add_argument("--pretty", action="store_true", help="indented output")


def _load_system(args) -> PolynomialSystem:
    field = make_field(args.char)
    texts = list(args.poly or [])
    if args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{args.infile} is not UTF-8 text: {exc}") from None
        # header: p N e1 e2 ...
        try:
            p, n = map(int, lines[0].split()[:2])
        except (IndexError, ValueError):
            raise InvalidInputError(f"{args.infile}: header must start with the integers p N") from None
        if p != args.char or n != args.n:
            raise InvalidInputError("file header disagrees with --char/--n flags")
        texts.extend(lines[1:])
    if not texts:
        raise InvalidInputError("no generators given (--poly or --in)")
    return PolynomialSystem.parse(texts, field, args.n + 1)


def _point(args, text: str, flag: str) -> ProjectivePoint:
    """Parse a point given on the command line; it must have N+1 coordinates."""
    a = parse_point(text, make_field(args.char, args.ext))
    if len(a.coords) != args.n + 1:
        raise InvalidInputError(
            f"{flag} {text!r} has {len(a.coords)} coordinates, expected N+1 = {args.n + 1}"
        )
    return a


def cmd_strange_check(args) -> tuple[dict, bool]:
    S = _load_system(args)
    return is_strange_for(S, _point(args, args.vertex, "--vertex")).to_dict(), True


def cmd_strange_locus(args) -> tuple[dict, bool]:
    return strange_locus(_load_system(args)).to_dict(), True


def cmd_normalize(args) -> tuple[dict, bool]:
    return {"normalized": [format_poly(normalize_z0(g)) for g in _load_system(args).gens]}, True


def cmd_normalize_system(args) -> tuple[dict, bool]:
    normalized, flag = normalize_system(_load_system(args))
    return {"normalized": [format_poly(g) for g in normalized], "ideal_equal": flag}, True


def cmd_cone_check(args) -> tuple[dict, bool]:
    S = _load_system(args)
    verdict = is_cone_with_vertex(S, _point(args, args.vertex, "--vertex"))
    return {"cone": verdict, "vertex": args.vertex}, True


def cmd_singular_search(args) -> tuple[dict, bool]:
    points = singular_search(_load_system(args), m_max=args.ext_bound)
    return {"singular_points": [{"m": m, "point": str(pt)} for m, pt in points]}, True


def cmd_tangent(args) -> tuple[dict, bool]:
    S = _load_system(args)
    T = tangent_space(S, _point(args, args.point, "--point"))
    return {"dim": T.dim, "basis": [list(b) for b in T.basis]}, True


def cmd_gauss(args) -> tuple[dict, bool]:
    S = _load_system(args)
    if S.r != 1:
        raise InvalidInputError("gauss map is defined for hypersurfaces (one generator)")
    return {"dual_point": str(gauss_map(S.gens[0], _point(args, args.point, "--point")))}, True


def cmd_family(args) -> tuple[dict, bool]:
    needed = {"p-divides": "e", "p-not-divides": "e", "cone": "vertex"}.get(args.id)
    if needed and getattr(args, needed) is None:
        raise InvalidInputError(f"family {args.id} needs --{needed}")
    if args.id == "quadric":
        S = quadric_normal_form(args.n, args.char)
    elif args.id == "p-divides":
        S = strange_hypersurface_p_divides(args.n, args.e, args.char)
    elif args.id == "p-not-divides":
        S = strange_hypersurface_p_not_divides(args.n, args.e, args.char)
    else:
        base = _load_system(args)
        S = cone_over(base, _point(args, args.vertex, "--vertex"))
    return {"generators": [format_poly(g) for g in S.gens], "degrees": list(S.degrees), "p": args.char,
            "N": S.n}, True


def cmd_census(args) -> tuple[dict, bool]:
    """Fails when more than 5% of the samples stay unresolved, outside the excluded case."""
    try:
        degrees = tuple(int(x) for x in args.degrees.split(","))
    except ValueError:
        raise InvalidInputError(
            f"--degrees must be comma-separated integers, got {args.degrees!r}"
        ) from None
    mode = "exhaustive" if args.exhaustive else "sample"
    spec = CensusSpec(p=args.char, N=args.n, degrees=degrees, mode=mode, count=args.samples, seed=args.seed,
                      m_max=args.ext_bound)
    summary = verify_singularity_theorem(spec, out_path=args.out)["summary"]
    return summary, summary["excluded_case"] or summary["unresolved_fraction"] <= 0.05


# The sampled verify suites: each yields one check result per sample, at most --samples of
# which are taken.


def _euler_checks(args) -> Iterator[bool]:
    rng = random.Random(args.seed)
    while True:
        p = rng.choice([2, 3, 5])
        n_vars = rng.randint(2, 4)
        e = rng.randint(1, 4)
        coeffs = {m: rng.randrange(p) for m in monomials_of_degree(n_vars, e)}
        yield HomogeneousPolynomial(make_field(p), n_vars, e, coeffs).euler_identity_check()


def _lemma_rank_checks(args) -> Iterator[bool]:
    """The rank lemma at up to four affine zeros (z3 != 0) of each sampled system in P^3."""
    rng = random.Random(args.seed)
    while True:
        p = rng.choice([2, 3])
        m = rng.randint(1, 2)
        degrees = rng.choice([(2,), (3,), (2, 2)])
        spec = CensusSpec(p=p, N=3, degrees=degrees, mode="sample", count=1, seed=rng.randrange(1 << 30))
        S = next(iter(sample_hv(spec)))
        zeros = [pt for pt in enumerate_points(make_field(p, m), 3) if pt.coords[3] != 0 and S.on_zero_set(pt)]
        for pt in zeros[:4]:
            yield euler_rank_lemma_check(S, pt)


def _phi_surjectivity_checks(args) -> Iterator[bool]:
    rng = random.Random(args.seed)
    while True:
        p = rng.choice([2, 3, 5])
        F = make_field(p, rng.randint(1, 2))
        N = rng.randint(2, 4)
        e = rng.randint(2, 4)
        a = ProjectivePoint(F, [rng.randrange(F.order) for _ in range(N)] + [rng.randrange(1, F.order)])
        yield phi_surjectivity_check(a, e, [rng.randrange(F.order) for _ in range(N - 1)])


def _cone_corollary_checks(args) -> Iterator[bool]:
    spec = CensusSpec(p=5, N=4, degrees=(2, 3), mode="sample", count=args.samples, seed=args.seed)
    v = ProjectivePoint(make_field(5), [1, 0, 0, 0, 0])
    for S in sample_hv(spec):
        yield cone_corollary_check(S, v)


_SUITES = {
    "euler": _euler_checks,
    "lemma-rank": _lemma_rank_checks,
    "phi-surjectivity": _phi_surjectivity_checks,
    "cone-corollary": _cone_corollary_checks,
}


def cmd_verify(args) -> tuple[dict, bool]:
    if args.suite == "quadric-table":
        # strange quadric normal forms: exactly the even N in characteristic 2
        table, checks = {}, []
        for N in range(2, 7):
            for p in (2, 3, 5):
                nonzero = strange_locus(quadric_normal_form(N, p)).is_nonzero()
                table[f"N={N},p={p}"] = nonzero
                checks.append(nonzero == (p == 2 and N % 2 == 0))
        return {"suite": args.suite, "strange": table, "ok": all(checks)}, all(checks)
    checks = list(islice(_SUITES[args.suite](args), args.samples))
    return {"suite": args.suite, "checked": len(checks), "ok": all(checks)}, all(checks)


_VERTEX = ("--vertex", {"required": True})
_POINT = ("--point", {"required": True})
_EXT_BOUND = ("--ext-bound", {"type": int, "default": 3})
_SAMPLES = ("--samples", {"type": _count, "default": 100})
_SEED = ("--seed", {"type": int, "default": 0})

# (name, help, function, _add_common keywords or None, the command's own flags), in the order
# of the help text
COMMANDS = [
    ("strange-check", "decide strangeness for a vertex", cmd_strange_check, {"ext": True}, [_VERTEX]),
    ("strange-locus", "linear space of all strange vertices", cmd_strange_locus, {}, []),
    ("normalize", "kill z0-partials of each generator", cmd_normalize, {}, []),
    ("normalize-system", "normalize and test ideal equality", cmd_normalize_system, {}, []),
    ("cone-check", "decide the cone property for a vertex", cmd_cone_check, {"ext": True}, [_VERTEX]),
    ("singular-search", "enumerate singular points over bounded extensions", cmd_singular_search, {},
     [_EXT_BOUND]),
    ("tangent", "embedded tangent space at a smooth point", cmd_tangent, {"ext": True}, [_POINT]),
    ("gauss", "Gauss map image of a smooth hypersurface point", cmd_gauss, {"ext": True}, [_POINT]),
    ("family", "construct a named example family", cmd_family, {"ext": True}, [
        ("--id", {"required": True, "choices": ["quadric", "p-divides", "p-not-divides", "cone"]}),
        ("--e", {"type": int, "default": None, "help": "degree for hypersurface families"}),
        ("--vertex", {"default": None, "help": "vertex for the cone family"}),
    ]),
    ("census", "singularity census over the strange parameter space", cmd_census, {"polys": False}, [
        ("--degrees", {"required": True, "help": "comma-separated generator degrees"}),
        _SAMPLES,
        _SEED,
        _EXT_BOUND,
        ("--exhaustive", {"action": "store_true"}),
        ("--out", {"default": None, "help": "JSONL output path"}),
    ]),
    ("verify", "run a named property suite", cmd_verify, None, [
        ("--suite", {"required": True,
                     "choices": ["euler", "lemma-rank", "phi-surjectivity", "quadric-table", "cone-corollary"]}),
        _SAMPLES,
        _SEED,
        ("--pretty", {"action": "store_true"}),
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="strangeci",
        description="Exact strangeness, cone, and singularity tools for complete intersections over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, common, flags in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        if common is not None:
            _add_common(sp, **common)
        for flag, options in flags:
            sp.add_argument(flag, **options)
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document, passed = args.func(args)
        print(json.dumps(document, indent=2 if args.pretty else None, sort_keys=True))
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidInputError, StrangeCIError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
