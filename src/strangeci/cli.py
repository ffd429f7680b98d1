"""Command-line frontend with machine-readable JSON output.

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
from .hompoly import format_poly, normalize_z0
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


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True))


def _point(args, text: str, flag: str) -> ProjectivePoint:
    """Parse a point given on the command line; it must have N+1 coordinates."""
    a = parse_point(text, make_field(args.char, args.ext))
    if len(a.coords) != args.n + 1:
        raise InvalidInputError(
            f"{flag} {text!r} has {len(a.coords)} coordinates, expected N+1 = {args.n + 1}"
        )
    return a


def cmd_strange_check(args) -> int:
    S = _load_system(args)
    report = is_strange_for(S, _point(args, args.vertex, "--vertex"))
    _emit(report.to_dict(), args.pretty)
    return EXIT_OK


def cmd_strange_locus(args) -> int:
    S = _load_system(args)
    locus = strange_locus(S)
    _emit(locus.to_dict(), args.pretty)
    return EXIT_OK


def cmd_normalize(args) -> int:
    S = _load_system(args)
    _emit({"normalized": [format_poly(normalize_z0(g)) for g in S.gens]}, args.pretty)
    return EXIT_OK


def cmd_normalize_system(args) -> int:
    S = _load_system(args)
    normalized, flag = normalize_system(S)
    _emit(
        {
            "normalized": [format_poly(g) for g in normalized.gens],
            "ideal_equal": flag,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_cone_check(args) -> int:
    S = _load_system(args)
    verdict = is_cone_with_vertex(S, _point(args, args.vertex, "--vertex"))
    _emit({"cone": verdict, "vertex": args.vertex}, args.pretty)
    return EXIT_OK


def cmd_singular_search(args) -> int:
    S = _load_system(args)
    points = singular_search(S, m_max=args.ext_bound)
    _emit(
        {"singular_points": [{"m": m, "point": str(pt)} for m, pt in points]},
        args.pretty,
    )
    return EXIT_OK


def cmd_tangent(args) -> int:
    S = _load_system(args)
    T = tangent_space(S, _point(args, args.point, "--point"))
    _emit({"dim": T.dim, "basis": [list(b) for b in T.basis]}, args.pretty)
    return EXIT_OK


def cmd_gauss(args) -> int:
    S = _load_system(args)
    if S.r != 1:
        raise InvalidInputError("gauss map is defined for hypersurfaces (one generator)")
    image = gauss_map(S.gens[0], _point(args, args.point, "--point"))
    _emit({"dual_point": str(image)}, args.pretty)
    return EXIT_OK


def cmd_family(args) -> int:
    needed = {"p-divides": "e", "p-not-divides": "e", "cone": "vertex"}.get(args.id)
    if needed and getattr(args, needed) is None:
        raise InvalidInputError(f"family {args.id} needs --{needed}")
    if args.id == "quadric":
        S = quadric_normal_form(args.n, args.char)
    elif args.id == "p-divides":
        S = strange_hypersurface_p_divides(args.n, args.e, args.char)
    elif args.id == "p-not-divides":
        S = strange_hypersurface_p_not_divides(args.n, args.e, args.char)
    elif args.id == "cone":
        base = _load_system(args)
        S = cone_over(base, _point(args, args.vertex, "--vertex"))
    else:
        raise InvalidInputError(f"unknown family {args.id!r}")
    _emit(
        {
            "generators": [format_poly(g) for g in S.gens],
            "degrees": list(S.degrees),
            "p": args.char,
            "N": S.n,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_census(args) -> int:
    try:
        degrees = tuple(int(x) for x in args.degrees.split(","))
    except ValueError:
        raise InvalidInputError(
            f"--degrees must be comma-separated integers, got {args.degrees!r}"
        ) from None
    spec = CensusSpec(
        p=args.char,
        N=args.n,
        degrees=degrees,
        mode="exhaustive" if args.exhaustive else "sample",
        count=args.samples,
        seed=args.seed,
        m_max=args.ext_bound,
    )
    out = verify_singularity_theorem(spec, out_path=args.out)
    summary = out["summary"]
    _emit(summary, args.pretty)
    if not summary["excluded_case"] and summary["unresolved_fraction"] > 0.05:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    suite = args.suite
    result: dict = {"suite": suite}
    ok = True
    if suite == "euler":
        from .hompoly import HomogeneousPolynomial, monomials_of_degree

        checked = 0
        for _ in range(args.samples):
            p = rng.choice([2, 3, 5])
            F = make_field(p)
            n_vars = rng.randint(2, 4)
            e = rng.randint(1, 4)
            basis = monomials_of_degree(n_vars, e)
            f = HomogeneousPolynomial(
                F, n_vars, e,
                {m: rng.randrange(p) for m in basis},
            )
            ok = ok and f.euler_identity_check()
            checked += 1
        result["checked"] = checked
    elif suite == "lemma-rank":
        ok, checked = _verify_lemma_rank(rng, args.samples)
        result["checked"] = checked
    elif suite == "phi-surjectivity":
        checked = 0
        for _ in range(args.samples):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 2)
            F = make_field(p, m)
            N = rng.randint(2, 4)
            e = rng.randint(2, 4)
            coords = [rng.randrange(F.order) for _ in range(N)] + [
                rng.randrange(1, F.order)
            ]
            a = ProjectivePoint(F, coords)
            b = [rng.randrange(F.order) for _ in range(N - 1)]
            ok = ok and phi_surjectivity_check(a, e, b)
            checked += 1
        result["checked"] = checked
    elif suite == "quadric-table":
        table = {}
        for N in range(2, 7):
            for p in (2, 3, 5):
                nz = strange_locus(quadric_normal_form(N, p)).is_nonzero()
                expected = p == 2 and N % 2 == 0
                table[f"N={N},p={p}"] = nz
                ok = ok and nz == expected
        result["strange"] = table
    elif suite == "cone-corollary":
        checked = 0
        spec = CensusSpec(
            p=5, N=4, degrees=(2, 3), mode="sample", count=args.samples, seed=args.seed
        )
        F5 = make_field(5)
        v = ProjectivePoint(F5, [1, 0, 0, 0, 0])
        for S in sample_hv(spec):
            ok = ok and cone_corollary_check(S, v)
            checked += 1
        result["checked"] = checked
    else:
        raise InvalidInputError(f"unknown verify suite {suite!r}")
    result["ok"] = ok
    _emit(result, args.pretty)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_lemma_rank(rng: random.Random, samples: int) -> tuple[bool, int]:
    checked = 0
    ok = True
    while checked < samples:
        p = rng.choice([2, 3])
        m = rng.randint(1, 2)
        N = 3
        degrees = rng.choice([(2,), (3,), (2, 2)])
        spec = CensusSpec(
            p=p, N=N, degrees=degrees, mode="sample", count=1, seed=rng.randrange(1 << 30)
        )
        S = next(iter(sample_hv(spec)))
        F = make_field(p, m)
        zeros = [
            pt
            for pt in enumerate_points(F, N)
            if pt.coords[N] != 0 and S.on_zero_set(pt)
        ]
        for pt in zeros[:4]:
            ok = ok and euler_rank_lemma_check(S, pt)
            checked += 1
            if checked >= samples:
                break
    return ok, checked


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="strangeci",
        description="Exact strangeness, cone, and singularity tools for complete intersections over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("strange-check", help="decide strangeness for a vertex")
    _add_common(sp, ext=True)
    sp.add_argument("--vertex", required=True)
    sp.set_defaults(func=cmd_strange_check)

    sp = sub.add_parser("strange-locus", help="linear space of all strange vertices")
    _add_common(sp)
    sp.set_defaults(func=cmd_strange_locus)

    sp = sub.add_parser("normalize", help="kill z0-partials of each generator")
    _add_common(sp)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("normalize-system", help="normalize and test ideal equality")
    _add_common(sp)
    sp.set_defaults(func=cmd_normalize_system)

    sp = sub.add_parser("cone-check", help="decide the cone property for a vertex")
    _add_common(sp, ext=True)
    sp.add_argument("--vertex", required=True)
    sp.set_defaults(func=cmd_cone_check)

    sp = sub.add_parser("singular-search", help="enumerate singular points over bounded extensions")
    _add_common(sp)
    sp.add_argument("--ext-bound", type=int, default=3)
    sp.set_defaults(func=cmd_singular_search)

    sp = sub.add_parser("tangent", help="embedded tangent space at a smooth point")
    _add_common(sp, ext=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(func=cmd_tangent)

    sp = sub.add_parser("gauss", help="Gauss map image of a smooth hypersurface point")
    _add_common(sp, ext=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(func=cmd_gauss)

    sp = sub.add_parser("family", help="construct a named example family")
    _add_common(sp, ext=True)
    sp.add_argument("--id", required=True, choices=["quadric", "p-divides", "p-not-divides", "cone"])
    sp.add_argument("--e", type=int, default=None, help="degree for hypersurface families")
    sp.add_argument("--vertex", default=None, help="vertex for the cone family")
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("census", help="singularity census over the strange parameter space")
    _add_common(sp, polys=False)
    sp.add_argument("--degrees", required=True, help="comma-separated generator degrees")
    sp.add_argument("--samples", type=_count, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ext-bound", type=int, default=3)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--out", default=None, help="JSONL output path")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("verify", help="run a named property suite")
    sp.add_argument(
        "--suite",
        required=True,
        choices=["euler", "lemma-rank", "phi-surjectivity", "quadric-table", "cone-corollary"],
    )
    sp.add_argument("--samples", type=_count, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
