"""Command-line front end.

Subcommands: connectedness, relations, lattice, picard, stability.
All reports are UTF-8 JSON with sorted keys and a trailing newline.
Exit codes: 0 success/affirmative, 1 verification failure,
2 precondition violation, 3 I/O or parse error.  Rationals on the
command line and in JSON are integers or "p/q" strings with at most
MAX_DIGITS (800) digits in each numerator and denominator, never floats,
decimals, exponents or booleans; anything else, and JSON nested too
deeply to parse, is a parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache

from . import cubicrel, picard, pipeline, quiver, toricgit
from .exactlin import _INTEGER, _RATIONAL
from .monomial import SquarefreeIdeal

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3

MAX_DIGITS = 800


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_rational(value) -> Fraction:
    """An int, or a string "n" or "p/q" in the syntax of exactlin._rat;
    numerators and denominators have at most MAX_DIGITS digits."""
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        too_long = max(len(part) for part in match.groups("")) > MAX_DIGITS
    elif type(value) is int:  # not a bool
        too_long = abs(value) >= 10 ** MAX_DIGITS
    else:
        raise CliError(f"bad rational {value!r}: not an integer or p/q", EXIT_PARSE)
    if too_long:
        raise CliError(f"bad rational: more than {MAX_DIGITS} digits", EXIT_PARSE)
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise CliError(f"bad rational {value!r}: {exc}", EXIT_PARSE) from exc


def _parse_theta(text):
    """A character of the canonical quiver: 'default' or one integer per
    vertex, each read by the integer rule of _parse_rational."""
    if text == "default":
        return toricgit.SPECIAL_THETA
    entries = text.split(",")
    for v in entries:
        if not (match := _INTEGER.fullmatch(v)) or len(match[1]) > MAX_DIGITS:
            raise CliError(f"bad theta {text!r}: {v!r} is not an integer of at most "
                           f"{MAX_DIGITS} ASCII digits", EXIT_PARSE)
    theta = toricgit.StabilityCharacter([int(v) for v in entries])
    vertices = len(toricgit.SPECIAL_THETA.theta)
    if len(theta.theta) != vertices:
        raise CliError(f"bad theta {text!r}: needs {vertices} entries", EXIT_PARSE)
    return theta


def _load_json_arg(text):
    """A JSON object given inline (starts with '{') or as a file path."""
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as exc:  # malformed, too long or too deep
            raise CliError(f"bad inline JSON: {exc}", EXIT_PARSE) from exc
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read JSON from {text!r}: {exc}", EXIT_PARSE) from exc


def _emit(report: dict, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path!r}: {exc}", EXIT_PARSE) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_connectedness(args) -> int:
    theta = _parse_theta(args.theta)
    q = quiver.canonical_quiver()
    if args.ideal == "builtin-I0":
        ideal = pipeline.builtin_toric_ideal()
    elif args.ideal == "empty":
        ideal = SquarefreeIdeal(len(q.arrows), [])
    else:
        data = _load_json_arg(args.ideal)
        try:
            # checked before the ideal allocates per-variable state
            if data["numVars"] != len(q.arrows):
                raise CliError("ideal must live on the arrow coordinates", EXIT_PARSE)
            ideal = SquarefreeIdeal.from_json(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise CliError(f"bad ideal: {exc}", EXIT_PARSE) from exc
    try:
        report = pipeline.run_connectedness(q, theta, ideal)
    except pipeline.NonGenericTheta as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.connected else EXIT_VERIFY_FAIL


def _cmd_relations(args) -> int:
    vals = [_parse_rational(v) for v in (args.a, args.b, args.c, args.d)]
    try:
        cfg = cubicrel.PointConfiguration(*vals)
        rc = cubicrel.relation_coefficients(cfg)
        point = cubicrel.to_moduli_point(rc)
    except cubicrel.DegenerateConfiguration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    triples = []
    for (i, j) in sorted(rc.triples):
        s, t, u = rc.triples[(i, j)]
        triples.append({"source": i, "target": j,
                        "s": str(s), "t": str(t), "u": str(u)})
    report = {
        "triples": triples,
        "vector27": [str(v) for v in rc.vector27],
        "torusPoint": [str(v) for v in point],
        "identitiesVerified": True,
        "transcript": rc.transcript,
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    q = quiver.canonical_quiver() if args.quiver == "Q" else quiver.rolled_up_quiver()
    _emit(toricgit.lattice_report(q), args.out)
    return EXIT_OK


def _cmd_picard(args) -> int:
    checks = ("gram", "roots", "chain") if args.check == "all" else (args.check,)
    report = {}
    code = EXIT_OK
    for check in checks:
        if check == "gram":
            matrix = picard.gram_matrix()
            ok = matrix == picard.expected_gram()
            report["gram"] = {"pass": ok, "matrix": matrix}
        elif check == "roots":
            rec = picard.root_system_check()
            ok = rec["root_count"] == 72 and rec["cartan_match"]
            report["roots"] = {"pass": ok, "count": rec["root_count"],
                               "cartanMatch": rec["cartan_match"]}
        else:
            try:
                transcript = picard.mutation_chain_transcript()
                report["chain"] = {"pass": True, "stages": transcript["stages"]}
                ok = True
            except picard.ChainMismatch as exc:
                report["chain"] = {"pass": False, "failure": str(exc)}
                ok = False
        if not ok:
            code = EXIT_VERIFY_FAIL
            break
    _emit(report, args.out)
    return code


def _parse_point(data):
    if not isinstance(data, dict):
        raise CliError("point JSON must be an object", EXIT_PARSE)
    if "values" in data:
        if not isinstance(data["values"], list):
            raise CliError("point 'values' must be a list", EXIT_PARSE)
        vals = [_parse_rational(v if v is not None else 0) for v in data["values"]]
        if len(vals) != 18:
            raise CliError("point needs 18 values", EXIT_PARSE)
        return toricgit.CoordinatePoint.from_values(vals)
    if "support" in data:
        try:
            return toricgit.CoordinatePoint(18, data["support"])
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad support: {exc}", EXIT_PARSE) from exc
    raise CliError("point JSON needs a 'values' or 'support' field", EXIT_PARSE)


def _random_point(rng) -> toricgit.CoordinatePoint:
    """Each coordinate vanishes with probability 1/3, else takes a
    random nonzero rational."""
    vals = []
    for _ in range(18):
        if rng.randrange(3) == 0:
            vals.append(Fraction(0))
        else:
            num = 0
            while num == 0:
                num = rng.randint(-9, 9)
            vals.append(Fraction(num, rng.randint(1, 9)))
    return toricgit.CoordinatePoint.from_values(vals)


def _stability_verdicts(q, action, theta, point, method):
    out = {}
    if method in ("cone", "both"):
        # an interior point of a cone lies in the cone
        semistable = toricgit.hm_semistable(action, theta, point)
        out["cone"] = {
            "semistable": semistable,
            "stable": semistable and toricgit.hm_stable(action, theta, point),
        }
    if method in ("king", "both"):
        out["king"] = {
            "semistable": toricgit.king_semistable(q, theta, point),
            "stable": toricgit.king_stable(q, theta, point),
        }
    if method == "both":
        out["agreement"] = (out["cone"] == out["king"])
    return out


@lru_cache(maxsize=1)
def _canonical_action() -> toricgit.WeightAction:
    return toricgit.WeightAction.from_quiver(quiver.canonical_quiver())


def _cmd_stability(args) -> int:
    theta = _parse_theta(args.theta)
    q = quiver.canonical_quiver()
    action = _canonical_action()
    if args.fuzz < 0:
        raise CliError("--fuzz must not be negative", EXIT_PARSE)
    if args.fuzz:
        rng = random.Random(args.seed)
        agree = 0
        try:
            for _ in range(args.fuzz):
                point = _random_point(rng)
                verdicts = _stability_verdicts(q, action, theta, point, "both")
                if verdicts["agreement"]:
                    agree += 1
        except ValueError as exc:  # e.g. character does not sum to zero
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        report = {
            "points": args.fuzz,
            "seed": args.seed,
            "agreementCount": agree,
            "agreementRate": f"{agree}/{args.fuzz}",
        }
        _emit(report, args.out)
        return EXIT_OK if agree == args.fuzz else EXIT_VERIFY_FAIL
    if not args.point:
        raise CliError("either --point or --fuzz is required", EXIT_PARSE)
    data = _load_json_arg(args.point)
    point = _parse_point(data)
    try:
        report = _stability_verdicts(q, action, theta, point, args.method)
    except ValueError as exc:  # e.g. character does not sum to zero
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, args.out)
    if args.method == "both" and not report["agreement"]:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  `parse_args` returns a fresh
    namespace per call, and help and errors go to the `sys.stdout` and
    `sys.stderr` current at that call."""
    parser = argparse.ArgumentParser(
        prog="qgm",
        description="Exact toric-GIT computations for quiver moduli on "
                    "marked cubic surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connectedness",
                       help="component graph of the cut-out moduli space")
    p.add_argument("--theta", default="default",
                   help="comma-separated character, or 'default'")
    p.add_argument("--ideal", default="builtin-I0",
                   help="'builtin-I0', 'empty', inline JSON, or a JSON path")
    p.add_argument("--out", default=None)

    p = sub.add_parser("relations",
                       help="relation coefficients of a point configuration")
    for name in ("a", "b", "c", "d"):
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("lattice", help="character-lattice ranks and cone checks")
    p.add_argument("--quiver", choices=("Q", "Qtilde"), default="Qtilde")
    p.add_argument("--out", default=None)

    p = sub.add_parser("picard", help="lattice-level collection verifications")
    p.add_argument("--check", choices=("gram", "roots", "chain", "all"),
                   default="all")
    p.add_argument("--out", default=None)

    p = sub.add_parser("stability", help="stability verdicts for quiver points")
    p.add_argument("--point", default=None, help="JSON (inline or path)")
    p.add_argument("--theta", default="default")
    p.add_argument("--method", choices=("cone", "king", "both"), default="both")
    p.add_argument("--fuzz", type=int, default=0,
                   help="test this many seeded random points instead")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        handler = {
            "connectedness": _cmd_connectedness,
            "relations": _cmd_relations,
            "lattice": _cmd_lattice,
            "picard": _cmd_picard,
            "stability": _cmd_stability,
        }[args.command]
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
