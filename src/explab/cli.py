"""Command-line front end: classification runs, verification suites, reports.

Three subcommands share one report envelope:

    classify  exact cohomology run for a built-in or user-supplied algebra
    verify    named property suite with per-check pass/fail lines
    exponent  numeric extraction of infinitesimal values from a phase function

The module only parses flags, calls the handler its subcommand names
(`cmd_classify`, `cmd_verify`, `cmd_exponent`, each taking the argparse
namespace) and renders the report.  The verify suites, the exponent
table's checks and every tolerance live in the check catalogue,
`explab.checks`, which acceptance criteria 02, 03, 06, 07, 09 and 10
run too; `milne:<m>` and `phase-space:<n>` specs are parsed by
`explab.lie.family_index` alone.

JSON output is the stable contract (schema_version field, canonical key
order); text output is for humans and may change.  Exit codes: 0 when
every executed check passed, 1 for check failures, numeric aborts and a
report cut short by a closed stdout (`explab ... | head`, which ends
quietly, without a traceback), 2 for unusable input (bad flags or
values, malformed, unreadable or inconsistent algebra files, an
unwritable --out path), reported as one `error:` line on stderr.
Integer flags are read from plain ASCII decimal digits alone;
`--samples` is bounded by MAX_SAMPLES and `--seed` must be nonnegative;
an algebra too large for classify's column limit (a family or a JSON
file) or for exponent's pair limit is refused before it is built or
validated.
Classify reports carry no timing so identical inputs produce
byte-identical bytes; the stochastic commands echo (seed, samples) and
report wall time.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from typing import Optional, Tuple

# SWEEP_RATIOS and SWEEP_MARGIN are re-exported for callers that read them here
from .checks import (PROBE_T, PROBE_X, SUITE_NAMES, SWEEP_MARGIN,  # noqa: F401
                     SWEEP_RATIOS, PairLimitError, check_table_pairs,
                     exponent_table, suite)
from .classify import ColumnLimitError, check_columns, check_family_columns, classify
from .groupexp import ExtrapolationError, theta_galilean, theta_milne
from .lie import LieAlgebra, family_index, galilean, milne, phase_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 1
# a suite's peak memory grows linearly in its samples, fastest for
# milne:8, the highest order the column limit admits: about 3.2 KB per
# sample (tracemalloc peaks with 10^4 samples: galilean 9.9 MB, milne:2
# 12.6 MB, milne:4 18.5 MB, milne:8 33.1 MB; the tier-1 tests hold the
# first three under 11, 14 and 20 MB).  At this bound `verify --suite
# milne:8` peaks at 318 MB traced and about 350 MB RSS, in about 5 s on
# a 2-core VM.
MAX_SAMPLES = 100_000


class UsageError(ValueError):
    """Input that cannot be acted on: wrong flags, bad specs, bad files."""


def _tool_stamp() -> dict:
    # imported here: importlib.metadata costs every run ~20 ms at start-up
    from importlib import metadata
    try:
        version = metadata.version("explab")
    except metadata.PackageNotFoundError:
        version = "unknown"
    return {"name": "explab", "version": version}


def _report(args: argparse.Namespace, input_echo: dict, results: dict,
            timing: Optional[float]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": _tool_stamp(),
        "command": args.command,
        "input": input_echo,
        "results": results,
        "timing": timing,
    }


def load_algebra(spec: str, degree="auto") -> LieAlgebra:
    """Resolve a builtin algebra name or load and validate a JSON file.

    A `milne:<m>` or `phase-space:<n>` spec, or a JSON file, that classify
    at `degree` would refuse for its column count raises that
    ColumnLimitError before the algebra is built or validated; a file is
    sized from its label count and time generator, since validation
    visits every triple of labels.
    """
    if spec == "galilean":
        return galilean()
    for family, build in (("milne", milne), ("phase-space", phase_space)):
        try:
            index = family_index(spec, family)
        except ValueError as exc:
            raise UsageError(str(exc))
        if index is not None:
            check_family_columns(family, index, degree)
            return build(index)
    if not os.path.exists(spec):
        raise UsageError("unknown algebra %r: not a builtin name and no such file"
                         % spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (spec, exc.strerror))
    except UnicodeDecodeError as exc:
        raise UsageError("%s is not UTF-8 text: %s" % (spec, exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("parse error in %s, line %d column %d: %s"
                         % (spec, exc.lineno, exc.colno, exc.msg))
    labels = data.get("labels") if isinstance(data, dict) else None
    if isinstance(labels, list):  # a malformed file is left to from_dict
        check_columns(os.path.basename(spec), len(labels),
                      data.get("time_generator") is not None, degree)
    try:
        return LieAlgebra.from_dict(data, name=os.path.basename(spec))
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError("invalid algebra in %s: %s" % (spec, exc))


def load_theta(spec: str):
    """(theta, mass) of a spec; the mass is a plain ASCII decimal literal."""
    for prefix, factory in (("galilean-mass:", theta_galilean),
                            ("milne-schrodinger:", theta_milne)):
        if spec.startswith(prefix):
            text = spec[len(prefix):]
            if not re.fullmatch(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text, re.ASCII):
                raise UsageError("bad mass in %r" % spec)
            mass = float(text)
            if not (mass > 0 and math.isfinite(mass)):
                raise UsageError("mass must be positive and finite")
            return factory(mass), mass
    raise UsageError("unknown theta spec %r (use galilean-mass:<m> or "
                     "milne-schrodinger:<m>)" % spec)


# -- handlers ---------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> Tuple[dict, bool]:
    if args.degree != "auto" and args.degree < 0:
        raise UsageError("degree must be 'auto' or a nonnegative integer")
    alg = load_algebra(args.algebra, degree=args.degree)
    result = classify(alg, degree=args.degree)
    echo = {"algebra": args.algebra, "degree": args.degree}
    return _report(args, echo, result.to_jsonable(), timing=None), True


def cmd_verify(args: argparse.Namespace) -> Tuple[dict, bool]:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError("samples must be between 1 and %d" % MAX_SAMPLES)
    if args.seed < 0:
        raise UsageError("seed must be nonnegative")
    try:
        run_suite = suite(args.suite)
    except ValueError as exc:
        raise UsageError(str(exc))
    started = time.perf_counter()
    checks = run_suite(args.samples, args.seed)
    elapsed = time.perf_counter() - started
    passed = all(c["passed"] for c in checks)
    echo = {"suite": args.suite, "samples": args.samples, "seed": args.seed}
    results = {"suite": args.suite, "checks": checks, "passed": passed}
    return _report(args, echo, results, timing=elapsed), passed


def cmd_exponent(args: argparse.Namespace) -> Tuple[dict, bool]:
    theta, mass = load_theta(args.theta)
    try:
        m = family_index(args.group, "milne")
    except ValueError as exc:
        raise UsageError(str(exc))
    if m is None and args.group != "galilean":
        raise UsageError("unknown group spec %r (use galilean or milne:<m>)" % args.group)
    if m is not None:
        check_table_pairs("milne", m)
    alg = galilean() if m is None else milne(m)
    if theta.group != args.group.partition(":")[0]:
        raise UsageError("theta %r does not act on group %r"
                         % (args.theta, args.group))
    pair = None
    if not args.all_pairs:
        parts = [p.strip() for p in args.pair.split(",")]
        if len(parts) != 2 or parts[0] == parts[1]:
            raise UsageError("--pair expects two distinct labels, e.g. b1,d1")
        for part in parts:
            if part not in alg.labels:
                raise UsageError("unknown generator %r for group %s (choose from %s)"
                                 % (part, args.group, ", ".join(alg.labels)))
        pair = tuple(parts)

    started = time.perf_counter()
    entries, checks = exponent_table(theta, alg, mass, pair)
    passed = all(c["passed"] for c in checks)
    elapsed = time.perf_counter() - started
    echo = {"group": args.group, "theta": args.theta,
            "pair": args.pair, "all_pairs": args.all_pairs,
            "point": {"x": list(PROBE_X), "t": PROBE_T}}
    results = {"entries": entries, "checks": checks, "passed": passed}
    return _report(args, echo, results, timing=elapsed), passed


# -- rendering --------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _detail_text(check: dict) -> str:
    extras = ["%s=%s" % (k, v) for k, v in check.items()
              if k not in ("name", "passed")]
    return (" (" + ", ".join(extras) + ")") if extras else ""


def render_text(report: dict) -> str:
    lines = ["explab %s %s" % (report["tool"]["version"], report["command"])]
    results = report["results"]
    if report["command"] == "classify":
        lines.append("algebra %s: quotient_dim %d (cocycle_dim %d, "
                     "coboundary_dim %d, degree_used %d)"
                     % (results["algebra"], results["quotient_dim"],
                        results["cocycle_dim"], results["coboundary_dim"],
                        results["degree_used"]))
        if results.get("coordinates"):
            lines.append("coordinates: " + ", ".join(results["coordinates"]))
    else:
        for entry in results.get("entries", ()):
            ref = ("  ref %.9g" % entry["reference"]
                   if "reference" in entry else "")
            lines.append("%s,%s: %.9g (err %.3g)%s"
                         % (entry["a"], entry["b"], entry["value"],
                            entry["error"], ref))
        for check in results.get("checks", ()):
            lines.append("%s %s%s" % ("PASS" if check["passed"] else "FAIL",
                                      check["name"], _detail_text(check)))
        lines.append("result: %s" % ("PASS" if results.get("passed") else "FAIL"))
    if report["timing"] is not None:
        lines.append("elapsed: %.3f s" % report["timing"])
    return "\n".join(lines)


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = render_json(report) if args.fmt == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.out, exc.strerror))
    else:
        print(text)


# -- entry point ------------------------------------------------------


def _integer_arg(value: str) -> int:
    """An integer in ASCII decimal digits, whose sign the handlers check;
    int() alone would also read '1_0', '+2', ' 3' and non-ASCII digits."""
    if re.fullmatch(r"-?[0-9]{1,4300}", value):  # int()'s default digit limit
        return int(value)
    raise argparse.ArgumentTypeError("expected an integer in ASCII decimal digits")


def _degree_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        return _integer_arg(value)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError("degree must be 'auto' or an integer")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: each parse
    fills a namespace of its own and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="explab",
        description="Classify time-dependent infinitesimal exponents and "
                    "verify the group-level structure behind them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       dest="fmt", help="report format (default json)")
        p.add_argument("--out", default=None, help="write the report to a file")

    p_classify = sub.add_parser("classify", help="classify an algebra")
    p_classify.add_argument("--algebra", required=True,
                            help="galilean | milne:<m> | phase-space:<n> | file.json")
    p_classify.add_argument("--degree", type=_degree_arg, default="auto",
                            help="polynomial degree bound, or 'auto'")
    add_output_flags(p_classify)
    p_classify.set_defaults(run=cmd_classify)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("--suite", required=True,
                          help=" | ".join(SUITE_NAMES))
    p_verify.add_argument("--samples", type=_integer_arg, default=1000,
                          help="at most %d" % MAX_SAMPLES)
    p_verify.add_argument("--seed", type=_integer_arg, default=0)
    add_output_flags(p_verify)
    p_verify.set_defaults(run=cmd_verify)

    p_exponent = sub.add_parser("exponent",
                                help="extract infinitesimal values numerically")
    p_exponent.add_argument("--group", required=True,
                            help="galilean | milne:<m>")
    p_exponent.add_argument("--theta", required=True,
                            help="galilean-mass:<m> | milne-schrodinger:<m>")
    which = p_exponent.add_mutually_exclusive_group(required=True)
    which.add_argument("--pair", default=None,
                       help="comma-separated generator pair, e.g. b1,d1")
    which.add_argument("--all-pairs", action="store_true",
                       help="extract every unordered generator pair")
    add_output_flags(p_exponent)
    p_exponent.set_defaults(run=cmd_exponent)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, passed = args.run(args)
        _emit(report, args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (UsageError, ColumnLimitError, PairLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ExtrapolationError as exc:
        print("error: extrapolation did not converge: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # the reader closed stdout before the report was written; point it
        # at devnull so that the flush at exit is quiet (the SIGPIPE note
        # of the `signal` module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
