"""Command-line front end: classification runs, verification suites, reports.

Three subcommands share one report envelope:

    classify  exact cohomology run for a built-in or user-supplied algebra
    verify    named property suite with per-check pass/fail lines
    exponent  numeric extraction of infinitesimal values from a phase function

JSON output is the stable contract (schema_version field, canonical key
order); text output is for humans and may change.  Exit codes: 0 when
every executed check passed, 1 for check failures and numeric aborts,
2 for unusable input (bad flags, malformed or inconsistent algebra
files).  Classify reports carry no timing so identical inputs produce
byte-identical bytes; the stochastic commands echo (seed, samples) and
report wall time.  The verify suites live in the check catalogue,
`explab.checks`.
"""

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from typing import List, Optional, Tuple, Union

import numpy as np

# SWEEP_RATIOS and SWEEP_MARGIN are re-exported for callers that read them here
from .checks import SUITE_NAMES, SWEEP_MARGIN, SWEEP_RATIOS, check, suite  # noqa: F401
from .classify import DegreeCapError, classify
from .groupexp import (ExtrapolationError, infinitesimal_from_finite,
                       theta_galilean, theta_milne)
from .lie import LieAlgebra, galilean, milne, phase_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SCHEMA_VERSION = 1
EXTRACTION_TOL = 1e-6

# fixed probe event for exponent extraction; any regular point works,
# this one avoids the coordinate planes
PROBE_X = (0.3, -0.4, 0.25)
PROBE_T = 0.0


class UsageError(ValueError):
    """Input that cannot be acted on: wrong flags, bad specs, bad files."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    algebra: Optional[str] = None
    degree: Union[str, int] = "auto"
    suite: Optional[str] = None
    group: Optional[str] = None
    theta: Optional[str] = None
    pair: Optional[str] = None
    all_pairs: bool = False
    samples: int = 1000
    seed: int = 0
    fmt: str = "json"
    out: Optional[str] = None

    def __post_init__(self):
        if self.command not in ("classify", "verify", "exponent"):
            raise UsageError("unknown command %r" % self.command)
        if self.degree != "auto":
            if not isinstance(self.degree, int) or self.degree < 0:
                raise UsageError("degree must be 'auto' or a nonnegative integer")
        if self.samples < 1:
            raise UsageError("samples must be at least 1")


def _tool_stamp() -> dict:
    try:
        version = metadata.version("explab")
    except metadata.PackageNotFoundError:
        version = "unknown"
    return {"name": "explab", "version": version}


def _report(config: RunConfig, input_echo: dict, results: dict,
            timing: Optional[float]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": _tool_stamp(),
        "command": config.command,
        "input": input_echo,
        "results": results,
        "timing": timing,
    }


def _parse_indexed(spec: str, family: str, minimum: int) -> int:
    tail = spec[len(family) + 1:]
    try:
        value = int(tail)
    except ValueError:
        raise UsageError("bad index in %r: expected %s:<integer>" % (spec, family))
    if value < minimum:
        raise UsageError("%s index must be >= %d" % (family, minimum))
    return value


def load_algebra(spec: str) -> LieAlgebra:
    """Resolve a builtin algebra name or load and validate a JSON file."""
    if spec == "galilean":
        return galilean()
    if spec.startswith("milne:"):
        return milne(_parse_indexed(spec, "milne", 1))
    if spec.startswith("phase-space:"):
        return phase_space(_parse_indexed(spec, "phase-space", 1))
    if not os.path.exists(spec):
        raise UsageError("unknown algebra %r: not a builtin name and no such file"
                         % spec)
    with open(spec, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("parse error in %s, line %d column %d: %s"
                         % (spec, exc.lineno, exc.colno, exc.msg))
    try:
        return LieAlgebra.from_dict(data, name=os.path.basename(spec))
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError("invalid algebra in %s: %s" % (spec, exc))


def load_theta(spec: str):
    for prefix, factory in (("galilean-mass:", theta_galilean),
                            ("milne-schrodinger:", theta_milne)):
        if spec.startswith(prefix):
            try:
                mass = float(spec[len(prefix):])
            except ValueError:
                raise UsageError("bad mass in %r" % spec)
            if not mass > 0:
                raise UsageError("mass must be positive")
            return factory(mass), mass
    raise UsageError("unknown theta spec %r (use galilean-mass:<m> or "
                     "milne-schrodinger:<m>)" % spec)


def _group_algebra(spec: str) -> Tuple[str, LieAlgebra]:
    if spec == "galilean":
        return "galilean", galilean()
    if spec.startswith("milne:"):
        return "milne", milne(_parse_indexed(spec, "milne", 1))
    raise UsageError("unknown group spec %r (use galilean or milne:<m>)" % spec)


# -- classify ---------------------------------------------------------


def cmd_classify(config: RunConfig) -> Tuple[dict, bool]:
    alg = load_algebra(config.algebra)
    result = classify(alg, degree=config.degree)
    echo = {"algebra": config.algebra,
            "degree": "auto" if config.degree == "auto" else config.degree}
    return _report(config, echo, result.to_jsonable(), timing=None), True


# -- verify ---------------------------------------------------------


def cmd_verify(config: RunConfig) -> Tuple[dict, bool]:
    try:
        run_suite = suite(config.suite)
    except ValueError as exc:
        raise UsageError(str(exc))
    started = time.perf_counter()
    checks = run_suite(config.samples, config.seed)
    elapsed = time.perf_counter() - started
    passed = all(c["passed"] for c in checks)
    echo = {"suite": config.suite, "samples": config.samples, "seed": config.seed}
    results = {"suite": config.suite, "checks": checks, "passed": passed}
    return _report(config, echo, results, timing=elapsed), passed


# -- exponent ---------------------------------------------------------


def _galilean_reference(mass: float):
    rep = classify(galilean()).representatives[0]

    def ref(a: str, b: str) -> float:
        return mass * float(rep.entry_by_labels(a, b)(PROBE_T))

    return ref


def cmd_exponent(config: RunConfig) -> Tuple[dict, bool]:
    theta, mass = load_theta(config.theta)
    kind, alg = _group_algebra(config.group)
    labels = alg.labels
    if theta.group != kind:
        raise UsageError("theta %r does not act on group %r"
                         % (config.theta, config.group))
    if config.all_pairs:
        pairs = list(itertools.combinations(labels, 2))
    else:
        if config.pair is None:
            raise UsageError("provide --pair A,B or --all-pairs")
        parts = [p.strip() for p in config.pair.split(",")]
        if len(parts) != 2 or parts[0] == parts[1]:
            raise UsageError("--pair expects two distinct labels, e.g. b1,d1")
        for part in parts:
            if part not in labels:
                raise UsageError("unknown generator %r for group %s (choose from %s)"
                                 % (part, config.group, ", ".join(labels)))
        pairs = [tuple(parts)]

    started = time.perf_counter()
    point = (np.array(PROBE_X), PROBE_T)
    reference = _galilean_reference(mass) if kind == "galilean" else None
    entries = []
    worst_ref = 0.0
    for a, b in pairs:
        res = infinitesimal_from_finite(theta, alg, a, b, point)
        entry = {"a": a, "b": b, "value": res.value, "error": res.error}
        if reference is not None:
            want = reference(a, b)
            entry["reference"] = want
            worst_ref = max(worst_ref,
                            abs(res.value - want) / max(1.0, abs(want)))
        entries.append(entry)

    checks = []
    if reference is not None:
        checks.append(check("matches-classified-representative",
                            worst_ref <= EXTRACTION_TOL,
                            max_relative_deviation=worst_ref))
    if kind == "milne" and config.all_pairs:
        checks.extend(_milne_table_checks(alg, entries))
    passed = all(c["passed"] for c in checks)
    elapsed = time.perf_counter() - started
    echo = {"group": config.group, "theta": config.theta,
            "pair": config.pair, "all_pairs": config.all_pairs,
            "point": {"x": list(PROBE_X), "t": PROBE_T}}
    results = {"entries": entries, "checks": checks, "passed": passed}
    return _report(config, echo, results, timing=elapsed), passed


def _milne_table_checks(alg: LieAlgebra, entries: List[dict]) -> List[dict]:
    """Structural zeros a realizable table must show at t = 0."""
    worst = {"rotation-time-zero": 0.0, "cross-axis-zero": 0.0,
             "inner-pairs-zero-at-origin": 0.0}
    for entry in entries:
        ra = alg.roles[alg.index(entry["a"])]
        rb = alg.roles[alg.index(entry["b"])]
        value = abs(entry["value"])
        if ra.kind != "acceleration" or rb.kind != "acceleration":
            worst["rotation-time-zero"] = max(worst["rotation-time-zero"], value)
        elif ra.axes != rb.axes:
            worst["cross-axis-zero"] = max(worst["cross-axis-zero"], value)
        elif ra.level >= 1 and rb.level >= 1:
            worst["inner-pairs-zero-at-origin"] = max(
                worst["inner-pairs-zero-at-origin"], value)
    return [check(name, value <= EXTRACTION_TOL, max_abs_value=value)
            for name, value in worst.items()]


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


def _emit(report: dict, config: RunConfig) -> None:
    text = render_json(report) if config.fmt == "json" else render_text(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- entry point ------------------------------------------------------


def _degree_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("degree must be 'auto' or an integer")


def _build_parser() -> argparse.ArgumentParser:
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

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("--suite", required=True,
                          help=" | ".join(SUITE_NAMES))
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    add_output_flags(p_verify)

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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            algebra=getattr(args, "algebra", None),
            degree=getattr(args, "degree", "auto"),
            suite=getattr(args, "suite", None),
            group=getattr(args, "group", None),
            theta=getattr(args, "theta", None),
            pair=getattr(args, "pair", None),
            all_pairs=getattr(args, "all_pairs", False),
            samples=getattr(args, "samples", 1000),
            seed=getattr(args, "seed", 0),
            fmt=args.fmt,
            out=args.out,
        )
        if config.command == "classify":
            report, passed = cmd_classify(config)
        elif config.command == "verify":
            report, passed = cmd_verify(config)
        else:
            report, passed = cmd_exponent(config)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except DegreeCapError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ExtrapolationError as exc:
        print("error: extrapolation did not converge: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(report, config)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
