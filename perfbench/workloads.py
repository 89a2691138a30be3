"""Seeded workloads of the explab benchmark: inputs, operations and oracles.

Each workload is a list of operations issued one after another by a single
caller. An operation calls a public entry point (`explab.cli.main` with the
report captured, `explab.are_equivalent`, `explab.schrod.mass_equality_sweep`)
and comes with an oracle that names what is wrong with its output, or
returns None when the output is right. Entry points are looked up on their
module at call time, so a tracer that patches them sees every call.

The seed changes the values a workload feeds the program (labels, basis
order, random cochains, verify seeds, profile coefficients), never its
shape: every seed runs the same number of operations of the same sizes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

import explab
from explab import cli, schrod
from explab.classify import Classification, realizable_subspace
from explab.cochain import OneCochain, TwoCochain, coboundary
from explab.lie import LieAlgebra, galilean, milne
from explab.ratpoly import RatPoly

WORKLOADS = ("classify", "equivalence", "group", "pde")

# Dimensions from the paper (galilean 1; milne:m has m(m+1)/2 classes of
# which m are realizable; phase-space:n has n(2n-1) and no coboundaries)
# plus this commit's cocycle/coboundary dims, degree_used and the sha256 of
# each `classify --format json` report.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

BUILTIN_ALGEBRAS = ("galilean", "milne:1", "milne:2", "milne:3", "milne:4",
                    "milne:5", "phase-space:1", "phase-space:2",
                    "phase-space:3")
# sources of the relabelled custom algebras, and the classes that the
# equivalence queries start from
BASE_ALGEBRAS = {"galilean": galilean, "milne:2": lambda: milne(2)}
# report fields compared against EXPECTED; sha256 is compared separately
DIM_FIELDS = ("cocycle_dim", "coboundary_dim", "quotient_dim", "degree_used")

# equivalence queries: every (algebra, lambda degree, verdict) stratum,
# two positive strata per negative one, repeated this many times
EQUIVALENCE_ROUNDS = 7
LAMBDA_DEGREES = (0, 1, 2)
LAMBDA_COEFF = 3

_TIMING_LINE = re.compile(r'\n  "timing": [^\n]*\n')


@dataclass
class Op:
    """One closed-loop operation: its call, its oracle and its fingerprint.

    `check(out)` returns None for a right output and a message otherwise.
    `fingerprint(out)` is compared across passes, and between the traced
    and the untraced run, so it must be free of wall-clock data.
    """
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fingerprint: Callable[[object], str]


def build(workload: str, seed: int, workdir: str) -> List[Op]:
    """The operations of one workload, generated from `seed`.

    Custom algebra files are written under `workdir`.
    """
    if workload == "classify":
        return _build_classify(seed, Path(workdir))
    if workload == "equivalence":
        return _build_equivalence(seed)
    if workload == "group":
        return _build_group(seed)
    if workload == "pde":
        return _build_pde(seed)
    raise ValueError("unknown workload %r (use %s)" % (workload, ", ".join(WORKLOADS)))


# -- CLI operations -----------------------------------------------------

def run_cli(argv: List[str]):
    """(exit code, stdout) of one in-process `explab` invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
    return rc, buf.getvalue()


def cli_op(argv: List[str], check_report: Callable[[dict, str], Optional[str]]) -> Op:
    def check(out):
        rc, text = out
        if rc != 0:
            return "exit code %r" % (rc,)
        return check_report(json.loads(text), text)

    def fingerprint(out):
        rc, text = out
        return "%r\n%s" % (rc, _TIMING_LINE.sub("\n", text))

    return Op(" ".join(argv), lambda: run_cli(argv), check, fingerprint)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_mismatch(got: dict, want: dict) -> Optional[str]:
    for key, value in want.items():
        if got.get(key) != value:
            return "%s = %r, expected %r" % (key, got.get(key), value)
    return None


# -- classify -------------------------------------------------------------

def realizable_dim(spec: str, results: dict) -> int:
    """Dimension of the realizable subspace of a `milne:m` classify report,
    computed from the report's own representatives."""
    alg = cli.load_algebra(spec)
    reps = [TwoCochain.from_jsonable(alg, r) for r in results["representatives"]]
    reported = Classification(alg, results["cocycle_dim"], results["coboundary_dim"],
                              results["quotient_dim"], reps, results["degree_used"])
    return realizable_subspace(reported, int(spec.split(":")[1])).quotient_dim


def classify_op(spec: str, expected: dict) -> Op:
    """`classify --algebra spec --degree auto` checked against `expected`.

    `expected` holds DIM_FIELDS, optionally `labels`, and for built-in
    algebras the report's `sha256` (and `realizable_dim` for milne:m).
    """
    want = {k: v for k, v in expected.items() if k in DIM_FIELDS + ("labels",)}

    def check_report(report, text):
        results = report["results"]
        problem = _first_mismatch(results, want)
        if problem:
            return problem
        if len(results["representatives"]) != results["quotient_dim"]:
            return "representative count differs from quotient_dim"
        if "sha256" in expected and sha256(text) != expected["sha256"]:
            return "report digest %s, expected %s" % (sha256(text), expected["sha256"])
        if "realizable_dim" in expected:
            got = realizable_dim(spec, results)
            if got != expected["realizable_dim"]:
                return "realizable_dim = %d, expected %d" % (got, expected["realizable_dim"])
        return None

    return cli_op(["classify", "--algebra", spec, "--degree", "auto",
                   "--format", "json"], check_report)


def _rational(value: Fraction) -> str:
    return "%d/%d" % (value.numerator, value.denominator)


def custom_algebra(alg: LieAlgebra, rng: random.Random) -> dict:
    """`alg` as a JSON algebra with its basis permuted and relabelled.

    Bracket pairs are listed in random order and orientation; every
    coefficient is a "num/den" string.
    """
    spec = alg.to_dict()
    order = list(spec["labels"])
    rng.shuffle(order)
    names = ["g%02d" % k for k in rng.sample(range(100), len(order))]
    rename = dict(zip(order, names))
    brackets = []
    for entry in spec["brackets"]:
        lhs, rhs, sign = entry["lhs"], entry["rhs"], 1
        if rng.random() < 0.5:
            lhs, rhs, sign = rhs, lhs, -1
        brackets.append({"lhs": rename[lhs], "rhs": rename[rhs],
                         "out": [[rename[k], _rational(sign * Fraction(c))]
                                 for k, c in entry["out"]]})
    rng.shuffle(brackets)
    tgen = spec["time_generator"]
    return {"labels": names, "brackets": brackets,
            "time_generator": None if tgen is None else rename[tgen]}


def _build_classify(seed: int, workdir: Path) -> List[Op]:
    rng = random.Random(seed)
    ops = [classify_op(spec, EXPECTED["classify"][spec]) for spec in BUILTIN_ALGEBRAS]
    for source, factory in BASE_ALGEBRAS.items():
        data = custom_algebra(factory(), rng)
        path = workdir / ("custom-%s.json" % source.replace(":", ""))
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        expected = {k: EXPECTED["classify"][source][k] for k in DIM_FIELDS}
        expected["labels"] = data["labels"]
        ops.append(classify_op(str(path), expected))
    return ops


# -- equivalence ------------------------------------------------------------

def random_one_cochain(alg: LieAlgebra, degree: int, rng: random.Random) -> OneCochain:
    """Integer coefficients in [-LAMBDA_COEFF, LAMBDA_COEFF]; the time
    component is constant, as one-cochains require."""
    comps = []
    for k in range(alg.dim):
        top = 0 if k == alg.time_index else degree
        comps.append(RatPoly([rng.randint(-LAMBDA_COEFF, LAMBDA_COEFF)
                              for _ in range(top + 1)]))
    return OneCochain(alg, comps)


def equivalence_op(x1, x2, expected: bool) -> Op:
    """`explab.are_equivalent(x1, x2)`; a positive verdict's witness must
    satisfy coboundary(witness) == x2 - x1."""

    def check(result):
        if result.equivalent != expected:
            return "verdict %s, expected %s" % (result.equivalent, expected)
        if expected and coboundary(result.witness) != x2 - x1:
            return "coboundary(witness) != delta"
        return None

    def fingerprint(result):
        witness = result.witness
        return repr((result.equivalent, None if witness is None
                     else [p.coeffs for p in witness.components]))

    return Op("are_equivalent", lambda: explab.are_equivalent(x1, x2), check,
              fingerprint)


def _build_equivalence(seed: int) -> List[Op]:
    rng = random.Random(seed)
    bases = [explab.classify(factory()) for factory in BASE_ALGEBRAS.values()]
    strata = itertools.product(bases, LAMBDA_DEGREES, (True, True, False))
    ops = []
    for base, degree, positive in list(strata) * EQUIVALENCE_ROUNDS:
        reps = base.representatives
        i = rng.randrange(len(reps))
        delta = coboundary(random_one_cochain(base.alg, degree, rng))
        if positive:
            target = reps[i]
        elif len(reps) > 1:
            target = reps[rng.choice([j for j in range(len(reps)) if j != i])]
        else:  # a one-dimensional quotient: twice the class is another class
            target = reps[i] * 2
        ops.append(equivalence_op(reps[i], target + delta, positive))
    rng.shuffle(ops)
    return ops


# -- group ------------------------------------------------------------------

def _checks_passed(want: dict) -> Callable[[dict, str], Optional[str]]:
    """Report passed, and each named check carries the wanted fields."""

    def check_report(report, text):
        results = report["results"]
        if results.get("passed") is not True:
            failed = [c["name"] for c in results["checks"] if not c["passed"]]
            return "checks failed: %s" % ", ".join(failed)
        by_name = {c["name"]: c for c in results["checks"]}
        for name, fields in want.items():
            if name not in by_name:
                return "check %s missing" % name
            problem = _first_mismatch(by_name[name], fields)
            if problem:
                return "%s: %s" % (name, problem)
        return None

    return check_report


def _all_pairs(n_labels: int, want: dict) -> Callable[[dict, str], Optional[str]]:
    passed = _checks_passed(want)

    def check_report(report, text):
        count = len(report["results"]["entries"])
        if count != n_labels * (n_labels - 1) // 2:
            return "%d entries for %d generators" % (count, n_labels)
        return passed(report, text)

    return check_report


def _build_group(seed: int) -> List[Op]:
    s = str(seed)
    m2 = EXPECTED["classify"]["milne:2"]
    return [
        cli_op(["verify", "--suite", "galilean", "--seed", s], _checks_passed(
            {"classification-quotient":
             {"quotient_dim": EXPECTED["classify"]["galilean"]["quotient_dim"]},
             "cocycle-identities": {"seed": seed}})),
        cli_op(["verify", "--suite", "milne:2", "--seed", s], _checks_passed(
            {"classification-quotient": {"quotient_dim": m2["quotient_dim"]},
             "realizable-dimension": {"quotient_dim": m2["realizable_dim"]},
             "cocycle-identities": {"seed": seed}})),
        cli_op(["verify", "--suite", "h-group", "--samples", "200", "--seed", s],
               _checks_passed({"associativity-matches-composition":
                               {"samples": 200, "seed": seed}})),
        cli_op(["exponent", "--group", "galilean", "--theta", "galilean-mass:2",
                "--all-pairs"],
               _all_pairs(galilean().dim, {"matches-classified-representative": {}})),
        cli_op(["exponent", "--group", "milne:2", "--theta", "milne-schrodinger:1",
                "--all-pairs"],
               _all_pairs(milne(2).dim, {"cross-axis-zero": {}})),
    ]


# -- pde --------------------------------------------------------------------

def cubic_profile(rng: random.Random) -> RatPoly:
    """A(t) = a2 t^2 + a3 t^3 with small rational coefficients, so the
    inferred field g = A'' is not constant and the wave stays on the grid."""
    return RatPoly([0, 0, Fraction(rng.randint(2, 4), 10), Fraction(rng.randint(1, 3), 10)])


def sweep_op(profile: RatPoly) -> Op:
    """`mass_equality_sweep` must single out ratio 1 by the CLI's margin."""

    def check(sweep):
        if sweep.degenerate or sweep.best_ratio != 1.0:
            return "best ratio %r (degenerate %s)" % (sweep.best_ratio, sweep.degenerate)
        if sweep.margin is None or sweep.margin < cli.SWEEP_MARGIN:
            return "margin %r below %g" % (sweep.margin, cli.SWEEP_MARGIN)
        return None

    return Op("mass_equality_sweep A=%s" % profile,
              lambda: schrod.mass_equality_sweep(profile, 1.0, cli.SWEEP_RATIOS),
              check, lambda sweep: json.dumps(sweep.to_jsonable()))


def _build_pde(seed: int) -> List[Op]:
    s = str(seed)
    return [
        cli_op(["verify", "--suite", "schrodinger", "--seed", s], _checks_passed(
            {"residual-convergence-order": {}, "mass-ratio-sweep": {}})),
        cli_op(["verify", "--suite", "bundle", "--seed", s], _checks_passed(
            {"planted-phase-recovery": {}, "isometry-inner-products": {}})),
        sweep_op(cubic_profile(random.Random(seed))),
    ]
