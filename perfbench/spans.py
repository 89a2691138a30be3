"""Span tracing of explab's public functions from outside the program.

`Tracer.install()` replaces each function named in TARGETS, in every explab
module that holds a reference to it (so `explab.classify.coboundary` as well
as `explab.cochain.coboundary`), by a wrapper that records one span per call:
[name, start, end, parent span index, operation id, fields]. `RatPoly`
constructions are counted, not spanned. Spans stay in memory until
`layer_metrics()` turns them into per-layer numbers; `uninstall()` puts every
original back. No source file of the program is changed.

A span's self time is its duration minus the part of it that its child spans
cover. A name's busy time counts only its outermost spans, so a call nested
in a call of the same name is not counted twice.
"""

import importlib
import re
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

NAME, START, END, PARENT, OP, FIELDS = range(6)

ALGEBRA_KEYS = ("galilean", "milne1", "milne2", "milne3", "milne4", "milne5",
                "phasespace1", "phasespace2", "phasespace3", "customgalilean",
                "custommilne2")
GROUPS = ("galilean", "milne")


def algebra_key(name: str) -> str:
    """Metric-safe form of an algebra name: 'milne:5' -> 'milne5',
    'custom-milne2.json' -> 'custommilne2'."""
    if name.endswith(".json"):
        name = name[:-len(".json")]
    return re.sub(r"[^A-Za-z0-9]", "", name)


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _nullspace_fields(args, kwargs, out):
    rows = args[0] if args else kwargs["rows"]
    return {"rows_in": len(rows), "nnz_in": sum(len(r) for r in rows),
            "max_bits_out": max((_bits(v) for row in out for v in row.values()),
                                default=0)}


def _group_fields(args, kwargs, out):
    theta = args[0] if args else kwargs.get("theta")
    return {"group": kwargs.get("group") if theta is None else theta.group}


def _grid_fields(args, kwargs, out):
    psi = args[0] if args else kwargs["psi"]
    return {"grid_points": psi.values.size}


# span name ("module.qualname" under explab) -> fields recorded per call
TARGETS = {
    "lie.LieAlgebra.validate": None,
    "lie.LieAlgebra.from_dict": None,
    "cochain.coboundary": None,
    "cochain.is_cocycle": None,
    "linalg.nullspace": _nullspace_fields,
    "linalg.rref": None,
    "linalg.reduce_mod_rows": None,
    "linalg.solve_augmented": None,
    "classify.classify": lambda args, kwargs, out: {"algebra": algebra_key(args[0].name)},
    "classify.are_equivalent": None,
    "classify.verify_milne_structure": None,
    "classify.realizable_subspace": None,
    "groupexp.check_cocycle_identities": _group_fields,
    "groupexp.finite_exponent": None,
    "groupexp.acceleration_phase_polys": None,
    "groupexp.compose": None,
    "groupexp.inverse": None,
    "groupexp.h_multiply": None,
    "groupexp.infinitesimal_from_finite": None,
    "groupexp.exponent_time_variance": None,
    "groupexp.exponent_shift_violation": None,
    "schrod.sample_wave": None,
    "schrod.transform_wave": _grid_fields,
    "schrod.schrodinger_residual": _grid_fields,
    "schrod.mass_equality_sweep": None,
    "bundle.ray_equivalent": None,
    "bundle.apply_bundle_map": None,
    "cli.main": None,
    "cli.load_algebra": None,
    "cli.render_json": None,
}

# per-layer statistics reported for a span name; calls, busy_s and self_s
# come from the spans, the others from their fields (summed, max for bits)
SPAN_STATS = (
    ("lie.LieAlgebra.validate", ("calls", "busy_s")),
    ("lie.LieAlgebra.from_dict", ("busy_s",)),
    ("cochain.coboundary", ("calls", "busy_s")),
    ("cochain.is_cocycle", ("calls", "busy_s")),
    ("linalg.nullspace", ("calls", "busy_s", "self_s", "rows_in", "nnz_in",
                          "max_bits_out")),
    ("linalg.rref", ("calls", "busy_s")),
    ("linalg.reduce_mod_rows", ("busy_s",)),
    ("linalg.solve_augmented", ("busy_s",)),
    ("classify.classify", ("calls", "busy_s", "self_s")),
    ("classify.are_equivalent", ("calls", "busy_s", "self_s")),
    ("classify.verify_milne_structure", ("busy_s",)),
    ("classify.realizable_subspace", ("busy_s",)),
    ("groupexp.finite_exponent", ("calls", "busy_s")),
    ("groupexp.acceleration_phase_polys", ("calls", "busy_s")),
    ("groupexp.compose", ("calls",)),
    ("groupexp.inverse", ("calls",)),
    ("groupexp.h_multiply", ("calls",)),
    ("groupexp.infinitesimal_from_finite", ("calls", "busy_s")),
    ("groupexp.exponent_time_variance", ("busy_s",)),
    ("groupexp.exponent_shift_violation", ("busy_s",)),
    ("schrod.sample_wave", ("busy_s",)),
    ("schrod.transform_wave", ("calls", "busy_s", "grid_points")),
    ("schrod.schrodinger_residual", ("calls", "busy_s", "grid_points")),
    ("schrod.mass_equality_sweep", ("busy_s",)),
    ("bundle.ray_equivalent", ("calls", "busy_s")),
    ("bundle.apply_bundle_map", ("busy_s",)),
    ("cli.main", ("calls", "busy_s")),
    ("cli.load_algebra", ("busy_s",)),
    ("cli.render_json", ("busy_s",)),
)

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "rows_in": "count",
              "nnz_in": "count", "max_bits_out": "bits", "grid_points": "count"}


def layer_metric_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("ratpoly.RatPoly.constructions", "count", "lower")]
    for name, stats in SPAN_STATS:
        specs += [("%s.%s" % (name, stat), STAT_UNITS[stat], "lower") for stat in stats]
    specs += [("classify.classify.%s.busy_s" % key, "s", "lower") for key in ALGEBRA_KEYS]
    specs.append(("classify.degree_solves", "count", "lower"))
    specs += [("groupexp.check_cocycle_identities.%s.busy_s" % g, "s", "lower")
              for g in GROUPS]
    specs += [("schrod.mass_equality_sweep.useful_ratio", "ratio", "higher"),
              ("trace.spans", "count", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


def self_times(spans) -> List[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def _field(span, key):
    """A recorded field; a call that raised has none."""
    return (span[FIELDS] or {}).get(key, 0)


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class Tracer:
    """Owns the spans of one traced run and the patches that record them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.constructions = 0
        self._undo: List[tuple] = []

    def begin_op(self) -> None:
        """Tag the spans that follow with a new operation id."""
        self.op += 1

    def _wrap(self, name, fn, fields):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
            if fields is not None:
                span[FIELDS] = fields(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "explab" or n.startswith("explab.")]
        for name, fields in TARGETS.items():
            modname, *path = name.split(".")
            owner = importlib.import_module("explab." + modname)
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = owner.__dict__[path[-1]]
            if isinstance(raw, classmethod):
                self._set(owner, path[-1],
                          classmethod(self._wrap(name, raw.__func__, fields)))
            elif isinstance(owner, type):
                self._set(owner, path[-1], self._wrap(name, raw, fields))
            else:
                traced = self._wrap(name, raw, fields)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, attr, traced)
        ratpoly = importlib.import_module("explab.ratpoly").RatPoly
        init = ratpoly.__init__

        def counting_init(poly, *args, **kwargs):
            self.constructions += 1
            init(poly, *args, **kwargs)

        self._set(ratpoly, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, passes: int) -> Dict[str, Tuple[float, str]]:
        """Every metric of layer_metric_specs(), per traced pass, except
        trace.overhead_s, which the caller measures."""
        spans = self.spans
        selfs = self_times(spans)
        by_name = defaultdict(list)
        for idx, span in enumerate(spans):
            by_name[span[NAME]].append(idx)

        def busy(indices):
            return sum(spans[i][END] - spans[i][START] for i in indices
                       if not _has_ancestor(spans, i, spans[i][NAME]))

        def per_pass(value):
            return value / passes

        values = {"ratpoly.RatPoly.constructions": per_pass(self.constructions)}
        for name, stats in SPAN_STATS:
            idx = by_name.get(name, [])
            for stat in stats:
                if stat == "calls":
                    value = per_pass(len(idx))
                elif stat == "busy_s":
                    value = per_pass(busy(idx))
                elif stat == "self_s":
                    value = per_pass(sum(selfs[i] for i in idx))
                elif stat == "max_bits_out":
                    value = max((_field(spans[i], stat) for i in idx), default=0)
                else:
                    value = per_pass(sum(_field(spans[i], stat) for i in idx))
                values["%s.%s" % (name, stat)] = value

        classify_idx = by_name.get("classify.classify", [])
        for key in ALGEBRA_KEYS:
            values["classify.classify.%s.busy_s" % key] = per_pass(busy(
                [i for i in classify_idx if _field(spans[i], "algebra") == key]))
        solves = sum(1 for i in by_name.get("linalg.nullspace", [])
                     if _has_ancestor(spans, i, "classify.classify"))
        values["classify.degree_solves"] = (solves / len(classify_idx)
                                            if classify_idx else 0.0)
        checks = by_name.get("groupexp.check_cocycle_identities", [])
        for group in GROUPS:
            values["groupexp.check_cocycle_identities.%s.busy_s" % group] = per_pass(
                busy([i for i in checks if _field(spans[i], "group") == group]))

        # residual grid points on each sweep's finest level / all of its residual points
        finest = total = 0
        sweeps = set(by_name.get("schrod.mass_equality_sweep", []))
        points = defaultdict(list)
        for i in by_name.get("schrod.schrodinger_residual", []):
            if spans[i][PARENT] in sweeps:
                points[spans[i][PARENT]].append(_field(spans[i], "grid_points"))
        for sizes in points.values():
            finest += sum(p for p in sizes if p == max(sizes))
            total += sum(sizes)
        values["schrod.mass_equality_sweep.useful_ratio"] = finest / total if total else 0.0
        values["trace.spans"] = per_pass(len(spans))

        units = {name: unit for name, unit, _ in layer_metric_specs()}
        return {name: (value, units[name]) for name, value in values.items()}
