"""Span tracing of egdeg's layers, installed from outside the package.

``Tracer.installed()`` replaces each function and method named in TARGETS
by a wrapper that records one span per call (name, start, end, parent span,
operation id) and adds the call's counts to the tracer's counters.  A
function is replaced under every name it is bound to in a loaded egdeg
module, so ``theta``'s own ``from .degree import find_zeros`` binding is
traced too; methods are replaced on their class.  Leaving the context puts
every original back.

Spans stay in memory until ``dump`` writes them; ``metrics`` folds them into
the per-layer numbers.  A span's self time is its duration minus the
durations of its direct child spans; a layer's self time sums its spans'.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("groups", "strata", "degree", "maps", "potentials", "perturb",
          "tubes", "domains", "theta")
MAX_DEPTH = 6


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return 1 if len(shape) == 1 else shape[0]


def _count_lattice(c, args, out):
    c["groups.subgroups"] += sum(len(members) for members in out.class_members)
    c["groups.classes"] += out.n_classes


def _count_stratum(c, args, out):
    c["strata.builds"] += 1
    c["strata.cells_kept"] += len(out.cells)
    c["strata.components"] += len(out.components)


def _count_newton(c, args, out):
    stats = out[1]
    c["degree.newton_seeds"] += stats["seeds"]
    c["degree.newton_converged"] += stats["converged"]
    c["degree.newton_stalled"] += stats.get("stalled", 0)


def _count_dedupe(c, args, out):
    c["degree.dedupe_in"] += len(args[0])
    c["degree.dedupe_out"] += len(out)


def _count_zeros(c, args, out):
    c["degree.zeros"] += len(out)
    c["degree.zeros_degenerate"] += sum(1 for r in out if r.degenerate)


def _count_map_grad(c, args, out):
    c["maps.grad_calls"] += 1
    c[f"maps.grad_points.d{len(args[0].layers)}"] += _rows(args[1])


def _count_points(key):
    def count(c, args, out):
        c[key] += _rows(args[1])
    return count


def _count_calls(key):
    def count(c, args, out):
        c[key] += 1
    return count


def _count_decompose(c, args, out):
    c["tubes.decompose_calls"] += 1
    c["tubes.decompose_points"] += _rows(args[1])


def _count_steps(c, args, out):
    c["theta.steps"] += len(out[1].steps)


# (module, attribute path, counter); the span name is "<layer>.<attribute>"
# with the layer being the module's last name part.
TARGETS = (
    ("egdeg.groups", "close_group", None),
    ("egdeg.groups", "subgroup_lattice", _count_lattice),
    ("egdeg.strata", "iso_types", None),
    ("egdeg.strata", "build_stratum", _count_stratum),
    ("egdeg.degree", "GridRegion.contains",
     _count_points("degree.region_contains_points")),
    ("egdeg.degree", "find_zeros", _count_zeros),
    ("egdeg.degree", "newton_zeros", _count_newton),
    ("egdeg.degree", "dedupe_points", _count_dedupe),
    ("egdeg.degree", "kronecker_degree", _count_calls("degree.kronecker_calls")),
    ("egdeg.degree", "intersection_number", None),
    ("egdeg.maps", "make_map", None),
    ("egdeg.maps", "LocalGradientMap.grad", _count_map_grad),
    ("egdeg.maps", "LocalGradientMap.member", _count_points("maps.member_points")),
    ("egdeg.potentials", "PolynomialPotential.grad",
     _count_points("potentials.grad_points")),
    ("egdeg.potentials", "PolynomialPotential.value",
     _count_points("potentials.value_points")),
    ("egdeg.perturb", "select_tube", None),
    ("egdeg.perturb", "_validate_tube", _count_calls("perturb.tube_validations")),
    ("egdeg.perturb", "perturb", None),
    ("egdeg.perturb", "split", None),
    ("egdeg.tubes", "TubeGeometry.decompose", _count_decompose),
    ("egdeg.tubes", "TubeGeometry.sample_tube", None),
    ("egdeg.tubes", "TubeGeometry.sample_shell", None),
    ("egdeg.domains", "MapDomain.contains", _count_points("domains.contains_points")),
    ("egdeg.theta", "theta", _count_steps),
)

# per-layer time metric -> span names whose outermost calls it sums
TIMES = {
    "groups.lattice_s": ("groups.subgroup_lattice",),
    "strata.iso_types_s": ("strata.iso_types",),
    "strata.build_s": ("strata.build_stratum",),
    "degree.region_contains_s": ("degree.GridRegion.contains",),
    "degree.find_zeros_s": ("degree.find_zeros",),
    "degree.newton_s": ("degree.newton_zeros",),
    "degree.dedupe_s": ("degree.dedupe_points",),
    "degree.kronecker_s": ("degree.kronecker_degree",),
    "degree.intersection_s": ("degree.intersection_number",),
    "maps.grad_s": ("maps.LocalGradientMap.grad",),
    "maps.member_s": ("maps.LocalGradientMap.member",),
    "potentials.grad_s": ("potentials.PolynomialPotential.grad",),
    "perturb.select_tube_s": ("perturb.select_tube",),
    "perturb.split_s": ("perturb.split",),
    "tubes.decompose_s": ("tubes.TubeGeometry.decompose",),
    "tubes.sample_s": ("tubes.TubeGeometry.sample_tube",
                       "tubes.TubeGeometry.sample_shell"),
    "domains.contains_s": ("domains.MapDomain.contains",),
}

COUNTS = (
    "groups.subgroups", "groups.classes",
    "strata.builds", "strata.cells_kept", "strata.components",
    "degree.region_contains_points", "degree.newton_seeds",
    "degree.newton_converged", "degree.newton_stalled",
    "degree.dedupe_in", "degree.dedupe_out", "degree.zeros",
    "degree.zeros_degenerate", "degree.kronecker_calls",
    "maps.grad_calls", *(f"maps.grad_points.d{d}" for d in range(MAX_DEPTH + 1)),
    "maps.member_points",
    "potentials.grad_points", "potentials.value_points",
    "perturb.tube_validations",
    "tubes.decompose_calls", "tubes.decompose_points",
    "domains.contains_points",
    "theta.steps",
)


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.op = None            # operation id stamped on new spans
        self.spans: list[list] = []   # [name, start, end, parent, op, nested]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)

    def _wrap(self, name, fn, counter):
        spans, stack, open_names, counts = (self.spans, self._stack,
                                            self._open, self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op, open_names[name] > 0]
            spans.append(rec)
            stack.append(idx)
            open_names[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_names[name] -= 1
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, path, counter in TARGETS:
                module = importlib.import_module(module_name)
                name = f"{module_name.rsplit('.', 1)[1]}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    owner = getattr(module, cls_name)
                    orig = owner.__dict__[meth]
                    undo.append((owner, meth, orig))
                    setattr(owner, meth, self._wrap(name, orig, counter))
                    continue
                orig = getattr(module, path)
                wrapper = self._wrap(name, orig, counter)
                for mod in [m for k, m in sys.modules.items()
                            if k == "egdeg" or k.startswith("egdeg.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def metrics(self) -> dict[str, float]:
        """Per-layer times, counts, ratios and self times."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _op, _nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op, nested) in enumerate(self.spans):
            if not nested:
                busy[name] += end - start
            layer_self[name.split(".", 1)[0]] += end - start - child[i]

        out = {key: sum(busy[s] for s in names) for key, names in TIMES.items()}
        out.update({key: self.counts[key] for key in COUNTS})
        c = self.counts
        out["degree.newton_yield"] = (c["degree.newton_converged"]
                                      / max(c["degree.newton_seeds"], 1))
        out["degree.certified_ratio"] = (
            (c["degree.zeros"] - c["degree.zeros_degenerate"])
            / max(c["degree.zeros"], 1))
        out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        return out

    def dump(self, path) -> None:
        """Write the spans as columns: names table, then one list per field."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        cols = {"names": names,
                "name": [index[s[0]] for s in self.spans],
                "start": [round(s[1] - t0, 7) for s in self.spans],
                "end": [round(s[2] - t0, 7) for s in self.spans],
                "parent": [s[3] for s in self.spans],
                "op": [s[4] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh, separators=(",", ":"))
