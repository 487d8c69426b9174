"""Command line interface: strata | theta | degree | perturb-trace | verify.

Math inputs come from a single JSON config; flags cover only paths, suites
and sample counts.  ``theta`` and ``perturb-trace`` read the same stratum
recursion (``theta.recursion``): the first sums its steps, the second
reports the tube of every step but the last, so it lists exactly the layers
``theta`` builds and none for a group with a single orbit type; both build
their map in ``_build_map``, a circle group's as its line surrogate.  Exit
codes: 0 success, 2 validation, 3 numerics failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import degree as dg
from .config import (RunConfig, canonical_json, load_config, potential_from_block,
                     radial_coeffs)
from .domains import MapDomain, validate_invariance
from .errors import (
    ConfigError,
    DegenerateUnresolved,
    DivisibilityViolation,
    EgdegError,
    MarginTooSmall,
    NotInvariant,
    NotOrthogonal,
    RefinementOverflow,
    ResolutionTooCoarse,
    TubeSelectionFailed,
    UnknownName,
    UnsupportedRep,
    WeylTransportFailed,
)
from .factory import catalog
from .maps import circle_surrogate, make_map
from .perturb import verify_partition
from .strata import build_stratum, iso_types
from .theta import recursion, relabel_free_row, shell_margin, theta

VALIDATION_ERRORS = (ConfigError, NotInvariant, NotOrthogonal, UnknownName,
                     UnsupportedRep, FileNotFoundError, KeyError, ValueError)
NUMERIC_ERRORS = (TubeSelectionFailed, DegenerateUnresolved,
                  DivisibilityViolation, ResolutionTooCoarse, MarginTooSmall,
                  RefinementOverflow, WeylTransportFailed)


def _emit(payload: dict, output: str | None):
    text = canonical_json(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _build_map(cfg: RunConfig):
    """(group, omega, map, numerics, row_label) of a config; a circle group or
    catalog entry gives its line surrogate, whose row (e) is ``row_label``."""
    block = cfg.potential_block
    if block.get("kind") == "catalog":
        entry = catalog(block["name"])
        group, omega, f = entry.build()
        num = cfg.numerics.with_(**entry.numerics) if entry.numerics else cfg.numerics
        return group, omega, f, num, entry.row_label
    if cfg.is_circle:
        if block.get("kind") != "radial_r2":
            raise ConfigError("a circle group needs a radial_r2 or catalog potential")
        group, omega, f = circle_surrogate(cfg.group, cfg.domain, radial_coeffs(block),
                                           cfg.numerics.bbox)
        return group, omega, f, cfg.numerics, cfg.group.row_label
    f = make_map(cfg.group, MapDomain(cfg.domain, cfg.numerics.bbox),
                 potential_from_block(block, cfg.group.dim))
    return cfg.group, cfg.domain, f, cfg.numerics, None


def cmd_strata(args) -> int:
    cfg = load_config(args.config)
    if cfg.potential_block.get("kind") == "catalog":
        # the entry's own group, domain and numerics, as ``theta`` reads them
        group, omega, _, num, row_label = _build_map(cfg)
    elif cfg.is_circle:
        raise ConfigError("strata listing needs a finite group")
    else:
        group, omega, num, row_label = cfg.group, cfg.domain, cfg.numerics, None
    validate_invariance(omega, group, num.bbox)
    lat = iso_types(group, omega, num.grid_h, num.bbox)

    def name(label):  # a surrogate's free row (e) is named as in theta
        return row_label if row_label is not None and label == "(e)" else label

    rows = []
    for cid in lat.class_ids:
        rec = group.lattice.records[cid]
        row = {"orbit_type": name(group.lattice.class_label(cid)),
               "subgroup_order": rec.order,
               "fixed_dim": rec.fixed_dim,
               "weyl_order": rec.weyl_order}
        if rec.fixed_dim >= 1:
            stratum = build_stratum(group, omega, cid, num.grid_h, num.bbox)
            row["components"] = [
                {"label": comp.label_str, "cells": len(comp.cells),
                 "quotient_label": f"q{q}"}
                for comp, q in zip(stratum.components, stratum.quotient.tolist())]
            row["quotient_labels"] = stratum.quotient_labels()
            row["stabilizer_orders"] = {
                f"q{q}": sorted(set(stratum.stabilizer[stratum.quotient == q].tolist()))
                for q in range(len(stratum.reps))}
        rows.append(row)
    _emit({"schema": "egdeg/1", "orbit_types": rows,
           "linear_order": [name(label) for label in lat.labels()]},
          cfg.output or args.output)
    return 0


def cmd_theta(args) -> int:
    cfg = load_config(args.config)
    group, omega, f, num, row_label = _build_map(cfg)
    vec, trace = theta(group, omega, f, num)
    if row_label is not None:
        vec, trace = relabel_free_row(vec, trace, row_label)
    payload = {"schema": "egdeg/1"}
    payload.update(vec.to_json_dict())
    # surface every computed row, zeros included, for the report
    computed = []
    for step in trace.steps:
        label = step["orbit_type"]
        for qlabel, value in step.get("intersection", {}).items():
            computed.append({"orbit_type": label, "component": qlabel,
                             "value": value})
    payload["computed_rows"] = computed
    payload["trace"] = trace.to_json_dict()
    _emit(payload, cfg.output or args.output)
    return 0


def cmd_degree(args) -> int:
    cfg = load_config(args.config)
    if cfg.degree_block is None:
        raise ConfigError("degree subcommand needs a 'degree' block")
    block = cfg.degree_block
    potential = potential_from_block(cfg.potential_block, cfg.group.dim)
    field = dg.FieldAdapter(lambda u: potential.grad(u), cfg.group.dim)
    lo = np.array(block["box_lo"], dtype=float)
    hi = np.array(block["box_hi"], dtype=float)
    mode = block.get("mode", "kronecker")
    if mode == "kronecker":
        value = dg.kronecker_degree(field, lo, hi)
        diagnostics = {"mode": mode}
    elif mode == "intersection":
        region = dg.BoxRegion(lo, hi, cfg.numerics.grid_h)
        records = dg.find_zeros(field, region)
        value = dg.intersection_number(field, region, records=records)
        diagnostics = {
            "mode": mode,
            "zeros": [{"point": list(r.point), "index": r.index}
                      for r in records]}
    else:
        raise ConfigError(f"unknown degree mode {mode!r}")
    _emit({"schema": "egdeg/1", "degree": int(value),
           "diagnostics": diagnostics}, cfg.output or args.output)
    return 0


def cmd_perturb_trace(args) -> int:
    cfg = load_config(args.config)
    group, omega, f, num, _ = _build_map(cfg)  # (e), a surrogate's last type, has no tube
    layers = []
    for step in recursion(group, omega, f, num, tubes_only=True):
        tube = step.tube
        entry_log = {
            "step": step.index,
            "orbit_type": step.label,
            "centers": tube.centers.tolist(),
            "rho": tube.rho,
            "epsilon": tube.epsilon,
            "shell_margin": shell_margin(tube),
        }
        if not tube.is_empty:
            region_report = verify_partition(step.family, args.samples)
            entry_log["regions"] = {
                "checked": region_report["checked"],
                "violations": region_report["violations"],
                "margin_C": region_report.get("margin_C"),
            }
        layers.append(entry_log)
    _emit({"schema": "egdeg/1", "layers": layers}, cfg.output or args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import report_lines, run_suite
    report = run_suite(args.suite)
    text = canonical_json(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    for line in report_lines(report):
        print(line)
    return 0 if report["passed"] else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egdeg",
        description="Degree-type invariants of equivariant gradient local maps")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("strata", cmd_strata), ("theta", cmd_theta),
                     ("degree", cmd_degree)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--output", default=None, help="also write JSON here")
        p.set_defaults(fn=fn)

    p = sub.add_parser("perturb-trace")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(fn=cmd_perturb_trace)

    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=["all", "axioms", "degree", "partition"],
                   default="all")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerics error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except EgdegError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
