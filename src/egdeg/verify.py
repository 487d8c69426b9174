"""Acceptance suite: the invariant's axioms as executable checks.

Each criterion returns (passed, details); suites bundle them.  Result
reports contain only deterministic values, so two runs from fresh caches
serialize to byte-identical files.
"""
from __future__ import annotations

import numpy as np

from . import degree as dg
from .config import canonical_json
from .domains import MapDomain, annulus, full_space, punctured_space
from .errors import DomainsOverlap, EgdegError, TubeTooWide
from .factory import catalog, catalog_names, orbit_normal
from .groups import CircleRep, antipodal, cyclic, dihedral, symmetric
from .maps import disjoint_union, empty_map, make_map, restrict_to_stratum
from .params import Numerics
from .perturb import verify_partition
from .potentials import PolynomialPotential, poly_add, poly_scale
from .strata import cached_stratum, iso_types, locate
from .theta import (
    ThetaVector,
    fold_steps,
    recursion,
    theta,
    theta_add,
    theta_radial_s1,
)

ORACLE_COUNT, ORACLE_SEED = 25, 424200  # criterion 7: instances per dimension, first seed
LINE_EXPECTED = {"min": (1, 0), "max": (1, -1)}   # confirmed by tests/oracles.py
S1_EXPECTED = {"plus": (1, 0), "minus": (1, -1), "hat": (None, 1)}


def _num_for(dim: int) -> Numerics:
    if dim >= 3:
        return Numerics(grid_h=0.15, bbox=1.6)
    return Numerics(grid_h=0.1, bbox=2.0)


_GROUPS = {"antipodal1": lambda: antipodal(1), "antipodal2": lambda: antipodal(2),
           "d3": lambda: dihedral(3), "s3": lambda: symmetric(3),
           "z4": lambda: cyclic(4), "z3": lambda: cyclic(3)}


class _Ctx:
    """Groups shared across criteria, so their lattices and the strata
    memoized on them are built once."""

    def __init__(self):
        self.groups = {}

    def group(self, name: str):
        if name not in self.groups:
            self.groups[name] = _GROUPS[name]()
        return self.groups[name]


# ---------------------------------------------------------------------------
# criterion 1: normalization


def _normalization_cases(ctx):
    cases = []
    for gname in ("antipodal1", "antipodal2", "d3", "s3", "z4"):
        group = ctx.group(gname)
        num = _num_for(group.dim)
        omega = full_space()
        lat = iso_types(group, omega, num.grid_h, num.bbox)
        for cid in lat.class_ids:
            rec = group.lattice.records[cid]
            if rec.fixed_dim < 1:
                continue
            cases.append((gname, cid, num))
    return cases


def _run_normalization_case(ctx, gname, cid, num):
    group = ctx.group(gname)
    omega = full_space()
    stratum = cached_stratum(group, omega, cid, num)
    comp = stratum.components[0]
    # most interior cell of the representative component
    if stratum.singular is not None:
        clearance = stratum.singular.min_distance(
            comp.centers @ stratum.basis.T)
    else:
        clearance = np.linalg.norm(comp.centers, axis=1)
    interior = comp.centers[int(np.argmax(clearance))]
    point = stratum.to_ambient(interior)[0]
    label = group.lattice.class_label(cid)
    _, qlabel = locate(stratum, point)
    f = None
    for eps in (0.3, 0.27, 0.24):
        try:
            f = orbit_normal(group, omega, point, eps, bbox=num.bbox)
            break
        except TubeTooWide:
            continue
    if f is None:
        return False, {"case": f"{gname}/{label}", "error": "no tube radius fit"}
    vec = theta(group, omega, f, num)[0]
    expected = ThetaVector.from_dict(
        {(label, qlabel): 1},
        0 if vec.origin_slot is not None else None)
    ok = vec == expected
    return ok, {"case": f"{gname}/{label}", "got": str(vec),
                "want": str(expected)}


def criterion_normalization(ctx):
    results = [_run_normalization_case(ctx, *c)
               for c in _normalization_cases(ctx)]
    passed = all(ok for ok, _ in results)
    return passed, {"cases": [d for _, d in results],
                    "count": len(results)}


# ---------------------------------------------------------------------------
# criterion 2: additivity


def _pair_pool(ctx):
    """Deterministic disjoint factory-map pairs over several groups."""
    specs = []
    rng = np.random.default_rng(np.random.SeedSequence([515151]))
    group_cycle = ("antipodal1", "antipodal2", "d3")
    attempts = 0
    while len(specs) < 20 and attempts < 200:
        attempts += 1
        gname = group_cycle[attempts % 3]
        group = ctx.group(gname)
        num = _num_for(group.dim)
        r1, r2 = sorted(rng.uniform(0.5, 1.7, size=2))
        ang1, ang2 = rng.uniform(0, 2 * np.pi, size=2)
        eps = 0.16
        if group.dim == 1:
            p1, p2 = np.array([r1]), np.array([r2])
        else:
            p1 = r1 * np.array([np.cos(ang1), np.sin(ang1)])
            p2 = r2 * np.array([np.cos(ang2), np.sin(ang2)])
        try:
            f1 = orbit_normal(group, full_space(), p1, eps, bbox=num.bbox)
            f2 = orbit_normal(group, full_space(), p2, eps, bbox=num.bbox)
            union = disjoint_union(f1, f2)
        except (TubeTooWide, DomainsOverlap, EgdegError):
            continue
        specs.append((gname, num, f1, f2, union))
    return specs


def _run_pair(ctx, spec):
    gname, num, f1, f2, union = spec
    group = ctx.group(gname)
    omega = full_space()
    v1 = theta(group, omega, f1, num)[0]
    v2 = theta(group, omega, f2, num)[0]
    vu = theta(group, omega, union, num)[0]
    ok = vu == theta_add(v1, v2)
    return ok, {"group": gname, "sum": str(theta_add(v1, v2)), "union": str(vu)}


def criterion_additivity(ctx):
    specs = _pair_pool(ctx)
    if len(specs) < 20:
        return False, {"error": f"only {len(specs)} valid pairs generated"}
    results = [_run_pair(ctx, s) for s in specs]
    passed = all(ok for ok, _ in results)
    return passed, {"pairs": len(results),
                    "failures": [d for ok, d in results if not ok]}


# ---------------------------------------------------------------------------
# criterion 3: vanishing and existence


def criterion_vanishing(ctx):
    details = {"checked": []}
    group = ctx.group("antipodal1")
    num = _num_for(1)
    vec = theta(group, full_space(), empty_map(group, num.bbox), num)[0]
    ok = vec.is_zero
    details["empty"] = str(vec)
    shells = [(0.3, 0.9), (0.4, 1.1), (0.5, 1.3), (0.6, 1.5)]
    cases = []
    for gname, sign in (("antipodal1", 1.0), ("antipodal1", -1.0),
                        ("antipodal2", 1.0), ("antipodal2", -1.0),
                        ("d3", 1.0)):
        g = ctx.group(gname)
        numg = _num_for(g.dim)
        for r1, r2 in shells[:2]:
            coeff = 0.5 * sign
            terms = {}
            for j in range(g.dim):
                e = [0] * g.dim
                e[j] = 2
                terms[tuple(e)] = coeff
            f = make_map(g, MapDomain(annulus(r1, r2), numg.bbox),
                         PolynomialPotential(terms, g.dim))
            cases.append((gname, numg, f))
    for gname, numg, f in cases[:10]:
        g = ctx.group(gname)
        vec = theta(g, full_space(), f, numg)[0]
        details["checked"].append(str(vec))
        ok = ok and vec.is_zero
    return ok, details


# ---------------------------------------------------------------------------
# criterion 4: split consistency and deformation independence


def _catalog_checks(name):
    entry = catalog(name)
    group, omega, f = entry.build()
    num = _num_for(group.dim)
    if entry.numerics:
        num = num.with_(**entry.numerics)
    steps = list(recursion(group, omega, f, num))
    base, _ = fold_steps(steps)
    parts = steps[0].parts
    checks = {}
    # the recursion splits off every orbit type but the last, so a group
    # with a single orbit type has no split to check
    if parts is not None:
        core = theta(group, omega, parts.core, num)[0]
        trimmed = theta(group, omega, parts.trimmed, num)[0]
        checks["split"] = (base == theta_add(core, trimmed))
    for lam in (0.5, 2.0, 7.0):
        checks[f"scale_{lam}"] = (
            theta(group, omega, f.scaled(lam), num)[0] == base)
    quintic = theta(group, omega, f, num.with_(mu_kind="quintic"))[0]
    checks["mu_swap"] = (quintic == base)
    return all(checks.values()), {"entry": name,
                                  "failed": [k for k, v in checks.items() if not v]}


def criterion_split_consistency(ctx):
    results = [_catalog_checks(n) for n in catalog_names()]
    passed = all(ok for ok, _ in results)
    return passed, {"entries": [d for _, d in results]}


# ---------------------------------------------------------------------------
# criteria 5 and 6: pinned line and circle computations


def criterion_line(ctx):
    group = ctx.group("antipodal1")
    num = _num_for(1)
    out = {}
    ok = True
    for name, key in (("z2_line_min", "min"), ("z2_line_max", "max")):
        _, omega, f = catalog(name).build()
        vec = theta(group, omega, f, num)[0]
        want_slot, want_entry = LINE_EXPECTED[key]
        got = (vec.origin_slot, vec.entry("(e)", "q0"))
        out[name] = {"got": list(got), "want": [want_slot, want_entry]}
        ok = ok and got == (want_slot, want_entry)
    return ok, out


def criterion_circle(ctx):
    num = _num_for(1)
    rep = CircleRep((1,))
    out = {}
    plus, _ = theta_radial_s1(rep, {1: 0.5}, full_space(), num)
    minus, _ = theta_radial_s1(rep, {1: -0.5}, full_space(), num)
    hat, _ = theta_radial_s1(rep, {2: 0.25, 1: -0.5, 0: 0.25}, punctured_space(), num)
    got = {
        "plus": (plus.origin_slot, plus.entry("(Z1)", "q0")),
        "minus": (minus.origin_slot, minus.entry("(Z1)", "q0")),
        "hat": (hat.origin_slot, hat.entry("(Z1)", "q0")),
    }
    ok = all(got[k] == S1_EXPECTED[k] for k in got)
    out.update({k: list(v) for k, v in got.items()})
    return ok, out


# ---------------------------------------------------------------------------
# criterion 7: degree oracle equivalence


def _random_confined(rng, dim):
    terms = {}
    for _ in range(2 * dim + 3):
        exps = tuple(int(e) for e in rng.integers(0, 4, size=dim))
        if sum(exps) > 3:
            continue
        terms[exps] = terms.get(exps, 0.0) + float(rng.normal() * 0.8)
    conf = {}
    for j in range(dim):
        e = [0] * dim
        e[j] = 4
        conf[tuple(e)] = 1.0
    return PolynomialPotential(poly_add(terms, conf), dim)


def _cross_oracle_dim(dim):
    region = dg.BoxRegion([-2.0] * dim, [2.0] * dim, 0.25)
    matches = 0
    produced = 0
    attempt = 0
    while produced < ORACLE_COUNT and attempt < 40 * ORACLE_COUNT:
        rng = np.random.default_rng(ORACLE_SEED + 1000 * dim + attempt)
        attempt += 1
        p = _random_confined(rng, dim)
        fld = dg.FieldAdapter(lambda u, p=p: p.grad(u), dim)
        recs = dg.find_zeros(fld, region)
        if not recs or any(r.degenerate for r in recs):
            continue
        pts = np.array([r.point for r in recs])
        if np.max(np.abs(pts)) > 1.5:
            continue
        produced += 1
        morse = sum(r.index for r in recs)
        boundary = dg.kronecker_degree(fld, region.lo, region.hi)
        if morse == boundary:
            matches += 1
    return matches, produced


def criterion_degree_oracles(ctx):
    results = [_cross_oracle_dim(d) for d in [1, 2, 3]]
    details = {f"dim{d}": {"matches": m, "instances": n}
               for d, (m, n) in zip([1, 2, 3], results)}
    passed = all(m == n == ORACLE_COUNT for m, n in results)
    return passed, details


# ---------------------------------------------------------------------------
# criterion 8: quotient division rule


RE_Z3 = {(3, 0): 1.0, (1, 2): -3.0}
IM_Z3 = {(2, 1): 3.0, (0, 3): -1.0}
RE_Z4 = {(4, 0): 1.0, (2, 2): -6.0, (0, 4): 1.0}
IM_Z4 = {(3, 1): 4.0, (1, 3): -4.0}
R2 = {(2, 0): 1.0, (0, 2): 1.0}


def _invariant_family(gname: str, rng) -> PolynomialPotential:
    """Seeded invariant potential with a free orbit of simple zeros.

    The harmonic-dominant families carry one orbit of saddles away from the
    origin (a nonzero orbit count), the antipodal plane gets a double well.
    """
    if gname == "antipodal2":
        a = float(rng.uniform(0.7, 1.3))
        b = float(rng.uniform(0.5, 2.0))
        terms = {(4, 0): 1.0, (2, 0): -2 * a * a, (0, 0): a ** 4, (0, 2): b}
        return PolynomialPotential(terms, 2)
    beta = float(rng.uniform(0.6, 1.0))
    phase = float(rng.uniform(0, 2 * np.pi))
    if gname == "z3":
        gamma = float(rng.uniform(0.3, 0.5))
        mix = poly_add(poly_scale(RE_Z3, gamma * np.cos(phase)),
                       poly_scale(IM_Z3, gamma * np.sin(phase)))
    elif gname == "z4":
        gamma = float(rng.uniform(0.25, 0.4))
        mix = poly_add(poly_scale(RE_Z4, gamma * np.cos(phase)),
                       poly_scale(IM_Z4, gamma * np.sin(phase)))
    elif gname == "d3":
        gamma = float(rng.uniform(0.3, 0.5))
        mix = poly_scale(RE_Z3, gamma)
    else:
        raise ValueError(gname)
    return PolynomialPotential(poly_add(mix, poly_scale(R2, -0.5 * beta)), 2)


def criterion_quotient_division(ctx):
    cases = [("antipodal2", 0), ("antipodal2", 1), ("antipodal2", 2),
             ("z3", 0), ("z3", 1), ("z3", 2),
             ("z4", 0), ("z4", 1), ("z4", 2),
             ("d3", 0)]
    checked = []
    ok = True
    for case_no, (gname, variant) in enumerate(cases):
        group = ctx.group(gname)
        num = _num_for(group.dim)
        omega = full_space()
        lat = iso_types(group, omega, num.grid_h, num.bbox)
        if gname == "d3":
            # reflections pin the harmonic critical points onto the axes;
            # exercise the axis stratum there instead of the free one
            target = next(c for c in lat.class_ids
                          if group.lattice.records[c].order == 2)
        else:
            target = lat.class_ids[-1]
        stratum = cached_stratum(group, omega, target, num)
        found = False
        for attempt in range(30):
            rng = np.random.default_rng(
                np.random.SeedSequence([626262, case_no, variant, attempt]))
            pot = _invariant_family(gname, rng)
            try:
                f = make_map(group, MapDomain(omega, num.bbox), pot)
            except EgdegError:
                continue
            fld = restrict_to_stratum(f, stratum)
            region = recs = None
            qlabel = None
            for candidate in stratum.quotient_labels():
                comp = stratum.representative_component(candidate)
                reg = dg.GridRegion(stratum, comp)
                rr = dg.find_zeros(fld, reg)
                if rr and all(not r.degenerate for r in rr):
                    region, recs, qlabel = reg, rr, candidate
                    break
            if recs is None:
                continue
            pts = np.array([r.point for r in recs])
            if np.max(np.linalg.norm(pts, axis=1)) > num.bbox - 3 * num.grid_h:
                continue
            index = [r.index for r in recs]
            total = sum(index)
            stab = region.stabilizer_order
            if total % stab != 0:
                ok = False
                checked.append({"group": gname, "error": "divisibility"})
                found = True
                break
            quotient = dg.quotient_intersection(fld, stratum, qlabel, (pts, np.array(index)))
            # independent oracle: group the zeros into stabilizer orbits
            oracle_total, sizes = _orbit_count_oracle(
                pts, index, group.lattice.weyl_matrices(target))
            case_ok = (total == stab * quotient and oracle_total == quotient
                       and sizes == {stab})
            ok = ok and case_ok
            checked.append({"group": gname, "variant": variant,
                            "count": total, "stab": stab,
                            "quotient": quotient, "ok": case_ok})
            found = True
            break
        if not found:
            ok = False
            checked.append({"group": gname, "variant": variant,
                            "error": "no valid instance"})
    return ok, {"cases": checked}


def _orbit_count_oracle(zeros, indices, weyl_mats):
    zeros = np.atleast_2d(zeros)
    remaining = list(range(len(zeros)))
    total = 0
    sizes = set()
    while remaining:
        i = remaining.pop(0)
        members = [i]
        for w in weyl_mats:
            img = zeros[i] @ w.T
            for j in list(remaining):
                if np.linalg.norm(zeros[j] - img) <= 1e-6:
                    if indices[j] != indices[i]:
                        return None, {-1}
                    members.append(j)
                    remaining.remove(j)
        sizes.add(len(members))
        total += indices[i]
    return total, sizes


# ---------------------------------------------------------------------------
# criterion 9: partition verification


def criterion_partition(ctx):
    """Region checks on the first tube family of two catalog maps."""
    out = {}
    ok = True
    for name in ("z2_line_max", "d3_axis_orbit_normal"):
        group, omega, f = catalog(name).build()
        num = _num_for(group.dim)
        step = next(recursion(group, omega, f, num))
        rep = verify_partition(step.family, 1000)
        out[name] = {"violations": rep["violations"],
                     "margin_C": rep["margin_C"]}
        ok = ok and rep["violations"] == 0 and rep["margin_C"] > 0
    return ok, out


# ---------------------------------------------------------------------------
# suites


AXIOM_CRITERIA = [
    (1, "normalization", criterion_normalization),
    (2, "additivity", criterion_additivity),
    (3, "vanishing_existence", criterion_vanishing),
    (4, "split_consistency", criterion_split_consistency),
    (5, "line_computation", criterion_line),
    (6, "circle_demo", criterion_circle),
]
DEGREE_CRITERIA = [
    (7, "degree_oracle_equivalence", criterion_degree_oracles),
    (8, "quotient_division", criterion_quotient_division),
]
PARTITION_CRITERIA = [
    (9, "partition_regions", criterion_partition),
]


def run_suite(suite: str) -> dict:
    """Run one acceptance suite; returns a deterministic report dict."""
    if suite == "axioms":
        criteria = AXIOM_CRITERIA
    elif suite == "degree":
        criteria = DEGREE_CRITERIA
    elif suite == "partition":
        criteria = PARTITION_CRITERIA
    elif suite == "all":
        criteria = AXIOM_CRITERIA + DEGREE_CRITERIA + PARTITION_CRITERIA
    else:
        raise ValueError(f"unknown suite {suite!r}")
    ctx = _Ctx()
    results = []
    for number, name, fn in criteria:
        try:
            passed, details = fn(ctx)
        except EgdegError as exc:
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"criterion": number, "name": name,
                        "passed": bool(passed), "details": details})
    report = {"schema": "egdeg/1", "suite": suite,
              "results": results,
              "passed": all(r["passed"] for r in results)}
    if suite == "all":
        det_passed, det_details = criterion_determinism()
        report["results"].append({"criterion": 10, "name": "determinism",
                                  "passed": det_passed,
                                  "details": det_details})
        report["passed"] = report["passed"] and det_passed
    return report


def criterion_determinism() -> tuple[bool, dict]:
    """Two runs of the axioms suite, each from fresh caches, must serialize
    identically."""
    first = canonical_json(run_suite("axioms"))
    second = canonical_json(run_suite("axioms"))
    return first == second, {"bytes": len(first), "identical": first == second}


def report_lines(report: dict) -> list[str]:
    lines = []
    for r in report["results"]:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {r['criterion']}: {r['name']}")
    lines.append(f"suite {report['suite']}: "
                 + ("all criteria passed" if report["passed"]
                    else "FAILURES present"))
    return lines
