"""The degree-type invariant: orchestration of the stratum recursion.

Orbit types are processed maximal first.  ``recursion`` is the one place the
loop is written: at every positive-dimensional type it finds the zeros of
the current map restricted to the stratum chart (Newton on one component
per quotient orbit, Weyl transport to the others) and keeps them as three
arrays: points, Morse indices and components.  At every type but the
last it perturbs the map around those zeros and restricts it off the stratum
before the next type is processed.  It yields one ``Step`` per type.
``theta`` folds the steps into the invariant: a zero-dimensional top type
gives the {0,1} origin slot, every other type a row of quotient intersection
numbers.  Each stratum comes from ``strata.cached_stratum``, memoized on the
group's subgroup lattice, so every run over one group builds it once.
``egdeg perturb-trace`` reports the tubes of the same steps, and the
acceptance suite splits and verifies the maps of its first step.

The circle demo computes a single-weight rotation action on a radial domain
of the plane on its antipodal line surrogate (``maps.circle_surrogate``),
the same one-dimensional problem, with the free row renamed (Zk).
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

import numpy as np

from .degree import GridRegion, classify_zeros, quotient_intersection
from .domains import DomainExpr
from .errors import AdditionUndefined, ConfigError, WeylTransportFailed
from .groups import CircleRep, FiniteGroupRep
from .maps import LocalGradientMap, StratumField, circle_surrogate, restrict_to_stratum
from .newton import newton_zeros
from .params import POLISH_TOL, Numerics
from .perturb import HomotopyFamily, SplitParts, perturb, select_tube, split
from .records import Factory, Record
from .strata import Stratum, cached_stratum, iso_types
from .tubes import TubeGeometry, row_matmul


class ThetaVector(Record):
    """Sparse integer invariant: one entry per (orbit type, quotient component).

    ``origin_slot`` is the optional {0,1} coordinate present exactly when the
    domain contains the origin and the full group fixes only the origin.
    """

    entries: tuple[tuple[tuple[str, str], int], ...] = ()
    origin_slot: int | None = None

    @classmethod
    def from_dict(cls, entries: dict, origin_slot=None) -> "ThetaVector":
        items = tuple(sorted((k, int(v)) for k, v in entries.items() if v != 0))
        return cls(items, origin_slot)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def entry(self, orbit_type: str, component: str) -> int:
        return self.as_dict().get((orbit_type, component), 0)

    @property
    def is_zero(self) -> bool:
        return not self.entries and (self.origin_slot in (None, 0))

    def to_json_dict(self) -> dict:
        return {
            "theta11": self.origin_slot,
            "entries": [{"orbit_type": k[0], "component": k[1], "value": v}
                        for k, v in self.entries],
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def theta_add(a: ThetaVector, b: ThetaVector) -> ThetaVector:
    """Entrywise sum; origin slots may not both be set to one."""
    if (a.origin_slot is None) != (b.origin_slot is None):
        raise ConfigError("incompatible key spaces: origin slot present on one side")
    out = a.as_dict()
    for k, v in b.entries:
        out[k] = out.get(k, 0) + v
    slot = None
    if a.origin_slot is not None:
        if a.origin_slot == 1 and b.origin_slot == 1:
            raise AdditionUndefined("both origin slots are one; sum undefined")
        slot = max(a.origin_slot, b.origin_slot)
    return ThetaVector.from_dict(out, slot)


class RecursionTrace(Record, frozen=False):
    """Step log of the stratum recursion, for diagnostics and reporting."""

    steps: list[dict] = Factory(list)

    def to_json_dict(self) -> dict:
        return {"steps": self.steps}


def _compact_margin(f: LocalGradientMap, h: float) -> float:
    # tube-born zeros sit a third of the tube radius away from the trimmed
    # core, so the compact-support filter must stay below that
    eps = [layer.epsilon for layer in f.layers if not layer.geometry.is_empty]
    if not eps:
        return h
    return min(h, 0.25 * min(eps))


def _stratum_zero_pass(f: LocalGradientMap, stratum: Stratum):
    """Zeros of the restricted field on every component: one Newton batch
    over the representative components of the quotient orbits, Weyl
    transport to the other components.

    Each representative's seeds (its cell centers, then the seed hints of
    its orbit, a hint in another component moved into it by a Weyl element)
    are tagged with it and go through one ``newton_zeros`` call;
    ``classify_zeros`` takes each representative's points from its own
    seeds only.  Newton is row-wise, so these zeros equal those of one
    ``find_zeros`` over the same seeds.  The field is Weyl-equivariant, so
    every other component gets its representative's zeros mapped by a
    Weyl matrix, all images in one field walk (``_transport``).  Also
    returns the ambient positions of the zeros, the compact margin and the
    batch's Newton counts.
    """
    fld = restrict_to_stratum(f, stratum)
    margin = _compact_margin(f, stratum.h)
    hints, hint_rep = np.empty((0, stratum.dim)), np.empty(0, dtype=int)
    if f.seed_hints:
        pts = np.array(f.seed_hints, dtype=float)
        proj = pts @ stratum.basis @ stratum.basis.T
        on = np.linalg.norm(pts - proj, axis=1) <= 1e-9 * (1 + np.linalg.norm(pts, axis=1))
        if np.any(on):
            hints, hint_rep = _hints_to_representatives(stratum, pts[on] @ stratum.basis)
    regions = {rep: GridRegion(stratum, stratum.components[rep])
               for rep in stratum.reps.tolist()}
    seeds, tags = [], []
    for rep, region in regions.items():
        comp_seeds = np.concatenate([region.seed_points(), hints[hint_rep == rep]])
        seeds.append(comp_seeds)
        tags.append(np.full(len(comp_seeds), rep))
    seeds, tags = np.concatenate(seeds), np.concatenate(tags)
    pts, stats = newton_zeros(fld, seeds, margin)
    tags = tags[stats["kept"]]
    zeros = _transport(fld, stratum, {
        rep: classify_zeros(fld, region, pts[tags == rep], margin)
        for rep, region in regions.items()})
    ambient = row_matmul(zeros[0], stratum.basis.T)
    newton = {key: stats[key] for key in ("seeds", "converged", "stalled", "retired",
                                          "accelerated")}
    return fld, zeros, ambient, margin, newton


def _hints_to_representatives(stratum: Stratum, hints: np.ndarray):
    """Seed hints in stratum coordinates, each moved from its component into
    the representative of its quotient orbit by the first Weyl element that
    carries it there.  A hint's component is its grid lookup; hints near no
    kept cell are left out.  Returns the moved hints and the representative
    of each."""
    comp = stratum.components_of(hints)
    hints, comp = hints[comp >= 0], comp[comp >= 0]
    moved, rep = hints.copy(), stratum.rep[comp]
    for c in sorted(set(comp[rep != comp].tolist())):
        rows = comp == c
        moved[rows] = row_matmul(hints[rows], stratum.weyl_matrix(c, stratum.rep[c]).T)
    return moved, rep


def _transport(fld: StratumField, stratum: Stratum, reps: dict):
    """The zeros of every component in component order, as (n, k) points,
    (n,) Morse indices and (n,) components, from each representative's
    ``(points, index)``: each representative keeps its own, and every other
    component gets its representative's mapped by the first Weyl element
    that carries it there, sorted lexicographically.  Each image keeps its
    zero's index, since det(W J W^T) = det J, and must have a residual of
    at most POLISH_TOL.  The images of all components take one field walk;
    the first component in order with a larger residual raises
    ``WeylTransportFailed``."""
    parts, images = [], []
    for comp in stratum.components:
        rep = int(stratum.rep[comp.index])
        pts, index = reps[rep]
        if rep != comp.index and len(pts):
            pts = row_matmul(pts, stratum.weyl_matrix(rep, comp.index).T)
            images.append((comp, pts))
        parts.append((pts, index))
    if images:
        residuals = np.linalg.norm(fld.grad(np.concatenate([pts for _, pts in images])),
                                   axis=1)
    for comp, pts in images:
        residual, residuals = residuals[:len(pts)], residuals[len(pts):]
        worst = int(np.argmax(residual))
        if not residual[worst] <= POLISH_TOL:
            raise WeylTransportFailed(
                f"Weyl image of a {stratum.group.lattice.class_label(stratum.class_id)}"
                f" zero in component {comp.label_str} has residual "
                f"{residual[worst]:.3e} > {POLISH_TOL:g}; the field is not "
                f"Weyl-equivariant to working precision")
        order = np.lexsort(pts.T[::-1])
        parts[comp.index] = pts.take(order, axis=0), parts[comp.index][1].take(order)
    points, index = zip(*parts)
    return (np.concatenate(points), np.concatenate(index),
            np.repeat(np.arange(len(index)), [len(i) for i in index]))


class Step(Record, frozen=False):
    """One orbit type of the stratum recursion, as ``recursion`` yields it.

    ``f`` is the map entering the step.  Positive-dimensional types carry
    the stratum, the field restricted to it, its zeros in component order
    as the arrays ``zeros`` (n, k), ``zero_index`` (their Morse indices)
    and ``zero_comp`` (their components), solved on each quotient orbit's
    representative and Weyl images of those on the other components, the
    same rows mapped out (``ambient``), the compact margin of the zero pass
    and the seed, converged, stalled, retired and accelerated counts of its
    Newton batch, which runs on the representatives only (``newton``; the
    trace leaves them out, so its bytes depend on the zeros alone).  A
    retired row ran linearly onto the singular set, within the compact
    margin: a zero of a larger orbit type, split off by an earlier step,
    that the margin filter would drop anyway, so retiring it changes no
    zero.  An accelerated row ran
    linearly onto a degenerate zero elsewhere and took a multiplicity step.
    Every step but the last carries the tube, its homotopy family and the
    split of the perturbed map; ``parts.off_stratum`` is the next step's
    ``f``.
    """

    index: int
    class_id: int
    label: str
    fixed_dim: int
    f: LocalGradientMap
    stratum: Stratum | None = None
    restricted: StratumField | None = None
    zeros: np.ndarray | None = None
    zero_index: np.ndarray | None = None
    zero_comp: np.ndarray | None = None
    ambient: np.ndarray | None = None
    margin: float | None = None
    newton: dict | None = None
    tube: TubeGeometry | None = None
    family: HomotopyFamily | None = None
    parts: SplitParts | None = None


def recursion(group: FiniteGroupRep, omega: DomainExpr, f: LocalGradientMap,
              num: Numerics, *, tubes_only: bool = False) -> Iterator[Step]:
    """The stratum recursion, one ``Step`` per orbit type, maximal first.

    Each step runs the zero pass on its stratum and, unless it is the last,
    selects the tube around the stratum zeros, perturbs and restricts the
    map off the stratum, checking that the domain only shrinks.  With
    ``tubes_only`` the recursion ends after the last tube: the last orbit
    type, which gets none, is not yielded and its zero pass does not run.
    """
    lat = iso_types(group, omega, num.grid_h, num.bbox)
    last = len(lat.class_ids) - 1
    f_i = f
    for index, cid in enumerate(lat.class_ids):
        if tubes_only and index == last:
            return
        rec = group.lattice.records[cid]
        step = Step(index, cid, group.lattice.class_label(cid), rec.fixed_dim,
                    f_i, ambient=np.empty((0, group.dim)))
        if rec.fixed_dim >= 1:
            step.stratum = cached_stratum(group, omega, cid, num)
            (step.restricted, (step.zeros, step.zero_index, step.zero_comp),
             step.ambient, step.margin, step.newton) = _stratum_zero_pass(f_i, step.stratum)
        if index < last:
            step.tube = select_tube(f_i, cid, step.ambient, num)
            f_pert, step.family = perturb(f_i, step.tube, num.mu_kind)
            step.parts = split(f_pert, step.tube)
            _assert_domain_shrinks(f_i, step.parts.off_stratum)
            f_i = step.parts.off_stratum
        yield step


def theta(group: FiniteGroupRep, omega: DomainExpr, f: LocalGradientMap,
          num: Numerics) -> tuple[ThetaVector, RecursionTrace]:
    """Full invariant of a gradient local map over the given domain; the
    strata it builds stay memoized on ``group.lattice``."""
    return fold_steps(recursion(group, omega, f, num))


def fold_steps(steps: Iterable[Step]) -> tuple[ThetaVector, RecursionTrace]:
    """Sum recursion steps into the invariant and its trace.

    A zero-dimensional type gives the origin slot; every other type gives one
    quotient intersection number per quotient component.
    """
    entries: dict[tuple[str, str], int] = {}
    origin_slot = None
    trace = RecursionTrace()
    for step in steps:
        step_log: dict = {"step": step.index, "orbit_type": step.label,
                          "fixed_dim": step.fixed_dim}
        stratum = step.stratum
        if stratum is None:
            origin_slot = int(step.f.member(np.zeros((1, step.f.dim)))[0])
            step_log["theta11"] = origin_slot
        else:
            step_log["zeros"] = {stratum.components[c].label_str: n for c, n
                                 in enumerate(np.bincount(step.zero_comp).tolist()) if n}
            step_log["compact_margin"] = step.margin
            values = {}
            for qlabel in stratum.quotient_labels():
                rows = step.zero_comp == stratum.representative_component(qlabel).index
                values[qlabel] = quotient_intersection(
                    step.restricted, stratum, qlabel, (step.zeros[rows], step.zero_index[rows]))
                if values[qlabel] != 0:
                    entries[(step.label, qlabel)] = values[qlabel]
            step_log["intersection"] = values
        if step.tube is not None:
            step_log["tube"] = {
                "centers": int(step.tube.centers.shape[0]),
                "rho": step.tube.rho,
                "epsilon": step.tube.epsilon,
                "margin": shell_margin(step.tube),
            }
        trace.steps.append(step_log)
    return ThetaVector.from_dict(entries, origin_slot), trace


def shell_margin(tube: TubeGeometry) -> float | None:
    """The tube's validated shell margin, None for an empty lateral shell."""
    return None if tube.margin == float("inf") else tube.margin


def _assert_domain_shrinks(f_prev: LocalGradientMap, f_next: LocalGradientMap):
    """The next domain must have the same expression and extend the kept and
    removed regions of the previous one (by identity: ``==`` on a region
    compares arrays).  Appending regions only shrinks a domain."""
    prev, nxt = f_prev.domain, f_next.domain
    if nxt.expr is not prev.expr or not all(
            len(b) >= len(a) and all(x is y for x, y in zip(a, b))
            for a, b in ((prev.kept, nxt.kept), (prev.removed, nxt.removed))):
        raise ConfigError("recursion domain grew; internal bookkeeping error")


# ---------------------------------------------------------------------------
# circle demo


def relabel_free_row(vec: ThetaVector, trace: RecursionTrace,
                     label: str) -> tuple[ThetaVector, RecursionTrace]:
    """A line surrogate's invariant with its free orbit type (e) renamed
    ``label``, in the entries and in the trace steps alike."""
    entries = {(label if t == "(e)" else t, q): v for (t, q), v in vec.entries}
    steps = [dict(s, orbit_type=label) if s["orbit_type"] == "(e)" else s for s in trace.steps]
    return ThetaVector.from_dict(entries, vec.origin_slot), RecursionTrace(steps)


def theta_radial_s1(rep: CircleRep, radial_coeffs: dict[int, float],
                    omega: DomainExpr, num: Numerics) -> tuple[ThetaVector, RecursionTrace]:
    """Invariant of a rotation-invariant gradient map on a radial domain of
    the plane with potential p(r^2) (``radial_coeffs``), on its line surrogate."""
    vec, trace = theta(*circle_surrogate(rep, omega, radial_coeffs, num.bbox), num)
    return relabel_free_row(vec, trace, rep.row_label)
