"""Tube selection, the perturbation family, and the induced map splits.

Around the zeros of a map on the current maximal stratum we grow an
invariant neighbourhood U (balls of radius rho around marked grid cells and
their group images) and pick the tube radius epsilon by halving until three
sampled conditions hold: the tube stays in the map domain, the field stays
above ZERO_THRESH on the lateral shell, and the normal decomposition is
unambiguous.  ``select_tube`` returns that ``TubeGeometry``,
which ``perturb`` and ``split`` use as is.  The perturbed map replaces the
potential on the tube by its value at the retracted base point plus the well
profile; the one-parameter family interpolating from the identity,
``HomotopyFamily``, follows ``PerturbationLayer.coeffs`` and is exposed for
verification.
"""
from __future__ import annotations

import numpy as np

from .domains import Subspaces, Tube
from .errors import PartitionViolation, TubeSelectionFailed
from .groups import distinct_rows
from .maps import LocalGradientMap, layer_grad, through_layer
from .params import Numerics
from .profiles import PerturbationLayer
from .records import Record
from .tubes import TubeGeometry

ZERO_THRESH = 1e-8   # field magnitude at or below which a point counts as a zero
MAX_HALVINGS = 20    # tube radius halvings before tube selection gives up


def _orbit_closure(group, points: np.ndarray) -> np.ndarray:
    """Group images of a point set, deduplicated."""
    if len(points) == 0:
        return points
    images = np.concatenate([points @ group.elements[g].T
                             for g in range(group.order)], axis=0)
    keep = images[distinct_rows(images, 1e-9)]
    return keep[np.lexsort(keep.T[::-1])]


def select_tube(f: LocalGradientMap, class_id: int, zero_points: np.ndarray,
                num: Numerics) -> TubeGeometry:
    """Choose (U, epsilon) around the zeros of the map on the stratum of the
    orbit type ``class_id``.

    ``zero_points`` are ambient zeros of f on the representative subspace;
    the invariant U is the union of stratum balls of radius rho around their
    group closure (or the origin itself for a point stratum).  Starting from
    rho = epsilon = 2h, both radii are halved together until the three tube
    validations pass: the tube stays inside the map domain, the field is
    bounded away from zero on the lateral shell, and the normal projection
    is unambiguous throughout the tube.  Returns the validated geometry, its
    shell margin recorded.
    """
    group = f.group
    lat = group.lattice
    point_stratum = lat.records[class_id].fixed_dim == 0
    rho0 = 2 * num.grid_h
    if point_stratum:
        origin = np.zeros((1, group.dim))
        has_zero = (f.member(origin)[0]
                    and np.linalg.norm(f.grad(origin)[0]) <= ZERO_THRESH)
        centers = origin if has_zero else np.empty((0, group.dim))
    else:
        centers = _orbit_closure(group, np.atleast_2d(zero_points)
                                 if len(zero_points) else zero_points)
        singular = lat.singular(class_id)
        if len(centers) and singular is not None:
            clearance = float(np.min(singular.min_distance(centers)))
            rho0 = min(rho0, 0.9 * clearance)

    if len(centers) == 0:
        return TubeGeometry(lat.family(class_id), np.empty((0, group.dim)), rho0,
                            0.0, point_stratum=point_stratum)

    rng = np.random.default_rng(np.random.SeedSequence([num.seed, 101, class_id]))
    rho = eps = rho0
    for _ in range(MAX_HALVINGS):
        geo = TubeGeometry(lat.family(class_id), centers, rho, eps,
                           point_stratum=point_stratum)
        ok, geo.margin = _validate_tube(f, geo, num, rng)
        if ok:
            return geo
        rho /= 2
        eps /= 2
    raise TubeSelectionFailed(
        f"no epsilon validated after {MAX_HALVINGS} halvings "
        f"(class {class_id}); shrink grid_h or enlarge the domain")


def _validate_tube(f, geo: TubeGeometry, num: Numerics, rng) -> tuple[bool, float]:
    tube_pts = geo.sample_tube(500, rng)
    if len(tube_pts) == 0:
        return False, 0.0
    if not np.all(f.member(tube_pts)):
        return False, 0.0
    if np.any(geo.family.gap(tube_pts) <= geo.epsilon / 10.0):
        return False, 0.0
    shell_pts = geo.sample_shell(500, rng)
    if len(shell_pts) == 0:
        return True, float("inf")  # empty lateral boundary
    margin = float(np.min(np.linalg.norm(f.grad(shell_pts), axis=1)))
    if margin <= ZERO_THRESH:
        return False, margin
    return True, margin


# ---------------------------------------------------------------------------
# perturbation and family


class HomotopyFamily:
    """The interpolation from the identity to the perturbed map.

    ``grad_at(t, pts)`` evaluates the gradient of the interpolated potential:
    retraction toward the stratum during the first half, then the well
    profile is switched on during the second half.  It is the layer chain
    rule ``maps.layer_grad`` at time t, with the schedule of
    ``PerturbationLayer.coeffs``.  The section at t=0 is the original map off
    the lateral shell; the section at t=1 is the perturbed map.
    """

    def __init__(self, base: LocalGradientMap, layer: PerturbationLayer):
        self.base = base
        self.layer = layer

    def grad_at(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return layer_grad(self.layer, pts, lambda p, _: self.base.grad(p), t)

    def retracted(self, t: float, points: np.ndarray) -> np.ndarray:
        """r_{2t}(z) for t <= 1/2, r_1(z) beyond (identity off the tube)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return through_layer(self.layer, pts, lambda p, _: p, lambda r, *_: r, t)


def perturb(f: LocalGradientMap, tube: TubeGeometry,
            mu_kind: str = "cubic") -> tuple[LocalGradientMap, HomotopyFamily]:
    """Append the layer of ``tube``; returns the perturbed map and its family.

    An empty tube is a no-op layer: the perturbed map equals f (the domain
    still shrinks only when the split removes the stratum).
    """
    layer = PerturbationLayer(tube, mu_kind)
    if tube.is_empty:
        return f, HomotopyFamily(f, layer)
    return f.with_layer(layer), HomotopyFamily(f, layer)


class SplitParts(Record):
    """The three restrictions of a perturbed map."""

    core: LocalGradientMap          # restriction to the inner third tube
    off_stratum: LocalGradientMap   # restriction off the stratum subspaces
    trimmed: LocalGradientMap       # off_stratum minus the closed inner tube


def split(f_pert: LocalGradientMap, tube: TubeGeometry) -> SplitParts:
    """Restrict the perturbed map to its normal core, complement and trim.

    The complement removes the full conjugate subspaces of ``tube.family``;
    for the maximal orbit type of the current domain this coincides with
    removing the stratum.
    """
    off = f_pert.with_domain(f_pert.domain.without(Subspaces(tube.family)))
    core = f_pert.with_domain(f_pert.domain.within(Tube(tube, 1.0 / 3, closed=False)))
    if tube.is_empty:
        return SplitParts(core=core, off_stratum=off, trimmed=off)
    trimmed = off.with_domain(off.domain.without(Tube(tube, 1.0 / 3, closed=True)))
    return SplitParts(core=core, off_stratum=off, trimmed=trimmed)


# ---------------------------------------------------------------------------
# partition verification


def verify_partition(family: HomotopyFamily, n_samples: int = 1000,
                     seed: int = 29) -> dict:
    """Sample the four time-tube regions and check the zero characterizations.

    Region A (t in [0,1/2], tube): the family vanishes exactly where the
    original map vanishes at the retracted point.  Region B (t in [1/2,1],
    outer tube shell): same with the full retraction.  Region C (t in
    [1/2,1], inner tube off the base): the family never vanishes; the minimum
    sampled magnitude is reported as the region margin.  Region D (the base
    itself): the family equals the map pointwise.
    """
    geo = family.layer.geometry
    if geo.is_empty:
        return {"empty_tube": True, "violations": 0}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    eps = geo.epsilon
    report = {"empty_tube": False, "violations": 0, "margin_C": float("inf"),
              "checked": {}}

    def iff_violations(h, fr, s, t):
        """Zero-set disagreement beyond the retraction Jacobian bounds.

        With h = Dr^T f(r) and sigma the extreme singular values of Dr, a
        sample only counts as a violation when the thresholded zero flags
        disagree in a way the bounds sigma_min |f| <= |h| <= sigma_max |f|
        cannot explain.
        """
        mu_t, mu_t_d, _ = family.layer.coeffs(s, t)
        radial = mu_t + mu_t_d * s
        sig_min = np.minimum(1.0, np.minimum(mu_t, radial))
        sig_max = np.maximum(1.0, np.maximum(mu_t, radial))
        hn = np.linalg.norm(h, axis=1)
        fn = np.linalg.norm(fr, axis=1)
        h_zero = hn <= ZERO_THRESH
        f_zero = fn <= ZERO_THRESH
        bad_h = h_zero & (fn > ZERO_THRESH / np.maximum(sig_min, 1e-300))
        bad_f = f_zero & (hn > ZERO_THRESH * sig_max)
        return int(np.sum(bad_h | bad_f))

    # region A
    pts = geo.sample_tube(n_samples, rng)
    dec_a = geo.decompose(pts)
    ts = np.round(rng.uniform(0.0, 0.5, size=len(pts)), 3)
    bad = 0
    for t in np.unique(ts, return_index=True)[0]:  # bare np.unique imports numpy.ma
        sel = ts == t
        h = family.grad_at(float(t), pts[sel])
        fr = family.base.grad(family.retracted(float(t), pts[sel]))
        bad += iff_violations(h, fr, dec_a["s"][sel], float(t))
    report["checked"]["A"] = len(pts)
    report["violations"] += bad

    # region B: outer shell 2eps/3 <= s < eps
    pts = geo.sample_tube(4 * n_samples, rng)
    dec = geo.decompose(pts)
    sel = dec["s"] >= 2 * eps / 3
    pts_b = pts[sel][:n_samples]
    if len(pts_b):
        t = float(rng.uniform(0.5, 1.0))
        h = family.grad_at(t, pts_b)
        fr = family.base.grad(family.retracted(0.5, pts_b))
        report["violations"] += iff_violations(h, fr, dec["s"][sel][:n_samples], t)
    report["checked"]["B"] = len(pts_b)

    # region C: inner tube off the base, 0 < s < 2eps/3; the family can
    # legitimately vanish on the t = 1/2 face over base zeros, so the open
    # time interval is sampled
    pts = geo.sample_tube(4 * n_samples, rng)
    dec = geo.decompose(pts)
    sel = (dec["s"] > 0) & (dec["s"] < 2 * eps / 3)
    pts_c = pts[sel][:n_samples]
    if len(pts_c):
        ts = np.round(rng.uniform(0.501, 1.0, size=len(pts_c)), 3)
        mins = np.empty(len(pts_c))
        for t in np.unique(ts, return_index=True)[0]:
            m = ts == t
            mins[m] = np.linalg.norm(family.grad_at(float(t), pts_c[m]), axis=1)
        margin = float(np.min(mins))
        report["margin_C"] = margin
        if margin <= 0.0:
            report["violations"] += int(np.sum(mins <= 0.0))
    report["checked"]["C"] = len(pts_c)

    # region D: the base set U itself
    base_pts = geo.sample_base(n_samples, rng)
    if len(base_pts):
        t = float(rng.uniform(0.5, 1.0))
        h = family.grad_at(t, base_pts)
        fv = family.base.grad(base_pts)
        gap = np.linalg.norm(h - fv, axis=1)
        tol = 1e-12 * (1.0 + np.linalg.norm(fv, axis=1))
        report["violations"] += int(np.sum(gap > tol))
        report["region_D_max_gap"] = float(np.max(gap))
    report["checked"]["D"] = len(base_pts)

    if report["violations"]:
        raise PartitionViolation(f"{report['violations']} region violations: {report}")
    return report

