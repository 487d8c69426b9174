"""Zero finding and intersection numbers of gradient fields on components.

The intersection number of a field on a component is the total signed count
of its zeros.  Three routes are implemented and cross-checked:

* Morse route: multi-start damped Newton from grid cell centers, dedupe,
  then sum the signs of the Hessian determinants (only when every zero is
  nondegenerate).  Each Newton step writes the Jacobians once, entry first,
  and factors each once: in dims up to 3 by cofactors (``_solve_batched``),
  whose determinant also decides regularity, with a pseudo-inverse step on
  near-singular rows; its line search takes two field calls: all full
  steps, then every halving of the rejected rows.  A row whose residual
  falls by a steady factor converges linearly, as onto a singular root.  On
  a stratum field such a row within the compact margin of the stratum's
  singular set is retired: it is bound for a zero of a larger orbit type,
  which the margin filter drops in any case.  On every field, any other
  such row near its zero takes one multiplicity step, the Newton step
  scaled by the multiplicity its displacements show (3 at a triple root).
* Kronecker route: a boundary degree over a region bounded by oriented
  axis facets, taken by one integrator (``frontier_degree``): endpoint signs
  in dim 1, winding of the field angle along the facets in dim 2, where each
  sample interval is halved on its own until its angle step is small,
  triangulated solid-angle sum over all facets at once in dim 3.
  ``kronecker_degree`` takes it over an axis box; a degenerate cluster gets
  it over the cell union of an enclosure grown around the cluster inside
  the component, one ring of axis neighbours per batch.  A cell set is one
  sorted integer array, its rows found by ``strata.row_positions``, and a
  facet set the four arrays ``(lo, hi, axis, side)``.
* Tilt route: when the enclosure degree cannot be certified, shift the
  field by a small constant vector, recount the now nondegenerate zeros by
  the Morse route, and require two tilt directions to agree.  The two
  directions are fixed: drawn from ``Philox(key=TILT_KEY)``, they depend on
  no setting.

The Morse index of a zero, on the field and on a tilted field alike, is the
sign of the Jacobian determinant that the Newton step uses (``_det``),
confirmed by a local boundary degree (``_zero_indices``).

The quotient intersection number divides the representative component count
by the component stabilizer order; the division must be exact.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateUnresolved,
    DimensionUnsupported,
    DivisibilityViolation,
    MarginTooSmall,
    RefinementOverflow,
)
from .params import NEWTON_TOL, POLISH_TOL
from .records import Record
from .strata import row_positions
from .tubes import distance_blocks, nearest_center_distance, row_norms

FD_STEP = 1e-6
DEGENERACY_RATIO = 1e-5   # sigma_min below this times scale means degenerate
DEDUPE_FACTOR = 1e-2      # dedupe radius: 10 h * 1e-3
ENCLOSURE_DILATION = 2.5  # enclosure growth around a cluster, in region steps
RETIRE_STEPS = 3          # accepted Newton steps whose residual ratios must agree
RETIRE_SPREAD = 1e-2      # ... to within this relative spread before a row retires
TAIL_RESIDUAL = 1e-4      # a steady row takes a multiplicity step below this residual
TAIL_RATIO = 0.2          # ... while its residual ratio stays above this
HALVINGS = 0.5 ** np.arange(1, 9)  # step factors of the line search's second call
CERTIFY_FLOOR = 10 * NEWTON_TOL   # least field margin a degree or a tilt is taken on
TILT_KEY = 20240601       # Philox key of the two tilt directions


# ---------------------------------------------------------------------------
# field and region protocols


class FieldAdapter:
    """Wrap a plain callable (N,k)->(N,k) as a degree-computable field."""

    def __init__(self, fn, dim: int, member=None):
        self._fn = fn
        self.dim = dim
        self._member = member

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return self._fn(np.atleast_2d(np.asarray(pts, dtype=float)))

    def member(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._member is None:
            return np.ones(len(pts), dtype=bool)
        return self._member(pts)

    def member_grad(self, pts: np.ndarray):
        memb = self.member(pts)
        return memb, self.grad(pts if memb.all() else np.atleast_2d(pts)[memb])

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(pts)), np.inf)


class TiltedField:
    """field + delta * u, sharing membership with the base field."""

    def __init__(self, base, delta: float, direction: np.ndarray):
        self.base = base
        self.dim = base.dim
        self.offset = delta * np.asarray(direction, dtype=float)

    def grad(self, pts):
        return self.base.grad(pts) + self.offset[None]

    def member(self, pts):
        return self.base.member(pts)

    def member_grad(self, pts):
        memb, vec = self.base.member_grad(pts)
        return memb, vec + self.offset[None]

    def boundary_distance(self, pts):
        return self.base.boundary_distance(pts)


def fd_jacobian(field, pts: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of step FD_STEP, with all 2 k n probes in
    one grad call; the (n, k, k) result views a contiguous entry-first stack."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, k = pts.shape
    probes = np.empty((2, k, n, k))
    probes[0], probes[1] = pts + 0.0, pts  # off axis a: x + 0.0 and x - 0.0 = x
    probes[:, np.arange(k), :, np.arange(k)] += np.array([[FD_STEP], [-FD_STEP]])
    g = field.grad(probes.reshape(-1, k)).reshape(2, k, n, k).transpose(0, 3, 1, 2)
    return (np.subtract(g[0], g[1], order="C") / (2 * FD_STEP)).transpose(2, 0, 1)


class GridRegion:
    """One stratum component as a zero-finding region."""

    def __init__(self, stratum, component):
        self.stratum = stratum
        self.component = component
        self.h = stratum.h
        self.dim = stratum.dim
        self.label = component.label_str
        self.stabilizer_order = int(stratum.stabilizer[component.index])

    def seed_points(self) -> np.ndarray:
        return self.component.centers

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.stratum.components_of(pts) == self.component.index

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.component.centers.min(axis=0) - self.h / 2
        hi = self.component.centers.max(axis=0) + self.h / 2
        return lo, hi


class BoxRegion:
    """A plain axis box with a uniform seed grid (oracle and CLI route)."""

    def __init__(self, lo, hi, h: float):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.h = float(h)
        self.dim = len(self.lo)

    def seed_points(self) -> np.ndarray:
        axes = [np.arange(l + self.h / 2, u, self.h)
                for l, u in zip(self.lo, self.hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.copy(), self.hi.copy()


# ---------------------------------------------------------------------------
# newton


def newton_zeros(field, seeds: np.ndarray, compact_margin: float | None = None,
                 max_iter: int = 80) -> tuple[np.ndarray, dict]:
    """Damped Newton from every seed; returns polished points and stats.

    Each step solves J s = -f once per row (``_solve_batched``: cofactors
    for k <= 3, pinv on near-singular rows).  A row takes the first of the
    steps lam s, lam = 1, 1/2, ..., 1/256, that stays in the domain and
    lowers the residual (``_line_search``); seeds off the domain and seeds
    that cannot improve are dropped.  A point counts as converged when its
    residual is at most POLISH_TOL after polishing (the iteration itself
    targets NEWTON_TOL).  Only the open rows are iterated, as contiguous
    arrays of seed index, point, field vector, residual (``row_norms``, as
    are step lengths) and a history column, compacted on the iterations
    where a row leaves.

    A row is steady when its last RETIRE_STEPS accepted residual ratios lie
    within RETIRE_SPREAD of each other: linear convergence, as at a singular
    root.  On a field with a singular family (``singular_distance``: a
    stratum field), given the band ``compact_margin``, a steady row whose
    point lies within the band of the singular set retires: it leaves the
    working set and is not returned.  Such a row is bound for a zero of a
    larger orbit type, which an earlier step split off: the domain avoids
    every larger type's subspaces, so its boundary distance is at most the
    singular distance and ``classify_zeros`` drops the point at the same
    margin.  Any other steady row whose residual is below TAIL_RESIDUAL
    and whose ratio is above TAIL_RATIO takes one multiplicity step at its
    next iteration (Schroeder): the Newton step times 1 / (1 - q), where
    q < 1 is the ratio of its last two accepted displacements, which is
    (m - 1) / m at a root of multiplicity m.  Both must be full Newton
    steps: a row that crawls on damped steps is not converging onto a
    multiple root, and its boosted step would lie beyond every halving the
    line search tries.  The line search still guards the step, and the
    row's ratio history starts again after it.  These tests are the same on
    every field, so a row that does not retire takes the same steps whether
    or not the field has a singular family.

    Every step is taken row by row, so a seed's point does not depend on
    the other seeds of the batch.  The points come back in seed order, and
    ``stats["kept"]`` holds the index of each one's seed; a retired row
    counts as neither converged nor stalled, and ``stats["accelerated"]``
    counts the rows that took a multiplicity step.
    """
    pts = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    if len(pts) == 0:
        return np.empty((0, field.dim)), {"seeds": 0, "converged": 0,
                                          "stalled": 0, "retired": 0,
                                          "accelerated": 0,
                                          "kept": np.empty(0, dtype=int)}
    singular_distance = getattr(field, "singular_distance", None)
    band = None if singular_distance is None else compact_margin
    fvals = np.full(len(pts), np.inf)
    active, vecs = field.member_grad(pts)
    active = active.copy()
    retired = np.zeros(len(pts), dtype=bool)
    accelerated = np.zeros(len(pts), dtype=bool)
    # the working set: seed index, point, field vector and residual per row
    idx = np.flatnonzero(active)
    cur = pts[idx]
    vecs = np.array(vecs, float, order="C")
    vals = row_norms(vecs)
    fvals[idx] = vals
    active[idx[~np.isfinite(vals)]] = False
    open_rows = np.isfinite(vals) & (vals > NEWTON_TOL)
    idx, cur, vecs, vals = idx[open_rows], cur[open_rows], vecs[open_rows], vals[open_rows]
    # and its history, one column per row: the last RETIRE_STEPS residual
    # ratios, the last two accepted displacements (nan for a damped one) and
    # 1 - q of a multiplicity step due at the next iteration (1 if none)
    history = np.full((RETIRE_STEPS + 3, len(idx)), np.nan)
    history[-1] = 1.0

    for _ in range(max_iter):
        if len(idx) == 0:
            break
        ratios, moves, shrink = history[:RETIRE_STEPS], history[RETIRE_STEPS:-1], history[-1]
        steps = _solve_batched(fd_jacobian(field, cur), np.negative(vecs.T, order="C").T)
        if np.any(shrink != 1.0):
            steps /= shrink[:, None]
            accelerated[idx[shrink != 1.0]] = True
            shrink[:] = 1.0
        before = vals.copy()
        lam = _line_search(field, cur, vecs, vals, steps)
        done = (lam == 0) | (vals <= NEWTON_TOL)
        ratios[:-1] = ratios[1:]
        ratios[-1] = vals / before
        moves[0] = moves[1]
        moves[1] = np.where(lam == 1.0, row_norms(steps), np.nan)
        rows = np.flatnonzero(~done & (ratios.max(0) <= (1 + RETIRE_SPREAD) * ratios.min(0)))
        if len(rows) and band is not None:
            near = singular_distance(cur[rows]) <= band
            retired[idx[rows[near]]] = done[rows[near]] = True
            rows = rows[~near]
        q = moves[1, rows] / moves[0, rows]
        tail = (vals[rows] < TAIL_RESIDUAL) & (ratios[-1, rows] > TAIL_RATIO) & (q < 1)
        shrink[rows[tail]] = 1 - q[tail]
        ratios[:, rows[tail]] = np.nan
        if done.any():
            active[idx[lam == 0]] = False
            pts[idx[done]], fvals[idx[done]] = cur[done], vals[done]
            # a row gather by ``take`` is several times faster than by index
            keep = np.flatnonzero(~done)
            idx, cur, vecs, vals = (x.take(keep, axis=0) for x in (idx, cur, vecs, vals))
            history = history.take(keep, axis=1)
    pts[idx], fvals[idx] = cur, vals

    good = (fvals <= POLISH_TOL) & ~retired
    stats = {"seeds": len(pts), "converged": int(np.sum(good)),
             "stalled": int(np.sum(~active & ~good)),
             "retired": int(np.sum(retired)),
             "accelerated": int(np.sum(accelerated)),
             "kept": np.nonzero(good)[0]}
    return pts[good], stats


def _probe(field, trial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field vectors and residuals (inf off the domain) at trial points."""
    memb, vec = field.member_grad(trial)
    if memb.all():
        return vec, row_norms(vec)
    tvec, tval = np.empty_like(trial), np.full(len(trial), np.inf)
    tvec[memb], tval[memb] = vec, row_norms(vec)
    return tvec, tval


def _line_search(field, cur, vecs, vals, steps) -> np.ndarray:
    """Damped Newton steps for a working set, in two ``member_grad`` calls.

    Each row takes the first factor lam of 1, 1/2, ..., 1/256 whose point
    cur + lam s is a domain member with a finite residual below the row's:
    the first call tries cur + s on the whole set, index free, the second
    all eight halvings of the rows the first rejects at once.  A row's
    trials depend on its own point, step and residual alone, so each row
    ends as a search of one factor per round would leave it.  Accepted rows
    are updated in place; returns lam per row, 0 where none was accepted.
    """
    trial = cur + steps
    tvec, tval = _probe(field, trial)
    took = tval < vals
    for j in range(cur.shape[1]):
        np.copyto(cur[:, j], trial[:, j], where=took)
        np.copyto(vecs[:, j], tvec[:, j], where=took)
    np.copyto(vals, tval, where=took)
    lam = took.astype(float)
    rows = np.flatnonzero(~took)
    if len(rows):
        trial = (cur[rows] + HALVINGS[:, None, None] * steps[rows]).reshape(-1, cur.shape[1])
        tvec, tval = _probe(field, trial)
        # the first halving of each row that lowers its residual
        better = tval.reshape(len(HALVINGS), -1) < vals[rows]
        took = better.any(axis=0)
        first = better.argmax(axis=0)[took]
        at, hit = first * len(rows) + np.flatnonzero(took), rows[took]
        cur[hit], vecs[hit], vals[hit] = trial[at], tvec[at], tval[at]
        lam[hit] = HALVINGS[first]
    return lam


def _cofactors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and cofactors of a stack of k x k matrices, k <= 3,
    held entry first: ``a[i, j]`` is entry (i, j) of every matrix.

    Everything is taken elementwise across the stack, so a matrix's result
    does not depend on the others.  In dim 3, C_ij = a_(i+1)(j+1) a_(i+2)(j+2)
    - a_(i+1)(j+2) a_(i+2)(j+1), indices mod 3, and the determinant is the
    first row's expansion (a_00 C_00 + a_01 C_01) + a_02 C_02; in dim 2 it
    is a_00 a_11 - a_01 a_10.
    """
    k = a.shape[0]
    if k == 1:
        return a[0, 0], np.ones_like(a)
    if k == 2:
        cof = np.stack([a[1, 1], -a[1, 0], -a[0, 1], a[0, 0]]).reshape(a.shape)
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0], cof
    cof = np.empty_like(a)
    for i, j in np.ndindex(3, 3):
        r0, r1, c0, c1 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        np.subtract(a[r0, c0] * a[r1, c1], a[r0, c1] * a[r1, c0], out=cof[i, j])
    det = (a[0, 0] * cof[0, 0] + a[0, 1] * cof[0, 1]) + a[0, 2] * cof[0, 2]
    return det, cof


def _det(jac: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices: cofactors for k <= 3."""
    if 1 <= jac.shape[1] <= 3:
        return _cofactors(jac.transpose(1, 2, 0))[0]
    return np.linalg.det(jac)


def _solve_batched(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps J s = rhs, one factorization per row.

    A finite row is regular when |det J| > 1e-12 ||J||_F^k; its step is
    adj(J) rhs / det J from cofactors for k <= 3, and LAPACK's solve above.
    Near-singular rows take the pinv step and rows that are not finite
    step 0.  It takes ``fd_jacobian``'s view, and rhs as the (n, k) view of
    a contiguous (k, n) array, uncopied; the steps come back C-contiguous.
    """
    k = jac.shape[1]
    # entry first, so every entry of the stack is one contiguous vector
    a = np.ascontiguousarray(jac.transpose(1, 2, 0))
    r = np.ascontiguousarray(rhs.T)
    finite = np.isfinite(a).all(axis=(0, 1)) & np.isfinite(r).all(axis=0)
    if not finite.all():
        a = np.where(finite, a, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # ||J||_F^k with the squares summed in row-major order and the
        # power taken by repeated products
        square = (a * a).reshape(k * k, -1)
        fro = np.sqrt(sum(square[1:], square[0]))
        scale = np.maximum(1e-300, math.prod([fro] * k))
        if k <= 3:
            # (adj rhs)_i = sum_j C_ji rhs_j, summed in order of j
            det, cof = _cofactors(a)
            regular = finite & (np.abs(det) > 1e-12 * scale)
            acc = sum((cof[j] * r[j] for j in range(1, k)), cof[0] * r[0])
            steps = np.zeros(rhs.shape)
            np.divide(acc, det, out=steps.T, where=regular)
        else:
            regular = finite & (np.abs(np.linalg.det(a.transpose(2, 0, 1)))
                                > 1e-12 * scale)
            steps = np.zeros(rhs.shape)
            if np.any(regular):
                steps[regular] = np.linalg.solve(jac[regular],
                                                 rhs[regular][..., None])[..., 0]
    singular = finite & ~regular
    if np.any(singular):
        steps[singular] = (np.linalg.pinv(jac[singular], rcond=1e-10)
                           @ rhs[singular][..., None])[..., 0]
    return steps


def dedupe_points(pts: np.ndarray, radius: float) -> np.ndarray:
    """Greedy dedupe in lexicographic order: a point is kept when no point
    kept before it lies within the radius.

    Each sweep keeps the first remaining point and drops every remaining
    point within the radius of it.
    """
    if len(pts) == 0:
        return pts
    rest = pts[np.lexsort(pts.T[::-1])]
    keep: list[np.ndarray] = []
    while len(rest):
        keep.append(rest[0].copy())   # a view would hold this sweep's array
        d = rest[1:] - rest[0]
        # a matmul takes one dot product per row, summed as the norm of a
        # single vector is; an axis norm can round the last bit differently
        # and so move a point across the radius
        dist = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        rest = rest[1:][~(dist <= radius)]
    return np.array(keep)


class ZeroRecord(Record):
    """One polished zero with its Morse data."""

    point: tuple[float, ...]
    index: int                   # sign of det Hessian; 0 means degenerate

    @property
    def degenerate(self) -> bool:
        return self.index == 0


def _local_degree(field, point: np.ndarray, radius: float,
                  margin_min: float) -> int | None:
    """Boundary degree over a small box around one point; None if uncertifiable."""
    if field.dim > 3 or radius <= 1e-9:
        return None
    lo = point - radius
    hi = point + radius
    try:
        return kronecker_degree(field, lo, hi, margin_min=margin_min)
    except (MarginTooSmall, RefinementOverflow, DimensionUnsupported):
        return None


def find_zeros(field, region, num=None,
               compact_margin: float | None = None) -> list[ZeroRecord]:
    """Multi-start Newton zeros of the field on one component.

    Newton runs from the region's seed points (its first domain query drops
    those off the domain), and ``classify_zeros`` turns the converged points
    into records; both take the same compact margin (``region.h`` by
    default).  ``num`` is not read: the benchmark's workloads pass it
    positionally.
    """
    margin = compact_margin if compact_margin is not None else region.h
    pts, _ = newton_zeros(field, region.seed_points(), margin)
    return classify_zeros(field, region, pts, margin)


def classify_zeros(field, region, pts: np.ndarray,
                   compact_margin: float | None = None) -> list[ZeroRecord]:
    """Zero records of the converged Newton points that belong to one region.

    Points are filtered to the region and to a compact-support margin from
    the domain boundary (``region.h`` by default), then deduplicated at
    10 h / 1000.  A Morse index is only assigned when a local boundary
    degree around the zero confirms the Hessian sign; zeros at profile
    junctions, where one-sided derivatives disagree, are thereby classified
    as degenerate instead of silently miscounted.
    """
    if len(pts) == 0:
        return []
    pts = pts[region.contains(pts)]
    if len(pts) == 0:
        return []
    margin = compact_margin if compact_margin is not None else region.h
    bdist = field.boundary_distance(pts)
    pts = pts[bdist > margin]
    pts = dedupe_points(pts, DEDUPE_FACTOR * region.h)
    if len(pts) == 0:
        return []
    return [ZeroRecord(tuple(p), index)
            for p, index in zip(pts.tolist(), _zero_indices(field, pts, region.h))]


def _zero_indices(field, pts: np.ndarray, h: float) -> list[int]:
    """Certified Morse index of each of a set of distinct zeros, 0 if degenerate.

    A zero gets the sign of its Jacobian determinant only when the Jacobian
    is well conditioned and a local boundary degree over a box of radius
    min(h / 4, 0.4 x the distance to the nearest other zero, 0.8 x the
    distance to the domain boundary) confirms that sign.
    """
    jac = fd_jacobian(field, pts)
    nearest_other = np.empty(len(pts))
    for i, dist in distance_blocks(pts, pts):
        dist[np.arange(len(dist)), np.arange(i, i + len(dist))] = np.inf
        nearest_other[i:i + len(dist)] = dist.min(axis=1)
    svals = np.linalg.svd(jac, compute_uv=False)
    indices = np.where(_det(jac) > 0, 1, -1)
    indices[svals[:, -1] <= DEGENERACY_RATIO * np.maximum(1.0, svals[:, 0])] = 0
    nondegenerate = np.nonzero(indices)[0]
    if len(nondegenerate):
        bdist = field.boundary_distance(pts[nondegenerate])
        for i, bd in zip(nondegenerate, bdist):
            radius = min(h / 4, 0.4 * nearest_other[i], 0.8 * float(bd))
            if _local_degree(field, pts[i], radius, CERTIFY_FLOOR) != indices[i]:
                indices[i] = 0
    return indices.tolist()


# ---------------------------------------------------------------------------
# boundary degree over oriented axis facets

# starting samples per facet side and doubling rounds, per dimension
BOX_RESOLUTION = {2: (32, 10), 3: (8, 10)}
ENCLOSURE_RESOLUTION = {2: (8, 10), 3: (2, 5)}


def kronecker_degree(field, lo, hi, margin_min: float = 1e-9) -> int:
    """Boundary degree of the field over an axis box, dims 1 to 3."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    # facets by axis, then side -1 and 1
    axes, sides = np.repeat(np.arange(len(lo)), 2), np.tile([-1, 1], len(lo))
    a, b = np.tile(lo, (len(axes), 1)), np.tile(hi, (len(axes), 1))
    rows = np.arange(len(axes))
    a[rows, axes] = b[rows, axes] = np.where(sides > 0, hi[axes], lo[axes])
    return frontier_degree(field, (a, b, axes, sides), BOX_RESOLUTION, margin_min)


def frontier_degree(field, facets, resolution: dict, margin_min: float) -> int:
    """Degree of the field over a region bounded by oriented axis facets.

    The facets are the parallel arrays ``(lo, hi, axis, side)``: facet i is
    the box ``[lo[i], hi[i]]``, flat along ``axis[i]``, with outward normal
    ``side[i] e_axis[i]``.  In dim 1 the degree is the sum of
    ``side * sign(f) / 2`` over the facet points.
    In dim 2 each facet is sampled at n + 1 points as a counterclockwise
    polyline, and each round halves every sample interval whose wrapped
    field angle step is pi/4 or more, with the midpoints of all facets in
    one call, until every step is below pi/4; around a closed frontier the
    steps then sum to a multiple of 2 pi.  In dim 3 every facet is
    triangulated n x n with outward orientation, the field is sampled on
    the vertices of all facets in one call, and n doubles until the
    solid-angle sum is within 0.2 of an integer.  ``resolution[dim]`` gives
    the starting samples per facet side and the number of rounds.  Raises
    MarginTooSmall when the field comes within ``margin_min`` of zero on a
    sample and RefinementOverflow when the rounds run out.
    """
    lo, hi, axes, sides = facets
    dim = lo.shape[1]
    if dim > 3:
        raise DimensionUnsupported(
            f"boundary degree implemented for dim <= 3, got {dim}")

    def sample(pts):
        vals = field.grad(pts.reshape(-1, dim))
        mag = float(np.min(np.linalg.norm(vals, axis=1)))
        if mag < margin_min:
            raise MarginTooSmall(f"frontier field magnitude {mag:.3e} below margin")
        return vals.reshape(pts.shape)

    if dim == 1:
        return int(np.sum(sides * np.sign(sample(lo)[:, 0]))) // 2
    n, rounds = resolution[dim]
    if dim == 2:
        # counterclockwise travel: +e_1 on the +e_0 facet, -e_0 on the +e_1 facet
        ccw = ((sides > 0) == (axes == 0))[:, None]
        starts, ends = np.where(ccw, lo, hi), np.where(ccw, hi, lo)

        def angles(facet, t):
            vals = sample(starts[facet] + t[:, None] * (ends - starts)[facet])
            return np.arctan2(vals[:, 1], vals[:, 0])

        # sample intervals [t0, t1] of the facets, with the field angle at
        # both ends; a bad interval is halved at its midpoint, which lies on
        # the grid of the next doubling
        count = len(axes)
        ts = np.linspace(0.0, 1.0, n + 1)
        ang = angles(np.repeat(np.arange(count), n + 1),
                     np.tile(ts, count)).reshape(count, n + 1)
        facet = np.repeat(np.arange(count), n)
        t0, t1 = np.tile(ts[:-1], count), np.tile(ts[1:], count)
        a0, a1 = ang[:, :-1].ravel(), ang[:, 1:].ravel()
        total = 0.0
        for r in range(rounds):
            if r:
                tm = (t0 + t1) / 2
                am = angles(facet, tm)
                facet = np.concatenate([facet, facet])
                t0, t1 = np.concatenate([t0, tm]), np.concatenate([tm, t1])
                a0, a1 = np.concatenate([a0, am]), np.concatenate([am, a1])
            steps = (a1 - a0 + np.pi) % (2 * np.pi) - np.pi
            fine = np.abs(steps) < np.pi / 4
            total += float(np.sum(steps[fine]))
            facet, t0, t1, a0, a1 = (x[~fine] for x in (facet, t0, t1, a0, a1))
            if len(facet) == 0:
                return int(round(total / (2 * np.pi)))
        raise RefinementOverflow("winding number did not stabilize")
    # vertex (i, j) of a facet has sample i on the first of its other two
    # axes (u) and sample j on the second (v); the flat axis is constant.
    # e_u x e_v is -e_1 on axis 1, so swapping p10 and p01 on the facets in
    # ``flip`` turns their triangles outward
    u_axis = np.where(axes == 0, 1, 0)
    on_u = (np.arange(3) == u_axis[:, None])[:, None, None]
    flip = (sides * np.where(axes == 1, -1, 1) < 0)[:, None, None, None]
    for _ in range(rounds):
        edge = np.linspace(lo, hi, n + 1, axis=1)
        vals = sample(np.where(on_u, edge[:, :, None], edge[:, None, :]))
        p00, p10 = vals[:, :-1, :-1], vals[:, 1:, :-1]
        p01, p11 = vals[:, :-1, 1:], vals[:, 1:, 1:]
        p10, p01 = np.where(flip, p01, p10), np.where(flip, p10, p01)
        total = _solid_angles(p00, p10, p11) + _solid_angles(p00, p11, p01)
        deg = total / (4 * np.pi)
        if abs(deg - round(deg)) <= 0.2:
            return int(round(deg))
        n *= 2
    raise RefinementOverflow("solid angle sum did not stabilize")


def _solid_angles(a, b, c) -> float:
    """Summed signed solid angles of the field triangles (van Oosterom-Strackee)."""
    na, nb, nc = (np.linalg.norm(x, axis=-1) for x in (a, b, c))
    numer = np.sum(a * np.cross(b, c), axis=-1)
    denom = (na * nb * nc + np.sum(a * b, axis=-1) * nc
             + np.sum(b * c, axis=-1) * na + np.sum(c * a, axis=-1) * nb)
    return float(np.sum(2 * np.arctan2(numer, denom)))


# ---------------------------------------------------------------------------
# intersection number


def _deterministic_directions(dim: int) -> list[np.ndarray]:
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    rng = np.random.default_rng(np.random.Philox(key=TILT_KEY))
    dirs: list[np.ndarray] = []
    while len(dirs) < 2:
        u = rng.normal(size=dim)
        norm = np.linalg.norm(u)
        if norm <= 1e-8:
            continue
        u = u / norm
        if dirs and abs(float(dirs[0] @ u)) > 0.99:
            continue
        dirs.append(u)
    return dirs


def _linkage_clusters(points: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clusters of points at the given merge radius, each in
    index order, ordered by their first index.

    Each cluster grows from its first point one breadth-first ring at a time,
    so no list of close pairs is ever built."""
    close = np.concatenate([d <= radius for _, d in distance_blocks(points, points)])
    label = np.full(len(points), -1)
    for i in range(len(points)):
        ring = [i] if label[i] < 0 else []
        while len(ring):
            label[ring] = i
            ring = np.flatnonzero(close[ring].any(axis=0) & (label < 0))
    roots = np.flatnonzero(label == np.arange(len(points)))
    return [np.flatnonzero(label == i).tolist() for i in roots]


class _Enclosure:
    """Dilated subgrid neighbourhood of a zero cluster inside one region.

    The enclosure lives on a subdivision of the region grid: a subcell is
    admissible when its center is a domain member, clear of the larger
    isotropy subspaces by half a subcell, and inside the working box.  The
    thin clearance band blocks breadth-first growth from crossing removed
    walls while keeping the frontier much closer to the holes than the
    conservative component grid, so zero sets that hug a hole stay strictly
    interior.  The cells are one integer array in lexicographic order; each
    ring of growth is the last ring's axis neighbours that are not cells
    yet, checked in one batch.
    """

    def __init__(self, region, field, cluster_pts: np.ndarray, subdiv: int = 2,
                 exclude_pts: np.ndarray | None = None):
        self.field = field
        self.step = region.h / subdiv
        self.dim = region.dim
        self._exclude = (np.atleast_2d(exclude_pts)
                         if exclude_pts is not None and len(exclude_pts) else None)
        self._lo, self._hi = region.bounding_box()
        ring = unique_rows(np.floor(cluster_pts / self.step).astype(int))
        self.cells = ring = ring[self._valid(ring)]
        for _ in range(max(1, int(np.ceil(ENCLOSURE_DILATION * region.h / self.step)))):
            ring = unique_rows(_neighbours(ring).reshape(-1, self.dim))
            ring = ring[row_positions(ring, self.cells) < 0]
            ring = ring[self._valid(ring)]
            self.cells = unique_rows(np.concatenate([self.cells, ring]))

    def _valid(self, cells: np.ndarray) -> np.ndarray:
        centers = (cells + 0.5) * self.step
        ok = np.all((centers > self._lo) & (centers < self._hi), axis=1)
        if self._exclude is not None and np.any(ok):
            ok &= nearest_center_distance(centers, self._exclude) > 0.75 * self.step
        if np.any(ok):
            ok[ok] = self.field.member(centers[ok])
        singular_distance = getattr(self.field, "singular_distance", None)
        if singular_distance is not None and np.any(ok):
            # 0.75 step exceeds the half-diagonal, so subspaces through cell
            # corners still punch a hole, and walls always block adjacency
            ok[ok] = singular_distance(centers[ok]) > 0.75 * self.step
        return ok

    def centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.step

    def contains(self, pts: np.ndarray) -> np.ndarray:
        cells = np.floor(np.atleast_2d(pts) / self.step).astype(int)
        return row_positions(cells, self.cells) >= 0

    def ring_points(self) -> np.ndarray:
        """Frontier cell centers plus the midpoint of each frontier facet.

        Midpoints may leave the domain; callers filter by membership before
        taking the margin minimum.
        """
        centers, axes, sides = _cell_frontier(self.cells, self.step)
        probes = centers.copy()
        probes[np.arange(len(axes)), axes] += sides * self.step / 2
        pts = np.stack([centers, probes], axis=1).reshape(-1, self.dim)
        return unique_rows(np.round(pts, 12))


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, k) array in lexicographic order, by a
    lexsort: a plain ``np.unique`` would import ``numpy.ma``."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


def _neighbours(cells: np.ndarray) -> np.ndarray:
    """The (n, k, 2, k) axis neighbours of n cells: by axis, then side -1, 1."""
    dim = cells.shape[1]
    shifts = np.eye(dim, dtype=int)[:, None, :] * np.array([-1, 1])[None, :, None]
    return cells[:, None, None, :] + shifts


def _cell_frontier(cells: np.ndarray, step: float):
    """Frontier of a union of grid cells of the given step: the cell center,
    axis and side of every face not shared with a cell, in cell, axis, side order."""
    n, dim = cells.shape
    outside = row_positions(_neighbours(cells).reshape(-1, dim), cells) < 0
    cell, axis, side = np.nonzero(outside.reshape(n, dim, 2))
    return (cells[cell] + 0.5) * step, axis, 2 * side - 1


def cell_facets(cells: np.ndarray, step: float):
    """Oriented frontier facet arrays ``(lo, hi, axis, side)`` of a cell union."""
    centers, axes, sides = _cell_frontier(cells, step)
    lo, hi = centers - step / 2, centers + step / 2
    rows = np.arange(len(axes))
    lo[rows, axes] = hi[rows, axes] = centers[rows, axes] + sides * step / 2
    return lo, hi, axes, sides


def _enclosure_tilt(field, region, enclosure: _Enclosure,
                    cluster_pts: np.ndarray) -> int:
    """Count cluster zeros after a small constant tilt, inside the enclosure.

    The tilt magnitude stays below half the field minimum on the enclosure
    frontier, so the degree over the enclosure is preserved; two
    fixed directions (``_deterministic_directions``) must give the same count.
    """
    ring = enclosure.ring_points()
    if len(ring) == 0:
        raise DegenerateUnresolved("enclosure has no frontier for a tilt margin")
    ring = ring[field.member(ring)]
    if len(ring) == 0:
        raise DegenerateUnresolved("enclosure frontier left the domain")
    margin = float(np.min(np.linalg.norm(field.grad(ring), axis=1)))
    if margin <= CERTIFY_FLOOR:
        raise DegenerateUnresolved(
            f"enclosure frontier margin {margin:.3e} too small for tilting")
    seeds = np.concatenate([enclosure.centers(), cluster_pts], axis=0)
    counts = []
    for direction in _deterministic_directions(region.dim):
        count = None
        delta = margin / 2
        for _ in range(6):
            tilted = TiltedField(field, delta, direction)
            pts, _stats = newton_zeros(tilted, seeds)
            if len(pts):
                pts = pts[enclosure.contains(pts)]
                pts = dedupe_points(pts, DEDUPE_FACTOR * region.h)
            if len(pts) == 0:
                count = 0
                break
            indices = _zero_indices(tilted, pts, region.h)
            if 0 not in indices:
                count = sum(indices)
                break
            delta *= 0.5
        if count is None:
            raise DegenerateUnresolved("tilted zeros stayed degenerate")
        counts.append(count)
    if counts[0] != counts[1]:
        raise DegenerateUnresolved(
            f"tilt directions disagree: {counts[0]} vs {counts[1]}")
    return counts[0]


def intersection_number(field, region, num=None,
                        records: list[ZeroRecord] | None = None) -> int:
    """Signed zero count of the field over one component.

    Zeros are grouped into proximity clusters.  A cluster of certified
    nondegenerate zeros contributes its Morse sum.  A cluster containing
    degenerate zeros contributes the boundary degree over the cell union of
    an enclosure grown around it inside the component; when that degree
    cannot be certified, it contributes its count after a localized tilt
    with two agreeing directions.  Without ``records``, the zeros are found
    with the default compact margin.  ``num`` is not read: the benchmark's
    workloads pass it positionally.
    """
    if records is None:
        records = find_zeros(field, region)
    if not records:
        return 0
    pts = np.array([r.point for r in records])
    clusters = _linkage_clusters(pts, 4 * region.h)
    total = 0
    for cluster in clusters:
        cluster_records = [records[i] for i in cluster]
        if all(not r.degenerate for r in cluster_records):
            total += sum(r.index for r in cluster_records)
            continue
        cluster_pts = pts[cluster]
        other = np.delete(pts, cluster, axis=0)
        resolved = None
        last_enclosure = None
        for subdiv in (2, 4) if region.dim <= 2 else (2,):
            enclosure = _Enclosure(region, field, cluster_pts, subdiv=subdiv,
                                   exclude_pts=other)
            if not enclosure.contains(cluster_pts).all():
                continue
            last_enclosure = enclosure
            try:
                resolved = frontier_degree(
                    field, cell_facets(enclosure.cells, enclosure.step),
                    ENCLOSURE_RESOLUTION, CERTIFY_FLOOR)
            except (MarginTooSmall, RefinementOverflow, DimensionUnsupported):
                continue
            break
        if resolved is not None:
            total += resolved
            continue
        if last_enclosure is None:
            raise DegenerateUnresolved("degenerate cluster outside the grid")
        total += _enclosure_tilt(field, region, last_enclosure, cluster_pts)
    return total


def quotient_intersection(field, stratum, quotient_label: str,
                          records: list[ZeroRecord] | None = None) -> int:
    """Intersection number on the quotient component.

    Computes the count on the minimal-label representative component and
    divides by the component stabilizer order; a nonzero remainder signals
    missed or spurious zeros and raises DivisibilityViolation.
    """
    comp = stratum.representative_component(quotient_label)
    region = GridRegion(stratum, comp)
    total = intersection_number(field, region, records=records)
    stab = region.stabilizer_order
    if total % stab != 0:
        raise DivisibilityViolation(
            f"count {total} not divisible by stabilizer {stab} "
            f"on component {region.label}")
    return total // stab
