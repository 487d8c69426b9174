"""Zero finding and intersection numbers of gradient fields on components.

The intersection number of a field on a component is the total signed count
of its zeros.  Three routes are implemented and cross-checked:

* Morse route: multi-start damped Newton from grid cell centers, dedupe,
  then sum the signs of the Hessian determinants (only when every zero is
  nondegenerate).
* Kronecker route: a boundary degree over a region bounded by oriented
  axis facets, taken by one integrator (``frontier_degree``): endpoint signs
  in dim 1, winding of the field angle along the facets in dim 2, where each
  sample interval is halved on its own until its angle step is small,
  triangulated solid-angle sum over all facets at once in dim 3.
  ``kronecker_degree`` takes it over an axis box; a degenerate cluster gets
  it over the cell union of an enclosure grown around the cluster inside
  the component.
* Tilt route: when the enclosure degree cannot be certified, shift the
  field by a small deterministic constant vector, recount the now
  nondegenerate zeros by the Morse route, and require two tilt directions
  to agree.

The Morse index of a zero, on the field and on a tilted field alike, is the
Jacobian determinant sign, confirmed by a local boundary degree
(``_zero_indices``).

The quotient intersection number divides the representative component count
by the component stabilizer order; the division must be exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateUnresolved,
    DimensionUnsupported,
    DivisibilityViolation,
    MarginTooSmall,
    RefinementOverflow,
)
from .params import POLISH_TOL, Numerics

FD_STEP = 1e-6
DEGENERACY_RATIO = 1e-5   # sigma_min below this times scale means degenerate
DEDUPE_FACTOR = 1e-2      # dedupe radius: 10 h * 1e-3
ENCLOSURE_DILATION = 2.5  # enclosure growth around a cluster, in region steps


# ---------------------------------------------------------------------------
# field and region protocols


class FieldAdapter:
    """Wrap a plain callable (N,k)->(N,k) as a degree-computable field."""

    def __init__(self, fn, dim: int, member=None, boundary_distance=None):
        self._fn = fn
        self.dim = dim
        self._member = member
        self._bdist = boundary_distance

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return self._fn(np.atleast_2d(np.asarray(pts, dtype=float)))

    def member(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._member is None:
            return np.ones(len(pts), dtype=bool)
        return self._member(pts)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self._bdist is None:
            return np.full(len(pts), np.inf)
        return self._bdist(pts)


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

    def boundary_distance(self, pts):
        return self.base.boundary_distance(pts)


def fd_jacobian(field, pts: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of step FD_STEP, with all 2 k n probes in
    one grad call."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, k = pts.shape
    e = FD_STEP * np.eye(k)[:, None]
    probes = np.concatenate([pts + e, pts - e]).reshape(-1, k)
    g = field.grad(probes).reshape(2, k, n, k)
    return np.ascontiguousarray(((g[0] - g[1]) / (2 * FD_STEP)).transpose(1, 2, 0))


class GridRegion:
    """One stratum component as a zero-finding region."""

    def __init__(self, stratum, component):
        self.stratum = stratum
        self.component = component
        self.h = stratum.h
        self.dim = stratum.dim
        self.label = component.label_str
        orbit = stratum.orbit_of_component(component.index)
        self.quotient_label = orbit.quotient_label
        self.stabilizer_order = orbit.stabilizer_orders[component.index]

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
        self.label = "box"
        self.quotient_label = "box"
        self.stabilizer_order = 1

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


def newton_zeros(field, seeds: np.ndarray, num: Numerics,
                 max_iter: int = 80) -> tuple[np.ndarray, dict]:
    """Damped Newton from every seed; returns polished points and stats.

    Steps leaving the domain or increasing the residual are halved; seeds
    that cannot improve are dropped.  A point counts as converged when its
    residual is at most POLISH_TOL after polishing (the iteration itself
    targets num.newton_tol, which Numerics keeps at or below POLISH_TOL).
    Every step is taken row by row, so a seed's point does not depend on
    the other seeds of the batch.  The points come back in seed order, and
    ``stats["kept"]`` holds the index of each one's seed.
    """
    pts = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    if len(pts) == 0:
        return np.empty((0, field.dim)), {"seeds": 0, "converged": 0,
                                          "stalled": 0,
                                          "kept": np.empty(0, dtype=int)}
    active = field.member(pts).copy()
    fvals = np.full(len(pts), np.inf)
    fvecs = np.zeros_like(pts)
    if np.any(active):
        fvecs[active] = field.grad(pts[active])
        fvals[active] = np.linalg.norm(fvecs[active], axis=1)
    active &= np.isfinite(fvals)

    for _ in range(max_iter):
        work = np.nonzero(active & (fvals > num.newton_tol))[0]
        if len(work) == 0:
            break
        jac = fd_jacobian(field, pts[work])
        steps = _solve_batched(jac, -fvecs[work])
        cur_pts = pts[work]
        cur_vals = fvals[work]
        new_pts = cur_pts.copy()
        new_vecs = fvecs[work].copy()
        new_vals = cur_vals.copy()
        accepted = np.zeros(len(work), dtype=bool)
        lam = np.ones((len(work), 1))
        for _ in range(9):
            open_idx = np.nonzero(~accepted)[0]
            if len(open_idx) == 0:
                break
            trial = cur_pts[open_idx] + lam[open_idx] * steps[open_idx]
            memb = field.member(trial)
            tvec = np.zeros_like(trial)
            tval = np.full(len(trial), np.inf)
            if np.any(memb):
                tvec[memb] = field.grad(trial[memb])
                tval[memb] = np.linalg.norm(tvec[memb], axis=1)
            good = np.isfinite(tval) & (tval < cur_vals[open_idx])
            hit = open_idx[good]
            new_pts[hit] = trial[good]
            new_vecs[hit] = tvec[good]
            new_vals[hit] = tval[good]
            accepted[hit] = True
            lam[open_idx[~good]] *= 0.5
        stalled = work[~accepted]
        active[stalled] = False
        moved = work[accepted]
        pts[moved] = new_pts[accepted]
        fvecs[moved] = new_vecs[accepted]
        fvals[moved] = new_vals[accepted]

    good = fvals <= POLISH_TOL
    stats = {"seeds": len(pts), "converged": int(np.sum(good)),
             "stalled": int(np.sum(~active & ~good)),
             "kept": np.nonzero(good)[0]}
    return pts[good], stats


def _solve_batched(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    with np.errstate(invalid="ignore"):
        dets = np.abs(np.linalg.det(np.where(finite[:, None, None], jac, 0.0)))
    scale = np.maximum(1e-300,
                       np.linalg.norm(np.nan_to_num(jac), axis=(1, 2)) ** jac.shape[1])
    regular = finite & (dets > 1e-12 * scale)
    steps = np.zeros_like(rhs)
    if np.any(regular):
        steps[regular] = np.linalg.solve(jac[regular], rhs[regular][..., None])[..., 0]
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
        keep.append(rest[0])
        d = rest[1:] - rest[0]
        # a matmul takes one dot product per row, summed as the norm of a
        # single vector is; an axis norm can round the last bit differently
        # and so move a point across the radius
        dist = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        rest = rest[1:][~(dist <= radius)]
    return np.array(keep)


@dataclass(frozen=True)
class ZeroRecord:
    """One polished zero with its Morse data and labels."""

    point: tuple[float, ...]
    index: int                   # sign of det Hessian; 0 means degenerate
    component_label: str
    quotient_label: str

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


def find_zeros(field, region, num: Numerics,
               compact_margin: float | None = None) -> list[ZeroRecord]:
    """Multi-start Newton zeros of the field on one component.

    Newton runs from the region's seed points that lie in the domain, and
    ``classify_zeros`` turns the converged points into records.
    """
    seeds = region.seed_points()
    pts, _ = newton_zeros(field, seeds[field.member(seeds)], num)
    return classify_zeros(field, region, pts, num, compact_margin)


def classify_zeros(field, region, pts: np.ndarray, num: Numerics,
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
    return [ZeroRecord(tuple(float(c) for c in p), index, region.label,
                       region.quotient_label)
            for p, index in zip(pts, _zero_indices(field, pts, region.h, num))]


def _zero_indices(field, pts: np.ndarray, h: float, num: Numerics) -> list[int]:
    """Certified Morse index of each of a set of distinct zeros, 0 if degenerate.

    A zero gets the sign of its Jacobian determinant only when the Jacobian
    is well conditioned and a local boundary degree over a box of radius
    min(h / 4, 0.4 x the distance to the nearest other zero, 0.8 x the
    distance to the domain boundary) confirms that sign.
    """
    jac = fd_jacobian(field, pts)
    if len(pts) > 1:
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        nearest_other = dist.min(axis=1)
    else:
        nearest_other = np.full(1, np.inf)
    svals = np.linalg.svd(jac, compute_uv=False)
    indices = np.where(np.linalg.det(jac) > 0, 1, -1)
    indices[svals[:, -1] <= DEGENERACY_RATIO * np.maximum(1.0, svals[:, 0])] = 0
    certify_floor = max(10 * num.newton_tol, 1e-12)
    nondegenerate = np.nonzero(indices)[0]
    if len(nondegenerate):
        bdist = field.boundary_distance(pts[nondegenerate])
        for i, bd in zip(nondegenerate, bdist):
            radius = min(h / 4, 0.4 * nearest_other[i], 0.8 * float(bd))
            if _local_degree(field, pts[i], radius, certify_floor) != indices[i]:
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
    facets = []
    for axis in range(len(lo)):
        for side in (-1, 1):
            a, b = lo.copy(), hi.copy()
            a[axis] = b[axis] = hi[axis] if side > 0 else lo[axis]
            facets.append((a, b, axis, side))
    return frontier_degree(field, facets, BOX_RESOLUTION, margin_min)


def frontier_degree(field, facets, resolution: dict, margin_min: float) -> int:
    """Degree of the field over a region bounded by oriented axis facets.

    A facet ``(lo, hi, axis, side)`` is the axis-aligned box ``[lo, hi]``,
    flat along ``axis``, with outward normal ``side * e_axis``.  In dim 1
    the degree is the sum of ``side * sign(f) / 2`` over the facet points.
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
    dim = len(facets[0][0])
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
        vals = sample(np.array([lo for lo, _, _, _ in facets]))[:, 0]
        sides = np.array([side for _, _, _, side in facets])
        return int(np.sum(sides * np.sign(vals))) // 2
    n, rounds = resolution[dim]
    if dim == 2:
        # counterclockwise travel: +e_1 on the +e_0 facet, -e_0 on the +e_1 facet
        starts = np.array([lo if (side > 0) == (axis == 0) else hi
                           for lo, hi, axis, side in facets])
        ends = np.array([hi if (side > 0) == (axis == 0) else lo
                         for lo, hi, axis, side in facets])

        def angles(facet, t):
            vals = sample(starts[facet] + t[:, None] * (ends - starts)[facet])
            return np.arctan2(vals[:, 1], vals[:, 0])

        # sample intervals [t0, t1] of the facets, with the field angle at
        # both ends; a bad interval is halved at its midpoint, which lies on
        # the grid of the next doubling
        count = len(facets)
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
    lo = np.array([f[0] for f in facets])
    hi = np.array([f[1] for f in facets])
    axes = np.array([f[2] for f in facets])
    sides = np.array([f[3] for f in facets])
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


def _deterministic_directions(dim: int, seed: int) -> list[np.ndarray]:
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    rng = np.random.default_rng(np.random.Philox(key=seed))
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
    diffs = points[:, None, :] - points[None, :, :]
    close = np.linalg.norm(diffs, axis=2) <= radius
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
    interior.
    """

    def __init__(self, region, field, cluster_pts: np.ndarray,
                 subdiv: int = 2,
                 exclude_pts: np.ndarray | None = None):
        self.region = region
        self.field = field
        self.step = region.h / subdiv
        self.dim = region.dim
        self._exclude = (np.atleast_2d(exclude_pts)
                         if exclude_pts is not None and len(exclude_pts) else None)
        lo, hi = region.bounding_box()
        self._lo, self._hi = lo, hi
        seeds = {self._cell_of(p) for p in np.atleast_2d(cluster_pts)}
        seeds = {c for c in seeds if self._valid_batch(np.array([c]))[0]}
        cells = set(seeds)
        steps = max(1, int(np.ceil(ENCLOSURE_DILATION * region.h / self.step)))
        frontier = set(cells)
        for _ in range(steps):
            candidates = set()
            for cell in frontier:
                for axis in range(self.dim):
                    for sv in (-1, 1):
                        nb = list(cell)
                        nb[axis] += sv
                        nb = tuple(nb)
                        if nb not in cells:
                            candidates.add(nb)
            if not candidates:
                break
            cand = sorted(candidates)
            ok = self._valid_batch(np.array(cand))
            frontier = {c for c, good in zip(cand, ok) if good}
            cells |= frontier
        self.cells = cells

    def _cell_of(self, p) -> tuple[int, ...]:
        return tuple(int(c) for c in np.floor(np.asarray(p, dtype=float) / self.step))

    def _center(self, cells_arr: np.ndarray) -> np.ndarray:
        return (cells_arr + 0.5) * self.step

    def _valid_batch(self, cells_arr: np.ndarray) -> np.ndarray:
        centers = self._center(np.asarray(cells_arr, dtype=float))
        ok = np.all((centers > self._lo) & (centers < self._hi), axis=1)
        if self._exclude is not None and np.any(ok):
            diffs = centers[:, None, :] - self._exclude[None, :, :]
            near = np.min(np.linalg.norm(diffs, axis=2), axis=1) <= 0.75 * self.step
            ok &= ~near
        if np.any(ok):
            ok[ok] = self.field.member(centers[ok])
        singular = getattr(getattr(self.region, "stratum", None), "singular", None)
        if singular is not None and np.any(ok):
            # 0.75 step exceeds the half-diagonal, so subspaces through cell
            # corners still punch a hole, and walls always block adjacency
            ambient = centers[ok] @ self.region.stratum.basis.T
            ok[ok.nonzero()[0]] = (singular.min_distance(ambient) > 0.75 * self.step)
        return ok

    @property
    def empty(self) -> bool:
        return not self.cells

    def centers(self) -> np.ndarray:
        arr = np.array(sorted(self.cells), dtype=float)
        return self._center(arr)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts), dtype=bool)
        for i, p in enumerate(pts):
            out[i] = self._cell_of(p) in self.cells
        return out

    def ring_points(self) -> np.ndarray:
        """Frontier cell centers plus the midpoint of each frontier facet.

        Midpoints may leave the domain; callers filter by membership before
        taking the margin minimum.
        """
        pts = []
        for center, axis, side in _cell_frontier(self.cells, self.step):
            probe = center.copy()
            probe[axis] += side * self.step / 2
            pts += [center, probe]
        if not pts:
            return np.empty((0, self.dim))
        return np.unique(np.round(np.array(pts), 12), axis=0)


def _cell_frontier(cells: set, step: float):
    """Walk the frontier of a union of grid cells of the given step: yield
    (cell center, axis, side) for every cell face not shared with a cell."""
    for cell in sorted(cells):
        center = (np.array(cell, dtype=float) + 0.5) * step
        for axis in range(len(cell)):
            for side in (-1, 1):
                nb = list(cell)
                nb[axis] += side
                if tuple(nb) not in cells:
                    yield center, axis, side


def cell_facets(cells: set, step: float) -> list:
    """Oriented frontier facets ``(lo, hi, axis, side)`` of a cell union."""
    out = []
    for center, axis, side in _cell_frontier(cells, step):
        lo, hi = center - step / 2, center + step / 2
        lo[axis] = hi[axis] = center[axis] + side * step / 2
        out.append((lo, hi, axis, side))
    return out


def _enclosure_tilt(field, region, enclosure: _Enclosure,
                    cluster_pts: np.ndarray, num: Numerics) -> int:
    """Count cluster zeros after a small constant tilt, inside the enclosure.

    The tilt magnitude stays below half the field minimum on the enclosure
    frontier, so the degree over the enclosure is preserved; two
    deterministic directions must give the same count.
    """
    ring = enclosure.ring_points()
    if len(ring) == 0:
        raise DegenerateUnresolved("enclosure has no frontier for a tilt margin")
    ring = ring[field.member(ring)]
    if len(ring) == 0:
        raise DegenerateUnresolved("enclosure frontier left the domain")
    margin = float(np.min(np.linalg.norm(field.grad(ring), axis=1)))
    if margin <= max(10 * num.newton_tol, 1e-12):
        raise DegenerateUnresolved(
            f"enclosure frontier margin {margin:.3e} too small for tilting")
    seeds = np.concatenate([enclosure.centers(), cluster_pts], axis=0)
    counts = []
    for direction in _deterministic_directions(region.dim, num.seed):
        count = None
        delta = margin / 2
        for _ in range(6):
            tilted = TiltedField(field, delta, direction)
            pts, _stats = newton_zeros(tilted, seeds[tilted.member(seeds)], num)
            if len(pts):
                pts = pts[enclosure.contains(pts)]
                pts = dedupe_points(pts, DEDUPE_FACTOR * region.h)
            if len(pts) == 0:
                count = 0
                break
            indices = _zero_indices(tilted, pts, region.h, num)
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


def intersection_number(field, region, num: Numerics,
                        records: list[ZeroRecord] | None = None,
                        compact_margin: float | None = None) -> int:
    """Signed zero count of the field over one component.

    Zeros are grouped into proximity clusters.  A cluster of certified
    nondegenerate zeros contributes its Morse sum.  A cluster containing
    degenerate zeros contributes the boundary degree over the cell union of
    an enclosure grown around it inside the component; when that degree
    cannot be certified, it contributes its count after a localized tilt
    with two agreeing directions.
    """
    if records is None:
        records = find_zeros(field, region, num, compact_margin=compact_margin)
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
            if enclosure.empty or np.any(~enclosure.contains(cluster_pts)):
                continue
            last_enclosure = enclosure
            try:
                resolved = frontier_degree(
                    field, cell_facets(enclosure.cells, enclosure.step),
                    ENCLOSURE_RESOLUTION, max(10 * num.newton_tol, 1e-12))
            except (MarginTooSmall, RefinementOverflow, DimensionUnsupported):
                continue
            break
        if resolved is not None:
            total += resolved
            continue
        if last_enclosure is None:
            raise DegenerateUnresolved("degenerate cluster outside the grid")
        total += _enclosure_tilt(field, region, last_enclosure, cluster_pts, num)
    return total


def quotient_intersection(field, stratum, quotient_label: str, num: Numerics,
                          compact_margin: float | None = None,
                          records: list[ZeroRecord] | None = None) -> int:
    """Intersection number on the quotient component.

    Computes the count on the minimal-label representative component and
    divides by the component stabilizer order; a nonzero remainder signals
    missed or spurious zeros and raises DivisibilityViolation.
    """
    comp = stratum.representative_component(quotient_label)
    region = GridRegion(stratum, comp)
    total = intersection_number(field, region, num, records=records,
                                compact_margin=compact_margin)
    stab = region.stabilizer_order
    if total % stab != 0:
        raise DivisibilityViolation(
            f"count {total} not divisible by stabilizer {stab} "
            f"on component {region.label}")
    return total // stab
