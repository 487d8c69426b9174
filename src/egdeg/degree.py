"""Zero finding and intersection numbers of gradient fields on components.

The intersection number of a field on a component is the total signed count
of its zeros.  Three routes are implemented and cross-checked:

* Morse route: multi-start damped Newton from grid cell centers, dedupe,
  then sum the signs of the Hessian determinants (only when every zero is
  nondegenerate).
* Kronecker route: a boundary degree over an enclosing box whose interior
  lies in the component (endpoint signs in dim 1, winding of the field angle
  along the refined boundary polyline in dim 2, triangulated solid-angle sum
  in dim 3).
* Tilt route: shift the field by a small deterministic constant vector,
  recount the now nondegenerate zeros by the Morse route, and require two
  tilt directions to agree.

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


def fd_jacobian(field, pts: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, k = pts.shape
    out = np.empty((n, k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        out[:, :, j] = (field.grad(pts + e) - field.grad(pts - e)) / (2 * step)
    return out


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
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(len(pts), dtype=bool)
        for i, u in enumerate(pts):
            comp = self.stratum.component_of_point(u)
            out[i] = comp == self.component.index
        return out

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.component.centers.min(axis=0) - self.h / 2
        hi = self.component.centers.max(axis=0) + self.h / 2
        return lo, hi

    def boundary_ring(self) -> np.ndarray:
        """Centers of cells with a missing neighbor, plus half-step probes
        toward the missing side (closer to the true component boundary)."""
        cells = set(self.component.cells)
        pts = []
        for cell in self.component.cells:
            center = (np.array(cell, dtype=float) + 0.5) * self.h
            edge = False
            for axis in range(self.dim):
                for stepv in (-1, 1):
                    nb = list(cell)
                    nb[axis] += stepv
                    if tuple(nb) not in cells:
                        edge = True
                        probe = center.copy()
                        probe[axis] += stepv * self.h / 2
                        pts.append(probe)
            if edge:
                pts.append(center)
        if not pts:
            return np.empty((0, self.dim))
        return np.unique(np.round(np.array(pts), 12), axis=0)


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

    def boundary_ring(self) -> np.ndarray:
        seeds = self.seed_points()
        near = np.any((seeds - self.lo < self.h) | (self.hi - seeds < self.h),
                      axis=1)
        return seeds[near]


# ---------------------------------------------------------------------------
# newton


def newton_zeros(field, seeds: np.ndarray, num: Numerics,
                 max_iter: int = 80) -> tuple[np.ndarray, dict]:
    """Damped Newton from every seed; returns polished points and stats.

    Steps leaving the domain or increasing the residual are halved; seeds
    that cannot improve are dropped.  A point counts as converged when its
    residual is at most POLISH_TOL after polishing (the iteration itself
    targets num.newton_tol, which Numerics keeps at or below POLISH_TOL).
    """
    pts = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    if len(pts) == 0:
        return np.empty((0, field.dim)), {"seeds": 0, "converged": 0}
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
             "stalled": int(np.sum(~active & ~good))}
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
    for i in np.nonzero(finite & ~regular)[0]:
        steps[i] = np.linalg.pinv(jac[i], rcond=1e-10) @ rhs[i]
    return steps


def dedupe_points(pts: np.ndarray, radius: float) -> np.ndarray:
    if len(pts) == 0:
        return pts
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    keep: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= radius for q in keep):
            keep.append(p)
    return np.array(keep)


@dataclass(frozen=True)
class ZeroRecord:
    """One polished zero with its Morse data and labels."""

    point: tuple[float, ...]
    index: int                   # sign of det Hessian; 0 means degenerate
    component_label: str
    quotient_label: str
    class_id: int = -1

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
               compact_margin: float | None = None,
               extra_seeds: np.ndarray | None = None) -> list[ZeroRecord]:
    """Multi-start Newton zeros of the field on one component.

    Converged points are polished to |field| <= 1e-9, deduplicated at
    10 h / 1000, and filtered to the component and to a compact-support
    margin from the domain boundary.  A Morse index is only assigned when a
    local boundary degree around the zero confirms the Hessian sign; zeros at
    profile junctions, where one-sided derivatives disagree, are thereby
    classified as degenerate instead of silently miscounted.
    """
    seeds = region.seed_points()
    if extra_seeds is not None and len(extra_seeds):
        seeds = np.concatenate([seeds, np.atleast_2d(extra_seeds)], axis=0)
    member = field.member(seeds)
    pts, _ = newton_zeros(field, seeds[member], num)
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
    jac = fd_jacobian(field, pts)
    if len(pts) > 1:
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        nearest_other = dist.min(axis=1)
    else:
        nearest_other = np.full(1, np.inf)
    records = []
    certify_floor = max(10 * num.newton_tol, 1e-12)
    for p, j, sep in zip(pts, jac, nearest_other):
        svals = np.linalg.svd(j, compute_uv=False)
        if svals[-1] <= DEGENERACY_RATIO * max(1.0, svals[0]):
            index = 0
        else:
            index = 1 if np.linalg.det(j) > 0 else -1
        if index != 0:
            bd = float(field.boundary_distance(p[None])[0])
            radius = min(region.h / 4, 0.4 * sep, 0.8 * bd)
            local = _local_degree(field, p, radius, certify_floor)
            if local is None or local != index:
                index = 0
        records.append(ZeroRecord(tuple(float(c) for c in p), index,
                                  region.label, region.quotient_label,
                                  getattr(region, "class_id", -1)))
    return records


# ---------------------------------------------------------------------------
# kronecker boundary degree


def kronecker_degree(field, lo, hi, margin_min: float = 1e-9,
                     max_rounds: int = 10) -> int:
    """Boundary degree of the field over an axis box, dims 1 to 3."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = len(lo)
    if dim == 1:
        vals = field.grad(np.array([[lo[0]], [hi[0]]]))[:, 0]
        if np.min(np.abs(vals)) < margin_min:
            raise MarginTooSmall("field vanishes at an interval endpoint")
        return int((np.sign(vals[1]) - np.sign(vals[0])) / 2)
    if dim == 2:
        return _winding_2d(field, lo, hi, margin_min, max_rounds)
    if dim == 3:
        return _solid_angle_3d(field, lo, hi, margin_min, max_rounds)
    raise DimensionUnsupported(f"boundary degree implemented for dim <= 3, got {dim}")


def _box_loop(lo, hi, n: int) -> np.ndarray:
    """Counterclockwise polyline around a 2d box, n points per side."""
    xs = np.linspace(lo[0], hi[0], n, endpoint=False)
    ys = np.linspace(lo[1], hi[1], n, endpoint=False)
    bottom = np.stack([xs, np.full(n, lo[1])], axis=1)
    right = np.stack([np.full(n, hi[0]), ys], axis=1)
    top = np.stack([xs[::-1] + (hi[0] - lo[0]) / n, np.full(n, hi[1])], axis=1)
    left = np.stack([np.full(n, lo[0]), ys[::-1] + (hi[1] - lo[1]) / n], axis=1)
    return np.concatenate([bottom, right, top, left], axis=0)


def _winding_2d(field, lo, hi, margin_min, max_rounds) -> int:
    n = 32
    for _ in range(max_rounds):
        loop = _box_loop(lo, hi, n)
        vals = field.grad(loop)
        mags = np.linalg.norm(vals, axis=1)
        if np.min(mags) < margin_min:
            raise MarginTooSmall(
                f"boundary field magnitude {np.min(mags):.3e} below margin")
        angles = np.arctan2(vals[:, 1], vals[:, 0])
        steps = np.diff(np.concatenate([angles, angles[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < np.pi / 4:
            total = float(np.sum(steps)) / (2 * np.pi)
            nearest = round(total)
            if abs(total - nearest) <= 0.2:
                return int(nearest)
        n *= 2
    raise RefinementOverflow("winding number did not stabilize")


def _face_triangles(lo, hi, axis: int, side: int, n: int):
    """Triangles covering one box face, oriented with outward normal."""
    others = [a for a in range(3) if a != axis]
    u = np.linspace(lo[others[0]], hi[others[0]], n + 1)
    v = np.linspace(lo[others[1]], hi[others[1]], n + 1)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.empty(uu.shape + (3,))
    pts[..., axis] = hi[axis] if side > 0 else lo[axis]
    pts[..., others[0]] = uu
    pts[..., others[1]] = vv
    p00 = pts[:-1, :-1].reshape(-1, 3)
    p10 = pts[1:, :-1].reshape(-1, 3)
    p01 = pts[:-1, 1:].reshape(-1, 3)
    p11 = pts[1:, 1:].reshape(-1, 3)
    tri1 = np.stack([p00, p10, p11], axis=1)
    tri2 = np.stack([p00, p11, p01], axis=1)
    tris = np.concatenate([tri1, tri2], axis=0)
    # flip orientation when the geometric normal points inward
    normal = np.cross(tris[0, 1] - tris[0, 0], tris[0, 2] - tris[0, 0])
    outward = np.zeros(3)
    outward[axis] = side
    if np.dot(normal, outward) < 0:
        tris = tris[:, [0, 2, 1], :]
    return tris


def _solid_angle_3d(field, lo, hi, margin_min, max_rounds) -> int:
    n = 8
    for _ in range(max_rounds):
        total = 0.0
        min_mag = np.inf
        for axis in range(3):
            for side in (-1, 1):
                tris = _face_triangles(lo, hi, axis, side, n)
                flat = tris.reshape(-1, 3)
                vals = field.grad(flat).reshape(tris.shape)
                mags = np.linalg.norm(vals, axis=2)
                min_mag = min(min_mag, float(np.min(mags)))
                if min_mag < margin_min:
                    raise MarginTooSmall(
                        f"face field magnitude {min_mag:.3e} below margin")
                a, b, c = vals[:, 0], vals[:, 1], vals[:, 2]
                na = np.linalg.norm(a, axis=1)
                nb = np.linalg.norm(b, axis=1)
                nc = np.linalg.norm(c, axis=1)
                numer = np.einsum("ij,ij->i", a, np.cross(b, c))
                denom = (na * nb * nc + np.einsum("ij,ij->i", a, b) * nc
                         + np.einsum("ij,ij->i", b, c) * na
                         + np.einsum("ij,ij->i", c, a) * nb)
                total += float(np.sum(2 * np.arctan2(numer, denom)))
        deg = total / (4 * np.pi)
        nearest = round(deg)
        if abs(deg - nearest) <= 0.2:
            return int(nearest)
        n *= 2
    raise RefinementOverflow("solid angle sum did not stabilize")


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
    """Single-linkage clusters of points at the given merge radius."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    diffs = points[:, None, :] - points[None, :, :]
    close = np.linalg.norm(diffs, axis=2) <= radius
    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    buckets: dict[int, list[int]] = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    return [buckets[k] for k in sorted(buckets)]


def _cluster_box_attempt(field, region, cluster_pts: np.ndarray,
                         other_pts: np.ndarray, num: Numerics):
    """Boundary degree over a clipped box around one cluster, or None.

    The box must contain the cluster strictly, exclude every other zero,
    pass an interior membership probe (no domain holes) and carry a positive
    boundary margin.
    """
    if region.dim > 3:
        return None
    reg_lo, reg_hi = region.bounding_box()
    for pad in (2 * region.h, region.h, region.h / 2, region.h / 4):
        lo = np.maximum(cluster_pts.min(axis=0) - pad, reg_lo)
        hi = np.minimum(cluster_pts.max(axis=0) + pad, reg_hi)
        if np.any(hi - lo <= 0):
            continue
        if min((cluster_pts - lo).min(), (hi - cluster_pts).min()) <= 1e-12:
            continue
        if len(other_pts) and np.any(
                np.all((other_pts > lo) & (other_pts < hi), axis=1)):
            continue
        axes = [np.linspace(l, u, 9) for l, u in zip(lo, hi)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=1)
        if not np.all(field.member(grid)) or not np.all(region.contains(grid)):
            continue
        try:
            return kronecker_degree(field, lo, hi,
                                    margin_min=max(10 * num.newton_tol, 1e-12))
        except (MarginTooSmall, RefinementOverflow):
            continue
    return None


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
                 subdiv: int = 2, physical_dilation: float = 2.5,
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
        steps = max(1, int(np.ceil(physical_dilation * region.h / self.step)))
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
        """Frontier cell centers plus half-step probes toward each gap.

        Probes may leave the domain; callers filter by membership before
        taking the margin minimum.
        """
        pts = []
        for cell in sorted(self.cells):
            center = self._center(np.array(cell, dtype=float))
            for axis in range(self.dim):
                for stepv in (-1, 1):
                    nb = list(cell)
                    nb[axis] += stepv
                    if tuple(nb) not in self.cells:
                        pts.append(center)
                        probe = center.copy()
                        probe[axis] += stepv * self.step / 2
                        pts.append(probe)
        if not pts:
            return np.empty((0, self.dim))
        return np.unique(np.round(np.array(pts), 12), axis=0)


def _enclosure_boundary_degree(field, region, enclosure: _Enclosure,
                               num: Numerics) -> int | None:
    """Boundary degree of the field over the enclosure cell union.

    The frontier of a cell union is an exact rectilinear hypersurface, so
    the degree can be integrated directly: angle accumulation over oriented
    boundary edges in the plane, solid-angle sum over triangulated boundary
    faces in space, endpoint signs on interval runs.  Returns None when the
    frontier margin cannot be certified in the allotted refinement budget.
    """
    margin_min = max(10 * num.newton_tol, 1e-12)
    h = enclosure.step
    cells = enclosure.cells
    if region.dim == 1:
        total = 0
        ordered = sorted(c[0] for c in cells)
        runs = []
        start = prev = ordered[0]
        for c in ordered[1:]:
            if c == prev + 1:
                prev = c
                continue
            runs.append((start, prev))
            start = prev = c
        runs.append((start, prev))
        for a, b in runs:
            lo = (a + 0.5) * h - h / 2
            hi = (b + 0.5) * h + h / 2
            vals = field.grad(np.array([[lo], [hi]]))[:, 0]
            if np.min(np.abs(vals)) < margin_min:
                return None
            total += int((np.sign(vals[1]) - np.sign(vals[0])) / 2)
        return total
    if region.dim == 2:
        segments = []
        travel = {(0, 1): (np.array([0.5, -0.5]), np.array([0.5, 0.5])),
                  (0, -1): (np.array([-0.5, 0.5]), np.array([-0.5, -0.5])),
                  (1, 1): (np.array([0.5, 0.5]), np.array([-0.5, 0.5])),
                  (1, -1): (np.array([-0.5, -0.5]), np.array([0.5, -0.5]))}
        for cell in sorted(cells):
            center = (np.array(cell, dtype=float) + 0.5) * h
            for axis in range(2):
                for stepv in (-1, 1):
                    nb = list(cell)
                    nb[axis] += stepv
                    if tuple(nb) in cells:
                        continue
                    a_off, b_off = travel[(axis, stepv)]
                    segments.append((center + a_off * h, center + b_off * h))
        total = 0.0
        for a, b in segments:
            m = 8
            while True:
                ts = np.linspace(0.0, 1.0, m + 1)
                pts = a[None] + ts[:, None] * (b - a)[None]
                vals = field.grad(pts)
                mags = np.linalg.norm(vals, axis=1)
                if np.min(mags) < margin_min:
                    return None
                ang = np.arctan2(vals[:, 1], vals[:, 0])
                diffs = np.diff(ang)
                diffs = (diffs + np.pi) % (2 * np.pi) - np.pi
                if np.max(np.abs(diffs)) < np.pi / 4 or m >= 4096:
                    if m >= 4096 and np.max(np.abs(diffs)) >= np.pi / 4:
                        return None
                    total += float(np.sum(diffs))
                    break
                m *= 2
        deg = total / (2 * np.pi)
        nearest = round(deg)
        return int(nearest) if abs(deg - nearest) <= 0.2 else None
    if region.dim == 3:
        faces = []
        for cell in sorted(cells):
            center = (np.array(cell, dtype=float) + 0.5) * h
            for axis in range(3):
                for stepv in (-1, 1):
                    nb = list(cell)
                    nb[axis] += stepv
                    if tuple(nb) not in cells:
                        faces.append((center, axis, stepv))
        n = 2
        for _ in range(5):
            total = 0.0
            for center, axis, stepv in faces:
                others = [a for a in range(3) if a != axis]
                u = np.linspace(-0.5, 0.5, n + 1) * h
                uu, vv = np.meshgrid(u, u, indexing="ij")
                pts = np.empty(uu.shape + (3,))
                pts[..., axis] = center[axis] + stepv * h / 2
                pts[..., others[0]] = center[others[0]] + uu
                pts[..., others[1]] = center[others[1]] + vv
                p00 = pts[:-1, :-1].reshape(-1, 3)
                p10 = pts[1:, :-1].reshape(-1, 3)
                p01 = pts[:-1, 1:].reshape(-1, 3)
                p11 = pts[1:, 1:].reshape(-1, 3)
                tris = np.concatenate([np.stack([p00, p10, p11], axis=1),
                                       np.stack([p00, p11, p01], axis=1)], axis=0)
                normal = np.cross(tris[0, 1] - tris[0, 0], tris[0, 2] - tris[0, 0])
                outward = np.zeros(3)
                outward[axis] = stepv
                if np.dot(normal, outward) < 0:
                    tris = tris[:, [0, 2, 1], :]
                vals = field.grad(tris.reshape(-1, 3)).reshape(tris.shape)
                mags = np.linalg.norm(vals, axis=2)
                if np.min(mags) < margin_min:
                    return None
                a, b, c = vals[:, 0], vals[:, 1], vals[:, 2]
                na = np.linalg.norm(a, axis=1)
                nb_ = np.linalg.norm(b, axis=1)
                nc = np.linalg.norm(c, axis=1)
                numer = np.einsum("ij,ij->i", a, np.cross(b, c))
                denom = (na * nb_ * nc
                         + np.einsum("ij,ij->i", a, b) * nc
                         + np.einsum("ij,ij->i", b, c) * na
                         + np.einsum("ij,ij->i", c, a) * nb_)
                total += float(np.sum(2 * np.arctan2(numer, denom)))
            deg = total / (4 * np.pi)
            nearest = round(deg)
            if abs(deg - nearest) <= 0.2:
                return int(nearest)
            n *= 2
        return None
    return None


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
            jac = fd_jacobian(tilted, pts)
            svals = np.linalg.svd(jac, compute_uv=False)
            if np.any(svals[:, -1] <= DEGENERACY_RATIO *
                      np.maximum(1.0, svals[:, 0])):
                delta *= 0.5
                continue
            dets = np.linalg.det(jac)
            # certify each sign with a local boundary degree
            ok = True
            total = 0
            for p, d in zip(pts, dets):
                sep = np.inf
                if len(pts) > 1:
                    others = pts[np.any(pts != p[None], axis=1)]
                    if len(others):
                        sep = float(np.min(np.linalg.norm(others - p[None],
                                                          axis=1)))
                radius = min(region.h / 4, 0.4 * sep)
                local = _local_degree(tilted, p, radius,
                                      max(10 * num.newton_tol, 1e-12))
                claimed = 1 if d > 0 else -1
                if local is None or local != claimed:
                    ok = False
                    break
                total += claimed
            if ok:
                count = total
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
    nondegenerate zeros contributes its Morse sum; a cluster containing
    degenerate zeros is resolved by a boundary degree over a clipped
    enclosing box when one fits inside the component, and otherwise by the
    localized tilt with two agreeing directions.
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
        boxed = _cluster_box_attempt(field, region, cluster_pts, other, num)
        if boxed is not None:
            total += boxed
            continue
        resolved = None
        last_enclosure = None
        for subdiv in (2, 4) if region.dim <= 2 else (2,):
            enclosure = _Enclosure(region, field, cluster_pts, subdiv=subdiv,
                                   exclude_pts=other)
            if enclosure.empty or np.any(~enclosure.contains(cluster_pts)):
                continue
            last_enclosure = enclosure
            resolved = _enclosure_boundary_degree(field, region, enclosure, num)
            if resolved is not None:
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
