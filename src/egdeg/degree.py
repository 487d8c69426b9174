"""Zero finding and intersection numbers of gradient fields on components.

The intersection number of a field on a component is the total signed count
of its zeros.  Three routes are implemented and cross-checked:

* Morse route: multi-start damped Newton from grid cell centers
  (``newton.newton_zeros``), dedupe, then sum the signs of the Hessian
  determinants (only when every zero is nondegenerate).  Each Newton step
  writes the Jacobians once, entry first, into a workspace of its call and
  factors each once: in dims up to 3 by cofactors, whose determinant also
  decides regularity, with a pseudo-inverse step on near-singular rows; its
  line search takes two field calls: all full steps, then every halving of
  the rejected rows.  A row whose residual falls by a steady factor
  converges linearly, as onto a singular root.  On a stratum field such a
  row within the compact margin of the stratum's singular set is retired:
  it is bound for a zero of a larger orbit type, which the margin filter
  drops in any case.  On every field, any other such row near its zero
  takes one multiplicity step, the Newton step scaled by the multiplicity
  its displacements show (3 at a triple root).
* Kronecker route: a boundary degree over a region bounded by oriented
  axis facets, taken by one integrator (``frontier_degree``): endpoint signs
  in dim 1, winding of the field angle along the facets in dim 2, where each
  sample interval is halved on its own until its angle step is small (one
  field call walks LOOKAHEAD levels of midpoints ahead for an interval
  still bad after its first halving), triangulated solid-angle sum over
  all facets at once in dim 3.
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
sign of the Jacobian determinant that the Newton step uses (``newton._det``),
confirmed by a local boundary degree (``_zero_indices``).  The dedupe, the
nearest other zero and the cluster linkage compare a zero only with the
points of the 3^k bucket cells around it (``tubes.Buckets``), so their time
and memory grow with the number of zeros, not with its square.

A zero set is the arrays ``(points, index)``; ``find_zeros`` gives its list
form, one ``ZeroRecord`` per zero.  The quotient intersection number divides
the representative component count by the component stabilizer order; the
division must be exact.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateUnresolved,
    DimensionUnsupported,
    DivisibilityViolation,
    MarginTooSmall,
    RefinementOverflow,
)
from .newton import _det, fd_jacobian, newton_zeros
from .params import NEWTON_TOL
from .records import Record
from .strata import row_positions
from .tubes import Buckets, nearest_center_distance, row_norms

DEGENERACY_RATIO = 1e-5   # sigma_min below this times scale means degenerate
DEDUPE_FACTOR = 1e-2      # dedupe radius: 10 h * 1e-3
ENCLOSURE_DILATION = 2.5  # enclosure growth around a cluster, in region steps
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
# zero classification: buckets, dedupe and Morse certificates


def dedupe_points(pts: np.ndarray, radius: float) -> np.ndarray:
    """Greedy dedupe in lexicographic order: a point is kept when no point
    kept before it lies within the radius.

    The points are bucketed by the radius and decided in rounds: an
    undecided point whose index is the smallest undecided one in its 3^k
    cells is kept, since every earlier point within the radius is decided
    and none of them kept it out, and each newly kept point drops the later
    points of its cells within the radius.
    """
    if len(pts) == 0:
        return pts
    # ``take`` gathers rows several times faster than fancy indexing
    pts = pts.take(np.lexsort(pts.T[::-1]), axis=0)
    n = len(pts)
    buckets = Buckets(pts, radius)
    open_, kept = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    while open_.any():
        first = np.append(np.minimum.reduceat(
            np.where(open_[buckets.order], buckets.order, n), buckets.starts), n)
        new = first[:-1][(first[buckets.near].min(axis=1) == first[:-1]) & (first[:-1] < n)]
        kept[new] = True
        open_[new] = False
        for i, j in buckets.pairs(new):
            # the earlier points of a new point's cells are decided
            later = open_[j]
            i, j = i[later], j[later]
            d = pts.take(j, axis=0) - pts.take(i, axis=0)
            # a matmul takes one dot product per row, summed as the norm of a
            # single vector is; an axis norm can round the last bit differently
            # and so move a point across the radius
            dist = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
            open_[j[dist <= radius]] = False
    return pts.take(kept.nonzero()[0], axis=0)


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
    """Multi-start Newton zeros of the field on one component, in the
    public list form: the one place a ``ZeroRecord`` is made.

    Newton runs from the region's seed points (its first domain query drops
    those off the domain), then ``classify_zeros``; both take the same
    compact margin (``region.h`` by default).  ``num`` is not read: the
    benchmark's workloads pass it positionally.
    """
    margin = compact_margin if compact_margin is not None else region.h
    pts, _ = newton_zeros(field, region.seed_points(), margin)
    pts, index = classify_zeros(field, region, pts, margin)
    return [ZeroRecord(tuple(p), i) for p, i in zip(pts.tolist(), index.tolist())]


def classify_zeros(field, region, pts: np.ndarray,
                   compact_margin: float | None = None):
    """``(points, index)``: the (n, k) distinct zeros among converged Newton
    points that belong to one region, lexicographic, and their Morse indices.

    Points are filtered to the region and to a compact-support margin from
    the domain boundary (``region.h`` by default), then deduplicated at
    10 h / 1000.  A Morse index is only assigned when a local boundary
    degree around the zero confirms the Hessian sign; zeros at profile
    junctions, where one-sided derivatives disagree, are thereby classified
    as degenerate instead of silently miscounted.
    """
    margin = compact_margin if compact_margin is not None else region.h
    pts = pts[region.contains(pts)]
    pts = dedupe_points(pts[field.boundary_distance(pts) > margin], DEDUPE_FACTOR * region.h)
    if len(pts) == 0:
        return pts, np.zeros(0, dtype=int)
    return pts, _zero_indices(field, pts, region.h)


def _zero_indices(field, pts: np.ndarray, h: float) -> np.ndarray:
    """Certified Morse index of each of a set of distinct zeros, 0 if degenerate.

    A zero gets the sign of its Jacobian determinant only when the Jacobian
    is well conditioned and a local boundary degree over a box of radius
    min(h / 4, 0.4 x the distance to the nearest other zero, 0.8 x the
    distance to the domain boundary) confirms that sign.
    """
    jac = fd_jacobian(field, pts)
    nearest_other = _nearest_other(pts, h)
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
    return indices


def _nearest_other(pts: np.ndarray, h: float) -> np.ndarray:
    """Distance from each point to the nearest other one where it is below h,
    inf elsewhere; a distance is the norm of the point minus the other.

    Only the points of the 3^k cells of side h around each are compared.
    A nearer zero farther than 0.625 h leaves the certificate radius
    min(h / 4, 0.4 x nearest, ...) at h / 4, as inf does.
    """
    nearest = np.empty(len(pts))
    buckets = Buckets(pts, h)
    for i, j in buckets.pairs(np.arange(len(pts))):
        dist = row_norms(pts.take(i, axis=0) - pts.take(j, axis=0))
        dist[i == j] = np.inf
        # pairs come query by query, so each run of one i is a segment
        runs = np.flatnonzero(np.append(True, i[1:] != i[:-1]))
        nearest[i[runs]] = np.minimum.reduceat(dist, runs)
    nearest[~(nearest < h)] = np.inf
    return nearest


# ---------------------------------------------------------------------------
# boundary degree over oriented axis facets

# starting samples per facet side and doubling rounds, per dimension
BOX_RESOLUTION = {2: (32, 10), 3: (8, 10)}
ENCLOSURE_RESOLUTION = {2: (8, 10), 3: (2, 5)}
# bisection levels that one dim-2 frontier walk samples ahead, after the
# first; a deeper look-ahead walks more midpoints that no round reads
LOOKAHEAD = 4


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
    field angle step is pi/4 or more, until every step is below pi/4;
    around a closed frontier the steps then sum to a multiple of 2 pi.  The
    midpoints of all facets are walked in one call, up to LOOKAHEAD levels
    ahead of the round that reads them.  In dim 3 every facet is
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

    def check(mags):
        mag = float(np.min(mags))
        if mag < margin_min:
            raise MarginTooSmall(f"frontier field magnitude {mag:.3e} below margin")

    def sample(pts):
        vals = field.grad(pts.reshape(-1, dim))
        check(np.linalg.norm(vals, axis=1))
        return vals.reshape(pts.shape)

    if dim == 1:
        return int(np.sum(sides * np.sign(sample(lo)[:, 0]))) // 2
    n, rounds = resolution[dim]
    if dim == 2:
        # counterclockwise travel: +e_1 on the +e_0 facet, -e_0 on the +e_1 facet
        ccw = ((sides > 0) == (axes == 0))[:, None]
        starts, ends = np.where(ccw, lo, hi), np.where(ccw, hi, lo)

        def points(facet, t):
            return starts[facet] + t[:, None] * (ends - starts)[facet]

        # sample intervals [t0, t1] of the facets, with the field angle at
        # both ends; a bad interval is halved at its midpoint, which lies on
        # the grid of the next doubling
        count = len(axes)
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = sample(points(np.repeat(np.arange(count), n + 1), np.tile(ts, count)))
        ang = np.arctan2(vals[:, 1], vals[:, 0]).reshape(count, n + 1)
        facet = np.repeat(np.arange(count), n)
        t0, t1 = np.tile(ts[:-1], count), np.tile(ts[1:], count)
        a0, a1 = ang[:, :-1].ravel(), ang[:, 1:].ravel()
        # once the walked levels run out (node 0), a round walks the
        # midpoints of every bad interval's next levels, one at round 1 and
        # LOOKAHEAD later, as a heap: an interval reads node ``node`` of the
        # heap at ``base`` and its halves nodes 2 node and 2 node + 1.  Only
        # the midpoints a round reads are held to the margin
        walked_ang = walked_mag = np.empty(0)
        base, node, size = np.zeros(len(facet), dtype=int), np.zeros(len(facet), dtype=int), 1
        total = 0.0
        for r in range(rounds):
            if r:
                if not node.any():
                    size = 2 ** (1 if r == 1 else min(LOOKAHEAD, rounds - r))
                    lo_t, hi_t, heap = t0[:, None], t1[:, None], []
                    while len(heap) < size - 1:
                        mid = (lo_t + hi_t) / 2
                        heap.extend(mid.T)
                        lo_t = np.stack([lo_t, mid], axis=2).reshape(len(facet), -1)
                        hi_t = np.stack([mid, hi_t], axis=2).reshape(len(facet), -1)
                    heap = np.stack(heap, axis=1)
                    vals = field.grad(points(np.repeat(facet, size - 1), heap.ravel()))
                    base = len(walked_ang) + (size - 1) * np.arange(len(facet))
                    node = np.ones(len(facet), dtype=int)
                    walked_ang = np.append(walked_ang, np.arctan2(vals[:, 1], vals[:, 0]))
                    walked_mag = np.append(walked_mag, np.linalg.norm(vals, axis=1))
                at = base + node - 1
                check(walked_mag[at])
                tm, am = (t0 + t1) / 2, walked_ang[at]
                facet, base = np.concatenate([facet, facet]), np.concatenate([base, base])
                t0, t1 = np.concatenate([t0, tm]), np.concatenate([tm, t1])
                a0, a1 = np.concatenate([a0, am]), np.concatenate([am, a1])
                node = np.concatenate([2 * node, 2 * node + 1])
                node *= node < size
            steps = (a1 - a0 + np.pi) % (2 * np.pi) - np.pi
            fine = np.abs(steps) < np.pi / 4
            total += float(np.sum(steps[fine]))
            facet, t0, t1, a0, a1, base, node = (
                x[~fine] for x in (facet, t0, t1, a0, a1, base, node))
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

    Each cluster grows from its first point one breadth-first ring at a time;
    a ring's close points are the unlabelled points of its bucket cells
    within the radius, so neither a pair list nor a distance matrix of the
    whole set is ever built."""
    buckets = Buckets(points, radius)
    label = np.full(len(points), -1)
    for root in range(len(points)):
        if label[root] >= 0:
            continue
        ring = np.array([root])
        while len(ring):
            label[ring] = root
            hit = np.zeros(len(points), dtype=bool)
            for i, j in buckets.pairs(ring):
                open_ = label[j] < 0
                i, j = i[open_], j[open_]
                dist = row_norms(points.take(i, axis=0) - points.take(j, axis=0))
                hit[j[dist <= radius]] = True
            ring = np.flatnonzero(hit)
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return [part.tolist() for part in np.split(order, cuts) if len(part)]


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
            if indices.all():
                count = int(indices.sum())
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
    """``signed_count`` from the list form of the zeros (``find_zeros`` by
    default).  ``num`` is not read: the benchmark's workloads pass it."""
    if records is None:
        records = find_zeros(field, region)
    pts = np.array([r.point for r in records], dtype=float).reshape(-1, region.dim)
    return signed_count(field, region, pts, np.array([r.index for r in records], dtype=int))


def signed_count(field, region, pts: np.ndarray, index: np.ndarray) -> int:
    """Signed zero count of the field over one component from the
    ``(points, index)`` of its zeros.

    Zeros are grouped into proximity clusters.  A cluster of certified
    nondegenerate zeros contributes its Morse sum.  A cluster containing
    degenerate zeros contributes the boundary degree over the cell union of
    an enclosure grown around it inside the component; when that degree
    cannot be certified, it contributes its count after a localized tilt
    with two agreeing directions.
    """
    if len(pts) == 0:
        return 0
    total = 0
    for cluster in _linkage_clusters(pts, 4 * region.h):
        if index[cluster].all():
            total += int(index[cluster].sum())
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


def quotient_intersection(field, stratum, quotient_label: str, zeros) -> int:
    """Intersection number on the quotient component.

    Computes the count on the minimal-label representative component from
    the ``(points, index)`` of its zeros and divides by the component
    stabilizer order; a nonzero remainder signals missed or spurious zeros
    and raises DivisibilityViolation.
    """
    region = GridRegion(stratum, stratum.representative_component(quotient_label))
    total = signed_count(field, region, *zeros)
    stab = region.stabilizer_order
    if total % stab != 0:
        raise DivisibilityViolation(
            f"count {total} not divisible by stabilizer {stab} "
            f"on component {region.label}")
    return total // stab
