"""Flat tube geometry around strata.

All strata in this package are open subsets of finite unions of linear
subspaces (the conjugates g V^H), so tubular neighbourhoods reduce to
orthogonal projection: a point z near the stratum decomposes uniquely as
z = x + v with x the projection to the nearest conjugate subspace and v the
normal offset.  A query projects onto the subspaces of one or several
families in one stacked product (``ProjectorStack``); matmul computes each
item alone, so a family's slice has the bits of its own product.  U is the
rho-ball neighbourhood of finitely many stratum centers, so membership,
boundary and distance are exact up to a conservative bound.

The samplers that validate a tube draw their attempts in blocks: a block of
m attempts makes one generator call per quantity (centers, in-subspace
directions, radii, normal directions, depths, in that order), builds and
tests its m candidates elementwise, and keeps the accepted ones in draw
order.  A candidate's bits depend only on its own draws.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

# a sampler block has at most _CHUNK_ROWS attempts and _CHUNK_CELLS
# (attempt, center) pairs; the blocks fix the sampler's draws, hence its
# samples, epsilon and margins, so a change to either re-baselines the output
# (distance_blocks bounds the difference arrays on its own)
_CHUNK_ROWS = 1024
_CHUNK_CELLS = 1 << 15


def row_matmul(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` for a batch of rows, with a single row taken as two.

    numpy hands a one-row product to another BLAS routine, which can round
    the row differently from the same row inside a larger batch; the doubled
    row rounds as in a batch, so a field gives each point the same bits
    whether it is evaluated alone or among others.  This covers stacked
    products too: ``mat`` may be a (J, d, e) stack, and the row axis is the
    one doubled.
    """
    if rows.shape[-2] == 1:
        return (np.concatenate([rows, rows], axis=-2) @ mat)[..., :1, :]
    return rows @ mat


def row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` bit for bit; up to 3 columns, where numpy
    adds in order, as sqrt((x0^2 + x1^2) + x2^2), skipping its slow reduction."""
    sq = x * x
    if x.shape[-1] > 3:
        return np.sqrt(np.add.reduce(sq, axis=-1))
    total = sq[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + sq[..., j]
    return np.sqrt(total)


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row i of ``vecs`` times matrix i of the (m, d, e) stack ``mats``, as
    an elementwise product summed row by row, so a row's bits do not depend
    on the others."""
    return np.sum(mats * vecs[:, None, :], axis=2)


def distance_blocks(points: np.ndarray, others: np.ndarray):
    """(first row, distances to all others) of each block of 256 points; a
    distance is one row's norm, so its bits do not depend on the blocking."""
    for i in range(0, max(len(points), 1), 256):
        yield i, row_norms(points[i:i + 256, None] - others[None])


def nearest_center_distance(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest center (inf without any)."""
    mins = [d.min(axis=1, initial=np.inf) for _, d in distance_blocks(points, centers)]
    return mins[0] if len(mins) == 1 else np.concatenate(mins)


class ProjectorStack:
    """The projectors of the distinct families given as one (J, d, d) stack."""

    def __init__(self, families):
        self.families = families = list(dict.fromkeys(families))
        self.bounds = np.cumsum([0] + [f.count for f in families]).tolist()
        self.transposed = np.concatenate([f.projectors for f in families]).transpose(0, 2, 1)

    def products(self, pts: np.ndarray):
        """(J, N, d) projections and offsets, (J, N) distances."""
        proj = row_matmul(pts, self.transposed)
        diff = pts - proj
        return proj, diff, row_norms(diff)

    def split(self, points: np.ndarray) -> "Split":
        """Each family's (idx, x, v, s) of each point: its nearest subspace
        in the family (the first on a tie), projection, normal offset and
        distance, from one stacked product per 256 points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        parts = {f: [] for f in self.families}
        for i in range(0, max(len(pts), 1), 256):
            block = pts[i:i + 256]
            proj, diff, dists = self.products(block)
            rows, n = np.arange(len(block)), len(block)
            proj, diff = proj.reshape(-1, pts.shape[1]), diff.reshape(-1, pts.shape[1])
            for f, a, b in zip(self.families, self.bounds, self.bounds[1:]):
                idx = dists[a:b].argmin(axis=0)
                k = (idx + a) * n + rows
                parts[f].append((idx, proj.take(k, axis=0), diff.take(k, axis=0),
                                 dists.reshape(-1).take(k)))
        return Split(pts, {f: p[0] if len(p) == 1 else tuple(map(np.concatenate, zip(*p)))
                           for f, p in parts.items()})


class Split:
    """A batch's split: ``split[family]`` is its (idx, x, v, s) at ``rows``
    (all when None), ``read`` a tube's reading of it, made once per band,
    ``scale`` 1 + |p|, and ``at(keep)`` the split of the rows under a mask."""

    def __init__(self, pts: np.ndarray, parts: dict, rows=None):
        self.pts, self.parts, self.rows = pts, parts, rows
        self.reads: dict = {}

    def __getitem__(self, family) -> tuple:
        part = self.parts[family]
        return part if self.rows is None else tuple(a.take(self.rows, axis=0) for a in part)

    def read(self, geometry: "TubeGeometry", band: float = np.inf) -> dict:
        key = (geometry, band)
        if key not in self.reads:
            self.reads[key] = geometry.read(self[geometry.family], band)
        return self.reads[key]

    def at(self, keep: np.ndarray) -> "Split":
        rows = np.flatnonzero(keep) if self.rows is None else self.rows[keep]
        return Split(self.pts, self.parts, rows)

    @cached_property
    def scale(self) -> np.ndarray:
        return 1.0 + row_norms(self.pts if self.rows is None else self.pts[self.rows])


class SubspaceFamily:
    """The distinct conjugate subspaces g V^H with projection helpers; a
    query makes one stacked (J, N, d) product and reads everything from it."""

    def __init__(self, bases: list[np.ndarray]):
        if not bases:
            raise ValueError("at least one subspace required")
        self.bases = [np.asarray(b, dtype=float) for b in bases]
        self.dim = self.bases[0].shape[0]
        self.k = self.bases[0].shape[1]
        self.projectors = np.array([b @ b.T for b in self.bases])  # (J, d, d)
        self.stack = ProjectorStack([self])

    @property
    def count(self) -> int:
        return len(self.bases)

    def distances(self, points: np.ndarray) -> np.ndarray:
        """(J, N) distances from each point to each subspace."""
        return self.stack.products(np.atleast_2d(np.asarray(points, dtype=float)))[2]

    def decompose(self, points: np.ndarray):
        """Split points into base + normal against the nearest subspace.

        Returns (idx, x, v, s): nearest subspace index per point (the first
        on a tie), projections x, normal offsets v and their norms s.
        """
        return self.stack.split(points)[self]

    def gap(self, points: np.ndarray) -> np.ndarray:
        """Second-nearest minus nearest subspace distance of each point (inf
        when there is only one subspace): how far it is from a tie."""
        d = np.sort(self.distances(points), axis=0)
        return d[1] - d[0] if self.count > 1 else np.full(d.shape[1], np.inf)

    def project(self, vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Row i of ``vecs`` projected onto subspace ``idx[i]``."""
        proj = row_matmul(vecs, self.stack.transposed)
        return proj[idx, np.arange(len(vecs))]

    def min_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest subspace, 256 points per stacked product."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.concatenate([self.stack.products(pts[i:i + 256])[2].min(axis=0)
                               for i in range(0, max(len(pts), 1), 256)])


class TubeGeometry:
    """A validated invariant tube and its membership, decomposition and
    sampling queries.

    ``centers`` (M, d) lie on the conjugate subspaces of ``family`` and are
    closed under the group action; U is their open rho-neighbourhood inside
    the stratum, and the tube is U^epsilon.  ``margin`` records the smallest
    sampled field magnitude on the lateral shell.  ``point_stratum`` marks
    the zero-dimensional case, whose U has empty boundary and therefore an
    empty shell.
    """

    def __init__(self, family: SubspaceFamily, centers: np.ndarray, rho: float,
                 epsilon: float, point_stratum: bool = False):
        self.family = family
        self.centers = centers
        self.rho = rho
        self.epsilon = epsilon
        self.point_stratum = point_stratum
        self.margin = float("inf")
        # nearest subspace of each center and the (J, d, k) stacked bases,
        # read by the samplers
        self.center_idx = np.argmin(family.distances(centers), axis=0)
        self.basis_stack = np.stack(family.bases)

    @property
    def is_empty(self) -> bool:
        return self.centers.shape[0] == 0

    # -- decomposition ---------------------------------------------------

    def decompose(self, points: np.ndarray, band: float = np.inf):
        """Per-point tube decomposition data, as ``read`` gives it."""
        return self.read(self.family.decompose(points), band)

    def read(self, split, band: float = np.inf) -> dict:
        """The dict of arrays of a family split (idx, x, v, s): subspace ``idx``,
        base points ``x``, offsets ``v``, their norms ``s`` and the nearest-center
        distance ``dcen`` of each base point, inf where s exceeds ``band``."""
        idx, x, v, s = split
        near = ~(s > band)
        dcen = np.full(len(x), np.inf)
        if near.any():
            dcen[near] = nearest_center_distance(x[near], self.centers)
        return {"idx": idx, "x": x, "v": v, "s": s, "dcen": dcen}

    # -- membership ------------------------------------------------------

    def in_open_tube(self, points: np.ndarray, dec=None) -> np.ndarray:
        """Mask for U^epsilon = {x + v : x in U, |v| < epsilon}."""
        if dec is None:
            dec = self.decompose(points, self.epsilon)
        return (dec["dcen"] < self.rho) & (dec["s"] < self.epsilon)

    # -- sampling ----------------------------------------------------------

    @property
    def trivial_normal(self) -> bool:
        return self.family.k == self.family.dim

    def sample_tube(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of U^eps, uniform-ish over centers: base points
        moved by a normal offset of uniform length in [0, eps)."""
        if self.is_empty:
            return np.empty((0, self.family.dim))
        if self.trivial_normal:
            # the tube of a full-dimensional stratum is the base set
            return self.sample_base(n, rng)

        def draw(m):
            x, j = self._draw_base(m, rng)
            z, ok = self._draw_offset(x, j, rng)
            return z, ok & self.in_open_tube(z)

        return self._sample_blocks(n, 200 * n, draw)

    def sample_base(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of U itself; n copies of the origin for a point
        stratum."""
        if self.is_empty:
            return np.empty((0, self.family.dim))
        if self.point_stratum:
            return np.zeros((n, self.family.dim))

        def draw(m):
            x = self._draw_base(m, rng)[0]
            return x, self.decompose(x)["dcen"] < self.rho

        return self._sample_blocks(n, 200 * n, draw)

    def sample_shell(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of B^epsilon; empty when the shell is empty.

        A base point lies on the sphere of radius rho around its center in
        the subspace, and counts only outside every other center's ball; it
        is then moved by a normal offset of uniform length in [0, eps).
        """
        if self.point_stratum or self.is_empty or self.family.k == 0:
            return np.empty((0, self.family.dim))

        def draw(m):
            x, j = self._draw_base(m, rng, radius=self.rho)
            boundary = (nearest_center_distance(x, self.centers)
                        >= self.rho * (1 - 1e-9))
            if self.trivial_normal:
                return x, boundary
            z, ok = self._draw_offset(x, j, rng)
            return z, boundary & ok

        return self._sample_blocks(n, 50 * n, draw)

    def _draw_base(self, m: int, rng: np.random.Generator, radius=None):
        """m random centers, each moved along a random direction of its
        subspace (unless the stratum is a point) by a uniform radius in
        [0, rho), or by ``radius``; returns the points and subspace indices.
        """
        i = rng.integers(0, len(self.centers), size=m)
        x, j = self.centers[i], self.center_idx[i]
        if self.family.k > 0 and not self.point_stratum:
            u = rng.normal(size=(m, self.family.k))
            if radius is None:
                radius = rng.uniform(0, self.rho, size=m)
            scale = radius / (row_norms(u) + 1e-300)
            x = x + _apply(self.basis_stack[j], u) * scale[:, None]
        return x, j

    def _draw_offset(self, x: np.ndarray, j: np.ndarray, rng: np.random.Generator):
        """Each x moved by a random normal direction of subspace j, scaled
        to a uniform length in [0, eps); the mask drops the directions of
        norm below 1e-12."""
        w = rng.normal(size=x.shape)
        w = w - _apply(self.family.projectors[j], w)
        nw = row_norms(w)
        ok = nw >= 1e-12
        s = rng.uniform(0, self.epsilon, size=len(x))
        return x + w * (s / np.where(ok, nw, 1.0))[:, None], ok

    def _sample_blocks(self, n: int, cap: int, draw) -> np.ndarray:
        """The first n accepted candidates in draw order, or all of them
        once ``cap`` attempts have run.

        ``draw(m)`` makes m attempts, one generator call per quantity, and
        returns their candidate points and acceptance mask.  The first block
        has n attempts; each later one has enough for the remaining need at
        the acceptance rate seen so far, within the chunk bound and the cap.
        """
        limit = min(_CHUNK_ROWS, max(1, _CHUNK_CELLS // len(self.centers)))
        kept, count, attempts = [], 0, 0
        while count < n and attempts < cap:
            need = n - count
            rows = need if attempts == 0 else -(-need * attempts // max(count, 1))
            rows = min(rows, limit, cap - attempts)
            pts, mask = draw(rows)
            attempts += rows
            kept.append(pts[mask][:need])
            count += len(kept[-1])
        return np.concatenate(kept) if count else np.empty((0, self.family.dim))
