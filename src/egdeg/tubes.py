"""Flat tube geometry around strata.

All strata in this package are open subsets of finite unions of linear
subspaces (the conjugates g V^H), so tubular neighbourhoods reduce to
orthogonal projection, one stacked product onto all the subspaces per query:
a point z near the stratum decomposes uniquely as z = x + v with x the
projection to the nearest conjugate subspace and v the normal offset.  The
invariant neighbourhood U is stored as the rho-ball neighbourhood of a
finite set of stratum centers, which makes membership, boundary and
distance computations exact up to a conservative bound.

The samplers that validate a tube draw their attempts in blocks: a block of
m attempts makes one generator call per quantity (centers, in-subspace
directions, radii, normal directions, depths, in that order), builds and
tests its m candidates elementwise, and keeps the accepted ones in draw
order.  A candidate's bits depend only on its own draws.
"""
from __future__ import annotations

import numpy as np

# a sampler block has at most _CHUNK_ROWS attempts and _CHUNK_CELLS
# (attempt, center) pairs, which bounds the (rows, centers, dim) difference
# array of its center-distance test
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


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row i of ``vecs`` times matrix i of the (m, d, e) stack ``mats``, as
    an elementwise product summed row by row, so a row's bits do not depend
    on the others."""
    return np.sum(mats * vecs[:, None, :], axis=2)


def nearest_center_distance(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest center."""
    return np.min(np.linalg.norm(points[:, None] - centers[None], axis=2), axis=1)


class SubspaceFamily:
    """The distinct conjugate subspaces g V^H with projection helpers; a
    query makes one stacked (J, N, d) product, by ``row_matmul`` so that a
    lone row rounds as in a batch, and reads everything from it."""

    def __init__(self, bases: list[np.ndarray]):
        if not bases:
            raise ValueError("at least one subspace required")
        self.bases = [np.asarray(b, dtype=float) for b in bases]
        self.dim = self.bases[0].shape[0]
        self.k = self.bases[0].shape[1]
        self.projectors = np.array([b @ b.T for b in self.bases])  # (J, d, d)

    @property
    def count(self) -> int:
        return len(self.bases)

    def distances(self, points: np.ndarray) -> np.ndarray:
        """(J, N) distances from each point to each subspace."""
        return self._split(points)[3]

    def decompose(self, points: np.ndarray):
        """Split points into base + normal against the nearest subspace.

        Returns (idx, x, v, s, gap): nearest subspace index per point (the
        first on a tie), projections x, normal offsets v, their norms s and
        the gap to the second-nearest distance (inf when there is only one).
        """
        pts, proj, diff, dists = self._split(points)
        idx = np.argmin(dists, axis=0)
        rows = np.arange(len(pts))
        if self.count == 1:
            gap = np.full(len(pts), np.inf)
        else:
            sorted_d = np.sort(dists, axis=0)
            gap = sorted_d[1] - sorted_d[0]
        return idx, proj[idx, rows], diff[idx, rows], dists[idx, rows], gap

    def project(self, vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Row i of ``vecs`` projected onto subspace ``idx[i]``."""
        proj = row_matmul(vecs, self.projectors.transpose(0, 2, 1))
        return proj[idx, np.arange(len(vecs))]

    def min_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest subspace, 256 points per stacked product."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.concatenate([np.min(self.distances(pts[i:i + 256]), axis=0)
                               for i in range(0, max(len(pts), 1), 256)])

    def _split(self, points: np.ndarray):
        """Points, (J, N, d) projections and offsets, (J, N) distances."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        proj = row_matmul(pts, self.projectors.transpose(0, 2, 1))
        diff = pts - proj
        return pts, proj, diff, np.linalg.norm(diff, axis=2)


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
                 epsilon: float, point_stratum: bool = False,
                 margin: float = float("inf")):
        self.family = family
        self.centers = centers
        self.rho = rho
        self.epsilon = epsilon
        self.point_stratum = point_stratum
        self.margin = margin
        # nearest subspace of each center and the (J, d, k) stacked bases,
        # read by the samplers
        self.center_idx = np.argmin(family.distances(centers), axis=0)
        self.basis_stack = np.stack(family.bases)

    @property
    def is_empty(self) -> bool:
        return self.centers.shape[0] == 0

    # -- decomposition ---------------------------------------------------

    def decompose(self, points: np.ndarray):
        """Per-point tube decomposition data.

        Returns a dict of arrays: base points ``x``, offsets ``v``, norms
        ``s``, nearest-center distance ``dcen`` of the base point, subspace
        ``idx`` and the projection ``gap``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx, x, v, s, gap = self.family.decompose(pts)
        if self.is_empty:
            dcen = np.full(pts.shape[0], np.inf)
        else:
            dcen = nearest_center_distance(x, self.centers)
        return {"idx": idx, "x": x, "v": v, "s": s, "dcen": dcen, "gap": gap}

    # -- membership ------------------------------------------------------

    def in_open_tube(self, points: np.ndarray, dec=None) -> np.ndarray:
        """Mask for U^epsilon = {x + v : x in U, |v| < epsilon}."""
        if dec is None:
            dec = self.decompose(points)
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
            scale = radius / (np.linalg.norm(u, axis=1) + 1e-300)
            x = x + _apply(self.basis_stack[j], u) * scale[:, None]
        return x, j

    def _draw_offset(self, x: np.ndarray, j: np.ndarray, rng: np.random.Generator):
        """Each x moved by a random normal direction of subspace j, scaled
        to a uniform length in [0, eps); the mask drops the directions of
        norm below 1e-12."""
        w = rng.normal(size=x.shape)
        w = w - _apply(self.family.projectors[j], w)
        nw = np.linalg.norm(w, axis=1)
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
