"""Flat tube geometry around strata.

All strata in this package are open subsets of finite unions of linear
subspaces (the conjugates g V^H), so tubular neighbourhoods reduce to
orthogonal projection, one stacked product onto all the subspaces per query:
a point z near the stratum decomposes uniquely as z = x + v with x the
projection to the nearest conjugate subspace and v the normal offset.  The
invariant neighbourhood U is stored as the rho-ball neighbourhood of a
finite set of stratum centers, which makes membership, boundary and
distance computations exact up to a conservative bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousProjection

# the samplers test membership in chunks of at most _CHUNK_ROWS attempts and
# _CHUNK_CELLS (attempt, center) pairs, which bounds decompose's
# (rows, centers, dim) difference array
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
        return np.min(self.distances(points), axis=0)

    def _split(self, points: np.ndarray):
        """Points, (J, N, d) projections and offsets, (J, N) distances."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        proj = row_matmul(pts, self.projectors.transpose(0, 2, 1))
        diff = pts - proj
        return pts, proj, diff, np.linalg.norm(diff, axis=2)


@dataclass(frozen=True)
class TubeSpec:
    """Validated invariant tube data: centers, stratum radius, tube radius.

    ``centers`` lie on the conjugate subspaces and are closed under the group
    action; U is their open rho-neighbourhood inside the stratum.  ``margin``
    records the smallest sampled field magnitude on the lateral shell.
    ``point_stratum`` marks the zero-dimensional case, whose U has empty
    boundary and therefore an empty shell.
    """

    class_id: int
    centers: np.ndarray          # (M, d)
    rho: float
    epsilon: float
    point_stratum: bool = False
    margin: float = float("inf")

    @property
    def is_empty(self) -> bool:
        return self.centers.shape[0] == 0


class TubeGeometry:
    """Membership, decomposition and distance queries for one tube."""

    def __init__(self, family: SubspaceFamily, spec: TubeSpec):
        self.family = family
        self.spec = spec
        # nearest subspace of each center, read by the samplers
        self.center_idx = np.argmin(family.distances(spec.centers), axis=0)

    # -- decomposition ---------------------------------------------------

    def decompose(self, points: np.ndarray):
        """Per-point tube decomposition data.

        Returns a dict of arrays: base points ``x``, offsets ``v``, norms
        ``s``, nearest-center distance ``dcen`` of the base point, subspace
        ``idx`` and the projection ``gap``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx, x, v, s, gap = self.family.decompose(pts)
        if self.spec.is_empty:
            dcen = np.full(pts.shape[0], np.inf)
        else:
            dcen = nearest_center_distance(x, self.spec.centers)
        return {"idx": idx, "x": x, "v": v, "s": s, "dcen": dcen, "gap": gap}

    def decompose_checked(self, point: np.ndarray):
        """Single-point decomposition with the ambiguity guard.

        Raises AmbiguousProjection when two conjugate subspaces compete within
        epsilon/10; returns None when the point is outside the open tube.
        """
        dec = self.decompose(np.asarray(point, dtype=float)[None])
        gap = float(dec["gap"][0])
        if gap <= self.spec.epsilon / 10.0:
            raise AmbiguousProjection(
                f"projection gap {gap:.3e} below epsilon/10")
        inside = (dec["dcen"][0] < self.spec.rho) and (dec["s"][0] < self.spec.epsilon)
        if not inside:
            return None
        return dec["x"][0], dec["v"][0]

    # -- membership ------------------------------------------------------

    def in_open_tube(self, points: np.ndarray, dec=None) -> np.ndarray:
        """Mask for U^epsilon = {x + v : x in U, |v| < epsilon}."""
        if dec is None:
            dec = self.decompose(points)
        return (dec["dcen"] < self.spec.rho) & (dec["s"] < self.spec.epsilon)

    # -- sampling ----------------------------------------------------------

    @property
    def trivial_normal(self) -> bool:
        return self.family.k == self.family.dim

    def sample_tube(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of U^eps, uniform-ish over centers."""
        if self.spec.is_empty:
            return np.empty((0, self.family.dim))
        if self.trivial_normal:
            # the tube of a full-dimensional stratum is the base set
            return self._sample_chunked(
                n, rng, lambda: self._draw_base(rng)[:1],
                lambda x: (x, nearest_center_distance(x, self.spec.centers)
                           < self.spec.rho))
        eps = self.spec.epsilon

        def attempt():
            x, j = self._draw_base(rng)
            w = rng.normal(size=self.family.dim)
            w = w - self.family.projectors[j] @ w
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                return None
            return x, w, rng.uniform(0, eps) / nw

        def inside(x, w, scale):
            z = x + w * scale[:, None]
            dec = self.decompose(z)
            return z, (dec["dcen"] < self.spec.rho) & (dec["s"] < eps)

        return self._sample_chunked(n, rng, attempt, inside)

    def sample_base(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of U itself; n copies of the origin for a point
        stratum."""
        if self.spec.is_empty:
            return np.empty((0, self.family.dim))
        if self.spec.point_stratum:
            return np.zeros((n, self.family.dim))
        return self._sample_chunked(
            n, rng, lambda: self._draw_base(rng)[:1],
            lambda x: (x, self.decompose(x)["dcen"] < self.spec.rho))

    def _draw_base(self, rng: np.random.Generator):
        """A random center, moved by a uniform radius in [0, rho) along a
        random direction of its subspace unless the stratum is a point;
        returns the point and the subspace index."""
        i = rng.integers(0, len(self.spec.centers))
        c, j = self.spec.centers[i], int(self.center_idx[i])
        b = self.family.bases[j]
        if b.shape[1] > 0 and not self.spec.point_stratum:
            u = rng.normal(size=b.shape[1])
            r = rng.uniform(0, self.spec.rho)
            c = c + (b @ u) * (r / (np.linalg.norm(u) + 1e-300))
        return c, j

    def _sample_chunked(self, n: int, rng: np.random.Generator,
                        attempt, inside) -> np.ndarray:
        """Keep accepted candidates, in order, until n are kept or 200 n
        attempts have run.

        ``attempt()`` makes one attempt's generator calls and returns the
        parts of its candidate as a tuple, or None when it has none.
        ``inside`` takes each part stacked over a chunk's candidates and
        returns the candidate points and their membership mask.  The
        attempts run one at a time; the points are built and tested once per
        chunk.  When the n-th acceptance falls inside a chunk, the generator
        is set back to its state right after that attempt, so the points,
        the attempt count and the generator's later draws are those of
        testing each candidate before the next attempt.
        """
        cap = 200 * n
        limit = min(_CHUNK_ROWS, max(1, _CHUNK_CELLS // len(self.spec.centers)))
        kept, count, attempts = [], 0, 0
        while count < n and attempts < cap:
            need = n - count
            # enough attempts for the remaining need at the rate seen so far
            rows = need if attempts == 0 else -(-need * attempts // max(count, 1))
            rows = min(rows, limit, cap - attempts)
            cands, states = [], []
            for _ in range(rows):
                cand = attempt()
                if cand is not None:
                    cands.append(cand)
                    states.append(rng.bit_generator.state)
            attempts += rows
            if not cands:
                continue
            pts, mask = inside(*(np.array(part) for part in zip(*cands)))
            hits = np.flatnonzero(mask)[:need]
            if len(hits) == need:
                rng.bit_generator.state = states[hits[-1]]
            kept.append(pts[hits])
            count += len(hits)
        return np.concatenate(kept) if count else np.empty((0, self.family.dim))

    def sample_shell(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random points of B^epsilon; empty when the shell is empty.

        Unlike the other samplers this one stays a one-at-a-time loop: its
        interior test (the base point inside another center's ball) decides
        whether the normal offset is drawn at all, and it needs only center
        distances, never a ``decompose``.
        """
        if self.spec.point_stratum or self.spec.is_empty:
            return np.empty((0, self.family.dim))
        out = []
        centers = self.spec.centers
        attempts = 0
        while len(out) < n and attempts < 50 * n:
            attempts += 1
            i = rng.integers(0, len(centers))
            c, j = centers[i], int(self.center_idx[i])
            b = self.family.bases[j]
            if b.shape[1] == 0:
                break
            u = rng.normal(size=b.shape[1])
            x = c + (b @ u) * (self.spec.rho / (np.linalg.norm(u) + 1e-300))
            if nearest_center_distance(x[None], centers)[0] < self.spec.rho * (1 - 1e-9):
                continue  # interior of another ball, not on the boundary
            if self.trivial_normal:
                out.append(x)
                continue
            w = rng.normal(size=self.family.dim)
            w = w - self.family.projectors[j] @ w
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                continue
            s = rng.uniform(0, self.spec.epsilon)
            out.append(x + w * (s / nw))
        return np.array(out) if out else np.empty((0, self.family.dim))
