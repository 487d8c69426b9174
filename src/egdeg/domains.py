"""Invariant domain expressions and runtime map domains.

Open invariant subsets of the ambient space are written in a small
constructor algebra (full space, origin-centered balls and annuli, punctured
space, boolean combinations); that tree is the configured Omega.  A runtime
MapDomain is such an expression inside a list of kept open regions and
outside a list of removed closed sets, all answering the same two queries:
``contains`` and ``boundary_distance``; a query projects once onto all the
distinct families of the regions built on subspaces (``Subspaces``,
``Tube``, ``Shell``), and each reads its family's split (a map's
``member_grad`` shares that split with its layers).  Each step that
changes a map's domain adds one region: ``orbit_normal`` keeps open balls,
``h_normal_lift`` and the split's core keep an open tube, ``with_layer``
removes the layer's lateral shell, the split removes the orbit type's
subspaces and then the closed inner tube, ``restrict_off`` removes closed
balls and ``disjoint_union`` keeps the union of its parts' domains.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ConfigError, NotInvariant
from .records import Record, replace
from .tubes import (ProjectorStack, SubspaceFamily, TubeGeometry,
                    nearest_center_distance, row_norms)

EXACT_TOL = 1e-11  # relative threshold for "lies on a removed subspace"


class DomainExpr(Record):
    """Tree node of the invariant domain algebra."""

    kind: str                     # full|ball|annulus|punctured|diff|union|inter
    r1: float = 0.0
    r2: float = 0.0
    left: "DomainExpr | None" = None
    right: "DomainExpr | None" = None

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "full":
            return np.ones(len(pts), dtype=bool)
        if self.kind == "diff":
            return self.left.contains(pts) & ~self.right.contains(pts)
        if self.kind == "union":
            return self.left.contains(pts) | self.right.contains(pts)
        if self.kind == "inter":
            return self.left.contains(pts) & self.right.contains(pts)
        r = row_norms(pts)
        if self.kind == "ball":
            return r < self.r1
        if self.kind == "annulus":
            return (self.r1 < r) & (r < self.r2)
        if self.kind == "punctured":
            return r > 0.0
        raise ConfigError(f"unknown domain kind {self.kind!r}")

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the topological boundary."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "full":
            return np.full(len(pts), np.inf)
        if self.kind in ("diff", "union", "inter"):
            return np.minimum(self.left.boundary_distance(pts),
                              self.right.boundary_distance(pts))
        r = row_norms(pts)
        if self.kind == "ball":
            return np.abs(self.r1 - r)
        if self.kind == "annulus":
            return np.minimum(np.abs(r - self.r1), np.abs(self.r2 - r))
        if self.kind == "punctured":
            return r
        raise ConfigError(f"unknown domain kind {self.kind!r}")


def full_space() -> DomainExpr:
    return DomainExpr("full")


def ball(radius: float) -> DomainExpr:
    return DomainExpr("ball", r1=float(radius))


def annulus(r1: float, r2: float) -> DomainExpr:
    return DomainExpr("annulus", r1=float(r1), r2=float(r2))


def punctured_space() -> DomainExpr:
    return DomainExpr("punctured")


def difference(a: DomainExpr, b: DomainExpr) -> DomainExpr:
    return DomainExpr("diff", left=a, right=b)


def union(a: DomainExpr, b: DomainExpr) -> DomainExpr:
    return DomainExpr("union", left=a, right=b)


def intersection(a: DomainExpr, b: DomainExpr) -> DomainExpr:
    return DomainExpr("inter", left=a, right=b)


def expr_from_config(cfg: dict) -> DomainExpr:
    kind = cfg.get("kind")
    if kind == "full":
        return full_space()
    if kind == "ball":
        return ball(cfg["r"])
    if kind == "annulus":
        return annulus(cfg["r1"], cfg["r2"])
    if kind == "punctured":
        return punctured_space()
    if kind in ("difference", "union", "intersection"):
        node = {"difference": difference, "union": union,
                "intersection": intersection}[kind]
        return node(expr_from_config(cfg["left"]), expr_from_config(cfg["right"]))
    raise ConfigError(f"unknown domain kind {kind!r}")


def validate_invariance(expr: DomainExpr, group, bbox: float,
                        n_samples: int = 200, seed: int = 7) -> None:
    """Sampling check that membership is constant along generator images."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-bbox, bbox, size=(n_samples, group.dim))
    member = expr.contains(pts)
    for g in range(group.order):
        moved = expr.contains(group.apply(g, pts))
        bad = np.nonzero(member != moved)[0]
        if len(bad):
            p = pts[bad[0]]
            raise NotInvariant(
                f"domain not invariant: witness {p.tolist()} under element {g}")


# ---------------------------------------------------------------------------
# regions and runtime map domains
#
# A region answers ``contains`` and ``boundary_distance``, a lower bound on
# the distance to its frontier.  ``splits``, when given, is the query's
# ``ProjectorStack.split`` of the points; without it a region splits alone.


def _split(family: SubspaceFamily, pts: np.ndarray, splits):
    return family.stack.split(pts) if splits is None else splits


class Subspaces(Record):
    """Points lying exactly on a conjugate subspace of one orbit type."""

    family: SubspaceFamily

    def contains(self, pts: np.ndarray, splits=None) -> np.ndarray:
        splits = _split(self.family, pts, splits)
        return self.boundary_distance(pts, splits) <= EXACT_TOL * splits.scale

    def boundary_distance(self, pts: np.ndarray, splits=None) -> np.ndarray:
        return _split(self.family, pts, splits)[self.family][3]


class Balls(Record):
    """Union of balls around a point set, open or closed."""

    centers: np.ndarray
    radius: float
    closed: bool

    def contains(self, pts: np.ndarray, splits=None) -> np.ndarray:
        d = nearest_center_distance(pts, self.centers)
        return d <= self.radius if self.closed else d < self.radius

    def boundary_distance(self, pts: np.ndarray, splits=None) -> np.ndarray:
        return np.abs(self.radius - nearest_center_distance(pts, self.centers))


class Tube(Record):
    """U^(scale*epsilon) of a tube, open or closed."""

    geometry: TubeGeometry
    scale: float
    closed: bool

    def contains(self, pts: np.ndarray, splits=None) -> np.ndarray:
        rho, eps = self.geometry.rho, self.geometry.epsilon * self.scale
        dec = _split(self.geometry.family, pts, splits).read(self.geometry, eps)
        if self.closed:
            return (dec["dcen"] <= rho) & (dec["s"] <= eps)
        return (dec["dcen"] < rho) & (dec["s"] < eps)

    def boundary_distance(self, pts: np.ndarray, splits=None) -> np.ndarray:
        dec = _split(self.geometry.family, pts, splits).read(self.geometry)
        rho, eps = self.geometry.rho, self.geometry.epsilon * self.scale
        if self.closed:   # lower bound on the distance to the closed tube
            return np.hypot(np.maximum(0.0, dec["dcen"] - rho),
                            np.maximum(0.0, dec["s"] - eps))
        return np.minimum(np.abs(rho - dec["dcen"]), np.abs(eps - dec["s"]))


class Shell(Record):
    """The lateral shell B^epsilon of a tube (measure zero); the tube must
    have centers and a stratum of positive dimension."""

    geometry: TubeGeometry

    def contains(self, pts: np.ndarray, splits=None) -> np.ndarray:
        geo = self.geometry
        dec = _split(geo.family, pts, splits).read(geo, geo.epsilon)
        return (dec["dcen"] == geo.rho) & (dec["s"] <= geo.epsilon)

    def boundary_distance(self, pts: np.ndarray, splits=None) -> np.ndarray:
        geo = self.geometry
        dec = _split(geo.family, pts, splits).read(geo)
        return np.hypot(np.abs(dec["dcen"] - geo.rho),
                        np.maximum(0.0, dec["s"] - geo.epsilon))


class AnyOf(Record):
    """Union of disjoint map domains."""

    parts: tuple

    def contains(self, pts: np.ndarray, splits=None) -> np.ndarray:
        ok = np.zeros(len(pts), dtype=bool)
        for p in self.parts:
            ok |= p.contains(pts)
        return ok

    def boundary_distance(self, pts: np.ndarray, splits=None) -> np.ndarray:
        dist = np.full(len(pts), np.inf)
        for p in self.parts:
            dist = np.minimum(dist, p.boundary_distance(pts))
        return dist


class MapDomain(Record):
    """Open invariant domain of a local map: the points of ``expr`` inside
    every ``kept`` region and outside every ``removed`` closed set."""

    expr: DomainExpr
    bbox: float
    kept: tuple = ()
    removed: tuple = ()

    @cached_property
    def families(self) -> list:
        """The families of the regions built on subspaces."""
        fams = (getattr(getattr(r, "geometry", r), "family", None)
                for r in self.kept + self.removed)
        return [f for f in fams if f is not None]

    @cached_property
    def _stack(self):
        return ProjectorStack(self.families) if self.families else None

    def contains(self, points: np.ndarray, splits=None) -> np.ndarray:
        """Membership mask; ``splits`` is a split of the points over
        ``families`` (and maybe more), or None to take one."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if splits is None and self._stack:
            splits = self._stack.split(pts)
        ok = self.expr.contains(pts)
        for region in self.kept:
            ok &= region.contains(pts, splits)
        for region in self.removed:
            ok &= ~region.contains(pts, splits)
        return ok

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the domain boundary (for members)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        splits = self._stack.split(pts) if self._stack else None
        dist = self.expr.boundary_distance(pts)
        for region in self.kept + self.removed:
            dist = np.minimum(dist, region.boundary_distance(pts, splits))
        return dist

    def within(self, region) -> "MapDomain":
        return replace(self, kept=self.kept + (region,))

    def without(self, region) -> "MapDomain":
        return replace(self, removed=self.removed + (region,))
