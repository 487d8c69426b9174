"""Invariant domain expressions and runtime map domains.

Open invariant subsets of the ambient space are written in a small
constructor algebra (full space, origin-centered balls and annuli, punctured
space, boolean combinations).  A runtime MapDomain couples such an expression
with the exclusions that accumulate while a map is perturbed: removed strata,
lateral tube shells, closed tube cores and user-supplied closed sets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NotInvariant
from .tubes import SubspaceFamily, TubeGeometry, nearest_center_distance

EXACT_TOL = 1e-11  # relative threshold for "lies on a removed subspace"


@dataclass(frozen=True)
class DomainExpr:
    """Tree node of the invariant domain algebra."""

    kind: str                     # full|ball|annulus|punctured|diff|union|inter
    r1: float = 0.0
    r2: float = 0.0
    left: "DomainExpr | None" = None
    right: "DomainExpr | None" = None

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if self.kind == "full":
            return np.ones(len(pts), dtype=bool)
        if self.kind == "ball":
            return r < self.r1
        if self.kind == "annulus":
            return (self.r1 < r) & (r < self.r2)
        if self.kind == "punctured":
            return r > 0.0
        if self.kind == "diff":
            return self.left.contains(pts) & ~self.right.contains(pts)
        if self.kind == "union":
            return self.left.contains(pts) | self.right.contains(pts)
        if self.kind == "inter":
            return self.left.contains(pts) & self.right.contains(pts)
        raise ConfigError(f"unknown domain kind {self.kind!r}")

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the topological boundary."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if self.kind == "full":
            return np.full(len(pts), np.inf)
        if self.kind == "ball":
            return np.abs(self.r1 - r)
        if self.kind == "annulus":
            return np.minimum(np.abs(r - self.r1), np.abs(self.r2 - r))
        if self.kind == "punctured":
            return r
        if self.kind in ("diff", "union", "inter"):
            return np.minimum(self.left.boundary_distance(pts),
                              self.right.boundary_distance(pts))
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


def expr_to_config(expr: DomainExpr) -> dict:
    if expr.kind == "full":
        return {"kind": "full"}
    if expr.kind == "ball":
        return {"kind": "ball", "r": expr.r1}
    if expr.kind == "annulus":
        return {"kind": "annulus", "r1": expr.r1, "r2": expr.r2}
    if expr.kind == "punctured":
        return {"kind": "punctured"}
    names = {"diff": "difference", "union": "union", "inter": "intersection"}
    return {"kind": names[expr.kind],
            "left": expr_to_config(expr.left),
            "right": expr_to_config(expr.right)}


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
# runtime domains with exclusions


@dataclass(frozen=True)
class StratumExclusion:
    """Points lying exactly on any conjugate subspace of one orbit type."""

    class_id: int
    family: SubspaceFamily

    def excluded(self, pts: np.ndarray) -> np.ndarray:
        scale = 1.0 + np.linalg.norm(pts, axis=1)
        return self.family.min_distance(pts) <= EXACT_TOL * scale

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return self.family.min_distance(pts)


@dataclass(frozen=True)
class ClosedSetSpec:
    """Union of closed balls (used by restrict_off)."""

    centers: np.ndarray
    radius: float

    def excluded(self, pts: np.ndarray) -> np.ndarray:
        d = self.distance(pts)
        return d <= 0.0

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return nearest_center_distance(pts, self.centers) - self.radius


@dataclass(frozen=True)
class BallUnionRegion:
    """Open union of balls around a point set (orbit tube domains)."""

    centers: np.ndarray
    radius: float

    def nearest_distance(self, pts: np.ndarray) -> np.ndarray:
        return nearest_center_distance(pts, self.centers)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.nearest_distance(pts) < self.radius

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        return np.abs(self.radius - self.nearest_distance(pts))


@dataclass(frozen=True)
class MapDomain:
    """Open invariant domain of a local map, with accumulated exclusions."""

    expr: DomainExpr
    bbox: float
    ball_restriction: BallUnionRegion | None = None  # keep only these balls
    tube_restriction: TubeGeometry | None = None     # keep only U^(scale*eps)
    tube_restriction_scale: float = 1.0
    excluded_strata: tuple[StratumExclusion, ...] = ()
    excluded_shells: tuple[TubeGeometry, ...] = ()
    excluded_closed_tubes: tuple[tuple[TubeGeometry, float], ...] = ()
    excluded_sets: tuple[ClosedSetSpec, ...] = ()

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = self.expr.contains(pts)
        if self.ball_restriction is not None:
            ok &= self.ball_restriction.contains(pts)
        if self.tube_restriction is not None:
            geo = self.tube_restriction
            dec = geo.decompose(pts)
            eps = geo.spec.epsilon * self.tube_restriction_scale
            ok &= (dec["dcen"] < geo.spec.rho) & (dec["s"] < eps)
        for excl in self.excluded_strata:
            ok &= ~excl.excluded(pts)
        for geo in self.excluded_shells:
            ok &= ~geo.in_shell(pts)
        for geo, scale in self.excluded_closed_tubes:
            ok &= ~geo.in_closed_tube(pts, scale)
        for cs in self.excluded_sets:
            ok &= ~cs.excluded(pts)
        return ok

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Lower bound on the distance to the domain boundary (for members)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dist = self.expr.boundary_distance(pts)
        if self.ball_restriction is not None:
            dist = np.minimum(dist, self.ball_restriction.boundary_distance(pts))
        if self.tube_restriction is not None:
            geo = self.tube_restriction
            dec = geo.decompose(pts)
            eps = geo.spec.epsilon * self.tube_restriction_scale
            dist = np.minimum(dist, np.abs(geo.spec.rho - dec["dcen"]))
            dist = np.minimum(dist, np.abs(eps - dec["s"]))
        for excl in self.excluded_strata:
            dist = np.minimum(dist, excl.distance(pts))
        for geo in self.excluded_shells:
            dist = np.minimum(dist, geo.shell_distance(pts))
        for geo, scale in self.excluded_closed_tubes:
            dist = np.minimum(dist, geo.closed_tube_distance(pts, scale))
        for cs in self.excluded_sets:
            dist = np.minimum(dist, np.abs(cs.distance(pts)))
        return dist

    # shrink operations used along the perturbation recursion

    def without_stratum(self, exclusion: StratumExclusion) -> "MapDomain":
        return replace(self, excluded_strata=self.excluded_strata + (exclusion,))

    def without_shell(self, geo: TubeGeometry) -> "MapDomain":
        if geo.spec.point_stratum or geo.spec.is_empty:
            return self
        return replace(self, excluded_shells=self.excluded_shells + (geo,))

    def without_closed_tube(self, geo: TubeGeometry, scale: float) -> "MapDomain":
        return replace(self, excluded_closed_tubes=
                       self.excluded_closed_tubes + ((geo, scale),))

    def without_set(self, cs: ClosedSetSpec) -> "MapDomain":
        return replace(self, excluded_sets=self.excluded_sets + (cs,))

    def restricted_to_tube(self, geo: TubeGeometry, scale: float) -> "MapDomain":
        return replace(self, tube_restriction=geo, tube_restriction_scale=scale)


class UnionDomain:
    """Union of disjoint map domains; shrink operations apply to each part."""

    def __init__(self, parts: list):
        self.parts = list(parts)
        self.bbox = max(p.bbox for p in parts)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.zeros(len(pts), dtype=bool)
        for p in self.parts:
            ok |= p.contains(pts)
        return ok

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dist = np.full(len(pts), np.inf)
        for p in self.parts:
            dist = np.minimum(dist, p.boundary_distance(pts))
        return dist

    def _map(self, method: str, *args) -> "UnionDomain":
        return UnionDomain([getattr(p, method)(*args) for p in self.parts])

    def without_stratum(self, exclusion) -> "UnionDomain":
        return self._map("without_stratum", exclusion)

    def without_shell(self, geo) -> "UnionDomain":
        return self._map("without_shell", geo)

    def without_closed_tube(self, geo, scale) -> "UnionDomain":
        return self._map("without_closed_tube", geo, scale)

    def without_set(self, cs) -> "UnionDomain":
        return self._map("without_set", cs)

    def restricted_to_tube(self, geo, scale) -> "UnionDomain":
        return self._map("restricted_to_tube", geo, scale)
