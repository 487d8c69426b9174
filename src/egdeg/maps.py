"""Gradient local maps: a base potential under a stack of tube perturbations.

Evaluation walks the layer stack top down.  Inside a layer's open tube the
potential is the underlying potential at the point retracted by ``bump``
plus the ``well`` profile of the normal offset; elsewhere the layer is the
identity.  Gradients use the exact chain rule through the retraction
(``layer_grad``; the strata are flat, so the retraction Jacobian has the
closed form P + mu N + (mu'/s) v v^T, with the coefficients of
``PerturbationLayer.coeffs``); Hessians through layers fall back to central
differences of the gradient.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .degree import fd_jacobian
from .domains import AnyOf, MapDomain, Shell, ball, full_space
from .domains import validate_invariance as _dom_invariance
from .errors import DomainsOverlap, NotInvariant, OutsideDomain
from .groups import FiniteGroupRep
from .potentials import (
    PiecewisePotential,
    PolynomialPotential,
    Potential,
    validate_gradient_consistency,
    validate_invariance,
)
from .profiles import PerturbationLayer, bump, well
from .tubes import row_matmul


@dataclass(frozen=True)
class LocalGradientMap:
    """An equivariant gradient local map f = grad(phi)."""

    group: FiniteGroupRep
    domain: MapDomain
    potential: Potential
    layers: tuple[PerturbationLayer, ...] = ()
    seed_hints: tuple = ()   # ambient points worth seeding the solver with

    @property
    def dim(self) -> int:
        return self.group.dim

    @property
    def bbox(self) -> float:
        return self.domain.bbox

    def member(self, points: np.ndarray) -> np.ndarray:
        return self.domain.contains(points)

    # -- potential through the layer stack --------------------------------

    def phi(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._phi_level(pts, len(self.layers))

    def _phi_level(self, pts: np.ndarray, level: int) -> np.ndarray:
        if level == 0:
            return self.potential.value(pts)
        layer = self.layers[level - 1]
        geo = layer.geometry
        dec = geo.decompose(pts, geo.epsilon)
        inside = geo.in_open_tube(pts, dec)
        out = np.empty(pts.shape[0])
        if np.any(~inside):
            out[~inside] = self._phi_level(pts[~inside], level - 1)
        if np.any(inside):
            x = dec["x"][inside]
            v = dec["v"][inside]
            s = dec["s"][inside]
            mu = bump(s, layer.epsilon, layer.mu_kind)[0]
            retracted = x + mu[:, None] * v
            out[inside] = (self._phi_level(retracted, level - 1)
                           + well(s, layer.epsilon)[0])
        return out

    def grad(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._grad_level(pts, len(self.layers))

    def _grad_level(self, pts: np.ndarray, level: int) -> np.ndarray:
        if level == 0:
            return self.potential.grad(pts)
        return layer_grad(self.layers[level - 1], pts,
                          lambda p: self._grad_level(p, level - 1))

    def hess(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.layers:
            return self.potential.hess(pts)
        out = fd_jacobian(self, pts)
        return 0.5 * (out + np.swapaxes(out, 1, 2))

    # -- structural updates ------------------------------------------------

    def with_layer(self, layer: PerturbationLayer) -> "LocalGradientMap":
        """Append a layer; the domain loses the layer's lateral shell, which
        is empty for an empty tube or a point stratum."""
        geo = layer.geometry
        domain = self.domain
        if not (geo.point_stratum or geo.is_empty):
            domain = domain.without(Shell(geo))
        return replace(self, domain=domain, layers=self.layers + (layer,))

    def with_domain(self, domain) -> "LocalGradientMap":
        return replace(self, domain=domain)

    def scaled(self, lam: float) -> "LocalGradientMap":
        if self.layers:
            raise NotInvariant("scale the base potential before perturbing")
        return replace(self, potential=self.potential.scaled(lam))

    def descriptor(self) -> dict:
        from .serialize import map_descriptor  # local import to avoid a cycle
        return map_descriptor(self)


def layer_grad(layer: PerturbationLayer, pts: np.ndarray, below,
               t: float = 1.0) -> np.ndarray:
    """Gradient through one tube layer at time t of its homotopy (t = 1 is
    the perturbed map), by the chain rule of its retraction.

    ``below`` is the gradient under the layer, and ``layer.coeffs(s, t)``
    gives the retraction factor mu, its derivative mu' and the well
    derivative omega' at normal offsets s.  Off the open tube the layer is
    the identity.  In it, z = x + v with s = |v| carries the potential
    phi(x + mu v) + omega(s), whose gradient is (P + mu N + (mu'/s) v v^T) g
    + (omega'/s) v, with g the gradient below at the retracted point, P the
    projector onto the subspace of x and N = I - P.
    """
    geo = layer.geometry
    dec = geo.decompose(pts, geo.epsilon)
    inside = geo.in_open_tube(pts, dec)
    if not inside.any():
        return below(pts)
    out = np.empty_like(pts)
    if not inside.all():
        out[~inside] = below(pts[~inside])
    x, v, s = dec["x"][inside], dec["v"][inside], dec["s"][inside]
    mu, mu_d, omega_d = layer.coeffs(s, t)
    g_below = below(x + mu[:, None] * v)
    proj = geo.family.project(g_below, dec["idx"][inside])
    s_safe = np.where(s > 0, s, 1.0)
    radial = (mu_d / s_safe) * np.sum(v * g_below, axis=1)
    carried = proj + mu[:, None] * (g_below - proj) + radial[:, None] * v
    omega_ratio = np.where(s > 0, omega_d / s_safe, 0.0)
    out[inside] = carried + omega_ratio[:, None] * v
    return out


def make_map(group: FiniteGroupRep, domain: MapDomain, potential: Potential,
             validate: bool = True) -> LocalGradientMap:
    """Wire a validated gradient local map with an empty layer stack."""
    if validate:
        sample_filter = domain.contains
        validate_invariance(potential, group, domain.bbox,
                            sample_filter=sample_filter)
        validate_gradient_consistency(potential, domain.bbox,
                                      sample_filter=sample_filter)
        _dom_invariance(domain.expr, group, domain.bbox)
    return LocalGradientMap(group, domain, potential)


def evaluate(f: LocalGradientMap, point) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian at a single domain point."""
    pt = np.asarray(point, dtype=float)[None]
    if not f.member(pt)[0]:
        raise OutsideDomain(f"point {point} outside the map domain")
    return float(f.phi(pt)[0]), f.grad(pt)[0], f.hess(pt)[0]


def equivariance_residual(f: LocalGradientMap, n_samples: int = 200,
                          seed: int = 17) -> float:
    """Max of |grad(gx) - g grad(x)| over sampled domain points and elements."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-f.bbox, f.bbox, size=(8 * n_samples, f.dim))
    pts = pts[f.member(pts)][:n_samples]
    if len(pts) == 0:
        return 0.0
    base = f.grad(pts)
    worst = 0.0
    for g in range(f.group.order):
        moved_pts = f.group.apply(g, pts)
        ok = f.member(moved_pts)
        if not np.any(ok):
            continue
        moved = f.grad(moved_pts[ok])
        expected = base[ok] @ f.group.elements[g].T
        worst = max(worst, float(np.max(np.linalg.norm(moved - expected, axis=1))))
    return worst


# ---------------------------------------------------------------------------
# stratum restriction


class StratumField:
    """A map restricted to a stratum chart, in stratum coordinates."""

    def __init__(self, f: LocalGradientMap, stratum):
        self.map = f
        self.stratum = stratum
        self.basis = stratum.basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def ambient(self, coords: np.ndarray) -> np.ndarray:
        return row_matmul(np.atleast_2d(coords), self.basis.T)

    def value(self, coords: np.ndarray) -> np.ndarray:
        return self.map.phi(self.ambient(coords))

    def grad(self, coords: np.ndarray) -> np.ndarray:
        return row_matmul(self.map.grad(self.ambient(coords)), self.basis)

    def hess(self, coords: np.ndarray) -> np.ndarray:
        h = self.map.hess(self.ambient(coords))
        return np.einsum("ak,nab,bl->nkl", self.basis, h, self.basis)

    def member(self, coords: np.ndarray) -> np.ndarray:
        return self.map.member(self.ambient(coords))

    def boundary_distance(self, coords: np.ndarray) -> np.ndarray:
        return self.map.domain.boundary_distance(self.ambient(coords))

    def singular_distance(self, coords: np.ndarray) -> np.ndarray:
        """Distance to the singular set of V^H (inf when it is empty)."""
        singular = self.stratum.singular
        if singular is None:
            return np.full(len(np.atleast_2d(coords)), np.inf)
        return singular.min_distance(self.ambient(coords))

    def tangency_residual(self, coords: np.ndarray) -> float:
        """Norm of the gradient component normal to the stratum (should be 0)."""
        amb = self.ambient(coords)
        g = self.map.grad(amb)
        tangential = (g @ self.basis) @ self.basis.T
        return float(np.max(np.linalg.norm(g - tangential, axis=1)))


def restrict_to_stratum(f: LocalGradientMap, stratum) -> StratumField:
    return StratumField(f, stratum)


# ---------------------------------------------------------------------------
# disjoint unions


def disjoint_union(f: LocalGradientMap, g: LocalGradientMap,
                   n_samples: int = 2000, seed: int = 23) -> LocalGradientMap:
    """Union of two maps with disjoint domains over the same action."""
    if f.group.content_key != g.group.content_key:
        raise DomainsOverlap("maps live over different groups")
    if f.layers or g.layers:
        raise DomainsOverlap("take unions before perturbing")
    rng = np.random.default_rng(seed)
    bbox = max(f.bbox, g.bbox)
    pts = rng.uniform(-bbox, bbox, size=(n_samples, f.dim))
    both = f.member(pts) & g.member(pts)
    if np.any(both):
        raise DomainsOverlap(
            f"domains overlap near {pts[np.nonzero(both)[0][0]].tolist()}")
    for probe_map, other in ((f, g), (g, f)):
        inner = rng.uniform(-probe_map.bbox, probe_map.bbox,
                            size=(n_samples, f.dim))
        inner = inner[probe_map.member(inner)]
        if len(inner) and np.any(other.member(inner)):
            raise DomainsOverlap("domains overlap on interior samples")

    union_domain = MapDomain(full_space(), bbox, kept=(AnyOf((f.domain, g.domain)),))
    pieces = []
    for src in (f, g):
        if isinstance(src.potential, PiecewisePotential):
            pieces.extend(src.potential.pieces)
        else:
            pieces.append((src.domain, src.potential))
    potential = PiecewisePotential(pieces)
    return LocalGradientMap(f.group, union_domain, potential,
                            seed_hints=f.seed_hints + g.seed_hints)


def empty_map(group: FiniteGroupRep, bbox: float = 1.0) -> LocalGradientMap:
    """The natural base point: a map with empty domain."""
    dom = MapDomain(ball(0.0), bbox)
    pot = PolynomialPotential({}, group.dim)
    return LocalGradientMap(group, dom, pot)
