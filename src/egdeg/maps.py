"""Gradient local maps: a base potential under a stack of tube perturbations.

Evaluation walks the layer stack top down.  Inside a layer's open tube the
potential is the underlying potential at the point retracted by ``bump``
plus the ``well`` profile of the normal offset; elsewhere the layer is the
identity.  Gradients use the exact chain rule through the retraction
(``layer_grad``; the strata are flat, so the retraction Jacobian has the
closed form P + mu N + (mu'/s) v v^T, with the coefficients of
``PerturbationLayer.coeffs``); Hessians through layers fall back to central
differences of the gradient.
A map query splits its points once onto every family it reads, and each
layer reads its rows of that split; only the points a layer retracts are
split again, for the layers below it.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .degree import fd_jacobian
from .domains import AnyOf, DomainExpr, MapDomain, Shell, ball, full_space
from .domains import validate_invariance as _dom_invariance
from .errors import DomainsOverlap, NotInvariant, OutsideDomain, UnsupportedRep
from .groups import CircleRep, FiniteGroupRep, antipodal
from .potentials import (
    PiecewisePotential,
    PolynomialPotential,
    Potential,
    validate_gradient_consistency,
    validate_invariance,
)
from .profiles import PerturbationLayer, well
from .records import Record, replace
from .tubes import ProjectorStack, row_matmul


class LocalGradientMap(Record):
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

    def member_grad(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The domain mask of the points and the gradient at its members,
        from one split shared by the domain's regions and the layers."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        split = self._stacks[-1] and self._stacks[-1].split(pts)
        memb = self.domain.contains(pts, split)
        if not memb.all():
            pts, split = pts[memb], split and split.at(memb)
        return memb, self._walk(pts, len(self.layers), split)

    @cached_property
    def _stacks(self) -> list:
        """Entry L >= 1 splits a batch entering layer L, over the families of
        the first L layers; the last adds the domain's, for ``member_grad``."""
        fams = [layer.geometry.family for layer in self.layers]
        query = self.domain.families + fams
        return ([None] + [ProjectorStack(fams[:n]) for n in range(1, len(fams) + 1)]
                + [ProjectorStack(query) if query else None])

    # -- potential through the layer stack --------------------------------

    def phi(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._walk(pts, len(self.layers), None, value=True)

    def grad(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._walk(pts, len(self.layers), None)

    def _walk(self, pts: np.ndarray, level: int, split, value: bool = False):
        """The gradient, or with ``value`` the potential, at pts through the
        first ``level`` layers, from a split of pts over their families
        (taken here when None)."""
        if level == 0:
            return self.potential.value(pts) if value else self.potential.grad(pts)
        layer, split = self.layers[level - 1], split or self._stacks[level].split(pts)

        def below(p, sub):
            return self._walk(p, level - 1, sub, value)
        if value:   # the potential below at the retracted point plus the well
            return through_layer(layer, pts, below, lambda phi, x, v, s, *_:
                                 phi + well(s, layer.epsilon)[0], split=split)
        return layer_grad(layer, pts, below, split=split)

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


def through_layer(layer: PerturbationLayer, pts: np.ndarray, below, inner,
                  t: float = 1.0, split=None) -> np.ndarray:
    """A quantity through one tube layer at time t of its homotopy (t = 1 is
    the perturbed map).  Off the open tube it is ``below(points, sub)``, with
    ``sub`` the points' rows of ``split`` (a split of pts over the layer's
    family, taken here when None).  In it, z = x + v with s = |v| retracts to
    x + mu v, and the quantity is ``inner(q, x, v, s, idx, *coeffs)`` with q
    ``below`` there (``sub`` None) and ``coeffs = layer.coeffs(s, t)``."""
    geo = layer.geometry
    dec = (split or geo.family.stack.split(pts)).read(geo, geo.epsilon)
    inside = geo.in_open_tube(pts, dec)
    if not inside.any():
        return below(pts, split)
    x, v, s = dec["x"][inside], dec["v"][inside], dec["s"][inside]
    coeffs = layer.coeffs(s, t)
    vals = inner(below(x + coeffs[0][:, None] * v, None), x, v, s, dec["idx"][inside], *coeffs)
    out = np.empty((len(pts),) + vals.shape[1:])
    if not inside.all():
        out[~inside] = below(pts[~inside], split and split.at(~inside))
    out[inside] = vals
    return out


def layer_grad(layer: PerturbationLayer, pts: np.ndarray, below,
               t: float = 1.0, split=None) -> np.ndarray:
    """Gradient through one tube layer, by the chain rule of its retraction
    (``through_layer``): the potential phi(x + mu v) + omega(s) has the
    gradient (P + mu N + (mu'/s) v v^T) g + (omega'/s) v, with g the
    gradient below at the retracted point, P the projector onto the
    subspace of x and N = I - P."""
    def chain(g, x, v, s, idx, mu, mu_d, omega_d):
        proj = layer.geometry.family.project(g, idx)
        positive = s > 0
        s_safe = np.where(positive, s, 1.0)
        radial = (mu_d / s_safe) * (v * g).sum(axis=1)
        carried = proj + mu[:, None] * (g - proj) + radial[:, None] * v
        return carried + np.where(positive, omega_d / s_safe, 0.0)[:, None] * v
    return through_layer(layer, pts, below, chain, t, split)


def make_map(group: FiniteGroupRep, domain: MapDomain,
             potential: Potential) -> LocalGradientMap:
    """Wire a validated gradient local map with an empty layer stack."""
    validate_invariance(potential, group, domain.bbox, sample_filter=domain.contains)
    validate_gradient_consistency(potential, domain.bbox, sample_filter=domain.contains)
    _dom_invariance(domain.expr, group, domain.bbox)
    return LocalGradientMap(group, domain, potential)


def circle_surrogate(rep: CircleRep, omega: DomainExpr, radial_coeffs: dict[int, float],
                     bbox: float):
    """(group, omega, map) of the antipodal line surrogate of one weight k
    acting on the plane with the potential p(r^2) (``radial_coeffs``: power
    to coefficient): the even profile p(x^2) on the line, whose free row (e)
    is the circle's (Zk).  Every domain is radial, so its section by the
    line has the same quotient ray.  Other representations are unsupported."""
    if len(rep.weights) != 1 or rep.trivial_dim != 0:
        raise UnsupportedRep("circle groups support weights=[k], trivial_dim=0")
    group = antipodal(1)
    potential = PolynomialPotential.radial_from_r2_poly(radial_coeffs, 1)
    return group, omega, make_map(group, MapDomain(omega, bbox), potential)


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

    def member_grad(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        memb, g = self.map.member_grad(self.ambient(coords))
        return memb, row_matmul(g, self.basis)

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


restrict_to_stratum = StratumField


# ---------------------------------------------------------------------------
# disjoint unions


def disjoint_union(f: LocalGradientMap, g: LocalGradientMap) -> LocalGradientMap:
    """Union of two maps with disjoint domains over the same action."""
    if f.group.content_key != g.group.content_key:
        raise DomainsOverlap("maps live over different groups")
    if f.layers or g.layers:
        raise DomainsOverlap("take unions before perturbing")
    rng = np.random.default_rng(23)
    bbox = max(f.bbox, g.bbox)
    pts = rng.uniform(-bbox, bbox, size=(2000, f.dim))
    both = f.member(pts) & g.member(pts)
    if np.any(both):
        raise DomainsOverlap(
            f"domains overlap near {pts[np.nonzero(both)[0][0]].tolist()}")
    for probe_map, other in ((f, g), (g, f)):
        inner = rng.uniform(-probe_map.bbox, probe_map.bbox, size=(2000, f.dim))
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
