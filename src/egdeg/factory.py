"""Canonical map constructors and the pinned example catalog.

An orbit-normal map is the identity on the normal offsets of a tube around
one orbit (gradient of half the squared distance to the orbit) and is the
unit generator of the invariant.  The normal lift raises a stratum potential
to a tube by adding half the squared normal distance.  The catalog pins the
examples used across the test and acceptance suites together with their
expected invariants and the provenance of each expectation.
"""
from __future__ import annotations

import numpy as np

from .domains import (
    Balls,
    DomainExpr,
    MapDomain,
    Tube,
    ball,
    full_space,
    punctured_space,
)
from .errors import TubeTooWide, UnknownName, ZeroOnY
from .groups import (CircleRep, FiniteGroupRep, antipodal, dihedral, isotropy, orbit,
                     symmetric, trivial)
from .maps import LocalGradientMap, circle_surrogate, make_map
from .newton import newton_zeros
from .potentials import (
    LiftedPotential,
    OrbitWellPotential,
    PolynomialPotential,
    validate_invariance,
)
from .records import Factory, Record
from .strata import Stratum
from .tubes import TubeGeometry


def orbit_normal(group: FiniteGroupRep, omega: DomainExpr, point, epsilon: float,
                 bbox: float = 2.0) -> LocalGradientMap:
    """The unit generator: f(x + v) = v on disjoint balls around one orbit."""
    pts = orbit(group, np.asarray(point, dtype=float))
    if len(pts) > 1:
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 2 * epsilon:
            raise TubeTooWide(
                f"orbit points {dist.min():.3f} apart need epsilon < {dist.min()/2:.3f}")
    # conjugate subspaces of the orbit's own type must stay clear of the tube
    fam = group.lattice.family(isotropy(group, pts[0]).class_id)
    dists = fam.distances(pts)
    off = dists[dists > 1e-9]
    if off.size and off.min() <= 2 * epsilon:
        raise TubeTooWide("orbit sits too close to a conjugate fixed subspace")
    rng = np.random.default_rng(19)
    for p in pts:
        shell = p[None] + epsilon * 0.999 * _unit_cloud(rng, group.dim, 100)
        if not np.all(omega.contains(shell)):
            raise TubeTooWide("orbit tube leaves the domain")
    domain = MapDomain(omega, bbox, kept=(Balls(pts, epsilon, closed=False),))
    potential = OrbitWellPotential(pts)
    f = LocalGradientMap(group, domain, potential,
                         seed_hints=tuple(map(tuple, pts)))
    validate_invariance(potential, group, bbox, sample_filter=domain.contains)
    return f


def _unit_cloud(rng, dim: int, n: int) -> np.ndarray:
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def h_normal_lift(group: FiniteGroupRep, stratum: Stratum,
                  stratum_poly: PolynomialPotential, centers, rho: float,
                  epsilon: float, bbox: float = 2.0,
                  omega: DomainExpr | None = None) -> LocalGradientMap:
    """Lift a stratum potential to the tube: value at the base point plus
    half the squared normal offset.  The stratum polynomial must be Weyl
    invariant; its zero set must lie inside the center balls."""
    omega = omega if omega is not None else full_space()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    fam = stratum.family
    geo = TubeGeometry(fam, centers, rho, epsilon)
    # Weyl invariance of the stratum polynomial
    rng = np.random.default_rng(31)
    coords = rng.uniform(-bbox, bbox, size=(200, stratum.dim))
    base_vals = stratum_poly.value(coords)
    for wmat in group.lattice.weyl_matrices(stratum.class_id):
        moved = stratum_poly.value(coords @ wmat.T)
        if np.max(np.abs(moved - base_vals)) > 1e-8 * (1 + np.max(np.abs(base_vals))):
            raise TubeTooWide("stratum potential is not Weyl invariant")
    potential = LiftedPotential(stratum_poly, fam)
    domain = MapDomain(omega, bbox, kept=(Tube(geo, 1.0, closed=False),))
    hints = tuple(map(tuple, centers))
    return LocalGradientMap(group, domain, potential, seed_hints=hints)


def restrict_off(f: LocalGradientMap, centers, radius: float) -> LocalGradientMap:
    """Shrink the domain by a closed invariant union of balls.

    The removed set must stay clear of the zero set: the field magnitude is
    sampled over the removed region and must stay above a positive margin.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    removed = Balls(centers, float(radius), closed=True)
    rng = np.random.default_rng(37)
    samples = [c for c in centers]
    while len(samples) < 500:
        c = centers[rng.integers(0, len(centers))]
        p = c + radius * rng.uniform(0, 1) * _unit_cloud(rng, f.dim, 1)[0]
        samples.append(p)
    samples = np.array(samples)
    inside = f.member(samples)
    if np.any(inside):
        mags = np.linalg.norm(f.grad(samples[inside]), axis=1)
        if np.min(mags) <= 1e-7:
            raise ZeroOnY(f"field magnitude {np.min(mags):.2e} inside the removed set")
        # walk a few damped Newton steps from the removed centers: a zero
        # hiding strictly inside the set is then detected by proximity
        zeros, _ = newton_zeros(f, samples[inside], max_iter=30)
        if len(zeros) and np.any(removed.contains(zeros)):
            raise ZeroOnY("removed set covers a zero of the field")
    for hint in f.seed_hints:
        if removed.contains(np.array([hint]))[0]:
            raise ZeroOnY("removed set covers a known zero")
    return f.with_domain(f.domain.without(removed))


# ---------------------------------------------------------------------------
# catalog


class CatalogEntry(Record):
    """A pinned example: builder, expected invariant, provenance, free-row name."""

    name: str
    provenance: str
    expected_theta11: int | None
    expected_entries: tuple = ()
    numerics: dict = Factory(dict)
    row_label: str | None = None

    def build(self):
        """Returns (group, omega, map).  Circle entries build their antipodal
        line surrogate (``circle_surrogate``)."""
        return _BUILDERS[self.name]()

    def expected_vector(self):
        from .theta import ThetaVector
        return ThetaVector.from_dict(dict(self.expected_entries),
                                     self.expected_theta11)


def _build_trivial_identity():
    g = trivial(1)
    omega = ball(2.0)
    f = make_map(g, MapDomain(omega, 2.0),
                 PolynomialPotential.from_expression("0.5*x1^2", 1))
    return g, omega, f


def _build_z2_line(sign: float):
    g = antipodal(1)
    omega = full_space()
    f = make_map(g, MapDomain(omega, 2.0),
                 PolynomialPotential.from_expression(
                     "0.5*x1^2" if sign > 0 else "-0.5*x1^2", 1))
    return g, omega, f


def _build_z2_plane_doublewell():
    g = antipodal(2)
    omega = full_space()
    f = make_map(g, MapDomain(omega, 2.0),
                 PolynomialPotential.from_expression("(x1^2-1)^2 + x2^2", 2))
    return g, omega, f


def _build_d3_axis_orbit_normal():
    g = dihedral(3)
    omega = punctured_space()
    f = orbit_normal(g, omega, [1.0, 0.0], 0.2, bbox=2.0)
    return g, omega, f


def _build_s3_perm_radial():
    g = symmetric(3)
    omega = full_space()
    f = make_map(g, MapDomain(omega, 1.6),
                 PolynomialPotential.from_expression(
                     "0.5*(x1^2 + x2^2 + x3^2)", 3))
    return g, omega, f


_BUILDERS = {
    "trivial_identity": _build_trivial_identity,
    "z2_line_min": lambda: _build_z2_line(1.0),
    "z2_line_max": lambda: _build_z2_line(-1.0),
    "z2_plane_doublewell": _build_z2_plane_doublewell,
    "d3_axis_orbit_normal": _build_d3_axis_orbit_normal,
    "s3_perm_radial": _build_s3_perm_radial,
    "s1_dancer_plus": lambda: circle_surrogate(CircleRep((1,)), full_space(), {1: 0.5}, 2.0),
    "s1_dancer_minus": lambda: circle_surrogate(CircleRep((1,)), full_space(), {1: -0.5}, 2.0),
}

_CATALOG = {
    "trivial_identity": CatalogEntry(
        name="trivial_identity",
        provenance="TRIVIAL: single source zero of the identity field",
        expected_theta11=None,
        expected_entries=((("(e)", "q0"), 1),)),
    "z2_line_min": CatalogEntry(
        name="z2_line_min",
        provenance="DERIVED: one-dimensional perturbed-profile oracle",
        expected_theta11=1, expected_entries=()),
    "z2_line_max": CatalogEntry(
        name="z2_line_max",
        provenance="DERIVED: one-dimensional perturbed-profile oracle",
        expected_theta11=1,
        expected_entries=((("(e)", "q0"), -1),)),
    "z2_plane_doublewell": CatalogEntry(
        name="z2_plane_doublewell",
        provenance="DERIVED: boundary winding bookkeeping oracle",
        expected_theta11=1, expected_entries=()),
    "d3_axis_orbit_normal": CatalogEntry(
        name="d3_axis_orbit_normal",
        provenance="PAPER: unit value of an orbit-normal map",
        expected_theta11=None,
        expected_entries=((("(H2a)", "q1"), 1),)),
    "s3_perm_radial": CatalogEntry(
        name="s3_perm_radial",
        provenance="DERIVED: normal-structure recursion, all lower rows vanish",
        expected_theta11=None,
        expected_entries=((("(G)", "q0"), 1),),
        numerics={"grid_h": 0.15, "bbox": 1.6}),
    "s1_dancer_plus": CatalogEntry(
        name="s1_dancer_plus",
        provenance="DERIVED: same oracle as the antipodal line minimum",
        expected_theta11=1, expected_entries=(), row_label="(Z1)"),
    "s1_dancer_minus": CatalogEntry(
        name="s1_dancer_minus",
        provenance="DERIVED: same oracle as the antipodal line maximum",
        expected_theta11=1,
        expected_entries=((("(Z1)", "q0"), -1),), row_label="(Z1)"),
}


def catalog(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(
            f"unknown catalog entry {name!r}; known: {sorted(_CATALOG)}") from None


def catalog_names() -> list[str]:
    return sorted(_CATALOG)
