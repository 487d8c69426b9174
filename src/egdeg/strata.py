"""Orbit-type stratification of an invariant domain.

For each conjugacy class (H) present in the domain, the stratum of points
with isotropy exactly H is an open subset of the fixed subspace V^H.  Its
connected components are found by flood fill on a cell grid in stratum
coordinates; cells too close to any larger-isotropy subspace are dropped,
which also certifies exact isotropy of the kept cell centers.  The Weyl group
permutes components; quotient components are its orbits, keyed by the
lexicographically smallest member label.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import DomainExpr
from .errors import NotInStratum, ResolutionTooCoarse
from .groups import FiniteGroupRep, SubgroupLattice, fixed_subspace, isotropy
from .params import Numerics
from .tubes import SubspaceFamily


@dataclass
class OrbitTypeLattice:
    """Orbit types present in the domain, in maximal-first linear order."""

    group: FiniteGroupRep
    class_ids: list[int]                 # ordered: (H_i) <= (H_j) implies j <= i
    witnesses: dict[int, np.ndarray]

    @property
    def lattice(self) -> SubgroupLattice:
        return self.group.lattice

    def labels(self) -> list[str]:
        return [self.lattice.class_label(c) for c in self.class_ids]


def singular_family(group: FiniteGroupRep, class_id: int) -> SubspaceFamily | None:
    """Fixed spaces of all subgroups strictly containing the representative."""
    lat = group.lattice
    rep = set(lat.records[class_id].member_indices)
    bases, projs = [], []
    for members_list in lat.class_members:
        for members in members_list:
            s = set(members)
            if rep < s:
                b = fixed_subspace(group, s)
                p = b @ b.T
                if not any(np.max(np.abs(p - q)) <= 1e-9 for q in projs):
                    projs.append(p)
                    bases.append(b)
    return SubspaceFamily(bases) if bases else None


def iso_types(group: FiniteGroupRep, omega: DomainExpr, h: float,
              bbox: float) -> OrbitTypeLattice:
    """Orbit types with a witness point in the domain, maximal first.

    A class enters iff a grid scan over its fixed subspace finds a point of
    the domain whose isotropy is exactly in that class.  The linear order is
    decreasing subgroup order with ties broken by class id, which refines the
    subconjugacy partial order.  A class whose scan finds no witness while
    another class has one raises ResolutionTooCoarse; when no class has a
    witness, the lattice is empty and a UserWarning names the classes.
    """
    lat = group.lattice
    present: list[int] = []
    witnesses: dict[int, np.ndarray] = {}
    missing: list[int] = []
    origin = np.zeros(group.dim)
    origin_in = bool(omega.contains(origin[None])[0])

    for rec in lat.records:  # records are already sorted maximal first
        basis = rec.fixed_basis
        k = basis.shape[1]
        if k == 0:
            # only the full group fixes the origin exactly
            if origin_in and rec.order == group.order:
                present.append(rec.class_id)
                witnesses[rec.class_id] = origin.copy()
            continue
        sing = singular_family(group, rec.class_id)
        if sing is not None and any(b.shape[1] == k for b in sing.bases):
            continue  # fixed space coincides with a larger one; stratum empty
        witness = _grid_witness(omega, basis, sing, h, bbox)
        if witness is None:
            missing.append(rec.class_id)
            continue
        present.append(rec.class_id)
        witnesses[rec.class_id] = witness
    labels = ", ".join(lat.class_label(c) for c in missing)
    if missing and present:
        raise ResolutionTooCoarse(
            f"no exact-isotropy witness found for class {labels} at h = {h}, "
            f"though other orbit types are present; refine h")
    if missing:
        warnings.warn(f"no exact-isotropy witness found for class {labels}; "
                      f"omitting", stacklevel=2)
    return OrbitTypeLattice(group, present, witnesses)


def _grid_cells(k: int, h: float, bbox: float):
    n = max(1, int(round(bbox / h)))
    rng = range(-n, n)
    return itertools.product(rng, repeat=k), n


def _cell_centers(cells, k: int, h: float) -> np.ndarray:
    arr = np.array(list(cells), dtype=float).reshape(-1, k)
    return (arr + 0.5) * h


def _grid_witness(omega, basis, sing, h, bbox):
    k = basis.shape[1]
    cells, _ = _grid_cells(k, h, bbox)
    cells = list(cells)
    centers = _cell_centers(cells, k, h)
    pts = centers @ basis.T
    ok = omega.contains(pts)
    if sing is not None:
        ok &= sing.min_distance(pts) > max(h / 2, 1e-6)
    idx = np.nonzero(ok)[0]
    return pts[idx[0]] if len(idx) else None


@dataclass
class StratumComponent:
    index: int
    label: tuple[int, ...]
    cells: list[tuple[int, ...]]
    centers: np.ndarray            # (n_cells, k) stratum coordinates

    @property
    def label_str(self) -> str:
        return "c" + ",".join(str(c) for c in self.label)


@dataclass
class QuotientOrbit:
    members: list[int]             # component indices
    min_label: tuple[int, ...]
    stabilizer_orders: dict[int, int]
    quotient_label: str = ""


class Stratum:
    """Grid model of one positive-dimensional stratum and its quotient."""

    def __init__(self, group: FiniteGroupRep, class_id: int, basis: np.ndarray,
                 h: float, bbox: float, cells: dict, components: list,
                 weyl_perm: dict, orbits: list, singular: SubspaceFamily | None):
        self.group = group
        self.class_id = class_id
        self.basis = basis
        self.h = h
        self.bbox = bbox
        self.cells = cells                       # cell tuple -> component index
        self.components = components
        self.weyl_perm = weyl_perm               # coset rep -> list[int]
        self.quotient_orbits = orbits
        self.singular = singular
        lat = group.lattice
        self.conjugate_bases = lat.conjugate_bases(class_id)
        self.family = SubspaceFamily(self.conjugate_bases)
        self.record = lat.records[class_id]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def weyl_order(self) -> int:
        return self.record.weyl_order

    def quotient_labels(self) -> list[str]:
        return [o.quotient_label for o in self.quotient_orbits]

    def orbit_of_component(self, comp_index: int) -> QuotientOrbit:
        for orb in self.quotient_orbits:
            if comp_index in orb.members:
                return orb
        raise NotInStratum(f"component {comp_index} not in any quotient orbit")

    def representative_component(self, quotient_label: str) -> StratumComponent:
        for orb in self.quotient_orbits:
            if orb.quotient_label == quotient_label:
                rep = min(orb.members, key=lambda i: self.components[i].label)
                return self.components[rep]
        raise NotInStratum(f"unknown quotient label {quotient_label!r}")

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        return np.atleast_2d(coords) @ self.basis.T

    def to_coords(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.basis

    def components_of(self, coords: np.ndarray) -> np.ndarray:
        """Component of each point's nearest kept cell within h, -1 if none."""
        return nearest_components(coords, self.cells, self.h, self.h)


def nearest_components(coords, comp_of: dict, h: float, radius: float) -> np.ndarray:
    """Component of each point's nearest kept cell within the radius, or -1.

    Of the 4^k cells around a point, in ``itertools.product`` order of their
    offsets, the first strictly nearest wins.  A per-row matmul takes each
    distance, rounded as the norm of a single vector is."""
    u = np.atleast_2d(np.asarray(coords, dtype=float))
    n, k = u.shape
    offsets = np.array(list(itertools.product((-1, 0, 1, 2), repeat=k)))
    cells = np.floor(u / h - 0.5).astype(int)[:, None, :] + offsets
    # look the candidates up in a dense array over the kept cells' bounding box
    kept = np.array(list(comp_of), dtype=int).reshape(-1, k)
    lo = kept.min(axis=0)
    grid = np.full(kept.max(axis=0) - lo + 1, -1)
    grid[tuple((kept - lo).T)] = list(comp_of.values())
    at = np.clip(cells - lo, 0, np.array(grid.shape) - 1)
    comp = np.where(np.all(at == cells - lo, axis=-1), grid[tuple(at.T)].T, -1)
    d = (cells + 0.5) * h - u[:, None, :]
    dist = np.sqrt(d[..., None, :] @ d[..., None])[..., 0, 0]
    dist[comp < 0] = np.inf
    best = np.arange(n), np.argmin(dist, axis=1)
    return np.where(dist[best] <= radius, comp[best], -1)


def build_stratum(group: FiniteGroupRep, omega: DomainExpr, class_id: int,
                  h: float, bbox: float, refinement_check: bool = False) -> Stratum:
    """Flood-fill the stratum grid and compute the Weyl/quotient structure.

    Cells are kept iff their center lies in the domain and at distance
    greater than h from every larger-isotropy subspace (which certifies exact
    isotropy).  With ``refinement_check`` the build is repeated at h/2 and a
    drop in component count raises ResolutionTooCoarse.
    """
    stratum = _build_stratum_once(group, omega, class_id, h, bbox)
    if refinement_check:
        finer = _build_stratum_once(group, omega, class_id, h / 2, bbox)
        if len(finer.components) < len(stratum.components):
            raise ResolutionTooCoarse(
                f"components merged under refinement: {len(stratum.components)}"
                f" -> {len(finer.components)}")
    return stratum


def cached_stratum(cache: dict | None, group: FiniteGroupRep, omega: DomainExpr,
                   class_id: int, num: Numerics) -> Stratum:
    """``build_stratum`` memoized in ``cache`` by group content, not by
    ``id(group)``, which a different group can reuse once this one is freed."""
    key = ("stratum", group.content_key, str(omega), class_id, num.grid_h, num.bbox,
           num.refinement_check)
    if cache is not None and key in cache:
        return cache[key]
    stratum = build_stratum(group, omega, class_id, num.grid_h, num.bbox,
                            num.refinement_check)
    if cache is not None:
        cache[key] = stratum
    return stratum


def _build_stratum_once(group, omega, class_id, h, bbox) -> Stratum:
    lat = group.lattice
    rec = lat.records[class_id]
    basis = rec.fixed_basis
    k = basis.shape[1]
    if k == 0:
        raise NotInStratum("zero-dimensional orbit types have no stratum chart")
    sing = singular_family(group, class_id)

    cells_iter, _ = _grid_cells(k, h, bbox)
    cell_list = list(cells_iter)
    coords = _cell_centers(cell_list, k, h)
    pts = coords @ basis.T
    keep = omega.contains(pts)
    if sing is not None:
        keep &= sing.min_distance(pts) > h
    kept = [c for c, m in zip(cell_list, keep) if m]
    if not kept:
        raise ResolutionTooCoarse(
            f"no grid cell of the {lat.class_label(class_id)} stratum lies in "
            f"the domain clear of the singular set by h = {h}; refine h")
    kept_set = set(kept)

    # flood fill with axis adjacency
    comp_of: dict[tuple, int] = {}
    components_cells: list[list[tuple]] = []
    for cell in kept:
        if cell in comp_of:
            continue
        idx = len(components_cells)
        bucket = [cell]
        comp_of[cell] = idx
        queue = [cell]
        while queue:
            cur = queue.pop()
            for axis in range(k):
                for step in (-1, 1):
                    nb = list(cur)
                    nb[axis] += step
                    nb = tuple(nb)
                    if nb in kept_set and nb not in comp_of:
                        comp_of[nb] = idx
                        bucket.append(nb)
                        queue.append(nb)
        components_cells.append(bucket)

    # deterministic order: sort components by their minimal cell
    order = sorted(range(len(components_cells)),
                   key=lambda i: min(components_cells[i]))
    remap = {old: new for new, old in enumerate(order)}
    comp_of = {c: remap[i] for c, i in comp_of.items()}
    components = []
    for new, old in enumerate(order):
        bucket = sorted(components_cells[old])
        centers = _cell_centers(bucket, k, h)
        components.append(StratumComponent(new, bucket[0], bucket, centers))

    weyl_perm = _weyl_action(group, rec, basis, comp_of, components, h)
    orbits = _quotient_orbits(rec, components, weyl_perm)
    stratum = Stratum(group, class_id, basis, h, bbox, comp_of, components,
                      weyl_perm, orbits, sing)
    return stratum


def _weyl_action(group, rec, basis, comp_of, components, h):
    perms: dict[int, list[int]] = {}
    for w in rec.weyl_coset_reps:
        wmat = basis.T @ group.elements[w] @ basis  # action in stratum coords
        images = []
        for comp in components:
            votes: dict[int, int] = {}
            samples = comp.centers[:: max(1, len(comp.centers) // 8)][:9]
            targets = nearest_components(samples @ wmat.T, comp_of, h,
                                         1.2 * h * np.sqrt(basis.shape[1]))
            for target in targets[targets >= 0].tolist():
                votes[target] = votes.get(target, 0) + 1
            if not votes:
                raise ResolutionTooCoarse(
                    f"weyl image of component {comp.index} not locatable")
            images.append(max(votes.items(), key=lambda kv: kv[1])[0])
        if sorted(images) != list(range(len(components))):
            raise ResolutionTooCoarse("weyl action is not a permutation; refine h")
        perms[w] = images
    return perms


def _quotient_orbits(rec, components, weyl_perm) -> list[QuotientOrbit]:
    n = len(components)
    seen = set()
    orbits = []
    for start in range(n):
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for perm in weyl_perm.values():
                nxt = perm[cur]
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        members = sorted(orbit)
        seen |= orbit
        stab = {}
        for c in members:
            stab[c] = sum(1 for perm in weyl_perm.values() if perm[c] == c)
        wh = rec.weyl_order
        for c in members:
            if len(members) * stab[c] != wh:
                raise ResolutionTooCoarse(
                    f"orbit size {len(members)} x stabilizer {stab[c]} != |WH|={wh}")
        orbits.append(QuotientOrbit(
            members=members,
            min_label=min(components[c].label for c in members),
            stabilizer_orders=stab))
    orbits.sort(key=lambda o: o.min_label)
    for j, orb in enumerate(orbits):
        orb.quotient_label = f"q{j}"
    return orbits


def locate(stratum: Stratum, point) -> tuple[str, str]:
    """Component and quotient labels of a stratum point.

    The point must lie on the representative fixed subspace with isotropy
    exactly the representative subgroup, and within a cell radius of a kept
    grid cell; otherwise NotInStratum is raised.
    """
    x = np.asarray(point, dtype=float)
    proj = stratum.basis @ (stratum.basis.T @ x)
    scale = 1.0 + np.linalg.norm(x)
    if np.linalg.norm(x - proj) > 1e-9 * scale:
        raise NotInStratum("point is not on the representative fixed subspace")
    iso = isotropy(stratum.group, x)
    rec = stratum.record
    if tuple(iso.member_indices) != tuple(rec.member_indices):
        raise NotInStratum(
            f"isotropy {iso.member_indices} differs from subgroup "
            f"{rec.member_indices}")
    u = stratum.to_coords(x)[0]
    comp_idx = int(stratum.components_of(u)[0])
    if comp_idx < 0:
        raise NotInStratum("no kept grid cell near the point")
    comp = stratum.components[comp_idx]
    orb = stratum.orbit_of_component(comp_idx)
    return comp.label_str, orb.quotient_label
