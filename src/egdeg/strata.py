"""Orbit-type stratification of an invariant domain.

For each conjugacy class (H) present in the domain, the stratum of points
with isotropy exactly H is an open subset of the fixed subspace V^H.  It is
modelled by a cell grid in stratum coordinates; cells too close to any
larger-isotropy subspace are dropped, which also certifies exact isotropy of
the kept cell centers.  The kept cells are grouped into components by their
chamber key (side of each singular hyperplane of V^H, radial piece of the
domain), and the Weyl group permutes components by permuting keys.  One
table holds where every Weyl element sends every component; its columns
are the orbits, so the quotient components (the Weyl orbits, in order of
their least component) and the stabilizer orders are read off it.
"""
from __future__ import annotations

import warnings

import numpy as np

from .domains import DomainExpr
from .errors import NotInStratum, ResolutionTooCoarse
from .groups import FiniteGroupRep, SubgroupLattice, isotropy
from .params import Numerics
from .records import Record
from .tubes import SubspaceFamily


class OrbitTypeLattice(Record, frozen=False):
    """Orbit types present in the domain, in maximal-first linear order."""

    group: FiniteGroupRep
    class_ids: list[int]                 # ordered: (H_i) <= (H_j) implies j <= i

    @property
    def lattice(self) -> SubgroupLattice:
        return self.group.lattice

    def labels(self) -> list[str]:
        return [self.lattice.class_label(c) for c in self.class_ids]


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
    missing: list[int] = []
    origin_in = bool(omega.contains(np.zeros((1, group.dim)))[0])

    for rec in lat.records:  # records are already sorted maximal first
        basis = rec.fixed_basis
        k = basis.shape[1]
        if k == 0:
            # only the full group fixes the origin exactly
            if origin_in and rec.order == group.order:
                present.append(rec.class_id)
            continue
        sing = lat.singular(rec.class_id)
        if sing is not None and any(b.shape[1] == k for b in sing.bases):
            continue  # fixed space coincides with a larger one; stratum empty
        if _has_witness(omega, basis, sing, h, bbox):
            present.append(rec.class_id)
        else:
            missing.append(rec.class_id)
    labels = ", ".join(lat.class_label(c) for c in missing)
    if missing and present:
        raise ResolutionTooCoarse(
            f"no exact-isotropy witness found for class {labels} at h = {h}, "
            f"though other orbit types are present; refine h")
    if missing:
        warnings.warn(f"no exact-isotropy witness found for class {labels}; "
                      f"omitting", stacklevel=2)
    return OrbitTypeLattice(group, present)


def _grid(k: int, h: float, bbox: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the stratum grid, as an (m, k) int array in lexicographic
    order, and their centers in stratum coordinates."""
    n = max(1, int(round(bbox / h)))
    cells = np.stack(np.indices((2 * n,) * k).reshape(k, -1), axis=1) - n
    return cells, (cells + 0.5) * h


def _has_witness(omega, basis, sing, h, bbox) -> bool:
    pts = _grid(basis.shape[1], h, bbox)[1] @ basis.T
    ok = omega.contains(pts)
    if sing is not None:
        ok &= sing.min_distance(pts) > max(h / 2, 1e-6)
    return bool(ok.any())


class StratumComponent(Record, frozen=False):
    index: int
    label: tuple[int, ...]
    cells: np.ndarray              # (n_cells, k) int, lexicographic order
    centers: np.ndarray            # (n_cells, k) stratum coordinates

    @property
    def label_str(self) -> str:
        return "c" + ",".join(str(c) for c in self.label)


class Stratum:
    """Grid model of one positive-dimensional stratum and its quotient.

    ``weyl_perm[i, c]`` is the component that the i-th Weyl element of
    ``record.weyl_coset_reps`` sends component c to.  The rows list the whole
    Weyl group and row 0 is the identity, so column c is the orbit of c:
    ``rep`` is each component's least orbit member, ``reps`` the least
    members in increasing order (the representatives of q0, q1, ...),
    ``quotient`` each component's quotient index and ``stabilizer`` the
    order of its stabilizer.  A table that is not closed under the action,
    or whose orbits and stabilizers break |orbit| x |stabilizer| = |W(H)|,
    raises ResolutionTooCoarse.
    """

    def __init__(self, group: FiniteGroupRep, class_id: int, basis: np.ndarray,
                 h: float, bbox: float, cells: np.ndarray, cell_components:
                 np.ndarray, components: list, weyl_perm: np.ndarray):
        self.group = group
        self.class_id = class_id
        self.basis = basis
        self.h = h
        self.bbox = bbox
        self.cells = cells                       # kept cells, lexicographic order
        self.cell_components = cell_components   # component index per kept cell
        self.components = components
        self.weyl_perm = weyl_perm
        self.record = group.lattice.records[class_id]
        index = np.arange(len(components))
        self.rep = weyl_perm.min(axis=0)
        # with the identity row, a rep constant along every row is the least
        # member of the orbit that repeated Weyl images close
        if not (np.array_equal(weyl_perm[0], index)
                and np.all(self.rep[weyl_perm] == self.rep)):
            raise ResolutionTooCoarse(
                f"the Weyl images of the {group.lattice.class_label(class_id)} "
                f"components do not close into orbits at h = {h}; refine h")
        self.reps = np.flatnonzero(self.rep == index)
        self.quotient = np.searchsorted(self.reps, self.rep)
        self.stabilizer = np.count_nonzero(weyl_perm == index, axis=0)
        size = np.bincount(self.quotient)[self.quotient]
        bad = np.flatnonzero(size * self.stabilizer != self.weyl_order)
        if len(bad):
            c = bad[0]
            raise ResolutionTooCoarse(f"orbit size {size[c]} x stabilizer "
                                      f"{self.stabilizer[c]} != |WH|={self.weyl_order}")

    @property
    def family(self) -> SubspaceFamily:
        """The conjugate subspaces g V^H, as the lattice holds them."""
        return self.group.lattice.family(self.class_id)

    @property
    def singular(self) -> SubspaceFamily | None:
        """The singular set of V^H, as the lattice holds it."""
        return self.group.lattice.singular(self.class_id)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def weyl_order(self) -> int:
        return self.record.weyl_order

    def quotient_labels(self) -> list[str]:
        return [f"q{j}" for j in range(len(self.reps))]

    def representative_component(self, quotient_label: str) -> StratumComponent:
        labels = self.quotient_labels()
        if quotient_label not in labels:
            raise NotInStratum(f"unknown quotient label {quotient_label!r}")
        return self.components[self.reps[labels.index(quotient_label)]]

    def weyl_matrix(self, src: int, dst: int) -> np.ndarray:
        """The Weyl matrix, in stratum coordinates, of the first Weyl element
        that sends component ``src`` to ``dst``."""
        row = np.flatnonzero(self.weyl_perm[:, src] == dst)[0]
        return self.group.lattice.weyl_matrices(self.class_id)[row]

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        return np.atleast_2d(coords) @ self.basis.T

    def to_coords(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.basis

    def components_of(self, coords: np.ndarray) -> np.ndarray:
        """Component of each point's nearest kept cell within h, -1 if none."""
        return nearest_components(coords, self.cells, self.cell_components,
                                  self.h, self.h)


def row_positions(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Position of each integer row in the table, whose rows are distinct
    and in lexicographic order, or -1 where it is not a row of the table."""
    out = np.full(len(rows), -1)
    if len(table) == 0:
        return out
    lo = table.min(axis=0)
    span = table.max(axis=0) - lo + 1
    inside = np.all((rows >= lo) & (rows < lo + span), axis=1)
    # row-major keys of lexicographically sorted rows are sorted
    keys = np.ravel_multi_index(tuple((table - lo).T), span)
    query = np.ravel_multi_index(tuple((rows[inside] - lo).T), span)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    out[inside] = np.where(keys[at] == query, at, -1)
    return out


def nearest_components(coords, cells: np.ndarray, cell_components: np.ndarray,
                       h: float, radius: float) -> np.ndarray:
    """Component of each point's nearest kept cell (sorted ``cells``, with
    their ``cell_components``) within the radius, or -1.

    Of the 4^k cells around a point, in lexicographic order of their offsets
    in {-1, 0, 1, 2}^k, the first strictly nearest wins.  A per-row matmul
    takes each distance, rounded as the norm of a single vector is."""
    u = np.atleast_2d(np.asarray(coords, dtype=float))
    n, k = u.shape
    offsets = np.stack(np.indices((4,) * k).reshape(k, -1), axis=1) - 1
    near = np.floor(u / h - 0.5).astype(int)[:, None, :] + offsets
    at = row_positions(near.reshape(-1, k), cells).reshape(n, len(offsets))
    comp = np.where(at >= 0, cell_components[at], -1)
    d = (near + 0.5) * h - u[:, None, :]
    dist = np.sqrt(d[..., None, :] @ d[..., None])[..., 0, 0]
    dist[comp < 0] = np.inf
    best = np.arange(n), np.argmin(dist, axis=1)
    return np.where(dist[best] <= radius, comp[best], -1)


def build_stratum(group: FiniteGroupRep, omega: DomainExpr, class_id: int,
                  h: float, bbox: float) -> Stratum:
    """Group the kept grid cells by chamber and tabulate the Weyl action
    on the components.

    Cells are kept iff their center lies in the domain and at distance
    greater than h from every larger-isotropy subspace (which certifies exact
    isotropy).  Kept cells with one chamber key form one component, labelled
    by its minimal cell; components are ordered by that cell.
    """
    lat = group.lattice
    rec = lat.records[class_id]
    basis = rec.fixed_basis
    k = basis.shape[1]
    if k == 0:
        raise NotInStratum("zero-dimensional orbit types have no stratum chart")
    sing = lat.singular(class_id)
    cell_arr, coords = _grid(k, h, bbox)
    pts = coords @ basis.T
    keep = omega.contains(pts)
    if sing is not None:
        keep &= sing.min_distance(pts) > h
    if not keep.any():
        raise ResolutionTooCoarse(
            f"no grid cell of the {lat.class_label(class_id)} stratum lies in "
            f"the domain clear of the singular set by h = {h}; refine h")
    cell_arr, coords = cell_arr[keep], coords[keep]
    chambers = _Chambers(omega, basis, sing)
    pieces = chambers.radial_piece(np.linalg.norm(pts[keep], axis=1))
    keys = chambers.keys(coords, pieces)

    # kept cells come in lexicographic order, so a key's first cell is its
    # minimal cell; the components are ordered by it
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    heads = np.sort(first)
    comp_idx = np.argsort(np.argsort(first))[inverse.reshape(-1)]
    components = [StratumComponent(c, tuple(cell_arr[head].tolist()),
                                   cell_arr[comp_idx == c], coords[comp_idx == c])
                  for c, head in enumerate(heads)]

    key_of = {key.tobytes(): c for c, key in enumerate(keys[heads])}
    weyl_perm = np.empty((rec.weyl_order, len(heads)), dtype=int)
    for row, wmat in zip(weyl_perm, lat.weyl_matrices(class_id)):
        images = chambers.keys(coords[heads] @ wmat.T, pieces[heads])
        row[:] = [key_of.get(key.tobytes(), -1) for key in images]
        if np.any(row < 0):
            raise ResolutionTooCoarse(
                f"weyl image of component {components[np.argmin(row)].label_str}"
                f" lies in a chamber with no kept cell at h = {h}; refine h")
    return Stratum(group, class_id, basis, h, bbox, cell_arr, comp_idx,
                   components, weyl_perm)


def cached_stratum(group: FiniteGroupRep, omega: DomainExpr, class_id: int,
                   num: Numerics) -> Stratum:
    """``build_stratum`` memoized on the group's lattice, by (omega, class,
    h, bbox), so every ``theta`` over one group builds each stratum once."""
    return group.lattice.memo(
        ("stratum", omega, class_id, num.grid_h, num.bbox),
        lambda: build_stratum(group, omega, class_id, num.grid_h, num.bbox))


def _domain_radii(expr: DomainExpr) -> set[float]:
    if expr.left is not None:
        return _domain_radii(expr.left) | _domain_radii(expr.right)
    return {r for r in (expr.r1, expr.r2) if r > 0}


class _Chambers:
    """Chamber keys of stratum points.

    A stratum is V^H minus linear subspaces, inside an origin-centred domain,
    so each component is a chamber of the codim-1 singular subspaces (walls)
    times a connected piece of the domain's radius set.  The key of a point
    is its side of each wall, its radial piece and, on a line, its sign when
    the piece leaves out the origin.
    """

    def __init__(self, omega: DomainExpr, basis: np.ndarray,
                 sing: SubspaceFamily | None):
        k = basis.shape[1]
        walls = [basis.T @ b for b in (sing.bases if sing else ())
                 if b.shape[1] == k - 1]
        self.normals = np.array([np.linalg.eigh(np.eye(k) - s @ s.T)[1][:, -1]
                                 for s in walls]).reshape(-1, k)
        self.line = k == 1
        # radial elements: the origin, the interval above each breakpoint and
        # each further breakpoint, in increasing order; consecutive elements
        # inside the domain form one piece
        self.radii = np.array(sorted({0.0} | _domain_radii(omega)))
        ends = np.append(self.radii[1:], self.radii[-1] + 2.0)
        probes = np.stack([self.radii, (self.radii + ends) / 2]).T.reshape(-1)
        unit = np.eye(basis.shape[0])[0]  # the domain is radial
        inside = omega.contains(probes[:, None] * unit)
        starts = inside & ~np.append(False, inside[:-1])
        self.pieces = np.where(inside, np.cumsum(starts) - 1, -1)

    def radial_piece(self, r: np.ndarray) -> np.ndarray:
        # r is a breakpoint (element 2i) or lies in the interval above the
        # largest breakpoint below it (element 2i + 1)
        j = np.searchsorted(self.radii, r, side="right")
        return self.pieces[2 * j - 1 - (self.radii[j - 1] == r)]

    def keys(self, coords: np.ndarray, pieces: np.ndarray) -> np.ndarray:
        cols = [coords @ self.normals.T > 0, pieces[:, None]]
        if self.line:
            cols.append(((coords[:, 0] > 0) & (pieces != self.pieces[0]))[:, None])
        return np.concatenate(cols, axis=1).astype(np.int64)


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
    return stratum.components[comp_idx].label_str, f"q{stratum.quotient[comp_idx]}"
