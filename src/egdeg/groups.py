"""Finite orthogonal group actions.

A group is stored as an ordered list of orthogonal matrices (identity first)
together with exact index tables for multiplication and inversion.  On top of
that the module computes the full subgroup lattice, conjugacy classes of
subgroups, normalizers, Weyl coset representatives and fixed subspaces, which
is everything the stratification layer needs.

Groups are capped at order 64.  Subgroups are boolean member masks over the
multiplication table: closure is a mask fixpoint, and enumeration joins one
representative per conjugacy class with the cyclic subgroups it does not
contain (cyclic extension).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosureOverflow, IsotropyAmbiguous, NotOrthogonal
from .tubes import SubspaceFamily

MATCH_TOL = 1e-8          # two transforms are identified below this max-norm gap
ORTHO_TOL = 1e-9          # post-orthonormalization quality requirement
INPUT_ORTHO_TOL = 1e-3    # how far a raw generator may drift before rejection
ISO_TOL = 1e-7            # relative residual below which g fixes x
ISO_AMBIG_TOL = 1e-5      # residuals in (ISO_TOL, ISO_AMBIG_TOL) are ambiguous
DEFAULT_CAP = 64


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Project a near-orthogonal matrix to the closest orthogonal one (polar)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotOrthogonal(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat.T @ mat - np.eye(mat.shape[0]))) > INPUT_ORTHO_TOL:
        raise NotOrthogonal("generator is not orthogonal within tolerance")
    u, _, vt = np.linalg.svd(mat)
    q = u @ vt
    if np.max(np.abs(q.T @ q - np.eye(q.shape[0]))) > ORTHO_TOL:
        raise NotOrthogonal("orthonormalization failed the 1e-9 quality test")
    return q


@dataclass(frozen=True)
class OrthogonalTransform:
    """A single orthogonal matrix, orthonormalized at construction."""

    matrix: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, OrthogonalTransform):
            return NotImplemented
        return np.max(np.abs(self.matrix - other.matrix)) <= MATCH_TOL

    def __hash__(self):
        # __eq__ identifies matrices up to MATCH_TOL, and no rounding of the
        # entries keeps every such pair together, so hash the shape only
        return hash(self.matrix.shape)


@dataclass(frozen=True)
class CircleRep:
    """Rotation action on complex blocks, kept only for the circle demo path."""

    weights: tuple[int, ...]
    trivial_dim: int = 0

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weights must be nonempty")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero integers")


class FiniteGroupRep:
    """Finite group of orthogonal matrices with exact index tables."""

    def __init__(self, elements: np.ndarray, mul_table: np.ndarray,
                 inv_table: np.ndarray):
        self.elements = elements          # (n, d, d)
        self.mul_table = mul_table        # (n, n) int
        self.inv_table = inv_table        # (n,) int
        self._lattice = None

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def content_key(self) -> tuple:
        """Equal for groups with equal tables and equal matrices after
        rounding the entries to 6 places (+ 0.0 maps -0.0 to 0.0)."""
        return (self.elements.shape, self.mul_table.tobytes(),
                (np.round(self.elements, 6) + 0.0).tobytes())

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inv_table[i])

    def conj(self, g: int, h: int) -> int:
        """Index of g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def apply(self, g: int, points: np.ndarray) -> np.ndarray:
        """Apply element g to one point (d,) or a batch (n, d)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.elements[g].T

    def matrix(self, g: int) -> np.ndarray:
        return self.elements[g]

    @property
    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = subgroup_lattice(self)
        return self._lattice

    def __repr__(self):
        return f"FiniteGroupRep(order={self.order}, dim={self.dim})"


def _match_index(mat: np.ndarray, elements: np.ndarray) -> int:
    """Index of mat in elements under the MATCH_TOL identification, or -1."""
    gaps = np.max(np.abs(elements - mat[None]), axis=(1, 2))
    idx = int(np.argmin(gaps))
    return idx if gaps[idx] <= MATCH_TOL else -1


def close_group(generators, cap: int = DEFAULT_CAP) -> FiniteGroupRep:
    """Generate a finite orthogonal group from matrices by BFS closure.

    Element 0 is the identity; remaining elements appear in BFS discovery
    order, which makes all downstream labels deterministic.  Raises
    ClosureOverflow when more than ``cap`` distinct elements appear and
    NotOrthogonal for bad generators.
    """
    gens = []
    for g in generators:
        mat = g.matrix if isinstance(g, OrthogonalTransform) else g
        gens.append(orthonormalize(mat))
    if not gens:
        raise NotOrthogonal("at least one generator required")
    d = gens[0].shape[0]
    if any(g.shape != (d, d) for g in gens):
        raise NotOrthogonal("generators have mismatched dimensions")

    elements = [np.eye(d)]
    queue = [0]
    while queue:
        i = queue.pop(0)
        for g in gens:
            prod = g @ elements[i]
            if _match_index(prod, np.array(elements)) == -1:
                if len(elements) >= cap:
                    raise ClosureOverflow(
                        f"closure exceeded cap={cap}; increase cap or check generators")
                elements.append(prod)
                queue.append(len(elements) - 1)

    elems = np.array(elements)
    n = len(elements)
    mul_table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        prods = np.einsum("ab,nbc->nac", elems[i], elems)  # elems[i] @ elems[j]
        gaps = np.max(np.abs(prods[:, None] - elems[None]), axis=(2, 3))
        nearest = np.argmin(gaps, axis=1)
        best = gaps[np.arange(n), nearest]
        if np.any(best > MATCH_TOL):
            raise ClosureOverflow("product fell outside the closed element set")
        # closure must be unambiguous: second-nearest stays clearly apart
        gaps[np.arange(n), nearest] = np.inf
        if np.any(np.min(gaps, axis=1) <= MATCH_TOL):
            raise NotOrthogonal("two distinct elements collide at matching tolerance")
        mul_table[i] = nearest

    inv_table = np.empty(n, dtype=np.int64)
    for i in range(n):
        js = np.nonzero(mul_table[i] == 0)[0]
        if len(js) != 1:
            raise ClosureOverflow("inverse not unique; table inconsistent")
        inv_table[i] = js[0]
    return FiniteGroupRep(elems, mul_table, inv_table)


# ---------------------------------------------------------------------------
# subgroup lattice


@dataclass
class SubgroupRecord:
    """Conjugacy-class representative of a subgroup, with derived data.

    ``member_indices`` is the lexicographically smallest member set of the
    class.  ``weyl_coset_reps`` lists one element per coset of the subgroup in
    its normalizer; acting with those on the fixed space realizes the Weyl
    group action.
    """

    member_indices: tuple[int, ...]
    order: int
    normalizer_indices: tuple[int, ...]
    weyl_coset_reps: tuple[int, ...]
    fixed_basis: np.ndarray      # (d, k) orthonormal columns
    class_id: int

    @property
    def weyl_order(self) -> int:
        return len(self.weyl_coset_reps)

    @property
    def fixed_dim(self) -> int:
        return self.fixed_basis.shape[1]


class SubgroupLattice:
    """All subgroups of a finite group, grouped into conjugacy classes.

    It is also the one owner of each orbit type's subspace data: the
    conjugate family of g V^H, the singular family of V^H and the Weyl
    matrices, each built once, on first use, by ``family``, ``singular`` and
    ``weyl_matrices``.
    """

    def __init__(self, group: FiniteGroupRep, records: list[SubgroupRecord],
                 class_members: list[list[tuple[int, ...]]],
                 leq: np.ndarray):
        self.group = group
        self.records = records
        self.class_members = class_members
        self.leq = leq  # leq[a, b] iff class a is subconjugate to class b
        self._class_by_mask = {
            _mask(group.order, members).tobytes(): cid
            for cid, sets in enumerate(class_members) for members in sets}
        # per-class subspace data of the stratum recursion, see ``_once``
        self._geometry: dict[tuple[str, int], object] = {}

    @property
    def n_classes(self) -> int:
        return len(self.records)

    def class_of_mask(self, mask: np.ndarray) -> int:
        """Class id of the subgroup with this boolean member mask, or -1."""
        return self._class_by_mask.get(np.asarray(mask, dtype=bool).tobytes(), -1)

    def class_of_members(self, members: frozenset[int]) -> int:
        cid = self.class_of_mask(_mask(self.group.order, members))
        if cid < 0:
            raise KeyError("member set is not an enumerated subgroup")
        return cid

    def class_label(self, class_id: int) -> str:
        """Deterministic readable label, used as the invariant's row key."""
        rec = self.records[class_id]
        if rec.order == 1:
            return "(e)"
        if rec.order == self.group.order:
            return "(G)"
        same_order = [r.class_id for r in self.records if r.order == rec.order]
        suffix = chr(ord("a") + same_order.index(class_id))
        return f"(H{rec.order}{suffix})"

    def family(self, class_id: int) -> SubspaceFamily:
        """The distinct conjugate fixed subspaces g V^H, built on first use."""
        basis = self.records[class_id].fixed_basis
        return self._once("family", class_id, lambda: SubspaceFamily(_distinct(
            self.group.elements[g] @ basis for g in range(self.group.order))))

    def singular(self, class_id: int) -> SubspaceFamily | None:
        """The distinct fixed spaces of the subgroups strictly containing the
        representative (the singular set of V^H), None when there are none;
        built on first use."""
        def build():
            rep = set(self.records[class_id].member_indices)
            bases = _distinct(fixed_subspace(self.group, members)
                              for sets in self.class_members for members in sets
                              if rep < set(members))
            return SubspaceFamily(bases) if bases else None
        return self._once("singular", class_id, build)

    def weyl_matrices(self, class_id: int) -> list[np.ndarray]:
        """The Weyl action in stratum coordinates, basis^T Q_w basis, for each
        ``w`` of ``weyl_coset_reps`` in order; built on first use."""
        rec = self.records[class_id]
        basis = rec.fixed_basis
        return self._once("weyl", class_id, lambda: [
            basis.T @ self.group.elements[w] @ basis for w in rec.weyl_coset_reps])

    def _once(self, kind: str, class_id: int, build):
        key = (kind, class_id)
        if key not in self._geometry:
            self._geometry[key] = build()
        return self._geometry[key]


def distinct_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Indices, in order, of the rows a greedy pass keeps: a row is kept
    unless a kept row lies within tol of it in every entry (max-abs).

    Each sweep keeps the first remaining row and drops every remaining row
    within tol of it, which keeps the same rows as the pass."""
    left = np.arange(len(rows))
    keep = []
    while len(left):
        keep.append(left[0])
        left = left[np.max(np.abs(rows[left] - rows[left[0]]), axis=1) > tol]
    return np.array(keep, dtype=np.intp)


def _distinct(bases) -> list[np.ndarray]:
    """The bases whose projectors differ from every earlier one's by more
    than 1e-9 in some entry."""
    bases = list(bases)
    projs = np.array([(b @ b.T).ravel() for b in bases])
    return [bases[i] for i in distinct_rows(projs, 1e-9)]


def _mask(n: int, members) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _members(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def _subgroup_closure(mul_table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Member mask of the subgroup generated by the elements in ``mask``.

    Adds all pairwise products until the set stops growing.  In a finite
    group closure under products already contains every inverse, because
    g^-1 is a power of g.
    """
    m = mask.copy()
    m[0] = True
    while True:
        idx = np.flatnonzero(m)
        m[mul_table[idx[:, None], idx]] = True
        if np.count_nonzero(m) == len(idx):
            return m


def fixed_subspace(group: FiniteGroupRep, members) -> np.ndarray:
    """Orthonormal basis of the common fixed space of the given elements.

    Computed as the null space of the stacked (Q_g - I) system with singular
    value cutoff 1e-9.  Returns a (d, k) array; k may be zero.
    """
    d = group.dim
    members = sorted(set(members))
    rows = np.concatenate([group.elements[g] - np.eye(d) for g in members], axis=0)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-9))
    basis = vt[rank:].T
    # canonical column signs for label stability
    for j in range(basis.shape[1]):
        col = basis[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            basis[:, j] = -col
    return basis


def subgroup_lattice(group: FiniteGroupRep) -> SubgroupLattice:
    """Enumerate all subgroups, conjugacy classes, and the subconjugacy order.

    Cyclic extension over class representatives: a subgroup H is the join
    C_1 v ... v C_k of the cyclic subgroups generated by its elements, and
    H' = C_1 v ... v C_(k-1) is a subgroup, so H' = g^-1 R g for some class
    representative R and g H g^-1 = R v g C_k g^-1.  So joining each
    representative with each cyclic subgroup it does not contain reaches
    every class from the trivial one.  A new join is conjugated once: its
    images form its class, and the smallest member set represents it.
    """
    if group.order > DEFAULT_CAP:
        raise ClosureOverflow(f"lattice restricted to order <= {DEFAULT_CAP}")
    n = group.order
    mul = group.mul_table
    conj = mul[mul, group.inv_table[:, None]]  # conj[g, h] = g h g^-1
    rows = np.arange(n)[:, None]
    unit = np.eye(n, dtype=bool)
    cyclic = np.array(list({c.tobytes(): c for c in (
        _subgroup_closure(mul, g) for g in unit)}.values()))
    classes, found = [], set()  # (representative, conjugates, normalizer)

    def add_class(s):
        images = np.zeros((n, n), dtype=bool)
        images[rows, conj[:, s]] = True  # images[g] = g s g^-1
        distinct = {img.tobytes(): img for img in images}
        found.update(distinct)
        conjugates = sorted(distinct.values(), key=_members)
        rep = conjugates[0]
        # rep's own normalizer: s's is a conjugate of it, not the same set
        normalizer = np.flatnonzero(np.all(rep[conj[:, rep]], axis=1))
        classes.append((rep, conjugates, normalizer))

    add_class(unit[0])
    for rep, _, _ in classes:  # appended to while iterated
        for c in cyclic[np.any(cyclic & ~rep, axis=1)]:
            j = _subgroup_closure(mul, rep | c)
            if j.tobytes() not in found:
                add_class(j)

    # stable class ids: decreasing subgroup order, then smallest member set
    classes.sort(key=lambda cls: (-np.count_nonzero(cls[0]), _members(cls[0])))

    records = []
    for cid, (rep, _, normalizer) in enumerate(classes):
        members = _members(rep)
        reps, seen = [], np.zeros(n, dtype=bool)
        for g in normalizer.tolist():
            if not seen[g]:
                reps.append(g)
                seen[mul[g, rep]] = True
        records.append(SubgroupRecord(
            member_indices=members,
            order=len(members),
            normalizer_indices=tuple(normalizer.tolist()),
            weyl_coset_reps=tuple(reps),
            fixed_basis=fixed_subspace(group, members),
            class_id=cid,
        ))

    # leq[a, b] iff some conjugate of rep a has no member outside rep b
    outside = (~np.array([cls[0] for cls in classes])).astype(np.int64)
    leq = np.array([np.any(np.asarray(cls[1], dtype=np.int64) @ outside.T == 0, axis=0)
                    for cls in classes])
    return SubgroupLattice(group, records,
                           [[_members(c) for c in cls[1]] for cls in classes],
                           leq)


# ---------------------------------------------------------------------------
# pointwise action


@dataclass(frozen=True)
class Isotropy:
    """Stabilizer of a point, matched to an enumerated subgroup class."""

    member_indices: tuple[int, ...]
    class_id: int

    @property
    def order(self) -> int:
        return len(self.member_indices)


def isotropy(group: FiniteGroupRep, x) -> Isotropy:
    """Stabilizer {g : ||Q_g x - x|| <= tol (1 + |x|)} of the point x.

    Raises IsotropyAmbiguous when any group element has a residual in the
    band (1e-7, 1e-5) relative to 1 + |x|: the point is too close to a larger
    stratum for a reliable classification.
    """
    x = np.asarray(x, dtype=float)
    scale = 1.0 + np.linalg.norm(x)
    residuals = np.linalg.norm(x @ np.swapaxes(group.elements, 1, 2) - x[None], axis=1)
    fixed = residuals <= ISO_TOL * scale
    band = (~fixed) & (residuals <= ISO_AMBIG_TOL * scale)
    if np.any(band):
        g = int(np.nonzero(band)[0][0])
        raise IsotropyAmbiguous(
            f"element {g} has residual {residuals[g]:.3e} in the ambiguity band")
    cid = group.lattice.class_of_mask(fixed)
    if cid < 0:
        raise IsotropyAmbiguous("stabilizer set does not match an enumerated subgroup")
    return Isotropy(_members(fixed), cid)


def orbit(group: FiniteGroupRep, x) -> np.ndarray:
    """Distinct points {Q_g x}; asserts |orbit| * |isotropy| = |G|."""
    x = np.asarray(x, dtype=float)
    images = x @ np.swapaxes(group.elements, 1, 2)
    pts = images[distinct_rows(images, MATCH_TOL)]
    iso = isotropy(group, x)
    if len(pts) * iso.order != group.order:
        raise IsotropyAmbiguous(
            f"orbit size {len(pts)} x stabilizer {iso.order} != group order")
    return pts


# ---------------------------------------------------------------------------
# named constructors


def rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def reflection2(axis_angle: float = 0.0) -> np.ndarray:
    c, s = np.cos(2 * axis_angle), np.sin(2 * axis_angle)
    return np.array([[c, s], [s, -c]])


def cyclic(n: int) -> FiniteGroupRep:
    """Rotations by multiples of 2 pi / n acting on the plane."""
    return close_group([rotation2(2 * np.pi / n)], cap=max(n, 2))


def dihedral(n: int) -> FiniteGroupRep:
    """Rotations by 2 pi / n plus the reflection across the x axis."""
    return close_group([rotation2(2 * np.pi / n), reflection2(0.0)], cap=2 * n)


def symmetric(n: int) -> FiniteGroupRep:
    """All n x n permutation matrices."""
    if n < 1 or math.factorial(n) > DEFAULT_CAP:
        raise ClosureOverflow(f"symmetric({n}) exceeds the order cap")
    swap = np.eye(n)[list(range(n))]
    if n >= 2:
        swap = np.eye(n)[[1, 0] + list(range(2, n))]
    cycle = np.eye(n)[[*range(1, n), 0]] if n >= 2 else np.eye(n)
    return close_group([swap, cycle], cap=math.factorial(n))


def antipodal(d: int) -> FiniteGroupRep:
    """The two-element group {I, -I} acting on d-space."""
    return close_group([-np.eye(d)], cap=2)


def trivial(d: int) -> FiniteGroupRep:
    return close_group([np.eye(d)], cap=1)


def from_generators(matrices, cap: int = DEFAULT_CAP) -> FiniteGroupRep:
    return close_group([np.asarray(m, dtype=float) for m in matrices], cap=cap)
