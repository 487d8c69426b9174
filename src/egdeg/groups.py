"""Finite orthogonal group actions.

A group is stored as an ordered list of orthogonal matrices (identity first)
together with exact index tables for multiplication and inversion.  On top of
that the module computes the full subgroup lattice, conjugacy classes of
subgroups, normalizers, Weyl coset representatives and fixed subspaces, which
is everything the stratification layer needs.

Elements come from a BFS over generator products; the multiplication table
matches all n^2 products at once by a rounded-entry key, each match checked
within MATCH_TOL.  The lattice takes order <= 64: subgroups are boolean
member masks, one batch of row gathers closes a class representative's joins
with all the cyclic subgroups it lacks, and subconjugacy is a float product.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ClosureOverflow, IsotropyAmbiguous, NotOrthogonal
from .records import Record
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


class OrthogonalTransform(Record):
    """A single orthogonal matrix, held as given; ``close_group``
    orthonormalizes it when it reads it."""

    matrix: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, OrthogonalTransform):
            return NotImplemented
        return np.max(np.abs(self.matrix - other.matrix)) <= MATCH_TOL

    def __hash__(self):
        # __eq__ identifies matrices up to MATCH_TOL, and no rounding of the
        # entries keeps every such pair together, so hash the shape only
        return hash(self.matrix.shape)


class CircleRep(Record):
    """Rotation action on complex blocks, kept only for the circle demo path."""

    weights: tuple[int, ...]
    trivial_dim: int = 0

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weights must be nonempty")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero integers")

    @property
    def dim(self) -> int:
        return 2 * len(self.weights) + self.trivial_dim

    @property
    def row_label(self) -> str:
        """(Zk), the orbit type off the origin of the single weight k."""
        return f"(Z{abs(self.weights[0])})"


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

    @property
    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = subgroup_lattice(self)
        return self._lattice

    def __repr__(self):
        return f"FiniteGroupRep(order={self.order}, dim={self.dim})"


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable void scalar (bytes) per row of a C-contiguous 2-D array."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def close_group(generators, cap: int = DEFAULT_CAP) -> FiniteGroupRep:
    """Generate a finite orthogonal group from matrices by BFS closure.

    Element 0 is the identity; remaining elements appear in BFS discovery
    order, which makes all downstream labels deterministic.  Raises
    ClosureOverflow when more than ``cap`` distinct elements appear and
    NotOrthogonal for bad generators.

    The table looks all n^2 products up at once by a rounded key, checks
    each guess, and searches densely in the rows where one misses (in all
    rows when two elements are close enough for a product to match both).
    """
    gens = [orthonormalize(g.matrix if isinstance(g, OrthogonalTransform) else g)
            for g in generators]
    if not gens:
        raise NotOrthogonal("at least one generator required")
    d = gens[0].shape[0]
    if any(g.shape != (d, d) for g in gens):
        raise NotOrthogonal("generators have mismatched dimensions")

    stack = np.eye(d)[None]  # doubled when full
    n, i, sep = 1, 0, np.inf  # sep: the smallest gap between two elements
    while i < n:  # the BFS queue is i, ..., n - 1
        for g in gens:
            prod = g @ stack[i]
            gap = np.max(np.abs(stack[:n] - prod), axis=(1, 2)).min()
            if not gap <= MATCH_TOL:
                if n >= cap:
                    raise ClosureOverflow(
                        f"closure exceeded cap={cap}; increase cap or check generators")
                if n == len(stack):
                    stack = np.concatenate([stack, stack])
                stack[n], n, sep = prod, n + 1, min(sep, gap)
        i += 1

    elems = stack[:n].copy()
    prods = np.einsum("iab,jbc->ijac", elems, elems, optimize=True)  # [i] @ [j]
    # keys: entries rounded to 6 places (+ 0.0 maps -0.0 to 0.0); an entry
    # at a rounding boundary can split a matching pair, so keys only guess
    elem_keys, prod_keys = (_row_keys(np.round(a.reshape(-1, d * d), 6) + 0.0)
                            for a in (elems, prods))
    order = np.argsort(elem_keys)
    guess = np.searchsorted(elem_keys[order], prod_keys).clip(max=n - 1)
    mul_table = order[guess].reshape(n, n).astype(np.int64)
    ok = np.max(np.abs(prods - elems[mul_table]), axis=(2, 3)) <= MATCH_TOL
    for i in range(n) if sep <= 3 * MATCH_TOL else np.flatnonzero(~np.all(ok, axis=1)):
        gaps = np.max(np.abs(prods[i][:, None] - elems[None]), axis=(2, 3))
        nearest = np.argmin(gaps, axis=1)
        if np.any(gaps[np.arange(n), nearest] > MATCH_TOL):
            raise ClosureOverflow("product fell outside the closed element set")
        # closure must be unambiguous: second-nearest stays clearly apart
        gaps[np.arange(n), nearest] = np.inf
        if np.any(np.min(gaps, axis=1) <= MATCH_TOL):
            raise NotOrthogonal("two distinct elements collide at matching tolerance")
        mul_table[i] = nearest

    is_unit = mul_table == 0
    if np.any(np.count_nonzero(is_unit, axis=1) != 1):
        raise ClosureOverflow("inverse not unique; table inconsistent")
    return FiniteGroupRep(elems, mul_table, np.argmax(is_unit, axis=1))


# ---------------------------------------------------------------------------
# subgroup lattice


class SubgroupRecord(Record, frozen=False):
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
    ``weyl_matrices``; ``memo`` holds the strata built over it as well.
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
        # per-class data of the stratum recursion, see ``memo``
        self._memo: dict[tuple, object] = {}

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
        return self.memo(("family", class_id), lambda: SubspaceFamily(_distinct(
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
        return self.memo(("singular", class_id), build)

    def weyl_matrices(self, class_id: int) -> list[np.ndarray]:
        """The Weyl action in stratum coordinates, basis^T Q_w basis, for each
        ``w`` of ``weyl_coset_reps`` in order; built on first use."""
        rec = self.records[class_id]
        basis = rec.fixed_basis
        return self.memo(("weyl", class_id), lambda: [
            basis.T @ self.group.elements[w] @ basis for w in rec.weyl_coset_reps])

    def memo(self, key: tuple, build):
        """The value kept under ``key``, made by ``build()`` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


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


def _generated(mul_table: np.ndarray, masks: np.ndarray, shared: np.ndarray,
               own: np.ndarray) -> np.ndarray:
    """Row r: the mask of the subgroup generated by ``shared`` and
    ``own[r]``, grown from ``masks[r]`` (a subset of it) by row gathers to a
    fixpoint.  ``S[mul[x]]`` is the mask of x^-1 S, and the least set holding
    the identity closed under every x^-1 is the subgroup generated."""
    out = masks | np.eye(1, masks.shape[1], dtype=bool)
    m, n = out.shape
    steps = (np.arange(m)[:, None] * n + mul_table[own]).ravel()  # flat x^-1 S
    while True:
        size = np.count_nonzero(out)
        for x in shared.tolist():
            out |= out[:, mul_table[x]]
        out |= out.take(steps).reshape(m, n)
        if np.count_nonzero(out) == size:
            return out


def fixed_subspace(group: FiniteGroupRep, members) -> np.ndarray:
    """Orthonormal basis of the common fixed space of the given elements.

    Computed as the null space of the stacked (Q_g - I) system with singular
    value cutoff 1e-9.  Returns a (d, k) array; k may be zero.
    """
    d = group.dim
    rows = (group.elements[sorted(set(members))] - np.eye(d)).reshape(-1, d)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-9))
    basis = vt[rank:].T
    # canonical column signs for label stability: each column's largest entry
    lead = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    basis *= np.where(lead < 0, -1.0, 1.0)
    return basis


def subgroup_lattice(group: FiniteGroupRep) -> SubgroupLattice:
    """Enumerate all subgroups, conjugacy classes, and the subconjugacy order.

    Cyclic extension over class representatives: a subgroup H is the join
    C_1 v ... v C_k of the cyclic subgroups generated by its elements, and
    H' = C_1 v ... v C_(k-1) is a subgroup, so H' = g^-1 R g for some class
    representative R and g H g^-1 = R v g C_k g^-1.  So joining each
    representative with each cyclic subgroup it does not contain reaches
    every class from the trivial one, in one batched closure per representative;
    a new join's images form its class, whose smallest member set represents it.
    """
    if group.order > DEFAULT_CAP:
        raise ClosureOverflow(f"lattice restricted to order <= {DEFAULT_CAP}")
    n, mul, inv = group.order, group.mul_table, group.inv_table
    index, no_gens = np.arange(n), np.zeros(0, dtype=np.intp)
    unconj = mul[mul[inv], index[:, None]]  # unconj[g, t] = g^-1 t g
    # one generator per distinct cyclic subgroup
    cyclic, gen = np.unique(_generated(mul, np.eye(n, dtype=bool), no_gens, index),
                            axis=0, return_index=True)
    classes, found = [], set()  # (representative, conjugates, normalizer, generators)

    def add_class(s, gens):
        images = s[unconj]  # images[g] = g s g^-1
        keys, first, which = np.unique(_row_keys(images), return_index=True,
                                       return_inverse=True)
        found.update(keys.tolist())
        # among sets of one size, member tuples sort as the masks' bytes reversed
        conjugates, g = images[first[::-1]], first[-1]  # rep = g s g^-1
        # x normalizes rep iff (x g) s (x g)^-1 = rep
        normalizer = np.flatnonzero(which[mul[:, g]] == len(keys) - 1)
        classes.append((conjugates[0], conjugates, normalizer, unconj[inv[g], gens]))

    add_class(index == 0, no_gens)
    for rep, _, _, gens in classes:  # appended to while iterated
        lacks = np.flatnonzero(np.any(cyclic & ~rep, axis=1))
        joins = _generated(mul, rep | cyclic[lacks], gens, gen[lacks])
        keys, first = np.unique(_row_keys(joins), return_index=True)
        for r, key in zip(first.tolist(), keys.tolist()):
            if key not in found:
                add_class(joins[r], np.append(gens, gen[lacks[r]]))

    # stable class ids: decreasing subgroup order, then smallest member set
    classes.sort(key=lambda cls: (-np.count_nonzero(cls[0]), _members(cls[0])))

    records = []
    for cid, (rep, _, normalizer, _) in enumerate(classes):
        members = _members(rep)
        # a coset gH of H in its normalizer is represented by its least element
        reps = normalizer[mul[normalizer][:, rep].min(axis=1) == normalizer]
        records.append(SubgroupRecord(
            member_indices=members, order=len(members),
            normalizer_indices=tuple(normalizer.tolist()),
            weyl_coset_reps=tuple(reps.tolist()),
            fixed_basis=fixed_subspace(group, members), class_id=cid))

    # leq[a, b] iff a conjugate of rep a lies in rep b: b = a or b is larger (lower id)
    reps = np.array([cls[0] for cls in classes])
    orders, outside = np.count_nonzero(reps, axis=1), 1.0 - reps.T
    leq = np.eye(len(classes), dtype=bool)
    for a, (_, conjugates, _, _) in enumerate(classes):
        larger = np.count_nonzero(orders > orders[a])
        leq[a, :larger] = np.any(conjugates @ outside[:, :larger] == 0, axis=0)
    return SubgroupLattice(group, records,
                           [[_members(c) for c in cls[1]] for cls in classes],
                           leq)


# ---------------------------------------------------------------------------
# pointwise action


class Isotropy(Record):
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
    swap = np.eye(n)[[1, 0, *range(2, n)]] if n >= 2 else np.eye(n)
    cycle = np.eye(n)[[*range(1, n), 0]]
    return close_group([swap, cycle], cap=math.factorial(n))


def antipodal(d: int) -> FiniteGroupRep:
    """The two-element group {I, -I} acting on d-space."""
    return close_group([-np.eye(d)], cap=2)


def trivial(d: int) -> FiniteGroupRep:
    return close_group([np.eye(d)], cap=1)


def from_generators(matrices, cap: int = DEFAULT_CAP) -> FiniteGroupRep:
    return close_group([np.asarray(m, dtype=float) for m in matrices], cap=cap)
