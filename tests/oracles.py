"""Independent oracles used by the test and acceptance suites.

Everything here is deliberately written from closed forms, without touching
the package's layer evaluation or degree machinery, so that agreement is a
genuine cross-check rather than a tautology.
"""
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# one-dimensional brute-force oracle for the antipodal line


def omega_profile(s, eps):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    lo = s <= eps / 3
    mid = (s > eps / 3) & (s < 2 * eps / 3)
    out = np.where(lo, 0.5 * s ** 2 - eps ** 2 / 9, out)
    out = np.where(mid, -0.5 * (s - 2 * eps / 3) ** 2, out)
    return out


def smoothstep_cubic(u):
    return 3 * u ** 2 - 2 * u ** 3


def mu_profile(s, eps):
    s = np.asarray(s, dtype=float)
    u = np.clip((s - 2 * eps / 3) / (eps / 3), 0.0, 1.0)
    return np.where(s > 2 * eps / 3, smoothstep_cubic(u), 0.0)


# the tube profiles as four masked formulas, one per profile and
# derivative, each over its own copy of s


def well_omega(s, eps):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    lo = s <= eps / 3
    mid = (s > eps / 3) & (s < 2 * eps / 3)
    out[lo] = 0.5 * s[lo] ** 2 - eps ** 2 / 9
    out[mid] = -0.5 * (s[mid] - 2 * eps / 3) ** 2
    return out


def well_omega_deriv(s, eps):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    lo = s <= eps / 3
    mid = (s > eps / 3) & (s < 2 * eps / 3)
    out[lo] = s[lo]
    out[mid] = 2 * eps / 3 - s[mid]
    return out


def _smoothstep(u, kind):
    if kind == "cubic":
        return 3 * u ** 2 - 2 * u ** 3
    return 6 * u ** 5 - 15 * u ** 4 + 10 * u ** 3


def _smoothstep_deriv(u, kind):
    if kind == "cubic":
        return 6 * u - 6 * u ** 2
    return 30 * u ** 4 - 60 * u ** 3 + 30 * u ** 2


def bump_mu(s, eps, kind="cubic"):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    hi = s > 2 * eps / 3
    u = (s[hi] - 2 * eps / 3) / (eps / 3)
    out[hi] = _smoothstep(np.clip(u, 0.0, 1.0), kind)
    return out


def bump_mu_deriv(s, eps, kind="cubic"):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    hi = s > 2 * eps / 3
    u = (s[hi] - 2 * eps / 3) / (eps / 3)
    out[hi] = _smoothstep_deriv(np.clip(u, 0.0, 1.0), kind) / (eps / 3)
    return out


def homotopy_coeffs(s, eps, t, kind="cubic"):
    """(mu_t, mu_t', omega_t') of the tube homotopy, one branch per half:
    (2t mu + 1 - 2t, 2t mu', 0) for t <= 1/2, (mu, mu', (2t - 1) omega')
    beyond."""
    if t <= 0.5:
        return (2 * t * bump_mu(s, eps, kind) + (1 - 2 * t),
                2 * t * bump_mu_deriv(s, eps, kind), np.zeros_like(s))
    return (bump_mu(s, eps, kind), bump_mu_deriv(s, eps, kind),
            (2 * t - 1) * well_omega_deriv(s, eps))


def perturbed_line_potential(v, eps, sign):
    """Closed form of the perturbed profile for phi = sign * x^2 / 2 on the
    line, tube around the origin: phi(mu(|v|) v) + omega(|v|)."""
    s = np.abs(np.asarray(v, dtype=float))
    inside = s < eps
    retracted = mu_profile(s, eps) * v
    return np.where(inside,
                    sign * 0.5 * retracted ** 2 + omega_profile(s, eps),
                    sign * 0.5 * np.asarray(v) ** 2)


def line_component_degree(sign, eps, bbox, n=200001):
    """Boundary-sign degree of the perturbed field on the positive half line.

    Differentiates the closed-form potential numerically on a dense grid and
    compares endpoint signs; also asserts the grid sees no spurious boundary
    sign ambiguity.
    """
    v = np.linspace(1e-6, bbox, n)
    psi = perturbed_line_potential(v, eps, sign)
    dv = v[1] - v[0]
    deriv = np.gradient(psi, dv)
    left = np.sign(deriv[2])
    right = np.sign(deriv[-3])
    assert left != 0 and right != 0
    return int((right - left) / 2)


def line_theta_oracle(sign, eps, bbox=2.0):
    """(origin slot, free-row entry) for phi = sign x^2/2 over the line."""
    return 1, line_component_degree(sign, eps, bbox)


# ---------------------------------------------------------------------------
# winding numbers, hand rolled


def polyline_winding(field_fn, loop_pts):
    vals = field_fn(loop_pts)
    ang = np.arctan2(vals[:, 1], vals[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(d)) < np.pi / 2, "refine the loop"
    return float(np.sum(d) / (2 * np.pi))


def circle_winding(field_fn, radius, n=4096, center=(0.0, 0.0)):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    loop = np.stack([center[0] + radius * np.cos(th),
                     center[1] + radius * np.sin(th)], axis=1)
    return polyline_winding(field_fn, loop)


# ---------------------------------------------------------------------------
# Morse-count oracle on a box (dense scan + analytic polish)


def grid_sign_changes_1d(field_fn, lo, hi, n=100001):
    xs = np.linspace(lo, hi, n)[:, None]
    vals = field_fn(xs)[:, 0]
    signs = np.sign(vals)
    crossings = np.nonzero(np.diff(signs) != 0)[0]
    return xs[crossings, 0], signs


def quotient_orbit_count(zeros, indices, weyl_mats, tol=1e-6):
    """Group stratum zeros into Weyl orbits; returns per-orbit index sum.

    Asserts that orbit mates carry equal indices and that all orbits have
    the same size (a free action on each component).
    """
    zeros = np.atleast_2d(zeros)
    remaining = list(range(len(zeros)))
    orbit_indices = []
    sizes = set()
    while remaining:
        i = remaining.pop(0)
        members = [i]
        for w in weyl_mats:
            img = zeros[i] @ w.T
            for j in list(remaining):
                if np.linalg.norm(zeros[j] - img) <= tol:
                    assert indices[j] == indices[i]
                    members.append(j)
                    remaining.remove(j)
        sizes.add(len(members))
        orbit_indices.append(indices[i])
    return sum(orbit_indices), sizes


# ---------------------------------------------------------------------------
# loop forms of the vectorized degree helpers: the batched versions must give
# bitwise the same arrays


def greedy_dedupe(pts, radius):
    """Keep a point when no point kept before it, in lexicographic order,
    lies within the radius."""
    if len(pts) == 0:
        return pts
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= radius for q in keep):
            keep.append(p)
    return np.array(keep)


def axis_fd_jacobian(field, pts, step):
    """Central differences with one pair of grad calls per axis."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, k = pts.shape
    out = np.empty((n, k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        out[:, :, j] = (field.grad(pts + e) - field.grad(pts - e)) / (2 * step)
    return out


def cofactor_det_adjugate(a):
    """Determinant and adjugate of one k x k matrix (lists of floats),
    k <= 3, from its cofactors; in dim 3 the determinant is the first row's
    expansion (a00 C00 + a01 C01) + a02 C02."""
    k = len(a)
    if k == 1:
        return a[0][0], [[1.0]]
    if k == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0],
                [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]])
    cof = [[a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
            - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = (a[0][0] * cof[0][0] + a[0][1] * cof[0][1]) + a[0][2] * cof[0][2]
    return det, [[cof[j][i] for j in range(3)] for i in range(3)]


def rowwise_newton_steps(jac, rhs):
    """Newton steps J s = rhs, one row at a time over Python floats.

    A finite row is regular when |det J| > 1e-12 ||J||_F^k, with the squares
    summed in row-major order and the power taken by repeated products.  A
    regular row steps adj(J) rhs / det J from cofactors for k <= 3 and by
    LAPACK's solve above; a near-singular row takes one pinv, and a row
    that is not finite steps 0."""
    n, k = rhs.shape
    steps = np.zeros_like(rhs)
    for i in range(n):
        a, r = jac[i].tolist(), rhs[i].tolist()
        flat = [x for row in a for x in row]
        if not all(math.isfinite(x) for x in flat + r):
            continue
        fro2 = flat[0] * flat[0]
        for x in flat[1:]:
            fro2 += x * x
        fro = math.sqrt(fro2)
        scale = fro
        for _ in range(k - 1):
            scale *= fro
        floor = 1e-12 * max(1e-300, scale)
        if k <= 3:
            det, adj = cofactor_det_adjugate(a)
            if abs(det) > floor:
                for p in range(k):
                    acc = adj[p][0] * r[0]
                    for j in range(1, k):
                        acc += adj[p][j] * r[j]
                    steps[i, p] = acc / det
                continue
        elif abs(np.linalg.det(jac[i])) > floor:
            steps[i] = np.linalg.solve(jac[i], rhs[i])
            continue
        steps[i] = np.linalg.pinv(jac[i], rcond=1e-10) @ rhs[i]
    return steps


def cell_set(cells):
    """The rows of an (n, k) integer cell array as a set of tuples."""
    return set(map(tuple, np.asarray(cells).tolist()))


def cell_frontier_loop(cells, step):
    """(cell center, axis, side) of every face of a cell union not shared
    with a cell: one set lookup per face, in sorted cell, axis, side order."""
    kept = cell_set(cells)
    out = []
    for cell in sorted(kept):
        center = (np.array(cell, dtype=float) + 0.5) * step
        for axis in range(len(cell)):
            for side in (-1, 1):
                nb = list(cell)
                nb[axis] += side
                if tuple(nb) not in kept:
                    out.append((center, axis, side))
    return out


def cell_facets_loop(cells, step):
    """Oriented frontier facets, one face at a time, stacked into the
    arrays (lo, hi, axis, side)."""
    dim = np.shape(cells)[1]
    lo, hi, axes, sides = [], [], [], []
    for center, axis, side in cell_frontier_loop(cells, step):
        a, b = center - step / 2, center + step / 2
        a[axis] = b[axis] = center[axis] + side * step / 2
        lo.append(a)
        hi.append(b)
        axes.append(axis)
        sides.append(side)
    return (np.array(lo).reshape(-1, dim), np.array(hi).reshape(-1, dim),
            np.array(axes, dtype=int), np.array(sides, dtype=int))


def box_facets_loop(lo, hi):
    """The 2k oriented facets of an axis box, by axis, then side -1 and 1,
    stacked into the arrays (lo, hi, axis, side)."""
    out = []
    for axis in range(len(lo)):
        for side in (-1, 1):
            a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
            a[axis] = b[axis] = hi[axis] if side > 0 else lo[axis]
            out.append((a, b, axis, side))
    return tuple(np.array(col) for col in zip(*out))


def ring_points_loop(cells, step, dim):
    """Frontier cell centers plus each frontier face midpoint, rounded to 12
    places and deduplicated."""
    pts = []
    for center, axis, side in cell_frontier_loop(cells, step):
        probe = center.copy()
        probe[axis] += side * step / 2
        pts += [center, probe]
    if not pts:
        return np.empty((0, dim))
    return np.unique(np.round(np.array(pts), 12), axis=0)


def cells_contain_loop(cells, step, pts):
    """Whether the grid cell of each point is one of the cells."""
    kept = cell_set(cells)
    return np.array([tuple(int(c) for c in np.floor(p / step)) in kept
                     for p in np.atleast_2d(pts)], dtype=bool)


def enclosure_cell_valid(region, field, cell, step, exclude):
    """Whether one enclosure subcell is admissible, checked alone: its
    center inside the region's box, farther than 0.75 step from every
    excluded point, a domain member and, on a stratum, farther than 0.75
    step from the singular set."""
    from egdeg.tubes import row_matmul
    center = (np.array(cell, dtype=float) + 0.5) * step
    lo, hi = region.bounding_box()
    if not np.all((center > lo) & (center < hi)):
        return False
    if exclude is not None and \
            np.min(np.linalg.norm(center - exclude, axis=1)) <= 0.75 * step:
        return False
    if not field.member(center[None])[0]:
        return False
    stratum = getattr(region, "stratum", None)
    if stratum is None or stratum.singular is None:
        return True
    ambient = row_matmul(center[None], stratum.basis.T)
    return bool(stratum.singular.min_distance(ambient)[0] > 0.75 * step)


def enclosure_cells_loop(region, field, cluster_pts, subdiv=2, exclude_pts=None):
    """Enclosure growth over a set of cell tuples: the admissible cells of
    the cluster points, then breadth-first rings of axis neighbours not yet
    in the set, each admissible one added, for ceil(2.5 h / step) rings.
    Returns the cells sorted."""
    step = region.h / subdiv
    exclude = (np.atleast_2d(exclude_pts)
               if exclude_pts is not None and len(exclude_pts) else None)

    def valid(cell):
        return enclosure_cell_valid(region, field, cell, step, exclude)
    seeds = {tuple(int(c) for c in np.floor(p / step)) for p in cluster_pts}
    cells = {c for c in seeds if valid(c)}
    frontier = set(cells)
    for _ in range(max(1, math.ceil(2.5 * region.h / step))):
        candidates = set()
        for cell in frontier:
            for axis in range(len(cell)):
                for side in (-1, 1):
                    nb = cell[:axis] + (cell[axis] + side,) + cell[axis + 1:]
                    if nb not in cells:
                        candidates.add(nb)
        frontier = {c for c in candidates if valid(c)}
        cells |= frontier
    return sorted(cells)


def newton_row_loop(field, seed, tol, compact_margin=None, max_iter=80, info=None):
    """Damped Newton from one seed, alone: a step of factor 1, 1/2, ...,
    1/256 is taken when its point is a domain member with a smaller
    residual, one factor per round, and the seed stalls when none is.  The
    row is steady once the ratios of new to old residual over its last
    three steps lie within 1% of each other.  A field with
    ``singular_distance`` retires a steady row, given the band
    ``compact_margin``, when its point lies within the band of the singular
    set.  Any other steady row with residual below 1e-4, last ratio above
    0.2 and q < 1, q the ratio of its last two accepted displacements when
    both were full steps, divides its next Newton step by 1 - q and starts
    its ratios again.  Returns the last point, its residual (inf outside
    the domain) and whether the row retired.  A dict passed as ``info``
    gets whether the row stalled (it started outside the domain or at a
    residual that is not finite, or no factor lowered its residual) and
    whether it took a multiplicity step."""
    from egdeg.degree import fd_jacobian
    info = {} if info is None else info
    info.update(stalled=True, accelerated=False)
    band = compact_margin if hasattr(field, "singular_distance") else None
    x = np.array(seed, dtype=float)[None]
    if not field.member(x)[0]:
        return x[0], np.inf, False
    f = field.grad(x)
    val = np.linalg.norm(f, axis=1)[0]
    info["stalled"] = not np.isfinite(val)
    ratios, moves, shrink = [], [], 1.0
    for _ in range(max_iter):
        if not np.isfinite(val) or val <= tol:
            break
        step = rowwise_newton_steps(fd_jacobian(field, x), -f)
        if shrink != 1.0:
            step, shrink = step / shrink, 1.0
            info["accelerated"] = True
        lam = 1.0
        for _ in range(9):
            trial = x + lam * step
            if field.member(trial)[0]:
                tf = field.grad(trial)
                tv = np.linalg.norm(tf, axis=1)[0]
                if np.isfinite(tv) and tv < val:
                    ratios.append(tv / val)
                    moves.append(np.linalg.norm(step, axis=1)[0] if lam == 1.0
                                 else np.nan)
                    x, f, val = trial, tf, tv
                    break
            lam *= 0.5
        else:
            info["stalled"] = True
            break
        if val > tol and len(ratios) >= 3:
            last = ratios[-3:]
            if max(last) <= 1.01 * min(last):
                if band is not None and field.singular_distance(x)[0] <= band:
                    return x[0], val, True
                q = moves[-1] / moves[-2]
                if val < 1e-4 and last[-1] > 0.2 and q < 1:
                    shrink, ratios = 1 - q, []
    return x[0], val, False


def linkage_clusters(points, radius):
    """Single-linkage clusters: a union-find over a double loop of pairs."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2) <= radius
    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    buckets = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    return [buckets[k] for k in sorted(buckets)]


def nearest_component(u, cells, cell_components, h, radius):
    """Component of the nearest kept cell among the 4^k around one point, or
    None; the first strictly nearest cell in offset order wins.  The kept
    cells are looked up in a dict from cell tuple to component."""
    comp_of = dict(zip(map(tuple, np.asarray(cells).tolist()),
                       np.asarray(cell_components).tolist()))
    base = np.floor(u / h - 0.5).astype(int)
    best, best_d = None, np.inf
    for off in itertools.product((-1, 0, 1, 2), repeat=len(u)):
        cell = tuple(base + np.array(off))
        if cell not in comp_of:
            continue
        d = np.linalg.norm((np.array(cell) + 0.5) * h - u)
        if d < best_d:
            best, best_d = comp_of[cell], d
    return best if best_d <= radius else None


# ---------------------------------------------------------------------------
# polynomial evaluation term by term with numpy's power


def eval_terms(terms, pts):
    """Sum over the terms in the given order of coefficient times x_j ** p."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    for e, c in terms.items():
        mono = np.full(pts.shape[0], c)
        for j, p in enumerate(e):
            if p:
                mono = mono * pts[:, j] ** p
        out += mono
    return out


# ---------------------------------------------------------------------------
# loop forms of the stratum and tube helpers


def flood_fill_components(kept_cells):
    """Components of an (n, k) array of grid cells under axis adjacency,
    each a lexicographically sorted cell array, ordered by their minimal
    cell."""
    kept = cell_set(kept_cells)
    seen, buckets = set(), []
    for cell in sorted(kept):
        if cell in seen:
            continue
        seen.add(cell)
        bucket, queue = [cell], [cell]
        while queue:
            cur = queue.pop()
            for axis in range(len(cur)):
                for step in (-1, 1):
                    nb = cur[:axis] + (cur[axis] + step,) + cur[axis + 1:]
                    if nb in kept and nb not in seen:
                        seen.add(nb)
                        bucket.append(nb)
                        queue.append(nb)
        buckets.append(sorted(bucket))
    return [np.array(b, dtype=int) for b in sorted(buckets)]


def orbit_closure_loop(group, points):
    """Group images of a point set: keep an image unless a kept image lies
    within 1e-9 (max-abs) of it, then sort lexicographically."""
    if len(points) == 0:
        return points
    images = np.concatenate([points @ group.elements[g].T
                             for g in range(group.order)], axis=0)
    keep = []
    for p in images:
        if not any(np.max(np.abs(p - q)) <= 1e-9 for q in keep):
            keep.append(p)
    order = np.lexsort(np.array(keep).T[::-1])
    return np.array(keep)[order]


def orbit_loop(group, x):
    """Images Q_g x in element order, keeping an image unless a kept image
    lies within MATCH_TOL (max-abs) of it."""
    from egdeg.groups import MATCH_TOL
    keep = []
    for g in range(group.order):
        p = x @ group.elements[g].T
        if not any(np.max(np.abs(p - q)) <= MATCH_TOL for q in keep):
            keep.append(p)
    return np.array(keep)


def _sample_blocks_loop(geo, n, cap, rng, kind):
    """The samplers' block contract, one candidate at a time.

    Each block of m attempts draws the centers, the in-subspace directions,
    the radii (none on the shell, whose radius is rho), the normal
    directions and the depths with one generator call each, in that order;
    the blocks are sized as in ``TubeGeometry._sample_blocks``.  Each
    candidate is then built from its own draws and tested alone, with a
    one-row decompose or its distances to the centers, and the first n
    accepted ones are kept in draw order.
    """
    from egdeg.tubes import _CHUNK_CELLS, _CHUNK_ROWS
    fam, centers = geo.family, geo.centers
    moved = fam.k > 0 and not geo.point_stratum
    offset = kind != "base" and not geo.trivial_normal
    limit = min(_CHUNK_ROWS, max(1, _CHUNK_CELLS // len(centers)))
    out, attempts = [], 0
    while len(out) < n and attempts < cap:
        need = n - len(out)
        m = need if attempts == 0 else -(-need * attempts // max(len(out), 1))
        m = min(m, limit, cap - attempts)
        attempts += m
        idx = rng.integers(0, len(centers), size=m)
        if moved:
            u = rng.normal(size=(m, fam.k))
            r = (np.full(m, geo.rho) if kind == "shell"
                 else rng.uniform(0, geo.rho, size=m))
        if offset:
            w = rng.normal(size=(m, fam.dim))
            s = rng.uniform(0, geo.epsilon, size=m)
        for t in range(m):
            c = centers[idx[t]]
            j = int(geo.decompose(c[None])["idx"][0])
            x = c
            if moved:
                scale = r[t] / (np.linalg.norm(u[t][None], axis=1)[0] + 1e-300)
                x = c + np.sum(fam.bases[j] * u[t], axis=1) * scale
            z = x
            if offset:
                wt = w[t] - np.sum(fam.projectors[j] * w[t], axis=1)
                nw = np.linalg.norm(wt[None], axis=1)[0]
                if nw < 1e-12:
                    continue
                z = x + wt * (s[t] / nw)
            nearest = np.min(np.linalg.norm(x[None] - centers, axis=1))
            if kind == "shell":
                ok = nearest >= geo.rho * (1 - 1e-9)
            elif kind == "base":
                ok = geo.decompose(x[None])["dcen"][0] < geo.rho
            elif not offset:
                ok = nearest < geo.rho
            else:
                dec = geo.decompose(z[None])
                ok = dec["dcen"][0] < geo.rho and dec["s"][0] < geo.epsilon
            if ok and len(out) < n:
                out.append(z)
    return np.array(out) if out else np.empty((0, fam.dim))


def sample_tube_loop(geo, n, rng):
    """Random points of the tube by the block contract: base point plus
    normal offset, tested by a one-row decompose; the base point alone,
    tested by its center distances, when the normal space is trivial."""
    if geo.is_empty:
        return np.empty((0, geo.family.dim))
    return _sample_blocks_loop(geo, n, 200 * n, rng, "tube")


def sample_base_loop(geo, n, rng):
    """Random points of the base set by the block contract, each tested by
    a one-row decompose; n origins for a point stratum."""
    if geo.is_empty:
        return np.empty((0, geo.family.dim))
    if geo.point_stratum:
        return np.zeros((n, geo.family.dim))
    return _sample_blocks_loop(geo, n, 200 * n, rng, "base")


def sample_shell_loop(geo, n, rng):
    """Random points of the lateral shell by the block contract: base points
    at distance rho from their center and at least rho(1 - 1e-9) from every
    center, plus a normal offset; empty for a point stratum, an empty tube
    or a zero-dimensional subspace."""
    if geo.is_empty or geo.point_stratum or geo.family.k == 0:
        return np.empty((0, geo.family.dim))
    return _sample_blocks_loop(geo, n, 50 * n, rng, "shell")


def singular_family_loop(group, class_id):
    """Bases of the fixed spaces of the subgroups strictly containing the
    class representative, one per distinct projector (1e-9 max-abs), in the
    order of ``class_members``."""
    from egdeg.groups import fixed_subspace
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
    return bases


def conjugate_bases_loop(group, class_id):
    """Bases g V^H over the group elements in order, one per distinct
    projector (1e-9 max-abs)."""
    basis = group.lattice.records[class_id].fixed_basis
    bases, projs = [], []
    for g in range(group.order):
        bg = group.elements[g] @ basis
        pg = bg @ bg.T
        if not any(np.max(np.abs(pg - p)) <= 1e-9 for p in projs):
            projs.append(pg)
            bases.append(bg)
    return bases


def subspace_distances_loop(family, points):
    """(J, N) distances to the subspaces, one product and one norm per
    subspace."""
    from egdeg.tubes import row_matmul
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((family.count, pts.shape[0]))
    for j, proj in enumerate(family.projectors):
        out[j] = np.linalg.norm(pts - row_matmul(pts, proj.T), axis=1)
    return out


def subspace_project_loop(family, vecs, idx):
    """Row i of vecs projected onto subspace idx[i], one product per
    subspace over the rows that pick it."""
    from egdeg.tubes import row_matmul
    out = np.empty_like(vecs)
    for j in range(family.count):
        mask = idx == j
        if np.any(mask):
            out[mask] = row_matmul(vecs[mask], family.projectors[j].T)
    return out


def subspace_decompose_loop(family, points):
    """(idx, x, v, s, gap) against the nearest subspace: the distances by
    the loop, then a second projection of each point and a second norm."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists = subspace_distances_loop(family, pts)
    idx = np.argmin(dists, axis=0)
    x = subspace_project_loop(family, pts, idx)
    v = pts - x
    s = np.linalg.norm(v, axis=1)
    if family.count == 1:
        gap = np.full(pts.shape[0], np.inf)
    else:
        sorted_d = np.sort(dists, axis=0)
        gap = sorted_d[1] - sorted_d[0]
    return idx, x, v, s, gap


def subgroup_lattice_loop(group):
    """(records, class_members, leq) of the subgroup lattice by cyclic
    extension of every subgroup: each subgroup found is joined once with
    each cyclic subgroup it does not contain, the masks are sorted by
    (order, members), and each unassigned mask opens a class of its own
    conjugates, so the first of a class is its smallest member set."""
    from egdeg.groups import SubgroupRecord, _subgroup_closure, fixed_subspace

    def members_of(mask):
        return tuple(np.flatnonzero(mask).tolist())

    n, mul = group.order, group.mul_table
    unit = np.eye(n, dtype=bool)
    cyclic = {c.tobytes(): c for c in (_subgroup_closure(mul, g) for g in unit)}
    subs, seen = [unit[0]], {unit[0].tobytes()}
    for s in subs:
        for c in cyclic.values():
            if np.any(c & ~s):
                j = _subgroup_closure(mul, s | c)
                if j.tobytes() not in seen:
                    seen.add(j.tobytes())
                    subs.append(j)
    subs.sort(key=lambda m: (np.count_nonzero(m), members_of(m)))

    assigned, classes = set(), []
    for s in subs:
        if s.tobytes() in assigned:
            continue
        images = np.zeros((n, n), dtype=bool)
        for g in range(n):
            for h in np.flatnonzero(s):
                images[g, group.conj(g, h)] = True
        distinct = {img.tobytes(): img for img in images}
        assigned.update(distinct)
        normalizer = np.flatnonzero(np.all(images == s, axis=1))
        classes.append((s, sorted(distinct.values(), key=members_of), normalizer))
    classes.sort(key=lambda cls: (-np.count_nonzero(cls[0]), members_of(cls[0])))

    records = []
    for cid, (rep, _, normalizer) in enumerate(classes):
        members = members_of(rep)
        reps, covered = [], set()
        for g in normalizer.tolist():
            if g not in covered:
                reps.append(g)
                covered.update(group.mul(g, h) for h in members)
        records.append(SubgroupRecord(
            member_indices=members, order=len(members),
            normalizer_indices=tuple(normalizer.tolist()),
            weyl_coset_reps=tuple(reps),
            fixed_basis=fixed_subspace(group, members), class_id=cid))

    leq = np.zeros((len(classes), len(classes)), dtype=bool)
    for a, (_, conjugates, _) in enumerate(classes):
        for b, (rep, _, _) in enumerate(classes):
            leq[a, b] = any(not np.any(c & ~rep) for c in conjugates)
    return records, [[members_of(c) for c in cls[1]] for cls in classes], leq


def tube_decompose_loop(geo, points):
    """x, s and dcen of a tube's points: the loop decomposition against its
    family, then each base point's distance to its nearest center by one
    axis norm (inf for an empty tube)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _, x, _, s, _ = subspace_decompose_loop(geo.family, pts)
    if geo.is_empty:
        dcen = np.full(len(pts), np.inf)
    else:
        dcen = np.min(np.linalg.norm(x[:, None] - geo.centers[None], axis=2), axis=1)
    return x, s, dcen


def region_query_loop(region, pts, query):
    """``contains`` or ``boundary_distance`` (``query``) of one map-domain
    region on its own: a region built on subspaces decomposes the points
    against its own family by the loop, a union asks its parts region by
    region, and balls answer by themselves."""
    from egdeg import domains as dm
    contains = query == "contains"
    if isinstance(region, dm.AnyOf):
        loop = map_domain_contains_loop if contains else map_domain_boundary_loop
        parts = [loop(p, pts) for p in region.parts]
        return np.logical_or.reduce(parts) if contains else np.minimum.reduce(parts)
    if isinstance(region, dm.Subspaces):
        dist = np.min(subspace_distances_loop(region.family, pts), axis=0)
        return dist <= dm.EXACT_TOL * (1.0 + np.linalg.norm(pts, axis=1)) if contains else dist
    if not isinstance(region, (dm.Tube, dm.Shell)):
        return getattr(region, query)(pts)
    geo = region.geometry
    _, s, dcen = tube_decompose_loop(geo, pts)
    rho = geo.rho
    if isinstance(region, dm.Shell):
        eps = geo.epsilon
        if contains:
            return (dcen == rho) & (s <= eps)
        return np.hypot(np.abs(dcen - rho), np.maximum(0.0, s - eps))
    eps = geo.epsilon * region.scale
    if contains:
        return (dcen <= rho) & (s <= eps) if region.closed else (dcen < rho) & (s < eps)
    if region.closed:
        return np.hypot(np.maximum(0.0, dcen - rho), np.maximum(0.0, s - eps))
    return np.minimum(np.abs(rho - dcen), np.abs(eps - s))


def map_domain_contains_loop(domain, points):
    """MapDomain.contains region by region: inside the expression, every
    kept region and no removed one, each region queried on its own."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ok = domain.expr.contains(pts)
    for region in domain.kept:
        ok &= region_query_loop(region, pts, "contains")
    for region in domain.removed:
        ok &= ~region_query_loop(region, pts, "contains")
    return ok


def map_domain_boundary_loop(domain, points):
    """MapDomain.boundary_distance region by region: the minimum of the
    expression's and every region's own boundary distance."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist = domain.expr.boundary_distance(pts)
    for region in domain.kept + domain.removed:
        dist = np.minimum(dist, region_query_loop(region, pts, "boundary_distance"))
    return dist
