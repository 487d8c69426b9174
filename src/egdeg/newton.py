"""Damped Newton on batches of seeds, with central-difference Jacobians.

``newton_zeros`` iterates the open rows of a seed batch together: each
iteration takes the Jacobians of all open rows in one ``grad`` call
(``fd_jacobian``), solves every row's Newton step from its cofactors
(``_solve_batched``) and searches the step lengths in two ``member_grad``
calls (``_line_search``).  Every step is taken row by row, so a row's point
depends on its own seed alone.

Each ``newton_zeros`` call owns one workspace, a flat float buffer that it
makes before its first iteration, sized for its seed batch; rows only leave
the working set, so it never grows.  An iteration takes views of its head,
one after the other: the probe stack that ``grad`` receives; then the
entry-first Jacobian stack with the scratch stack behind it, which holds
the squares of the Frobenius norms and then the cofactors; then the trial
points of the line search.  Each is dead before the next is written, and
where a ``grad`` output views its argument, numpy buffers the overlap of
the ufunc that reads it.  So a view is valid only until the iteration's
next stage, and the buffer dies with its call: nothing returned views it,
and no module state holds it.  Outside Newton, ``fd_jacobian`` and
``_solve_batched`` take no workspace and return fresh arrays.
"""
from __future__ import annotations

import math

import numpy as np

from .params import NEWTON_TOL, POLISH_TOL
from .tubes import row_norms

FD_STEP = 1e-6
RETIRE_STEPS = 3          # accepted Newton steps whose residual ratios must agree
RETIRE_SPREAD = 1e-2      # ... to within this relative spread before a row retires
TAIL_RESIDUAL = 1e-4      # a steady row takes a multiplicity step below this residual
TAIL_RATIO = 0.2          # ... while its residual ratio stays above this
HALVINGS = 0.5 ** np.arange(1, 9)  # step factors of the line search's second call


def _take(work: np.ndarray | None, shape: tuple, start: int = 0) -> np.ndarray:
    """A C-contiguous float array of this shape: the workspace from ``start``
    on, or a fresh array when there is no workspace."""
    if work is None:
        return np.empty(shape)
    return work[start:start + math.prod(shape)].reshape(shape)


def fd_jacobian(field, pts: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Central-difference Jacobians of step FD_STEP, with all 2 k n probes in
    one grad call; the (n, k, k) result views a contiguous entry-first stack.
    Given a workspace, the probes fill its head and the stack then takes
    their place; without one, both are fresh arrays."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, k = pts.shape
    probes = _take(work, (2, k, n, k))
    probes[0], probes[1] = pts + 0.0, pts  # off axis a: x + 0.0 and x - 0.0 = x
    probes[:, np.arange(k), :, np.arange(k)] += np.array([[FD_STEP], [-FD_STEP]])
    g = field.grad(probes.reshape(-1, k)).reshape(2, k, n, k).transpose(0, 3, 1, 2)
    # the probes are dead; should g view them, numpy buffers the overlap
    jac = np.subtract(g[0], g[1], out=_take(work, (k, k, n)))
    return np.divide(jac, 2 * FD_STEP, out=jac).transpose(2, 0, 1)


def newton_zeros(field, seeds: np.ndarray, compact_margin: float | None = None,
                 max_iter: int = 80) -> tuple[np.ndarray, dict]:
    """Damped Newton from every seed; returns polished points and stats.

    Each step solves J s = -f once per row (``_solve_batched``: cofactors
    for k <= 3, pinv on near-singular rows).  A row takes the first of the
    steps lam s, lam = 1, 1/2, ..., 1/256, that stays in the domain and
    lowers the residual (``_line_search``); seeds off the domain and seeds
    that cannot improve are dropped.  A point counts as converged when its
    residual is at most POLISH_TOL after polishing (the iteration itself
    targets NEWTON_TOL).  Only the open rows are iterated, as contiguous
    arrays of seed index, point, field vector, residual (``row_norms``, as
    are step lengths) and a history column, compacted on the iterations
    where a row leaves.  The probes, Jacobians, cofactors and trial points
    of an iteration are views of the call's workspace.

    A row is steady when its last RETIRE_STEPS accepted residual ratios lie
    within RETIRE_SPREAD of each other: linear convergence, as at a singular
    root.  On a field with a singular family (``singular_distance``: a
    stratum field), given the band ``compact_margin``, a steady row whose
    point lies within the band of the singular set retires: it leaves the
    working set and is not returned.  Such a row is bound for a zero of a
    larger orbit type, which an earlier step split off: the domain avoids
    every larger type's subspaces, so its boundary distance is at most the
    singular distance and ``classify_zeros`` drops the point at the same
    margin.  Any other steady row whose residual is below TAIL_RESIDUAL
    and whose ratio is above TAIL_RATIO takes one multiplicity step at its
    next iteration (Schroeder): the Newton step times 1 / (1 - q), where
    q < 1 is the ratio of its last two accepted displacements, which is
    (m - 1) / m at a root of multiplicity m.  Both must be full Newton
    steps: a row that crawls on damped steps is not converging onto a
    multiple root, and its boosted step would lie beyond every halving the
    line search tries.  The line search still guards the step, and the
    row's ratio history starts again after it.  These tests are the same on
    every field, so a row that does not retire takes the same steps whether
    or not the field has a singular family.

    Every step is taken row by row, so a seed's point does not depend on
    the other seeds of the batch.  The points come back in seed order, and
    ``stats["kept"]`` holds the index of each one's seed; a retired row
    counts as neither converged nor stalled, and ``stats["accelerated"]``
    counts the rows that took a multiplicity step.
    """
    pts = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    if len(pts) == 0:
        return np.empty((0, field.dim)), {"seeds": 0, "converged": 0,
                                          "stalled": 0, "retired": 0,
                                          "accelerated": 0,
                                          "kept": np.empty(0, dtype=int)}
    singular_distance = getattr(field, "singular_distance", None)
    band = None if singular_distance is None else compact_margin
    fvals = np.full(len(pts), np.inf)
    active, vecs = field.member_grad(pts)
    active = active.copy()
    retired = np.zeros(len(pts), dtype=bool)
    accelerated = np.zeros(len(pts), dtype=bool)
    # the working set: seed index, point, field vector and residual per row
    idx = np.flatnonzero(active)
    cur = pts[idx]
    vecs = np.array(vecs, float, order="C")
    vals = row_norms(vecs)
    fvals[idx] = vals
    active[idx[~np.isfinite(vals)]] = False
    open_rows = np.isfinite(vals) & (vals > NEWTON_TOL)
    idx, cur, vecs, vals = idx[open_rows], cur[open_rows], vecs[open_rows], vals[open_rows]
    # and its history, one column per row: the last RETIRE_STEPS residual
    # ratios, the last two accepted displacements (nan for a damped one) and
    # 1 - q of a multiplicity step due at the next iteration (1 if none)
    history = np.full((RETIRE_STEPS + 3, len(idx)), np.nan)
    history[-1] = 1.0
    # the workspace: room for the 2 k n probes, for the k k n Jacobians with
    # as much scratch behind them, and for the 8 n trial points of the halvings
    work = np.empty(max(2 * cur.shape[1], len(HALVINGS)) * cur.size)

    for _ in range(max_iter):
        if len(idx) == 0:
            break
        ratios, moves, shrink = history[:RETIRE_STEPS], history[RETIRE_STEPS:-1], history[-1]
        steps = _solve_batched(fd_jacobian(field, cur, work),
                               np.negative(vecs.T, order="C").T, work)
        if np.any(shrink != 1.0):
            steps /= shrink[:, None]
            accelerated[idx[shrink != 1.0]] = True
            shrink[:] = 1.0
        before = vals.copy()
        lam = _line_search(field, cur, vecs, vals, steps, work)
        done = (lam == 0) | (vals <= NEWTON_TOL)
        ratios[:-1] = ratios[1:]
        ratios[-1] = vals / before
        moves[0] = moves[1]
        moves[1] = np.where(lam == 1.0, row_norms(steps), np.nan)
        rows = np.flatnonzero(~done & (ratios.max(0) <= (1 + RETIRE_SPREAD) * ratios.min(0)))
        if len(rows) and band is not None:
            near = singular_distance(cur[rows]) <= band
            retired[idx[rows[near]]] = done[rows[near]] = True
            rows = rows[~near]
        q = moves[1, rows] / moves[0, rows]
        tail = (vals[rows] < TAIL_RESIDUAL) & (ratios[-1, rows] > TAIL_RATIO) & (q < 1)
        shrink[rows[tail]] = 1 - q[tail]
        ratios[:, rows[tail]] = np.nan
        if done.any():
            active[idx[lam == 0]] = False
            pts[idx[done]], fvals[idx[done]] = cur[done], vals[done]
            # a row gather by ``take`` is several times faster than by index
            keep = np.flatnonzero(~done)
            idx, cur, vecs, vals = (x.take(keep, axis=0) for x in (idx, cur, vecs, vals))
            history = history.take(keep, axis=1)
    pts[idx], fvals[idx] = cur, vals

    good = (fvals <= POLISH_TOL) & ~retired
    stats = {"seeds": len(pts), "converged": int(np.sum(good)),
             "stalled": int(np.sum(~active & ~good)),
             "retired": int(np.sum(retired)),
             "accelerated": int(np.sum(accelerated)),
             "kept": np.nonzero(good)[0]}
    return pts[good], stats


def _probe(field, trial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field vectors and residuals (inf off the domain) at trial points."""
    memb, vec = field.member_grad(trial)
    if memb.all():
        return vec, row_norms(vec)
    tvec, tval = np.empty_like(trial), np.full(len(trial), np.inf)
    tvec[memb], tval[memb] = vec, row_norms(vec)
    return tvec, tval


def _line_search(field, cur, vecs, vals, steps, work) -> np.ndarray:
    """Damped Newton steps for a working set, in two ``member_grad`` calls.

    Each row takes the first factor lam of 1, 1/2, ..., 1/256 whose point
    cur + lam s is a domain member with a finite residual below the row's:
    the first call tries cur + s on the whole set, index free, the second
    all eight halvings of the rows the first rejects at once.  A row's
    trials depend on its own point, step and residual alone, so each row
    ends as a search of one factor per round would leave it.  Accepted rows
    are updated in place; returns lam per row, 0 where none was accepted.
    The trial points of either call fill the head of the workspace.
    """
    trial = np.add(cur, steps, out=_take(work, cur.shape))
    tvec, tval = _probe(field, trial)
    took = tval < vals
    for j in range(cur.shape[1]):
        np.copyto(cur[:, j], trial[:, j], where=took)
        np.copyto(vecs[:, j], tvec[:, j], where=took)
    np.copyto(vals, tval, where=took)
    lam = took.astype(float)
    rows = np.flatnonzero(~took)
    if len(rows):
        trial = np.multiply(HALVINGS[:, None, None], steps[rows],
                            out=_take(work, (len(HALVINGS), len(rows), cur.shape[1])))
        trial = np.add(cur[rows], trial, out=trial).reshape(-1, cur.shape[1])
        tvec, tval = _probe(field, trial)
        # the first halving of each row that lowers its residual
        better = tval.reshape(len(HALVINGS), -1) < vals[rows]
        took = better.any(axis=0)
        first = better.argmax(axis=0)[took]
        at, hit = first * len(rows) + np.flatnonzero(took), rows[took]
        cur[hit], vecs[hit], vals[hit] = trial[at], tvec[at], tval[at]
        lam[hit] = HALVINGS[first]
    return lam


def _cofactors(a: np.ndarray, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and cofactors of a stack of k x k matrices, k <= 3,
    held entry first: ``a[i, j]`` is entry (i, j) of every matrix.  Given a
    workspace, the cofactors fill its scratch stack, behind the Jacobians.

    Everything is taken elementwise across the stack, so a matrix's result
    does not depend on the others.  In dim 3, C_ij = a_(i+1)(j+1) a_(i+2)(j+2)
    - a_(i+1)(j+2) a_(i+2)(j+1), indices mod 3, and the determinant is the
    first row's expansion (a_00 C_00 + a_01 C_01) + a_02 C_02; in dim 2 it
    is a_00 a_11 - a_01 a_10.
    """
    k = a.shape[0]
    cof = _take(work, a.shape, a.size)
    if k == 1:
        cof[...] = 1.0
        return a[0, 0], cof
    if k == 2:
        cof[0, 0], cof[0, 1], cof[1, 0], cof[1, 1] = a[1, 1], -a[1, 0], -a[0, 1], a[0, 0]
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0], cof
    for i, j in np.ndindex(3, 3):
        r0, r1, c0, c1 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        np.subtract(a[r0, c0] * a[r1, c1], a[r0, c1] * a[r1, c0], out=cof[i, j])
    det = (a[0, 0] * cof[0, 0] + a[0, 1] * cof[0, 1]) + a[0, 2] * cof[0, 2]
    return det, cof


def _det(jac: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices: cofactors for k <= 3."""
    if 1 <= jac.shape[1] <= 3:
        return _cofactors(jac.transpose(1, 2, 0))[0]
    return np.linalg.det(jac)


def _solve_batched(jac: np.ndarray, rhs: np.ndarray,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Newton steps J s = rhs, one factorization per row.

    A finite row is regular when |det J| > 1e-12 ||J||_F^k; its step is
    adj(J) rhs / det J from cofactors for k <= 3, and LAPACK's solve above.
    Near-singular rows take the pinv step and rows that are not finite
    step 0.  It takes ``fd_jacobian``'s view, and rhs as the (n, k) view of
    a contiguous (k, n) array, uncopied; the steps come back C-contiguous.
    Given a workspace, whose head holds the Jacobians, the squares of
    ||J||_F and then the cofactors fill the scratch stack behind them: the
    squares are dead before the cofactors are formed.
    """
    k = jac.shape[1]
    # entry first, so every entry of the stack is one contiguous vector
    a = np.ascontiguousarray(jac.transpose(1, 2, 0))
    r = np.ascontiguousarray(rhs.T)
    finite = np.isfinite(a).all(axis=(0, 1)) & np.isfinite(r).all(axis=0)
    if not finite.all():
        a = np.where(finite, a, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # ||J||_F^k with the squares summed in row-major order and the
        # power taken by repeated products
        square = np.multiply(a, a, out=_take(work, a.shape, a.size)).reshape(k * k, -1)
        fro = np.sqrt(sum(square[1:], square[0]))
        scale = np.maximum(1e-300, math.prod([fro] * k))
        if k <= 3:
            # (adj rhs)_i = sum_j C_ji rhs_j, summed in order of j
            det, cof = _cofactors(a, work)
            regular = finite & (np.abs(det) > 1e-12 * scale)
            acc = sum((cof[j] * r[j] for j in range(1, k)), cof[0] * r[0])
            steps = np.zeros(rhs.shape)
            np.divide(acc, det, out=steps.T, where=regular)
        else:
            regular = finite & (np.abs(np.linalg.det(a.transpose(2, 0, 1)))
                                > 1e-12 * scale)
            steps = np.zeros(rhs.shape)
            if np.any(regular):
                steps[regular] = np.linalg.solve(jac[regular],
                                                 rhs[regular][..., None])[..., 0]
    singular = finite & ~regular
    if np.any(singular):
        steps[singular] = (np.linalg.pinv(jac[singular], rcond=1e-10)
                           @ rhs[singular][..., None])[..., 0]
    return steps
