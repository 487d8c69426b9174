"""Invariant potentials and their exact derivatives.

The workhorse is a polynomial in the ambient coordinates stored as a
monomial-to-coefficient map, built either programmatically or by parsing a
config expression over x1..xd with operators + - * ^.  Differentiation is
exact; evaluation is vectorized over point batches.  Besides polynomials the
module provides the orbit well (half squared distance to a point set), the
normal lift of a stratum potential, scaling wrappers, and the piecewise
potential used for disjoint unions.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, NotInvariant
from .tubes import SubspaceFamily, row_matmul

Terms = dict[tuple[int, ...], float]

POWER_BLOCK = 4096  # rows per power table in PolynomialPotential evaluation


def _clean(terms: Terms) -> Terms:
    return {e: c for e, c in terms.items() if c != 0.0}


def poly_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return _clean(out)


def poly_scale(a: Terms, s: float) -> Terms:
    return _clean({e: c * s for e, c in a.items()})


def poly_mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return _clean(out)


def poly_pow(a: Terms, n: int, dim: int) -> Terms:
    if n < 0:
        raise ConfigError("negative exponents are not polynomial")
    out: Terms = {(0,) * dim: 1.0}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_diff(a: Terms, axis: int) -> Terms:
    out: Terms = {}
    for e, c in a.items():
        if e[axis] == 0:
            continue
        de = list(e)
        de[axis] -= 1
        out[tuple(de)] = out.get(tuple(de), 0.0) + c * e[axis]
    return _clean(out)


def _compile(polys: list[Terms], dim: int):
    """Each polynomial as (coefficient, [(axis, power), ...]) terms over the
    nonzero powers, with the top power of each axis over all of them."""
    terms = [[(c, [(j, p) for j, p in enumerate(e) if p])
              for e, c in sorted(poly.items())] for poly in polys]
    top = [max([0] + [e[j] for poly in polys for e in poly]) for j in range(dim)]
    return terms, top


class _Parser:
    """Recursive-descent parser for polynomial expressions in x1..xd."""

    token_re = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                          r"|\d+(?:[eE][+-]?\d+)?)|(x\d+)|([()+\-*^]))")

    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self.token_re.match(text, pos)
            if not m or m.end() == pos:
                raise ConfigError(f"cannot tokenize {text[pos:pos+10]!r}")
            self.tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Terms:
        out = self.expr()
        if self.peek() is not None:
            raise ConfigError(f"unexpected trailing token {self.peek()!r}")
        return out

    def expr(self) -> Terms:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = poly_add(out, rhs if op == "+" else poly_scale(rhs, -1.0))
        return out

    def term(self) -> Terms:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = poly_mul(out, self.factor())
        return out

    def factor(self) -> Terms:
        if self.peek() == "-":
            self.take()
            return poly_scale(self.factor(), -1.0)
        base = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ConfigError("exponent must be a nonnegative integer")
            base = poly_pow(base, int(tok), self.dim)
        return base

    def atom(self) -> Terms:
        tok = self.take()
        if tok is None:
            raise ConfigError("unexpected end of expression")
        if tok == "(":
            out = self.expr()
            if self.take() != ")":
                raise ConfigError("unbalanced parentheses")
            return out
        if tok.startswith("x"):
            idx = int(tok[1:]) - 1
            if not 0 <= idx < self.dim:
                raise ConfigError(f"variable {tok} outside dimension {self.dim}")
            e = [0] * self.dim
            e[idx] = 1
            return {tuple(e): 1.0}
        try:
            val = float(tok)
        except ValueError as exc:
            raise ConfigError(f"bad token {tok!r}") from exc
        return {(0,) * self.dim: val}


class Potential:
    """Protocol-ish base: batched value/grad/hess."""

    dim: int

    def value(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, lam: float) -> "Potential":
        raise NotImplementedError


class PolynomialPotential(Potential):
    """Exact multivariate polynomial with cached derivative terms.

    Evaluation builds a power table per block of POWER_BLOCK rows: x_j^p for
    every axis j up to its top power, by repeated multiplication (numpy's
    ``x ** p`` takes a slow scalar path on negative bases).  Each term is the
    coefficient times its table entries in axis order, and the terms are
    added in canonical order, all elementwise, so a row's result does not
    depend on the other rows of the batch; the blocks bound the memory.
    """

    def __init__(self, terms: Terms, dim: int):
        self.dim = dim
        # canonical term order keeps summation deterministic across rebuilds
        self.terms = dict(sorted(_clean(dict(terms)).items()))
        grads = [poly_diff(self.terms, j) for j in range(dim)]
        self._value = _compile([self.terms], dim)
        self._grad = _compile(grads, dim)
        self._hess = _compile([poly_diff(g, j) for g in grads for j in range(dim)], dim)

    @classmethod
    def from_expression(cls, text: str, dim: int) -> "PolynomialPotential":
        return cls(_Parser(text, dim).parse(), dim)

    @classmethod
    def radial_from_r2_poly(cls, coeffs_by_power: dict[int, float],
                            dim: int) -> "PolynomialPotential":
        """Polynomial p(r^2) expanded in the ambient coordinates."""
        r2: Terms = {}
        for j in range(dim):
            e = [0] * dim
            e[j] = 2
            r2[tuple(e)] = 1.0
        out: Terms = {}
        for power, coeff in coeffs_by_power.items():
            out = poly_add(out, poly_scale(poly_pow(r2, power, dim), coeff))
        return cls(out, dim)

    def _eval(self, polys, top, pts) -> np.ndarray:
        """(n, len(polys)) values of compiled polynomials at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((len(pts), len(polys)))
        for start in range(0, len(pts), POWER_BLOCK):
            block = pts[start:start + POWER_BLOCK]
            table = []
            for j in range(self.dim):
                row = [None, block[:, j].copy()]
                for _ in range(1, top[j]):
                    row.append(row[-1] * row[1])
                table.append(row)
            for s, poly in enumerate(polys):
                acc = np.zeros(len(block))
                for c, factors in poly:
                    mono = c
                    for j, p in factors:
                        mono = mono * table[j][p]
                    acc += mono
                out[start:start + POWER_BLOCK, s] = acc
        return out

    def value(self, pts):
        return self._eval(*self._value, pts)[:, 0]

    def grad(self, pts):
        return self._eval(*self._grad, pts)

    def hess(self, pts):
        return self._eval(*self._hess, pts).reshape(-1, self.dim, self.dim)

    def scaled(self, lam: float) -> "PolynomialPotential":
        return PolynomialPotential(poly_scale(self.terms, lam), self.dim)


class OrbitWellPotential(Potential):
    """Half squared distance to the nearest of a finite point set."""

    def __init__(self, points: np.ndarray):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.dim = self.points.shape[1]

    def _nearest(self, pts):
        diffs = pts[:, None, :] - self.points[None, :, :]
        d2 = np.sum(diffs * diffs, axis=2)
        idx = np.argmin(d2, axis=1)
        return idx, diffs[np.arange(len(pts)), idx]

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _, v = self._nearest(pts)
        return 0.5 * np.sum(v * v, axis=1)

    def grad(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _, v = self._nearest(pts)
        return v

    def hess(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.broadcast_to(np.eye(self.dim), (pts.shape[0], self.dim, self.dim)).copy()

    def scaled(self, lam: float) -> "ScaledPotential":
        return ScaledPotential(self, lam)


class LiftedPotential(Potential):
    """Stratum potential plus half squared normal distance, on a tube.

    The stratum polynomial is expressed in the coordinates of the
    representative fixed subspace; on a conjugate subspace the coordinates of
    that conjugate's basis are used, which is well defined when the stratum
    polynomial is Weyl invariant.
    """

    def __init__(self, stratum_poly: PolynomialPotential, family: SubspaceFamily):
        self.stratum_poly = stratum_poly
        self.family = family
        self.dim = family.dim
        if stratum_poly.dim != family.k:
            raise ConfigError("stratum polynomial dimension mismatch")

    def _on_subspaces(self, pts, fn, shape: tuple):
        """``fn(j, x)`` at the base points x of the points on each subspace
        j, and the normal offsets of all of them."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, x, v, _ = self.family.decompose(pts)
        out = np.empty((pts.shape[0],) + shape)
        for j in range(self.family.count):
            mask = idx == j
            if np.any(mask):
                out[mask] = fn(j, x[mask])
        return out, v

    def value(self, pts):
        out, v = self._on_subspaces(pts, lambda j, x: self.stratum_poly.value(
            row_matmul(x, self.family.bases[j])), ())
        return out + 0.5 * np.sum(v * v, axis=1)

    def grad(self, pts):
        b = self.family.bases
        out, v = self._on_subspaces(pts, lambda j, x: row_matmul(
            self.stratum_poly.grad(row_matmul(x, b[j])), b[j].T), (self.dim,))
        return out + v

    def hess(self, pts):
        b, eye = self.family.bases, np.eye(self.dim)
        return self._on_subspaces(pts, lambda j, x: np.einsum(
            "ak,nkl,bl->nab", b[j], self.stratum_poly.hess(x @ b[j]), b[j])
            + (eye - self.family.projectors[j]), (self.dim, self.dim))[0]

    def scaled(self, lam: float) -> "ScaledPotential":
        return ScaledPotential(self, lam)


class ScaledPotential(Potential):
    def __init__(self, base: Potential, lam: float):
        self.base = base
        self.lam = float(lam)
        self.dim = base.dim

    def value(self, pts):
        return self.lam * self.base.value(pts)

    def grad(self, pts):
        return self.lam * self.base.grad(pts)

    def hess(self, pts):
        return self.lam * self.base.hess(pts)

    def scaled(self, lam: float) -> "ScaledPotential":
        return ScaledPotential(self.base, self.lam * lam)


class PiecewisePotential(Potential):
    """Dispatch between potentials of disjointly supported maps.

    Points outside every piece (finite-difference probes can step slightly
    past an open domain boundary) are assigned to the piece whose boundary is
    nearest, keeping evaluation total and continuous up to the frontier.
    """

    def __init__(self, pieces: list[tuple]):
        # pieces: (map domain, potential)
        self.pieces = pieces
        self.dim = pieces[0][1].dim

    def _masks(self, pts):
        masks = [domain.contains(pts) for domain, _ in self.pieces]
        assigned = np.zeros(pts.shape[0], dtype=bool)
        for m in masks:
            assigned |= m
        leftover = ~assigned
        if np.any(leftover):
            dists = np.stack([domain.boundary_distance(pts[leftover])
                              for domain, _ in self.pieces], axis=0)
            owner = np.argmin(dists, axis=0)
            idx = np.nonzero(leftover)[0]
            for j, m in enumerate(masks):
                m[idx[owner == j]] = True
        return masks

    def _dispatch(self, pts, method: str, shape: tuple) -> np.ndarray:
        """Each piece's ``method`` at the points it owns."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((pts.shape[0],) + shape)
        for mask, (_, pot) in zip(self._masks(pts), self.pieces):
            if np.any(mask):
                out[mask] = getattr(pot, method)(pts[mask])
        return out

    def value(self, pts):
        return self._dispatch(pts, "value", ())

    def grad(self, pts):
        return self._dispatch(pts, "grad", (self.dim,))

    def hess(self, pts):
        return self._dispatch(pts, "hess", (self.dim, self.dim))

    def scaled(self, lam: float) -> "PiecewisePotential":
        return PiecewisePotential([(d, p.scaled(lam)) for d, p in self.pieces])


# ---------------------------------------------------------------------------
# validation


def _samples(seed: int, bbox: float, dim: int, n: int, sample_filter) -> np.ndarray:
    """The first n of 4n uniform box points that pass the filter."""
    pts = np.random.default_rng(seed).uniform(-bbox, bbox, size=(4 * n, dim))
    return (pts if sample_filter is None else pts[sample_filter(pts)])[:n]


def validate_invariance(pot: Potential, group, bbox: float,
                        n_samples: int = 500, seed: int = 11,
                        sample_filter=None) -> None:
    """Check |phi(gx) - phi(x)| <= 1e-8 (1 + |phi(x)|) on a sample cloud."""
    pts = _samples(seed, bbox, group.dim, n_samples, sample_filter)
    if len(pts) == 0:
        return
    base = pot.value(pts)
    tol = 1e-8 * (1.0 + np.abs(base))
    for g in range(group.order):
        moved = pot.value(group.apply(g, pts))
        gap = np.abs(moved - base)
        if np.any(gap > tol):
            i = int(np.argmax(gap - tol))
            raise NotInvariant(
                f"potential not invariant under element {g}: worst sample "
                f"{pts[i].tolist()} gap {gap[i]:.3e}")


def validate_gradient_consistency(pot: Potential, bbox: float,
                                  n_samples: int = 50, seed: int = 13,
                                  sample_filter=None) -> None:
    """Exact derivatives must match central differences at 1e-5 relative."""
    pts = _samples(seed, bbox, pot.dim, n_samples, sample_filter)
    if len(pts) == 0:
        return
    step = 1e-5
    grad = pot.grad(pts)
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = step
        fd = (pot.value(pts + e) - pot.value(pts - e)) / (2 * step)
        scale = 1.0 + np.abs(grad[:, j])
        if np.any(np.abs(fd - grad[:, j]) > 1e-5 * scale):
            raise NotInvariant("gradient does not match finite differences")
    hess = pot.hess(pts)
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = step
        fd = (pot.grad(pts + e) - pot.grad(pts - e)) / (2 * step)
        scale = 1.0 + np.abs(hess[:, :, j])
        if np.any(np.abs(fd - hess[:, :, j]) > 1e-5 * scale):
            raise NotInvariant("hessian does not match finite differences")
