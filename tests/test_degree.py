"""Degree machinery tests: zero finding, boundary degrees, cross-oracles."""
import itertools
import json
import re

import numpy as np
import pytest

from oracles import (axis_fd_jacobian, box_facets_loop, cell_facets_loop,
                     cells_contain_loop, circle_winding, dedupe_sweep,
                     enclosure_cells_loop, greedy_dedupe, linkage_clusters,
                     nearest_other_all_pairs, newton_row_loop,
                     quotient_orbit_count, ring_points_loop, rowwise_newton_steps,
                     winding_one_level)

from egdeg import degree as dg
from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import newton as nw
from egdeg import potentials as pt
from egdeg.errors import DimensionUnsupported, MarginTooSmall, RefinementOverflow
from egdeg.factory import catalog
from egdeg.params import NEWTON_TOL, POLISH_TOL, Numerics
from egdeg.strata import build_stratum, iso_types
from egdeg.theta import recursion
from egdeg.tubes import BUCKET_HAIR, row_norms
from egdeg.verify import _random_confined

NUM = Numerics(grid_h=0.15, bbox=3.0)


def poly_field(expr, dim):
    p = pt.PolynomialPotential.from_expression(expr, dim)
    return dg.FieldAdapter(lambda u: p.grad(u), dim), p


class TestFindZeros:
    def test_single_parabola_zero(self):
        fld, _ = poly_field("0.5*x1^2", 1)
        region = dg.BoxRegion([-1.0], [1.0], 0.1)
        recs = dg.find_zeros(fld, region, NUM)
        assert len(recs) == 1
        assert recs[0].point[0] == pytest.approx(0.0, abs=1e-9)
        assert recs[0].index == 1

    def test_doublewell_indices(self):
        fld, _ = poly_field("(x1^2-1)^2 + x2^2", 2)
        region = dg.BoxRegion([-3, -3], [3, 3], 0.15)
        recs = dg.find_zeros(fld, region, NUM)
        got = sorted((round(r.point[0], 6), round(r.point[1], 6), r.index)
                     for r in recs)
        assert got == [(-1.0, 0.0, 1), (0.0, 0.0, -1), (1.0, 0.0, 1)]

    def test_no_zeros(self):
        fld, _ = poly_field("x1^2", 1)  # gradient 2x, zero only at 0
        region = dg.BoxRegion([0.5], [1.5], 0.1)
        assert dg.find_zeros(fld, region, NUM) == []

    def test_junction_zero_flagged_degenerate(self):
        # a field positive on both sides of its zero: the one-sided finite
        # difference looks nondegenerate but the local boundary degree is 0
        def fn(u):
            x = u[:, 0]
            return np.where(x < 0, -x, x ** 3)[:, None]
        fld = dg.FieldAdapter(fn, 1)
        region = dg.BoxRegion([-1.0], [1.0], 0.1)
        recs = dg.find_zeros(fld, region, NUM)
        assert len(recs) >= 1
        assert all(r.degenerate for r in recs)

    # draws 0 and 5 of the box_degree pool: confined cubics in [-2, 2]^3
    @pytest.mark.parametrize("draw", [0, 5])
    def test_list_form_is_plain_and_equals_the_arrays(self, draw):
        """``find_zeros`` is the public list form of a zero set: each point
        a tuple of Python floats, each index a Python int, bit for bit the
        ``(points, index)`` that ``classify_zeros`` gives for the same
        Newton points, so its rows serialize as plain JSON."""
        poly = _random_confined(np.random.default_rng(424200 + 1000 * 3 + draw), 3)
        fld = dg.FieldAdapter(lambda u: poly.grad(u), 3)
        region = dg.BoxRegion([-2.0] * 3, [2.0] * 3, 0.25)
        recs = dg.find_zeros(fld, region, Numerics(grid_h=0.25, bbox=2.0))
        pts, _ = nw.newton_zeros(fld, region.seed_points(), region.h)
        points, index = dg.classify_zeros(fld, region, pts)
        assert recs and len(recs) == len(points) == len(index)
        for rec, point, i in zip(recs, points, index):
            assert type(rec.index) is int and rec.index == i
            assert all(type(x) is float for x in rec.point)
            assert np.array(rec.point).tobytes() == point.tobytes()
        json.dumps([{"point": list(r.point), "index": r.index} for r in recs])


    def test_newton_batch_is_row_wise(self):
        # x^3 - 3x + 3 has one real root; seeds right of it stall at the
        # local minimum of |f| at x = 1
        fld = dg.FieldAdapter(
            lambda u: np.stack([u[:, 0] ** 3 - 3 * u[:, 0] + 3, u[:, 1]], axis=1), 2)
        a = np.stack(np.meshgrid(np.linspace(-3, 3, 13), [-0.5, 0.5],
                                 indexing="ij"), axis=-1).reshape(-1, 2)
        b = a[::-1] + 0.05
        pa, sa = dg.newton_zeros(fld, a)
        pb, sb = dg.newton_zeros(fld, b)
        pab, sab = dg.newton_zeros(fld, np.concatenate([a, b]))
        assert sa["stalled"] > 0 and sb["stalled"] > 0
        assert sa["converged"] > 0 and sb["converged"] > 0
        assert np.array_equal(pab, np.concatenate([pa, pb]))
        assert np.array_equal(sab["kept"],
                              np.concatenate([sa["kept"], sb["kept"] + len(a)]))
        for key in ("seeds", "converged", "stalled", "retired"):
            assert sab[key] == sa[key] + sb[key]
        # each kept index names the seed its point was polished from
        for i, k in enumerate(sab["kept"]):
            single, _ = dg.newton_zeros(fld, np.concatenate([a, b])[k:k + 1])
            assert np.array_equal(single[0], pab[i])

    def test_newton_tol_within_polish_tol(self):
        # newton_zeros keeps only points polished to residual <= POLISH_TOL,
        # so a looser Newton target would silently drop every converged zero
        assert NEWTON_TOL <= POLISH_TOL


def straddling_cloud(rng, dim, radius, pairs=30, flips=3, walks=3000):
    """Random points near each other, plus pairs whose distance, as
    ``np.linalg.norm`` of their difference gives it, is the radius or one
    ulp either side of it.  From dim 2 on, it also looks for ``flips``
    pairs that an axis norm, which can round the last bit differently, puts
    on the other side of the radius.
    """
    targets = (np.nextafter(radius, 0), radius, np.nextafter(radius, 1))
    pts = [rng.uniform(0, 6 * radius, size=(60, dim))]
    hits = flipped = 0
    for _ in range(walks):
        if hits >= pairs and (dim == 1 or flipped >= flips):
            break
        # in dim 1 a distance is a whole number of ulps of the coordinates,
        # so they stay below the radius there; from dim 2 on, the pairs
        # spread out so that no two of them come near each other
        p = rng.uniform(0, radius / 4 if dim == 1 else 200 * radius, size=dim)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        j = np.argmax(np.abs(u))
        q = p + radius * u
        for q[j] in q[j] + np.arange(-8, 9) * np.spacing(q[j]):
            d = np.linalg.norm(q - p)
            flip = (d <= radius) != (np.linalg.norm((q - p)[None], axis=1)[0] <= radius)
            if flip or (hits < pairs and d in targets):
                pts.append(np.stack([p, q]))
                hits += 1
                flipped += flip
                break
    assert hits >= pairs
    return np.concatenate(pts)


def clustered_cloud(rng, dim, radius):
    """Tight clusters, a chain of points 0.9 radius apart, points on the
    faces of the dedupe's bucket cells and on those of cells of side radius,
    and rows that differ only in the sign of a zero, shuffled."""
    width = radius * (1 + BUCKET_HAIR)
    centers = rng.uniform(-15 * radius, 15 * radius, size=(6, dim))
    clusters = centers[:, None] + rng.normal(scale=0.6 * radius, size=(6, 10, dim))
    chain = np.zeros((20, dim))
    chain[:, 0] = 0.9 * radius * np.arange(20)
    faces = rng.integers(-4, 5, size=(30, dim)) * np.where(
        rng.random((30, dim)) < 0.5, width, radius)
    signed = rng.uniform(-2 * radius, 2 * radius, size=(10, dim))
    signed[:, 0] = np.where(rng.random(10) < 0.5, -0.0, 0.0)
    flipped = signed.copy()
    flipped[:, 0] = -signed[:, 0]
    pts = np.concatenate([clusters.reshape(-1, dim), chain, faces, signed, flipped])
    return pts[rng.permutation(len(pts))]


class TestBucketedZeroSets:
    """The bucketed dedupe, nearest other zero and linkage against their
    all-pairs loop forms, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dedupe_equals_sweep(self, dim):
        rng = np.random.default_rng(100 + dim)
        radius = dg.DEDUPE_FACTOR * 0.1
        clouds = [clustered_cloud(rng, dim, radius) for _ in range(100)]
        clouds += [straddling_cloud(rng, dim, radius) for _ in range(2)]
        clouds += [np.zeros((1, dim)), np.full((3, dim), -0.0)]
        for cloud in clouds:
            got, want = dg.dedupe_points(cloud, radius), dedupe_sweep(cloud, radius)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert dg.dedupe_points(np.empty((0, dim)), radius).shape == (0, dim)

    def test_dedupe_keeps_the_first_signed_zero(self):
        # 0.0 and -0.0 sort as equal, so the earlier row is kept
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            got = dg.dedupe_points(np.array([[first, 1.0], [second, 1.0]]), 1e-3)
            assert got.tobytes() == np.array([[first, 1.0]]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nearest_other_equals_all_pairs(self, dim):
        rng = np.random.default_rng(200 + dim)
        for h in (0.01, 0.05, 0.2):
            for _ in range(20):
                # and a point far from the others
                cloud = np.concatenate([clustered_cloud(rng, dim, h / 3),
                                        np.full((1, dim), 30 * h)])
                want = nearest_other_all_pairs(cloud)
                want[~(want < h)] = np.inf
                got = dg._nearest_other(cloud, h)
                assert got.tobytes() == want.tobytes()
                assert np.isfinite(got).any() and np.isinf(got).any()
        lone = dg._nearest_other(np.ones((1, dim)), 0.1)
        assert lone.tolist() == [np.inf]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linkage_equals_pair_loop_on_cell_faces(self, dim):
        rng = np.random.default_rng(300 + dim)
        for radius in (0.01, 0.05):
            for _ in range(10):
                cloud = clustered_cloud(rng, dim, radius)
                assert dg._linkage_clusters(cloud, radius) == linkage_clusters(cloud, radius)


class TestBatchedHelpers:
    """The vectorized degree helpers against their loop forms, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dedupe_equals_greedy_loop(self, dim):
        radius = dg.DEDUPE_FACTOR * 0.1
        rng = np.random.default_rng(dim)
        for _ in range(3):
            cloud = straddling_cloud(rng, dim, radius)
            got = dg.dedupe_points(cloud, radius)
            want = greedy_dedupe(cloud, radius)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert len(want) < len(cloud)

    def test_fd_jacobian_equals_axis_loop(self):
        two_layers = [s for s in recursion(*catalog("s3_perm_radial").build(),
                                           Numerics(grid_h=0.1, bbox=2.0),
                                           tubes_only=True)
                      if not s.tube.is_empty][-1].parts.off_stratum
        assert len(two_layers.layers) == 2
        rng = np.random.default_rng(3)
        geos = [layer.geometry for layer in two_layers.layers]
        pts = np.concatenate([rng.uniform(-1.2, 1.2, size=(200, 3))]
                             + [g.sample_tube(100, rng) for g in geos])
        pts = pts[two_layers.member(pts)]
        assert all(np.any(g.in_open_tube(pts, g.decompose(pts))) for g in geos)
        fld, _ = poly_field("x1^3 - 3*x1*x2^2 + x3^4 + x1*x3", 3)
        for field in (two_layers, fld):
            got = nw.fd_jacobian(field, pts)
            assert got.tobytes() == axis_fd_jacobian(field, pts, nw.FD_STEP).tobytes()
        want = axis_fd_jacobian(two_layers, pts, nw.FD_STEP)
        want = 0.5 * (want + np.swapaxes(want, 1, 2))
        assert two_layers.hess(pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linkage_clusters_equal_pair_loop(self, dim):
        rng = np.random.default_rng(10 + dim)
        centers = rng.uniform(-1, 1, size=(6, dim))
        pts = np.concatenate([c + rng.normal(scale=0.05, size=(12, dim)) for c in centers])
        pts = pts[rng.permutation(len(pts))]
        for radius in (0.02, 0.1, 0.4):
            assert dg._linkage_clusters(pts, radius) == linkage_clusters(pts, radius)
        assert dg._linkage_clusters(pts[:1], 0.1) == [[0]]
        # a shuffled chain merges only through its neighbours, over many rings
        chain = np.zeros((40, dim))
        chain[:, 0] = np.where(np.arange(40) < 25, 0.1, 0.3) * np.arange(40)
        chain = chain[rng.permutation(40)]
        assert dg._linkage_clusters(chain, 0.15) == linkage_clusters(chain, 0.15)
        assert len(dg._linkage_clusters(chain, 0.15)) == 1 + 15

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_facets_equal_face_loop(self, dim):
        rng = np.random.default_rng(11 + dim)
        for step in (0.5, 0.125, 1 / 3):
            cells = cell_array({c for c in block(-3, 4, dim) if rng.random() < 0.6})
            got, want = dg.cell_facets(cells, step), cell_facets_loop(cells, step)
            assert len(got[0]) > 0
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        empty = dg.cell_facets(np.empty((0, dim), dtype=int), 0.5)
        assert [x.shape for x in empty] == [(0, dim), (0, dim), (0,), (0,)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_facets_equal_face_loop(self, dim, monkeypatch):
        seen = []
        monkeypatch.setattr(dg, "frontier_degree",
                            lambda field, facets, *args: seen.append(facets) or 0)
        rng = np.random.default_rng(20 + dim)
        lo, hi = rng.uniform(-2, -0.5, size=dim), rng.uniform(0.5, 2, size=dim)
        dg.kronecker_degree(None, lo, hi)
        want = box_facets_loop(lo, hi)
        assert [x.tobytes() for x in seen[0]] == [x.tobytes() for x in want]
        assert [x.shape for x in seen[0]] == [(2 * dim, dim)] * 2 + [(2 * dim,)] * 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_enclosure_queries_equal_cell_loops(self, dim):
        rng = np.random.default_rng(dim)
        fld = dg.FieldAdapter(lambda u: u, dim,
                              member=lambda u: np.linalg.norm(u, axis=1) > 0.3)
        region = dg.BoxRegion([-1.0] * dim, [1.0] * dim, 0.2)
        cluster = rng.uniform(-0.8, 0.8, size=(3, dim))
        for subdiv in (2, 4):
            for exclude in (None, rng.uniform(-0.8, 0.8, size=(4, dim))):
                enc = dg._Enclosure(region, fld, cluster, subdiv, exclude)
                assert len(enc.cells)
                assert enc.cells.tolist() == [list(c) for c in enclosure_cells_loop(
                    region, fld, cluster, subdiv, exclude)]
                pts = rng.uniform(-1.5, 1.5, size=(500, dim))
                assert np.array_equal(enc.contains(pts),
                                      cells_contain_loop(enc.cells, enc.step, pts))
                assert enc.ring_points().tobytes() == \
                    ring_points_loop(enc.cells, enc.step, dim).tobytes()

    def test_stratum_enclosure_equals_cell_loop(self):
        # the README D3 map's degenerate circle on its free stratum: the
        # enclosure grows inside a wedge between mirrors, up to the band
        # where the clearance from the singular set rejects cells
        g, om = gr.dihedral(3), dm.punctured_space()
        phi = pt.PolynomialPotential.from_expression(
            "(x1^2 + x2^2)^2 - x1^2 - x2^2", 2)
        num = Numerics(grid_h=0.1, bbox=2.0)
        step = [s for s in recursion(g, om, mp.make_map(g, dm.MapDomain(om, 2.0), phi),
                                     num) if s.label == "(e)"][0]
        rep = step.stratum.representative_component("q0")
        region = dg.GridRegion(step.stratum, rep)
        cluster = step.zeros[(step.zero_comp == rep.index) & (step.zero_index == 0)]
        assert len(cluster) > 1
        for subdiv in (2, 4):
            for exclude in (None, cluster[::3] + 0.02):
                enc = dg._Enclosure(region, step.restricted, cluster, subdiv, exclude)
                want = enclosure_cells_loop(region, step.restricted, cluster,
                                            subdiv, exclude)
                assert enc.cells.tolist() == [list(c) for c in want] != []
                # it reaches that band
                walls = step.stratum.singular.min_distance(
                    step.stratum.to_ambient(enc.centers()))
                assert walls.min() <= 1.5 * enc.step

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_row_norms_equal_numpy_norm(self, dim):
        # every combination of special values across the columns (100000
        # draws of them past dim 4), then rows spread over the whole
        # exponent range, as rows and as a (J, N, d) stack
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                   1.0, -3.0, 1e154, -1e154, 1e200, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(dim)
        combos = (np.array(list(itertools.product(special, repeat=dim))) if dim <= 4
                  else rng.choice(special, size=(100000, dim)))
        spread = rng.normal(size=(20000, dim)) * np.exp(rng.uniform(-700, 700, (20000, dim)))
        x = np.concatenate([combos, spread])
        stack = x[:len(x) // 4 * 4].reshape(4, -1, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for arr in (x, stack):
                assert row_norms(arr).tobytes() == np.linalg.norm(arr, axis=-1).tobytes()

    def test_fd_jacobian_makes_one_grad_call(self):
        rows = []

        def fn(u):
            rows.append(len(u))
            return np.sin(u) * u[:, ::-1]
        nw.fd_jacobian(dg.FieldAdapter(fn, 3), np.ones((7, 3)))
        assert rows == [2 * 3 * 7]

    def test_newton_steps_equal_rowwise_pinv(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 4):
            jac = rng.normal(size=(40, dim, dim))
            jac[::4, :, 0] = 0.0                          # rank deficient
            jac[1::4, -1] = 1e-9 * jac[1::4, 0]           # nearly so
            jac[2::8, 0, 0] = np.nan                      # not finite
            rhs = rng.normal(size=(40, dim))
            rhs[3::8, 0] = np.inf
            got = nw._solve_batched(jac, rhs)
            assert got.tobytes() == rowwise_newton_steps(jac, rhs).tobytes()
            assert np.all(got[2::8] == 0.0) and np.all(got[3::8] == 0.0)
            # a rank-deficient row takes the pinv step, nonzero from dim 2
            assert dim == 1 or np.all(np.any(got[::4] != 0.0, axis=1))
            # against LAPACK: the regular rows of the determinant rule as
            # LAPACK computes it have a small backward error, and the others
            # take the pinv step
            finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
            clean = np.where(finite[:, None, None], jac, 0.0)
            regular = finite & (np.abs(np.linalg.det(clean))
                                > 1e-12 * np.linalg.norm(clean, axis=(1, 2)) ** dim)
            assert regular.sum() >= 10 and (finite & ~regular).sum() >= 10
            norms = np.linalg.norm(jac[regular], axis=(1, 2))
            residual = np.linalg.norm(
                (jac[regular] @ got[regular][..., None])[..., 0] - rhs[regular], axis=1)
            assert np.all(residual <= 1e-12 * norms * np.linalg.norm(got[regular], axis=1))
            for i in np.flatnonzero(finite & ~regular):
                assert np.array_equal(got[i], np.linalg.pinv(jac[i], rcond=1e-10) @ rhs[i])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_newton_structure(self, dim, monkeypatch):
        # one cofactor solve per step, no LAPACK factorization; grad is
        # called once on the seeds, then per iteration once for the Jacobian
        # of the open rows, once for their full steps and at most once more
        # for all the halvings of the rows that step rejects: a full Newton
        # step on arctan overshoots, and from 3 off the root it takes two
        # halvings to lower the residual
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK factorization in a Newton step")
        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        calls = []
        target = np.array([0.3, -0.2, 0.1][:dim])

        def grad(u):
            calls.append(("g", len(u)))
            return np.concatenate([np.arctan(u[:, :1] - target[0]),
                                   u[:, 1:] - target[1:]], axis=1)

        def member(u):
            calls.append(("m", len(u)))
            return np.all(np.abs(u) < 1e6, axis=1)
        seeds = dg.BoxRegion([-3.0] * dim, [3.0] * dim, 0.5).seed_points()
        pts, stats = dg.newton_zeros(dg.FieldAdapter(grad, dim, member), seeds)
        assert stats["converged"] == len(seeds) and stats["stalled"] == 0
        assert np.all(np.linalg.norm(grad(pts), axis=1) <= 1e-9)
        kinds, prev = "", None
        for kind, rows in calls[:-1]:
            kinds += "J" if kind == "g" and prev != "m" else kind
            prev = kind
        assert re.fullmatch(r"mg(J(mg){1,2})+", kinds) and "Jmgmg" in kinds
        for i, (kind, rows) in enumerate(calls[2:-1], start=2):
            if kinds[i] == "J":
                assert rows == 2 * dim * calls[i + 1][1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_newton_equals_row_loop(self, dim):
        # u^3 - u - t has singular Jacobians on |u_i| = 3^-1/2, so steps
        # overshoot, halve, leave the domain, take pinv steps and stall
        target = np.array([0.3, -0.2, 0.1][:dim])
        fld = dg.FieldAdapter(lambda u: u * u * u - u - target, dim,
                              lambda u: np.all(np.abs(u) < 1.6, axis=1))
        seeds = dg.BoxRegion([-1.9] * dim, [1.9] * dim, 0.3).seed_points()
        pts, stats = dg.newton_zeros(fld, seeds)
        want = [newton_row_loop(fld, s, NEWTON_TOL) for s in seeds]
        kept = [i for i, (_, val, _) in enumerate(want) if val <= POLISH_TOL]
        assert stats["kept"].tolist() == kept and 0 < len(kept) < len(seeds)
        assert pts.tobytes() == np.array([want[i][0] for i in kept]).tobytes()
        assert stats["retired"] == 0 and not any(w[2] for w in want)

    @staticmethod
    def _assert_batch_equals_row_loop(fld, seeds):
        # each row is the loop's, in the whole batch and in either half
        pts, stats = dg.newton_zeros(fld, seeds)
        want = [newton_row_loop(fld, s, NEWTON_TOL) for s in seeds]
        kept = [i for i, (_, val, _) in enumerate(want) if val <= POLISH_TOL]
        assert stats["kept"].tolist() == kept and kept
        assert pts.tobytes() == np.array([want[i][0] for i in kept]).tobytes()
        half = len(seeds) // 2
        pa, sa = dg.newton_zeros(fld, seeds[:half])
        pb, sb = dg.newton_zeros(fld, seeds[half:])
        assert np.concatenate([pa, pb]).tobytes() == pts.tobytes()
        for key in ("seeds", "converged", "stalled", "retired", "accelerated"):
            assert stats[key] == sa[key] + sb[key]
        return stats

    def test_triple_root_takes_multiplicity_steps(self):
        # u0^3 has a triple root: plain Newton shrinks u0 by 2/3 a step and
        # needs 19 steps from u0 = 0.8; the multiplicity step of factor
        # 1 / (1 - 2/3) = 3 lands on the root
        fld = dg.FieldAdapter(
            lambda u: np.stack([u[:, 0] ** 3, u[:, 1] - 0.2, u[:, 2] + 0.1], axis=1), 3)
        seeds = dg.BoxRegion([-1.0] * 3, [1.0] * 3, 0.4).seed_points()
        stats = self._assert_batch_equals_row_loop(fld, seeds)
        assert stats["converged"] == len(seeds) and stats["stalled"] == 0
        assert stats["accelerated"] == np.sum(seeds[:, 0] != 0) > 0
        # a Jacobian is one batch of probes through grad, the grad call that
        # follows another grad call with no member call between: 2 k n rows
        # for the n rows whose full steps are tried next
        calls = []
        counted = dg.FieldAdapter(
            lambda u: calls.append(("g", len(u))) or fld.grad(u), 3,
            lambda u: calls.append(("m", len(u))) or np.ones(len(u), dtype=bool))
        dg.newton_zeros(counted, seeds)
        probes = [i for i in range(1, len(calls)) if calls[i - 1][0] == calls[i][0] == "g"]
        assert all(calls[i][1] == 2 * 3 * calls[i + 1][1] for i in probes)
        assert 1 <= len(probes) <= 12

    @staticmethod
    def _assert_rows_and_counts_equal_row_loop(fld, seeds):
        # each row, and every count of the stats, is the row loop's
        pts, stats = nw.newton_zeros(fld, seeds)
        infos = [{} for _ in seeds]
        want = [newton_row_loop(fld, s, NEWTON_TOL, info=info)
                for s, info in zip(seeds, infos)]
        good = [val <= POLISH_TOL and not retired for _, val, retired in want]
        assert stats["kept"].tolist() == np.flatnonzero(good).tolist()
        assert pts.tobytes() == np.array([w[0] for w, g in zip(want, good) if g]).tobytes()
        assert {key: stats[key] for key in stats if key != "kept"} == {
            "seeds": len(seeds), "converged": sum(good),
            "stalled": sum(info["stalled"] and not g for info, g in zip(infos, good)),
            "retired": sum(w[2] for w in want),
            "accelerated": sum(info["accelerated"] for info in infos)}
        return stats

    def test_confined_cubic_slice_equals_row_loop(self):
        # box_degree's slowest field, draw 5: every 32nd seed of its grid,
        # where rows stall and take multiplicity steps, and seed 2939, whose
        # row crawls on damped steps at a steady residual ratio; each row,
        # and every count of the stats, is the row loop's
        fld = dg.FieldAdapter(_random_confined(np.random.default_rng(427205), 3).grad, 3)
        grid = dg.BoxRegion([-2.0] * 3, [2.0] * 3, 0.25).seed_points()
        assert grid[2939].tolist() == [0.875, -0.125, 0.875]
        seeds = np.concatenate([grid[::32], grid[2939:2940]])
        stats = self._assert_rows_and_counts_equal_row_loop(fld, seeds)
        assert stats["stalled"] > 0 and stats["accelerated"] > 0

    def test_confined_cubic_grid_equals_quarters_and_row_loop(self):
        # the same field on its whole 4,096-seed grid, the batch size at
        # which the Newton workspace is largest: the batch is its four
        # quarters run alone, byte for byte, and every 128th row and row
        # 2939 are the row loop's
        fld = dg.FieldAdapter(_random_confined(np.random.default_rng(427205), 3).grad, 3)
        seeds = dg.BoxRegion([-2.0] * 3, [2.0] * 3, 0.25).seed_points()
        assert len(seeds) == 4096
        pts, stats = nw.newton_zeros(fld, seeds)
        quarters = [nw.newton_zeros(fld, part) for part in np.split(seeds, 4)]
        assert np.concatenate([p for p, _ in quarters]).tobytes() == pts.tobytes()
        assert np.concatenate([s["kept"] + 1024 * i for i, (_, s) in enumerate(quarters)]
                              ).tobytes() == stats["kept"].tobytes()
        for key in ("seeds", "converged", "stalled", "retired", "accelerated"):
            assert stats[key] == sum(s[key] for _, s in quarters)
        assert stats["stalled"] > 0 and stats["accelerated"] > 0
        rows = dict(zip(stats["kept"].tolist(), pts))
        sample = [*range(0, 4096, 128), 2939]
        for i in sample:
            point, val, retired = newton_row_loop(fld, seeds[i], NEWTON_TOL)
            assert (i in rows) == (val <= POLISH_TOL and not retired)
            assert i not in rows or rows[i].tobytes() == point.tobytes()
        assert 0 < sum(i in rows for i in sample) < len(sample)

    def test_fd_jacobians_do_not_alias(self):
        # outside Newton every call returns a fresh stack
        fld, _ = poly_field("x1^3 - 3*x1*x2^2 + x3^4 + x1*x3", 3)
        rng = np.random.default_rng(5)
        first = nw.fd_jacobian(fld, rng.normal(size=(50, 3)))
        want = first.copy()
        second = nw.fd_jacobian(fld, rng.normal(size=(50, 3)))
        assert first.tobytes() == want.tobytes() != second.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_newton_on_a_grad_that_views_its_argument(self, dim):
        # grad hands back a view of the probes, then of the trial points,
        # in the workspace: the Jacobian stack is written over the probes
        # it reads.  Without the ball every row converges; the ball around
        # the zero rejects full steps, and rows crawl on halvings and stall
        def grad(u):
            out = u[:, ::-1]
            assert len(u) == 0 or np.shares_memory(out, u)
            return out
        seeds = dg.BoxRegion([-1.9] * dim, [1.9] * dim, 0.5).seed_points()
        plain = self._assert_rows_and_counts_equal_row_loop(dg.FieldAdapter(grad, dim), seeds)
        assert plain["converged"] == len(seeds)
        holed = self._assert_rows_and_counts_equal_row_loop(
            dg.FieldAdapter(grad, dim, lambda u: row_norms(u) > 0.05), seeds)
        assert holed["converged"] == 0 and holed["stalled"] == len(seeds)

    def test_multiplicity_step_loses_no_zero(self, monkeypatch):
        # rows of this confined cubic end in crawls of damped steps at a
        # steady residual ratio near 0.97; a multiplicity step there would
        # lie beyond every halving the line search tries and stall the row
        fld = dg.FieldAdapter(_random_confined(np.random.default_rng(427205), 3).grad, 3)
        seeds = dg.BoxRegion([-2.0] * 3, [2.0] * 3, 0.25).seed_points()
        stats = dg.newton_zeros(fld, seeds)[1]
        monkeypatch.setattr(nw, "TAIL_RESIDUAL", 0.0)
        plain = dg.newton_zeros(fld, seeds)[1]
        assert stats["accelerated"] > 0 and plain["accelerated"] == 0
        assert set(plain["kept"].tolist()) <= set(stats["kept"].tolist())
        assert stats["stalled"] <= plain["stalled"]

    def test_line_search_with_rejected_halvings(self):
        # thin slabs cut out of the domain reject some halvings of a step
        # and accept a later one
        target = np.array([0.3, -0.2])
        seen = []

        def member(u):
            ok = np.all(np.abs(u) < 1.6, axis=1) & (np.abs(np.sin(9 * u[:, 0])) > 0.3)
            seen.append(int(np.sum(~ok)))
            return ok
        fld = dg.FieldAdapter(lambda u: u * u * u - u - target, 2, member)
        seeds = dg.BoxRegion([-1.9] * 2, [1.9] * 2, 0.2).seed_points()
        stats = dg.newton_zeros(fld, seeds)[1]
        assert sum(seen[1:]) > 0 and stats["stalled"] > 0
        self._assert_batch_equals_row_loop(fld, seeds)

    def test_stratum_newton_equals_row_loop(self):
        # the free stratum of the README D3 map: rows that run onto a mirror
        # converge at a steady residual ratio and retire, the others polish;
        # each row is the loop's, alone or in either half of the batch
        g, om = gr.dihedral(3), dm.punctured_space()
        phi = pt.PolynomialPotential.from_expression(
            "(x1^2 + x2^2)^2 - x1^2 - x2^2", 2)
        num = Numerics(grid_h=0.1, bbox=2.0)
        step = [s for s in recursion(g, om, mp.make_map(g, dm.MapDomain(om, 2.0), phi),
                                     num) if s.label == "(e)"][0]
        fld, margin, stratum = step.restricted, step.margin, step.stratum
        seeds = np.concatenate([stratum.representative_component(q).centers
                                for q in stratum.quotient_labels()])
        seeds = seeds[fld.member(seeds)]
        pts, stats = dg.newton_zeros(fld, seeds, margin)
        want = [newton_row_loop(fld, s, NEWTON_TOL, margin) for s in seeds]
        kept = [i for i, (_, val, retired) in enumerate(want)
                if val <= POLISH_TOL and not retired]
        assert stats["kept"].tolist() == kept and kept
        assert stats["retired"] == sum(w[2] for w in want) > 0
        assert pts.tobytes() == np.array([want[i][0] for i in kept]).tobytes()
        half = len(seeds) // 2
        pa, sa = dg.newton_zeros(fld, seeds[:half], margin)
        pb, sb = dg.newton_zeros(fld, seeds[half:], margin)
        assert np.concatenate([pa, pb]).tobytes() == pts.tobytes()
        assert np.array_equal(stats["kept"], np.concatenate([sa["kept"], sb["kept"] + half]))
        for key in ("seeds", "converged", "stalled", "retired"):
            assert stats[key] == sa[key] + sb[key]

    def test_det_equals_lapack(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3, 4):
            jac = rng.normal(size=(50, dim, dim))
            assert np.allclose(nw._det(jac), np.linalg.det(jac), rtol=1e-12, atol=0)


class TestKronecker:
    def test_identity_2d(self):
        fld = dg.FieldAdapter(lambda u: u, 2)
        assert dg.kronecker_degree(fld, [-1, -1], [1, 1]) == 1

    @pytest.mark.parametrize("dim,expected", [(1, -1), (2, 1), (3, -1)])
    def test_antipodal_field(self, dim, expected):
        fld = dg.FieldAdapter(lambda u: -u, dim)
        assert dg.kronecker_degree(fld, [-1] * dim, [1] * dim) == expected

    @pytest.mark.parametrize("region", ["box", "notch"])
    @pytest.mark.parametrize(
        "k,conj", [pytest.param(k, conj, id=f"{'conj' if conj else 'z'}{k}")
                   for conj in (False, True) for k in range(1, 7)])
    def test_winding_two(self, k, conj, region):
        # (z - c)^k winds k times around its zero c and conj(z - c)^k -k
        # times, on a box and on a cell union with its corner cut out
        c = np.array([0.23, -0.17]) if region == "box" else np.array([0.73, 0.81])

        def power(u):
            z = (u[:, 0] - c[0]) + 1j * (u[:, 1] - c[1])
            w = (np.conj(z) if conj else z) ** k
            return np.stack([w.real, w.imag], axis=1)
        fld = dg.FieldAdapter(power, 2)
        if region == "box":
            got = dg.kronecker_degree(fld, [-1, -1], [1, 1])
        else:
            got = cell_union_degree(fld, block(0, 4, 2) - {(3, 3)})
        assert got == (-k if conj else k)

    def test_margin_guard(self):
        fld = dg.FieldAdapter(lambda u: u, 2)
        with pytest.raises(MarginTooSmall):
            dg.kronecker_degree(fld, [0.0, -1.0], [1.0, 1.0])

    def test_dim_guard(self):
        fld = dg.FieldAdapter(lambda u: u, 4)
        with pytest.raises(DimensionUnsupported):
            dg.kronecker_degree(fld, [-1] * 4, [1] * 4)


def block(lo, hi, dim):
    """Cells of the grid block [lo, hi)^dim."""
    return set(itertools.product(range(lo, hi), repeat=dim))


def cell_array(cells):
    """A set of cell tuples as the lexicographically sorted cell array."""
    return np.array(sorted(cells), dtype=int)


def two_root_field(a, b):
    """A field with two simple zeros a, b, each of degree +1.

    In dim 1 it is the cubic through a, (a+b)/2 and b; from dim 2 on the
    complex product (z - a)(z - b) in the first two coordinates, with a and
    b equal in the others.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    dim = len(a)

    def fn(u):
        if dim == 1:
            x = u[:, :1]
            return (x - a[0]) * (x - (a[0] + b[0]) / 2) * (x - b[0])
        z = u[:, 0] + 1j * u[:, 1]
        w = (z - complex(a[0], a[1])) * (z - complex(b[0], b[1]))
        return np.column_stack([w.real, w.imag, u[:, 2:] - a[2:]])
    return dg.FieldAdapter(fn, dim)


def cell_union_degree(fld, cells, step=0.5):
    return dg.frontier_degree(fld, dg.cell_facets(cell_array(cells), step),
                              dg.ENCLOSURE_RESOLUTION, 1e-12)


class TestFrontierDegree:
    """The one boundary integrator on cell unions with known degrees."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_l_shape(self, dim):
        # the cells of [0, 3)^dim with at most one nonzero coordinate: an
        # interval, an L, a three-armed corner
        cells = {c for c in block(0, 3, dim) if sum(map(bool, c)) <= 1}
        inside = np.array([2.3, 0.2, 0.3][:dim]) * 0.5
        notch = np.array([3.5] if dim == 1 else [1.5, 1.5, 0.5][:dim]) * 0.5
        for c, expected in ((inside, 1), (notch, 0)):
            fld = dg.FieldAdapter(lambda u, c=c: u - c, dim)
            assert cell_union_degree(fld, cells) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_two_disjoint_blocks(self, dim):
        # [0, 1]^dim and its copy shifted by 2 along the first axis; in dim 1
        # the cubic's index -1 zero lies in the gap between them
        first = block(0, 2, dim)
        second = {(c[0] + 4,) + c[1:] for c in first}
        a = [0.6, 0.45, 0.55][:dim]
        b = [2.4, 0.45, 0.55][:dim]
        fld = two_root_field(a, b)
        assert cell_union_degree(fld, first | second) == 2
        assert cell_union_degree(fld, second) == 1

    def test_ring_around_hole(self):
        cells = block(0, 5, 2) - block(1, 4, 2)
        for c, expected in (([1.25, 1.25], 0), ([0.2, 1.15], 1)):
            fld = dg.FieldAdapter(lambda u, c=np.array(c): u - c, 2)
            assert cell_union_degree(fld, cells) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_equals_cell_union(self, dim):
        c = np.array([0.7, 1.3, 0.9][:dim])
        fields = [(dg.FieldAdapter(lambda u: c - u, dim), (-1) ** dim),
                  (two_root_field([0.6, 0.45, 0.55][:dim],
                                  [1.4, 0.45, 0.55][:dim]),
                   1 if dim == 1 else 2)]   # the cubic's index -1 zero is in
        for fld, expected in fields:
            assert dg.kronecker_degree(fld, [0.0] * dim, [2.0] * dim) == \
                cell_union_degree(fld, block(0, 4, dim)) == expected

    @pytest.mark.xfail(strict=True, reason="dim-3 solid angles of unit facets "
                       "always sum to a multiple of 4 pi, so a coarse "
                       "triangulation passes the integrality test (ROADMAP item 5)")
    def test_l_shape_twisted_field(self):
        # R_z(12 u_3)(u - c) has one zero c of degree 1 in the L; the
        # triangulation at ENCLOSURE_RESOLUTION misses its twist and gives 0,
        # 4 per side gives 1
        cells = {c for c in block(0, 3, 3) if sum(map(bool, c)) <= 1}
        c = np.array([0.2, 0.15, 0.1])

        def fn(u):
            v, t = u - c, 12 * u[:, 2]
            return np.column_stack([np.cos(t) * v[:, 0] - np.sin(t) * v[:, 1],
                                    np.sin(t) * v[:, 0] + np.cos(t) * v[:, 1],
                                    v[:, 2]])
        assert cell_union_degree(dg.FieldAdapter(fn, 3), cells) == 1

    def test_refinement_stays_on_the_bad_side(self):
        # the zero (1/3, -1) sits on the bottom side, so its angle step stays
        # pi there at every resolution; only that side may be refined
        rows = []

        def fn(u):
            rows.append(len(u))
            return np.column_stack([u[:, 0] - 1 / 3, u[:, 1] + 1])
        with pytest.raises(RefinementOverflow):
            dg.kronecker_degree(dg.FieldAdapter(fn, 2), [-1, -1], [1, 1])
        assert sum(rows) <= 200

    def test_one_grad_call_per_round_in_dim_3(self):
        # the unit facets of a cell union close up, so their solid angles sum
        # to a whole number at the first round; a box whose top face is cut
        # in quarters leaves cracks along that face, and zeros just under it
        # take a second round
        def select(facets, keep):
            return tuple(x[keep] for x in facets)

        def top_face(facets):
            return (facets[2] == 2) & (facets[3] == 1)
        unit = dg.cell_facets(cell_array(block(0, 1, 3)), 1.0)
        top = dg.cell_facets(cell_array(block(0, 2, 3)), 0.5)
        quartered = tuple(np.concatenate([a, b]) for a, b in zip(
            select(unit, ~top_face(unit)), select(top, top_face(top))))
        l_shape = dg.cell_facets(cell_array({c for c in block(0, 3, 3)
                                             if sum(map(bool, c)) <= 1}), 0.5)
        base = two_root_field([0.25, 0.98, 0.99], [0.8, 0.4, 0.99])
        n = dg.ENCLOSURE_RESOLUTION[3][0]
        for facets, expected, rounds in ((l_shape, 0, 1), (quartered, 2, 2)):
            rows = []

            def fn(u):
                rows.append(len(u))
                return base.grad(u)
            assert dg.frontier_degree(dg.FieldAdapter(fn, 3), facets,
                                      dg.ENCLOSURE_RESOLUTION, 1e-12) == expected
            assert rows == [len(facets[0]) * (n * 2 ** r + 1) ** 2
                            for r in range(rounds)]


def frontier_outcome(fn, facets, margin, resolution=dg.BOX_RESOLUTION):
    """(degree or error class, every walked row, walk count) of the dim-2
    frontier degree with look-ahead."""
    walks = []

    def grad(u):
        walks.append(u.copy())
        return fn(u)
    try:
        out = dg.frontier_degree(dg.FieldAdapter(grad, 2), facets, resolution, margin)
    except (MarginTooSmall, RefinementOverflow) as exc:
        out = type(exc)
    return out, np.concatenate(walks), len(walks)


def one_level_outcome(fn, facets, margin, resolution=dg.BOX_RESOLUTION):
    sampled = []
    try:
        out = winding_one_level(fn, facets, *resolution[2], margin, sampled)
    except ValueError as exc:
        out = {"margin": MarginTooSmall, "rounds": RefinementOverflow}[str(exc)]
    return out, np.concatenate(sampled), len(sampled)


def row_set(rows):
    return {r.tobytes() for r in np.ascontiguousarray(rows)}


class TestFrontierLookahead:
    """The dim-2 frontier walks four bisection levels ahead once an interval
    stays bad after its first halving; the rounds read the walked samples
    as the one-level rounds would take them."""

    FIELDS = {
        # a zero on the bottom side: the same side stays bad to the last round
        "bad_side": lambda u: np.column_stack([u[:, 0] - 1 / 3, u[:, 1] + 1]),
        # zeros just inside the sides, resolved after a few rounds
        "near_side": lambda u: u - np.array([1 / 3, -1 + 0.02]),
        "nearer_side": lambda u: u - np.array([1 / 3, -1 + 1e-4]),
        "near_corner": lambda u: np.column_stack([
            (u[:, 0] - 0.999) * (u[:, 0] + 0.3) - u[:, 1] ** 2,
            u[:, 1] - 0.998 + 0.01 * u[:, 0]]),
        "outside": lambda u: u - np.array([1.01, 0.2]),
        # a zero on a sample of the first round and on a midpoint of round 4
        "on_sample": lambda u: u - np.array([-1.0, -1 + 2 * 5 / 32]),
        "on_midpoint": lambda u: u - np.array([-1 + 2 * 11 / 256, -1.0]),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("margin", [1e-12, 1e-3])
    def test_equals_one_level_rounds(self, name, margin):
        fn = self.FIELDS[name]
        for resolution in (dg.BOX_RESOLUTION, dg.ENCLOSURE_RESOLUTION):
            for lo, hi in (([-1, -1], [1, 1]), ([-1, -1], [1, 0.5])):
                facets = box_facets_loop(lo, hi)
                got, walked, walks = frontier_outcome(fn, facets, margin, resolution)
                want, sampled, rounds = one_level_outcome(fn, facets, margin, resolution)
                assert got == want
                assert row_set(sampled) <= row_set(walked)
                assert walks <= rounds

    def test_walks_four_levels_ahead(self):
        facets = box_facets_loop([-1, -1], [1, 1])
        got, walked, walks = frontier_outcome(self.FIELDS["bad_side"], facets, 1e-12)
        # 4 x 33 samples, one midpoint at round 1, then 15 at rounds 2 and 6
        assert got is RefinementOverflow and walks == 4 and len(walked) == 132 + 1 + 15 + 15

    def test_unread_sample_below_margin_is_not_an_error(self):
        # plant a zero of the field on one walked-ahead sample that no round
        # reads; the outcome stays that of the one-level rounds
        facets = box_facets_loop([-1, -1], [1, 1])
        base = self.FIELDS["near_side"]
        _, walked, _ = frontier_outcome(base, facets, 1e-12)
        _, sampled, _ = one_level_outcome(base, facets, 1e-12)
        unread = [r for r in walked if r.tobytes() not in row_set(sampled)]
        assert unread
        planted = unread[len(unread) // 2]

        def fn(u):
            out = base(u)
            out[np.all(u == planted, axis=1)] = 0.0
            return out
        want = one_level_outcome(fn, facets, 1e-12)[0]
        assert want == one_level_outcome(base, facets, 1e-12)[0] == 1
        assert frontier_outcome(fn, facets, 1e-12)[0] == want


def random_confined_potential(rng, dim, degree=3):
    """Random polynomial plus a quartic confinement, zeros pulled inward."""
    terms = {}
    for _ in range(2 * dim + 3):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=dim))
        if sum(exps) > degree:
            continue
        terms[exps] = terms.get(exps, 0.0) + float(rng.normal() * 0.8)
    conf = {}
    for j in range(dim):
        e = [0] * dim
        e[j] = 4
        conf[tuple(e)] = 1.0
    return pt.PolynomialPotential(pt.poly_add(terms, conf), dim)


def cross_oracle_instances(dim, count, base_seed=424200, grid_h=0.25):
    """Deterministic sequence of seeded fields with certified simple zeros."""
    num = Numerics(grid_h=grid_h, bbox=2.0)
    region = dg.BoxRegion([-2.0] * dim, [2.0] * dim, grid_h)
    out = []
    attempt = 0
    while len(out) < count and attempt < 30 * count:
        rng = np.random.default_rng(base_seed + 1000 * dim + attempt)
        attempt += 1
        p = random_confined_potential(rng, dim)
        fld = dg.FieldAdapter(lambda u, p=p: p.grad(u), dim)
        recs = dg.find_zeros(fld, region, num)
        if not recs or any(r.degenerate for r in recs):
            continue
        pts = np.array([r.point for r in recs])
        if np.max(np.abs(pts)) > 1.5:
            continue
        out.append((fld, recs))
    return out, region


class TestCrossOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_morse_sum_equals_boundary_degree(self, dim):
        instances, region = cross_oracle_instances(dim, 5)
        assert len(instances) == 5
        for fld, recs in instances:
            morse = sum(r.index for r in recs)
            boundary = dg.kronecker_degree(fld, region.lo, region.hi)
            assert morse == boundary


class TestIntersectionNumber:
    def test_degenerate_flat_in_1d(self):
        # increasing through a degenerate flat: boundary signs (+, +) give 0
        fld, _ = poly_field("0.25*x1^4", 1)  # gradient x^3, degenerate at 0
        region = dg.BoxRegion([-1.0], [1.0], 0.1)
        recs = dg.find_zeros(fld, region, NUM)
        assert any(r.degenerate for r in recs) or recs == []
        sq = dg.FieldAdapter(lambda u: u[:, :1] ** 2, 1)
        recs2 = dg.find_zeros(sq, region, NUM)
        assert dg.intersection_number(sq, region, NUM, records=recs2) == 0

    def test_saddle(self):
        fld, _ = poly_field("x1^2 - x2^2", 2)
        region = dg.BoxRegion([-1, -1], [1, 1], 0.1)
        assert dg.intersection_number(fld, region,
                                      Numerics(grid_h=0.1, bbox=2.0)) == -1

    def test_mexican_hat_plus_one(self):
        fld, _ = poly_field("0.25*(x1^2+x2^2)^2 - 0.5*(x1^2+x2^2)", 2)
        region = dg.BoxRegion([-2, -2], [2, 2], 0.15)
        assert dg.intersection_number(fld, region, NUM) == 1

    def test_zero_free_field_zero(self):
        fld = dg.FieldAdapter(lambda u: u + np.array([3.0, 0.0]), 2)
        region = dg.BoxRegion([-1, -1], [1, 1], 0.2)
        assert dg.intersection_number(fld, region, NUM) == 0

    def test_degenerate_ring_against_winding_oracle(self):
        p = pt.PolynomialPotential.from_expression(
            "0.25*(x1^2+x2^2)^2 - 0.5*(x1^2+x2^2)", 2)
        ours = dg.intersection_number(
            dg.FieldAdapter(lambda u: p.grad(u), 2),
            dg.BoxRegion([-2, -2], [2, 2], 0.15), NUM)
        oracle = round(circle_winding(lambda u: p.grad(u), 1.9))
        assert ours == oracle == 1


class TestTiltPath:
    def test_deterministic_directions_distinct(self):
        u1, u2 = dg._deterministic_directions(1)
        assert u1[0] == 1.0 and u2[0] == -1.0
        v1, v2 = dg._deterministic_directions(3)
        assert abs(float(v1 @ v2)) < 0.99
        w1, w2 = dg._deterministic_directions(3)
        assert np.array_equal(v1, w1) and np.array_equal(v2, w2)
        # the first two normal draws of the fixed key, each normalized
        rng = np.random.default_rng(np.random.Philox(key=20240601))
        for got in (v1, v2):
            u = rng.normal(size=3)
            assert np.array_equal(got, u / np.linalg.norm(u))

    def test_enclosure_tilt_resolves_flat_ring(self):
        # force the tilt route by running it directly on the mexican hat ring
        p = pt.PolynomialPotential.from_expression(
            "0.25*(x1^2+x2^2)^2 - 0.5*(x1^2+x2^2)", 2)
        fld = dg.FieldAdapter(lambda u: p.grad(u), 2)
        region = dg.BoxRegion([-2, -2], [2, 2], 0.15)
        recs = dg.find_zeros(fld, region, NUM)
        ring_pts = np.array([r.point for r in recs if r.degenerate])
        center_pts = np.array([r.point for r in recs if not r.degenerate])
        enc = dg._Enclosure(region, fld, ring_pts, exclude_pts=center_pts)
        count = dg._enclosure_tilt(fld, region, enc, ring_pts)
        assert count == 0  # the ring carries no degree


class TestDegenerateClusters:
    """Every cluster route on a single degenerate zero of known degree."""

    @pytest.mark.parametrize("expr,dim,h,expected", [
        ("0.25*x1^4 + 0.5*x2^2 + 0.5*x3^2", 3, 0.25, 1),
        ("x1^3 - 3*x1*x2^2 + 0.5*x3^2", 3, 0.25, -2),
        ("x1^3 - 3*x1*x2^2", 2, 0.15, -2),
        ("0.5*x1^3 + 0.5*x2^2", 2, 0.15, 0),
    ])
    def test_routes_agree(self, expr, dim, h, expected):
        fld, _ = poly_field(expr, dim)
        num = Numerics(grid_h=h, bbox=1.0)
        region = dg.BoxRegion([-1.0] * dim, [1.0] * dim, h)
        recs = dg.find_zeros(fld, region, num)
        assert [r.degenerate for r in recs] == [True]
        pts = np.array([r.point for r in recs])
        enc = dg._Enclosure(region, fld, pts)
        assert dg.intersection_number(fld, region, num, records=recs) == \
            dg._enclosure_tilt(fld, region, enc, pts) == \
            dg.kronecker_degree(fld, region.lo, region.hi) == expected


def _rep_zeros(fld, stratum, qlabel="q0"):
    """The ``(points, index)`` of the zeros on a quotient component's
    representative, found as ``find_zeros`` finds them."""
    region = dg.GridRegion(stratum, stratum.representative_component(qlabel))
    pts, _ = nw.newton_zeros(fld, region.seed_points(), region.h)
    return dg.classify_zeros(fld, region, pts)


class TestQuotient:
    def test_antipodal_doublewell_quotient(self):
        g = gr.antipodal(2)
        om = dm.full_space()
        f = mp.make_map(g, dm.MapDomain(om, 2.0),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2-1)^2 + x2^2", 2))
        num = Numerics(grid_h=0.1, bbox=2.0)
        lat = iso_types(g, om, num.grid_h, num.bbox)
        free = lat.class_ids[-1]
        stratum = build_stratum(g, om, free, num.grid_h, num.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        value = dg.quotient_intersection(fld, stratum, "q0", _rep_zeros(fld, stratum))
        assert value == 1  # two index-one zeros over a stabilizer of order 2

    def test_orbit_counting_oracle_agrees(self):
        g = gr.antipodal(2)
        om = dm.full_space()
        f = mp.make_map(g, dm.MapDomain(om, 2.0),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2-1)^2 + x2^2", 2))
        num = Numerics(grid_h=0.1, bbox=2.0)
        lat = iso_types(g, om, num.grid_h, num.bbox)
        stratum = build_stratum(g, om, lat.class_ids[-1], num.grid_h, num.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        region = dg.GridRegion(stratum, stratum.components[0])
        recs = dg.find_zeros(fld, region, num)
        weyl = [stratum.basis.T @ g.elements[w] @ stratum.basis
                for w in stratum.record.weyl_coset_reps]
        total, sizes = quotient_orbit_count(
            np.array([r.point for r in recs]),
            [r.index for r in recs], weyl)
        assert sizes == {2}
        assert total == dg.quotient_intersection(fld, stratum, "q0", _rep_zeros(fld, stratum))

    def test_empty_zero_set_quotient(self):
        g = gr.antipodal(1)
        om = dm.full_space()
        f = mp.make_map(g, dm.MapDomain(dm.annulus(0.5, 1.8), 2.0),
                        pt.PolynomialPotential.from_expression(
                            "0.5*x1^2", 1))
        num = Numerics(grid_h=0.1, bbox=2.0)
        lat = iso_types(g, om, num.grid_h, num.bbox)
        stratum = build_stratum(g, om, lat.class_ids[-1], num.grid_h, num.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        assert dg.quotient_intersection(fld, stratum, "q0", _rep_zeros(fld, stratum)) == 0


class TestOrbitConsistency:
    def test_orbit_mates_share_index(self):
        g = gr.dihedral(3)
        om = dm.punctured_space()
        f = mp.make_map(g, dm.MapDomain(om, 2.0),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2+x2^2)^2 - x1^2 - x2^2", 2))
        num = Numerics(grid_h=0.1, bbox=2.0)
        lat = iso_types(g, om, num.grid_h, num.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], num.grid_h, num.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        by_comp = {}
        for comp in stratum.components:
            recs = dg.find_zeros(fld, dg.GridRegion(stratum, comp), num)
            by_comp[comp.index] = recs
        indices = {i: sorted(r.index for r in recs)
                   for i, recs in by_comp.items()}
        vals = list(indices.values())
        assert all(v == vals[0] for v in vals)
        assert vals[0] == [1]  # radius-sqrt(1/2) minimum on each half axis
