"""Perturbation machinery tests: profiles, tube selection, splits, regions."""
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (bump_mu, bump_mu_deriv, homotopy_coeffs, layer_walk_grad,
                     map_domain_boundary_loop,
                     map_domain_contains_loop, orbit_closure_loop, sample_base_loop,
                     sample_shell_loop, sample_tube_loop, subspace_decompose_loop,
                     subspace_distances_loop, subspace_project_loop,
                     tube_decompose_loop, well_omega, well_omega_deriv)

from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import potentials as pt
from egdeg import tubes
from egdeg.degree import GridRegion, find_zeros
from egdeg.errors import OutOfRange
from egdeg.factory import catalog, orbit_normal
from egdeg.params import Numerics
from egdeg.perturb import _orbit_closure, perturb, select_tube, split, verify_partition
from egdeg.profiles import MU_KINDS, PerturbationLayer, bump, well
from egdeg.strata import build_stratum, iso_types
from egdeg.theta import recursion
from egdeg.tubes import _CHUNK_CELLS, SubspaceFamily, TubeGeometry

NUM = Numerics(grid_h=0.1, bbox=2.0)


class TestProfiles:
    def test_well_values(self):
        eps = 0.3
        assert well(0.0, eps)[0] == pytest.approx(-eps ** 2 / 9)
        assert well(eps / 3, eps)[0] == pytest.approx(-eps ** 2 / 18)
        # both branch formulas agree at the junction
        assert 0.5 * (eps / 3) ** 2 - eps ** 2 / 9 == pytest.approx(
            -0.5 * (eps / 3 - 2 * eps / 3) ** 2)
        assert well(2 * eps / 3, eps)[0] == 0.0
        assert well(0.9 * eps, eps)[0] == 0.0
        assert well(eps, eps)[0] == 0.0

    def test_bump_values(self):
        eps = 0.3
        assert bump(2 * eps / 3, eps)[0] == 0.0
        assert bump(eps, eps)[0] == pytest.approx(1.0)
        assert bump(5 * eps / 6, eps)[0] == pytest.approx(0.5)
        assert bump(5 * eps / 6, eps, "quintic")[0] == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            well(0.4, 0.3)
        with pytest.raises(OutOfRange):
            bump(-0.1, 0.3)
        with pytest.raises(OutOfRange):
            bump(0.1, 0.3, "septic")

    @given(st.floats(0.0, 1.0), st.floats(0.05, 2.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_well_derivative_nonnegative_inside(self, frac, eps):
        s = frac * eps
        d = well(s, eps)[1]
        assert d >= 0.0
        if s >= 2 * eps / 3:
            assert d == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.05, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_retraction_family_contracts(self, frac, eps, t):
        s = frac * eps
        for kind in ("cubic", "quintic"):
            mu_t = t * bump(s, eps, kind)[0] + 1 - t
            assert -1e-12 <= mu_t <= 1 + 1e-12
            assert mu_t * s <= s + 1e-12
            # the homotopy's retraction factor at time t/2
            layer = PerturbationLayer(_line_geometry([[0.0, 0.0, 0.0]], eps=eps), kind)
            assert -1e-12 <= layer.coeffs(s, t / 2)[0] <= 1 + 1e-12

    def test_c1_junctions(self):
        eps = 0.3
        for s0 in (eps / 3, 2 * eps / 3):
            left = well(s0 - 1e-9, eps)[1]
            right = well(s0 + 1e-9, eps)[1]
            assert left == pytest.approx(right, abs=1e-8)
        for kind in ("cubic", "quintic"):
            assert bump(2 * eps / 3 + 1e-9, eps, kind)[1] == pytest.approx(
                0.0, abs=1e-6)

    def test_well_derivative_strictly_positive_inside(self):
        eps = 0.3
        s = np.linspace(1e-6, 2 * eps / 3 - 1e-6, 1000)
        assert np.all(well(s, eps)[1] > 0)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 1.0 / 3, 2.0])
    def test_profiles_equal_masked_formulas(self, eps):
        # every value and slope bit for bit as the four masked formulas, on
        # a dense grid with the junctions and the ends
        s = np.concatenate([np.linspace(0.0, eps, 3001),
                            [0.0, eps / 3, 2 * eps / 3, eps]])
        for got, want in zip(well(s, eps), (well_omega(s, eps),
                                            well_omega_deriv(s, eps))):
            assert got.tobytes() == want.tobytes()
        for kind in MU_KINDS:
            for got, want in zip(bump(s, eps, kind),
                                 (bump_mu(s, eps, kind), bump_mu_deriv(s, eps, kind))):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", MU_KINDS)
    def test_coeffs_equal_branch_schedule(self, kind):
        # one schedule, tt = min(2t, 1), gives the bits of the two branches,
        # from one range check and the well's slope alone, on offsets with
        # and without the outer third where the retraction climbs
        for eps in (0.05, 0.3, 1.0 / 3, 2.0):
            s = np.concatenate([np.linspace(0.0, eps, 301), [eps / 3, 2 * eps / 3, eps]])
            layer = PerturbationLayer(_line_geometry([[0.0, 0.0, 0.0]], eps=eps), kind)
            for t in (0.0, 0.001, 0.25, 0.4999, 0.5, 0.5001, 0.75, 1.0):
                for part in (s, s[s <= 2 * eps / 3], s[:0]):
                    for got, want in zip(layer.coeffs(part, t),
                                         homotopy_coeffs(part, eps, t, kind)):
                        assert got.tobytes() == want.tobytes()


def axis_group():
    return gr.from_generators([np.diag([1.0, -1.0])])


class TestTubeDecompose:
    def stratum_geometry(self):
        g = axis_group()
        basis = np.array([[1.0], [0.0]])
        fam = SubspaceFamily([basis])
        return TubeGeometry(fam, np.array([[0.5, 0.0]]), 0.2, 0.5)

    def test_orthogonal_projection(self):
        geo = self.stratum_geometry()
        dec = geo.decompose(np.array([0.5, 0.1]))
        assert geo.in_open_tube(None, dec)[0]
        assert np.allclose(dec["x"][0], [0.5, 0.0])
        assert np.allclose(dec["v"][0], [0.0, 0.1])

    def test_outside(self):
        geo = self.stratum_geometry()
        assert not geo.in_open_tube(np.array([0.5, 0.9]))[0]

    def test_ambiguous_projection(self):
        g = gr.dihedral(3)
        lat = g.lattice
        refl_class = next(r.class_id for r in lat.records if r.order == 2)
        fam = lat.family(refl_class)
        geo = TubeGeometry(fam, np.array([[1.0, 0.0]]), 0.2, 0.5)
        # a point equidistant from the axis at 0 and the axis at 60 degrees:
        # its gap is within the epsilon/10 that tube validation rejects
        mid = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
        assert geo.family.gap(mid)[0] <= geo.epsilon / 10


    @pytest.mark.parametrize("name", ["s3_perm_radial", "d3_axis_orbit_normal"])
    def test_center_idx_is_nearest_subspace(self, name):
        # the samplers read center_idx in place of decomposing each center
        steps = _tube_steps(name)
        assert steps
        for step in steps:
            geo = step.tube
            single = [int(geo.decompose(c[None])["idx"][0]) for c in geo.centers]
            assert geo.center_idx.tolist() == single
        empty = TubeGeometry(SubspaceFamily([np.eye(2)[:, :1]]), np.empty((0, 2)),
                             0.2, 0.5)
        assert len(empty.center_idx) == 0


    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("dim,k", [(d, k) for d in range(1, 5)
                                       for k in sorted({0, 1, d - 1, d})])
    @pytest.mark.parametrize("count", range(1, 7))
    def test_stacked_equals_loop(self, count, dim, k, n):
        # one stacked product per query gives the bits of one product and
        # one norm per subspace, argmin ties included
        rng = np.random.default_rng([count, dim, k, n])
        fam = _mixed_family(rng, dim, k, count)
        pts, kinds = _probe_points(rng, fam, n)
        got = fam.decompose(pts) + (fam.gap(pts),)
        want = subspace_decompose_loop(fam, pts)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        dists = fam.distances(pts)
        assert dists.tobytes() == subspace_distances_loop(fam, pts).tobytes()
        if count >= 2:
            ties = kinds == 2
            assert np.array_equal(dists[0, ties], dists[1, ties])
        on = kinds == 1
        assert np.all(np.min(dists[:, on], axis=0) < 1e-12)
        idx = rng.integers(0, count, size=n)
        vecs = rng.normal(size=(n, dim))
        assert (fam.project(vecs, idx).tobytes()
                == subspace_project_loop(fam, vecs, idx).tobytes())

    def test_project_rows_independent(self):
        # a row projects to the same bits alone as inside a batch
        rng = np.random.default_rng(5)
        g = gr.symmetric(3)
        fams = [g.lattice.family(r.class_id) for r in g.lattice.records]
        fams.append(_mixed_family(rng, 3, 2, 5))
        for fam in fams:
            vecs = rng.normal(size=(50, fam.dim))
            idx = rng.integers(0, fam.count, size=50)
            batch = fam.project(vecs, idx)
            for i in range(50):
                alone = fam.project(vecs[i:i + 1], idx[i:i + 1])
                assert alone.tobytes() == batch[i:i + 1].tobytes()


def _mixed_family(rng, dim, k, count):
    """count k-dimensional subspaces of R^dim: the first two span k cyclically
    consecutive axes, from axis 0 and from axis 1, the others are random."""
    eye = np.eye(dim)
    bases = [eye[:, [(j + i) % dim for i in range(k)]] if j < 2
             else np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, :k]
             for j in range(count)]
    return SubspaceFamily(bases)


def _probe_points(rng, fam, n):
    """n points and their kinds, cycling through: 0 a random point, 1 a point
    on one of the subspaces, 2 a point whose coordinates are all equal in
    size, so exactly as far from the first subspace as from the second."""
    kinds = (np.arange(n) + n) % 3
    rows = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            rows.append(rng.normal(size=fam.dim))
        elif kind == 1:
            b = fam.bases[i % fam.count]
            rows.append(b @ rng.normal(size=b.shape[1]))
        else:
            rows.append(rng.normal() * rng.choice([-1.0, 1.0], size=fam.dim))
    return np.array(rows).reshape(n, fam.dim), kinds


def _step_geometries(name):
    return [step.tube for step in _tube_steps(name)]


def _line_geometry(centers, rho=0.2, eps=0.1):
    """Tubes around the x1-axis of R^3."""
    return TubeGeometry(SubspaceFamily([np.eye(3)[:, :1]]),
                        np.asarray(centers, dtype=float), rho, eps)


def _sampler_cases():
    rng = np.random.default_rng(5)
    plane = SubspaceFamily([np.eye(2)])
    three_lines = SubspaceFamily([np.array([[np.cos(a)], [np.sin(a)]])
                                  for a in (0.0, 2.0, 4.0)])
    return {
        "trivial_normal": TubeGeometry(plane, rng.uniform(-1, 1, size=(7, 2)), 0.3, 0.3),
        "point": TubeGeometry(SubspaceFamily([np.zeros((3, 0))]), np.zeros((1, 3)),
                              0.2, 0.2, point_stratum=True),
        "empty": _line_geometry(np.empty((0, 3))),
        "three_lines": TubeGeometry(
            three_lines, np.array([b[:, 0] * t for b in three_lines.bases
                                   for t in (0.4, 0.9)]), 0.3, 0.5),
        # every center lies farther than rho from the axis, so no candidate
        # projects within rho of one and the 200 n cap ends the loop
        "no_acceptance": _line_geometry([[0.0, 0.5, 0.0], [1.0, 0.0, -0.6]]),
    }


class TestSamplers:
    """The block samplers against per-candidate oracles of the block
    contract: the same points bit for bit, and the generator left in the
    same state."""

    @staticmethod
    def assert_same_draws(geo, chunked, loop, seed):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = chunked(fast), loop(slow)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state
        # a later sampler on the same generator draws the same points
        assert (geo.sample_shell(40, fast).tobytes()
                == geo.sample_shell(40, slow).tobytes())

    def check(self, geo, n, seed):
        self.assert_same_draws(geo, lambda r: geo.sample_tube(n, r),
                               lambda r: sample_tube_loop(geo, n, r), seed)
        self.assert_same_draws(geo, lambda r: geo.sample_base(n, r),
                               lambda r: sample_base_loop(geo, n, r), seed)
        self.assert_same_draws(geo, lambda r: geo.sample_shell(n, r),
                               lambda r: sample_shell_loop(geo, n, r), seed)

    @pytest.mark.parametrize("name", ["b3_quartic", "s3_perm_radial"])
    def test_recursion_tubes(self, name):
        geos = _step_geometries(name)
        assert len(geos) >= 2
        for seed, geo in enumerate(geos):
            self.check(geo, 500, seed)

    @pytest.mark.parametrize("case", ["trivial_normal", "point", "empty",
                                      "three_lines", "no_acceptance"])
    def test_geometries(self, case):
        geo = _sampler_cases()[case]
        for seed, n in enumerate((1, 7, 25)):
            self.check(geo, n, seed)

    def test_cap_ends_loop_without_points(self):
        geo = _sampler_cases()["no_acceptance"]
        rng = np.random.default_rng(0)
        assert geo.sample_tube(5, rng).shape == (0, 3)
        assert geo.sample_base(5, rng).shape == (0, 3)

    def test_peak_memory_of_many_centers(self):
        # 5,000 centers: a chunk of 500 attempts would hold a 60 MB
        # difference array; the chunk bound keeps it to _CHUNK_CELLS rows
        # times centers
        centers = np.zeros((5000, 3))
        centers[:, 0] = 0.1 * np.arange(5000)
        geo = _line_geometry(centers, rho=0.08, eps=0.05)
        peaks = []
        for sample in (lambda r: sample_tube_loop(geo, 500, r),
                       lambda r: geo.sample_tube(500, r)):
            tracemalloc.start()
            try:
                assert len(sample(np.random.default_rng(3))) == 500
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        loop_peak, chunk_peak = peaks
        # the loop's peak plus one chunk's difference array and its square
        assert chunk_peak < loop_peak + 2 * _CHUNK_CELLS * 3 * 8


class TestSamplerProperties:
    """What every sampled point satisfies, on the recursion tubes and the
    hand-made geometries."""

    SOURCES = ["b3_quartic", "s3_perm_radial", "cases"]

    @staticmethod
    def geometries(source):
        if source == "cases":
            return list(_sampler_cases().values())
        return _step_geometries(source)

    @staticmethod
    def centers_on_subspaces(geo):
        # false for no_acceptance, whose centers lie off the axis
        return np.max(geo.family.min_distance(geo.centers)) <= 1e-12

    @pytest.mark.parametrize("source", SOURCES)
    def test_tube_points_in_open_tube(self, source):
        for seed, geo in enumerate(self.geometries(source)):
            pts = geo.sample_tube(500, np.random.default_rng(seed))
            assert np.all(geo.in_open_tube(pts))

    @pytest.mark.parametrize("source", SOURCES)
    def test_shell_points_on_lateral_boundary(self, source):
        # some subspace j splits each point into a base point on the rho
        # sphere of its nearest center, outside every other ball, and a
        # normal offset shorter than epsilon
        for seed, geo in enumerate(self.geometries(source)):
            pts = geo.sample_shell(500, np.random.default_rng(seed))
            if geo.is_empty or geo.point_stratum:
                assert pts.shape == (0, geo.family.dim)
                continue
            assert len(pts) > 0
            if not self.centers_on_subspaces(geo):
                continue
            base = np.einsum("jab,nb->jna", geo.family.projectors, pts)
            offset = np.linalg.norm(pts - base, axis=2)
            nearest = np.min(np.linalg.norm(
                base[:, :, None] - geo.centers[None, None], axis=3), axis=2)
            on_sphere = np.abs(nearest - geo.rho) <= 1e-9 * geo.rho
            assert np.all(np.any(on_sphere & (offset < geo.epsilon), axis=0))

    def test_empty_shells_draw_nothing(self):
        cases = _sampler_cases()
        zero_dim = TubeGeometry(SubspaceFamily([np.zeros((3, 0))]), np.zeros((1, 3)),
                                0.2, 0.2)
        for geo in (cases["point"], cases["empty"], zero_dim):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            assert geo.sample_shell(50, rng).shape == (0, 3)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_center_drawn(self, source):
        for seed, geo in enumerate(self.geometries(source)):
            if geo.is_empty or not self.centers_on_subspaces(geo):
                continue
            for sample in (geo.sample_tube, geo.sample_base):
                pts = sample(500, np.random.default_rng(seed))
                base = geo.decompose(pts)["x"]
                dist = np.linalg.norm(base[:, None] - geo.centers[None], axis=2)
                assert np.all(np.min(dist, axis=0) < geo.rho)


class TestSelectTube:
    def test_origin_well_tube(self):
        g, om, f = catalog("z2_line_min").build()
        tube = select_tube(f, 0, np.empty((0, 1)), NUM)
        assert tube.point_stratum and not tube.is_empty
        assert tube.margin == float("inf")  # empty lateral shell

    def test_no_zero_gives_empty_tube(self):
        g = gr.antipodal(1)
        f = mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                        pt.PolynomialPotential.from_expression(
                            "0.5*x1^2 - x1^4", 1))
        # origin is a zero here, so probe the class only after shifting:
        # use a potential with grad(0) != 0 impossible under symmetry, so
        # instead check the empty branch through a stratum with no zeros
        g2, om2, f2 = catalog("d3_axis_orbit_normal").build()
        lat = iso_types(g2, om2, NUM.grid_h, NUM.bbox)
        free_class = lat.class_ids[-1]
        tube = select_tube(f2, free_class, np.empty((0, 2)), NUM)
        assert tube.is_empty

    def test_tight_geometry_halves_or_fails(self):
        g = gr.dihedral(3)
        om = dm.punctured_space()
        f = orbit_normal(g, om, [1.0, 0.0], 0.2, bbox=2.0)
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        tube = select_tube(f, lat.class_ids[0], np.array([[1.0, 0.0]]), NUM)
        # the domain is a ball of radius 0.2: epsilon must have shrunk below it
        assert tube.epsilon < 0.2
        assert np.hypot(tube.rho, tube.epsilon) < 0.2

    # the (H6a) tube of the b3 quartic at epsilon = 0.15 holds about 0.55%
    # of points with a projection gap <= epsilon/10, so 500 validation
    # samples miss them about 6% of the time and the sampler seed decides
    # the tube; the sampler seeds are those of benchmark seeds 1, 8, 9, 22
    @pytest.mark.xfail(strict=True, reason="sampled tube validation misses "
                       "ambiguous projections (ROADMAP item 12)")
    def test_epsilon_does_not_depend_on_sampler_seed(self):
        g, om, f, num = _b3_quartic()
        step = next(s for s in recursion(g, om, f, num, tubes_only=True)
                    if s.label == "(H6a)")
        eps = {select_tube(step.f, step.class_id, step.ambient,
                           num.with_(seed=seed)).epsilon
               for seed in (1381391841, 90078207, 197150937, 1468014689)}
        assert len(eps) == 1


class TestOrbitClosure:
    @pytest.mark.parametrize("group", [
        gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                            np.diag([-1.0, 1.0, 1.0])]),
        gr.dihedral(12)], ids=["B3", "D12"])
    def test_sweep_equals_loop(self, group):
        rng = np.random.default_rng(group.order)
        pts = rng.uniform(-1, 1, size=(6, group.dim))
        # repeated points, points on mirrors and the origin, and near copies
        # 0.6e-9 apart, so that some images are close only in a chain
        pts = np.concatenate([pts, pts[:2], np.zeros((1, group.dim)),
                              pts[:3] * np.array([1.0] + [0.0] * (group.dim - 1)),
                              pts[:2] + 0.6e-9, pts[:2] + 1.2e-9])
        for sub in (pts, pts[:1], pts[6:9], np.empty((0, group.dim))):
            got = _orbit_closure(group, sub)
            want = orbit_closure_loop(group, sub)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert len(_orbit_closure(group, pts[:1])) == group.order


class TestPerturbedPotential:
    def test_line_formula_matches_closed_form(self):
        from oracles import perturbed_line_potential
        g, om, f = catalog("z2_line_max").build()
        tube = select_tube(f, 0, np.empty((0, 1)), NUM)
        fp, _ = perturb(f, tube)
        vs = np.linspace(-1.5, 1.5, 301)[:, None]
        expected = perturbed_line_potential(vs[:, 0], tube.epsilon, -1.0)
        assert np.max(np.abs(fp.phi(vs) - expected)) <= 1e-12
        # inside the inner third the gradient is the well slope: s itself
        eps = tube.epsilon
        val = fp.grad(np.array([[eps / 6]]))[0, 0]
        assert val == pytest.approx(eps / 6, abs=1e-12)

    def test_empty_tube_is_identity(self):
        g, om, f = catalog("z2_line_min").build()
        empty = TubeGeometry(f.group.lattice.family(0), np.empty((0, 1)), 0.2, 0.0,
                             point_stratum=True)
        fp, _ = perturb(f, empty)
        pts = np.linspace(-1.5, 1.5, 100)[:, None]
        assert np.array_equal(fp.grad(pts), f.grad(pts))

    def test_orbit_normal_perturbed_formula(self):
        # on the tube the perturbed potential is the base value at the
        # projection plus half the retracted offset squared plus the well
        from oracles import mu_profile, omega_profile
        g = gr.dihedral(3)
        om = dm.punctured_space()
        f = orbit_normal(g, om, [1.0, 0.0], 0.2, bbox=2.0)
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        tube = select_tube(f, lat.class_ids[0], np.array([[1.0, 0.0]]), NUM)
        fp, _ = perturb(f, tube)
        eps = tube.epsilon
        xs = np.array([1.0 + d for d in (-0.01, 0.0, 0.01)])
        for x in xs:
            for s in (0.2 * eps, 0.5 * eps, 0.8 * eps):
                z = np.array([[x, s]])
                mu = float(mu_profile(np.array([s]), eps)[0])
                base = 0.5 * ((x - 1.0) ** 2 + (mu * s) ** 2)
                expected = base + float(omega_profile(np.array([s]), eps)[0])
                assert fp.phi(z)[0] == pytest.approx(expected, abs=1e-12)


class TestSplit:
    def build_split(self):
        g, om, f = catalog("z2_line_max").build()
        tube = select_tube(f, 0, np.empty((0, 1)), NUM)
        fp, fam = perturb(f, tube)
        return g, om, f, tube, fp, fam, split(fp, tube)

    def test_core_domain_is_inner_tube(self):
        g, om, f, tube, fp, fam, parts = self.build_split()
        eps = tube.epsilon
        assert parts.core.member(np.array([[eps / 4]]))[0]
        assert not parts.core.member(np.array([[eps / 2]]))[0]

    def test_trimmed_excludes_closed_inner_tube(self):
        g, om, f, tube, fp, fam, parts = self.build_split()
        eps = tube.epsilon
        assert not parts.trimmed.member(np.array([[eps / 3]]))[0]
        assert parts.trimmed.member(np.array([[0.6 * eps]]))[0]
        assert not parts.off_stratum.member(np.array([[0.0]]))[0]

    def test_complement_zeros_on_junction_sphere(self):
        # for the line maximum the perturbed field vanishes exactly at 2eps/3
        g, om, f, tube, fp, fam, parts = self.build_split()
        eps = tube.epsilon
        val = parts.off_stratum.grad(np.array([[2 * eps / 3]]))
        assert abs(val[0, 0]) <= 1e-12
        vs = np.linspace(0.01 * eps, 0.99 * eps, 199)[:, None]
        mags = np.abs(parts.off_stratum.grad(vs)[:, 0])
        zero_at = vs[mags <= 1e-10, 0]
        assert np.allclose(zero_at, 2 * eps / 3, atol=1e-3)

    def test_core_is_normal_modulo_constant(self):
        # on the inner tube the perturbed potential is phi(base) + |v|^2/2
        # up to the additive well constant
        g, om, f, tube, fp, fam, parts = self.build_split()
        eps = tube.epsilon
        vs = np.linspace(-eps / 3 + 1e-9, eps / 3 - 1e-9, 101)[:, None]
        vals = parts.core.phi(vs)
        base = f.phi(np.zeros((101, 1)))
        expected = base + 0.5 * vs[:, 0] ** 2 - eps ** 2 / 9
        assert np.max(np.abs(vals - expected)) <= 1e-12


def _b3_quartic():
    """B3 (order 48) on R^3 with a quartic potential: four nonempty tubes,
    stacked up to four layers deep."""
    g = gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                            np.diag([-1.0, 1.0, 1.0])])
    om = dm.full_space()
    phi = pt.PolynomialPotential.from_expression(
        "0.466667*(x1^2 + x2^2 + x3^2) + 0.2*(x1^4 + x2^4 + x3^4)", 3)
    f = mp.make_map(g, dm.MapDomain(om, 1.6), phi)
    return g, om, f, Numerics(grid_h=0.25, bbox=1.6, seed=1)


@functools.lru_cache(maxsize=None)
def _tube_steps(name):
    """Recursion steps of a catalog entry (or of ``b3_quartic``) that build
    a nonempty tube."""
    if name == "b3_quartic":
        g, om, f, num = _b3_quartic()
    else:
        entry = catalog(name)
        g, om, f = entry.build()
        num = NUM.with_(**entry.numerics) if entry.numerics else NUM
    return [s for s in recursion(g, om, f, num, tubes_only=True)
            if not s.tube.is_empty]


class TestVerifyPartition:
    def test_line_partition(self):
        g, om, f = catalog("z2_line_max").build()
        tube = select_tube(f, 0, np.empty((0, 1)), NUM)
        _, fam = perturb(f, tube)
        report = verify_partition(fam, 1000)
        assert report["violations"] == 0
        assert report["margin_C"] > 0
        assert report["region_D_max_gap"] <= 1e-12

    def test_positive_dim_partition(self):
        g, om, f = catalog("d3_axis_orbit_normal").build()
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        ambient = []
        for comp in stratum.components:
            for rec in find_zeros(fld, GridRegion(stratum, comp), NUM):
                ambient.append(stratum.to_ambient(np.array(rec.point))[0])
        tube = select_tube(f, lat.class_ids[0], np.array(ambient), NUM)
        _, fam = perturb(f, tube)
        report = verify_partition(fam, 1000)
        assert report["violations"] == 0
        assert report["margin_C"] > 0

    @pytest.mark.parametrize("name,depth", [("z2_line_max", 0),
                                            ("s3_perm_radial", 0),
                                            ("s3_perm_radial", 1)])
    def test_family_endpoints(self, name, depth):
        # the depth-th nonempty tube of the recursion: its base map already
        # carries depth layers, so the chain rule runs through a stack
        step = _tube_steps(name)[depth]
        f, fam = step.f, step.family
        fp = step.parts.off_stratum      # the perturbed map, off the stratum
        assert len(f.layers) == depth and len(fp.layers) == depth + 1
        geo = fam.layer.geometry
        rng = np.random.default_rng(1)
        pts = np.concatenate([
            rng.uniform(-0.95 * f.bbox, 0.95 * f.bbox, size=(200, f.dim)),
            geo.sample_tube(200, rng)])
        pts = pts[fp.member(pts)]
        assert np.any(geo.in_open_tube(pts, geo.decompose(pts)))
        assert np.max(np.abs(fam.grad_at(0.0, pts) - f.grad(pts))) <= 1e-12
        assert np.array_equal(fam.grad_at(1.0, pts), fp.grad(pts))


class TestLayeredEquivariance:
    def test_perturbed_map_stays_equivariant(self):
        g, om, f = catalog("d3_axis_orbit_normal").build()
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        ambient = []
        for comp in stratum.components:
            for rec in find_zeros(fld, GridRegion(stratum, comp), NUM):
                ambient.append(stratum.to_ambient(np.array(rec.point))[0])
        tube = select_tube(f, lat.class_ids[0], np.array(ambient), NUM)
        fp, _ = perturb(f, tube)
        assert mp.equivariance_residual(fp, n_samples=200) <= 1e-7

    def test_zero_orbit_invariance(self):
        # the orbit of every found zero consists of zeros
        g, om, f = catalog("d3_axis_orbit_normal").build()
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        for comp in stratum.components:
            for rec in find_zeros(fld, GridRegion(stratum, comp), NUM):
                z = stratum.to_ambient(np.array(rec.point))[0]
                for gi in range(g.order):
                    img = g.apply(gi, z)
                    if f.member(img[None])[0]:
                        assert np.linalg.norm(f.grad(img[None])[0]) <= 1e-7


@functools.lru_cache(maxsize=None)
def _recursion_domains(name):
    """The domain of the map entering each step of a recursion and of the
    three parts of its split, with the recursion's bbox and dimension."""
    maps, bbox, dim = _recursion_maps(name)
    return [f.domain for f in maps], bbox, dim


def _recursion_steps(name):
    """The steps of a recursion through its last tube, with its bbox and
    dimension."""
    if name == "b3_quartic":
        g, om, f, num = _b3_quartic()
    elif name == "readme_d3":
        g, om, num = gr.dihedral(3), dm.punctured_space(), NUM
        f = mp.make_map(g, dm.MapDomain(om, 2.0), pt.PolynomialPotential.from_expression(
            "(x1^2 + x2^2)^2 - x1^2 - x2^2", 2))
    else:
        g, om, f = catalog(name).build()
        num = NUM
    return list(recursion(g, om, f, num, tubes_only=True)), num.bbox, g.dim


def _recursion_maps(name):
    """The map entering each step of a recursion and the three parts of its
    split, with the recursion's bbox and dimension."""
    steps, bbox, dim = _recursion_steps(name)
    maps = []
    for step in steps:
        parts = step.parts
        maps += [step.f, parts.core, parts.trimmed, parts.off_stratum]
    return maps, bbox, dim


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _domain_probes(domain, bbox, d, rng):
    """Probe points of a map domain and their kinds: 0 random points of the
    box, 1 points on a removed family's subspaces, 2 points on a tube's
    lateral shell (the base point rho from a center along its subspace),
    3 points at a tube's normal boundary (|v| = scale * epsilon), 4 ties:
    the origin, the sum of two subspaces' first basis vectors and sums of
    coordinate axes."""
    regions = domain.kept + domain.removed
    fams = [r.family for r in regions if isinstance(r, dm.Subspaces)]
    geos = [(r.geometry, getattr(r, "scale", 1.0)) for r in regions
            if isinstance(r, (dm.Tube, dm.Shell)) and not r.geometry.is_empty]
    rows = [rng.uniform(-bbox, bbox, size=(100, d))]
    kinds = [np.zeros(100, dtype=int)]
    for fam in fams:
        b = np.stack(fam.bases)[rng.integers(0, fam.count, size=40)]
        rows.append(np.einsum("nak,nk->na", b, rng.normal(size=(40, fam.k))))
        kinds.append(np.full(40, 1))
    for geo, scale in geos:
        m = 60
        i = rng.integers(0, len(geo.centers), size=m)
        b = geo.basis_stack[geo.center_idx[i]]
        proj = geo.family.projectors[geo.center_idx[i]]
        u = (_unit_rows(np.einsum("nak,nk->na", b, rng.normal(size=(m, geo.family.k))))
             if geo.family.k else np.zeros((m, d)))
        w = rng.normal(size=(m, d))
        w = _unit_rows(w - np.einsum("nab,nb->na", proj, w))
        shell = geo.centers[i] + geo.rho * u
        rows += [shell + rng.uniform(0, geo.epsilon, size=(m, 1)) * w,
                 geo.centers[i] + 0.5 * geo.rho * u + scale * geo.epsilon * w]
        kinds += [np.full(m, 2), np.full(m, 3)]
    axes = np.eye(d)
    ties = [np.zeros(d), axes[0] + axes[-1], axes.sum(axis=0), 0.7 * axes[0]]
    for fam in fams + [geo.family for geo, _ in geos]:
        if fam.count > 1 and fam.k:
            ties.append(fam.bases[0][:, 0] + fam.bases[1][:, 0])
    rows.append(np.array(ties))
    kinds.append(np.full(len(ties), 4))
    pts, kinds = np.concatenate(rows), np.concatenate(kinds)
    order = rng.permutation(len(pts))
    return pts[order], kinds[order]


class TestStackedDomainQueries:
    @pytest.mark.parametrize("name", ["readme_d3", "b3_quartic", "s3_perm_radial"])
    def test_stacked_equals_region_loop(self, name):
        # one stacked projection per query gives the bits of every region
        # queried on its own, on each batch size around the 256-row blocks
        domains, bbox, dim = _recursion_domains(name)
        rng = np.random.default_rng(11)
        hits = {"on_subspace": 0, "on_shell": 0, "on_tube_boundary": 0, "tie": 0}
        for domain in domains:
            pts, kinds = _domain_probes(domain, bbox, dim, rng)
            batches = [pts, pts[:0], pts[:257]] + [pts[kinds == k][:1] for k in range(5)]
            for batch in batches:
                got = domain.contains(batch)
                assert got.tobytes() == map_domain_contains_loop(domain, batch).tobytes()
                got = domain.boundary_distance(batch)
                assert got.tobytes() == map_domain_boundary_loop(domain, batch).tobytes()
            for region in domain.kept + domain.removed:
                if isinstance(region, dm.Subspaces):
                    hits["on_subspace"] += int(np.sum(region.contains(pts)))
                    dists = subspace_distances_loop(region.family, pts)
                    hits["tie"] += int(np.sum(np.sum(dists == dists.min(axis=0), axis=0) > 1))
                if isinstance(region, (dm.Shell, dm.Tube)):
                    geo, scale = region.geometry, getattr(region, "scale", 1.0)
                    _, s, dcen = tube_decompose_loop(geo, pts)
                    hits["on_shell"] += int(np.sum((dcen == geo.rho) & (s <= geo.epsilon)))
                    hits["on_tube_boundary"] += int(np.sum(s == scale * geo.epsilon))
        assert all(hits.values()), hits

    def test_one_product_per_256_rows(self, monkeypatch):
        # the deepest b3 domain projects every batch once per 256 rows for
        # all its families, each family once although a step's shell, tube
        # and subspaces share it
        domain = _recursion_domains("b3_quartic")[0][-1]
        regions = [r for r in domain.kept + domain.removed
                   if isinstance(r, (dm.Subspaces, dm.Tube, dm.Shell))]
        fams = {id(getattr(r, "geometry", r).family) for r in regions}
        assert len(fams) > 1 and len(regions) > len(fams)
        calls = []
        product = tubes.row_matmul
        monkeypatch.setattr(tubes, "row_matmul",
                            lambda rows, mat: calls.append(mat.shape[0]) or product(rows, mat))
        rng = np.random.default_rng(3)
        for n in (0, 1, 256, 257, 600):
            pts = rng.uniform(-1.6, 1.6, size=(n, 3))
            for query in (domain.contains, domain.boundary_distance):
                calls.clear()
                query(pts)
                count = sum(f.count for f in domain._stack.families)
                assert calls == [count] * max(1, -(-n // 256))
        assert {id(f) for f in domain._stack.families} == fams


class TestLayerWalk:
    def test_batch_off_the_top_tube_takes_the_level_below(self):
        # a batch with no point in the top layer's open tube goes straight
        # to the level below and gets the bits of the full walk, in which
        # the same rows sit beside a point inside the tube
        steps = _tube_steps("b3_quartic")
        f = steps[-1].parts.core
        below = steps[-1].f
        geo = f.layers[-1].geometry
        assert below.layers == f.layers[:-1] and len(f.layers) >= 2
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.6, 1.6, size=(400, 3))
        # the walk takes nearest-center distances only within the normal
        # radius; the full decomposition gives the same mask
        assert np.array_equal(geo.in_open_tube(pts), geo.in_open_tube(pts, geo.decompose(pts)))
        outside = pts[~geo.in_open_tube(pts)]
        inside = geo.sample_tube(1, rng)
        assert len(outside) > 100 and geo.in_open_tube(inside)[0]
        alone = f.grad(outside)
        assert alone.tobytes() == below.grad(outside).tobytes()
        walked = f.grad(np.concatenate([outside, inside]))
        assert alone.tobytes() == walked[:-1].tobytes()

    @pytest.mark.parametrize("name", ["readme_d3", "b3_quartic", "s3_perm_radial"])
    def test_shared_split_equals_per_layer_walk(self, name):
        # one split per query gives the bits of the per-layer walk, and
        # member_grad those of member followed by grad at the members, on
        # every step map, around the 256-row blocks and on single rows of
        # each probe kind: lateral shells, tube boundaries, removed
        # subspaces, ties and points that a layer retracts
        maps, bbox, dim = _recursion_maps(name)
        rng = np.random.default_rng(13)
        retracted = 0
        for f in maps:
            pts, kinds = _domain_probes(f.domain, bbox, dim, rng)
            tubes_in = [layer.geometry.sample_tube(30, rng) for layer in f.layers]
            pts = np.concatenate([pts] + tubes_in)
            kinds = np.concatenate([kinds, np.full(len(pts) - len(kinds), 5)])
            retracted += sum(int(np.sum(layer.geometry.in_open_tube(pts)))
                             for layer in f.layers)
            batches = [pts, pts[:0], pts[:1], pts[:257]] + [
                pts[kinds == k][:1] for k in range(6)]
            for batch in batches:
                got = f.grad(batch)
                assert got.tobytes() == layer_walk_grad(f, batch).tobytes()
                memb, vec = f.member_grad(batch)
                want = f.member(batch)
                assert memb.tobytes() == want.tobytes()
                assert vec.tobytes() == f.grad(batch[want]).tobytes()
        assert retracted > 0

    @pytest.mark.parametrize("name", ["readme_d3", "b3_quartic", "s3_perm_radial"])
    def test_stratum_member_grad(self, name):
        # a step's restricted field answers member_grad with the bits of
        # member followed by grad, on its grid and on random chart points
        steps, bbox, _ = _recursion_steps(name)
        rng = np.random.default_rng(17)
        for step in steps:
            if step.stratum is None:
                continue
            field = mp.restrict_to_stratum(step.f, step.stratum)
            coords = np.concatenate([c.centers for c in step.stratum.components]
                                    + [rng.uniform(-bbox, bbox, size=(50, field.dim))])
            for batch in (coords, coords[:0], coords[:1], coords[-1:]):
                memb, vec = field.member_grad(batch)
                want = field.member(batch)
                assert memb.tobytes() == want.tobytes()
                assert vec.tobytes() == field.grad(batch[want]).tobytes()
