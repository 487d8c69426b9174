"""Factory tests: orbit-normal maps, normal lifts, restriction, catalog."""
import numpy as np
import pytest

from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import potentials as pt
from egdeg.errors import TubeTooWide, UnknownName, ZeroOnY
from egdeg.factory import (
    catalog,
    catalog_names,
    h_normal_lift,
    orbit_normal,
    restrict_off,
)
from egdeg.params import Numerics
from egdeg.strata import build_stratum, iso_types
from egdeg.theta import theta

NUM = Numerics(grid_h=0.1, bbox=2.0)


class TestOrbitNormal:
    def test_three_disks(self):
        g = gr.dihedral(3)
        om = dm.punctured_space()
        f = orbit_normal(g, om, [1.0, 0.0], 0.2, bbox=2.0)
        assert f.potential.points.shape == (3, 2)
        # domain is exactly the three disks
        assert f.member(np.array([[1.1, 0.0]]))[0]
        assert not f.member(np.array([[0.5, 0.5]]))[0]

    def test_field_is_normal_offset(self):
        g = gr.dihedral(3)
        f = orbit_normal(g, dm.punctured_space(), [1.0, 0.0], 0.2, bbox=2.0)
        z = np.array([[1.05, 0.08]])
        assert np.allclose(f.grad(z)[0], [0.05, 0.08])

    def test_zero_set_is_orbit(self):
        g = gr.dihedral(3)
        f = orbit_normal(g, dm.punctured_space(), [1.0, 0.0], 0.2, bbox=2.0)
        mags = np.linalg.norm(f.grad(f.potential.points), axis=1)
        assert np.max(mags) <= 1e-12

    def test_too_wide_rejected(self):
        g = gr.dihedral(3)
        with pytest.raises(TubeTooWide):
            orbit_normal(g, dm.punctured_space(), [1.0, 0.0], 0.9, bbox=2.0)

    def test_tube_leaving_domain_rejected(self):
        g = gr.dihedral(3)
        with pytest.raises(TubeTooWide):
            orbit_normal(g, dm.annulus(0.9, 1.1), [1.0, 0.0], 0.2, bbox=2.0)

    def test_stratum_restriction_is_orbit_normal(self):
        g = gr.dihedral(3)
        om = dm.punctured_space()
        f = orbit_normal(g, om, [1.0, 0.0], 0.2, bbox=2.0)
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
        fld = mp.restrict_to_stratum(f, stratum)
        # on the stratum chart around the base point, field(x + v) = v
        us = 1.0 + np.linspace(-0.15, 0.15, 100)[:, None]
        got = fld.grad(us)
        assert np.max(np.abs(got - (us - 1.0))) <= 1e-12

    def test_quotient_source_hessian(self):
        g = gr.dihedral(3)
        f = orbit_normal(g, dm.punctured_space(), [1.0, 0.0], 0.2, bbox=2.0)
        h = f.hess(np.array([[1.0, 0.0]]))[0]
        eigvals = np.linalg.eigvalsh(h)
        assert np.all(eigvals > 0.9)

    def test_theta_unit_vector(self):
        vec, _ = theta(*catalog("d3_axis_orbit_normal").build()[0:2],
                       catalog("d3_axis_orbit_normal").build()[2], NUM)
        assert dict(vec.entries) == {("(H2a)", "q1"): 1}


class TestNormalLift:
    def lift_on_axis(self, stratum_expr="(x1^2-1)^2"):
        g = gr.dihedral(3)
        om = dm.punctured_space()
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
        k = pt.PolynomialPotential.from_expression(stratum_expr, 1)
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        from egdeg.perturb import _orbit_closure
        centers = _orbit_closure(g, centers)
        f = h_normal_lift(g, stratum, k, centers, rho=0.15, epsilon=0.12,
                          bbox=2.0, omega=om)
        return g, om, stratum, f

    def test_hessian_block_structure(self):
        g, om, stratum, f = self.lift_on_axis()
        h = f.hess(np.array([[1.0, 0.0]]))[0]
        # stratum block is k'' = 8 at the minimum, normal block identity
        assert h[0, 0] == pytest.approx(8.0, abs=1e-5)
        assert h[1, 1] == pytest.approx(1.0, abs=1e-8)
        assert abs(h[0, 1]) <= 1e-8

    def test_theta_of_lifted_minimum(self):
        g, om, stratum, f = self.lift_on_axis()
        vec, _ = theta(g, om, f, NUM)
        # one minimum per half axis component, two quotient labels
        assert dict(vec.entries) == {("(H2a)", "q0"): 1, ("(H2a)", "q1"): 1}

    def test_lifted_saddle_counts_minus_one(self):
        # a single maximum of the stratum potential lifts to a -1 entry;
        # the fixed line of diag(1,-1) has trivial Weyl group, so any k works
        om = dm.full_space()
        g2 = gr.from_generators([np.diag([1.0, -1.0])])
        lat2 = iso_types(g2, om, NUM.grid_h, NUM.bbox)
        axis_class = next(c for c in lat2.class_ids
                          if g2.lattice.records[c].fixed_dim == 1)
        stratum = build_stratum(g2, om, axis_class, NUM.grid_h, NUM.bbox)
        k = pt.PolynomialPotential.from_expression("-(x1-1)^2", 1)
        f = h_normal_lift(g2, stratum, k, np.array([[1.0, 0.0]]),
                          rho=0.15, epsilon=0.12, bbox=2.0, omega=om)
        vec, _ = theta(g2, om, f, NUM)
        assert list(dict(vec.entries).values()) == [-1]

    def test_weyl_invariance_enforced(self):
        g = gr.antipodal(1)
        om = dm.full_space()
        lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
        stratum = build_stratum(g, om, lat.class_ids[-1], NUM.grid_h, NUM.bbox)
        odd = pt.PolynomialPotential.from_expression("x1^3 - x1", 1)
        with pytest.raises(TubeTooWide):
            h_normal_lift(g, stratum, odd, np.array([[1.0], [-1.0]]),
                          rho=0.15, epsilon=0.12, bbox=2.0, omega=om)


class TestRestrictOff:
    def test_values_unchanged_off_removed_set(self):
        g, om, f = catalog("z2_line_max").build()
        g3 = restrict_off(f, np.array([[1.5], [-1.5]]), 0.1)
        pts = np.linspace(-0.9, 0.9, 50)[:, None]
        assert np.array_equal(g3.grad(pts), f.grad(pts))
        assert not g3.member(np.array([[1.55]]))[0]

    def test_zero_on_removed_set_rejected(self):
        g, om, f = catalog("z2_line_max").build()
        with pytest.raises(ZeroOnY):
            restrict_off(f, np.array([[0.0]]), 0.05)

    def test_theta_unchanged_off_zero_set(self):
        g, om, f = catalog("z2_line_max").build()
        base, _ = theta(g, om, f, NUM)
        trimmed = restrict_off(f, np.array([[1.2], [-1.2]]), 0.15)
        after, _ = theta(g, om, trimmed, NUM)
        assert base == after


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "trivial_identity", "z2_line_min", "z2_line_max",
            "z2_plane_doublewell", "d3_axis_orbit_normal", "s3_perm_radial",
            "s1_dancer_plus", "s1_dancer_minus"}

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("nope")

    def test_provenance_tags_present(self):
        for name in catalog_names():
            entry = catalog(name)
            assert any(tag in entry.provenance
                       for tag in ("PAPER", "DERIVED", "TRIVIAL"))

    def test_every_finite_entry_validates(self):
        for name in catalog_names():
            entry = catalog(name)
            g, om, f = entry.build()
            assert mp.equivariance_residual(f, n_samples=50) <= 1e-7
