"""Local map tests: construction, evaluation, restriction, unions."""
import numpy as np
import pytest

from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import potentials as pt
from egdeg.errors import DomainsOverlap, NotInvariant, OutsideDomain
from egdeg.strata import build_stratum, iso_types


def line_map(expr="0.5*x1^2"):
    g = gr.antipodal(1)
    return g, mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                          pt.PolynomialPotential.from_expression(expr, 1))


class TestMakeMap:
    def test_valid_even_map(self):
        line_map()

    def test_odd_rejected(self):
        g = gr.antipodal(1)
        with pytest.raises(NotInvariant):
            mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                        pt.PolynomialPotential.from_expression("x1^3", 1))

    def test_radial_on_dihedral(self):
        g = gr.dihedral(3)
        mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                    pt.PolynomialPotential.from_expression("(x1^2+x2^2)^2", 2))


class TestEvaluate:
    def test_scalar_parabola(self):
        _, f = line_map()
        val, grad, hess = mp.evaluate(f, [3.0])
        assert val == pytest.approx(4.5)
        assert grad[0] == pytest.approx(3.0)
        assert hess[0, 0] == pytest.approx(1.0)

    def test_saddle(self):
        g = gr.antipodal(2)
        f = mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                        pt.PolynomialPotential.from_expression("x1^2 - x2^2", 2))
        val, grad, hess = mp.evaluate(f, [1.0, 1.0])
        assert val == pytest.approx(0.0)
        assert np.allclose(grad, [2.0, -2.0])
        assert np.allclose(hess, np.diag([2.0, -2.0]))

    def test_outside_domain(self):
        g = gr.antipodal(1)
        f = mp.make_map(g, dm.MapDomain(dm.ball(1.0), 2.0),
                        pt.PolynomialPotential.from_expression("0.5*x1^2", 1))
        with pytest.raises(OutsideDomain):
            mp.evaluate(f, [1.5])

    def test_equivariance_residual(self):
        g = gr.dihedral(3)
        f = mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2+x2^2)^2 - x1^2 - x2^2", 2))
        assert mp.equivariance_residual(f) <= 1e-7


class TestRestriction:
    def test_restricted_potential_on_axis(self):
        # group generated by diag(1,-1); fixed space is the x axis
        g = gr.from_generators([np.diag([1.0, -1.0])])
        f = mp.make_map(g, dm.MapDomain(dm.full_space(), 2.0),
                        pt.PolynomialPotential.from_expression(
                            "0.5*x1^2 + x2^4", 2))
        lat = iso_types(g, dm.full_space(), 0.1, 2.0)
        axis_class = next(c for c in lat.class_ids
                          if g.lattice.records[c].fixed_dim == 1)
        stratum = build_stratum(g, dm.full_space(), axis_class, 0.1, 2.0)
        fld = mp.restrict_to_stratum(f, stratum)
        u = np.array([[0.7]])
        assert fld.value(u)[0] == pytest.approx(0.5 * 0.49)
        assert fld.grad(u)[0, 0] == pytest.approx(0.7)

    def test_tangency_residual(self):
        g = gr.dihedral(3)
        f = mp.make_map(g, dm.MapDomain(dm.punctured_space(), 2.0),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2+x2^2)^2 - x1^2 - x2^2", 2))
        lat = iso_types(g, dm.punctured_space(), 0.1, 2.0)
        stratum = build_stratum(g, dm.punctured_space(), lat.class_ids[0],
                                0.1, 2.0)
        fld = mp.restrict_to_stratum(f, stratum)
        coords = np.linspace(0.3, 1.8, 100)[:, None]
        assert fld.tangency_residual(coords) <= 1e-8


class TestDisjointUnion:
    def test_union_evaluates_piecewise(self):
        g = gr.antipodal(1)
        fa = mp.make_map(g, dm.MapDomain(dm.ball(0.5), 2.0),
                         pt.PolynomialPotential.from_expression("0.5*x1^2", 1))
        fb = mp.make_map(g, dm.MapDomain(dm.annulus(1.0, 1.8), 2.0),
                         pt.PolynomialPotential.from_expression("-0.5*x1^2", 1))
        u = mp.disjoint_union(fa, fb)
        assert u.grad(np.array([[0.2]]))[0, 0] == pytest.approx(0.2)
        assert u.grad(np.array([[1.5]]))[0, 0] == pytest.approx(-1.5)
        assert not u.member(np.array([[0.7]]))[0]

    def test_overlap_rejected(self):
        g = gr.antipodal(1)
        fa = mp.make_map(g, dm.MapDomain(dm.ball(1.2), 2.0),
                         pt.PolynomialPotential.from_expression("0.5*x1^2", 1))
        fb = mp.make_map(g, dm.MapDomain(dm.annulus(1.0, 1.8), 2.0),
                         pt.PolynomialPotential.from_expression("-0.5*x1^2", 1))
        with pytest.raises(DomainsOverlap):
            mp.disjoint_union(fa, fb)

    def test_groups_of_same_order_rejected(self):
        fa = mp.make_map(gr.dihedral(3), dm.MapDomain(dm.ball(1.0), 2.0),
                         pt.PolynomialPotential.from_expression("x1^2 + x2^2", 2))
        fb = mp.make_map(gr.cyclic(6), dm.MapDomain(dm.annulus(1.2, 1.8), 2.0),
                         pt.PolynomialPotential.from_expression("x1^2 + x2^2", 2))
        with pytest.raises(DomainsOverlap):
            mp.disjoint_union(fa, fb)

    def test_union_with_empty_is_identity(self):
        g, f = line_map()
        e = mp.empty_map(g, bbox=2.0)
        u = mp.disjoint_union(f, e)
        pts = np.linspace(-1.5, 1.5, 11)[:, None]
        assert np.allclose(u.grad(pts), f.grad(pts))

