"""Local map tests: construction, evaluation, restriction, unions."""
import json

import numpy as np
import pytest

from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import potentials as pt
from egdeg import serialize as sz
from egdeg.errors import DomainsOverlap, NotInvariant, OutsideDomain
from egdeg.factory import catalog, h_normal_lift, restrict_off
from egdeg.params import Numerics
from egdeg.perturb import _orbit_closure, perturb, select_tube, split
from egdeg.strata import build_stratum, iso_types
from egdeg.theta import recursion

NUM = Numerics(grid_h=0.1, bbox=2.0)


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


def _orbit_normal_step0():
    g, om, f = catalog("d3_axis_orbit_normal").build()
    return next(recursion(g, om, f, NUM, tubes_only=True)).parts


def _empty_tube_core():
    g, om, f = catalog("d3_axis_orbit_normal").build()
    cid = gr.isotropy(g, np.array([1.0, 0.0])).class_id
    tube = select_tube(f, cid, np.empty((0, 2)), NUM)
    assert tube.is_empty
    return split(perturb(f, tube)[0], tube).core


def _union():
    g = gr.antipodal(1)
    fa = mp.make_map(g, dm.MapDomain(dm.ball(0.5), 2.0),
                     pt.PolynomialPotential.from_expression("0.5*x1^2", 1))
    fb = mp.make_map(g, dm.MapDomain(dm.annulus(1.0, 1.8), 2.0),
                     pt.PolynomialPotential.from_expression("-0.5*x1^2", 1))
    return mp.disjoint_union(fa, fb)


def _restrict_off():
    return restrict_off(catalog("z2_line_max").build()[2],
                        np.array([[1.5], [-1.5]]), 0.1)


def _normal_lift():
    g = gr.dihedral(3)
    om = dm.punctured_space()
    lat = iso_types(g, om, NUM.grid_h, NUM.bbox)
    stratum = build_stratum(g, om, lat.class_ids[0], NUM.grid_h, NUM.bbox)
    k = pt.PolynomialPotential.from_expression("(x1^2-1)^2", 1)
    centers = _orbit_closure(g, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    return h_normal_lift(g, stratum, k, centers, rho=0.15, epsilon=0.12,
                         bbox=2.0, omega=om)


def _layered():
    _, _, f = catalog("z2_line_max").build()
    tube = select_tube(f, 0, np.empty((0, 1)), NUM)
    return perturb(f, tube)[0]


ROUND_TRIP_MAPS = {
    "layered": _layered,
    "core": lambda: _orbit_normal_step0().core,
    "off_stratum": lambda: _orbit_normal_step0().off_stratum,
    "trimmed": lambda: _orbit_normal_step0().trimmed,
    "empty_tube_core": _empty_tube_core,
    "disjoint_union": _union,
    "restrict_off": _restrict_off,
    "h_normal_lift": _normal_lift,
}


class TestSerialization:
    def test_roundtrip_values_exact(self):
        from egdeg.factory import catalog
        from egdeg.perturb import perturb, select_tube
        from egdeg.params import Numerics
        g, om, f = catalog("z2_line_max").build()
        num = Numerics(grid_h=0.1, bbox=2.0)
        tube = select_tube(f, 0, np.empty((0, 1)), num)
        fp, _ = perturb(f, tube)
        desc = json.loads(json.dumps(sz.map_descriptor(fp)))
        fp2 = sz.map_from_descriptor(desc, g)
        pts = np.random.default_rng(5).uniform(-2, 2, size=(100, 1))
        pts = pts[fp.member(pts)]
        assert np.max(np.abs(fp.phi(pts) - fp2.phi(pts))) <= 1e-12
        assert np.max(np.abs(fp.grad(pts) - fp2.grad(pts))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_MAPS))
    def test_roundtrip_bitwise(self, name):
        """Every region kind survives a JSON round trip bit for bit."""
        f = ROUND_TRIP_MAPS[name]()
        desc = json.loads(json.dumps(sz.map_descriptor(f)))
        f2 = sz.map_from_descriptor(desc, f.group)
        assert json.loads(json.dumps(sz.map_descriptor(f2))) == desc
        rng = np.random.default_rng(11)
        pts = rng.uniform(-f.bbox, f.bbox, size=(2000, f.dim))
        if f.seed_hints:
            hints = np.array(f.seed_hints)
            near = hints[rng.integers(len(hints), size=1000)]
            pts = np.concatenate([pts, near + 0.1 * rng.normal(size=near.shape)])
        member = f.member(pts)
        assert np.array_equal(member, f2.member(pts))
        assert member.any() or name == "empty_tube_core"
        assert (f.domain.boundary_distance(pts).tobytes()
                == f2.domain.boundary_distance(pts).tobytes())
        assert f.grad(pts[member]).tobytes() == f2.grad(pts[member]).tobytes()
