"""Invariant tests: the line oracle, vector algebra, the circle demo."""
import copy
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import line_theta_oracle

from egdeg import cli
from egdeg import degree as dg
from egdeg import domains as dm
from egdeg import groups as gr
from egdeg import maps as mp
from egdeg import potentials as pt
from egdeg.errors import (AdditionUndefined, ConfigError, DegenerateUnresolved,
                          ResolutionTooCoarse, UnsupportedRep, WeylTransportFailed)
from egdeg.factory import catalog, orbit_normal
from egdeg.groups import CircleRep
from egdeg.params import Numerics
from egdeg.records import replace
from egdeg import strata as strata_mod
from egdeg.strata import iso_types
from egdeg.tubes import row_matmul
from egdeg.theta import (ThetaVector, recursion, theta, theta_add,
                         theta_radial_s1)

theta_mod = importlib.import_module("egdeg.theta")  # the package exports theta()
NUM = Numerics(grid_h=0.1, bbox=2.0)


def run_theta(name):
    g, om, f = catalog(name).build()
    entry = catalog(name)
    num = NUM.with_(**entry.numerics) if entry.numerics else NUM
    return theta(g, om, f, num)[0]


class TestLineOracle:
    def test_minimum_matches_oracle(self):
        vec = run_theta("z2_line_min")
        slot, entry = line_theta_oracle(+1.0, eps=0.2)
        assert vec.origin_slot == slot == 1
        assert vec.entry("(e)", "q0") == entry == 0

    def test_maximum_matches_oracle(self):
        vec = run_theta("z2_line_max")
        slot, entry = line_theta_oracle(-1.0, eps=0.2)
        assert vec.origin_slot == slot == 1
        assert vec.entry("(e)", "q0") == entry == -1

    def test_oracle_stable_under_tube_radius(self):
        for eps in (0.05, 0.1, 0.2, 0.4):
            assert line_theta_oracle(+1.0, eps) == (1, 0)
            assert line_theta_oracle(-1.0, eps) == (1, -1)


class TestThetaVector:
    def test_zero_entries_dropped(self):
        v = ThetaVector.from_dict({("(e)", "q0"): 0, ("(e)", "q1"): 2})
        assert v.entries == ((("(e)", "q1"), 2),)

    def test_addition(self):
        a = ThetaVector.from_dict({("(e)", "q0"): 1}, 1)
        b = ThetaVector.from_dict({("(e)", "q0"): -1}, 0)
        s = theta_add(a, b)
        assert s.entries == ()
        assert s.origin_slot == 1

    def test_add_identity(self):
        a = ThetaVector.from_dict({("(e)", "q0"): 3}, 0)
        zero = ThetaVector.from_dict({}, 0)
        assert theta_add(a, zero) == a

    def test_both_slots_one_undefined(self):
        a = ThetaVector.from_dict({}, 1)
        with pytest.raises(AdditionUndefined):
            theta_add(a, a)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_addition_commutes_and_associates(self, x, y, z):
        a = ThetaVector.from_dict({("(e)", "q0"): x})
        b = ThetaVector.from_dict({("(e)", "q0"): y, ("(H2a)", "q1"): z})
        c = ThetaVector.from_dict({("(H2a)", "q1"): -z})
        assert theta_add(a, b) == theta_add(b, a)
        assert theta_add(theta_add(a, b), c) == theta_add(a, theta_add(b, c))


class TestRecursion:
    def test_doublewell_absorbed_into_origin_slot(self):
        vec = run_theta("z2_plane_doublewell")
        assert vec.origin_slot == 1
        assert vec.entries == ()

    def test_orbit_normal_unit_vector(self):
        vec = run_theta("d3_axis_orbit_normal")
        assert vec == catalog("d3_axis_orbit_normal").expected_vector()

    def test_s3_radial(self):
        vec = run_theta("s3_perm_radial")
        assert vec == catalog("s3_perm_radial").expected_vector()

    def test_trivial_identity_source(self):
        vec = run_theta("trivial_identity")
        assert vec.origin_slot is None
        assert vec.entry("(e)", "q0") == 1

    def test_stratum_without_cells_raises(self):
        # the (e) witness of ball(0.25) clears the mirrors by h/2 = 0.05, so
        # (e) is an orbit type, but no free-stratum cell clears them by h
        g = gr.dihedral(3)
        omega = dm.ball(0.25)
        assert iso_types(g, omega, NUM.grid_h, NUM.bbox).labels()[-1] == "(e)"
        f = mp.make_map(g, dm.MapDomain(omega, NUM.bbox),
                        pt.PolynomialPotential.from_expression(
                            "(x1^2 + x2^2)^2 - x1^2 - x2^2", 2))
        with pytest.raises(ResolutionTooCoarse, match="no grid cell"):
            theta(g, omega, f, NUM)

    @pytest.mark.parametrize("change", ["expr", "kept", "kept_copy"])
    def test_split_domain_must_extend_previous(self, monkeypatch, change):
        # the orbit-normal map keeps open balls around its orbit; a split
        # whose domain has another expression, drops that region or holds an
        # equal copy of it in its place does not extend the previous domain
        real = theta_mod.split

        def split(f_pert, tube):
            parts = real(f_pert, tube)
            dom = parts.off_stratum.domain
            expr, kept = dom.expr, dom.kept
            if change == "expr":
                expr = replace(expr)
            else:
                kept = (kept[1:] if change == "kept"
                        else (copy.copy(kept[0]),) + kept[1:])
            off = replace(parts.off_stratum, domain=replace(
                dom, expr=expr, kept=kept))
            return replace(parts, off_stratum=off)
        monkeypatch.setattr(theta_mod, "split", split)
        g, om, f = catalog("d3_axis_orbit_normal").build()
        assert f.domain.kept
        with pytest.raises(ConfigError, match="domain grew"):
            list(recursion(g, om, f, NUM))

    def test_empty_map_vanishes(self):
        g = gr.antipodal(1)
        f = mp.empty_map(g, bbox=2.0)
        vec, _ = theta(g, dm.full_space(), f, NUM)
        assert vec.is_zero
        assert vec.origin_slot == 0

    def test_zero_free_map_vanishes(self):
        g = gr.antipodal(1)
        f = mp.make_map(g, dm.MapDomain(dm.annulus(0.5, 1.5), 2.0),
                        pt.PolynomialPotential.from_expression("0.5*x1^2", 1))
        vec, _ = theta(g, dm.full_space(), f, NUM)
        assert vec.is_zero

    def test_scale_invariance(self):
        g, om, f = catalog("z2_line_max").build()
        base, _ = theta(g, om, f, NUM)
        for lam in (0.5, 2.0, 7.0):
            scaled, _ = theta(g, om, f.scaled(lam), NUM)
            assert scaled == base

    def test_mu_choice_independence(self):
        g, om, f = catalog("z2_line_max").build()
        cubic, _ = theta(g, om, f, NUM)
        quintic, _ = theta(g, om, f, NUM.with_(mu_kind="quintic"))
        assert cubic == quintic

    def test_trace_records_tubes_and_values(self):
        g, om, f = catalog("z2_line_max").build()
        _, trace = theta(g, om, f, NUM)
        assert trace.steps[0]["theta11"] == 1
        assert trace.steps[0]["tube"]["centers"] == 1
        assert trace.steps[1]["intersection"] == {"q0": -1}


def _readme_d3():
    g = gr.dihedral(3)
    om = dm.punctured_space()
    phi = pt.PolynomialPotential.from_expression(
        "(x1^2 + x2^2)^2 - x1^2 - x2^2", 2)
    return g, om, mp.make_map(g, dm.MapDomain(om, 2.0), phi), NUM


def _planar(n, expr="(x1^2 + x2^2)^2 - x1^2 - x2^2", om=dm.punctured_space()):
    g = gr.dihedral(n)
    phi = pt.PolynomialPotential.from_expression(expr, 2)
    return g, om, mp.make_map(g, dm.MapDomain(om, 2.0), phi)


_ODD_ROWS = {("(H2a)", "q0"): 1, ("(H2a)", "q1"): 1, ("(e)", "q0"): -1}
_EVEN_ROWS = {("(H2a)", "q0"): 1, ("(H2b)", "q0"): 1, ("(e)", "q0"): -1}


class TestPlanarEnvelope:
    """The README potential on the punctured plane under dihedral groups:
    one mirror class of two quotient components for odd n, two mirror
    classes of one each for even n, and the free circle orbit of index -1."""

    @pytest.mark.parametrize("n, rows", [(5, _ODD_ROWS), (6, _EVEN_ROWS),
                                         (8, _EVEN_ROWS)])
    def test_rows(self, n, rows):
        vec, _ = theta(*_planar(n), NUM)
        assert dict(vec.entries) == rows

    def test_d32_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse, match="no kept cell"):
            theta(*_planar(32), NUM)

    # the grid lookup drops Newton zeros within about h of a mirror, so a
    # zero set in that band loses its (e) row
    @pytest.mark.xfail(strict=True, reason="zero circle at radius 0.15 lies "
                       "inside the clearance band of the mirrors")
    def test_small_circle_keeps_free_row(self):
        vec, _ = theta(*_planar(3, "(x1^2 + x2^2)^2 - 0.045*(x1^2 + x2^2)"), NUM)
        assert dict(vec.entries) == _ODD_ROWS

    @pytest.mark.xfail(strict=True, reason="every D12 free-stratum zero lies "
                       "within 0.91 h of a mirror")
    def test_d12_keeps_free_row(self):
        vec, _ = theta(*_planar(12), NUM)
        assert dict(vec.entries) == _EVEN_ROWS


# critical circles at r = 1 (lambda = 1) and r = sqrt(2) (lambda = 0)
_TWO_SPHERE = "(x1^2 + x2^2)^3 - 4.5*(x1^2 + x2^2)^2 + 6*(x1^2 + x2^2)"


class TestTiltRoute:
    """A critical circle with lambda = 0 inside the domain and a nondegenerate
    minimum at the origin: theta is the origin slot alone.  Its free-stratum
    arcs are degenerate clusters whose enclosure degree is not certified, so
    they resolve by the tilt, whose directions depend on no setting."""

    @pytest.mark.parametrize("n, expr, om", [
        (8, "(x1^2 + x2^2)^2 - x1^2 - x2^2", dm.full_space()),
        (3, "(x1^2 + x2^2)^2 - 0.6*(x1^2 + x2^2)", dm.ball(0.6)),
    ], ids=["d8_full", "d3_ball"])
    def test_origin_slot_alone_for_every_sampler_seed(self, n, expr, om, monkeypatch):
        tilts = []
        tilt = dg._enclosure_tilt

        def counted(*args):
            tilts.append(args)
            return tilt(*args)
        monkeypatch.setattr(dg, "_enclosure_tilt", counted)
        g, om, f = _planar(n, expr, om)
        for seed in (20240601, 1, 3):
            del tilts[:]
            vec, _ = theta(g, om, f, NUM.with_(seed=seed))
            assert (vec.origin_slot, vec.entries) == (1, ())
            assert tilts


class TestTiltEnvelope:
    """Known wrong answers near the tilt route, pinned until mended."""

    @pytest.mark.xfail(strict=True, raises=DegenerateUnresolved,
                       reason="the two tilt directions give the counts 0 and 1 in the "
                       "enclosure (ROADMAP items 3c and 5)")
    def test_d6_full_plane_origin_slot_alone(self):
        vec, _ = theta(*_planar(6, om=dm.full_space()), NUM)
        assert (vec.origin_slot, vec.entries) == (1, ())

    @pytest.mark.xfail(strict=True, reason="the (H2a) compact margin of h drops "
                       "the r = sqrt(2) zeros, 0.086 from the annulus boundary")
    def test_d5_annulus_circles_cancel(self):
        vec, _ = theta(*_planar(5, _TWO_SPHERE, dm.annulus(0.4, 1.5)), NUM)
        assert vec.entries == ()


def _b3_bench():
    # the benchmark's b3_stack map
    g = gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                            np.diag([-1.0, 1.0, 1.0])])
    om = dm.full_space()
    phi = pt.PolynomialPotential.from_expression(
        "0.466667*(x1^2 + x2^2 + x3^2) + 0.2*(x1^4 + x2^4 + x3^4)", 3)
    return (g, om, mp.make_map(g, dm.MapDomain(om, 1.6), phi),
            Numerics(grid_h=0.25, bbox=1.6))


def _c3_flip():
    # C3 about the x3 axis times the flip of x3: the two halves x3 > 0 and
    # x3 < 0 of the free stratum form one quotient orbit, and each half's
    # stabilizer C3 turns it, so several Weyl elements carry one half to
    # the other
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    g = gr.from_generators([np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                            np.diag([1.0, 1.0, -1.0])])
    om = dm.full_space()
    phi = pt.PolynomialPotential.from_expression(
        "0.3*(x1^3 - 3*x1*x2^2) + (x1^2 + x2^2)^2 - 0.5*(x1^2 + x2^2)"
        " + (x3^2 - 1)^2", 3)
    return (g, om, mp.make_map(g, dm.MapDomain(om, 2.0), phi),
            Numerics(grid_h=0.25, bbox=2.0))


def _catalog_case(name):
    def build():
        g, om, f = catalog(name).build()
        entry = catalog(name)
        return g, om, f, NUM.with_(**entry.numerics) if entry.numerics else NUM
    return build


class TestLatticeGeometry:
    """Every stratum, tube and exclusion of a run reads its subspaces from
    the subgroup lattice, which builds each of them once."""

    @pytest.mark.parametrize("build", [_readme_d3, _catalog_case("s3_perm_radial")],
                             ids=["readme_d3", "s3_perm_radial"])
    def test_steps_share_the_lattice_objects(self, build):
        g, om, f, num = build()
        lat = g.lattice
        steps = list(recursion(g, om, f, num))
        assert len(steps) >= 2 and any(s.f.layers for s in steps)
        layers = ()   # the layers of the nonempty tubes so far
        for step in steps:
            if step.stratum is not None:
                assert step.stratum.family is lat.family(step.class_id)
                assert step.stratum.singular is lat.singular(step.class_id)
            assert step.f.layers == layers
            if step.family:
                assert step.family.layer.geometry is step.tube
                assert step.tube.family is lat.family(step.class_id)
                layers += () if step.tube.is_empty else (step.family.layer,)


class TestRowIndependence:
    """A restricted field rounds each row the same whether it is evaluated
    in one batch, one row at a time or in small chunks."""

    @pytest.mark.parametrize("build", [
        _readme_d3, _catalog_case("s3_perm_radial"), _b3_bench],
        ids=["readme_d3", "s3_perm_radial", "b3_stack"])
    def test_grad_rows_equal_batch(self, build):
        g, om, f, num = build()
        rng = np.random.default_rng(5)
        steps = [s for s in recursion(g, om, f, num)
                 if s.stratum is not None]
        assert any(s.f.layers for s in steps)
        for step in steps:
            fld = step.restricted
            centers = np.concatenate([c.centers for c in step.stratum.components])
            pts = np.concatenate([
                rng.uniform(-num.bbox, num.bbox, size=(600, fld.dim)),
                centers + rng.normal(scale=0.01, size=centers.shape)])
            pts = pts[fld.member(pts)][:400]
            batch = fld.grad(pts)
            for size in (1, 2, 3, 7):
                chunks = [fld.grad(pts[i:i + size])
                          for i in range(0, len(pts), size)]
                assert np.concatenate(chunks).tobytes() == batch.tobytes(), size


def _stratum_hints(step) -> np.ndarray:
    """The seed hints of the step's map that lie on its stratum, in stratum
    coordinates."""
    stratum = step.stratum
    if not step.f.seed_hints:
        return np.empty((0, stratum.dim))
    amb = np.array(step.f.seed_hints, dtype=float)
    off = np.linalg.norm(amb - amb @ stratum.basis @ stratum.basis.T, axis=1)
    return amb[off <= 1e-9 * (1 + np.linalg.norm(amb, axis=1))] @ stratum.basis


def _first_weyl(stratum, src: int, dst: int) -> np.ndarray:
    """Weyl matrix of the first coset rep that maps component src to dst."""
    mats = stratum.group.lattice.weyl_matrices(stratum.class_id)
    for perm, wmat in zip(stratum.weyl_perm.tolist(), mats):
        if perm[src] == dst:
            return wmat
    raise AssertionError(f"no Weyl element maps {src} to {dst}")


def _free_orbit_normal():
    # the unit generator on a free D3 orbit: one seed hint per chamber, so
    # five of the six are moved into the representative
    g, om = gr.dihedral(3), dm.punctured_space()
    a = np.pi / 6
    return g, om, orbit_normal(g, om, (1.2 * np.cos(a), 1.2 * np.sin(a)), 0.25), NUM


class TestZeroPass:
    """One Newton batch per stratum over the representatives of the
    quotient orbits, and Weyl transport to the other components."""

    @pytest.mark.parametrize("build", [
        _readme_d3, _catalog_case("s3_perm_radial"), _b3_bench,
        _catalog_case("d3_axis_orbit_normal"), _free_orbit_normal, _c3_flip],
        ids=["readme_d3", "s3_perm_radial", "b3_stack", "d3_axis_orbit_normal",
             "free_orbit_normal", "c3_flip"])
    def test_batch_equals_per_component(self, build, monkeypatch):
        """Each representative's records equal one find_zeros over its seeds,
        every other component's equal the representative's mapped by the
        first Weyl element that carries it there, and the batch's Newton
        counts are the sums over the representatives' runs."""
        g, om, f, num = build()
        steps = [s for s in recursion(g, om, f, num)
                 if s.stratum is not None]
        newton_stats = []
        newton_zeros = dg.newton_zeros

        def recorded(*args, **kwargs):
            out = newton_zeros(*args, **kwargs)
            newton_stats.append(out[1])
            return out
        monkeypatch.setattr(dg, "newton_zeros", recorded)
        hinted = 0
        for step in steps:
            stratum, fld = step.stratum, step.restricted
            hints = _stratum_hints(step)
            owner = stratum.components_of(hints) if len(hints) else np.empty(0, int)
            del newton_stats[:]
            for qlabel in stratum.quotient_labels():
                rep = stratum.representative_component(qlabel)
                members = np.flatnonzero(stratum.rep == rep.index).tolist()
                region = dg.GridRegion(stratum, rep)
                # the hints of every component of the orbit, moved into rep
                extra = np.concatenate([hints[owner == rep.index]] + [
                    row_matmul(hints[owner == c], _first_weyl(stratum, c, rep.index).T)
                    for c in members if c != rep.index and np.any(owner == c)])
                if len(extra):
                    hinted += 1
                    seeds = np.concatenate([region.seed_points(), extra])
                    pts, _ = recorded(fld, seeds, step.margin)
                    recs = dg.classify_zeros(fld, region, pts, step.margin)
                else:
                    recs = dg.find_zeros(fld, region, num,
                                         compact_margin=step.margin)
                assert step.zeros[rep.index] == recs
                points = np.array([r.point for r in recs]).reshape(-1, stratum.dim)
                for c in members:
                    if c == rep.index:
                        continue
                    img = row_matmul(points, _first_weyl(stratum, rep.index, c).T)
                    assert step.zeros[c] == [
                        dg.ZeroRecord(tuple(map(float, img[i])), recs[i].index)
                        for i in np.lexsort(img.T[::-1])]
            ambient = [stratum.to_ambient(np.array(r.point))[0]
                       for comp in stratum.components
                       for r in step.zeros[comp.index]]
            assert np.array_equal(step.ambient,
                                  np.array(ambient).reshape(-1, g.dim))
            # the batch's counts are the sums of the representatives' runs
            for key in ("seeds", "converged", "stalled", "retired"):
                assert step.newton[key] == sum(s[key] for s in newton_stats)
            assert step.newton["converged"] + step.newton["stalled"] \
                + step.newton["retired"] <= step.newton["seeds"]
        assert steps and (hinted > 0) == bool(f.seed_hints)

    @pytest.mark.parametrize("build", [
        _readme_d3, _catalog_case("d3_axis_orbit_normal"), _free_orbit_normal],
        ids=["readme_d3", "d3_axis_orbit_normal", "free_orbit_normal"])
    def test_only_representatives_are_solved(self, build, monkeypatch):
        """Newton seeds, Newton points and certified zeros all lie in
        representative components, and every seed hint in a component
        reaches its representative as a seed."""
        g, om, f, num = build()
        seeds, certified = [], []
        newton_zeros, zero_indices = theta_mod.newton_zeros, dg._zero_indices

        def spy_newton(field, pts, *args, **kwargs):
            seeds.append(pts)
            return newton_zeros(field, pts, *args, **kwargs)

        def spy_indices(field, pts, *args, **kwargs):
            certified.append(pts)
            return zero_indices(field, pts, *args, **kwargs)
        monkeypatch.setattr(theta_mod, "newton_zeros", spy_newton)
        monkeypatch.setattr(dg, "_zero_indices", spy_indices)
        moved = 0
        for step in recursion(g, om, f, num):
            stratum = step.stratum
            if stratum is None:
                continue
            reps = {stratum.representative_component(q).index
                    for q in stratum.quotient_labels()}
            (batch,) = seeds
            found = np.concatenate(certified) if certified else batch[:0]
            assert set(stratum.components_of(batch).tolist()) <= reps
            assert set(stratum.components_of(found).tolist()) <= reps
            assert len(batch) == step.newton["seeds"]
            hints = _stratum_hints(step)
            comp = stratum.components_of(hints) if len(hints) else []
            for hint, c in zip(hints, np.asarray(comp).tolist()):
                if c < 0:
                    continue
                rep = stratum.representative_component(f"q{stratum.quotient[c]}").index
                target = row_matmul(hint[None], _first_weyl(stratum, c, rep).T)
                assert np.any(np.all(batch == target, axis=1))
                assert stratum.components_of(target)[0] == rep
                moved += c != rep
            del seeds[:], certified[:]
        assert (moved > 0) == (build is _free_orbit_normal)

    def test_moved_hints_keep_rows_and_records(self):
        """On a free orbit the moved hints polish to the zeros the
        representative's own seeds reach: the row is the unit vector and
        every record is a single orbit point within 1e-12."""
        g, om, f, num = _free_orbit_normal()
        vec, _ = theta(g, om, f, num)
        assert dict(vec.entries) == {("(e)", "q0"): 1}
        step = [s for s in recursion(g, om, f, num)
                if s.label == "(e)"][0]
        orbit = np.array(f.seed_hints)
        for recs in step.zeros.values():
            assert [r.index for r in recs] == [1]
            assert np.min(np.abs(orbit - recs[0].point).max(axis=1)) <= 1e-12

    def test_broken_equivariance_raises(self, monkeypatch):
        """A field that is not Weyl-equivariant fails the image residual
        check loudly, naming the class and the component."""
        restrict = theta_mod.restrict_to_stratum
        turn = np.array([[0.0, -1.0], [1.0, 0.0]])

        class Skewed(mp.StratumField):
            # a quarter turn commutes with rotations but not with mirrors
            def grad(self, coords):
                return super().grad(coords) + 1e-3 * np.atleast_2d(coords) @ turn.T

        def skewed(f, stratum):
            return Skewed(f, stratum) if stratum.dim == 2 else restrict(f, stratum)
        monkeypatch.setattr(theta_mod, "restrict_to_stratum", skewed)
        g, om, f, num = _readme_d3()
        with pytest.raises(WeylTransportFailed,
                           match=r"\(e\) zero in component c[-0-9,]+ has residual"):
            theta(g, om, f, num)
        assert WeylTransportFailed in cli.NUMERIC_ERRORS


class TestNewtonRetirement:
    """Newton rows that run onto the singular set retire early; every record
    and ambient zero is bitwise the one a run without retirement gives."""

    @pytest.mark.parametrize("build", [
        _readme_d3, _b3_bench, _catalog_case("s3_perm_radial"), _c3_flip],
        ids=["readme_d3", "b3_stack", "s3_perm_radial", "c3_flip"])
    def test_retirement_keeps_records(self, build, monkeypatch):
        # rows retire on every case: 9 on readme_d3's free stratum, 19 over
        # b3_stack's 1-d and 2-d strata, 34 on s3_perm_radial, 208 on c3_flip
        g, om, f, num = build()

        def run():
            return [s for s in recursion(g, om, f, num)
                    if s.stratum is not None]
        steps = run()
        monkeypatch.delattr(mp.StratumField, "singular_distance")
        plain = run()
        assert len(steps) == len(plain)
        for step, ref in zip(steps, plain):
            assert step.zeros == ref.zeros
            points = [np.array([r.point for r in recs]).tobytes()
                      for recs in step.zeros.values()]
            assert points == [np.array([r.point for r in recs]).tobytes()
                              for recs in ref.zeros.values()]
            assert step.ambient.tobytes() == ref.ambient.tobytes()
            assert ref.newton["retired"] == 0
        assert sum(s.newton["retired"] for s in steps) > 0


class TestStrataMemo:
    """Strata are memoized on the group's lattice by (omega, class, h,
    bbox): every theta over one group builds each stratum once."""

    def test_second_theta_builds_none(self, monkeypatch):
        built = []
        build = strata_mod.build_stratum

        def counted(group, omega, class_id, h, bbox):
            built.append((omega, class_id, h))
            return build(group, omega, class_id, h, bbox)
        monkeypatch.setattr(strata_mod, "build_stratum", counted)
        g, om, f, num = _readme_d3()
        first, _ = theta(g, om, f, num)
        assert len(built) == 2   # the mirror stratum and the free one
        built.clear()
        again, _ = theta(g, om, f, num)
        assert built == [] and again == first
        # a new h or a new omega builds its own strata
        assert theta(g, om, f, num.with_(grid_h=0.125))[0] == first
        assert [h for _, _, h in built] == [0.125, 0.125]
        built.clear()
        ann = dm.annulus(0.25, 1.5)
        assert theta(g, ann, mp.make_map(g, dm.MapDomain(ann, 2.0), f.potential),
                     num)[0] == first
        assert [(omega, h) for omega, _, h in built] == [(ann, 0.1)] * 2


class TestNewtonMultiplicity:
    """Rows that converge linearly onto degenerate zeros take a
    multiplicity step, which cuts the field evaluations of a theta run."""

    def test_b3_stack_grad_calls(self, monkeypatch):
        # b3_stack's kept zeros at u = +-1/3 on its 1-d and 2-d strata are
        # triple roots; the run made 233 walks of the layer stack without
        # the step and makes 131 with it, counting ``grad`` and the line
        # search's ``member_grad`` probes
        calls, accelerated = [], []
        newton_zeros = theta_mod.newton_zeros

        def counted(method):
            def walk(self, *args, **kwargs):
                calls.append(1)
                return method(self, *args, **kwargs)
            return walk

        def recorded(*args, **kwargs):
            out = newton_zeros(*args, **kwargs)
            accelerated.append(out[1]["accelerated"])
            return out
        for name in ("grad", "member_grad"):
            monkeypatch.setattr(mp.LocalGradientMap, name,
                                counted(getattr(mp.LocalGradientMap, name)))
        monkeypatch.setattr(theta_mod, "newton_zeros", recorded)
        g, om, f, num = _b3_bench()
        vec, _ = theta(g, om, f, num)
        assert vec.origin_slot == 1 and vec.as_dict() == {}
        assert len(calls) <= 131
        assert sum(accelerated) >= 1


def _planar_case(n):
    def build():
        return (*_planar(n), NUM)
    return build


class TestWeylClosure:
    """Every stratum's zero set is closed under its Weyl group: to 1e-12
    where component stabilizers fix their components pointwise, and to the
    Newton polish where a stabilizer turns its component (c3_flip), since a
    representative's own zeros are Newton points, not images."""

    @pytest.mark.parametrize("build, tol", [
        (_readme_d3, 1e-12), (_catalog_case("s3_perm_radial"), 1e-12),
        (_b3_bench, 1e-12), (_planar_case(6), 1e-12), (_c3_flip, 1e-9)],
        ids=["readme_d3", "s3_perm_radial", "b3_stack", "d6", "c3_flip"])
    def test_zero_sets_closed_under_weyl(self, build, tol):
        g, om, f, num = build()
        steps = list(recursion(g, om, f, num))
        for step in steps:
            stratum = step.stratum
            if stratum is None:
                continue
            mats = g.lattice.weyl_matrices(step.class_id)
            for perm, wmat in zip(stratum.weyl_perm.tolist(), mats):
                for c, recs in step.zeros.items():
                    target = step.zeros[perm[c]]
                    assert len(recs) == len(target)
                    if not recs:
                        continue
                    img = np.array([r.point for r in recs]) @ wmat.T
                    tgt = np.array([r.point for r in target])
                    dist = np.abs(img[:, None] - tgt[None]).max(axis=2)
                    match = dist.argmin(axis=1)
                    assert dist[np.arange(len(img)), match].max() <= tol
                    assert sorted(match.tolist()) == list(range(len(tgt)))
                    assert [r.index for r in recs] == [target[i].index for i in match]
        if build is _b3_bench:
            # one orbit of centers per tube, no near-duplicate copies
            assert [s.tube.centers.shape[0] for s in steps[1:4]] == [6, 8, 12]


class TestCircleDemo:
    def test_dancer_pair(self):
        plus, _ = theta_radial_s1(CircleRep((1,)), {1: 0.5}, dm.full_space(), NUM)
        minus, _ = theta_radial_s1(CircleRep((1,)), {1: -0.5}, dm.full_space(), NUM)
        assert plus.origin_slot == 1 and plus.entries == ()
        assert minus.origin_slot == 1
        assert minus.entry("(Z1)", "q0") == -1

    def test_hat_on_punctured_plane(self):
        vec, _ = theta_radial_s1(CircleRep((2,)), {2: 0.25, 1: -0.5, 0: 0.25},
                                 dm.punctured_space(), NUM)
        assert vec.origin_slot is None
        assert vec.entry("(Z2)", "q0") == 1

    def test_weight_relabeling(self):
        vec, _ = theta_radial_s1(CircleRep((5,)), {1: -0.5}, dm.full_space(), NUM)
        assert vec.entry("(Z5)", "q0") == -1

    def test_multi_weight_rejected(self):
        with pytest.raises(UnsupportedRep):
            theta_radial_s1(CircleRep((1, 2)), {1: 0.5}, dm.full_space(), NUM)
        with pytest.raises(UnsupportedRep):
            theta_radial_s1(CircleRep((1,), trivial_dim=1), {1: 0.5},
                            dm.full_space(), NUM)


class TestExistence:
    def test_nonzero_theta_implies_zero_found(self):
        # contrapositive on a family of zero-free restrictions
        g = gr.antipodal(1)
        for r1, r2 in [(0.3, 0.9), (0.5, 1.2), (1.0, 1.9)]:
            f = mp.make_map(g, dm.MapDomain(dm.annulus(r1, r2), 2.0),
                            pt.PolynomialPotential.from_expression(
                                "-0.5*x1^2", 1))
            vec, _ = theta(g, dm.full_space(), f, NUM)
            assert vec.is_zero
