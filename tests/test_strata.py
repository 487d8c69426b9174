"""Stratification tests: orbit-type lattices, components, quotient structure."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from oracles import flood_fill_components, nearest_component, quotient_orbits_loop

from egdeg import domains as dom
from egdeg import groups as gr
from egdeg import strata as st
from egdeg.degree import GridRegion
from egdeg.errors import NotInStratum, ResolutionTooCoarse
from egdeg.params import Numerics

H, BBOX = 0.1, 2.0


@pytest.fixture(scope="module")
def d3():
    return gr.dihedral(3)


@pytest.fixture(scope="module")
def d3_punctured(d3):
    return st.iso_types(d3, dom.punctured_space(), H, BBOX)


def test_d3_punctured_types(d3, d3_punctured):
    lat = d3_punctured
    labels = lat.labels()
    assert labels == ["(H2a)", "(e)"]
    orders = [d3.lattice.records[c].order for c in lat.class_ids]
    assert orders == sorted(orders, reverse=True)


def test_z2_line_types():
    g = gr.antipodal(1)
    lat = st.iso_types(g, dom.full_space(), H, BBOX)
    assert lat.labels() == ["(G)", "(e)"]


def test_empty_domain_lattice():
    g = gr.antipodal(1)
    with pytest.warns(UserWarning, match="no exact-isotropy witness"):
        lat = st.iso_types(g, dom.ball(0.0), H, BBOX)
    assert lat.class_ids == []


def test_missing_witness_beside_present_class_raises(d3):
    # in ball(0.19) at h = 0.1 the mirror lines have witnesses but no cell
    # center clears them by h/2, so (e) would be dropped from the lattice
    with pytest.raises(ResolutionTooCoarse, match=r"\(e\)"):
        st.iso_types(d3, dom.ball(0.19), H, BBOX)


def test_linear_order_respects_partial_order(d3):
    lat = st.iso_types(d3, dom.full_space(), H, BBOX)
    sub = d3.lattice
    pos = {c: i for i, c in enumerate(lat.class_ids)}
    for a in lat.class_ids:
        for b in lat.class_ids:
            if sub.leq[a, b] and a != b:
                assert pos[b] < pos[a]


def test_reflection_stratum_components(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[0],
                         H, BBOX)
    assert len(s.components) == 2
    assert s.quotient_labels() == ["q0", "q1"]
    assert s.weyl_order == 1


def test_free_stratum_components(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[1],
                         H, BBOX)
    # oracle: a dihedral arrangement of 3 lines cuts the plane into 6 chambers
    assert len(s.components) == 6
    assert s.quotient_labels() == ["q0"]
    assert s.quotient.tolist() == s.rep.tolist() == [0] * 6
    assert s.stabilizer.tolist() == [1] * 6


def test_antipodal_plane_free_stratum():
    g = gr.antipodal(2)
    lat = st.iso_types(g, dom.punctured_space(), H, BBOX)
    s = st.build_stratum(g, dom.punctured_space(), lat.class_ids[0], H, BBOX)
    assert len(s.components) == 1
    assert s.quotient_labels() == ["q0"]
    assert s.stabilizer.tolist() == [2]


def test_orbit_size_times_stabilizer(d3, d3_punctured):
    for cid in d3_punctured.class_ids:
        s = st.build_stratum(d3, dom.punctured_space(), cid, H, BBOX)
        wh = s.weyl_order
        for c in range(len(s.components)):
            members = np.flatnonzero(s.quotient == s.quotient[c])
            assert len(members) * s.stabilizer[c] == wh


@functools.lru_cache(maxsize=None)
def _group(spec):
    if spec == "B3":  # the b3_stack bench group
        return gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                                   np.diag([-1.0, 1.0, 1.0])])
    return getattr(gr, spec[0])(spec[1])


_PLANAR = [(kind, n) for kind in ("dihedral", "cyclic") for n in range(1, 13)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=hs.sampled_from(_PLANAR + ["B3"]), pick=hs.integers(0, 63))
@example(spec=("dihedral", 3), pick=1)  # the D3 free stratum
def test_weyl_perm_composes_like_the_group(spec, pick):
    """The row of w1 after the row of w2 is the row of the coset of w1 w2."""
    g = _group(spec)
    omega, h, bbox = ((dom.full_space(), 0.25, 1.6) if spec == "B3"
                      else (dom.punctured_space(), H, BBOX))
    lat = st.iso_types(g, omega, h, bbox)
    cids = [c for c in lat.class_ids if g.lattice.records[c].fixed_dim > 0]
    s = st.build_stratum(g, omega, cids[pick % len(cids)], h, bbox)
    reps = list(s.record.weyl_coset_reps)
    perm = dict(zip(reps, s.weyl_perm.tolist()))
    members = set(s.record.member_indices)
    for w1, w2 in itertools.product(reps, repeat=2):
        prod = g.mul(w1, w2)
        rep_prod = next(r for r in reps if g.mul(g.inv(r), prod) in members)
        composed = [perm[w1][perm[w2][c]] for c in range(len(s.components))]
        assert composed == perm[rep_prod]


_TABLE_GROUPS = [(("dihedral", 3), H), (("dihedral", 4), 0.15), (("dihedral", 6), H),
                 (("cyclic", 6), 0.2), (("symmetric", 3), 0.25), (("symmetric", 4), 0.25),
                 ("B3", 0.25), (("antipodal", 2), H)]
_TABLE_DOMAINS = {"full": dom.full_space(), "punctured": dom.punctured_space(),
                  "ball": dom.ball(1.2), "annulus": dom.annulus(0.4, 1.5),
                  "two_annuli": dom.union(dom.annulus(0.3, 0.8), dom.annulus(1.2, 1.7))}


@pytest.mark.parametrize("spec, h", _TABLE_GROUPS, ids=lambda v: str(v))
def test_quotient_table_equals_orbit_search(spec, h):
    """On every stratum the representative of each component, the order of
    the quotient components and the stabilizer orders read off the table
    equal those of a breadth-first orbit search over its rows."""
    g = _group(spec)
    checked = 0
    for omega in _TABLE_DOMAINS.values():
        try:
            cids = st.iso_types(g, omega, h, BBOX).class_ids
        except ResolutionTooCoarse:
            continue
        for cid in cids:
            if g.lattice.records[cid].fixed_dim == 0:
                continue
            try:
                s = st.build_stratum(g, omega, cid, h, BBOX)
            except ResolutionTooCoarse:
                continue
            orbits = quotient_orbits_loop(s.record, s.components, s.weyl_perm.tolist())
            assert s.quotient_labels() == [o["quotient_label"] for o in orbits]
            for q, orb in enumerate(orbits):
                members = orb["members"]
                assert np.flatnonzero(s.quotient == q).tolist() == members
                assert s.rep[members].tolist() == [members[0]] * len(members)
                assert s.representative_component(f"q{q}").label == orb["min_label"]
                assert s.stabilizer[members].tolist() == [
                    orb["stabilizer_orders"][c] for c in members]
            checked += 1
    assert checked >= 5


def _rebuilt(s, weyl_perm):
    return st.Stratum(s.group, s.class_id, s.basis, s.h, s.bbox, s.cells,
                      s.cell_components, s.components, weyl_perm)


def test_table_not_closed_raises(d3, d3_punctured):
    # the free D3 stratum: six chambers, permuted regularly by the six Weyl
    # elements; a transposition in place of a rotation breaks the orbits
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[1], H, BBOX)
    assert np.array_equal(_rebuilt(s, s.weyl_perm.copy()).rep, s.rep)
    perm = s.weyl_perm.copy()
    row = next(i for i, r in enumerate(perm.tolist())
               if r[0] != 0 and sorted(r[:2]) != [0, 1])
    perm[row] = [1, 0, 2, 3, 4, 5]
    with pytest.raises(ResolutionTooCoarse, match="do not close into orbits"):
        _rebuilt(s, perm)
    # the table must start with the identity
    with pytest.raises(ResolutionTooCoarse, match="do not close into orbits"):
        _rebuilt(s, s.weyl_perm[::-1].copy())


def test_table_breaking_orbit_stabilizer_raises(d3, d3_punctured):
    # closed but not a group action: five identity rows and one transposition
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[1], H, BBOX)
    perm = np.tile(np.arange(6), (6, 1))
    perm[1, :2] = [1, 0]
    with pytest.raises(ResolutionTooCoarse,
                       match=r"orbit size 2 x stabilizer 5 != \|WH\|=6"):
        _rebuilt(s, perm)


def test_exact_isotropy_of_cells(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[0],
                         H, BBOX)
    for comp in s.components:
        for p in s.to_ambient(comp.centers[:50]):
            assert gr.isotropy(d3, p).class_id == s.class_id


def test_maximal_stratum_relatively_closed(d3):
    # cells of the maximal type form a relatively closed set among domain
    # cells: no free-stratum cell is adjacent to the missing band around a
    # reflection axis without the axis cells being excluded by distance.
    lat = st.iso_types(d3, dom.punctured_space(), H, BBOX)
    s_max = st.build_stratum(d3, dom.punctured_space(), lat.class_ids[0], H, BBOX)
    # every kept cell center of the maximal stratum has isotropy exactly H;
    # together with the h-exclusion band this realizes relative closedness
    for comp in s_max.components:
        assert s_max.singular.min_distance(s_max.to_ambient(comp.centers)).min() > H


def test_locate_on_axis(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[0],
                         H, BBOX)
    comp_pos, q_pos = st.locate(s, [1.0, 0.0])
    comp_neg, q_neg = st.locate(s, [-1.0, 0.0])
    assert comp_pos != comp_neg
    assert {q_pos, q_neg} == {"q0", "q1"}


def test_locate_rejects_larger_isotropy(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[1],
                         H, BBOX)
    with pytest.raises(NotInStratum):
        st.locate(s, [1.0, 0.0])


def test_locate_z2_line_quotient():
    g = gr.antipodal(1)
    lat = st.iso_types(g, dom.full_space(), H, BBOX)
    s = st.build_stratum(g, dom.full_space(), lat.class_ids[1], H, BBOX)
    c1, q1 = st.locate(s, [-0.5])
    c2, q2 = st.locate(s, [0.5])
    assert c1 != c2 and q1 == q2 == "q0"


def _loop_components(pts, cells, cell_components, h, radius):
    found = [nearest_component(u, cells, cell_components, h, radius) for u in pts]
    return np.array([-1 if c is None else c for c in found])


def test_components_of_equals_point_loop(d3, d3_punctured):
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[-1], H, BBOX)
    rng = np.random.default_rng(5)
    cells = s.cells.astype(float)
    pts = np.concatenate([rng.uniform(-BBOX, BBOX, size=(400, 2)),
                          (cells[::7] + 0.5) * H, cells[::5] * H,
                          (cells[::9] + rng.uniform(-1, 2, size=(1, 2))) * H])
    want = _loop_components(pts, s.cells, s.cell_components, H, H)
    assert np.array_equal(s.components_of(pts), want)
    assert {-1, 0, 1} <= set(want.tolist())
    for i, region in enumerate(s.components):
        assert np.array_equal(GridRegion(s, region).contains(pts), want == i)


def test_cells_are_sorted_component_rows(d3, d3_punctured):
    # the kept cells in lexicographic order, each component's cells the
    # rows of its index, its label the first of them
    s = st.build_stratum(d3, dom.punctured_space(), d3_punctured.class_ids[-1], H, BBOX)
    order = np.lexsort(s.cells.T[::-1])
    assert np.array_equal(order, np.arange(len(s.cells)))
    assert len(s.cells) == len(s.cell_components) == sum(
        len(c.cells) for c in s.components)
    for comp in s.components:
        rows = s.cell_components == comp.index
        assert np.array_equal(comp.cells, s.cells[rows])
        assert comp.label == tuple(comp.cells[0].tolist())
        assert st.row_positions(comp.cells, s.cells).tolist() == \
            np.flatnonzero(rows).tolist()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nearest_components_ties_and_radius(k):
    h = 0.25
    rng = np.random.default_rng(k)
    grid = np.array(list(itertools.product(range(-3, 3), repeat=k)))
    keep = rng.uniform(size=len(grid)) < 0.6
    cells, comps = grid[keep], rng.integers(0, 4, size=int(keep.sum()))
    # grid vertices are equidistant from the 2^k cells around them, so the
    # first of those in offset order wins; the rest are random points
    pts = np.concatenate([grid.astype(float) * h,
                          rng.uniform(-1, 1, size=(300, k))])
    for radius in (h, 0.5 * np.sqrt(k) * h, 1.2 * h * np.sqrt(k)):
        want = _loop_components(pts, cells, comps, h, radius)
        assert np.array_equal(st.nearest_components(pts, cells, comps, h, radius), want)
    # a lone cell: a point exactly at the radius is in, the next float out
    lone = np.zeros((1, k), dtype=int), np.array([7])
    at = np.full(k, 0.125)
    at[0] += h
    past = at.copy()
    past[0] = np.nextafter(at[0], np.inf)
    got = st.nearest_components(np.stack([at, past]), *lone, h, h)
    assert got.tolist() == _loop_components([at, past], *lone, h, h).tolist() == [7, -1]
    around = np.array(list(itertools.product((-1, 0), repeat=k)))
    origin = st.nearest_components(np.zeros((1, k)), around, np.arange(len(around)),
                                   h, h)
    assert origin.tolist() == [0]
    assert st.nearest_components(np.empty((0, k)), *lone, h, h).shape == (0,)


def test_halving_never_decreases_components(d3, d3_punctured):
    for cid in d3_punctured.class_ids:
        coarse = st.build_stratum(d3, dom.punctured_space(), cid, H, BBOX)
        fine = st.build_stratum(d3, dom.punctured_space(), cid, H / 2, BBOX)
        assert len(fine.components) >= len(coarse.components)
        # chambers do not depend on the grid: the same quotient at h/2, and
        # every coarse component's cells land in one fine component
        assert fine.quotient_labels() == coarse.quotient_labels()
        for comp in coarse.components:
            assert len(set(fine.components_of(comp.centers).tolist())) == 1


def test_two_annuli_keep_labels(d3):
    omega = dom.union(dom.annulus(0.3, 0.8), dom.annulus(1.2, 1.7))
    lat = st.iso_types(d3, omega, H, BBOX)
    axis, free = (st.build_stratum(d3, omega, c, H, BBOX) for c in lat.class_ids)
    assert [c.label_str for c in axis.components] == ["c-17", "c-8", "c3", "c12"]
    assert len(free.components) == 12
    assert free.quotient_labels() == ["q0", "q1"]
    assert np.bincount(free.quotient).tolist() == [6, 6]


@pytest.mark.parametrize("omega, labels", [
    (dom.annulus(0.5, 1.5), ["c-15", "c5"]),
    # the half-lines meet at the excluded origin, between cells (-1,) and (0,)
    (dom.punctured_space(), ["c-20", "c0"]),
    (dom.ball(1.5), ["c-15"]),
    (dom.union(dom.ball(0.3), dom.annulus(1.0, 1.5)), ["c-15", "c-3", "c10"]),
])
def test_line_without_walls(omega, labels):
    g = gr.trivial(1)
    s = st.build_stratum(g, omega, st.iso_types(g, omega, H, BBOX).class_ids[0],
                         H, BBOX)
    assert [c.label_str for c in s.components] == labels
    assert s.quotient_labels() == [f"q{i}" for i in range(len(labels))]


def test_touching_radial_pieces_merge(d3):
    # ball(1) and annulus(0.5, 1.5) overlap: their radii split nothing
    omega = dom.union(dom.ball(1.0), dom.annulus(0.5, 1.5))
    lat = st.iso_types(d3, omega, H, BBOX)
    counts = [len(st.build_stratum(d3, omega, c, H, BBOX).components)
              for c in lat.class_ids if d3.lattice.records[c].fixed_dim > 0]
    assert counts == [2, 6]


@pytest.mark.parametrize("spec, omega, h, bbox", [
    (("dihedral", 3), dom.punctured_space(), H, BBOX),
    ("B3", dom.full_space(), 0.25, 1.6),
    (("symmetric", 3), dom.full_space(), 0.15, 1.6),
])
def test_chambers_equal_flood_fill(spec, omega, h, bbox):
    g = _group(spec)
    for cid in st.iso_types(g, omega, h, bbox).class_ids:
        if g.lattice.records[cid].fixed_dim == 0:
            continue
        s = st.build_stratum(g, omega, cid, h, bbox)
        assert [c.cells.tolist() for c in s.components] == \
            [b.tolist() for b in flood_fill_components(s.cells)]


def test_weyl_image_without_kept_cell_raises():
    # D32's free chambers are 5.6 degree wedges; at h = 0.1 some hold kept
    # cells while their mirror images hold none
    g = gr.dihedral(32)
    with pytest.raises(ResolutionTooCoarse, match="no kept cell"):
        st.build_stratum(g, dom.punctured_space(), g.lattice.n_classes - 1, H, BBOX)


def test_s3_lattice_skips_coincident_fixed_space():
    g = gr.symmetric(3)
    lat = st.iso_types(g, dom.full_space(), 0.15, 1.6)
    assert lat.labels() == ["(G)", "(H2a)", "(e)"]  # (H3a) has no stratum


def test_domain_invariance_validation():
    g = gr.dihedral(3)
    dom.validate_invariance(dom.punctured_space(), g, BBOX)
    dom.validate_invariance(dom.annulus(0.5, 1.5), g, BBOX)


def test_stratum_memo_on_the_lattice():
    num = Numerics(grid_h=H, bbox=BBOX)
    omega = dom.punctured_space()
    first, second, c6 = gr.dihedral(3), gr.dihedral(3), gr.cyclic(6)
    # (e) has class id 3 in both D3 and C6: each lattice holds its own strata
    free = first.lattice.n_classes - 1
    assert free == c6.lattice.n_classes - 1 == 3
    s1 = st.cached_stratum(first, omega, free, num)
    assert st.cached_stratum(first, dom.punctured_space(), free, num) is s1
    s2 = st.cached_stratum(second, omega, free, num)
    assert s2 is not s1 and s2.cells.tobytes() == s1.cells.tobytes()
    s_c6 = st.cached_stratum(c6, omega, free, num)
    assert (len(s1.components), len(s_c6.components)) == (6, 1)
    assert st.cached_stratum(first, omega, free, num.with_(grid_h=H / 2)) is not s1
