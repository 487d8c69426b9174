"""Group engine tests: closure, lattice, fixed spaces, isotropy, orbits.

Derived expectations are computed by independent brute-force oracles in this
file (repeated multiplication for closures, subset enumeration for subgroup
lattices) rather than trusted from the implementation under test.
"""
import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (conjugate_bases_loop, orbit_loop, singular_family_loop,
                     subgroup_lattice_loop)

from egdeg import groups as gr
from egdeg.errors import ClosureOverflow, IsotropyAmbiguous, NotOrthogonal


def brute_force_closure(mats, tol=1e-8, cap=200):
    """Oracle: close a set of matrices under multiplication by brute force."""
    elems = [np.eye(mats[0].shape[0])]
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in mats:
                p = b @ a
                if not any(np.max(np.abs(p - e)) <= tol for e in elems):
                    elems.append(p)
                    changed = True
                    assert len(elems) <= cap
    return elems


def brute_force_subgroups(group):
    """Oracle: all subgroups by testing every subset containing the identity."""
    n = group.order
    out = []
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            if 0 not in subset:
                continue
            s = set(subset)
            closed = all(group.mul(i, j) in s for i in s for j in s)
            if closed and all(group.inv(i) in s for i in s):
                out.append(frozenset(s))
    return out


def bfs_closure(group, seed):
    """Oracle: subgroup generated by seed, by BFS over scalar products."""
    members = set(seed) | {0}
    queue = list(members)
    while queue:
        i = queue.pop()
        for j in list(members):
            for k in (group.mul(i, j), group.mul(j, i)):
                if k not in members:
                    members.add(k)
                    queue.append(k)
        inv = group.inv(i)
        if inv not in members:
            members.add(inv)
            queue.append(inv)
    return frozenset(members)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def hyperoctahedral3():
    """B3: signed 3 x 3 permutation matrices, order 48."""
    return gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                               np.diag([-1.0, 1.0, 1.0])])


def d4_z2():
    """D4 on the (x, y) plane times {1, -1} on z, order 16."""
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return gr.from_generators([quarter, np.diag([1.0, -1.0, 1.0]),
                               np.diag([1.0, 1.0, -1.0])])


def sign_group(d):
    """(Z2)^d: the coordinate sign flips of d-space, order 2^d."""
    return gr.from_generators([np.diag(np.where(np.arange(d) == i, -1.0, 1.0))
                               for i in range(d)])


# larger groups for the lattice properties, besides each test's own cases
PROPERTY_GROUPS = [(hyperoctahedral3, "B3"), (lambda: gr.symmetric(4), "S4"),
                   (lambda: gr.dihedral(32), "D32"), (d4_z2, "D4xZ2")]


def group_cases(cases):
    """Parametrize ``make`` over (factory, id) pairs."""
    return pytest.mark.parametrize("make", [m for m, _ in cases],
                                   ids=[i for _, i in cases])


def property_cases(*own):
    """Parametrize ``make`` over the pairs ``own`` and then PROPERTY_GROUPS."""
    return group_cases(list(own) + PROPERTY_GROUPS)


def all_subgroups(lat):
    return [frozenset(s) for cls in lat.class_members for s in cls]


def conjugacy_classes_of(group, subgroups):
    classes = []
    seen = set()
    for s in subgroups:
        if s in seen:
            continue
        conj = {frozenset(group.conj(g, h) for h in s) for g in range(group.order)}
        classes.append(conj)
        seen |= conj
    return classes


# ---------------------------------------------------------------------------
# close_group


def test_antipodal_line_order_two():
    g = gr.close_group([-np.eye(1)])
    assert g.order == 2
    assert np.allclose(g.elements[0], np.eye(1))


def test_d3_closure_matches_brute_force():
    gens = [gr.rotation2(2 * np.pi / 3), gr.reflection2(0.0)]
    oracle = brute_force_closure(gens)
    g = gr.close_group(gens)
    assert g.order == len(oracle) == 6


def test_closure_overflow():
    with pytest.raises(ClosureOverflow):
        gr.close_group([gr.rotation2(2 * np.pi / 3)], cap=2)


def test_not_orthogonal_rejected():
    with pytest.raises(NotOrthogonal):
        gr.close_group([np.array([[1.0, 0.4], [0.0, 1.0]])])


def test_identity_first_and_tables_consistent():
    g = gr.dihedral(4)
    assert np.allclose(g.elements[0], np.eye(2))
    rng = np.random.default_rng(0)
    for _ in range(100):
        i, j, k = rng.integers(0, g.order, size=3)
        assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))
    for i in range(g.order):
        assert g.mul(i, g.inv(i)) == 0


def test_closure_products_match_unique_elements():
    g = gr.symmetric(3)
    for i in range(g.order):
        for j in range(g.order):
            prod = g.elements[i] @ g.elements[j]
            gaps = np.max(np.abs(g.elements - prod[None]), axis=(1, 2))
            assert np.sum(gaps <= 1e-8) == 1


# ---------------------------------------------------------------------------
# subgroup lattice


def test_transform_hash_agrees_with_eq():
    # entries +-1e-12 round to 0.0 and -0.0, whose bytes differ
    def rotation(angle):
        c, s = np.cos(angle), np.sin(angle)
        return gr.OrthogonalTransform(np.array([[c, -s], [s, c]]))

    a, b = rotation(1e-12), rotation(-1e-12)
    assert a == b
    assert len({a, b}) == 1


def test_z2_lattice():
    g = gr.antipodal(1)
    lat = g.lattice
    assert lat.n_classes == 2
    orders = [r.order for r in lat.records]
    assert orders == [2, 1]
    # (e) <= (Z2), maximal first in class ids
    e = next(r.class_id for r in lat.records if r.order == 1)
    z2 = next(r.class_id for r in lat.records if r.order == 2)
    assert lat.leq[e, z2] and not lat.leq[z2, e]


@pytest.mark.parametrize("make", [gr.dihedral, lambda n: gr.symmetric(n)])
def test_d3_and_s3_have_isomorphic_four_class_lattice(make):
    g = make(3)
    oracle_subs = brute_force_subgroups(g)
    oracle_classes = conjugacy_classes_of(g, oracle_subs)
    assert len(oracle_classes) == 4
    lat = g.lattice
    assert lat.n_classes == 4
    assert sorted(r.order for r in lat.records) == [1, 2, 3, 6]
    # every enumerated subgroup appears in the oracle enumeration
    flat = {s for cls in lat.class_members for s in map(frozenset, cls)}
    assert flat == set(oracle_subs)


@pytest.mark.parametrize("n", range(3, 33))
def test_dihedral_subgroup_count(n):
    # D_n has one cyclic subgroup <r^(n/d)> per divisor d of n, and d
    # dihedral subgroups of each index d: tau(n) + sigma(n) in all
    subs = all_subgroups(gr.dihedral(n).lattice)
    assert len(set(subs)) == len(subs) == len(divisors(n)) + sum(divisors(n))


@pytest.mark.parametrize("n", range(1, 33))
def test_cyclic_subgroup_count(n):
    # C_n has exactly one subgroup of each order dividing n
    subs = all_subgroups(gr.cyclic(n).lattice)
    assert sorted(len(s) for s in subs) == divisors(n)


@pytest.mark.parametrize("make,n_subgroups,n_classes", [
    (lambda: gr.symmetric(4), 30, 11),
    (hyperoctahedral3, 98, 33),
])
def test_subgroup_and_class_counts(make, n_subgroups, n_classes):
    lat = make().lattice
    subs = all_subgroups(lat)
    assert len(set(subs)) == len(subs) == n_subgroups
    assert lat.n_classes == n_classes


@pytest.mark.parametrize("make", [lambda: gr.dihedral(6), lambda: gr.symmetric(4),
                                  hyperoctahedral3])
def test_every_subgroup_closed_under_mul_table(make):
    g = make()
    for s in all_subgroups(g.lattice):
        idx = sorted(s)
        assert set(g.mul_table[np.ix_(idx, idx)].ravel().tolist()) <= s
        assert set(g.inv_table[idx].tolist()) <= s


@pytest.mark.parametrize("make", [lambda: gr.dihedral(6), lambda: gr.symmetric(4)])
def test_every_two_generated_subgroup_enumerated(make):
    g = make()
    subs = set(all_subgroups(g.lattice))
    for i, j in itertools.combinations_with_replacement(range(g.order), 2):
        assert bfs_closure(g, {i, j}) in subs


def test_lattice_time_gate():
    # on a 2-core x86 VM, joining all pairs of known subgroups took about
    # 10 s for B3, and extending the class representatives takes about
    # 0.04 s for B3 and 0.035 s for D32
    for g in [hyperoctahedral3(), gr.dihedral(32)]:
        start = time.perf_counter()
        g.lattice
        assert time.perf_counter() - start < 0.5


LATTICE_ORACLE_GROUPS = (
    [(lambda: gr.antipodal(1), "antipodal1"), (lambda: gr.trivial(2), "trivial2")]
    + [(functools.partial(gr.cyclic, n), f"C{n}") for n in range(1, 13)]
    + [(functools.partial(gr.dihedral, n), f"D{n}") for n in range(2, 13)]
    + [(lambda: gr.dihedral(32), "D32"), (lambda: gr.symmetric(3), "S3"),
       (lambda: gr.symmetric(4), "S4"), (hyperoctahedral3, "B3"),
       (d4_z2, "D4xZ2"), (lambda: sign_group(4), "Z2^4")])


@group_cases(LATTICE_ORACLE_GROUPS)
def test_lattice_equals_loop(make):
    g = make()
    lat = g.lattice
    records, class_members, leq = subgroup_lattice_loop(g)
    assert len(lat.records) == len(records)
    for got, want in zip(lat.records, records):
        assert got.member_indices == want.member_indices
        assert got.order == want.order
        assert got.normalizer_indices == want.normalizer_indices
        assert got.weyl_coset_reps == want.weyl_coset_reps
        assert got.class_id == want.class_id
        assert got.fixed_basis.shape == want.fixed_basis.shape
        assert got.fixed_basis.tobytes() == want.fixed_basis.tobytes()
    assert lat.class_members == class_members
    assert lat.leq.dtype == leq.dtype and lat.leq.shape == leq.shape
    assert lat.leq.tobytes() == leq.tobytes()


@pytest.fixture(scope="module")
def b3_and_loop_lattice():
    g = hyperoctahedral3()
    return g, subgroup_lattice_loop(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gens=st.lists(st.integers(0, 47), min_size=1, max_size=3))
def test_generated_subgroup_of_b3_in_loop_class(b3_and_loop_lattice, gens):
    g, (_, class_members, _) = b3_and_loop_lattice
    members = bfs_closure(g, gens)
    cid = g.lattice.class_of_members(members)
    assert tuple(sorted(members)) in class_members[cid]


def test_class_of_members_round_trip():
    g = gr.symmetric(3)
    lat = g.lattice
    for cid, sets in enumerate(lat.class_members):
        for s in sets:
            assert lat.class_of_members(frozenset(s)) == cid
    with pytest.raises(KeyError):
        lat.class_of_members(frozenset({0, 1, 2, 3}))  # 4 does not divide 6


@property_cases((lambda: gr.dihedral(3), "D3"))
def test_class_representative_is_lex_smallest(make):
    lat = make().lattice
    for rec, members in zip(lat.records, lat.class_members):
        assert rec.member_indices == min(members)


def conjugate_of(g, x, members):
    return frozenset(g.conj(x, h) for h in members)


@property_cases((lambda: gr.dihedral(3), "D3"), (lambda: gr.symmetric(3), "S3"),
                (lambda: gr.cyclic(4), "C4"))
def test_weyl_coset_count(make):
    g = make()
    for rec in g.lattice.records:
        assert rec.weyl_order * rec.order == len(rec.normalizer_indices)
        # oracle: the normalizer and its cosets by brute force over sets
        h = frozenset(rec.member_indices)
        normalizer = {x for x in range(g.order) if conjugate_of(g, x, h) == h}
        assert set(rec.normalizer_indices) == normalizer
        assert set(rec.weyl_coset_reps) <= normalizer
        cosets = {frozenset(g.mul(w, k) for k in h) for w in rec.weyl_coset_reps}
        assert len(cosets) == rec.weyl_order == len(normalizer) // len(h)


@property_cases((lambda: gr.dihedral(3), "D3"))
def test_conjugate_subgroup_same_class(make):
    g = make()
    lat = g.lattice
    for cid, members in enumerate(lat.class_members):
        base = set(members[0])
        for h in range(g.order):
            conj = frozenset(g.conj(h, x) for x in base)
            assert conj in set(map(frozenset, members))


@property_cases((lambda: gr.symmetric(3), "S3"))
def test_leq_is_subconjugacy(make):
    g = make()
    lat = g.lattice
    reps = [frozenset(rec.member_indices) for rec in lat.records]
    for a, rep_a in enumerate(reps):
        conjugates = {conjugate_of(g, x, rep_a) for x in range(g.order)}
        for b, rep_b in enumerate(reps):
            assert lat.leq[a, b] == any(c <= rep_b for c in conjugates)


# ---------------------------------------------------------------------------
# fixed subspaces


def test_fixed_subspace_trivial_subgroup_is_full():
    g = gr.symmetric(3)
    basis = gr.fixed_subspace(g, [0])
    assert basis.shape == (3, 3)
    proj = basis @ basis.T
    assert np.max(np.abs(proj - np.eye(3))) < 1e-9


def test_fixed_subspace_s3_is_diagonal_line():
    g = gr.symmetric(3)
    basis = gr.fixed_subspace(g, range(g.order))
    assert basis.shape == (3, 1)
    assert np.allclose(np.abs(basis[:, 0]), 1 / np.sqrt(3), atol=1e-9)


def test_fixed_subspace_reflection_axis():
    g = gr.dihedral(3)
    refl = next(i for i in range(6)
                if np.max(np.abs(g.elements[i] - gr.reflection2(0.0))) < 1e-8)
    # oracle: kernel of (reflection - I) is the x axis
    basis = gr.fixed_subspace(g, [0, refl])
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-9)


def test_fixed_dim_monotone_along_order():
    lat = gr.symmetric(3).lattice
    for a in range(lat.n_classes):
        for b in range(lat.n_classes):
            if lat.leq[a, b]:
                assert lat.records[b].fixed_dim <= lat.records[a].fixed_dim


def test_fixed_projector_invariant_under_class_representative():
    g = gr.dihedral(3)
    lat = g.lattice
    for cid, members in enumerate(lat.class_members):
        projs = []
        for s in members:
            b = gr.fixed_subspace(g, s)
            projs.append(b @ b.T)
        # conjugate subgroups have conjugate fixed spaces; projector norms agree
        dims = {np.linalg.matrix_rank(p, tol=1e-9) for p in projs}
        assert len(dims) == 1


@pytest.mark.parametrize("group", [
    gr.dihedral(3), gr.dihedral(6), gr.symmetric(4),
    gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                        np.diag([-1.0, 1.0, 1.0])])], ids=["D3", "D6", "S4", "B3"])
def test_class_geometry_equals_loops(group):
    lat = group.lattice
    for cid in range(lat.n_classes):
        family, singular = lat.family(cid), lat.singular(cid)
        want = conjugate_bases_loop(group, cid)
        assert len(family.bases) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(family.bases, want))
        want = singular_family_loop(group, cid)
        assert (singular is None) == (not want)
        got = singular.bases if singular is not None else []
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        basis = lat.records[cid].fixed_basis
        want = [basis.T @ group.elements[w] @ basis
                for w in lat.records[cid].weyl_coset_reps]
        got = lat.weyl_matrices(cid)
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        # built once: later reads return the same objects
        assert lat.family(cid) is family and lat.singular(cid) is singular
        assert lat.weyl_matrices(cid) is got


# ---------------------------------------------------------------------------
# isotropy and orbits


def test_isotropy_diagonal_full_group():
    g = gr.symmetric(3)
    iso = gr.isotropy(g, np.array([1.0, 1.0, 1.0]))
    assert iso.order == 6


def test_isotropy_transposition_oracle():
    g = gr.symmetric(3)
    x = np.array([1.0, 1.0, 0.0])
    # oracle: test all six permutation matrices directly
    fixing = [i for i in range(6) if np.allclose(g.apply(i, x), x, atol=1e-12)]
    iso = gr.isotropy(g, x)
    assert set(iso.member_indices) == set(fixing)
    assert iso.order == 2


def test_isotropy_ambiguous_band():
    g = gr.dihedral(3)
    with pytest.raises(IsotropyAmbiguous):
        gr.isotropy(g, np.array([1.0, 1e-6]))


def test_orbit_z2_line():
    g = gr.antipodal(1)
    pts = gr.orbit(g, [1.0])
    assert sorted(pts.ravel().tolist()) == [-1.0, 1.0]


def test_orbit_on_reflection_axis_has_three_points():
    g = gr.dihedral(3)
    pts = gr.orbit(g, [1.0, 0.0])
    assert pts.shape == (3, 2)


def test_orbit_of_origin():
    for g in [gr.dihedral(3), gr.symmetric(3)]:
        pts = gr.orbit(g, np.zeros(g.dim))
        assert pts.shape == (1, g.dim)


def test_orbit_isotropy_product():
    g = gr.symmetric(3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=3)
        try:
            iso = gr.isotropy(g, x)
        except IsotropyAmbiguous:
            continue
        assert len(gr.orbit(g, x)) * iso.order == g.order


@pytest.mark.parametrize("group", [
    gr.from_generators([np.eye(3)[[1, 0, 2]], np.eye(3)[[1, 2, 0]],
                        np.diag([-1.0, 1.0, 1.0])]),
    gr.dihedral(12)], ids=["B3", "D12"])
def test_orbit_rows_equal_loop(group):
    """Row order and near-duplicate handling of ``orbit`` against a loop."""
    rng = np.random.default_rng(group.order)
    pts = rng.uniform(-1, 1, size=(6, group.dim))
    on_axis = pts[:3] * np.array([1.0] + [0.0] * (group.dim - 1))
    # repeated points, points on mirrors and the origin, near copies 0.6e-9
    # apart, and points 0.6e-9 off a mirror, whose images pair up within
    # MATCH_TOL
    pts = np.concatenate([pts, pts[:2], np.zeros((1, group.dim)), on_axis,
                          pts[:2] + 0.6e-9, pts[:2] + 1.2e-9,
                          on_axis + 0.6e-9 * np.eye(group.dim)[-1]])
    for x in pts:
        got, want = gr.orbit(group, x), orbit_loop(group, x)
        assert got.shape == want.shape and np.array_equal(got, want)
