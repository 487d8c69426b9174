"""Potential layer tests: parsing, exact calculus, invariance validation."""
import numpy as np
import pytest
from oracles import eval_terms

from egdeg import groups as gr
from egdeg import potentials as pt
from egdeg.errors import ConfigError, NotInvariant
from egdeg.tubes import SubspaceFamily


def fd_gradient(pot, pts, step=1e-6):
    out = np.empty((len(pts), pot.dim))
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = step
        out[:, j] = (pot.value(pts + e) - pot.value(pts - e)) / (2 * step)
    return out


class TestParser:
    def test_simple(self):
        p = pt.PolynomialPotential.from_expression("x1^2 + 2*x2", 2)
        assert p.value(np.array([[3.0, 4.0]]))[0] == pytest.approx(17.0)

    def test_precedence_and_parens(self):
        p = pt.PolynomialPotential.from_expression("(x1 - 1)^2 * 0.5 + x1", 1)
        assert p.value(np.array([[3.0]]))[0] == pytest.approx(5.0)

    def test_unary_minus_binds_after_power(self):
        p = pt.PolynomialPotential.from_expression("-x1^2", 1)
        assert p.value(np.array([[2.0]]))[0] == pytest.approx(-4.0)

    def test_scientific_floats(self):
        p = pt.PolynomialPotential.from_expression("1e-2*x1", 1)
        assert p.value(np.array([[2.0]]))[0] == pytest.approx(0.02)

    def test_rejects_unknown_variable(self):
        with pytest.raises(ConfigError):
            pt.PolynomialPotential.from_expression("x3 + 1", 2)

    def test_rejects_division(self):
        with pytest.raises(ConfigError):
            pt.PolynomialPotential.from_expression("x1/2", 1)


class TestCalculus:
    def test_gradient_matches_finite_differences(self):
        p = pt.PolynomialPotential.from_expression(
            "(x1^2-1)^2 + x1*x2^2 + 0.3*x2^3", 2)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(50, 2))
        assert np.allclose(p.grad(pts), fd_gradient(p, pts), atol=1e-6)

    def test_hessian_symmetric_and_exact(self):
        p = pt.PolynomialPotential.from_expression("x1^3*x2 + x2^2", 2)
        pts = np.array([[1.0, 2.0]])
        h = p.hess(pts)[0]
        assert h[0, 1] == h[1, 0] == pytest.approx(3.0)
        assert h[0, 0] == pytest.approx(12.0)
        assert h[1, 1] == pytest.approx(2.0)

    def test_radial_from_r2(self):
        p = pt.PolynomialPotential.radial_from_r2_poly({2: 0.25, 1: -0.5}, 2)
        x = np.array([[0.6, 0.8]])
        assert p.value(x)[0] == pytest.approx(0.25 - 0.5)

    def test_scaled(self):
        p = pt.PolynomialPotential.from_expression("x1^2", 1).scaled(3.0)
        assert p.grad(np.array([[2.0]]))[0, 0] == pytest.approx(12.0)


def random_terms(rng, dim, n=12):
    terms = {tuple(int(p) for p in rng.integers(0, 5, size=dim)): float(rng.normal())
             for _ in range(n)}
    terms[(0,) * dim] = float(rng.normal())
    return terms


def oracle_value_grad_hess(pot, pts):
    """value, grad and hess of the potential from term-by-term ``**`` sums."""
    grads = [dict(sorted(pt.poly_diff(pot.terms, j).items())) for j in range(pot.dim)]
    hess = [[dict(sorted(pt.poly_diff(g, j).items())) for j in range(pot.dim)]
            for g in grads]
    return (eval_terms(pot.terms, pts),
            np.stack([eval_terms(g, pts) for g in grads], axis=1),
            np.stack([np.stack([eval_terms(t, pts) for t in row], axis=1)
                      for row in hess], axis=1))


class TestPowerTable:
    """The power-table kernel against term-by-term evaluation with ``**``."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bitwise_on_dyadic_grid(self, dim):
        # every power of a grid point k/8 in [-2, 2] is exact, so the two
        # forms differ only in how they reach the powers; the products and
        # sums after that run in the same order and round alike
        rng = np.random.default_rng(dim)
        pts = rng.integers(-16, 17, size=(3000, dim)) / 8.0
        for terms in (random_terms(rng, dim), {(0,) * dim: -1.5}, {}):
            pot = pt.PolynomialPotential(terms, dim)
            for got, want in zip((pot.value(pts), pot.grad(pts), pot.hess(pts)),
                                 oracle_value_grad_hess(pot, pts)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_close_on_random_points(self, dim):
        rng = np.random.default_rng(20 + dim)
        pts = rng.uniform(-3, 3, size=(3000, dim))
        pot = pt.PolynomialPotential(random_terms(rng, dim), dim)
        # relative to the sum of the terms' magnitudes, so cancellation in
        # the sum does not count against the kernel
        size = oracle_value_grad_hess(
            pt.PolynomialPotential({e: abs(c) for e, c in pot.terms.items()}, dim),
            np.abs(pts))
        for got, want, scale in zip((pot.value(pts), pot.grad(pts), pot.hess(pts)),
                                    oracle_value_grad_hess(pot, pts), size):
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(7)
        pot = pt.PolynomialPotential(random_terms(rng, 3), 3)
        pts = rng.uniform(-2, 2, size=(pt.POWER_BLOCK + 1, 3))
        for f in (pot.value, pot.grad, pot.hess):
            batch = f(pts)
            alone = np.concatenate([f(p[None]) for p in pts])
            assert batch.tobytes() == alone.tobytes()

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(8)
        pot = pt.PolynomialPotential(random_terms(rng, 4), 4)
        h = pot.hess(rng.uniform(-2, 2, size=(500, 4)))
        assert h.tobytes() == np.swapaxes(h, 1, 2).copy().tobytes()

    def test_empty_batch(self):
        pot = pt.PolynomialPotential({(2, 1): 1.0}, 2)
        pts = np.empty((0, 2))
        assert pot.value(pts).shape == (0,)
        assert pot.grad(pts).shape == (0, 2)
        assert pot.hess(pts).shape == (0, 2, 2)


class TestOrbitWell:
    def test_value_and_gradient(self):
        w = pt.OrbitWellPotential(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        z = np.array([[1.2, 0.1]])
        assert w.value(z)[0] == pytest.approx(0.5 * (0.04 + 0.01))
        assert np.allclose(w.grad(z)[0], [0.2, 0.1])
        assert np.allclose(w.hess(z)[0], np.eye(2))

    def test_dispatch_to_nearest(self):
        w = pt.OrbitWellPotential(np.array([[1.0], [-1.0]]))
        assert np.allclose(w.grad(np.array([[-0.7]]))[0], [0.3])


class TestLifted:
    def test_value_splits(self):
        basis = np.array([[1.0], [0.0]])
        fam = SubspaceFamily([basis])
        k = pt.PolynomialPotential.from_expression("x1^2", 1)
        lift = pt.LiftedPotential(k, fam)
        z = np.array([[0.5, 0.2]])
        assert lift.value(z)[0] == pytest.approx(0.25 + 0.5 * 0.04)
        assert np.allclose(lift.grad(z)[0], [1.0, 0.2])

    def test_hessian_block_structure(self):
        basis = np.array([[1.0], [0.0]])
        lift = pt.LiftedPotential(
            pt.PolynomialPotential.from_expression("x1^2", 1),
            SubspaceFamily([basis]))
        h = lift.hess(np.array([[0.5, 0.2]]))[0]
        assert np.allclose(h, np.diag([2.0, 1.0]))


class TestValidation:
    def test_even_potential_passes(self):
        g = gr.antipodal(1)
        p = pt.PolynomialPotential.from_expression("0.5*x1^2", 1)
        pt.validate_invariance(p, g, 2.0)
        pt.validate_gradient_consistency(p, 2.0)

    def test_odd_potential_rejected(self):
        g = gr.antipodal(1)
        p = pt.PolynomialPotential.from_expression("x1^3", 1)
        with pytest.raises(NotInvariant):
            pt.validate_invariance(p, g, 2.0)

    def test_radial_invariant_under_dihedral(self):
        g = gr.dihedral(3)
        p = pt.PolynomialPotential.from_expression("(x1^2 + x2^2)^2", 2)
        pt.validate_invariance(p, g, 2.0)

    def test_descriptor_roundtrip(self):
        p = pt.PolynomialPotential.from_expression("(x1^2-1)^2 + x2^2", 2)
        q = pt.potential_from_descriptor(p.descriptor())
        pts = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
        assert np.array_equal(p.value(pts), q.value(pts))
        assert np.array_equal(p.grad(pts), q.grad(pts))
