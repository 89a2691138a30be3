import numpy as np
import pytest

from explab import bundle, checks
from explab.bundle import (BundleMap, DegenerateSectionError, Section,
                           TimeGrid, apply_bundle_map, direct_integral_norm,
                           fiber_inner, phase_bundle_map, ray_equivalent,
                           uniform_grid)


def random_section(rng, grid, d):
    f = rng.normal(size=(grid.size, d)) + 1j * rng.normal(size=(grid.size, d))
    return Section(grid, f)


def random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestGridAndSection:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0], [1.0])
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TimeGrid([0.0, 1.0], [1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_refuses_non_finite_nodes_and_weights(self, bad):
        # NaN compares False both ways, so only a gate that asserts the good case stops it
        for nodes in ([0.0, bad, 2.0], [bad, 1.0, 2.0], [0.0, 1.0, bad], [bad, bad, bad]):
            with pytest.raises(ValueError, match="^nodes must be strictly increasing$"):
                TimeGrid(nodes, [1.0, 1.0, 1.0])
        for weights in ([1.0, bad, 1.0], [bad, bad, bad]):
            with pytest.raises(ValueError, match="^need one positive weight per node$"):
                TimeGrid([0.0, 1.0, 2.0], weights)

    @pytest.mark.parametrize("nodes", [[-1e308, 1e308], [-1e308, 0.0, 1e308],
                                       [0.0, 1e308, -1e308, 1.0]])
    def test_grid_refuses_a_span_that_overflows(self, nodes):
        # finite nodes whose difference overflows: a ValueError, not the
        # RuntimeWarning of an overflowing subtraction
        with pytest.raises(ValueError, match="^nodes must be strictly increasing$"):
            TimeGrid(nodes, [1.0] * len(nodes))

    def test_grid_admits_a_wide_finite_span(self):
        assert TimeGrid([-8e307, 0.0, 8e307], [1.0, 1.0, 1.0]).size == 3

    def test_section_shape_validation(self):
        grid = uniform_grid(0, 1, 4)
        with pytest.raises(ValueError):
            Section(grid, np.zeros((3, 2)))


class TestInnerProducts:
    def test_self_inner_nonnegative_real(self):
        rng = np.random.default_rng(1)
        s = random_section(rng, uniform_grid(0, 1, 6), 4)
        for k in range(6):
            v = fiber_inner(s, s, k)
            assert v.imag == pytest.approx(0.0, abs=1e-14)
            assert v.real >= 0

    def test_orthogonal_fibers(self):
        grid = uniform_grid(0, 1, 2)
        s1 = Section(grid, [[1, 0], [1, 0]])
        s2 = Section(grid, [[0, 1], [0, 1]])
        assert fiber_inner(s1, s2, 0) == 0

    def test_conjugate_linear_first_argument(self):
        rng = np.random.default_rng(2)
        grid = uniform_grid(0, 1, 3)
        s1, s2 = (random_section(rng, grid, 3) for _ in range(2))
        alpha = 0.73
        s1_rot = Section(grid, np.exp(1j * alpha) * s1.fibers)
        for k in range(3):
            assert fiber_inner(s1_rot, s2, k) == pytest.approx(
                np.exp(-1j * alpha) * fiber_inner(s1, s2, k))

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        s1 = random_section(rng, uniform_grid(0, 1, 3), 2)
        s2 = random_section(rng, uniform_grid(0, 2, 3), 2)
        with pytest.raises(ValueError):
            fiber_inner(s1, s2, 0)

    def test_norm_values(self):
        grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [0.25] * 4)
        zero = Section(grid, np.zeros((4, 2)))
        assert direct_integral_norm(zero) == 0
        unit = Section(grid, np.tile([1.0, 0.0], (4, 1)))
        assert direct_integral_norm(unit) == pytest.approx(1.0)
        assert direct_integral_norm(Section(grid, 2 * unit.fibers)) == pytest.approx(2.0)


class TestBundleMaps:
    def test_identity(self):
        rng = np.random.default_rng(4)
        grid = uniform_grid(0, 1, 5)
        s = random_section(rng, grid, 3)
        out = apply_bundle_map(phase_bundle_map(grid, 3, np.zeros(grid.size)), s)
        assert np.allclose(out.fibers, s.fibers)

    def test_non_unitary_rejected(self):
        grid = uniform_grid(0, 1, 2)
        mats = np.stack([np.eye(2), 1.1 * np.eye(2)]).astype(complex)
        with pytest.raises(ValueError, match="unitary"):
            BundleMap(np.arange(2), mats)

    def test_nan_matrix_rejected(self):
        mats = np.stack([np.eye(2)] * 2).astype(complex)
        mats[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="node 1 not unitary"):
            BundleMap(np.arange(2), mats)

    def test_bad_permutation_rejected(self):
        grid = uniform_grid(0, 1, 2)
        mats = np.stack([np.eye(2)] * 2).astype(complex)
        with pytest.raises(ValueError, match="permutation"):
            BundleMap(np.array([0, 0]), mats)

    def test_phase_map_preserves_moduli(self):
        rng = np.random.default_rng(5)
        grid = uniform_grid(0, 1, 6)
        s1, s2 = (random_section(rng, grid, 3) for _ in range(2))
        T = phase_bundle_map(grid, 3, np.sin(grid.nodes))
        t1, t2 = apply_bundle_map(T, s1), apply_bundle_map(T, s2)
        for k in range(6):
            assert abs(fiber_inner(t1, t2, k)) == pytest.approx(
                abs(fiber_inner(s1, s2, k)), abs=1e-12)

    def test_isometry_relation(self):
        rng = np.random.default_rng(6)
        grid = uniform_grid(0, 1, 5)
        s1, s2 = (random_section(rng, grid, 4) for _ in range(2))
        perm = rng.permutation(5)
        mats = np.stack([random_unitary(rng, 4) for _ in range(5)])
        T = BundleMap(perm, mats)
        t1, t2 = apply_bundle_map(T, s1), apply_bundle_map(T, s2)
        for k in range(5):
            assert fiber_inner(t1, t2, int(perm[k])) == pytest.approx(
                fiber_inner(s1, s2, k), abs=1e-12)

    def test_norm_preserved_under_equal_weights(self):
        rng = np.random.default_rng(7)
        grid = uniform_grid(0, 1, 8)
        s = random_section(rng, grid, 2)
        T = BundleMap(rng.permutation(8),
                      np.stack([random_unitary(rng, 2) for _ in range(8)]))
        assert direct_integral_norm(apply_bundle_map(T, s)) == pytest.approx(
            direct_integral_norm(s), abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        grid = uniform_grid(0, 1, 3)
        s = random_section(rng, grid, 2)
        with pytest.raises(ValueError):
            apply_bundle_map(phase_bundle_map(grid, 3, np.zeros(grid.size)), s)


class TestRayEquivalence:
    def test_planted_phase_recovered(self):
        rng = np.random.default_rng(9)
        grid = uniform_grid(-1, 3, 12)
        s1 = random_section(rng, grid, 5)
        planted = np.sin(grid.nodes)
        s2 = Section(grid, np.exp(1j * planted)[:, None] * s1.fibers)
        res = ray_equivalent(s1, s2)
        assert res
        assert np.allclose(np.exp(1j * res.phases), np.exp(1j * planted), atol=1e-12)
        assert np.all((res.phases >= 0) & (res.phases < 2 * np.pi))

    def test_scaling_is_not_a_phase(self):
        rng = np.random.default_rng(10)
        s1 = random_section(rng, uniform_grid(0, 1, 4), 3)
        s2 = Section(s1.grid, 2 * s1.fibers)
        assert not ray_equivalent(s1, s2)

    def test_independent_sections_rejected(self):
        rng = np.random.default_rng(11)
        grid = uniform_grid(0, 1, 6)
        for _ in range(10):
            s1 = random_section(rng, grid, 3)
            s2 = random_section(rng, grid, 3)
            assert not ray_equivalent(s1, s2)

    def test_nan_fiber_entry_is_not_equivalent(self):
        rng = np.random.default_rng(14)
        s1 = random_section(rng, uniform_grid(0, 1, 4), 3)
        fibers = s1.fibers.copy()
        ref = int(np.argmax(np.abs(fibers[2])))
        fibers[2, (ref + 1) % 3] = np.nan  # not the entry the phase is read from
        assert not ray_equivalent(s1, Section(s1.grid, fibers))

    def test_zero_fiber_degenerate(self):
        grid = uniform_grid(0, 1, 3)
        f = np.ones((3, 2), dtype=complex)
        f[1] = 0
        with pytest.raises(DegenerateSectionError):
            ray_equivalent(Section(grid, f), Section(grid, np.ones((3, 2))))

    def test_equivalence_relation_on_planted_triples(self):
        rng = np.random.default_rng(12)
        grid = uniform_grid(0, 2, 9)
        s1 = random_section(rng, grid, 4)
        xi = rng.uniform(0, 2 * np.pi, grid.size)
        eta = rng.uniform(0, 2 * np.pi, grid.size)
        s2 = Section(grid, np.exp(1j * xi)[:, None] * s1.fibers)
        s3 = Section(grid, np.exp(1j * eta)[:, None] * s2.fibers)
        assert ray_equivalent(s1, s1)
        fwd = ray_equivalent(s1, s2)
        bwd = ray_equivalent(s2, s1)
        assert fwd and bwd
        assert np.allclose(np.exp(1j * (fwd.phases + bwd.phases)), 1.0, atol=1e-12)
        thru = ray_equivalent(s1, s3)
        assert thru
        assert np.allclose(np.exp(1j * thru.phases), np.exp(1j * (xi + eta)),
                           atol=1e-12)

    def test_probe_moduli_match_when_equivalent(self):
        rng = np.random.default_rng(13)
        grid = uniform_grid(0, 1, 7)
        s1 = random_section(rng, grid, 3)
        s2 = Section(grid, np.exp(1j * grid.nodes ** 2)[:, None] * s1.fibers)
        assert ray_equivalent(s1, s2)
        for _ in range(5):
            probe = random_section(rng, grid, 3)
            for k in range(grid.size):
                assert abs(fiber_inner(s1, probe, k)) == pytest.approx(
                    abs(fiber_inner(s2, probe, k)), abs=1e-9)


def test_nan_inner_product_fails_the_isometry_check(monkeypatch):
    real = bundle.fiber_inner
    calls = []

    def flaky(s1, s2, node):
        calls.append(node)
        # NaN at node 5 of the mapped sections, past the first term
        return complex(np.nan) if node == 5 and len(calls) % 2 == 1 else real(s1, s2, node)

    monkeypatch.setattr(bundle, "fiber_inner", flaky)
    results = {c["name"]: c for c in checks.bundle_suite(samples=1, seed=0)}
    isometry = results["isometry-inner-products"]
    assert not isometry["passed"] and np.isnan(isometry["max_violation"])
