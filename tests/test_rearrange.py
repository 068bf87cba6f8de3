import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigenweight import (
    MeasureMismatch,
    assemble_stiffness,
    build_grid,
    check_majorization,
    comonotone_arrangement,
    decreasing_rearrangement,
    distribution_function,
    equimeasurable,
    integrate,
    monotone_x1_rearrangement,
)
from oracles import best_arrangement_value

finite_floats = st.floats(-100.0, 100.0)


def grid1d(n):
    return build_grid("interval", [1.0], [n])


class TestDistributionFunction:
    def test_counts_cells_above_level(self):
        grid = grid1d(3)
        f = np.array([3.0, 1.0, 2.0])
        assert distribution_function(f, grid, 1.5) == pytest.approx(2 / 3)

    def test_limits(self):
        grid = grid1d(3)
        f = np.array([3.0, 1.0, 2.0])
        assert distribution_function(f, grid, 0.0) == pytest.approx(1.0)
        assert distribution_function(f, grid, 3.0) == 0.0
        assert distribution_function(f, grid, 99.0) == 0.0

    def test_right_continuous_decreasing(self, rng):
        grid = grid1d(16)
        f = rng.standard_normal(16)
        ts = np.linspace(-3, 3, 50)
        ds = [distribution_function(f, grid, t) for t in ts]
        assert all(b <= a for a, b in zip(ds, ds[1:]))


class TestDecreasingRearrangement:
    def test_sorts_with_cell_measure(self):
        grid = grid1d(3)
        cls = decreasing_rearrangement(np.array([3.0, 1.0, 2.0]), grid)
        assert cls.profile == ((3.0, pytest.approx(1 / 3)),
                               (2.0, pytest.approx(1 / 3)),
                               (1.0, pytest.approx(1 / 3)))

    def test_constant_merges(self):
        grid = grid1d(8)
        cls = decreasing_rearrangement(np.full(8, 4.2), grid)
        assert len(cls.profile) == 1
        value, measure = cls.profile[0]
        assert value == 4.2 and measure == pytest.approx(1.0)

    def test_preserves_integral(self, rng):
        grid = grid1d(32)
        f = rng.standard_normal(32)
        cls = decreasing_rearrangement(f, grid)
        total = sum(v * s for v, s in cls.profile)
        assert total == pytest.approx(integrate(grid, f), abs=1e-12)

    def test_profile_distribution_matches_field(self, rng):
        grid = grid1d(24)
        f = rng.standard_normal(24)
        cls = decreasing_rearrangement(f, grid)
        for t in rng.uniform(-2, 2, 20):
            above = sum(s for v, s in cls.profile if v > t)
            assert above == pytest.approx(
                distribution_function(f, grid, t), abs=1e-12)


class TestEquimeasurable:
    def test_permutation(self):
        grid = grid1d(3)
        assert equimeasurable([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], grid)

    def test_different_multiset(self):
        grid = grid1d(3)
        assert not equimeasurable([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], grid)

    def test_scaling_breaks_it(self):
        grid = grid1d(3)
        f = np.array([1.0, 2.0, 3.0])
        assert not equimeasurable(f, 2 * f, grid)


class TestMajorization:
    def test_averaging_is_majorized(self):
        grid = grid1d(2)
        rep = check_majorization([1.0, 1.0], [2.0, 0.0], grid)
        assert rep.holds and rep.totals_match
        assert rep.worst_margin >= -1e-12

    def test_reflexive(self, rng):
        grid = grid1d(16)
        f = rng.standard_normal(16)
        assert check_majorization(f, f, grid).holds

    def test_total_mismatch(self):
        grid = grid1d(2)
        rep = check_majorization([2.0, 1.0], [2.0, 0.0], grid)
        assert not rep.totals_match and not rep.holds

    def test_mutual_majorization_iff_equimeasurable(self, rng):
        grid = grid1d(20)
        for _ in range(50):
            f = rng.standard_normal(20)
            perm = rng.permutation(f)
            assert check_majorization(perm, f, grid).holds
            assert check_majorization(f, perm, grid).holds
            g = f + rng.standard_normal(20) * 0.3
            mutual = (check_majorization(g, f, grid).holds
                      and check_majorization(f, g, grid).holds)
            assert mutual == equimeasurable(f, g, grid)

    def test_bounds_preserved_under_averaging(self, rng):
        grid = grid1d(16)
        for _ in range(50):
            f = rng.uniform(-2.0, 3.0, 16)
            mix = np.zeros(16)
            lams = rng.dirichlet(np.ones(4))
            for lam in lams:
                mix += lam * rng.permutation(f)
            rep = check_majorization(mix, f, grid)
            assert rep.holds
            assert mix.min() >= f.min() - 1e-12
            assert mix.max() <= f.max() + 1e-12


class TestComonotoneArrangement:
    def test_sort_and_assign(self):
        grid = build_grid("interval", [1.0], [4])
        cls = decreasing_rearrangement(np.array([2.0, 1.0, -1.0, -5.0]), grid)
        u = np.array([0.9, 0.1, 0.5, 0.4])
        out = comonotone_arrangement(cls, u, grid)
        np.testing.assert_array_equal(out, [2.0, -5.0, 1.0, -1.0])

    def test_tie_break_by_index(self):
        grid = build_grid("interval", [1.0], [2])
        cls = decreasing_rearrangement(np.array([1.0, -1.0]), grid)
        out = comonotone_arrangement(cls, np.array([0.5, 0.5]), grid)
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_matches_brute_force(self, rng):
        grid = build_grid("interval", [1.0], [4])
        w = grid.cell_measure
        for _ in range(60):
            u = rng.standard_normal(4)
            values = rng.standard_normal(4)
            cls = decreasing_rearrangement(values, grid)
            out = comonotone_arrangement(cls, u, grid)
            assert equimeasurable(out, values, grid)
            achieved = float((w * out) @ u)
            assert achieved >= best_arrangement_value(
                np.sort(values), u, w) - 1e-12

    def test_measure_mismatch(self):
        grid4 = build_grid("interval", [1.0], [4])
        grid5 = build_grid("interval", [1.0], [5])
        cls = decreasing_rearrangement(np.arange(4.0), grid4)
        with pytest.raises(MeasureMismatch):
            comonotone_arrangement(cls, np.arange(5.0), grid5)


class TestMonotoneRearrangement:
    def test_1d_decreasing(self):
        grid = grid1d(3)
        out = monotone_x1_rearrangement([1.0, 3.0, 2.0], grid)
        np.testing.assert_array_equal(out, [3.0, 2.0, 1.0])

    def test_1d_increasing(self):
        grid = grid1d(3)
        out = monotone_x1_rearrangement([1.0, 3.0, 2.0], grid, "increasing")
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_2d_per_line(self):
        grid = build_grid("rectangle", [1.0, 1.0], [2, 2])
        f = np.array([1.0, 3.0, 2.0, 0.0])  # lines [1,3] and [2,0]
        out = monotone_x1_rearrangement(f, grid)
        np.testing.assert_array_equal(out, [3.0, 1.0, 2.0, 0.0])

    def test_commutes_with_increasing_map(self, rng):
        grid = build_grid("rectangle", [1.0, 1.0], [8, 4])
        for _ in range(20):
            f = rng.standard_normal(grid.n_cells)
            lhs = monotone_x1_rearrangement(f ** 3, grid)
            rhs = monotone_x1_rearrangement(f, grid) ** 3
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_polya_szego_2d_first_axis(self, rng):
        grid = build_grid("rectangle", [2.0, 1.0], [8, 4])
        # sorting every line in one direction cannot raise the energy
        # between neighbouring lines either, so the whole K obeys it
        K = assemble_stiffness(grid)
        for _ in range(50):
            f = np.abs(rng.standard_normal(grid.n_cells))
            fs = monotone_x1_rearrangement(f, grid)
            assert fs @ (K @ fs) <= f @ (K @ f) + 1e-12


@settings(max_examples=60, deadline=None)
@given(f=arrays(np.float64, 12, elements=finite_floats))
def test_monotone_rearrangement_idempotent(f):
    grid = build_grid("rectangle", [1.0, 1.0], [4, 3])
    once = monotone_x1_rearrangement(f, grid)
    twice = monotone_x1_rearrangement(once, grid)
    assert np.array_equal(once, twice)
    assert equimeasurable(f, once, grid)


@settings(max_examples=60, deadline=None)
@given(f=arrays(np.float64, 10, elements=finite_floats), data=st.data())
def test_majorization_of_shuffles(f, data):
    grid = grid1d(10)
    perm = np.array(data.draw(st.permutations(list(f))))
    assert check_majorization(perm, f, grid).holds
    assert check_majorization(f, perm, grid).holds
