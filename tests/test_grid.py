import gc
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenweight import (
    InvalidSpec,
    LengthMismatch,
    assemble_stiffness,
    build_grid,
    decreasing_rearrangement,
    integrate,
    minimize_lambda1,
    principal_eigenpair,
    simulate_logistic,
    weight_field,
)
from eigenweight.grid import MAX_CELLS, from_dct, to_dct


def lines_run_along_x1(grid) -> bool:
    """Along each row of ``grid.lines`` x1 increases and every other
    coordinate stays constant: the rows are the first-axis lines."""
    x1, *rest = (np.diff(grid.lines(x), axis=1) for x in grid.cell_centers().T)
    return bool(np.all(x1 > 0) and all(np.all(d == 0) for d in rest))


def test_interval_partition():
    grid = build_grid("interval", [1.0], [4])
    assert grid.dim == 1
    assert grid.spacing == (0.25,)
    np.testing.assert_allclose(grid.cell_measure, 0.25)
    assert abs(grid.cell_measure * grid.n_cells - 1.0) < 1e-12


def test_rectangle_product_measure():
    grid = build_grid("rectangle", [2.0, 1.0], [4, 2])
    assert grid.n_cells == 8
    np.testing.assert_allclose(grid.cell_measure, 0.25)
    assert abs(grid.cell_measure * grid.n_cells - grid.volume) \
        < 1e-12 * grid.volume


def test_box_product_measure():
    grid = build_grid("box", [1.0, 0.5, 0.25], [4, 3, 2])
    assert grid.n_cells == 24
    np.testing.assert_allclose(grid.cell_measure, 0.125 / 24)
    assert abs(grid.cell_measure * grid.n_cells - grid.volume) \
        < 1e-12 * grid.volume


def test_cell_count_too_small():
    with pytest.raises(InvalidSpec):
        build_grid("rectangle", [1.0, 1.0], [1, 2])


def test_nonpositive_extent():
    with pytest.raises(InvalidSpec):
        build_grid("interval", [0.0], [4])
    with pytest.raises(InvalidSpec):
        build_grid("interval", [-1.0], [4])


@pytest.mark.parametrize("kind,extents,shape", [
    ("interval", [np.nan], [4]),
    ("interval", [np.inf], [4]),
    ("interval", ["wide"], [4]),
    ("interval", [1.0], [np.nan]),
    ("interval", [1.0], [np.inf]),
    (["interval"], [1.0], [4]),
])
def test_malformed_descriptor(kind, extents, shape):
    with pytest.raises(InvalidSpec):
        build_grid(kind, extents, shape)


@pytest.mark.parametrize("kind,extents,shape,name", [
    ("rectangle", [2.0, 1e308], [8, 4], "spacing\\^2 of inf"),
    ("rectangle", [1e-200, 1.0], [8, 4], "spacing\\^2 of 0.0"),
    ("box", [1e-160] * 3, [2, 2, 2], "cell measure of 0.0"),
    ("rectangle", [1e154, 1e155], [1024, 1024], "volume of inf"),
])
def test_extents_out_of_floating_point_range(kind, extents, shape, name):
    with pytest.raises(InvalidSpec, match=name):
        build_grid(kind, extents, shape)


def test_fractional_cell_count_rejected():
    with pytest.raises(InvalidSpec, match="whole numbers"):
        build_grid("interval", [1.0], [16.7])
    with pytest.raises(InvalidSpec, match="whole numbers"):
        build_grid("rectangle", [1.0, 1.0], [8, 4.5])
    assert build_grid("rectangle", [1.0, 1.0], [16.0, 8.0]).shape == (16, 8)


def test_cell_count_cap():
    # refused before anything is allocated
    with pytest.raises(InvalidSpec, match=f"{10**18} cells.*{MAX_CELLS}"):
        build_grid("box", [1.0, 1.0, 1.0], [10**6, 10**6, 10**6])
    with pytest.raises(InvalidSpec, match="cap"):
        build_grid("interval", [1.0], [MAX_CELLS + 1])
    assert build_grid("interval", [1.0], [MAX_CELLS]).n_cells == MAX_CELLS
    assert build_grid("rectangle", [2.0, 1.0], [256, 128]).n_cells == 32768


def test_kind_dimension_mismatch():
    with pytest.raises(InvalidSpec):
        build_grid("interval", [1.0, 1.0], [4, 4])
    with pytest.raises(InvalidSpec):
        build_grid("cylinder", [1.0], [4])


@settings(max_examples=30, deadline=None)
@given(shape=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       extents=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
def test_lines_run_along_x1(shape, extents):
    kind = ["interval", "rectangle", "box"][len(shape) - 1]
    grid = build_grid(kind, extents[:len(shape)], shape)
    assert grid.lines(np.arange(grid.n_cells)).shape \
        == (grid.n_cells // shape[0], shape[0])
    assert lines_run_along_x1(grid)


def test_lines_is_a_view():
    grid = build_grid("rectangle", [1.0, 1.0], [3, 2])
    f = np.zeros(6)
    grid.lines(f)[1, 0] = 1.0
    assert f.tolist() == [0, 0, 0, 1, 0, 0]
    with pytest.raises(LengthMismatch):
        grid.lines(np.zeros(5))


def test_cell_centers_midpoints():
    grid = build_grid("rectangle", [2.0, 1.0], [4, 2])
    centers = grid.cell_centers()
    assert centers[0].tolist() == [0.25, 0.25]
    assert centers[1].tolist() == [0.75, 0.25]  # first axis fastest
    assert centers[4].tolist() == [0.25, 0.75]
    box = build_grid("box", [4.0, 3.0, 2.0], [4, 3, 2]).cell_centers()
    assert box[1].tolist() == [1.5, 0.5, 0.5]
    assert box[4].tolist() == [0.5, 1.5, 0.5]  # second axis next
    assert box[12].tolist() == [0.5, 0.5, 1.5]  # third axis slowest


def test_stiffness_interval_n3():
    grid = build_grid("interval", [1.0], [3])
    K = assemble_stiffness(grid).toarray()
    expected = 3.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    np.testing.assert_array_equal(K, expected)


@pytest.mark.parametrize("kind,extents,shape", [
    ("interval", [1.0], [9]),
    ("rectangle", [2.0, 1.0], [6, 4]),
    ("box", [1.0, 1.0, 1.0], [3, 3, 3]),
])
def test_stiffness_invariants(kind, extents, shape, rng):
    grid = build_grid(kind, extents, shape)
    K = assemble_stiffness(grid)
    assert (K - K.T).nnz == 0
    ones = np.ones(grid.n_cells)
    # rowsum cancellation is exact up to one rounding of the stored diagonal
    kernel_tol = 1e-14 * np.abs(K.diagonal()).max()
    np.testing.assert_allclose(K @ ones, 0.0, atol=kernel_tol)
    np.testing.assert_allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0,
                               atol=kernel_tol)
    for _ in range(20):
        f = rng.standard_normal(grid.n_cells)
        assert f @ (K @ f) >= -1e-12


def test_energy_zero_only_for_constants(rng):
    grid = build_grid("rectangle", [1.0, 1.0], [5, 4])
    K = assemble_stiffness(grid)
    c = np.full(grid.n_cells, 2.3)
    floor = 1e-14 * np.abs(K.diagonal()).max() * (c @ c)
    assert abs(c @ (K @ c)) <= floor
    for _ in range(20):
        f = rng.standard_normal(grid.n_cells)
        assert f @ (K @ f) > 1e-8 * f @ f


def test_stiffness_consistency_first_order():
    # u(x) = x has unit Dirichlet energy; the assembled form misses one
    # half cell at each boundary, so the defect decays at first order
    defects = []
    for n in (32, 64, 128, 256):
        grid = build_grid("interval", [1.0], [n])
        K = assemble_stiffness(grid)
        u = grid.cell_centers()[:, 0]
        defects.append(abs(u @ (K @ u) - 1.0))
    for coarse, fine in zip(defects, defects[1:]):
        assert np.log2(coarse / fine) > 0.9


def test_integrate_examples():
    grid = build_grid("interval", [1.0], [4])
    assert integrate(grid, np.ones(4)) == pytest.approx(1.0, abs=1e-15)
    assert integrate(grid, [2.0, 0, 0, 0]) == pytest.approx(0.5, abs=1e-15)
    x = grid.cell_centers()[:, 0]
    assert integrate(grid, x) == pytest.approx(0.5, abs=1e-15)


def test_integrate_length_mismatch():
    grid = build_grid("interval", [1.0], [4])
    with pytest.raises(LengthMismatch):
        integrate(grid, np.ones(5))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_integrate_linear(data):
    grid = build_grid("interval", [1.0], [16])
    f = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=16, max_size=16)))
    g = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=16, max_size=16)))
    a = data.draw(st.floats(-10, 10))
    b = data.draw(st.floats(-10, 10))
    left = integrate(grid, a * f + b * g)
    right = a * integrate(grid, f) + b * integrate(grid, g)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


#: an odd-length interval, a rectangle and a box
TRANSFORM_GRIDS = [
    ("interval", [1.0], [7]),
    ("rectangle", [2.0, 1.0], [6, 5]),
    ("box", [1.0, 0.7, 1.3], [4, 3, 5]),
]


@pytest.mark.parametrize("kind,extents,shape", TRANSFORM_GRIDS)
def test_transforms_match_scipy_fft_bytes_in_place(kind, extents, shape, rng):
    grid = build_grid(kind, extents, shape)
    f = rng.standard_normal(grid.n_cells)
    expected = scipy.fft.dctn(f.reshape(grid.shape[::-1]), norm="ortho")
    c = to_dct(grid, f)
    assert np.shares_memory(c, f) and c.tobytes() == expected.tobytes()
    expected = scipy.fft.idctn(c, norm="ortho").ravel()
    u = from_dct(grid, c)
    assert u.shape == (grid.n_cells,)
    assert np.shares_memory(u, f) and u.tobytes() == expected.tobytes()


def _quarter_weight(grid):
    """+1 on the first quarter of the cells in flat order, -2 elsewhere."""
    return np.where(np.arange(grid.n_cells) < grid.n_cells // 4, 1.0, -2.0)


def _minimize_on(cpus):
    def run(grid, monkeypatch):
        monkeypatch.setattr("eigenweight.optimize._usable_cpus",
                            lambda: cpus)
        cls = decreasing_rearrangement(_quarter_weight(grid), grid)
        return minimize_lambda1(cls, grid, restarts=4, solver="iterative")
    return run


#: work on a grid after which nothing may hold the grid
GRID_USES = {
    "dense solve": lambda grid, _: principal_eigenpair(
        weight_field(grid, _quarter_weight(grid)), solver="dense"),
    "iterative solve": lambda grid, _: principal_eigenpair(
        weight_field(grid, _quarter_weight(grid)), solver="iterative"),
    "minimize inline": _minimize_on(1),
    "minimize at two workers": _minimize_on(2),
    "simulate_logistic": lambda grid, _: simulate_logistic(
        weight_field(grid, _quarter_weight(grid)), 40.0,
        np.ones(grid.n_cells), dt=0.01, t_end=0.05),
}


@pytest.mark.parametrize("use", list(GRID_USES))
def test_a_grid_dies_with_its_last_reference(use, monkeypatch):
    # the grid owns its constants; no module-level cache keeps it alive
    grid = build_grid("rectangle", [2.0, 1.0], [16, 8])
    alive = weakref.ref(grid)
    result = GRID_USES[use](grid, monkeypatch)
    assert result is not None
    del grid, result
    gc.collect()
    assert alive() is None
