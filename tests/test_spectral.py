import decimal
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg as spla
from hypothesis import event, given, settings
from hypothesis import strategies as st

from eigenweight import (
    ConstantField,
    IterationLimit,
    NoPositivePart,
    NotAdmissible,
    SingularSystem,
    ValidationError,
    ZeroWeightIntegral,
    assemble_stiffness,
    build_grid,
    decreasing_rearrangement,
    mu1_derivative,
    mu1_extended,
    principal_eigenpair,
    project_mean_zero,
    rayleigh_quotient,
    signed_spectrum,
    solution_operator,
    weight_field,
)
import eigenweight
from eigenweight import spectral
from eigenweight.grid import dct_eigenvalues, to_dct
from eigenweight.optimize import _start_field
from eigenweight.rearrange import _dealt_values
from eigenweight.spectral import SOLVERS
from oracles import (copied_dense_eigenpair, gemm_pencil, random_admissible,
                     two_phase_lambda1)

#: (kind, extents, shape) of anisotropic grids with odd cell counts
ODD_GRIDS = [
    ("interval", [1.0], [7]),
    ("rectangle", [2.0, 1.0], [6, 5]),
    ("box", [1.0, 0.7, 1.3], [4, 3, 5]),
]


#: (kind, extents, shape) of the shift-invert tests, one per dimension
ROUGH_GRIDS = [
    ("interval", [1.0], [128]),
    ("rectangle", [2.0, 1.0], [16, 8]),
    ("box", [1.0, 0.7, 1.3], [6, 4, 5]),
]


#: side lengths to draw from; a grid uses the first one per axis
EXTENTS = st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3)

#: cell counts of 1D, 2D and 3D grids with at most 64 cells
SMALL_SHAPES = st.one_of(
    st.tuples(st.integers(2, 64)),
    st.tuples(st.integers(2, 8), st.integers(2, 8)),
    st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)))


def drawn_grid(shape, extents):
    kind = ("interval", "rectangle", "box")[len(shape) - 1]
    return build_grid(kind, extents[:len(shape)], shape)


def weights(grid, values):
    return weight_field(grid, np.asarray(values, dtype=float))


def rough_bang_bang(grid, seed):
    """A quarter of the cells at +1, the rest at -2, randomly placed."""
    n = grid.n_cells
    values = np.where(np.arange(n) < n // 4, 1.0, -2.0)
    return weights(grid, np.random.default_rng(seed).permutation(values))


def smooth_x1(grid):
    """-1/2 + 3/2 cos(pi x1 / L1): one sign change along the first axis."""
    x = grid.cell_centers()[:, 0]
    return weights(grid, -0.5 + 1.5 * np.cos(np.pi * x / grid.extents[0]))


def patchy(grid, seed, patch=4):
    """``rough_bang_bang`` on blocks of ``patch`` cells per axis."""
    coarse = [-(-n // patch) for n in grid.shape]
    cells = np.indices(grid.shape[::-1]).reshape(grid.dim, -1)[::-1]
    block = np.ravel_multi_index(cells // patch, coarse)
    n = int(np.prod(coarse))
    values = np.where(np.arange(n) < max(n // 4, 1), 1.0, -2.0)
    return weights(grid,
                   np.random.default_rng(seed).permutation(values)[block])


def dct_operator(m):
    """S = D U as the iterative path counts it, and U."""
    up, down = spectral._dct_maps(m)
    return spectral._Counted(lambda y: down(up(y)), m.grid.n_cells), up


def shift_invert(m, tol=1e-12):
    """``_shift_invert`` from the loose Ritz value the iterative path
    starts it with."""
    S, _ = dct_operator(m)
    theta, _ = spectral._arpack_top(S, spectral._SHIFT_TOL)
    assert theta > 0
    return spectral._shift_invert(m, tol, theta)


def arpack_runs(monkeypatch, ncvs=None):
    """Patch ``eigsh`` to record, per call, whether it ran on S, and its
    ``ncv`` in ``ncvs`` when given a list."""
    runs = []
    eigsh = spla.eigsh

    def recorded(A, *args, **kwargs):
        runs.append("S" if isinstance(A, spectral._Counted) else "shifted")
        if ncvs is not None:
            ncvs.append(kwargs.get("ncv"))
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recorded)
    return runs


def assert_dct_diagonalizes_stiffness(grid):
    K = assemble_stiffness(grid).toarray()
    n = grid.n_cells
    C = np.column_stack([to_dct(grid, e).ravel() for e in np.eye(n)])
    np.testing.assert_allclose(C @ C.T, np.eye(n), atol=1e-14)
    lam = dct_eigenvalues(grid).ravel()
    assert lam[0] == 0.0 and lam[1:].min() > 0
    defect = np.abs(C.T @ (lam[:, None] * C) - K).max()
    assert defect <= 1e-13 * np.abs(K).max()


def decimal_series(first, ratio):
    """Sum of the series first, first * ratio(1), ... in the current
    decimal context, to the term that no longer changes it."""
    total, term, k = decimal.Decimal(0), first, 0
    while total + term != total:
        total += term
        k += 1
        term *= ratio(k)
    return total


def decimal_cos_pi_over(n):
    """cos(pi / n) in the current decimal context: pi by Machin's formula,
    then the Taylor series."""
    def arctan_inverse(x):
        return decimal_series(decimal.Decimal(1) / x,
                              lambda k: -(2 * k - 1) / decimal.Decimal(
                                  (2 * k + 1) * x * x))

    x = 4 * (4 * arctan_inverse(5) - arctan_inverse(239)) / n
    return decimal_series(decimal.Decimal(1),
                          lambda k: -x * x / (2 * k * (2 * k - 1)))


def assert_dense_matches_tight_iterative(cells):
    """The two-phase interval's dense mu1, the Rayleigh quotient of eigh's
    vector, against a solve of the DCT kernel at tol 1e-15."""
    grid = build_grid("interval", [1.0], [cells])
    x = grid.cell_centers()[:, 0]
    m = weights(grid, np.where(x < 0.5, 1.0, -3.0))
    dense = principal_eigenpair(m, solver="dense")
    iterative = principal_eigenpair(m, solver="iterative", tol=1e-15)
    assert abs(dense.mu1 - iterative.mu1) <= 1e-14 * iterative.mu1
    assert dense.mu1 == pytest.approx(rayleigh_quotient(m, dense.u),
                                      rel=1e-14)


def assert_matches_dense(pair, m):
    dense = principal_eigenpair(m, solver="dense")
    assert abs(pair.mu1 - dense.mu1) <= 1e-9 * dense.mu1
    np.testing.assert_allclose(pair.u, dense.u, atol=1e-8)
    assert pair.residual <= 1e-10


class TestProjection:
    def test_direct_formula(self):
        grid = build_grid("interval", [1.0], [4])
        m = weights(grid, [-1, -1, -1, -1])
        out = project_mean_zero(m, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(out, [-1.5, -0.5, 0.5, 1.5], atol=1e-15)

    def test_constant_maps_to_zero(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        out = project_mean_zero(m, np.full(64, 7.25))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_idempotent(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        f = rng.standard_normal(64)
        once = project_mean_zero(m, f)
        twice = project_mean_zero(m, once)
        np.testing.assert_allclose(twice, once, atol=1e-13)

    def test_zero_integral_rejected(self, interval64):
        m = weights(interval64, np.r_[np.ones(32), -np.ones(32)])
        with pytest.raises(ZeroWeightIntegral):
            project_mean_zero(m, np.ones(64))


class TestSolutionOperator:
    def test_zero_input(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        out = solution_operator(m, np.zeros(64))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_top_eigenvalue_is_mu1(self, rng):
        # T = U D and S = D U share their nonzero eigenvalues, so the top
        # eigenvalue of the matrix of T on V_m is the mu1 the solver finds
        grid = build_grid("rectangle", [2.0, 1.0], [8, 4])
        m = weights(grid, random_admissible(rng, grid.n_cells))
        T = np.column_stack([solution_operator(m, project_mean_zero(m, e))
                             for e in np.eye(grid.n_cells)])
        mu1 = principal_eigenpair(m).mu1
        assert abs(np.linalg.eigvals(T).real.max() - mu1) <= 1e-13 * mu1

    def test_saddle_residual(self, rng):
        # K u - W(m f) must be parallel to the constraint vector W m
        grid = build_grid("interval", [1.0], [16])
        K = assemble_stiffness(grid)
        w = grid.cell_measure
        for _ in range(30):
            m = weights(grid, random_admissible(rng, 16))
            f = project_mean_zero(m, rng.standard_normal(16))
            u = solution_operator(m, f)
            q = w * m.values
            assert abs(q @ u) <= 1e-12 * max(1.0, np.abs(u).max())
            r = K @ u - w * m.values * f
            r_perp = r - q * (q @ r) / (q @ q)
            assert np.linalg.norm(r_perp) <= 1e-10 * max(
                1.0, np.linalg.norm(r))


class TestPrincipalEigenpair:
    def test_nonpositive_weight_rejected(self, interval64):
        m = weights(interval64, -np.linspace(0.5, 1.5, 64))
        with pytest.raises(NoPositivePart):
            principal_eigenpair(m)

    def test_nonnegative_integral_rejected(self, interval64):
        m = weights(interval64, np.linspace(-0.5, 1.5, 64))
        assert m.integral > 0
        with pytest.raises(NotAdmissible):
            principal_eigenpair(m)

    def test_two_phase_oracle(self):
        # +1 on the left half, -3 on the right half of the unit interval
        lam_star = two_phase_lambda1(1.0, 3.0, 0.5, 1.0)
        assert lam_star == pytest.approx(4.175, abs=2e-3)
        grid = build_grid("interval", [1.0], [256])
        x = grid.cell_centers()[:, 0]
        m = weights(grid, np.where(x < 0.5, 1.0, -3.0))
        pair = principal_eigenpair(m)
        assert abs(pair.lambda1 - lam_star) / lam_star < 1e-3

    def test_dense_mu1_matches_tight_iterative_solve_at_1024_cells(self):
        # criterion 1's weight: eigh's own eigenvalue sat 1.4e-10 to 2.3e-10
        # off here, the Rayleigh quotient of its vector 1.6e-15; the DCT
        # kernel's eigenvalues as 2 - 2 cos(pi k / n) put 4e-12 between them
        assert_dense_matches_tight_iterative(1024)

    def test_dense_mu1_matches_tight_iterative_solve_at_4096_cells(self):
        # 2.4e-11 apart with the kernel's eigenvalues as 2 - 2 cos(pi k / n)
        assert_dense_matches_tight_iterative(4096)

    def test_iterative_two_phase_interval_at_65536_cells(self):
        # the discretization error is 5.8e-10 of lambda1; the kernel's
        # eigenvalues as 2 - 2 cos(pi k / n) put it 2.9e-8 off
        grid = build_grid("interval", [1.0], [65536])
        x = grid.cell_centers()[:, 0]
        m = weights(grid, np.where(x < 0.5, 1.0, -3.0))
        exact = two_phase_lambda1(1.0, 3.0, 0.5, 1.0, tol=1e-15)
        assert exact == 4.1753768819216415
        pair = principal_eigenpair(m, solver="iterative")
        assert abs(pair.lambda1 - exact) <= 5e-9 * exact

    def test_eigenpair_identities(self, interval64, rng):
        K = assemble_stiffness(interval64)
        w = interval64.cell_measure
        for _ in range(30):
            m = weights(interval64, random_admissible(rng, 64))
            pair = principal_eigenpair(m)
            assert pair.mu1 > 0
            assert pair.lambda1 == pytest.approx(1.0 / pair.mu1, rel=1e-15)
            assert abs(pair.u @ (K @ pair.u) - 1.0) < 1e-10
            assert abs((w * m.values) @ (pair.u ** 2) - pair.mu1) \
                < 1e-10 * pair.mu1
            assert pair.u.min() > 0
            assert abs((w * m.values) @ pair.u) < 1e-10
            assert pair.residual < 1e-10

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_extreme_scale(self, interval64, solver):
        # |W m|^2 overflows at 1e200 and underflows at 1e-200 unless the
        # solve rescales the weight
        vals = np.where(np.arange(64) < 16, 1.0, -2.0)
        base = principal_eigenpair(weights(interval64, vals), solver=solver)
        for alpha in (1e200, 1e-200):
            pair = principal_eigenpair(weights(interval64, alpha * vals),
                                       solver=solver)
            assert abs(pair.mu1 - alpha * base.mu1) <= 1e-10 * alpha * base.mu1
            assert abs(alpha * pair.lambda1 - base.lambda1) \
                <= 1e-10 * base.lambda1
            np.testing.assert_allclose(pair.u, base.u, atol=1e-10)
            assert pair.residual <= 1e-10
        # a power-of-two scale is exact: mu1 scales exactly, u keeps its bytes
        pair = principal_eigenpair(weights(interval64, 2.0 ** 600 * vals),
                                   solver=solver)
        assert pair.mu1 == 2.0 ** 600 * base.mu1
        assert pair.u.tobytes() == base.u.tobytes()

    def test_extreme_scale_spectrum_and_solution_operator(self, interval64,
                                                          rng):
        # the pencil basis squares |W m| and the solution operator divides
        # by int m, so both rescale the weight as the eigensolve does
        vals = np.where(np.arange(64) < 16, 1.0, -2.0)
        base = weights(interval64, vals)
        f = project_mean_zero(base, rng.standard_normal(64))
        spec, u = signed_spectrum(base, 3), solution_operator(base, f)
        for alpha in (1e200, 1e-200):
            m = weights(interval64, alpha * vals)
            scaled = signed_spectrum(m, 3)
            for got, want in ((scaled.positive, spec.positive),
                              (scaled.negative, spec.negative),
                              (scaled.bound, spec.bound)):
                np.testing.assert_allclose(got, alpha * want, rtol=1e-10,
                                           atol=0)
            np.testing.assert_allclose(solution_operator(m, f), alpha * u,
                                       rtol=0, atol=1e-10 * alpha
                                       * np.abs(u).max())
        # a power-of-two scale is exact
        m = weights(interval64, 2.0 ** 600 * vals)
        scaled = signed_spectrum(m, 3)
        assert scaled.positive.tobytes() \
            == (2.0 ** 600 * spec.positive).tobytes()
        assert scaled.negative.tobytes() \
            == (2.0 ** 600 * spec.negative).tobytes()
        assert solution_operator(m, f).tobytes() == (2.0 ** 600 * u).tobytes()

    def test_iterative_matches_dense(self, interval64, rng):
        for _ in range(5):
            m = weights(interval64, random_admissible(rng, 64))
            dense = principal_eigenpair(m, solver="dense")
            iterative = principal_eigenpair(m, solver="iterative")
            assert abs(iterative.mu1 - dense.mu1) <= 1e-9 * dense.mu1

    def test_iterative_2d_symmetric_weight(self):
        # weight constant along the first axis: a symmetry that can trap
        # badly seeded iterations on the wrong eigenspace
        grid = build_grid("rectangle", [2.0, 1.0], [16, 8])
        i2 = np.arange(grid.n_cells) // 16
        m = weights(grid, np.where(i2 < 2, 1.0, -2.0))
        dense = principal_eigenpair(m, solver="dense")
        iterative = principal_eigenpair(m, solver="iterative")
        assert abs(iterative.mu1 - dense.mu1) <= 1e-9 * dense.mu1

    def test_3d_matches_1d_for_separable_weight(self):
        # a weight depending only on x1 separates: the box eigenvalue
        # equals the interval eigenvalue for the same profile
        grid1 = build_grid("interval", [1.0], [16])
        profile = np.where(grid1.cell_centers()[:, 0] < 0.25, 1.0, -2.0)
        lam_1d = principal_eigenpair(weights(grid1, profile)).lambda1
        grid3 = build_grid("box", [1.0, 0.5, 0.5], [16, 3, 2])
        vals = np.where(grid3.cell_centers()[:, 0] < 0.25, 1.0, -2.0)
        lam_3d = principal_eigenpair(weights(grid3, vals)).lambda1
        assert abs(lam_3d - lam_1d) <= 1e-10 * lam_1d

    def test_dense_size_guard(self):
        from eigenweight import TooLarge
        grid = build_grid("interval", [1.0], [6100])
        vals = np.where(np.arange(6100) < 1000, 1.0, -2.0)
        m = weights(grid, vals)
        with pytest.raises(TooLarge):
            principal_eigenpair(m, solver="dense")
        with pytest.raises(TooLarge):
            signed_spectrum(m, 2)
        # the iterative path has no size cap
        pair = principal_eigenpair(m, solver="iterative")
        assert pair.mu1 > 0

    def test_zero_integral_spectrum_rejected(self, interval64):
        m = weights(interval64, np.r_[np.ones(32), -np.ones(32)])
        with pytest.raises(ZeroWeightIntegral):
            signed_spectrum(m, 2)

    def test_extended_mu1_requires_negative_integral(self, interval64):
        m = weights(interval64, np.linspace(-0.4, 1.0, 64))
        assert m.integral > 0
        with pytest.raises(NotAdmissible):
            mu1_extended(m)


def assert_pencil_matches_oracle(m, seed):
    A, S, lift = spectral._dense_pencil(m)
    A0, S0, B = gemm_pencil(m)
    # only the lower triangles of A and S are valid
    for X, X0 in ((A, A0), (S, S0)):
        assert np.abs(np.tril(X - X0)).max() <= 1e-13 * np.abs(X0).max()
    y = np.random.default_rng(seed).standard_normal(m.grid.n_cells - 1)
    assert np.abs(lift(y) - B @ y).max() <= 1e-13 * np.abs(B @ y).max()
    q = m.grid.cell_measure * m.values
    assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-13
    assert np.abs(B.T @ q).max() <= 1e-13 * np.abs(q).max()


class TestDensePencil:
    @settings(max_examples=40, deadline=None)
    @given(shape=SMALL_SHAPES, extents=EXTENTS,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rank2_update_matches_gemm_oracle(self, shape, extents, seed):
        grid = drawn_grid(shape, extents)
        vals = random_admissible(np.random.default_rng(seed), grid.n_cells)
        assert_pencil_matches_oracle(weights(grid, vals), seed)

    def test_rank2_update_matches_gemm_oracle_1024_cells(self, rng):
        grid = build_grid("interval", [1.0], [1024])
        assert_pencil_matches_oracle(
            weights(grid, random_admissible(rng, 1024)), 1024)

    def test_pencil_built_in_place(self):
        # A and S take 8 (n-1)^2 bytes each; a pencil built through a basis
        # matrix peaks near 4 x 8 n^2, and a dsyr2 that copies its matrix
        # (a C-ordered argument) near 3
        grid = build_grid("rectangle", [2.0, 1.0], [64, 32])
        n = grid.n_cells
        m = rough_bang_bang(grid, 0)
        assemble_stiffness(grid)
        tracemalloc.start()
        try:
            spectral._dense_pencil(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n * n

    @pytest.mark.parametrize("solve", [
        lambda m: principal_eigenpair(m, solver="dense"),
        lambda m: signed_spectrum(m, 5),
    ], ids=["principal_eigenpair", "signed_spectrum"])
    def test_pencil_solved_in_place(self, solve):
        # LAPACK factors the Fortran-ordered A and S where they lie; an eigh
        # that copies both peaks near 4 x 8 n^2
        grid = build_grid("rectangle", [2.0, 1.0], [64, 32])
        n = grid.n_cells
        m = rough_bang_bang(grid, 0)
        assemble_stiffness(grid)
        tracemalloc.start()
        try:
            solve(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n * n

    @settings(max_examples=40, deadline=None)
    @given(shape=SMALL_SHAPES, extents=EXTENTS,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_in_place_solve_matches_copied_oracle(self, shape, extents,
                                                  seed):
        grid = drawn_grid(shape, extents)
        m = weights(grid, random_admissible(np.random.default_rng(seed),
                                            grid.n_cells))
        pair = principal_eigenpair(m, solver="dense")
        mu1, u, residual = copied_dense_eigenpair(m)
        assert repr(pair.mu1) == repr(mu1)
        assert pair.u.tobytes() == u.tobytes()
        assert repr(pair.residual) == repr(residual)


class TestDctKernel:
    @pytest.mark.parametrize("kind,extents,shape", ODD_GRIDS)
    def test_eigenvalues_reproduce_stiffness(self, kind, extents, shape):
        assert_dct_diagonalizes_stiffness(build_grid(kind, extents, shape))

    @pytest.mark.parametrize("kind,extents,shape", ODD_GRIDS)
    def test_apply_leaves_its_argument_alone(self, kind, extents, shape,
                                             rng):
        # ARPACK passes slices of its work array: an apply that wrote into
        # y or returned a view of it would corrupt the Krylov basis
        grid = build_grid(kind, extents, shape)
        m = weights(grid, random_admissible(rng, grid.n_cells))
        S, up = dct_operator(m)
        n = grid.n_cells
        work = rng.standard_normal(3 * n)
        kept = work.copy()
        y = work[n:2 * n]
        out, u = S.matvec(y), up(y)
        assert S.applies == 1
        assert work.tobytes() == kept.tobytes()
        assert not np.shares_memory(out, work)
        assert not np.shares_memory(u, work)
        # the bytes of the same steps, each on a new array, via scipy.fft
        scale = spectral._mode_scale(grid)
        q = grid.cell_measure * m.values
        v = scipy.fft.idctn(y.reshape(scale.shape) * scale,
                            norm="ortho").ravel()
        v = v - spectral._dot(q, v) / m.integral
        assert u.tobytes() == v.tobytes()
        expected = scipy.fft.dctn((q * v).reshape(scale.shape),
                                  norm="ortho") * scale
        assert out.tobytes() == expected.ravel().tobytes()

    def test_least_eigenvalue_exact_at_4096_cells(self):
        # unit face weight; 2 - 2 cos(pi / n) in floats is 2.5e-11 off
        grid = build_grid("interval", [4096.0], [4096])
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = float(2 - 2 * decimal_cos_pi_over(4096))
        least = dct_eigenvalues(grid)[1]
        assert abs(least - exact) <= 1e-15 * exact

    def test_cached_constants_are_read_only(self):
        grid = build_grid("rectangle", [2.0, 1.0], [8, 4])
        values = np.where(np.arange(32) < 8, 1.0, -2.0)
        cls = decreasing_rearrangement(values, grid)
        constants = [dct_eigenvalues(grid), spectral._mode_scale(grid),
                     spectral._start_vector(grid.n_cells),
                     _dealt_values(cls, grid)]
        for constant in constants:
            assert not constant.flags.writeable
        # computed once: a second call returns the same array
        assert spectral._mode_scale(grid) is constants[1]
        assert spectral._start_vector(grid.n_cells) is constants[2]
        assert _dealt_values(cls, grid) is constants[3]
        np.testing.assert_array_equal(constants[3], cls.cell_values(grid))
        # the optimizer's restart 0 starts from a writable copy of them
        start = _start_field(cls, grid, 0, 0)
        assert start.flags.writeable
        assert not np.shares_memory(start, constants[3])

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(2, 7), min_size=1, max_size=3),
           extents=EXTENTS)
    def test_eigenvalues_reproduce_stiffness_on_drawn_grids(self, shape,
                                                            extents):
        # non-square shapes catch the axes of K put in the wrong order
        assert_dct_diagonalizes_stiffness(drawn_grid(shape, extents))

    @pytest.mark.parametrize("kind,extents,shape", ODD_GRIDS + [
        ("rectangle", [2.0, 1.0], [16, 8]),
        ("box", [1.0, 0.5, 0.5], [8, 4, 3]),
    ])
    def test_iterative_matches_dense(self, kind, extents, shape, rng):
        grid = build_grid(kind, extents, shape)
        for _ in range(3):
            m = weights(grid, random_admissible(rng, grid.n_cells))
            dense = principal_eigenpair(m, solver="dense")
            iterative = principal_eigenpair(m, solver="iterative")
            assert abs(iterative.mu1 - dense.mu1) <= 1e-9 * dense.mu1
            np.testing.assert_allclose(iterative.u, dense.u, atol=1e-8)
            assert iterative.residual <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(grid_spec=st.sampled_from(ROUGH_GRIDS),
           seed=st.integers(0, 2 ** 32 - 1), rough=st.booleans())
    def test_iterative_rerun_byte_identical(self, grid_spec, seed, rough):
        # random_admissible weights take the arpack path; most rough
        # bang-bang weights fall back to shift-invert
        grid = build_grid(*grid_spec)
        m = rough_bang_bang(grid, seed) if rough else weights(
            grid, random_admissible(np.random.default_rng(seed),
                                    grid.n_cells))
        first = principal_eigenpair(m, solver="iterative")
        again = principal_eigenpair(weights(grid, m.values.copy()),
                                    solver="iterative")
        event(f"path {first.stats.path}")
        assert repr(first.lambda1) == repr(again.lambda1)
        assert first.mu1 == again.mu1
        assert first.u.tobytes() == again.u.tobytes()
        assert first.stats == again.stats


    def test_rough_rerun_byte_identical(self):
        # ARPACK restarts many times on this weight; its restart draws
        # once came from OS entropy and moved the last digits
        grid = build_grid("interval", [1.0], [1024])
        m = rough_bang_bang(grid, 7)
        pairs = [principal_eigenpair(weights(grid, m.values.copy()),
                                     solver="iterative") for _ in range(4)]
        assert len({repr(p.mu1) for p in pairs}) == 1
        assert len({p.u.tobytes() for p in pairs}) == 1
        runs = []
        for _ in range(3):
            S, _ = dct_operator(m)
            mu1, y = spectral._arpack_top(S, 1e-12)
            runs.append((repr(mu1), y.tobytes()))
        assert S.applies > 200
        assert len(set(runs)) == 1

    def test_smooth_weight_takes_arpack_path(self):
        m = smooth_x1(build_grid("rectangle", [2.0, 1.0], [64, 32]))
        pair = principal_eigenpair(m, solver="iterative")
        assert pair.stats.path == "arpack"
        assert pair.stats.sigma is None
        assert pair.stats.applies > 0

    def test_smooth_weight_takes_one_arpack_run(self, monkeypatch):
        # the loose run ends in ARPACK's first cycle and passes the check
        ncvs = []
        runs = arpack_runs(monkeypatch, ncvs)
        m = smooth_x1(build_grid("rectangle", [2.0, 1.0], [64, 32]))
        pair = principal_eigenpair(m, solver="iterative")
        assert runs == ["S"]
        # one cycle of ncv + 1 applies, and the residual check's one
        assert pair.stats.applies == ncvs[0] + 2

    def test_rough_weight_goes_straight_to_shift_invert(self, monkeypatch):
        # a random start of the criterion-7 cylinder: no probe at tol
        runs = arpack_runs(monkeypatch)
        m = rough_bang_bang(build_grid("rectangle", [2.0, 1.0], [64, 32]), 1)
        pair = principal_eigenpair(m, solver="iterative")
        assert runs == ["S", "shifted"]
        assert pair.stats.path == "shift-invert"
        assert pair.stats.halvings == 0

    def test_patchy_weight_is_refined_on_s(self, monkeypatch):
        # the loose run ends in its first cycle short of tol
        ncvs = []
        runs = arpack_runs(monkeypatch, ncvs)
        m = patchy(build_grid("rectangle", [2.0, 1.0], [64, 32]), 0, 8)
        pair = principal_eigenpair(m, solver="iterative")
        assert runs == ["S", "S"]
        # both runs on S build the one basis size that the first-cycle
        # test counts
        assert ncvs[0] is not None and ncvs[1] == ncvs[0]
        assert pair.stats.path == "arpack"
        assert_matches_dense(pair, m)

    def test_stalled_refinement_falls_back_to_shift_invert(self,
                                                            monkeypatch):
        eigsh = spla.eigsh

        def stalled_refinement(A, *args, **kwargs):
            if "maxiter" in kwargs:
                raise spla.ArpackNoConvergence("stalled", np.empty(0),
                                               np.empty((A.shape[0], 0)))
            return eigsh(A, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", stalled_refinement)
        runs = arpack_runs(monkeypatch)
        m = patchy(build_grid("rectangle", [2.0, 1.0], [64, 32]), 0, 8)
        pair = principal_eigenpair(m, solver="iterative")
        assert runs == ["S", "S", "shifted"]
        assert pair.stats.path == "shift-invert"
        assert_matches_dense(pair, m)

    def test_nonpositive_refinement_shifts_from_the_loose_ritz_value(
            self, monkeypatch):
        # a refinement that ends on theta <= 0 once exited 4
        eigsh = spla.eigsh

        def negative_refinement(A, *args, **kwargs):
            vals, vecs = eigsh(A, *args, **kwargs)
            return (-vals if "maxiter" in kwargs else vals), vecs

        monkeypatch.setattr(spla, "eigsh", negative_refinement)
        runs = arpack_runs(monkeypatch)
        m = patchy(build_grid("rectangle", [2.0, 1.0], [64, 32]), 0, 8)
        pair = principal_eigenpair(m, solver="iterative")
        assert runs == ["S", "S", "shifted"]
        assert pair.stats.path == "shift-invert"
        assert_matches_dense(pair, m)

    def test_refined_pair_passes_the_residual_check(self, monkeypatch):
        # the refinement converges by ARPACK's own test, but its pair's
        # residual is 6.6e-3 theta and its lambda1 6.6e-3 off; inertia
        # bisection at 60 digits gives 528137859.30357839
        grid = build_grid("box", [0.00649496888538848, 623.1338406253602,
                                  0.5669134781240329], [2, 3, 5])
        values = np.full(grid.n_cells, -1.1607878233823088)
        values[[16, 20]] = 0.0001798056975087636
        runs = arpack_runs(monkeypatch)
        pair = principal_eigenpair(weights(grid, values), solver="iterative")
        assert runs == ["S", "S", "shifted"]
        assert pair.stats.path == "shift-invert"
        assert abs(pair.lambda1 / 528137859.30357839 - 1) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(grid_spec=st.sampled_from(ROUGH_GRIDS),
           kind=st.sampled_from(["smooth", "patchy", "rough"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_path_matches_dense(self, grid_spec, kind, seed):
        grid = build_grid(*grid_spec)
        m = {"smooth": lambda: smooth_x1(grid),
             "patchy": lambda: patchy(grid, seed, 2),
             "rough": lambda: rough_bang_bang(grid, seed)}[kind]()
        pair = principal_eigenpair(m, solver="iterative")
        event(f"{kind} path {pair.stats.path}")
        assert_matches_dense(pair, m)

    def test_dense_path_reports_no_applies(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        assert principal_eigenpair(m).stats == spectral.SolveStats("dense")

    def test_rough_weight_takes_shift_invert_path(self):
        # a random start of the criterion-7 cylinder
        m = rough_bang_bang(build_grid("rectangle", [2.0, 1.0], [64, 32]), 1)
        pair = principal_eigenpair(m, solver="iterative")
        assert pair.stats.path == "shift-invert"
        assert 0 < pair.stats.sigma < pair.lambda1
        assert pair.residual <= 1e-10

    def test_arpack_no_convergence_is_iteration_limit(self, monkeypatch,
                                                      interval64, rng):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.empty(0),
                                           np.empty((64, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        m = weights(interval64, random_admissible(rng, 64))
        with pytest.raises(IterationLimit):
            principal_eigenpair(m, solver="iterative")


class TestShiftInvert:
    def test_nonpositive_nu1_is_a_solver_error(self, monkeypatch):
        m = rough_bang_bang(build_grid("rectangle", [2.0, 1.0], [16, 8]), 0)
        eigsh = spla.eigsh

        def negative_when_shifted(A, *args, **kwargs):
            vals, vecs = eigsh(A, *args, **kwargs)
            return (-vals if "M" in kwargs else vals), vecs

        monkeypatch.setattr(spla, "eigsh", negative_when_shifted)
        with pytest.raises(SingularSystem, match="nu1"):
            shift_invert(m)

    @pytest.mark.parametrize("kind,extents,shape", ROUGH_GRIDS)
    def test_matches_dense_on_rough_weights(self, kind, extents, shape):
        grid = build_grid(kind, extents, shape)
        for seed in range(3):
            m = rough_bang_bang(grid, seed)
            pair = shift_invert(m)
            assert_matches_dense(pair, m)
            assert pair.stats.path == "shift-invert"
            assert 0 < pair.stats.sigma < pair.lambda1

    @settings(max_examples=30, deadline=None)
    @given(grid_spec=st.sampled_from(ROUGH_GRIDS),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_property(self, grid_spec, seed):
        grid = build_grid(*grid_spec)
        rng = np.random.default_rng(seed)
        m = weights(grid, random_admissible(rng, grid.n_cells))
        assert_matches_dense(shift_invert(m), m)

    def test_inertia_counts_pencil_eigenvalues_below_shift(self):
        grid = build_grid("rectangle", [2.0, 1.0], [16, 8])
        m = rough_bang_bang(grid, 0)
        lams = 1.0 / signed_spectrum(m, grid.n_cells).positive
        assert np.all(np.diff(lams) > 0)
        assert spectral._shifted_lu(m, 0.5 * lams[0])[2] == 0
        for j in range(5):
            sigma = 0.5 * (lams[j] + lams[j + 1])
            assert spectral._shifted_lu(m, sigma)[2] == j + 1

    def test_rejected_shift_is_halved(self, monkeypatch):
        m = rough_bang_bang(build_grid("rectangle", [2.0, 1.0], [16, 8]), 0)
        share = spectral._SHIFT_SHARE
        first = shift_invert(m)
        assert first.stats.halvings == 0
        # 3/theta and 1.5/theta lie above lambda1, 0.75/theta below it
        monkeypatch.setattr(spectral, "_SHIFT_SHARE", 3.0)
        halved = shift_invert(m)
        assert halved.stats.halvings == 2
        assert halved.stats.sigma == pytest.approx(
            first.stats.sigma * 0.75 / share, rel=1e-14)
        assert_matches_dense(halved, m)

    @pytest.mark.parametrize("value", [0.01, 0.001])
    def test_nonpositive_loose_ritz_value_shifts_from_the_indicator(
            self, value):
        # one small positive cell among 64 at -1: the loose run on S ends
        # on a nonpositive theta at most positions
        grid = build_grid("interval", [1.0], [64])
        for cell in range(64):
            values = -np.ones(64)
            values[cell] = value
            m = weights(grid, values)
            pair = principal_eigenpair(m, solver="iterative")
            assert_matches_dense(pair, m)
            assert pair.stats.path == "shift-invert"

    @pytest.mark.parametrize("length", [100.0, 200.0])
    def test_thin_cylinder_matches_its_cross_section(self, length):
        # a quarter of the cells at +1 in flat order is a band across the
        # thin axis, so lambda1 is the 1D one across it; the loose run on
        # S ends on a nonpositive theta, and dense fails at length 200
        grid = build_grid("rectangle", [length, 0.01], [64, 32])
        m = weights(grid, np.where(np.arange(2048) < 512, 1.0, -2.0))
        pair = principal_eigenpair(m, solver="iterative")
        section = build_grid("interval", [0.01], [32])
        oracle = principal_eigenpair(
            weights(section, np.where(np.arange(32) < 8, 1.0, -2.0)))
        assert abs(pair.lambda1 - oracle.lambda1) <= 1e-10 * oracle.lambda1
        assert pair.residual <= 1e-10

    def test_fallback_no_convergence_is_iteration_limit(self, monkeypatch):
        m = rough_bang_bang(build_grid("rectangle", [2.0, 1.0], [16, 8]), 0)
        eigsh = spla.eigsh

        def stalled_when_shifted(A, *args, **kwargs):
            if "M" in kwargs:
                raise spla.ArpackNoConvergence("stalled", np.empty(0),
                                               np.empty((128, 0)))
            return eigsh(A, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", stalled_when_shifted)
        with pytest.raises(IterationLimit):
            shift_invert(m)


class TestSignedSpectrum:
    def test_negative_weight_has_no_positive_eigenvalues(self, interval64):
        m = weights(interval64, -np.linspace(0.5, 1.5, 64))
        spec = signed_spectrum(m, 5)
        assert spec.positive.size == 0
        assert spec.negative.size == 5

    def test_sign_structure_and_ordering(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        spec = signed_spectrum(m, 6)
        assert spec.positive.size > 0
        assert np.all(spec.positive > 0)
        assert np.all(np.diff(spec.positive) <= 0)
        assert np.all(spec.negative < 0)
        assert np.all(np.diff(spec.negative) >= 0)
        assert spec.basis_dim == 63
        assert np.abs(spec.positive).max() <= spec.bound
        assert np.abs(spec.negative).max() <= spec.bound

    def test_cross_check_with_principal(self, interval64, rng):
        for _ in range(10):
            m = weights(interval64, random_admissible(rng, 64))
            spec = signed_spectrum(m, 1)
            pair = principal_eigenpair(m)
            assert abs(spec.positive[0] - pair.mu1) <= 1e-10 * pair.mu1

    def test_simplicity_gap_flagged_not_asserted(self, interval64, rng):
        # simplicity of mu1 is flagged when numerically marginal, never
        # turned into a failure
        flagged = 0
        for _ in range(20):
            m = weights(interval64, random_admissible(rng, 64))
            spec = signed_spectrum(m, 2)
            gap = spec.positive[0] - spec.positive[1]
            assert gap >= 0
            if gap < 1e-8:
                flagged += 1
                print(f"simplicity gap marginal: {gap:.3e}")
        assert flagged <= 20  # informational only


class TestRayleigh:
    def test_eigenfunction_attains_mu1(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        pair = principal_eigenpair(m)
        assert rayleigh_quotient(m, pair.u) == pytest.approx(
            pair.mu1, rel=1e-12)

    def test_bounded_by_mu1(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        mu1 = principal_eigenpair(m).mu1
        for _ in range(100):
            f = project_mean_zero(m, rng.standard_normal(64))
            assert rayleigh_quotient(m, f) <= mu1 + 1e-12

    def test_constant_rejected(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        with pytest.raises(ConstantField):
            rayleigh_quotient(m, np.full(64, 3.0))


class TestDerivative:
    def test_euler_identity_iterative_above_dense_limit(self, rng):
        grid = build_grid("rectangle", [2.0, 1.0], [128, 64])
        m = weights(grid, random_admissible(rng, grid.n_cells))
        mu1 = principal_eigenpair(m, solver="iterative").mu1
        deriv = mu1_derivative(m, m.values, solver="iterative")
        assert abs(deriv - mu1) <= 1e-10 * mu1

    def test_linear_in_direction(self, interval64, rng):
        m = weights(interval64, random_admissible(rng, 64))
        pair = principal_eigenpair(m)
        mass = (interval64.cell_measure * pair.u ** 2).sum()
        c = 3.7
        assert mu1_derivative(m, np.full(64, c)) == pytest.approx(
            c * mass, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(shape=SMALL_SHAPES, extents=EXTENTS, seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.1, 10.0))
def test_invariants_on_random_admissible_weights(shape, extents, seed, alpha):
    grid = drawn_grid(shape, extents)
    vals = random_admissible(np.random.default_rng(seed), grid.n_cells)
    m = weights(grid, vals)
    for solver in SOLVERS:
        pair = principal_eigenpair(m, solver=solver)
        scaled = principal_eigenpair(weights(grid, alpha * vals),
                                     solver=solver)
        assert abs(scaled.mu1 - alpha * pair.mu1) <= 1e-10 * alpha * pair.mu1
        assert abs(mu1_derivative(m, vals, solver=solver) - pair.mu1) \
            <= 1e-10 * pair.mu1
        assert pair.u.min() > 0
        if solver == "iterative":
            assert_matches_dense(pair, m)


@settings(max_examples=25, deadline=None)
@given(shape=SMALL_SHAPES, extents=EXTENTS, seed=st.integers(0, 2 ** 32 - 1),
       b_has_positive_part=st.booleans())
def test_extended_mu1_convex_on_drawn_grids(shape, extents, seed,
                                            b_has_positive_part):
    grid = drawn_grid(shape, extents)
    rng = np.random.default_rng(seed)
    a = random_admissible(rng, grid.n_cells)
    if b_has_positive_part:
        b = random_admissible(rng, grid.n_cells)
    else:
        b = -rng.uniform(0.1, 1.0, grid.n_cells)  # the extension is zero
    mu_a = mu1_extended(weights(grid, a))
    mu_b = mu1_extended(weights(grid, b))
    for t in (0.25, 0.5, 0.75):
        mix = mu1_extended(weights(grid, t * a + (1 - t) * b))
        assert mix <= t * mu_a + (1 - t) * mu_b + 1e-10


def test_random_admissible_on_few_cells():
    # with two cells, raising one to give a positive part once lifted the
    # mean above zero
    for n in (2, 3, 4):
        for seed in range(50):
            vals = random_admissible(np.random.default_rng(seed), n)
            assert vals.max() > 0 and vals.mean() <= -0.05


class TestExtendedMu1:
    def test_zero_without_positive_part(self, interval64):
        m = weights(interval64, -np.linspace(0.5, 1.5, 64))
        assert mu1_extended(m) == 0.0
        assert not m.has_positive_part

    def test_matches_mu1_when_defined(self, interval64, rng):
        vals = random_admissible(rng, 64)
        assert mu1_extended(weights(interval64, vals)) == pytest.approx(
            principal_eigenpair(weights(interval64, vals)).mu1, rel=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(interval64, bad):
    vals = np.r_[np.ones(16), -np.ones(48)]
    vals[5] = bad
    with pytest.raises(ValidationError, match="finite"):
        weight_field(interval64, vals)


def test_weight_flags_recomputed(interval64):
    m = weight_field(interval64, np.r_[np.ones(16), -np.ones(48)])
    assert m.integral == pytest.approx(-0.5)
    assert m.has_positive_part and m.is_admissible
    m2 = weight_field(interval64, -np.ones(64))
    assert not m2.has_positive_part and not m2.is_admissible


#: a child run on a seeded 128x128 bang-bang weight: sha256 of the
#: projected field's bytes and the repr of its Rayleigh quotient
_REDUCTIONS_CHILD = """
import hashlib
import numpy as np
from eigenweight import (build_grid, project_mean_zero, rayleigh_quotient,
                         weight_field)
grid = build_grid("rectangle", [2.0, 1.0], [128, 128])
rng = np.random.default_rng(0)
m = weight_field(grid, rng.permutation(
    np.where(np.arange(grid.n_cells) < grid.n_cells // 4, 1.0, -2.0)))
f = rng.standard_normal(grid.n_cells)
print(hashlib.sha256(project_mean_zero(m, f).tobytes()).hexdigest())
print(repr(rayleigh_quotient(m, f)))
"""


#: a child solve of a seeded rough 128x80 weight: the repr of lambda1 and
#: the sha256 of u's bytes
_SOLVE_CHILD = """
import hashlib
import numpy as np
from eigenweight import build_grid, principal_eigenpair, weight_field
grid = build_grid("rectangle", [2.0, 1.0], [128, 80])
m = weight_field(grid, np.random.default_rng(0).permutation(
    np.where(np.arange(grid.n_cells) < grid.n_cells // 4, 1.0, -2.0)))
pair = principal_eigenpair(m, solver="iterative")
print(repr(pair.lambda1))
print(hashlib.sha256(pair.u.tobytes()).hexdigest())
"""


def child_outputs_at_blas_threads(child: str) -> list:
    """The stdout of ``child`` run at one and at two OpenBLAS threads."""
    src = str(Path(eigenweight.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run(
            [sys.executable, "-c", child], env=env, check=True,
            capture_output=True, text=True).stdout)
    return outputs


def test_reductions_independent_of_blas_threads():
    # 16384 cells: long enough that a BLAS ddot would run threaded
    outputs = child_outputs_at_blas_threads(_REDUCTIONS_CHILD)
    assert outputs[0] == outputs[1]


def test_iterative_solve_independent_of_blas_threads():
    # 10240 cells: ARPACK's own BLAS calls would run threaded
    outputs = child_outputs_at_blas_threads(_SOLVE_CHILD)
    assert outputs[0] == outputs[1]
