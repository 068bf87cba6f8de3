import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenweight import (
    InvalidSpec,
    NegativeInitial,
    UnstableStep,
    assemble_stiffness,
    build_grid,
    principal_eigenpair,
    simulate_logistic,
    weight_field,
)
from oracles import random_admissible


@pytest.fixture(scope="module")
def setup_1d():
    grid = build_grid("interval", [1.0], [64])
    x = grid.cell_centers()[:, 0]
    m = weight_field(grid, np.where(x < 0.5, 1.0, -3.0))
    lam1 = principal_eigenpair(m).lambda1
    return grid, m, lam1


@pytest.mark.parametrize("kind,extents,shape", [
    ("interval", [1.0], [7]),
    ("rectangle", [2.0, 1.0], [6, 5]),
    ("box", [1.0, 0.7, 1.3], [4, 3, 5]),
])
def test_diffusion_solve_matches_sparse(kind, extents, shape):
    # at gamma = 0 one macro step is one implicit diffusion substep:
    # (W/dt + K) v = W v0 / dt
    grid = build_grid(kind, extents, shape)
    rng = np.random.default_rng(7)
    m = weight_field(grid, np.r_[1.0, np.full(grid.n_cells - 1, -1.0)])
    dt = 0.013
    A = (sp.identity(grid.n_cells) * grid.cell_measure / dt
         + assemble_stiffness(grid)).tocsc()
    for _ in range(5):
        v0 = rng.uniform(0.0, 2.0, grid.n_cells)
        ref = spla.spsolve(A, grid.cell_measure * v0 / dt)
        traj = simulate_logistic(m, 0.0, v0, dt=dt, t_end=dt)
        assert traj.substeps == 1
        assert np.linalg.norm(traj.final_v - ref) <= 1e-12 * np.linalg.norm(
            ref)


def test_zero_initial_stays_zero(setup_1d):
    grid, m, _ = setup_1d
    traj = simulate_logistic(m, 2.0, np.zeros(64), dt=0.05, t_end=2.0)
    np.testing.assert_array_equal(traj.total_mass, 0.0)
    assert traj.outcome == "extinct"


def test_negative_initial_rejected(setup_1d):
    _, m, _ = setup_1d
    v0 = np.full(64, 0.01)
    v0[3] = -0.01
    with pytest.raises(NegativeInitial):
        simulate_logistic(m, 1.0, v0, dt=0.01, t_end=1.0)


def test_bad_step_parameters(setup_1d):
    _, m, _ = setup_1d
    with pytest.raises(InvalidSpec):
        simulate_logistic(m, 1.0, np.zeros(64), dt=0.0, t_end=1.0)
    with pytest.raises(InvalidSpec):
        simulate_logistic(m, -1.0, np.zeros(64), dt=0.1, t_end=1.0)


@pytest.mark.parametrize("dt,t_end", [(1e-300, 1e10), (1e-3, 1e4)])
def test_macro_step_cap(setup_1d, dt, t_end):
    # t_end / dt overflows to inf, or asks for 10^7 macro steps
    _, m, _ = setup_1d
    with pytest.raises(InvalidSpec, match=r"t_end / dt.*more than 1000000"):
        simulate_logistic(m, 1.0, np.full(64, 0.01), dt=dt, t_end=t_end)


@pytest.mark.parametrize("t_end", [1e-13, 1e-300])
def test_a_run_shorter_than_the_rounding_allowance_takes_one_step(
        setup_1d, t_end):
    # t_end / dt falls below the 1e-12 allowed for rounding: one macro
    # step still runs, and it ends at t_end
    _, m, _ = setup_1d
    traj = simulate_logistic(m, 1.0, np.full(64, 0.01), dt=1.0, t_end=t_end)
    assert traj.times.tolist() == [0.0, t_end]
    assert traj.substeps == 1 and traj.total_mass.size == 2


def test_unstable_guard(setup_1d):
    _, m, _ = setup_1d
    with pytest.raises(UnstableStep):
        simulate_logistic(m, 1e9, np.full(64, 0.01), dt=10.0, t_end=10.0)


@pytest.mark.parametrize("gamma,v0", [(1e308, 0.01)])
def test_overflowed_guard_is_unstable(gamma, v0):
    # gamma * (max|m| + 2 max v) overflows to inf
    grid = build_grid("interval", [1.0], [16])
    m = weight_field(grid, np.where(np.arange(16) < 4, 2.0, -2.0))
    with pytest.raises(UnstableStep, match="inf substeps"):
        simulate_logistic(m, gamma, np.full(16, v0), dt=0.01, t_end=1.0)


@pytest.mark.parametrize("gamma,v0", [
    (5.0, 1e308), (0.0, 1e308), (0.0, 8e307),
    (0.0, [1e308] + [0.0] * 15)])
def test_overflowing_initial_density_rejected(gamma, v0):
    # 16 * 8e307 overflows the initial mass, 2 * 1e308 the guard's rate
    grid = build_grid("interval", [1.0], [16])
    m = weight_field(grid, np.where(np.arange(16) < 4, 2.0, -2.0))
    v0 = np.broadcast_to(np.asarray(v0, dtype=float), 16)
    with pytest.raises(InvalidSpec, match="initial density"):
        simulate_logistic(m, gamma, v0, dt=0.01, t_end=1.0)


@pytest.mark.parametrize("dt,t_end", [(0.05, 1.0), (1.0, 1.05)])
def test_overflowing_substep_rejected(dt, t_end):
    # v0 / dt_sub overflows inside the step; the second case only in the
    # short last step of length 0.05
    grid = build_grid("interval", [1.0], [16])
    m = weight_field(grid, np.where(np.arange(16) < 4, 2.0, -2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidSpec, match="initial density.*0.05"):
            simulate_logistic(m, 0.0, np.full(16, 1e307), dt=dt,
                              t_end=t_end)


def test_pure_diffusion_conserves_mass(setup_1d):
    grid, m, _ = setup_1d
    x = grid.cell_centers()[:, 0]
    v0 = 0.5 + 0.4 * np.sin(2 * np.pi * x)
    traj = simulate_logistic(m, 0.0, v0, dt=0.01, t_end=2.0)
    drift = np.max(np.abs(traj.total_mass - traj.total_mass[0]))
    assert drift <= 1e-10 * abs(traj.total_mass[0]) * traj.times[-1]
    # diffusion flattens toward the mean
    assert traj.max_v[-1] - traj.min_v[-1] < traj.max_v[0] - traj.min_v[0]


def test_persistence_above_threshold(setup_1d):
    _, m, lam1 = setup_1d
    gamma = 1.2 * lam1
    traj = simulate_logistic(m, gamma, np.full(64, 0.01), dt=0.05,
                             t_end=50 / gamma)
    assert traj.outcome == "persistent"
    assert traj.clamp_events == 0
    assert traj.min_pre_clamp >= -1e-12


def test_extinction_below_threshold(setup_1d):
    _, m, lam1 = setup_1d
    gamma = 0.8 * lam1
    traj = simulate_logistic(m, gamma, np.full(64, 0.01), dt=0.05,
                             t_end=400 / gamma)
    assert traj.outcome == "extinct"
    assert traj.clamp_events == 0


@settings(max_examples=30, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(2, 64)),
                       st.tuples(st.integers(2, 8), st.integers(2, 8))),
       extents=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_threshold_on_drawn_weights(shape, extents, seed):
    # each horizon comes from the rate sigma of the linearization at v = 0,
    # the top eigenvalue of gamma diag(m) - K / w: 30 / |sigma| takes the
    # mass below 1e-9 of its start, 20 / sigma lifts a start up to the
    # steady state.  The persistent run starts from the subsolution
    # (sigma / 2 gamma) phi / max(phi), so its mass never falls and the
    # classifier's trend test cannot leave it undecided
    grid = build_grid(("interval", "rectangle")[len(shape) - 1],
                      extents[:len(shape)], shape)
    values = random_admissible(np.random.default_rng(seed), grid.n_cells)
    m = weight_field(grid, values)
    lam1 = principal_eigenpair(m).lambda1
    K = assemble_stiffness(grid).toarray() / grid.cell_measure
    for factor, horizon, outcome in ((0.5, 30, "extinct"),
                                     (1.5, 20, "persistent")):
        gamma = factor * lam1
        rates, modes = np.linalg.eigh(gamma * np.diag(values) - K)
        sigma, phi = rates[-1], np.abs(modes[:, -1])
        assert (sigma > 0) == (factor > 1)
        v0 = (0.5 * sigma / gamma * phi / phi.max() if factor > 1
              else np.full(grid.n_cells, 0.01))
        t_end = horizon / abs(sigma)
        traj = simulate_logistic(m, gamma, v0, dt=t_end / 100, t_end=t_end)
        assert traj.outcome == outcome
        assert traj.clamp_events == 0


def test_early_growth_sign_matches_linearization(setup_1d):
    # for tiny initial data the early mass trend follows sign(gamma - lambda1)
    _, m, lam1 = setup_1d
    v0 = np.full(64, 1e-6)
    for gamma, growing in ((1.3 * lam1, True), (0.7 * lam1, False)):
        traj = simulate_logistic(m, gamma, v0, dt=0.02, t_end=6.0 / lam1)
        burn = np.searchsorted(traj.times, 2.0 / lam1)
        trend = traj.total_mass[-1] - traj.total_mass[burn]
        assert (trend > 0) == growing


def test_nonnegativity_and_monotone_times(setup_1d):
    _, m, lam1 = setup_1d
    traj = simulate_logistic(m, 1.5 * lam1, np.full(64, 0.01), dt=0.05,
                             t_end=5.0)
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.min_v >= 0)


def test_undecided_near_criticality(setup_1d):
    # at the threshold the dynamics are too slow to classify on a short run
    _, m, lam1 = setup_1d
    traj = simulate_logistic(m, lam1, np.full(64, 1e-4), dt=0.05,
                             t_end=10 / lam1)
    assert traj.outcome == "undecided"


@pytest.mark.parametrize("factor,v0,t_end", [
    (1.2, 0.01, 3.01), (0.8, 3.0, 3.0), (1.2, 2.0, 1.0), (0.0, 0.5, 0.33)])
def test_substep_counts_match_recount(setup_1d, factor, v0, t_end):
    _, m, lam1 = setup_1d
    gamma, dt = factor * lam1, 0.05
    traj = simulate_logistic(m, gamma, np.full(64, v0), dt=dt, t_end=t_end)
    # the guard again, from the recorded max of v at each step's start
    m_abs_max = float(np.max(np.abs(m.values)))
    t, substeps, lengths = 0.0, 0, set()
    for v_max in traj.max_v[:-1]:
        step_dt = min(dt, t_end - t)
        n_sub = int(step_dt * gamma * (m_abs_max + 2.0 * max(v_max, 0.0))) + 1
        substeps += n_sub
        lengths.add(step_dt / n_sub)
        t += step_dt
    assert traj.substeps == substeps >= traj.times.size - 1
    assert traj.distinct_substep_lengths == len(lengths)
