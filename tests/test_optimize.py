import itertools
import json
import multiprocessing.context
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from eigenweight import (
    IndivisibleStripes,
    NotAdmissibleClass,
    build_grid,
    check_monotone_x1,
    comonotone_arrangement,
    count_comonotone_violations,
    decreasing_rearrangement,
    equimeasurable,
    minimize_lambda1,
    oscillating_arrangement,
    principal_eigenpair,
    weight_field,
)
from eigenweight import optimize
from eigenweight.optimize import (
    _blas_thread_controls,
    _one_blas_thread,
    _parallel_runs,
    _run_restarts,
    _start_field,
)
from oracles import (
    oscillating_layout,
    restart_loop,
    spawned_start_fields,
    two_phase_lambda1,
)


def bang_bang_class(grid, n_pos, pos=1.0, neg=-2.0):
    values = np.full(grid.n_cells, neg)
    values[:n_pos] = pos
    return decreasing_rearrangement(values, grid), values


class TestCheckMonotone:
    def test_decreasing(self):
        grid = build_grid("interval", [1.0], [4])
        rep = check_monotone_x1([3.0, 2.0, 2.0, 1.0], grid)
        assert rep.classification == "monotone_decreasing"

    def test_not_monotone(self):
        grid = build_grid("interval", [1.0], [3])
        rep = check_monotone_x1([1.0, 2.0, 1.0], grid)
        assert rep.classification == "not_monotone"

    def test_constant_reports_decreasing(self):
        grid = build_grid("interval", [1.0], [5])
        rep = check_monotone_x1(np.full(5, 2.0), grid)
        assert rep.classification == "monotone_decreasing"
        assert rep.per_line == ("constant",)

    def test_mixed_lines(self):
        grid = build_grid("rectangle", [1.0, 1.0], [3, 2])
        f = np.array([3.0, 2.0, 1.0, 1.0, 2.0, 3.0])
        rep = check_monotone_x1(f, grid)
        assert rep.classification == "not_monotone"
        assert rep.per_line == ("decreasing", "increasing")

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(2, 4), min_size=2, max_size=3),
           data=st.data())
    def test_labels_match_per_line_loop(self, shape, data):
        grid = build_grid(("rectangle", "box")[len(shape) - 2],
                          [1.0] * len(shape), shape)
        n1 = shape[0]
        n_lines = grid.n_cells // n1
        level = st.integers(-2, 2).map(float)
        m = np.concatenate(data.draw(st.lists(
            st.one_of(level.map(lambda c: [c] * n1),  # a constant line
                      st.lists(level, min_size=n1, max_size=n1)),
            min_size=n_lines, max_size=n_lines)))
        expected = []
        for r in range(n_lines):
            d = np.diff(m[r * n1:(r + 1) * n1])
            if np.all(d == 0):
                expected.append("constant")
            elif np.all(d <= 0):
                expected.append("decreasing")
            elif np.all(d >= 0):
                expected.append("increasing")
            else:
                expected.append("none")
        rep = check_monotone_x1(m, grid)
        assert rep.per_line == tuple(expected)
        if set(expected) <= {"decreasing", "constant"}:
            assert rep.classification == "monotone_decreasing"
        elif set(expected) <= {"increasing", "constant"}:
            assert rep.classification == "monotone_increasing"
        else:
            assert rep.classification == "not_monotone"


class TestComonotoneViolations:
    def test_matches_brute_force_pair_count(self, rng):
        # few distinct levels give ties in both u and m
        for shape in [(2,), (3,), (17,), (8, 5), (4, 3, 3)]:
            kind = {1: "interval", 2: "rectangle", 3: "box"}[len(shape)]
            grid = build_grid(kind, [1.0] * len(shape), shape)
            for _ in range(20):
                u = rng.integers(0, 5, grid.n_cells) * 0.25
                m = rng.integers(-2, 2, grid.n_cells) * 0.5
                brute = int(np.sum((u[:, None] > u[None, :])
                                   & (m[:, None] < m[None, :])))
                assert count_comonotone_violations(m, u, grid) == brute

    @settings(max_examples=200, deadline=None)
    @given(shape=st.one_of(
               st.tuples(st.integers(2, 300)),
               st.tuples(st.integers(2, 16), st.integers(2, 16)),
               st.tuples(st.integers(2, 6), st.integers(2, 6),
                         st.integers(2, 6))),
           levels=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           data=st.data())
    def test_merge_count_matches_brute_force(self, shape, levels, data):
        # few levels give long runs of ties in u and in m; -0.0 ties 0.0
        kind = {1: "interval", 2: "rectangle", 3: "box"}[len(shape)]
        grid = build_grid(kind, [1.0] * len(shape), shape)
        u, m = (np.array(data.draw(st.lists(
            st.sampled_from([0.5 * i for i in range(k)] + [-0.0]),
            min_size=grid.n_cells, max_size=grid.n_cells)))
            for k in levels)
        brute = int(np.sum((u[:, None] > u[None, :])
                           & (m[:, None] < m[None, :])))
        assert count_comonotone_violations(m, u, grid) == brute

    def test_ties_in_u_count_no_pairs(self):
        grid = build_grid("interval", [1.0], [6])
        u = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        assert count_comonotone_violations(
            [-1.0, 0.0, 2.0, -3.0, 1.0, 5.0], u, grid) == 5
        assert count_comonotone_violations(
            [3.0, 2.0, 1.0, 1.0, 0.0, -1.0], u, grid) == 0


class TestMinimize:
    def test_rejects_all_negative_class(self):
        grid = build_grid("interval", [1.0], [16])
        cls = decreasing_rearrangement(-np.linspace(1, 2, 16), grid)
        with pytest.raises(NotAdmissibleClass):
            minimize_lambda1(cls, grid)

    def test_endpoint_block_matches_shooting_oracle(self):
        # n = 256 resolves the endpoint block to the stated tolerance;
        # coarser grids leave a larger scheme constant
        grid = build_grid("interval", [1.0], [256])
        cls, _ = bang_bang_class(grid, 64)
        result = minimize_lambda1(cls, grid, restarts=2, seed=3)
        assert result.converged
        lam_star = two_phase_lambda1(1.0, 2.0, 0.25, 1.0)
        assert abs(result.final_pair.lambda1 - lam_star) / lam_star < 1e-3

    def test_restart_from_own_output_is_fixed_point(self):
        grid = build_grid("interval", [1.0], [64])
        cls, _ = bang_bang_class(grid, 16)
        first = minimize_lambda1(cls, grid)
        rerun_cls = decreasing_rearrangement(first.final_m, grid)
        # start the sweep directly from the minimizer's arrangement
        again = minimize_lambda1(rerun_cls, grid)
        assert again.converged
        assert len(again.trace) <= 3
        assert again.trace[-1][3] == 0
        np.testing.assert_array_equal(again.final_m, first.final_m)

    def test_trace_ascent_and_class_preservation(self, rng):
        grid = build_grid("interval", [1.0], [48])
        cls, values = bang_bang_class(grid, 12)
        result = minimize_lambda1(cls, grid, restarts=4, seed=11)
        mus = [mu for _, mu, _, _ in result.trace]
        assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))
        assert equimeasurable(result.final_m, values, grid)
        assert result.comonotone_violations == 0
        assert result.converged

    def test_subgradient_ascent_inequality(self, rng):
        # one sweep gains at least the first-order prediction
        grid = build_grid("interval", [1.0], [48])
        cls, values = bang_bang_class(grid, 12)
        w = grid.cell_measure
        m = rng.permutation(values)
        for _ in range(6):
            pair = principal_eigenpair(weight_field(grid, m))
            m_next = comonotone_arrangement(cls, pair.u, grid)
            gain_bound = (w * (m_next - m)) @ (pair.u ** 2)
            assert gain_bound >= -1e-12
            mu_next = principal_eigenpair(weight_field(grid, m_next)).mu1
            assert mu_next >= pair.mu1 + gain_bound - 1e-10
            if np.array_equal(m_next, m):
                break
            m = m_next

    def test_converged_iterates_are_comonotone(self):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        result = minimize_lambda1(cls, grid, restarts=3, seed=5)
        assert result.converged
        assert count_comonotone_violations(
            result.final_m, result.final_pair.u, grid) == 0

    def test_1d_minimizer_is_monotone(self):
        grid = build_grid("interval", [1.0], [64])
        cls, _ = bang_bang_class(grid, 16)
        result = minimize_lambda1(cls, grid, restarts=3, seed=1)
        assert result.monotone_x1.classification in (
            "monotone_decreasing", "monotone_increasing")

    def test_2d_minimizer_is_monotone(self):
        grid = build_grid("rectangle", [2.0, 1.0], [16, 8])
        n = grid.n_cells
        cls, _ = bang_bang_class(grid, n // 4)
        result = minimize_lambda1(cls, grid, restarts=4, seed=0,
                                  solver="iterative")
        assert result.monotone_x1.classification in (
            "monotone_decreasing", "monotone_increasing")
        assert result.comonotone_violations == 0

    def test_deterministic_given_seed(self):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        a = minimize_lambda1(cls, grid, restarts=3, seed=42)
        b = minimize_lambda1(cls, grid, restarts=3, seed=42)
        np.testing.assert_array_equal(a.final_m, b.final_m)
        assert a.trace == b.trace

    @pytest.mark.parametrize("shape,solver,max_iters,solves", [
        ([12, 6], "dense", 200, 35),
        ([12, 6], "dense", 3, 27),  # nothing converges
        ([16, 8], "iterative", 200, 35),
        ([16, 8], "dense", 6, 34),
        ([32], "dense", 2, 14),
        ([32], "iterative", 3, 14),
    ])
    def test_memoised_restarts_match_full_runs(self, monkeypatch, shape,
                                               solver, max_iters, solves):
        grid = build_grid(("interval", "rectangle")[len(shape) - 1],
                          [2.0, 1.0][:len(shape)], shape)
        cls, _ = bang_bang_class(grid, grid.n_cells // 4)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return principal_eigenpair(*args, **kwargs)

        with monkeypatch.context() as patch:
            # one worker: every solve is counted in this process
            patch.setattr("eigenweight.optimize._usable_cpus", lambda: 1)
            patch.setattr("eigenweight.optimize.principal_eigenpair", counted)
            result = minimize_lambda1(cls, grid, max_iters=max_iters,
                                      restarts=8, seed=0, solver=solver)
        _, m, pair, trace, converged, distinct = restart_loop(
            cls, grid, max_iters, 1e-12, 8, 0, solver)
        assert len(calls) == result.solves == distinct == solves
        assert result.final_m.tobytes() == m.tobytes()
        assert result.final_pair.u.tobytes() == pair.u.tobytes()
        assert repr(result.final_pair.lambda1) == repr(pair.lambda1)
        assert result.trace == trace
        assert result.converged == converged

    def test_iteration_limit_reported_not_raised(self):
        grid = build_grid("interval", [1.0], [32])
        cls, values = bang_bang_class(grid, 8)
        result = minimize_lambda1(cls, grid, max_iters=0)
        assert not result.converged
        assert len(result.trace) == 1
        assert equimeasurable(result.final_m, values, grid)


def _optimize_on(monkeypatch, cpus, *args, **kwargs):
    """minimize_lambda1 as if ``cpus`` CPUs were usable."""
    with monkeypatch.context() as patch:
        patch.setattr("eigenweight.optimize._usable_cpus", lambda: cpus)
        return minimize_lambda1(*args, **kwargs)


def _openblas_thread_counts() -> list:
    return [get() for get, _ in _blas_thread_controls()]


# Tasks that stand in for ``_run_restarts`` live at module level: a
# worker's task is pickled by reference, and a local function has none.

def _recorded_restarts(restarts, *args):
    """``_run_restarts``, recording its slice, the restart of the run it
    returns, the run's length and its process in $SLICE_RECORDS."""
    run, seen = _run_restarts(restarts, *args)
    record = [list(restarts), run[1], len(run), os.getpid()]
    path = Path(os.environ["SLICE_RECORDS"], f"{restarts[0]}.json")
    path.write_text(json.dumps(record))
    return run, seen


def _report_blas_threads(restarts, *args):
    """The OpenBLAS thread counts and OS threads after a BLAS call."""
    a = np.ones((256, 256))
    a @ a  # a threaded BLAS call at more than one thread
    threads = (len(os.listdir("/proc/self/task"))
               if os.path.isdir("/proc/self/task") else 1)
    return (_openblas_thread_counts(), threads), set()


#: a child that runs ``_parallel_runs`` on a stand-in pickle refuses (a
#: lambda has no name to be found by) and prints the error it raised
_UNPICKLABLE_CHILD = """
from eigenweight import optimize
optimize._run_restarts = lambda restarts, *args: (None, set())
try:
    optimize._parallel_runs(2, 4, ())
except Exception as exc:
    print(type(exc).__name__, exc)
"""


class TestParallelRestarts:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("restarts", [2, 8])
    def test_lazy_start_field_is_the_spawned_draw(self, seed, restarts):
        grid = build_grid("rectangle", [2.0, 1.0], [8, 4])
        cls, _ = bang_bang_class(grid, 8)
        spawned = spawned_start_fields(cls, grid, restarts, seed)
        for restart, expected in enumerate(spawned):
            assert _start_field(cls, grid, restart, seed).tobytes() \
                == expected.tobytes()

    @pytest.mark.parametrize("shape,solver,max_iters", [
        ([32], "dense", 200),
        ([32], "iterative", 3),
        ([12, 6], "dense", 200),
        ([16, 8], "iterative", 200),
        ([16, 8], "dense", 6),
    ])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_workers_match_inline(self, monkeypatch, shape, solver,
                                  max_iters, seed):
        grid = build_grid(("interval", "rectangle")[len(shape) - 1],
                          [2.0, 1.0][:len(shape)], shape)
        cls, _ = bang_bang_class(grid, grid.n_cells // 4)
        args = (cls, grid)
        kwargs = dict(max_iters=max_iters, restarts=6, seed=seed,
                      solver=solver)
        inline = _optimize_on(monkeypatch, 1, *args, **kwargs)
        pooled = _optimize_on(monkeypatch, 3, *args, **kwargs)
        assert pooled.final_m.tobytes() == inline.final_m.tobytes()
        assert pooled.final_pair.u.tobytes() == inline.final_pair.u.tobytes()
        assert repr(pooled.final_pair.lambda1) \
            == repr(inline.final_pair.lambda1)
        assert pooled.trace == inline.trace
        assert pooled.solves == inline.solves
        assert pooled.converged == inline.converged

    @pytest.mark.parametrize("cpus,restarts,started", [
        (1, 8, 0), (3, 8, 3), (3, 2, 2), (8, 1, 0)])
    def test_starts_at_most_one_process_per_cpu_and_restart(
            self, monkeypatch, cpus, restarts, started):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        starts = []
        fork_start = multiprocessing.context.ForkProcess.start

        def counted(process):
            starts.append(None)
            return fork_start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            counted)
        _optimize_on(monkeypatch, cpus, cls, grid, restarts=restarts)
        assert len(starts) == started

    def test_each_worker_runs_one_fixed_slice(self, monkeypatch, tmp_path):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        inline = _optimize_on(monkeypatch, 1, cls, grid, restarts=8, seed=4)
        monkeypatch.setenv("SLICE_RECORDS", str(tmp_path))
        monkeypatch.setattr(optimize, "_run_restarts", _recorded_restarts)
        result = _optimize_on(monkeypatch, 3, cls, grid, restarts=8, seed=4)
        records = sorted(json.loads(path.read_text())
                         for path in tmp_path.iterdir())
        # worker w runs restarts w, w + 3, ...; it returns one run, a
        # (mu1, restart, m, pair, trace, converged) from its slice
        assert [slice_ for slice_, _, _, _ in records] \
            == [[0, 3, 6], [1, 4, 7], [2, 5]]
        for slice_, restart, fields, pid in records:
            assert restart in slice_ and fields == 6 and pid != os.getpid()
        assert result.final_m.tobytes() == inline.final_m.tobytes()
        assert result.trace == inline.trace
        assert result.solves == inline.solves

    def test_unpicklable_task_raises(self):
        # both tasks fail to pickle; a pool that received them hung in its
        # shutdown, so the child runs in its own session, killed if late
        src = str(Path(optimize.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-c", _UNPICKLABLE_CHILD], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("_parallel_runs hung on tasks it cannot pickle")
        assert child.returncode == 0, err
        assert "pickle" in out.lower(), out

    def test_workers_inherit_one_blas_thread(self, monkeypatch):
        controls = _blas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy bundle no OpenBLAS")

        before = _openblas_thread_counts()
        for _, set_ in controls:
            set_(2)
        try:
            monkeypatch.setattr(optimize, "_run_restarts",
                                _report_blas_threads)
            with _one_blas_thread():
                parts = _parallel_runs(2, 3, ())
            assert _openblas_thread_counts() == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)
        # one BLAS thread, and no OpenBLAS helper thread in the worker
        assert parts == [(([1] * len(controls), 1), set())] * 2

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_inline_restarts_solve_at_one_blas_thread(self, monkeypatch,
                                                      restarts):
        controls = _blas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy bundle no OpenBLAS")
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        seen = []

        def counted(*args, **kwargs):
            seen.append(tuple(_openblas_thread_counts()))
            return principal_eigenpair(*args, **kwargs)

        monkeypatch.setattr("eigenweight.optimize.principal_eigenpair",
                            counted)
        before = _openblas_thread_counts()
        for _, set_ in controls:
            set_(2)
        try:
            _optimize_on(monkeypatch, 1, cls, grid, restarts=restarts)
            after = _openblas_thread_counts()
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)
        # a single restart keeps the process's count
        assert set(seen) == {(1 if restarts > 1 else 2,) * len(controls)}
        assert after == [2] * len(controls)

    def test_falls_back_inline_without_fork(self, monkeypatch):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        inline = _optimize_on(monkeypatch, 1, cls, grid, restarts=4, seed=2)

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        result = _optimize_on(monkeypatch, 4, cls, grid, restarts=4, seed=2)
        assert result.final_m.tobytes() == inline.final_m.tobytes()
        assert result.trace == inline.trace

    def test_falls_back_inline_when_a_worker_dies(self, monkeypatch):
        grid = build_grid("interval", [1.0], [32])
        cls, _ = bang_bang_class(grid, 8)
        inline = _optimize_on(monkeypatch, 1, cls, grid, restarts=4, seed=2)
        parent = os.getpid()

        def dies_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return principal_eigenpair(*args, **kwargs)

        monkeypatch.setattr("eigenweight.optimize.principal_eigenpair",
                            dies_in_worker)
        result = _optimize_on(monkeypatch, 2, cls, grid, restarts=4, seed=2)
        assert result.final_m.tobytes() == inline.final_m.tobytes()
        assert result.trace == inline.trace
        assert result.solves == inline.solves


class TestOscillating:
    def test_k1_is_canonical(self):
        grid = build_grid("interval", [1.0], [8])
        cls, _ = bang_bang_class(grid, 2)
        out = oscillating_arrangement(cls, grid, 1)
        np.testing.assert_array_equal(out, cls.cell_values(grid))

    def test_one_cell_stripes_alternate(self):
        grid = build_grid("interval", [1.0], [8])
        values = np.r_[np.ones(4), -np.ones(4) * 2]
        cls = decreasing_rearrangement(values, grid)
        out = oscillating_arrangement(cls, grid, 8)
        np.testing.assert_array_equal(
            out, [1.0, -2.0, 1.0, -2.0, 1.0, -2.0, 1.0, -2.0])

    def test_indivisible_stripes(self):
        grid = build_grid("interval", [1.0], [8])
        cls, _ = bang_bang_class(grid, 2)
        with pytest.raises(IndivisibleStripes):
            oscillating_arrangement(cls, grid, 3)

    def test_stays_in_class(self):
        grid = build_grid("interval", [1.0], [64])
        cls, values = bang_bang_class(grid, 16)
        for k in (1, 2, 4, 8, 16, 32, 64):
            out = oscillating_arrangement(cls, grid, k)
            assert equimeasurable(out, values, grid)


def _compositions(n, parts):
    """All ways to write n as an ordered sum of `parts` positive counts."""
    for cuts in itertools.combinations(range(1, n), parts - 1):
        yield np.diff((0,) + cuts + (n,))


@pytest.mark.parametrize("shape", [(8,), (12,), (6, 2)])
def test_oscillating_matches_brute_force(shape):
    # multi-valued classes whose stripes fill up before the last value
    grid = build_grid("interval" if len(shape) == 1 else "rectangle",
                      [1.0] * len(shape), shape)
    n1 = shape[0]
    levels = np.array([2.0, 0.5, -1.0, -3.0])
    hits = layouts = 0
    for parts in (2, 3, 4):
        for counts in _compositions(grid.n_cells, parts):
            cls = decreasing_rearrangement(
                np.repeat(levels[:parts], counts), grid)
            for k in (k for k in range(1, n1 + 1) if n1 % k == 0):
                expected, hit_full = oscillating_layout(
                    cls.values, cls.cell_counts(grid), n1, grid.n_cells, k)
                got = oscillating_arrangement(cls, grid, k)
                assert got.tobytes() == expected.tobytes(), (counts, k)
                hits += hit_full
                layouts += 1
    assert hits > layouts // 4


def test_oscillating_matches_brute_force_criterion_8():
    grid = build_grid("interval", [1.0], [256])
    cls = decreasing_rearrangement(
        np.where(np.arange(256) < 64, 1.0, -2.0), grid)
    for k in (1, 2, 4, 8, 16):
        expected, _ = oscillating_layout(cls.values, cls.cell_counts(grid),
                                         256, 256, k)
        assert oscillating_arrangement(cls, grid, k).tobytes() \
            == expected.tobytes()


#: first-axis cell counts with several divisors, and transverse counts
STRIPE_AXES = st.one_of(
    st.tuples(st.sampled_from([4, 6, 8, 12, 16, 24, 30, 36, 48, 60, 64])),
    st.tuples(st.sampled_from([4, 6, 8, 12, 16]), st.integers(2, 4)))


@settings(max_examples=200, deadline=None)
@given(shape=STRIPE_AXES, data=st.data())
def test_oscillating_matches_brute_force_property(shape, data):
    grid = build_grid("interval" if len(shape) == 1 else "rectangle",
                      [1.0] * len(shape), shape)
    n, n1 = grid.n_cells, shape[0]
    parts = data.draw(st.integers(2, min(5, n)))
    cuts = data.draw(st.permutations(range(1, n)))[:parts - 1]
    counts = np.diff([0] + sorted(cuts) + [n])
    top = data.draw(st.floats(-10, 10))
    gaps = data.draw(st.lists(st.floats(0.01, 5), min_size=parts,
                              max_size=parts))
    cls = decreasing_rearrangement(
        np.repeat(top - np.cumsum(gaps), counts), grid)
    hits = 0
    for k in (k for k in range(1, n1 + 1) if n1 % k == 0):
        expected, hit_full = oscillating_layout(
            cls.values, cls.cell_counts(grid), n1, n, k)
        assert oscillating_arrangement(cls, grid, k).tobytes() \
            == expected.tobytes(), (counts, k)
        hits += hit_full
    # steer the search toward layouts whose nearest stripe is full
    target(float(hits))


def test_oscillating_matches_brute_force_64x32():
    grid = build_grid("rectangle", [2.0, 1.0], [64, 32])
    cls, _ = bang_bang_class(grid, 683)
    hits = 0
    for k in (k for k in range(1, 65) if 64 % k == 0):
        expected, hit_full = oscillating_layout(
            cls.values, cls.cell_counts(grid), 64, grid.n_cells, k)
        assert oscillating_arrangement(cls, grid, k).tobytes() \
            == expected.tobytes(), k
        hits += hit_full
    assert hits == 6  # every k > 1 fills some nearest stripe
