"""Minimization of lambda1 over a rearrangement class.

Minimizing lambda1 is maximizing mu1 = 1/lambda1, which is convex with
directional derivative u_m^2; the subgradient inequality

    mu1(m') >= mu1(m) + sum_i w_i (m'_i - m_i) u_i^2

makes the fixed-point sweep  m  ->  comonotone_arrangement(class, u_m)
monotone in mu1: rearranging the class comonotone with the current
eigenfunction can only increase mu1.  Fixed points are exactly the
arrangements ordered like their own eigenfunction, the structure every
minimizer has.  Discrete fixed points need not be unique, so the driver
supports random restarts from seeded permutations.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pickle
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from .errors import NotAdmissibleClass, IndivisibleStripes
from .grid import Grid, as_field
from .rearrange import RearrangementClass, comonotone_arrangement
from .spectral import EigenPair, principal_eigenpair, weight_field


#: per-line label indexed by 2 * nonincreasing + nondecreasing
_LINE_LABELS = np.array(["none", "increasing", "decreasing", "constant"])


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Per-line monotonicity scan along the first axis.

    ``classification`` is monotone_decreasing, monotone_increasing or
    not_monotone (mixed directions count as not monotone; an all-constant
    field reports monotone_decreasing by convention).  ``per_line`` holds
    one of decreasing/increasing/constant/none per first-axis line.
    """

    classification: str
    per_line: tuple


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Outcome of the fixed-point minimization.

    ``trace`` lists (iteration, mu1, lambda1, changed_cells) for the best
    restart; mu1 is nondecreasing along it.  ``solves`` counts the
    distinct arrangements solved in the whole call, every restart
    included.
    ``comonotone_violations`` counts cell pairs ordered against the final
    eigenfunction (zero at a true fixed point) and ``monotone_x1``
    summarizes the final weight's monotonicity along the first axis.
    """

    final_m: np.ndarray
    final_pair: EigenPair
    trace: tuple
    converged: bool
    restarts_used: int
    solves: int
    comonotone_violations: int
    monotone_x1: MonotonicityReport


def check_monotone_x1(m, grid: Grid) -> MonotonicityReport:
    """Classify a field's monotonicity along every first-axis line."""
    diffs = np.diff(grid.lines(m), axis=1)
    noninc = np.all(diffs <= 0, axis=1)
    nondec = np.all(diffs >= 0, axis=1)
    per_line = tuple(_LINE_LABELS[2 * noninc + nondec].tolist())
    if noninc.all():
        classification = "monotone_decreasing"
    elif nondec.all():
        classification = "monotone_increasing"
    else:
        classification = "not_monotone"
    return MonotonicityReport(classification=classification, per_line=per_line)


def count_comonotone_violations(m, u, grid: Grid) -> int:
    """Pairs (i, j) with u_i > u_j but m_i < m_j.

    Zero exactly when m is an increasing function of u up to ties, the
    fixed-point characterization of minimizers.
    """
    m = as_field(grid, m)
    u = as_field(grid, u)
    # descending u, ties by descending m, so a pair with equal u never has
    # m rising along the order: the count is the pairs where it rises
    order = np.lexsort((-m, -u))
    rank = np.unique(m, return_inverse=True)[1][order]
    n = rank.size
    pos = np.arange(n)
    total = 0
    # a merge count: at level k every pair of halves of width 2^(k-1)
    # within one block of width 2^k counts its left members below each
    # right member, found by one sorted search over blocks keyed apart
    k = 1
    while 1 << (k - 1) < n:
        base = (pos >> k) * n
        right = ((pos >> (k - 1)) & 1).astype(bool)
        left_keys = np.sort(base[~right] + rank[~right])
        total += int((np.searchsorted(left_keys, base[right] + rank[right])
                      - np.searchsorted(left_keys, base[right])).sum())
        k += 1
    return total


def _start_field(cls: RearrangementClass, grid: Grid, restart: int,
                 seed) -> np.ndarray:
    """Restart 0 is the canonical arrangement (sorted values in flat cell
    order); restart i > 0 is a permutation drawn from child i - 1 of the
    seed's splittable generator, made only when the restart runs."""
    canonical = cls.cell_values(grid)
    if restart == 0:
        return canonical
    child = np.random.SeedSequence(seed, spawn_key=(restart - 1,))
    return np.random.default_rng(child).permutation(canonical)


def _run_restarts(restarts, cls: RearrangementClass, grid: Grid, seed,
                  max_iters: int, tol: float, solver: str) -> tuple:
    """The fixed-point sweeps of the listed restarts, one after another.

    Returns the best run as (mu1, restart, m, pair, trace, converged),
    ties toward the restart listed first, and the sha256 digests of the
    arrangements solved.  The restarts share one memo from digest to
    eigenpair: a restart that reaches an arrangement solved before reuses
    the pair and follows the earlier path with sweeps alone.
    """
    solved = {}
    best = None
    for restart in restarts:
        m = _start_field(cls, grid, restart, seed)
        trace = []
        changed = 0
        converged = False
        for it in range(max_iters + 1):
            key = hashlib.sha256(m.tobytes()).digest()
            pair = solved.get(key)
            if pair is None:
                pair = solved[key] = principal_eigenpair(
                    weight_field(grid, m), solver=solver, tol=tol)
            trace.append((it, pair.mu1, pair.lambda1, changed))
            if it == max_iters:
                break
            m_next = comonotone_arrangement(cls, pair.u, grid)
            changed = int(np.count_nonzero(m_next != m))
            if changed == 0:
                converged = True
                trace.append((it + 1, pair.mu1, pair.lambda1, 0))
                break
            m = m_next
        if best is None or pair.mu1 > best[0]:
            best = (pair.mu1, restart, m, pair, tuple(trace), converged)
    return best, set(solved)


#: OpenBLAS thread-count entry points, newest naming first
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


@cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS build bundled
    with scipy and numpy; empty where neither bundles one."""
    controls = []
    for package in (scipy, np):
        libs = Path(package.__file__).resolve().parent.parent
        for lib in sorted(libs.glob(f"{package.__name__}.libs/*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in _THREAD_SYMBOLS:
                get = getattr(handle, symbol.format("get"), None)
                set_ = getattr(handle, symbol.format("set"), None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    controls.append((get, set_))
                    break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Every bundled OpenBLAS at one thread inside, as before outside.

    Processes forked inside inherit the count.  Setting it in a child
    instead makes OpenBLAS re-create its helper threads there, as many as
    it was loaded with, and they spin against the other workers before
    they sleep: loaded at two threads on two CPUs, that made 8 forked
    restarts on 64x32 about an eighth slower.
    """
    controls = _blas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_runs(workers: int, restarts: int, args: tuple):
    """``_run_restarts`` on one fixed slice per forked worker process, or
    None when no such pool can run.

    Worker w runs restarts w, w + workers, ..., so the pool takes
    ``workers`` tasks whatever ``restarts`` is, and each worker's memo
    lives for its one call.  Errors raised by a restart propagate
    unchanged.  Workers are forked, not spawned: a spawned worker imports
    numpy and scipy afresh, which takes longer than a restart, and the
    executor forks its workers before it starts its own thread.  The task
    is pickled once before the pool starts, so one that cannot be pickled
    raises here: two such tasks in the pool would hang its shutdown.
    """
    # imported here: a run that never forks loads neither (half a MB)
    import multiprocessing
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    pickle.dumps((_run_restarts, args))
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        tasks = [pool.submit(_run_restarts, range(w, restarts, workers),
                             *args)
                 for w in range(workers)]
        return [task.result() for task in tasks]
    except (OSError, BrokenProcessPool):
        return None
    finally:
        pool.shutdown(cancel_futures=True)


def minimize_lambda1(cls: RearrangementClass, grid: Grid,
                     max_iters: int = 200, tol: float = 1e-12,
                     restarts: int = 1, seed: int = 0,
                     solver: str = "dense") -> OptimizationResult:
    """Minimize lambda1 over the rearrangement class by fixed-point sweeps.

    Each sweep replaces the weight by the class arrangement comonotone
    with the current eigenfunction; the subgradient inequality makes mu1
    nondecreasing, and the run stops when the arrangement repeats itself
    exactly.  Across restarts the iterate with the largest mu1 (smallest
    lambda1) wins, ties resolved toward the earlier restart.  Hitting
    ``max_iters`` is reported through ``converged=False``, not an error.

    Restarts are independent until they are compared, so they run in
    W = min(restarts, usable CPUs) forked worker processes, worker w
    taking restarts w, w + W, ..., or inline when W is one or no process
    pool can start; either way several restarts solve at one BLAS thread.
    Solves are deterministic at a fixed BLAS thread count, so no outcome
    depends on which worker ran a restart, and each distinct arrangement
    is solved at most once per slice: a restart that reaches an
    arrangement its slice has seen reuses the eigenpair and follows the
    earlier path with sweeps alone.
    """
    if not cls.is_admissible:
        raise NotAdmissibleClass(
            "class needs a positive value and negative total integral")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    args = (cls, grid, seed, max_iters, tol, solver)
    workers = min(restarts, _usable_cpus())
    # one BLAS thread wherever the restarts run, so the CPU count cannot
    # change the bytes
    with _one_blas_thread() if restarts > 1 else nullcontext():
        parts = _parallel_runs(workers, restarts, args) if workers > 1 \
            else None
        if parts is None:
            parts = [_run_restarts(range(restarts), *args)]
    _, _, m, pair, trace, converged = max(
        (run for run, _ in parts), key=lambda run: (run[0], -run[1]))
    return OptimizationResult(
        final_m=m,
        final_pair=pair,
        trace=trace,
        converged=converged,
        restarts_used=restarts,
        solves=len(set().union(*(seen for _, seen in parts))),
        comonotone_violations=count_comonotone_violations(m, pair.u, grid),
        monotone_x1=check_monotone_x1(m, grid),
    )


def oscillating_arrangement(cls: RearrangementClass, grid: Grid,
                            k: int) -> np.ndarray:
    """Tile the class profile periodically along the first axis.

    Splits the first axis into k stripes of equal width and spreads each
    value's cells across stripes as evenly as possible (nearest stripe to
    the ideal fractional position, earliest stripe on ties); within a
    stripe values are laid out sorted descending in flat order.  k = 1
    reproduces the canonical arrangement; as k grows the field converges
    weakly-* to the constant mean, driving mu1 to zero and lambda1 to
    infinity.

    The cells are dealt in class order, value by value and j = 0, 1, ...
    within a value.  Cell j of a value with c cells aims at stripe
    x_j = (j + 1/2) k / c - 1/2, whose nearest stripe never decreases in j,
    so the cells aiming at one stripe form a contiguous run.  Each run
    fills its stripe in bulk; only the cells that overflow a full stripe
    search the open stripes one at a time, nearest to x_j first.
    """
    if k < 1 or grid.shape[0] % k != 0:
        raise IndivisibleStripes(
            f"stripe count {k} does not divide first-axis cells "
            f"{grid.shape[0]}")
    n = grid.n_cells
    period = grid.shape[0] // k
    counts = cls.cell_counts(grid)
    value_of = np.repeat(np.arange(counts.size), counts)
    j = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    x = (j + 0.5) * k / np.repeat(counts, counts) - 0.5  # ideal stripe
    stripe = np.clip(np.ceil(x - 0.5), 0, k - 1).astype(int)  # ties down
    run_key = value_of * k + stripe  # nondecreasing: one run per key
    starts = np.flatnonzero(np.r_[True, run_key[1:] != run_key[:-1]])
    ends = np.r_[starts[1:], n]

    remaining = np.full(k, n // k)
    for a, b, s in zip(starts.tolist(), ends.tolist(),
                       stripe[starts].tolist()):
        take = min(b - a, int(remaining[s]))
        remaining[s] -= take
        for i in range(a + take, b):
            open_ = np.flatnonzero(remaining)
            s_open = open_[np.argmin(np.abs(open_ - x[i]))]
            stripe[i] = s_open
            remaining[s_open] -= 1

    # cells per (stripe, value); the profile is sorted descending
    table = np.bincount(stripe * counts.size + value_of,
                        minlength=k * counts.size)
    stripes = np.repeat(np.tile(cls.values, k), table)
    out = np.empty(n)
    # stripe s holds cells s * period ... (s + 1) * period - 1 of each line
    grid.lines(out).reshape(-1, k, period)[...] = \
        stripes.reshape(k, -1, period).transpose(1, 0, 2)
    return out
