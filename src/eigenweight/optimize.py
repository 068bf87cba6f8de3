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

import hashlib
import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotAdmissibleClass, IndivisibleStripes
from .grid import Grid, as_field
from .rearrange import RearrangementClass, comonotone_arrangement
from .spectral import (EigenPair, _one_blas_thread, principal_eigenpair,
                       weight_field)


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
    included, up to the grid's axis reflections: an arrangement and its
    mirror images share one solve, which is exact because each
    reflection maps the stiffness to itself.  ``eigensolves`` counts the
    eigensolves the call ran; it exceeds ``solves`` only with forked
    workers, each of which keeps its own memo, when two of them solve the
    same orbit.
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
    eigensolves: int
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


def _orbit_pair(m, grid: Grid, solver: str, tol: float, memo: dict,
                solved: set) -> EigenPair:
    """The pair of arrangement m, solved once per orbit of m under the
    grid's axis reflections.

    A reflection g permutes the cells so that the stiffness maps to
    itself (P^T K P = K), so the pair of g m is the pair of m with u
    reflected by g.  The reflection of m with the least bytes is the
    orbit's representative r; ``memo`` maps the sha256 digest of r to
    the pair solved on r, and ``solved`` gains the digest of each pair
    solved here.
    The pair returned is r's with u reflected back, a pure function of m
    whichever memo held r."""
    field = m.reshape(grid.shape[::-1])
    # a reflection flips a set of axes; ties go to the fewest, then the
    # lexicographically first
    axes = min((axes for k in range(grid.dim + 1)
                for axes in itertools.combinations(range(grid.dim), k)),
               key=lambda axes: np.flip(field, axes).tobytes())
    r = np.flip(field, axes).ravel()
    key = hashlib.sha256(r.tobytes()).digest()
    pair = memo.get(key)
    if pair is None:
        pair = memo[key] = principal_eigenpair(weight_field(grid, r),
                                               solver=solver, tol=tol)
        solved.add(key)
    return replace(pair, u=np.flip(pair.u.reshape(field.shape),
                                   axes).ravel())


def _run_restart(restart: int, cls: RearrangementClass, grid: Grid, seed,
                 max_iters: int, tol: float, solver: str,
                 memo: dict) -> tuple:
    """The fixed-point sweeps of one restart: its run (mu1, restart, m,
    pair, trace, converged) and the set of orbits it solved, each the
    sha256 digest of its representative (``_orbit_pair``).  ``memo`` maps
    such a digest to its pair and gains each pair solved here, so a
    restart that reaches an arrangement solved before, or a reflection of
    one, follows the earlier path with sweeps alone."""
    m = _start_field(cls, grid, restart, seed)
    trace, changed, converged, solved = [], 0, False, set()
    for it in range(max_iters + 1):
        pair = _orbit_pair(m, grid, solver, tol, memo, solved)
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
    return (pair.mu1, restart, m, pair, tuple(trace), converged), solved


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker(conn, args: tuple) -> None:
    """A forked worker: answers each restart index the parent sends
    through the duplex pipe ``conn`` with that restart's ``_run_restart``,
    or with an error.  Its one memo lasts the call and holds only the
    pairs its own restarts solved.  It returns when the parent is gone:
    the worker holds no parent end of any pipe, so the parent's death
    closes ``conn``."""
    memo = {}
    try:
        while True:
            conn.send(_run_restart(conn.recv(), *args, memo))
    except (EOFError, ConnectionError):
        return
    except Exception as exc:
        conn.send(exc)


def _parallel_runs(workers: int, restarts: int, args: tuple):
    """The ``_run_restart`` of every restart from ``workers`` forked
    processes, or None when they cannot run (no fork, or a worker died).
    Each worker gets a first restart, then the next one left whenever it
    sends back a run; the first error is raised at once, and no restart is
    sent after it.  A message to a worker is a restart index alone, and a
    reply is a run and its solved digests, so the only pair to cross a
    pipe is each run's own."""
    import multiprocessing.connection  # only a run that forks loads it
    import multiprocessing.util
    try:  # forked, not spawned: a spawned worker's imports outlast a restart
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    processes, conns, runs = [], [], []
    try:
        for restart in range(workers):  # a first restart each
            conn, theirs = context.Pipe()
            # closed in every worker forked from here on, this one's too
            multiprocessing.util.register_after_fork(conn, type(conn).close)
            processes.append(context.Process(target=_worker,
                                             args=(theirs, args)))
            processes[-1].start()
            theirs.close()  # before the next fork, for its worker alone
            conn.send(restart)
            conns.append(conn)
        for restart in range(workers, restarts + workers):
            conn = multiprocessing.connection.wait(conns)[0]
            runs.append(conn.recv())
            if isinstance(runs[-1], Exception):
                raise runs[-1]
            if restart < restarts:  # to the worker that is now free
                conn.send(restart)
    except (OSError, EOFError):
        return None
    finally:
        for process in processes:
            process.terminate()
            process.join()
    return runs


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

    Restarts are independent until they are compared, so this process
    hands them out one at a time to W = min(restarts, usable CPUs) forked
    workers, or runs them inline when W is one or the workers cannot run
    (no fork, or a worker died); either way several restarts solve at one
    BLAS thread.  Every run comes back here, where the best is chosen
    once; solves are deterministic, so no outcome depends on which worker
    ran a restart.  The memo solves each arrangement once per orbit
    under the grid's axis reflections (``_orbit_pair``), so restarts that
    end on mirror images of one minimizer solve it once and report one
    lambda1.  Inline, one memo serves every restart.  A worker keeps its
    own memo for the call and is sent restart indices alone, so an orbit
    that two workers meet is solved by both.
    """
    if not cls.is_admissible:
        raise NotAdmissibleClass(
            "class needs a positive value and negative total integral")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    args = (cls, grid, seed, max_iters, tol, solver)
    workers = min(restarts, _usable_cpus())
    # the stiffness, built before the workers fork to be inherited; the
    # spectrum was built with the grid
    grid.stiffness
    # one BLAS thread wherever restarts run: the CPU count changes no byte
    with _one_blas_thread() if restarts > 1 else nullcontext():
        memo = {}
        runs = (workers > 1 and _parallel_runs(workers, restarts, args)
                or [_run_restart(restart, *args, memo)
                    for restart in range(restarts)])
    _, _, m, pair, trace, converged = max(
        (run for run, _ in runs), key=lambda run: (run[0], -run[1]))
    # every arrangement a restart met was solved in some restart
    return OptimizationResult(
        final_m=m, final_pair=pair, trace=trace, converged=converged,
        restarts_used=restarts,
        solves=len(set().union(*(solved for _, solved in runs))),
        eigensolves=sum(len(solved) for _, solved in runs),
        comonotone_violations=count_comonotone_violations(m, pair.u, grid),
        monotone_x1=check_monotone_x1(m, grid))


def oscillating_arrangement(cls: RearrangementClass, grid: Grid,
                            k: int) -> np.ndarray:
    """Tile the class profile periodically along the first axis.

    Splits the first axis into k stripes of equal width and deals the
    sorted class cells to them by one sort.  Cell j of a value that starts
    at position s of the sorted class and holds c cells aims at
    (s + (j + 1/2) k / c) mod k; cells are ranked by aim, ties broken by
    position mod k, and block i of n/k ranked cells becomes stripe i.  So
    each value is spread evenly over the stripes, and when k divides every
    value's cell count each stripe holds exactly c/k cells of every value.
    A stripe holds its values descending, one x1-column after the next:
    the cell at line l and offset o of the stripe holds its entry
    o * lines + l.  k = 1 is the canonical arrangement in flat order.  As
    k grows the field converges weakly-* to the constant mean, driving
    mu1 to zero and lambda1 to infinity, while the stripes are wide enough:
    a value that fills only part of a stripe's x1-column sits in its
    lowest lines, so the quarter bang-bang on a 64x32 rectangle comes back
    to the canonical arrangement at k = 64.
    """
    if k < 1 or grid.shape[0] % k != 0:
        raise IndivisibleStripes(
            f"stripe count {k} does not divide first-axis cells "
            f"{grid.shape[0]}")
    values = cls.cell_values(grid)
    if k == 1:
        return values
    counts = cls.cell_counts(grid)
    c = np.repeat(counts, counts)
    start = np.repeat(np.cumsum(counts) - counts, counts)
    position = np.arange(values.size)
    # 2c times the aim is an integer, so equal aims compare equal
    aim = (2 * c * start + (2 * (position - start) + 1) * k) \
        % (2 * c * k) / (2 * c)
    # a stable sort of the cells in (position mod k, position) order
    # breaks ties of aim by position mod k
    by_phase = position.reshape(-1, k).T.ravel()
    ranked = by_phase[np.argsort(aim[by_phase], kind="stable")]
    # positions ascending in a stripe: its values descending
    stripes = np.sort(ranked.reshape(k, -1))
    out = np.empty(values.size)
    lines = values.size // grid.shape[0]
    grid.lines(out).reshape(lines, k, -1)[...] = \
        values[stripes].reshape(k, -1, lines).transpose(2, 0, 1)
    return out
