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
import os
import pickle
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotAdmissibleClass, IndivisibleStripes
from .grid import Grid, as_field, assemble_stiffness, dct_eigenvalues
from .rearrange import (RearrangementClass, _dealt_values,
                        comonotone_arrangement)
from .spectral import (EigenPair, _one_blas_thread, principal_eigenpair,
                       weight_field)


#: per-line label indexed by 2 * nonincreasing + nondecreasing
_LINE_LABELS = np.array(["none", "increasing", "decreasing", "constant"])

#: bytes of the table of solved pairs that a parallel call's workers
#: share; a slot takes 8 bytes a cell and 544 more
_TABLE_BYTES = 1 << 24


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
    included.  ``eigensolves`` counts the eigensolves the call ran; it
    exceeds ``solves`` only when the workers' table is full and two
    workers both solve an arrangement it had no slot for.
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
    canonical = _dealt_values(cls, grid)
    if restart == 0:
        return canonical.copy()
    child = np.random.SeedSequence(seed, spawn_key=(restart - 1,))
    return np.random.default_rng(child).permutation(canonical)


class _SharedPairs(dict):
    """The memo of a forked worker: the pairs its process met, and a table
    of the pairs that the workers of one call share.

    A fill count and slots of (digest, head, u) lie in an anonymous shared
    mapping made before the fork and never touched by the parent, so only
    the slots the workers fill become resident.  A slot's head is its pair
    pickled without u.  A worker that misses claims the next slot under
    ``lock`` and fills it when it stores the pair; one that meets a claimed
    arrangement waits until its slot is filled, or its parent is gone.  A
    full table claims nothing: its workers solve what they miss, each
    worker an arrangement at most once.
    """

    #: bytes of a slot's head; the pickle of a shift-invert pair takes
    #: about 210, and a zero first byte marks a slot not yet filled
    HEAD = 512

    def __init__(self, most: int, n_cells: int, lock):
        import mmap  # only a run that forks loads it
        super().__init__()
        self.n, self.size = n_cells, 32 + self.HEAD + 8 * n_cells
        self.capacity = min(most, _TABLE_BYTES // self.size)
        self.map = mmap.mmap(-1, 8 + self.capacity * self.size)
        self.lock, self.parent = lock, os.getpid()
        # digest -> offset of each slot read (digests are claimed once
        # each), and this process's open claim
        self.slots, self.claim = {}, None

    def get(self, key: bytes) -> EigenPair | None:
        """The pair for ``key``, waiting for it while another worker solves
        it; None after claiming its slot, when the table is full, or when
        the parent is gone."""
        if key in self:
            return self[key]
        with self.lock:
            count, = struct.unpack_from("q", self.map)
            for at in range(8 + len(self.slots) * self.size,
                            8 + count * self.size, self.size):
                self.slots[self.map[at:at + 32]] = at
            at = self.slots.get(key)
            if at is None and count < self.capacity:
                self.claim = 8 + count * self.size
                self.map[self.claim:self.claim + 32] = key
                struct.pack_into("q", self.map, 0, count + 1)
        while at is not None:
            with self.lock:
                head = self.map[at + 32:at + 32 + self.HEAD]
            if head[0]:  # a pickle starts with 0x80
                return replace(pickle.loads(head), u=np.frombuffer(
                    self.map, np.float64, self.n, at + 32 + self.HEAD).copy())
            if os.getppid() != self.parent:
                break
            time.sleep(0.0005)  # another worker is solving it
        return None

    def __setitem__(self, key: bytes, pair: EigenPair) -> None:
        """Keep ``pair``, and fill the slot this process claimed, if any."""
        super().__setitem__(key, pair)
        at, self.claim = self.claim, None
        if at is not None:
            head = pickle.dumps(replace(pair, u=None)).ljust(self.HEAD, b"\0")
            with self.lock:
                self.map[at + 32 + self.HEAD:at + self.size] = pair.u
                self.map[at + 32:at + 32 + self.HEAD] = head


def _run_restarts(restarts, cls: RearrangementClass, grid: Grid, seed,
                  max_iters: int, tol: float, solver: str,
                  memo: dict) -> tuple:
    """The fixed-point sweeps of the restarts an iterable yields in
    increasing order (the whole range, or a worker's claims).  Returns
    the best run as (mu1, restart, m, pair, trace, converged), ties
    toward the earlier restart (None if none ran), the sha256 digests of
    the arrangements met, and the count of eigensolves run.  The restarts
    share ``memo``, which maps a digest to its eigenpair (a dict inline,
    a worker's ``_SharedPairs``) and keeps every pair stored in it: a
    restart that reaches an arrangement solved before reuses the pair and
    follows the earlier path with sweeps alone."""
    eigensolves, best = 0, None
    for restart in restarts:
        m = _start_field(cls, grid, restart, seed)
        trace, changed, converged = [], 0, False
        for it in range(max_iters + 1):
            key = hashlib.sha256(m.tobytes()).digest()
            pair = memo.get(key)
            if pair is None:
                pair = principal_eigenpair(
                    weight_field(grid, m), solver=solver, tol=tol)
                eigensolves += 1
            memo[key] = pair
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
    return best, set(memo), eigensolves


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker(counter, restarts: int, args: tuple, conn, memo: dict) -> None:
    """A forked worker: ``_run_restarts`` on ``memo`` and the restarts it
    claims one at a time from the shared counter, each index by one worker
    only; sends the result through ``conn``, or ends the claims and sends
    the error."""
    def claimed():
        while True:
            with counter.get_lock():
                restart, counter.value = counter.value, counter.value + 1
            if restart >= restarts:
                return
            yield restart
    try:
        conn.send(_run_restarts(claimed(), *args, memo))
    except Exception as exc:
        with counter.get_lock():
            counter.value = restarts
        conn.send(exc)


def _parallel_runs(workers: int, restarts: int, args: tuple):
    """``_run_restarts`` in ``workers`` forked processes that claim the
    restarts from one shared counter and share one table of solved pairs,
    or None when they cannot run (no fork, no mapping for the table, or a
    worker died); the first error to arrive propagates."""
    import multiprocessing.connection  # only a run that forks loads it
    try:  # forked, not spawned: a spawned worker's imports outlast a restart
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    counter = context.Value("q", 0)
    _, grid, _, max_iters, _, _ = args
    processes, readers, runs = [], [], []
    try:
        table = _SharedPairs(restarts * (max_iters + 1), grid.n_cells,
                             counter.get_lock())
        with table.map:
            for _ in range(workers):
                reader, writer = context.Pipe(duplex=False)
                processes.append(context.Process(
                    target=_worker,
                    args=(counter, restarts, args, writer, table)))
                processes[-1].start()
                writer.close()  # before the next fork, for its worker alone
                readers.append(reader)
            while readers:
                for reader in multiprocessing.connection.wait(readers):
                    readers.remove(reader)
                    runs.append(reader.recv())
                    if isinstance(runs[-1], Exception):
                        raise runs[-1]
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

    Restarts are independent until they are compared, so they run in
    W = min(restarts, usable CPUs) forked workers, each claiming the next
    unclaimed restart whenever it ends one, or inline when W is one or the
    workers cannot run (no fork, no shared mapping, or a worker died);
    either way several restarts solve at one BLAS thread.  Solves are
    deterministic, so no outcome depends on which worker ran a restart.
    The workers share one table of solved pairs, so each distinct
    arrangement is solved once unless the table is full.
    """
    if not cls.is_admissible:
        raise NotAdmissibleClass(
            "class needs a positive value and negative total integral")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    args = (cls, grid, seed, max_iters, tol, solver)
    workers = min(restarts, _usable_cpus())
    # the grid's constants, built before the workers fork to be inherited
    assemble_stiffness(grid)
    dct_eigenvalues(grid)
    # one BLAS thread wherever restarts run: the CPU count changes no byte
    with _one_blas_thread() if restarts > 1 else nullcontext():
        parts = (workers > 1 and _parallel_runs(workers, restarts, args)
                 or [_run_restarts(range(restarts), *args, {})])
    _, _, m, pair, trace, converged = max(
        (run for run, *_ in parts if run), key=lambda run: (run[0], -run[1]))
    return OptimizationResult(
        final_m=m, final_pair=pair, trace=trace, converged=converged,
        restarts_used=restarts,
        solves=len(set().union(*(seen for _, seen, _ in parts))),
        eigensolves=sum(count for _, _, count in parts),
        comonotone_violations=count_comonotone_violations(m, pair.u, grid),
        monotone_x1=check_monotone_x1(m, grid))


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
