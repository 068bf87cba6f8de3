"""Independent oracles used by the test suite.

These deliberately avoid the library's discretization: the arrangement
oracle enumerates permutations, the stripe oracle searches every stripe
for every cell, the restart oracle draws every start field up front
from ``SeedSequence.spawn`` and runs every restart to its end in one
process, solving every iterate afresh, the pencil oracle restricts
the dense pencil through an explicit n x (n - 1) basis by two GEMMs, the
dense-solve oracle hands ``eigh`` C-ordered copies of the pencil, and
the CSV oracles format every value on its own with ``repr(float(v))``.  The
eigenvalue oracle ``two_phase_lambda1`` (the closed form of the 1D
two-phase problem) and ``random_admissible`` (the admissible-weight
generator) live in ``eigenweight.verify``, whose acceptance checks use
them, and are re-exported here.
"""

import hashlib
from itertools import permutations

import numpy as np
import scipy.linalg

from eigenweight import (
    assemble_stiffness,
    comonotone_arrangement,
    principal_eigenpair,
    spectral,
    weight_field,
)
from eigenweight.verify import random_admissible_values as random_admissible
from eigenweight.verify import two_phase_lambda1


def best_arrangement_value(values, u, w) -> float:
    """Brute-force max of sum(w * arrangement * u) over all permutations."""
    return max(float(np.dot(w * np.asarray(perm), u))
               for perm in permutations(values))


def vm_basis(q):
    """Orthonormal basis of {f : q^T f = 0}: columns 2..n of the Householder
    reflector that maps q onto the first coordinate axis."""
    n = q.size
    norm = np.sqrt(np.dot(q, q))
    v = q.copy()
    v[0] += norm if q[0] >= 0 else -norm
    B = (-2.0 / np.dot(v, v)) * np.outer(v, v[1:])
    B[1:, :] += np.eye(n - 1)
    return B


def gemm_pencil(m):
    """The pencil (W diag(m), K) restricted to V_m through the basis B:
    (B^T diag(W m) B, B^T K B, B), symmetrized."""
    q = m.grid.cell_measure * m.values
    B = vm_basis(q)
    A = B.T @ (q[:, None] * B)
    S = B.T @ (assemble_stiffness(m.grid) @ B)
    return 0.5 * (A + A.T), 0.5 * (S + S.T), B


def copied_dense_eigenpair(m):
    """The dense principal eigenpair with ``eigh`` run on C-ordered copies
    of the pencil, which it copies again into Fortran order before LAPACK
    factors them."""
    unit, exp = spectral._unit_weight(m)
    A, S, lift = spectral._dense_pencil(unit)
    top = A.shape[0] - 1
    vals, vecs = scipy.linalg.eigh(np.ascontiguousarray(A),
                                   np.ascontiguousarray(S),
                                   subset_by_index=[top, top])
    pair = spectral._finalize_eigenpair(unit, vals[0], lift(vecs[:, 0]),
                                        spectral.SolveStats("dense"))
    return float(np.ldexp(pair.mu1, exp)), pair.u, pair.residual


def oscillating_layout(values, counts, n1: int, n_cells: int, k: int):
    """Brute-force stripe layout: every cell sorts all k stripes.

    Deals each value's cells to the stripe nearest its ideal fractional
    position (earliest stripe on ties), skipping full stripes, then lays
    each stripe out sorted descending.  Returns the field and whether some
    cell found its nearest stripe full.
    """
    remaining = np.full(k, n_cells // k)
    stripe_values = [[] for _ in range(k)]
    hit_full = False
    for value, count in zip(values, counts):
        for j in range(count):
            x = (j + 0.5) * k / count - 0.5
            candidates = sorted(range(k), key=lambda s: (abs(s - x), s))
            hit_full |= bool(remaining[candidates[0]] == 0)
            for s in candidates:
                if remaining[s] > 0:
                    stripe_values[s].append(value)
                    remaining[s] -= 1
                    break
    out = np.empty(n_cells)
    i1 = np.arange(n_cells) % n1
    for s in range(k):
        cells = np.flatnonzero(i1 // (n1 // k) == s)
        out[cells] = np.sort(stripe_values[s])[::-1]
    return out, hit_full


def spawned_start_fields(cls, grid, restarts, seed) -> list:
    """Every restart's start field, drawn before the first solve: the
    canonical arrangement, then one permutation per spawned child."""
    canonical = cls.cell_values(grid)
    starts = [canonical]
    for child in np.random.SeedSequence(seed).spawn(restarts - 1):
        starts.append(np.random.default_rng(child).permutation(canonical))
    return starts


def restart_loop(cls, grid, max_iters, tol, restarts, seed, solver):
    """Every restart's fixed-point sweeps run to the end, every iterate
    solved afresh.

    Returns (mu1, final_m, final pair, trace, converged) of the best
    restart, ties toward the earlier one, and the number of distinct
    arrangements solved over all restarts.
    """
    best = None
    distinct = set()

    def solve(m):
        distinct.add(hashlib.sha256(m.tobytes()).digest())
        return principal_eigenpair(weight_field(grid, m), solver=solver,
                                   tol=tol)

    for m0 in spawned_start_fields(cls, grid, restarts, seed):
        m = m0
        pair = solve(m)
        trace = [(0, pair.mu1, pair.lambda1, 0)]
        converged = False
        for it in range(1, max_iters + 1):
            m_next = comonotone_arrangement(cls, pair.u, grid)
            changed = int(np.count_nonzero(m_next != m))
            if changed == 0:
                converged = True
                trace.append((it, pair.mu1, pair.lambda1, 0))
                break
            m = m_next
            pair = solve(m)
            trace.append((it, pair.mu1, pair.lambda1, changed))
        candidate = (pair.mu1, m, pair, tuple(trace), converged)
        if best is None or candidate[0] > best[0]:
            best = candidate
    return best + (len(distinct),)


def per_value_field_csv(path, values, grid) -> None:
    """A field CSV written one value at a time, one row per first-axis
    line."""
    lines = grid.lines(values)
    shape = ",".join(str(n) for n in grid.shape)
    extents = ",".join(repr(float(L)) for L in grid.extents)
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} shape={shape} extents={extents}\n")
        for line in lines:
            fh.write(",".join(repr(float(v)) for v in line) + "\n")


def per_value_trajectory_csv(path, traj) -> None:
    """A trajectory CSV written one value at a time."""
    with open(path, "w") as fh:
        fh.write("time,total_mass,min_v,max_v\n")
        for row in zip(traj.times, traj.total_mass, traj.min_v, traj.max_v):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
