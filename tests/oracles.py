"""Independent oracles used by the test suite.

These deliberately avoid the library's discretization: the arrangement
oracle enumerates permutations, the stripe oracle ranks every cell by
an exact rational aim, the restart oracle draws every start field up front
from ``SeedSequence.spawn`` and runs every restart to its end in one
process, solving every iterate afresh through its least-bytes axis
reflection, the pencil oracle restricts the dense pencil through an
explicit n x (n - 1) basis by two GEMMs, the dense-solve oracle hands
``eigh`` C-ordered copies of the pencil, and the CSV oracles format
every value on its own with ``repr(float(v))``.  The eigenvalue oracle
``two_phase_lambda1`` (the closed form of the 1D two-phase problem) and
``random_admissible`` (the admissible-weight generator) live in
``eigenweight.verify``, whose acceptance checks use them, and are
re-exported here.
"""

import dataclasses
import hashlib
from fractions import Fraction
from itertools import permutations, product

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
    factors them; mu1 is the Rayleigh quotient of the lifted vector."""
    unit, exp = spectral._unit_weight(m)
    A, S, lift = spectral._dense_pencil(unit)
    top = A.shape[0] - 1
    _, vecs = scipy.linalg.eigh(np.ascontiguousarray(A),
                                np.ascontiguousarray(S),
                                subset_by_index=[top, top])
    u = lift(vecs[:, 0])
    pair = spectral._finalize_eigenpair(unit,
                                        spectral.rayleigh_quotient(unit, u),
                                        u, spectral.SolveStats("dense"))
    return float(np.ldexp(pair.mu1, exp)), pair.u, pair.residual


def oscillating_layout(values, counts, shape, k: int):
    """Brute-force stripe layout: every cell gets an exact aim.

    Cell j of the value at sorted position s with c cells aims at the
    Fraction (s + (j + 1/2) k / c) mod k; Python's sort ranks the cells by
    (aim, position mod k, position), block i of n/k ranked cells is stripe
    i, sorted descending, and every cell of the grid looks its value up:
    in flat order for k = 1, else as entry offset * lines + line of its
    stripe.  Returns the field and whether some block boundary falls
    between two cells of equal aim, where the tie-break decides.
    """
    cells = []
    for value, count in zip(values, counts):
        start = len(cells)
        for j in range(count):
            aim = (start + Fraction((2 * j + 1) * k, 2 * count)) % k
            cells.append((aim, (start + j) % k, start + j, value))
    ranked = sorted(cells)
    n, n1 = len(cells), shape[0]
    size, period, lines = n // k, n1 // k, n // n1
    tied = any(ranked[b - 1][0] == ranked[b][0] for b in range(size, n, size))
    stripes = [sorted((cell[3] for cell in ranked[i * size:(i + 1) * size]),
                      reverse=True) for i in range(k)]
    out = np.empty(n)
    for p in range(n):
        line, x1 = divmod(p, n1)
        stripe, offset = divmod(x1, period)
        out[p] = stripes[0][p] if k == 1 \
            else stripes[stripe][offset * lines + line]
    return out, tied


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
    solved afresh through the least-bytes axis reflection of it.

    Each iterate m is reflected along every set of axes of its
    ``shape[::-1]`` layout; the reflection r with the least bytes, ties
    toward fewer axes and then the lexicographically first set, is
    solved, and u is reflected back.  Returns (mu1, final_m, final pair,
    trace, converged) of the best restart, ties toward the earlier one,
    the number of distinct r solved over all restarts and the number of
    distinct arrangements m met.
    """
    best = None
    distinct, met = set(), set()
    flips = [tuple(a for a, f in enumerate(flags) if f)
             for flags in product((False, True), repeat=grid.dim)]

    def solve(m):
        met.add(m.tobytes())
        field = m.reshape(grid.shape[::-1])
        axes = min(flips, key=lambda axes: (np.flip(field, axes).tobytes(),
                                            len(axes), axes))
        r = np.ascontiguousarray(np.flip(field, axes)).reshape(-1)
        distinct.add(hashlib.sha256(r.tobytes()).digest())
        pair = principal_eigenpair(weight_field(grid, r), solver=solver,
                                   tol=tol)
        u = np.ascontiguousarray(np.flip(pair.u.reshape(field.shape), axes))
        return dataclasses.replace(pair, u=u.reshape(-1))

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
    return best + (len(distinct), len(met))


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


def per_value_profile_csv(path, cls) -> None:
    """A profile CSV written one (value, measure) pair at a time."""
    with open(path, "w") as fh:
        fh.write("value,measure\n")
        for v, s in cls.profile:
            fh.write(f"{v!r},{s!r}\n")


def per_value_trajectory_csv(path, traj) -> None:
    """A trajectory CSV written one value at a time."""
    with open(path, "w") as fh:
        fh.write("time,total_mass,min_v,max_v\n")
        for row in zip(traj.times, traj.total_mass, traj.min_v, traj.max_v):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
