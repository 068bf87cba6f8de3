"""Output checks for benchmark jobs, against references built here.

Nothing in this module imports eigenweight: the stiffness matrix, the
field-file reader, the dense eigenvalue reference and the comonotone
violation count are written independently, so a defect in the library
cannot hide behind the same defect in its check.

Tolerances: lambda1 must match the dense reference to ``LAMBDA_RTOL``
relative; where no dense reference is affordable, the eigen-equation
residual recomputed from ``u.csv`` must stay below ``RESIDUAL_TOL`` and
``u`` must be positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

LAMBDA_RTOL = 1e-9
RESIDUAL_TOL = 1e-8

#: above this cell count the dense reference costs more than a second
DENSE_REFERENCE_LIMIT = 2048


@dataclass
class CheckResult:
    """Verdict on one job's outputs; ``problems`` is empty when it passed."""

    problems: list = field(default_factory=list)
    lambda1_rel_dev: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def read_field(path: Path):
    """Values in flat order (first axis fastest) and the header's shape."""
    with open(path) as fh:
        header = dict(token.split("=", 1)
                      for token in fh.readline()[1:].split())
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    shape = tuple(int(n) for n in header["shape"].split(","))
    return rows.ravel(), shape


def stiffness(shape, extents) -> sp.csr_matrix:
    """Two-point-flux Neumann Laplacian on the uniform cell-centred grid."""
    h = [L / n for L, n in zip(extents, shape)]
    volume = float(np.prod(h))
    K = None
    for axis, n in enumerate(shape):
        main = np.full(n, 2.0)
        main[[0, -1]] = 1.0
        lap = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, 1, -1])
        term = None
        for b in range(len(shape)):  # flat index runs fastest on axis 0
            factor = lap if b == axis else sp.identity(shape[b])
            term = factor if term is None else sp.kron(factor, term)
        term = (volume / h[axis] ** 2) * term
        K = term if K is None else K + term
    return K.tocsr()


def dense_lambda1(values, shape, extents) -> float:
    """lambda1 of K u = lambda diag(w m) u from one dense symmetric solve.

    With q = w m and c > 0, every eigenvector of (diag(q), K + c q q^T)
    either satisfies q^T u = 0, where it solves the original problem, or
    has eigenvalue 1/(c sum q), which is negative for an admissible weight.
    The largest eigenvalue is therefore mu1 = 1/lambda1.
    """
    values = np.asarray(values, dtype=float)
    K = stiffness(shape, extents).toarray()
    q = float(np.prod([L / n for L, n in zip(extents, shape)])) * values
    c = np.trace(K) / q.size / (q @ q)
    n = q.size
    mu1 = scipy.linalg.eigh(np.diag(q), K + c * np.outer(q, q),
                            eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])[0]
    return 1.0 / float(mu1)


def eigen_residual(values, shape, extents, lambda1: float, u) -> float:
    """Relative residual |K u - lambda1 diag(w m) u| / |K u|."""
    K = stiffness(shape, extents)
    w = float(np.prod([L / n for L, n in zip(extents, shape)]))
    Ku = K @ u
    r = Ku - lambda1 * w * np.asarray(values) * u
    return float(np.linalg.norm(r) / np.linalg.norm(Ku))


def comonotone_violations(m, u) -> int:
    """Pairs with u_i > u_j but m_i < m_j, by a Fenwick-tree sweep over
    cells in decreasing u; cells with equal u are not compared."""
    m_rank = np.unique(m, return_inverse=True)[1] + 1
    tree = [0] * (int(m_rank.max()) + 1)
    order = np.argsort(-np.asarray(u), kind="stable")
    u_sorted = np.asarray(u)[order]
    total = 0
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and u_sorted[stop] == u_sorted[start]:
            stop += 1
        block = m_rank[order[start:stop]]
        for r in block:  # earlier cells (larger u) with smaller m
            i = int(r) - 1
            while i > 0:
                total += tree[i]
                i -= i & -i
        for r in block:
            i = int(r)
            while i < len(tree):
                tree[i] += 1
                i += i & -i
        start = stop
    return total


def _lines(values, shape) -> np.ndarray:
    return np.asarray(values).reshape(-1, shape[0])


def monotone_x1(values, shape) -> bool:
    """Every first-axis line nonincreasing, or every one nondecreasing."""
    d = np.diff(_lines(values, shape), axis=1)
    return bool(np.all(d <= 0) or np.all(d >= 0))


def _geometry(job):
    dom = job.config["domain"]
    return tuple(dom["shape"]), tuple(dom["extents"])


def _budget(job) -> np.ndarray:
    return np.asarray(job.config["weight"]["values"], dtype=float)


def _check_lambda1(result, values, shape, extents, lambda1, u, job) -> None:
    """Reference lambda1 where affordable, else residual and positivity."""
    result.require(bool(np.all(u > 0)), "eigenfunction is not positive")
    if "x1_profile" in job.check:
        ref = dense_lambda1(job.check["x1_profile"], shape[:1], extents[:1])
    elif values.size <= DENSE_REFERENCE_LIMIT:
        ref = dense_lambda1(values, shape, extents)
    else:
        residual = eigen_residual(values, shape, extents, lambda1, u)
        result.require(residual <= RESIDUAL_TOL,
                       f"residual {residual:.3g} > {RESIDUAL_TOL:g}")
        return
    result.lambda1_rel_dev = abs(lambda1 - ref) / abs(ref)
    result.require(result.lambda1_rel_dev <= LAMBDA_RTOL,
                   f"lambda1 {lambda1!r} deviates from reference {ref!r} "
                   f"by {result.lambda1_rel_dev:.3g} relative")


def check_solve(job, out: Path) -> CheckResult:
    result = CheckResult()
    shape, extents = _geometry(job)
    pair = json.loads((out / "eigenpair.json").read_text())
    u, u_shape = read_field(out / "u.csv")
    result.require(u_shape == shape, f"u.csv shape {u_shape} != {shape}")
    result.require(pair["n_cells"] == job.n_cells, "n_cells mismatch")
    result.require(pair["residual"] <= RESIDUAL_TOL,
                   f"reported residual {pair['residual']:.3g}")
    if result.ok:
        _check_lambda1(result, _budget(job), shape, extents,
                       pair["lambda1"], u, job)
    return result


def check_optimize(job, out: Path) -> CheckResult:
    """Criterion 7 on the written minimizer."""
    result = CheckResult()
    shape, extents = _geometry(job)
    report = json.loads((out / "optimization.json").read_text())
    m, _ = read_field(out / "final_m.csv")
    u, _ = read_field(out / "final_u.csv")
    result.require(report["converged"], "optimizer did not converge")
    result.require(np.array_equal(np.sort(m), np.sort(_budget(job))),
                   "final_m is not equimeasurable with the budget")
    result.require(comonotone_violations(m, u) == 0,
                   "final_m is not comonotone with final_u")
    result.require(monotone_x1(m, shape), "final_m is not monotone along x1")
    mu = [row[1] for row in report["trace"]]
    result.require(all(b >= a for a, b in zip(mu, mu[1:])),
                   "mu1 decreases along the trace")
    if result.ok:
        _check_lambda1(result, m, shape, extents, report["lambda1"], u, job)
    return result


def check_simulate(job, out: Path) -> CheckResult:
    result = CheckResult()
    report = json.loads((out / "simulation.json").read_text())
    result.require(report["outcome"] == job.check["outcome"],
                   f"outcome {report['outcome']!r}, expected "
                   f"{job.check['outcome']!r}")
    result.require(report["clamp_events"] == 0,
                   f"{report['clamp_events']} clamp events")
    return result


def check_rearrange(job, out: Path) -> CheckResult:
    result = CheckResult()
    shape, _ = _geometry(job)
    budget = np.sort(_budget(job))
    monotone, _ = read_field(out / "monotone_m.csv")
    result.require(np.array_equal(np.sort(monotone), budget),
                   "monotone_m is not equimeasurable with the budget")
    result.require(bool(np.all(np.diff(_lines(monotone, shape)) <= 0)),
                   "monotone_m is not decreasing along x1")
    for k in job.config["rearrange"]["stripes"]:
        stripes, _ = read_field(out / f"oscillating_k{k}.csv")
        result.require(np.array_equal(np.sort(stripes), budget),
                       f"oscillating_k{k} is not equimeasurable")
        if k == 1:
            result.require(np.array_equal(stripes, budget[::-1]),
                           "oscillating_k1 is not the canonical arrangement")
    return result


CHECKS = {"solve": check_solve, "optimize": check_optimize,
          "simulate": check_simulate, "rearrange": check_rearrange}


def check_job(job, out: Path) -> CheckResult:
    """Run the job's output check; a missing or unreadable file fails it."""
    try:
        return CHECKS[job.command](job, out)
    except (OSError, ValueError, KeyError) as exc:
        return CheckResult(problems=[f"unreadable output: {exc!r}"])
