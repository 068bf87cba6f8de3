"""Self-contained property suite behind the CLI ``verify`` subcommand.

Each check exercises one family of module invariants on seeded random
data and reports pass/fail with a short detail string.  The suite is a
smoke-level mirror of the full pytest acceptance tests, runnable from an
installed package without test infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .grid import assemble_stiffness, axis_stiffness, build_grid, integrate
from .logistic import simulate_logistic
from .optimize import minimize_lambda1, oscillating_arrangement
from .rearrange import (
    check_majorization,
    comonotone_arrangement,
    decreasing_rearrangement,
    equimeasurable,
    monotone_x1_rearrangement,
)
from .spectral import (
    mu1_derivative,
    mu1_extended,
    principal_eigenpair,
    project_mean_zero,
    rayleigh_quotient,
    signed_spectrum,
    solution_operator,
    weight_field,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_admissible_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random weight values with a positive part and mean at most -0.05.

    The margin keeps the draws uniformly admissible: identities degrade
    like 1/|mean| as the weight integral approaches zero.
    """
    values = rng.uniform(-1.0, 1.0, n)
    mean = values.mean()
    if mean > -0.05:
        values = values - (mean + 0.1)
    if not np.any(values > 0):
        values[int(rng.integers(n))] = 0.5
    return values


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_grid_invariants(rng) -> CheckResult:
    worst = 0.0
    for kind, extents, shape in [
        ("interval", [1.0], [17]),
        ("rectangle", [2.0, 1.0], [8, 6]),
        ("box", [1.0, 0.5, 0.25], [4, 3, 2]),
    ]:
        grid = build_grid(kind, extents, shape)
        worst = max(worst, abs(grid.cell_measure * grid.n_cells
                               - grid.volume) / grid.volume)
        flat = np.sort(grid.axis1_lines.ravel())
        if not np.array_equal(flat, np.arange(grid.n_cells)):
            return _check("grid_invariants", False,
                          f"{kind}: lines do not partition the cells")
        K = assemble_stiffness(grid)
        if (K - K.T).nnz != 0:
            return _check("grid_invariants", False, f"{kind}: K not symmetric")
        worst = max(worst, float(np.max(np.abs(K @ np.ones(grid.n_cells)))))
        f = rng.standard_normal(grid.n_cells)
        if f @ (K @ f) < -1e-12:
            return _check("grid_invariants", False, f"{kind}: K not PSD")
    return _check("grid_invariants", worst < 1e-12, f"worst defect {worst:.2e}")


def check_stiffness_consistency(rng) -> CheckResult:
    # u(x) = x has unit Dirichlet energy; the assembled form misses one
    # half-cell at each end, a first-order defect
    defects = []
    for n in (32, 64, 128, 256):
        grid = build_grid("interval", [1.0], [n])
        K = assemble_stiffness(grid)
        u = grid.cell_centers()[:, 0]
        defects.append(abs(u @ (K @ u) - 1.0))
    rates = [np.log2(defects[i] / defects[i + 1]) for i in range(3)]
    ok = all(r > 0.9 for r in rates)
    return _check("stiffness_consistency", ok,
                  f"defects {['%.2e' % d for d in defects]}, rates "
                  f"{['%.2f' % r for r in rates]}")


def check_projection_identities(rng, trials=60) -> CheckResult:
    grid = build_grid("interval", [1.0], [32])
    w = grid.cell_measure
    worst = 0.0
    for _ in range(trials):
        m = weight_field(grid, random_admissible_values(rng, grid.n_cells))
        q = weight_field(grid, random_admissible_values(rng, grid.n_cells))
        f = rng.standard_normal(grid.n_cells)
        phi = rng.standard_normal(grid.n_cells)
        pf = project_mean_zero(m, f)
        # adjoint identity
        lhs = (w * m.values * pf) @ phi
        rhs = (w * m.values * f) @ project_mean_zero(m, phi)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # mean-zero output and idempotence
        worst = max(worst, abs((w * m.values) @ pf) / max(1.0, np.abs(pf).max()))
        worst = max(worst, np.max(np.abs(project_mean_zero(m, pf) - pf)))
        # constants map to zero
        worst = max(worst, np.max(np.abs(project_mean_zero(m, np.full(
            grid.n_cells, 3.7)))))
        # inverse on the q-mean-zero subspace
        g = project_mean_zero(q, f)
        worst = max(worst, np.max(np.abs(project_mean_zero(
            q, project_mean_zero(m, g)) - g)) / max(1.0, np.abs(g).max()))
    return _check("projection_identities", worst < 1e-12,
                  f"worst relative defect {worst:.2e}")


def check_solution_operator(rng, trials=25) -> CheckResult:
    grid = build_grid("interval", [1.0], [16])
    K = assemble_stiffness(grid)
    w = grid.cell_measure
    worst = 0.0
    for _ in range(trials):
        m = weight_field(grid, random_admissible_values(rng, grid.n_cells))
        f = project_mean_zero(m, rng.standard_normal(grid.n_cells))
        g = project_mean_zero(m, rng.standard_normal(grid.n_cells))
        Gf = solution_operator(m, f)
        Gg = solution_operator(m, g)
        # self-adjoint in the stiffness inner product
        worst = max(worst, abs(Gf @ (K @ g) - f @ (K @ Gg))
                    / max(1.0, abs(Gf @ (K @ g))))
        # residual parallel to the constraint vector
        r = K @ Gf - w * m.values * f
        q = w * m.values
        r_perp = r - q * (q @ r) / (q @ q)
        worst = max(worst, np.linalg.norm(r_perp) / max(
            1.0, np.linalg.norm(r)))
        worst = max(worst, abs(q @ Gf) / max(1.0, np.abs(Gf).max()))
    return _check("solution_operator", worst < 1e-10,
                  f"worst defect {worst:.2e}")


def check_eigenpair_identities(rng, trials=30) -> CheckResult:
    grid = build_grid("interval", [1.0], [48])
    K = assemble_stiffness(grid)
    w = grid.cell_measure
    worst = 0.0
    for _ in range(trials):
        m = weight_field(grid, random_admissible_values(rng, grid.n_cells))
        pair = principal_eigenpair(m)
        worst = max(worst, abs(pair.u @ (K @ pair.u) - 1.0))
        worst = max(worst, abs((w * m.values) @ (pair.u ** 2) - pair.mu1)
                    / pair.mu1)
        if pair.u.min() <= 0:
            return _check("eigenpair_identities", False,
                          "eigenfunction not positive")
        worst = max(worst, pair.residual)
        ray = rayleigh_quotient(
            m, project_mean_zero(m, rng.standard_normal(grid.n_cells)))
        if ray > pair.mu1 + 1e-12:
            return _check("eigenpair_identities", False,
                          f"Rayleigh quotient {ray} exceeds mu1 {pair.mu1}")
    return _check("eigenpair_identities", worst < 1e-10,
                  f"worst defect {worst:.2e}")


def check_homogeneity(rng, trials=15) -> CheckResult:
    grid = build_grid("interval", [1.0], [40])
    worst = 0.0
    for _ in range(trials):
        m_vals = random_admissible_values(rng, grid.n_cells)
        base = principal_eigenpair(weight_field(grid, m_vals))
        for alpha in (0.5, 2.0, 10.0):
            scaled = principal_eigenpair(weight_field(grid, alpha * m_vals))
            worst = max(worst, abs(scaled.mu1 - alpha * base.mu1)
                        / (alpha * base.mu1))
            worst = max(worst, np.max(np.abs(scaled.u - base.u)) * 1e-2)
        worst = max(worst, abs(mu1_derivative(weight_field(grid, m_vals),
                                              m_vals) - base.mu1) / base.mu1)
    return _check("homogeneity_euler", worst < 1e-8,
                  f"worst relative defect {worst:.2e}")


def check_convexity(rng, trials=30) -> CheckResult:
    grid = build_grid("interval", [1.0], [32])
    worst = -np.inf
    for i in range(trials):
        a = random_admissible_values(rng, grid.n_cells)
        if i % 5 == 0:
            b = -rng.uniform(0.1, 1.0, grid.n_cells)  # degenerate side
        else:
            b = random_admissible_values(rng, grid.n_cells)
        mu_a = mu1_extended(weight_field(grid, a))
        mu_b = mu1_extended(weight_field(grid, b))
        for t in (0.25, 0.5, 0.75):
            mix = weight_field(grid, t * a + (1 - t) * b)
            gap = mu1_extended(mix) - (t * mu_a + (1 - t) * mu_b)
            worst = max(worst, gap)
    return _check("convexity", worst <= 1e-10,
                  f"worst convexity excess {worst:.2e}")


def check_derivative_fd(rng, pairs=5) -> CheckResult:
    grid = build_grid("interval", [1.0], [48])
    worst = 0.0
    for _ in range(pairs):
        m_vals = random_admissible_values(rng, grid.n_cells)
        v = rng.standard_normal(grid.n_cells)
        exact = mu1_derivative(weight_field(grid, m_vals), v)
        best = np.inf
        for t in (1e-3, 1e-4, 1e-5, 1e-6):
            hi = mu1_extended(weight_field(grid, m_vals + t * v))
            lo = mu1_extended(weight_field(grid, m_vals - t * v))
            fd = (hi - lo) / (2 * t)
            best = min(best, abs(fd - exact) / max(1.0, abs(exact)))
        worst = max(worst, best)
    return _check("derivative_fd", worst < 1e-5,
                  f"worst best-over-t error {worst:.2e}")


def check_rearrangement(rng, trials=200) -> CheckResult:
    grid = build_grid("interval", [1.0], [24])
    K1 = axis_stiffness(grid, 0)
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(grid.n_cells)
        g = rng.standard_normal(grid.n_cells)
        fs = monotone_x1_rearrangement(f, grid)
        gs = monotone_x1_rearrangement(g, grid)
        # Hardy-Littlewood
        worst = max(worst, integrate(grid, f * g) - integrate(grid, fs * gs))
        # 1D sorting inequality for the Dirichlet energy
        fpos = np.abs(f)
        fpos_s = monotone_x1_rearrangement(fpos, grid)
        worst = max(worst, fpos_s @ (K1 @ fpos_s) - fpos @ (K1 @ fpos))
        # idempotence and equimeasurability
        if not np.array_equal(monotone_x1_rearrangement(fs, grid), fs):
            return _check("rearrangement", False, "sort not idempotent")
        if not equimeasurable(f, fs, grid):
            return _check("rearrangement", False, "sort not equimeasurable")
        # mutual majorization on permutations
        perm = rng.permutation(f)
        if not (check_majorization(perm, f, grid).holds
                and check_majorization(f, perm, grid).holds):
            return _check("rearrangement", False,
                          "permutation fails mutual majorization")
        # averaging is majorized and preserves bounds
        lam = rng.uniform(0.0, 1.0)
        avg = lam * f + (1 - lam) * perm
        rep = check_majorization(avg, f, grid)
        if not rep.holds:
            return _check("rearrangement", False,
                          f"average not majorized, margin {rep.worst_margin}")
        if avg.min() < f.min() - 1e-12 or avg.max() > f.max() + 1e-12:
            return _check("rearrangement", False, "bounds not preserved")
    return _check("rearrangement", worst <= 1e-12,
                  f"worst inequality excess {worst:.2e}")


def check_comonotone_brute_force(rng, trials=60) -> CheckResult:
    grid = build_grid("interval", [1.0], [4])
    for _ in range(trials):
        u = rng.standard_normal(4)
        cls = decreasing_rearrangement(rng.standard_normal(4), grid)
        best = comonotone_arrangement(cls, u, grid)
        target = integrate(grid, best * u)
        brute = max(integrate(grid, np.array(p) * u)
                    for p in permutations(cls.cell_values(grid)))
        if target < brute - 1e-12:
            return _check("comonotone_brute_force", False,
                          f"greedy {target} < brute force {brute}")
    return _check("comonotone_brute_force", True, f"{trials} trials")


def check_optimizer(rng) -> CheckResult:
    grid = build_grid("interval", [1.0], [64])
    m0 = np.where(np.arange(64) < 16, 1.0, -2.0)
    cls = decreasing_rearrangement(m0, grid)
    result = minimize_lambda1(cls, grid, restarts=3, seed=7)
    mus = [mu for _, mu, _, _ in result.trace]
    ascent = all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))
    ok = (result.converged and ascent
          and result.comonotone_violations == 0
          and result.monotone_x1.classification in
          ("monotone_decreasing", "monotone_increasing"))
    return _check("optimizer_fixed_point", ok,
                  f"converged={result.converged} iters={len(result.trace) - 1} "
                  f"violations={result.comonotone_violations} "
                  f"{result.monotone_x1.classification}")


def check_oscillation_trend(rng) -> CheckResult:
    grid = build_grid("interval", [1.0], [64])
    m0 = np.where(np.arange(64) < 16, 1.0, -2.0)
    cls = decreasing_rearrangement(m0, grid)
    mus = []
    for k in (1, 2, 4, 8):
        field = oscillating_arrangement(cls, grid, k)
        if not equimeasurable(field, m0, grid):
            return _check("oscillation_trend", False,
                          f"k={k} leaves the class")
        mus.append(principal_eigenpair(weight_field(grid, field)).mu1)
    decreasing = all(b < a for a, b in zip(mus, mus[1:]))
    return _check("oscillation_trend", decreasing,
                  "mu1 ladder " + ", ".join(f"{mu:.4g}" for mu in mus))


def check_logistic(rng) -> CheckResult:
    grid = build_grid("interval", [1.0], [64])
    m = weight_field(grid, np.where(grid.cell_centers()[:, 0] < 0.5,
                                    1.0, -3.0))
    # pure diffusion conserves mass
    v0 = 0.5 + 0.4 * np.sin(2 * np.pi * grid.cell_centers()[:, 0])
    traj = simulate_logistic(m, 0.0, v0, dt=0.01, t_end=1.0)
    drift = np.max(np.abs(traj.total_mass - traj.total_mass[0])) \
        / abs(traj.total_mass[0])
    lam1 = principal_eigenpair(m).lambda1
    up = simulate_logistic(m, 1.2 * lam1, np.full(64, 0.01), dt=0.05,
                           t_end=50 / (1.2 * lam1))
    down = simulate_logistic(m, 0.8 * lam1, np.full(64, 0.01), dt=0.05,
                             t_end=400 / (0.8 * lam1))
    ok = (drift < 1e-10 and up.outcome == "persistent"
          and down.outcome == "extinct" and up.clamp_events == 0
          and down.clamp_events == 0)
    return _check("logistic_persistence", ok,
                  f"drift {drift:.2e}, above->{up.outcome}, "
                  f"below->{down.outcome}")


def check_signed_spectrum(rng) -> CheckResult:
    grid = build_grid("interval", [1.0], [32])
    m = weight_field(grid, random_admissible_values(rng, grid.n_cells))
    spec = signed_spectrum(m, 5)
    pair = principal_eigenpair(m)
    ok = (spec.basis_dim == grid.n_cells - 1
          and np.all(np.diff(spec.positive) <= 0)
          and np.all(np.diff(spec.negative) >= 0)
          and abs(spec.positive[0] - pair.mu1) < 1e-10 * pair.mu1)
    neg = weight_field(grid, -np.abs(random_admissible_values(
        rng, grid.n_cells)) - 0.1)
    ok = ok and signed_spectrum(neg, 3).positive.size == 0
    return _check("signed_spectrum", ok,
                  f"mu1 cross-check gap "
                  f"{abs(spec.positive[0] - pair.mu1):.2e}")


ALL_CHECKS = (
    check_grid_invariants,
    check_stiffness_consistency,
    check_projection_identities,
    check_solution_operator,
    check_eigenpair_identities,
    check_homogeneity,
    check_convexity,
    check_derivative_fd,
    check_rearrangement,
    check_comonotone_brute_force,
    check_signed_spectrum,
    check_optimizer,
    check_oscillation_trend,
    check_logistic,
)


def run_all_checks(seed: int = 0) -> list:
    """Run the whole suite with one seeded generator; returns CheckResults."""
    results = []
    for i, fn in enumerate(ALL_CHECKS):
        rng = np.random.default_rng([seed, i])
        try:
            results.append(fn(rng))
        except Exception as exc:  # surface the failure, keep going
            results.append(CheckResult(fn.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results


def format_report(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
