"""The property suite: acceptance criteria 1-10, one check each.

Each ``check_criterion_<n>_<name>(rng)`` runs one criterion on seeded data
at the size, trial count and bound the criterion states.  It raises
``CheckFailed`` naming the violated property, or returns a detail string.
The CLI ``verify`` subcommand runs every check through ``run_all_checks``;
the pytest acceptance suite calls them with its own fixed seeds.  The
unit invariants of the modules live in the pytest suite only.  Checks that
draw no random data accept ``rng=None``.  The eigenvalue oracle
``two_phase_lambda1`` is a closed form, independent of the
discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import build_grid
from .logistic import simulate_logistic
from .optimize import minimize_lambda1, oscillating_arrangement
from .rearrange import (
    check_majorization,
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
    solution_operator,
    weight_field,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class CheckFailed(AssertionError):
    """A property of the suite does not hold; the message names it."""


def _expect(holds, message: str) -> None:
    if not holds:
        raise CheckFailed(message)


class _Defects:
    """Bounds each property's defect; remembers the one nearest its bound."""

    def __init__(self):
        self.ratio, self.worst = -np.inf, "none"

    def __call__(self, prop: str, defect, bound: float) -> None:
        defect = float(defect)
        _expect(defect <= bound, f"{prop}: defect {defect:.2e} exceeds "
                                 f"{bound:g}")
        if defect / bound > self.ratio:
            self.ratio = defect / bound
            self.worst = f"{prop} {defect:.2e} (bound {bound:g})"

    def __str__(self):
        return f"worst {self.worst}"


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
        i = int(rng.integers(n))
        values[i] = 0.5
        # on a few cells the raised one can lift the mean; lower the rest
        mean = values.mean()
        if mean > -0.05:
            values[np.arange(n) != i] -= (mean + 0.1) * n / (n - 1)
    return values


def two_phase_lambda1(a: float, b: float, cut: float, length: float,
                      tol: float = 1e-12) -> float:
    """Smallest positive eigenvalue for the weight +a on (0, cut), -b after.

    Zero-flux conditions at both ends give u = cos(sqrt(a lam) x) on the
    positive phase and a cosh profile on the negative one; matching value
    and slope at the cut yields

        sqrt(a) tan(sqrt(a lam) cut) = sqrt(b) tanh(sqrt(b lam) (L - cut))

    whose smallest root is bracketed between 0 and the first tangent pole
    and found by bisection.  Requires a*cut < b*(L - cut), the
    negative-integral regime.
    """
    if not (a > 0 and b > 0 and 0 < cut < length
            and a * cut < b * (length - cut)):
        raise ValueError("need a, b > 0, 0 < cut < length and a negative "
                         "weight integral")

    def match(lam):
        s = math.sqrt(lam)
        return (math.sqrt(a) * math.tan(math.sqrt(a) * s * cut)
                - math.sqrt(b) * math.tanh(math.sqrt(b) * s * (length - cut)))

    pole = (math.pi / (2.0 * cut)) ** 2 / a
    lo, hi = 1e-8, pole * (1 - 1e-9)
    if not match(lo) < 0 < match(hi):
        raise ValueError("the smallest root is not bracketed")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if match(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _two_phase_weight(grid):
    """+1 on x1 < 1/2 and -3 after, the weight of criteria 1 and 10."""
    x = grid.cell_centers()[:, 0]
    return weight_field(grid, np.where(x < 0.5, 1.0, -3.0))


def _minimizer_shape(result) -> str:
    """Expect a comonotone, x1-monotone minimizer; return its class."""
    _expect(result.comonotone_violations == 0,
            f"{result.comonotone_violations} comonotone violations")
    shape = result.monotone_x1.classification
    _expect(shape in ("monotone_decreasing", "monotone_increasing"),
            f"minimizer is {shape}, not x1-monotone")
    return shape


def check_criterion_1_eigenvalue_oracle(rng) -> str:
    """Dense lambda1 of the two-phase weight against the closed form."""
    lam_star = two_phase_lambda1(1.0, 3.0, 0.5, 1.0, tol=1e-10)
    sizes = [128, 256, 512, 1024]
    errors = []
    for n in sizes:
        pair = principal_eigenpair(_two_phase_weight(
            build_grid("interval", [1.0], [n])))
        errors.append(abs(pair.lambda1 - lam_star) / lam_star)
    _expect(errors[-1] < 1e-3,
            f"lambda1 error {errors[-1]:.2e} at 1024 cells exceeds 1e-3")
    # observed order from a least-squares fit of log error vs log h
    order = np.polyfit(np.log(1.0 / np.array(sizes)), np.log(errors), 1)[0]
    _expect(order >= 1.8, f"observed order {order:.2f} is below 1.8")
    return f"error {errors[-1]:.2e} at 1024 cells, order {order:.2f}"


def check_criterion_2_identity_suite(rng) -> str:
    """Projection, solution operator and eigenpair identities, 200 trials."""
    grid = build_grid("interval", [1.0], [64])
    K = grid.stiffness
    w = grid.cell_measure
    probes = rng.spawn(1)[0]  # leaves the draws from rng as they were
    defect = _Defects()
    for _ in range(200):
        m = weight_field(grid, random_admissible_values(rng, 64))
        q = weight_field(grid, random_admissible_values(rng, 64))
        f = rng.standard_normal(64)
        phi = rng.standard_normal(64)
        wm = w * m.values

        pf = project_mean_zero(m, f)
        scale = max(1.0, np.abs(pf).max())
        lhs = (wm * pf) @ phi
        defect("projection adjoint",
               abs(lhs - (wm * f) @ project_mean_zero(m, phi))
               / max(1.0, abs(lhs)), 1e-12)
        defect("projection of a constant",
               np.abs(project_mean_zero(m, np.full(64, 2.5))).max(), 1e-12)
        _expect(np.abs(pf).max() > 1e-10,
                "projection annihilates a non-constant field")
        defect("projected m-mean", abs(wm @ pf) / scale, 1e-12)
        defect("projection idempotence",
               np.abs(project_mean_zero(m, pf) - pf).max() / scale, 1e-12)
        gq = project_mean_zero(q, f)
        defect("projection inverse pair",
               np.abs(project_mean_zero(q, project_mean_zero(m, gq)) - gq)
               .max() / max(1.0, np.abs(gq).max()), 1e-12)

        fv = project_mean_zero(m, rng.standard_normal(64))
        gv = project_mean_zero(m, rng.standard_normal(64))
        Gf = solution_operator(m, fv)
        lhs = Gf @ (K @ gv)
        defect("solution operator symmetry",
               abs(lhs - fv @ (K @ solution_operator(m, gv)))
               / max(1.0, abs(lhs)), 1e-10)
        r = K @ Gf - wm * fv
        r_perp = r - wm * (wm @ r) / (wm @ wm)
        defect("solution operator residual",
               np.linalg.norm(r_perp) / max(1.0, np.linalg.norm(r)), 1e-10)
        defect("solution operator constraint",
               abs(wm @ Gf) / max(1.0, np.abs(Gf).max()), 1e-10)

        pair = principal_eigenpair(m)
        defect("eigenfunction normalization",
               abs(pair.u @ (K @ pair.u) - 1.0), 1e-10)
        defect("eigenfunction m-mass",
               abs(wm @ pair.u ** 2 - pair.mu1) / pair.mu1, 1e-10)
        defect("eigenpair residual", pair.residual, 1e-10)
        _expect(pair.u.min() > 0, "eigenfunction not positive")
        ray = rayleigh_quotient(
            m, project_mean_zero(m, probes.standard_normal(64)))
        _expect(ray <= pair.mu1 + 1e-12,
                f"Rayleigh quotient {ray} exceeds mu1 {pair.mu1}")
    return str(defect)


def check_criterion_3_homogeneity(rng) -> str:
    """Degree-1 homogeneity of mu1 and the Euler identity, 50 weights."""
    grid = build_grid("interval", [1.0], [64])
    defect = _Defects()
    for _ in range(50):
        vals = random_admissible_values(rng, 64)
        base = principal_eigenpair(weight_field(grid, vals))
        for alpha in (0.5, 2.0, 10.0):
            scaled = principal_eigenpair(weight_field(grid, alpha * vals))
            defect("degree-1 homogeneity",
                   abs(scaled.mu1 - alpha * base.mu1) / (alpha * base.mu1),
                   1e-10)
            defect("eigenfunction under scaling",
                   np.abs(scaled.u - base.u).max(), 1e-10)
        defect("Euler identity",
               abs(mu1_derivative(weight_field(grid, vals), vals) - base.mu1)
               / base.mu1, 1e-10)
    return str(defect)


def check_criterion_4_derivative(rng) -> str:
    """Gateaux derivative u^2 against central differences, 20 pairs."""
    grid = build_grid("interval", [1.0], [64])
    defect = _Defects()
    for _ in range(20):
        vals = random_admissible_values(rng, 64)
        v = rng.standard_normal(64)
        exact = mu1_derivative(weight_field(grid, vals), v)
        best = np.inf
        for t in (1e-3, 1e-4, 1e-5, 1e-6):
            hi = mu1_extended(weight_field(grid, vals + t * v))
            lo = mu1_extended(weight_field(grid, vals - t * v))
            best = min(best, abs((hi - lo) / (2 * t) - exact)
                       / max(1.0, abs(exact)))
        defect("derivative vs best central difference", best, 1e-5)
    return str(defect)


def check_criterion_5_convexity(rng) -> str:
    """Convexity of the extended mu1, including weights with mu1 = 0."""
    grid = build_grid("interval", [1.0], [64])
    defect = _Defects()
    for i in range(100):
        a = random_admissible_values(rng, 64)
        if i % 5 == 0:
            b = -rng.uniform(0.1, 1.0, 64)  # the extension is zero here
        else:
            b = random_admissible_values(rng, 64)
        mu_a = mu1_extended(weight_field(grid, a))
        mu_b = mu1_extended(weight_field(grid, b))
        for t in (0.25, 0.5, 0.75):
            mix = mu1_extended(weight_field(grid, t * a + (1 - t) * b))
            defect("convexity excess", mix - (t * mu_a + (1 - t) * mu_b),
                   1e-10)
    return str(defect)


def check_criterion_6_optimizer(rng) -> str:
    """The sweep ascends to a monotone fixed point matching the oracle."""
    grid = build_grid("interval", [1.0], [256])
    cls = decreasing_rearrangement(
        np.where(np.arange(256) < 64, 1.0, -2.0), grid)
    result = minimize_lambda1(cls, grid, restarts=2, seed=0)
    sweeps = len(result.trace) - 1
    _expect(result.converged and sweeps <= 50,
            f"converged={result.converged} after {sweeps} sweeps, "
            f"expected convergence within 50")
    mus = [mu for _, mu, _, _ in result.trace]
    _expect(all(b >= a - 1e-12 for a, b in zip(mus, mus[1:])),
            "mu1 decreased along the sweeps")
    shape = _minimizer_shape(result)
    lam_star = two_phase_lambda1(1.0, 2.0, 0.25, 1.0)
    error = abs(result.final_pair.lambda1 - lam_star) / lam_star
    _expect(error < 1e-3,
            f"lambda1 differs from the endpoint-block oracle by {error:.2e}")
    return f"{sweeps} sweeps, {shape}, oracle error {error:.2e}"


def check_criterion_7_cylinder(rng) -> str:
    """The 8-restart minimizer on the 64x32 cylinder is x1-monotone."""
    grid = build_grid("rectangle", [2.0, 1.0], [64, 32])
    n = grid.n_cells
    values = np.where(np.arange(n) < n // 4, 1.0, -2.0)
    cls = decreasing_rearrangement(values, grid)
    result = minimize_lambda1(cls, grid, restarts=8, seed=0,
                              solver="iterative")
    shape = _minimizer_shape(result)
    _expect(equimeasurable(result.final_m, values, grid),
            "minimizer left the rearrangement class")
    return (f"{shape}, lambda1 {result.final_pair.lambda1!r}, "
            f"{result.solves} solves")


def check_criterion_8_oscillation(rng) -> str:
    """Finer stripes of one class drive lambda1 up: no maximizer."""
    grid = build_grid("interval", [1.0], [256])
    values = np.where(np.arange(256) < 64, 1.0, -2.0)
    cls = decreasing_rearrangement(values, grid)
    lams = []
    for k in (1, 2, 4, 8, 16):
        field = oscillating_arrangement(cls, grid, k)
        _expect(equimeasurable(field, values, grid), f"k={k} leaves the class")
        lams.append(principal_eigenpair(weight_field(grid, field)).lambda1)
    ladder = "lambda1 ladder " + ", ".join(f"{lam:.4g}" for lam in lams)
    _expect(all(b > a for a, b in zip(lams, lams[1:])),
            f"{ladder} is not increasing")
    _expect(lams[-1] >= 5.0 * lams[0], f"{ladder} grows less than 5x")
    return ladder


def check_criterion_9_rearrangement(rng) -> str:
    """Rearrangement inequalities and majorization, 1000 trials."""
    grid = build_grid("interval", [1.0], [64])
    K = grid.stiffness
    w = grid.cell_measure
    defect = _Defects()
    for _ in range(1000):
        f = rng.standard_normal(64)
        g = rng.standard_normal(64)
        fs = monotone_x1_rearrangement(f, grid)
        gs = monotone_x1_rearrangement(g, grid)
        defect("Hardy-Littlewood excess",
               w * float(f @ g) - w * float(fs @ gs), 1e-12)
        # 1D discrete Polya-Szego on nonnegative data
        fp = np.abs(f)
        fps = monotone_x1_rearrangement(fp, grid)
        defect("Polya-Szego excess", fps @ (K @ fps) - fp @ (K @ fp),
               1e-12)
        _expect(np.array_equal(monotone_x1_rearrangement(fs, grid), fs),
                "x1 sort not idempotent")
        _expect(equimeasurable(f, fs, grid), "x1 sort not equimeasurable")
        # mutual majorization holds exactly on equimeasurable pairs
        perm = rng.permutation(f)
        _expect(check_majorization(perm, f, grid).holds
                and check_majorization(f, perm, grid).holds,
                "a permutation fails mutual majorization")
        _expect(equimeasurable(perm, f, grid),
                "a permutation is not equimeasurable")
        other = f + 0.5 * rng.standard_normal(64)
        mutual = (check_majorization(other, f, grid).holds
                  and check_majorization(f, other, grid).holds)
        _expect(mutual == equimeasurable(other, f, grid),
                "mutual majorization disagrees with equimeasurability")
        # averaging is majorized and preserves bounds
        lam = rng.uniform(0.0, 1.0)
        avg = lam * f + (1 - lam) * perm
        rep = check_majorization(avg, f, grid)
        _expect(rep.holds, f"average not majorized, margin "
                           f"{rep.worst_margin}")
        defect("averaging majorization margin", -rep.worst_margin, 1e-12)
        defect("averaging bounds",
               max(f.min() - avg.min(), avg.max() - f.max()), 1e-12)
    return str(defect)


def check_criterion_10_persistence(rng) -> str:
    """Logistic persistence exactly above the threshold gamma = lambda1."""
    grid = build_grid("interval", [1.0], [256])
    m = _two_phase_weight(grid)
    lam1 = principal_eigenpair(m).lambda1
    defect = _Defects()
    x = grid.cell_centers()[:, 0]
    for v0 in (np.full(256, 0.5), 0.5 + 0.4 * np.sin(2 * np.pi * x)):
        traj = simulate_logistic(m, 0.0, v0, dt=0.01, t_end=1.0)
        mass = traj.total_mass
        defect("pure-diffusion mass drift",
               np.abs(mass - mass[0]).max() / abs(mass[0]), 1e-10)
    for factor, horizon, outcome in ((1.2, 50, "persistent"),
                                     (0.8, 400, "extinct")):
        gamma = factor * lam1
        traj = simulate_logistic(m, gamma, np.full(256, 0.01), dt=0.05,
                                 t_end=horizon / gamma)
        _expect(traj.outcome == outcome,
                f"gamma = {factor} lambda1 gives {traj.outcome}")
        _expect(traj.clamp_events == 0,
                f"gamma = {factor} lambda1 clamped {traj.clamp_events} times")
    return f"1.2 lambda1 persists, 0.8 lambda1 dies out, {defect}"


#: acceptance criteria 1-10, in order
ALL_CHECKS = (
    check_criterion_1_eigenvalue_oracle,
    check_criterion_2_identity_suite,
    check_criterion_3_homogeneity,
    check_criterion_4_derivative,
    check_criterion_5_convexity,
    check_criterion_6_optimizer,
    check_criterion_7_cylinder,
    check_criterion_8_oscillation,
    check_criterion_9_rearrangement,
    check_criterion_10_persistence,
)


def run_all_checks(seed: int = 0) -> list:
    """Run the whole suite, check i on ``default_rng([seed, i])``."""
    results = []
    for i, check in enumerate(ALL_CHECKS):
        name = check.__name__.removeprefix("check_")
        try:
            detail = check(np.random.default_rng([seed, i]))
        except CheckFailed as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # surface the failure, keep going
            results.append(CheckResult(
                name, False, f"raised {type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True, detail))
    return results


def format_report(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
