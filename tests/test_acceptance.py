"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from eigenweight import (
    assemble_stiffness,
    axis_stiffness,
    build_grid,
    check_majorization,
    decreasing_rearrangement,
    equimeasurable,
    minimize_lambda1,
    monotone_x1_rearrangement,
    mu1_derivative,
    mu1_extended,
    oscillating_arrangement,
    principal_eigenpair,
    project_mean_zero,
    simulate_logistic,
    solution_operator,
    weight_field,
)
from eigenweight.cli import execute, parse_config
from oracles import random_admissible, two_phase_lambda1


@contextmanager
def criterion(number, title):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({title}): FAIL "
              f"after {time.time() - start:.1f}s")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({title}): PASS "
          f"in {time.time() - start:.1f}s")


def oracle_weight(grid):
    x = grid.cell_centers()[:, 0]
    return weight_field(grid, np.where(x < 0.5, 1.0, -3.0))


def test_criterion_1_eigenvalue_oracle_and_order():
    with criterion(1, "1D eigenvalue oracle"):
        start = time.time()
        lam_star = two_phase_lambda1(1.0, 3.0, 0.5, 1.0, tol=1e-10)
        errors = []
        for n in (128, 256, 512, 1024):
            grid = build_grid("interval", [1.0], [n])
            pair = principal_eigenpair(oracle_weight(grid))
            errors.append(abs(pair.lambda1 - lam_star) / lam_star)
        assert errors[-1] < 1e-3
        # observed order from a least-squares fit of log error vs log h
        hs = np.log([1 / 128, 1 / 256, 1 / 512, 1 / 1024])
        slope = np.polyfit(hs, np.log(errors), 1)[0]
        assert slope >= 1.8
        assert time.time() - start < 30.0


def test_criterion_2_identity_suite():
    with criterion(2, "identity suite, 200 trials"):
        start = time.time()
        rng = np.random.default_rng(2)
        grid = build_grid("interval", [1.0], [64])
        K = assemble_stiffness(grid)
        w = grid.cell_measure
        for _ in range(200):
            m = weight_field(grid, random_admissible(rng, 64))
            q = weight_field(grid, random_admissible(rng, 64))
            f = rng.standard_normal(64)
            phi = rng.standard_normal(64)

            # projection (i): adjoint identity
            lhs = (w * m.values * project_mean_zero(m, f)) @ phi
            rhs = (w * m.values * f) @ project_mean_zero(m, phi)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            # (ii): kernel is exactly the constants
            const = project_mean_zero(m, np.full(64, 2.5))
            assert np.max(np.abs(const)) <= 1e-10
            assert np.max(np.abs(project_mean_zero(m, f))) > 1e-10
            # (iii): fixes the mean-zero subspace
            g = project_mean_zero(m, f)
            assert np.max(np.abs(project_mean_zero(m, g) - g)) <= \
                1e-10 * max(1.0, np.abs(g).max())
            # (vi): inverse pair on the q-mean-zero subspace
            gq = project_mean_zero(q, f)
            back = project_mean_zero(q, project_mean_zero(m, gq))
            assert np.max(np.abs(back - gq)) <= \
                1e-10 * max(1.0, np.abs(gq).max())

            # solution operator self-adjointness
            fv = project_mean_zero(m, rng.standard_normal(64))
            gv = project_mean_zero(m, rng.standard_normal(64))
            lhs = solution_operator(m, fv) @ (K @ gv)
            rhs = fv @ (K @ solution_operator(m, gv))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

            # eigenpair identities
            pair = principal_eigenpair(m)
            assert abs(pair.u @ (K @ pair.u) - 1.0) <= 1e-10
            assert abs((w * m.values) @ (pair.u ** 2) - pair.mu1) \
                <= 1e-10 * pair.mu1
            assert pair.u.min() > 0
        assert time.time() - start < 60.0


def test_criterion_3_homogeneity_and_euler():
    with criterion(3, "homogeneity and Euler identity"):
        rng = np.random.default_rng(3)
        grid = build_grid("interval", [1.0], [64])
        for _ in range(50):
            vals = random_admissible(rng, 64)
            base = principal_eigenpair(weight_field(grid, vals))
            for alpha in (0.5, 2.0, 10.0):
                scaled = principal_eigenpair(
                    weight_field(grid, alpha * vals))
                assert abs(scaled.mu1 - alpha * base.mu1) <= \
                    1e-10 * alpha * base.mu1
            deriv = mu1_derivative(weight_field(grid, vals), vals)
            assert abs(deriv - base.mu1) <= 1e-10 * base.mu1


def test_criterion_4_derivative_vs_finite_differences():
    with criterion(4, "Gateaux derivative vs central differences"):
        rng = np.random.default_rng(4)
        grid = build_grid("interval", [1.0], [64])
        for _ in range(20):
            vals = random_admissible(rng, 64)
            v = rng.standard_normal(64)
            exact = mu1_derivative(weight_field(grid, vals), v)
            best = np.inf
            for t in (1e-3, 1e-4, 1e-5, 1e-6):
                hi = mu1_extended(weight_field(grid, vals + t * v))
                lo = mu1_extended(weight_field(grid, vals - t * v))
                best = min(best, abs((hi - lo) / (2 * t) - exact)
                           / max(1.0, abs(exact)))
            assert best <= 1e-5


def test_criterion_5_convexity():
    with criterion(5, "convexity across 100 pairs"):
        rng = np.random.default_rng(5)
        grid = build_grid("interval", [1.0], [64])
        for i in range(100):
            a = random_admissible(rng, 64)
            if i % 5 == 0:
                b = -rng.uniform(0.1, 1.0, 64)  # mu1 extension is zero here
            else:
                b = random_admissible(rng, 64)
            mu_a = mu1_extended(weight_field(grid, a))
            mu_b = mu1_extended(weight_field(grid, b))
            for t in (0.25, 0.5, 0.75):
                mix = mu1_extended(weight_field(grid, t * a + (1 - t) * b))
                assert mix <= t * mu_a + (1 - t) * mu_b + 1e-10


def test_criterion_6_optimizer_ascent_and_characterization():
    with criterion(6, "optimizer ascent + characterization"):
        start = time.time()
        grid = build_grid("interval", [1.0], [256])
        values = np.where(np.arange(256) < 64, 1.0, -2.0)
        cls = decreasing_rearrangement(values, grid)
        result = minimize_lambda1(cls, grid, restarts=2, seed=0)
        assert result.converged
        assert len(result.trace) - 1 <= 50
        mus = [mu for _, mu, _, _ in result.trace]
        assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))
        assert result.comonotone_violations == 0
        assert result.monotone_x1.classification in (
            "monotone_decreasing", "monotone_increasing")
        # converged configuration agrees with the endpoint-block oracle
        lam_star = two_phase_lambda1(1.0, 2.0, 0.25, 1.0)
        assert abs(result.final_pair.lambda1 - lam_star) / lam_star < 1e-3
        assert time.time() - start < 60.0


def test_criterion_7_monotone_minimizer_in_cylinder():
    with criterion(7, "2D cylinder monotone minimizer, 8 restarts"):
        start = time.time()
        grid = build_grid("rectangle", [2.0, 1.0], [64, 32])
        n = grid.n_cells
        values = np.where(np.arange(n) < n // 4, 1.0, -2.0)
        cls = decreasing_rearrangement(values, grid)
        result = minimize_lambda1(cls, grid, restarts=8, seed=0,
                                  solver="iterative")
        assert result.monotone_x1.classification in (
            "monotone_decreasing", "monotone_increasing")
        assert result.comonotone_violations == 0
        assert equimeasurable(result.final_m, values, grid)
        assert time.time() - start < 600.0


def test_criterion_8_no_maximizer_trend():
    with criterion(8, "oscillation drives lambda1 up"):
        grid = build_grid("interval", [1.0], [256])
        values = np.where(np.arange(256) < 64, 1.0, -2.0)
        cls = decreasing_rearrangement(values, grid)
        lams = []
        for k in (1, 2, 4, 8, 16):
            field = oscillating_arrangement(cls, grid, k)
            assert equimeasurable(field, values, grid)
            lams.append(principal_eigenpair(
                weight_field(grid, field)).lambda1)
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[-1] >= 5.0 * lams[0]


def test_criterion_9_rearrangement_properties():
    with criterion(9, "rearrangement inequalities, 1000 trials"):
        rng = np.random.default_rng(9)
        grid = build_grid("interval", [1.0], [64])
        K1 = axis_stiffness(grid, 0)
        w = grid.cell_measure
        for _ in range(1000):
            f = rng.standard_normal(64)
            g = rng.standard_normal(64)
            fs = monotone_x1_rearrangement(f, grid)
            gs = monotone_x1_rearrangement(g, grid)
            # Hardy-Littlewood
            assert w * float(f @ g) <= w * float(fs @ gs) + 1e-12
            # 1D discrete Polya-Szego on nonnegative data
            fp = np.abs(f)
            fps = monotone_x1_rearrangement(fp, grid)
            assert fps @ (K1 @ fps) <= fp @ (K1 @ fp) + 1e-12
            # equivalence of mutual majorization and equimeasurability
            perm = rng.permutation(f)
            assert check_majorization(perm, f, grid).holds
            assert check_majorization(f, perm, grid).holds
            assert equimeasurable(perm, f, grid)
            other = f + 0.5 * rng.standard_normal(64)
            mutual = (check_majorization(other, f, grid).holds
                      and check_majorization(f, other, grid).holds)
            assert mutual == equimeasurable(other, f, grid)
            # averaging is majorized and preserves bounds
            lam = rng.uniform(0.0, 1.0)
            avg = lam * f + (1 - lam) * perm
            rep = check_majorization(avg, f, grid)
            assert rep.holds and rep.worst_margin >= -1e-12
            assert avg.min() >= f.min() - 1e-12
            assert avg.max() <= f.max() + 1e-12


def test_criterion_10_persistence_criterion():
    with criterion(10, "persistence classification"):
        start = time.time()
        grid = build_grid("interval", [1.0], [256])
        m = oracle_weight(grid)
        lam1 = principal_eigenpair(m).lambda1

        traj0 = simulate_logistic(m, 0.0, np.full(256, 0.5), dt=0.01,
                                  t_end=1.0)
        drift = np.max(np.abs(traj0.total_mass - traj0.total_mass[0]))
        assert drift <= 1e-10 * abs(traj0.total_mass[0])

        gamma_up = 1.2 * lam1
        up = simulate_logistic(m, gamma_up, np.full(256, 0.01), dt=0.05,
                               t_end=50 / gamma_up)
        assert up.outcome == "persistent"
        assert up.clamp_events == 0

        gamma_dn = 0.8 * lam1
        down = simulate_logistic(m, gamma_dn, np.full(256, 0.01), dt=0.05,
                                 t_end=400 / gamma_dn)
        assert down.outcome == "extinct"
        assert down.clamp_events == 0
        assert time.time() - start < 60.0


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical optimize reruns"):
        config = parse_config(json.dumps({
            "version": 1,
            "domain": {"type": "interval", "extents": [1.0], "shape": [64]},
            "weight": {"kind": "bang_bang", "positive_value": 1.0,
                       "negative_value": -2.0, "positive_fraction": 0.25},
            "optimize": {"max_iters": 200, "restarts": 4, "seed": 123},
        }))
        for run in ("a", "b"):
            code = execute(config, "optimize", out_dir=tmp_path / run,
                           quiet=True)
            assert code == 0

        def stripped(path):
            return "\n".join(line for line in path.read_text().splitlines()
                             if '"timestamp"' not in line)

        assert stripped(tmp_path / "a/optimization.json") == \
            stripped(tmp_path / "b/optimization.json")
        assert (tmp_path / "a/final_m.csv").read_bytes() == \
            (tmp_path / "b/final_m.csv").read_bytes()
        assert (tmp_path / "a/final_u.csv").read_bytes() == \
            (tmp_path / "b/final_u.csv").read_bytes()
