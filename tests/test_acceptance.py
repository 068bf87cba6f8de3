"""Acceptance criteria, one test per criterion at its stated tolerance.

Criteria 1-10 are the ``check_criterion_*`` checks of ``eigenweight.verify``
run at fixed seeds; criterion 11 needs the CLI, so it lives here.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from eigenweight import verify
from eigenweight.cli import execute, parse_config


@contextmanager
def criterion(number, title, cap=None):
    """Print a PASS/FAIL line; fail when the body takes ``cap`` seconds."""
    start = time.time()
    try:
        yield
        assert cap is None or time.time() - start < cap, f"over {cap} s"
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({title}): FAIL "
              f"after {time.time() - start:.1f}s")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({title}): PASS "
          f"in {time.time() - start:.1f}s")


def test_criterion_1_eigenvalue_oracle_and_order():
    with criterion(1, "1D eigenvalue oracle", cap=30.0):
        verify.check_criterion_1_eigenvalue_oracle(None)


def test_criterion_2_identity_suite():
    with criterion(2, "identity suite, 200 trials", cap=60.0):
        verify.check_criterion_2_identity_suite(np.random.default_rng(2))


def test_criterion_3_homogeneity_and_euler():
    with criterion(3, "homogeneity and Euler identity"):
        verify.check_criterion_3_homogeneity(np.random.default_rng(3))


def test_criterion_4_derivative_vs_finite_differences():
    with criterion(4, "Gateaux derivative vs central differences"):
        verify.check_criterion_4_derivative(np.random.default_rng(4))


def test_criterion_5_convexity():
    with criterion(5, "convexity across 100 pairs"):
        verify.check_criterion_5_convexity(np.random.default_rng(5))


def test_criterion_6_optimizer_ascent_and_characterization():
    with criterion(6, "optimizer ascent + characterization", cap=60.0):
        verify.check_criterion_6_optimizer(None)


def test_criterion_7_monotone_minimizer_in_cylinder():
    with criterion(7, "2D cylinder monotone minimizer, 8 restarts",
                   cap=600.0):
        verify.check_criterion_7_cylinder(None)


def test_criterion_8_no_maximizer_trend():
    with criterion(8, "oscillation drives lambda1 up"):
        verify.check_criterion_8_oscillation(None)


def test_criterion_9_rearrangement_properties():
    with criterion(9, "rearrangement inequalities, 1000 trials"):
        verify.check_criterion_9_rearrangement(np.random.default_rng(9))


def test_criterion_10_persistence_criterion():
    with criterion(10, "persistence classification", cap=60.0):
        verify.check_criterion_10_persistence(None)


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
