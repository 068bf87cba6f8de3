import inspect
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenweight import (ParseError, ValidationError, errors,
                         principal_eigenpair, simulate_logistic, verify,
                         weight_field)
from eigenweight.cli import (MAX_RESTARTS, _number, _numbers, execute, main,
                             parse_config)
from eigenweight.serialize import read_field_csv

BASE_CONFIG = {
    "version": 1,
    "domain": {"type": "interval", "extents": [1.0], "shape": [64]},
    "weight": {"kind": "bang_bang", "positive_value": 1.0,
               "negative_value": -2.0, "positive_fraction": 0.25},
    "optimize": {"max_iters": 200, "restarts": 2, "seed": 0},
    "simulate": {"gamma": 3.0, "dt": 0.05, "t_end": 5.0, "v0": 0.01},
}


#: an iterative solve of a random quarter-positive bang-bang weight, rough
#: enough to need hundreds of ARPACK applies
ROUGH_SOLVE = {
    "domain": {"type": "interval", "extents": [1.0], "shape": [1024]},
    "weight": {"kind": "explicit", "values": np.random.default_rng(7)
               .permutation(np.where(np.arange(1024) < 256, 1.0, -2.0))
               .tolist()},
    "solve": {"solver": "iterative"},
}


def config_text(**overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        doc[key] = value
    return json.dumps(doc)


def _assert_library_decides_admissibility(tmp_path, capsys, text):
    """A weight with a nonnegative integral parses: solve and optimize exit
    3 naming the integral, while simulate and rearrange run."""
    cfg = tmp_path / "weight.json"
    cfg.write_text(text)
    for command, code in (("solve", 3), ("optimize", 3), ("simulate", 0),
                          ("rearrange", 0)):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == code, command
        err = capsys.readouterr().err
        assert ("integral" in err) == (code == 3), (command, err)


class TestParseConfig:
    def test_valid_bang_bang(self):
        config = parse_config(config_text())
        m = weight_field(config.grid, config.values)
        # 0.25 * 1 - 0.75 * 2 = -1.25
        assert m.integral == pytest.approx(-1.25)
        assert m.is_admissible

    def test_nonnegative_integral_rejected(self, tmp_path, capsys):
        _assert_library_decides_admissibility(tmp_path, capsys, config_text(
            weight={"kind": "bang_bang", "positive_value": 1.0,
                    "negative_value": -1.0, "positive_fraction": 0.9}))

    def test_bang_bang_admissibility_on_rounded_field(self, tmp_path,
                                                      capsys):
        # fraction 0.3 has mean -0.1, but on 2 cells it rounds to +2 | -1
        _assert_library_decides_admissibility(tmp_path, capsys, config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [2]},
            weight={"kind": "bang_bang", "positive_value": 2.0,
                    "negative_value": -1.0, "positive_fraction": 0.3}))

    @pytest.mark.parametrize("section,key,value", [
        ("optimize", "restarts", True),
        ("optimize", "tol", False),
        ("domain", "extents", [True]),
        ("domain", "shape", [True, 2]),
        ("rearrange", "stripes", [True, 2]),
        ("weight", "values", [True] + [-2.0] * 63),
        ("weight", "positive_value", True),
    ])
    def test_a_bool_is_not_a_number(self, section, key, value):
        # float(True) is 1.0 and True is an int: the key names the refusal
        doc = json.loads(config_text())
        if key == "values":
            doc["weight"] = {"kind": "explicit"}
        elif key == "extents":
            doc["domain"]["shape"] = [64]
        doc.setdefault(section, {})[key] = value
        with pytest.raises(errors.InputError, match=key):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("seed", [2 ** 53 + 1, 2 ** 64 + 1])
    def test_integer_above_2_53_stays_exact(self, seed):
        config = parse_config(config_text(optimize=dict(
            BASE_CONFIG["optimize"], seed=seed)))
        assert config.optimize["seed"] == seed
        config = parse_config(config_text(optimize=dict(
            BASE_CONFIG["optimize"], seed=16.0)))
        assert type(config.optimize["seed"]) is int
        assert config.optimize["seed"] == 16

    def test_missing_shape_named(self):
        doc = json.loads(config_text())
        del doc["domain"]["shape"]
        with pytest.raises(ParseError, match="shape"):
            parse_config(json.dumps(doc))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_config("{\n  broken\n}")

    def test_bad_fraction(self):
        text = config_text(weight={"kind": "bang_bang",
                                   "positive_value": 1.0,
                                   "negative_value": -2.0,
                                   "positive_fraction": 1.5})
        with pytest.raises(ValidationError, match="positive_fraction"):
            parse_config(text)

    def test_explicit_weight(self):
        values = [1.0] * 4 + [-2.0] * 12
        text = config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16]},
            weight={"kind": "explicit", "values": values})
        config = parse_config(text)
        m = weight_field(config.grid, config.values)
        np.testing.assert_array_equal(m.values, values)

    def test_profile_weight(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("value,measure\n1.0,0.25\n-2.0,0.75\n")
        text = config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16]},
            weight={"kind": "profile", "path": str(profile)})
        config = parse_config(text)
        m = weight_field(config.grid, config.values)
        # canonical arrangement: sorted descending in flat order
        np.testing.assert_array_equal(m.values, [1.0] * 4 + [-2.0] * 12)
        assert m.is_admissible


class TestExecute:
    def test_solve_writes_eigenpair(self, tmp_path):
        config = parse_config(config_text())
        code = execute(config, "solve", out_dir=tmp_path, quiet=True)
        assert code == 0
        payload = json.loads((tmp_path / "eigenpair.json").read_text())
        assert payload["mu1"] > 0
        assert payload["lambda1"] == pytest.approx(1 / payload["mu1"])
        assert (payload["path"], payload["applies"], payload["sigma"]) \
            == ("dense", 0, None)
        values, meta = read_field_csv(tmp_path / "u.csv")
        assert meta["shape"] == (64,)
        assert values.min() > 0

    def test_optimize_outputs(self, tmp_path):
        config = parse_config(config_text())
        code = execute(config, "optimize", out_dir=tmp_path, quiet=True)
        assert code == 0
        payload = json.loads((tmp_path / "optimization.json").read_text())
        assert payload["converged"]
        assert payload["restarts_used"] == 2
        assert payload["solves"] >= 1
        assert payload["comonotone_violations"] == 0
        mus = [row[1] for row in payload["trace"]]
        assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))
        m_back, _ = read_field_csv(tmp_path / "final_m.csv")
        assert sorted(set(m_back.tolist())) == [-2.0, 1.0]

    def test_rearrange_outputs(self, tmp_path):
        config = parse_config(config_text())
        code = execute(config, "rearrange", out_dir=tmp_path, quiet=True)
        assert code == 0
        profile = (tmp_path / "profile.csv").read_text().splitlines()
        assert profile[0] == "value,measure"
        assert profile[1] == "1.0,0.25"
        m_back, _ = read_field_csv(tmp_path / "monotone_m.csv")
        assert np.all(np.diff(m_back) <= 0)

    def test_simulate_outputs(self, tmp_path):
        config = parse_config(config_text())
        code = execute(config, "simulate", out_dir=tmp_path, quiet=True)
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "time,total_mass,min_v,max_v"
        assert len(rows) > 10
        payload = json.loads((tmp_path / "simulation.json").read_text())
        assert payload["outcome"] in ("persistent", "extinct", "undecided")
        opts = config.simulate
        traj = simulate_logistic(
            weight_field(config.grid, config.values), gamma=opts["gamma"],
            v0=np.full(config.grid.n_cells, opts["v0"]), dt=opts["dt"],
            t_end=opts["t_end"])
        assert payload["substeps"] == traj.substeps >= len(rows) - 2
        assert payload["distinct_substep_lengths"] == \
            traj.distinct_substep_lengths >= 1

    def test_rough_solve_reports_shift(self, tmp_path):
        config = parse_config(config_text(**ROUGH_SOLVE))
        assert execute(config, "solve", out_dir=tmp_path, quiet=True) == 0
        payload = json.loads((tmp_path / "eigenpair.json").read_text())
        assert payload["path"] == "shift-invert"
        assert payload["applies"] > 0
        assert 0 < payload["sigma"] < payload["lambda1"]

    def test_rough_solve_reruns_byte_identical(self, tmp_path):
        config = parse_config(config_text(**ROUGH_SOLVE))
        for run in ("a", "b"):
            assert execute(config, "solve", out_dir=tmp_path / run,
                           quiet=True) == 0

        def stripped(path):
            return [line for line in path.read_text().splitlines()
                    if '"timestamp"' not in line]

        assert stripped(tmp_path / "a/eigenpair.json") == \
            stripped(tmp_path / "b/eigenpair.json")
        assert (tmp_path / "a/u.csv").read_bytes() == \
            (tmp_path / "b/u.csv").read_bytes()

    def test_field_csvs_roundtrip(self, tmp_path):
        config = parse_config(config_text())
        execute(config, "solve", out_dir=tmp_path, quiet=True)
        values, _ = read_field_csv(tmp_path / "u.csv")
        pair = principal_eigenpair(weight_field(config.grid, config.values))
        np.testing.assert_array_equal(values, pair.u)


class TestMainExitCodes:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["solve", "--config", str(bad), "--quiet"]) == 2

    def test_validation_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(config_text(weight={"kind": "bang_bang",
                                           "positive_value": 1.0,
                                           "negative_value": -1.0,
                                           "positive_fraction": 0.9}))
        assert main(["solve", "--config", str(bad), "--quiet"]) == 3

    @pytest.mark.parametrize("name", ["missing.json", "a_directory",
                                      "latin1.json"])
    def test_unreadable_config_exit_3(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'{"version": "\xe9"}')
        path = str(tmp_path / name)
        assert main(["solve", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "--config" in err and path in err

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    def test_negative_seed_flag_exit_3(self, tmp_path, capsys, command):
        cfg = tmp_path / "optimize.json"
        cfg.write_text(config_text())
        out = tmp_path / "out"
        argv = [command, "--seed", "-1", "--out", str(out)]
        if command == "optimize":
            argv += ["--config", str(cfg)]
        assert main(argv) == 3
        assert capsys.readouterr().err == ("validation error: --seed must be "
                                           "a whole number of at least 0, "
                                           "got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("output_dir", [None, 7, ["a", 1]])
    def test_non_string_output_dir_exit_3(self, tmp_path, capsys,
                                          monkeypatch, output_dir):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "solve.json"
        cfg.write_text(config_text(output_dir=output_dir))
        assert main(["solve", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"validation error: output_dir must be a string, got "
            f"{output_dir!r}\n")
        assert sorted(os.listdir(tmp_path)) == ["solve.json"]

    def test_solver_family_exit_3_on_inadmissible_explicit(self, tmp_path):
        # explicit all-negative weight passes parsing, fails admissibility
        doc = json.loads(config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [8]},
            weight={"kind": "explicit", "values": [-1.0] * 8}))
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(bad), "--quiet",
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("section,solver", [
        ("solve", "lanczos"), ("solve", "power"), ("optimize", "power")])
    def test_unknown_solver_exit_3(self, tmp_path, capsys, section, solver):
        cfg = tmp_path / "solver.json"
        cfg.write_text(config_text(**{section: {"solver": solver}}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{section}.solver" in err and "dense, iterative" in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_explicit_weight_exit_3(self, tmp_path, capsys, bad):
        # JSON as written by Python accepts NaN and Infinity literals
        cfg = tmp_path / "nan.json"
        cfg.write_text(config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16]},
            weight={"kind": "explicit",
                    "values": [1.0, 1.0, bad] + [-2.0] * 13}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["solve", "optimize", "rearrange", "simulate"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_extents_exit_3(self, tmp_path, capsys, command, bad):
        cfg = tmp_path / "extents.json"
        cfg.write_text(config_text(
            domain={"type": "interval", "extents": [bad], "shape": [16]}))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "extents" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["solve", "optimize", "rearrange", "simulate"])
    @pytest.mark.parametrize("extents", [
        [2.0, 1e308],  # spacing^2 overflows
        [1e-200, 1.0],  # spacing^2 underflows
        [1e-170, 1e-170],  # so do spacing^2 and the cell measure
    ])
    def test_extents_out_of_range_exit_3(self, tmp_path, capsys, command,
                                         extents):
        cfg = tmp_path / "extents.json"
        cfg.write_text(config_text(
            domain={"type": "rectangle", "extents": extents,
                    "shape": [8, 8]}))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "extents" in err and "finite and positive" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
    @pytest.mark.parametrize("extents,shape", [
        ([6.4e151, 2e-100, 2e-100], [64, 2, 2]),  # x1 face weight underflows
        ([2e-150, 2e150, 2e150], [4, 2, 2]),  # x1 face weight overflows
    ])
    def test_face_weight_out_of_range_exit_3(self, tmp_path, capsys, extents,
                                             shape, solver):
        # every squared spacing, the cell measure and the volume are finite
        # and positive; the solvers once ended in an ARPACK error, an
        # IndexError or a failed Cholesky factorization
        cfg = tmp_path / "faces.json"
        cfg.write_text(config_text(
            domain={"type": "box", "extents": extents, "shape": shape},
            solve={"solver": solver}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "axis 0" in err and "face weight" in err
        assert not (tmp_path / "out").exists()

    def test_macro_step_overflow_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "steps.json"
        cfg.write_text(config_text(simulate=dict(
            BASE_CONFIG["simulate"], dt=1e-300, t_end=1e10)))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "t_end / dt" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gamma", "dt", "t_end", "v0", "v0[1]"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_simulate_input_exit_3(self, tmp_path, capsys, key,
                                              bad):
        simulate = dict(BASE_CONFIG["simulate"])
        if key == "v0[1]":
            simulate["v0"] = [0.01, bad] + [0.01] * 62
        else:
            simulate[key] = bad
        cfg = tmp_path / "simulate.json"
        cfg.write_text(config_text(simulate=simulate))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "finite" in capsys.readouterr().err

    def test_overflowed_stability_guard_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "gamma.json"
        cfg.write_text(config_text(
            simulate=dict(BASE_CONFIG["simulate"], gamma=1e308)))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith(
            "solver error: stability guard needs inf")

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
    def test_positive_part_lost_to_rounding_exit_4_everywhere(
            self, tmp_path, capsys, solver):
        # 1e-100 on any one of 64 cells against -1 elsewhere: mu1 is far
        # below the pencil's rounding level wherever the cell lies
        for cell in range(64):
            values = [-1.0] * 64
            values[cell] = 1e-100
            cfg = tmp_path / f"tiny{cell}.json"
            cfg.write_text(config_text(
                weight={"kind": "explicit", "values": values},
                solve={"solver": solver}))
            out = tmp_path / f"out{cell}"
            assert main(["solve", "--config", str(cfg),
                         "--out", str(out)]) == 4, cell
            assert not (out / "eigenpair.json").exists()
        capsys.readouterr()

    def test_positive_part_lost_to_rounding_exit_4(self, tmp_path, capsys):
        # 1e-100 on one cell against -1 elsewhere: the dense pencil's mu1
        # comes out negative, which is no lambda1 to write
        values = [-1.0] * 64
        values[4] = 1e-100
        cfg = tmp_path / "tiny.json"
        cfg.write_text(config_text(
            weight={"kind": "explicit", "values": values},
            solve={"solver": "dense"}))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 4
        assert "mu1 = -" in capsys.readouterr().err
        assert not (out / "eigenpair.json").exists()

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    def test_overflowing_initial_density_exit_3(self, tmp_path, capsys,
                                                gamma):
        cfg = tmp_path / "v0.json"
        cfg.write_text(config_text(
            simulate=dict(BASE_CONFIG["simulate"], gamma=gamma, v0=1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert "initial density" in capsys.readouterr().err

    def test_overflowing_substep_exit_3(self, tmp_path, capsys):
        # passes the input checks, then v0 / dt_sub overflows in the step
        cfg = tmp_path / "v0.json"
        cfg.write_text(config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16]},
            simulate=dict(BASE_CONFIG["simulate"], gamma=0.0, dt=0.05,
                          v0=1e307)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "initial density" in err and "substep length 0.05" in err

    def test_extreme_scale_spectrum_exit_0(self, tmp_path):
        # |W m|^2 overflows at 1e200 and underflows at 1e-200 unless the
        # spectrum rescales the weight
        def spectrum(scale, out):
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(config_text(
                weight={"kind": "bang_bang", "positive_value": scale,
                        "negative_value": -2.0 * scale,
                        "positive_fraction": 0.25},
                solve={"spectrum": 3}))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["solve", "--config", str(cfg), "--quiet",
                             "--out", str(tmp_path / out)]) == 0
            rows = (tmp_path / out / "spectrum.csv").read_text().splitlines()
            return np.array([[float(v) for v in row.split(",")[1:]]
                             for row in rows[1:]])

        unit = spectrum(1.0, "unit")
        for scale in (1e200, 1e-200):
            np.testing.assert_allclose(spectrum(scale, f"{scale:g}"),
                                       scale * unit, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("extents,code", [
        ([1e-100, 1e-100], 0),  # |W m|^2 underflows in the reflector
        ([1e100, 1e100], 0),  # and overflows
        ([1e-150, 1e150], 4),  # the restricted stiffness fails Cholesky
    ])
    def test_extreme_extents_dense_solve(self, tmp_path, capsys, extents,
                                         code):
        def lambda1(extents, out):
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(config_text(
                domain={"type": "rectangle", "extents": extents,
                        "shape": [8, 4]}))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["solve", "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == code
            if code == 0:
                pair = json.loads(
                    (tmp_path / out / "eigenpair.json").read_text())
                return pair["lambda1"]
            return None

        scaled = lambda1(extents, "scaled")
        if code == 0:
            # lambda1 scales like 1 / L^2 on a square of side L
            assert scaled * extents[0] ** 2 == pytest.approx(
                lambda1([1.0, 1.0], "unit"), rel=1e-12)
        else:
            err = capsys.readouterr().err
            assert err.startswith("solver error: Cholesky factorization")

    def test_shape_over_cell_cap_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "shape.json"
        cfg.write_text(config_text(
            domain={"type": "box", "extents": [1.0, 1.0, 1.0],
                    "shape": [10**6, 10**6, 10**6]}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: grid of shape")
        assert "cap" in err and not (tmp_path / "out").exists()

    def test_fractional_shape_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "shape.json"
        cfg.write_text(config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16.7]}))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "whole numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["positive_value", "negative_value",
                                     "positive_fraction", "values"])
    def test_non_numeric_weight_exit_3(self, tmp_path, capsys, key):
        weight = dict(BASE_CONFIG["weight"])
        if key == "values":
            weight = {"kind": "explicit", "values": [1.0, "one"] + [-2.0] * 62}
        else:
            weight[key] = "one"
        cfg = tmp_path / "weight.json"
        cfg.write_text(config_text(weight=weight))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"weight.{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,key", [
        ("solve", "weight", "values"),
        ("solve", "weight", "positive_value"),
        ("simulate", "simulate", "gamma"),
        ("solve", "solve", "tol"),
    ])
    def test_integer_beyond_float_range_exit_3(self, tmp_path, capsys,
                                               command, section, key):
        doc = json.loads(config_text())
        huge = 10 ** 400
        if key == "values":
            doc["weight"] = {"kind": "explicit",
                             "values": [huge] + [-2.0] * 63}
        else:
            doc.setdefault(section, {})[key] = huge
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            f"validation error: {section}.{key} must be a number in float "
            f"range, got a 1329-bit integer")

    @pytest.mark.parametrize("command,key", [("solve", "weight.values"),
                                             ("simulate", "simulate.v0")])
    @pytest.mark.parametrize("entry,code,message", [
        (None, 3, "must be a number, got None"),
        ([1.0], 3, "must be a number, got [1.0]"),
        ("x", 3, "must be a number, got 'x'"),
        (10 ** 400, 3,
         "must be a number in float range, got a 1329-bit integer"),
        (True, 3, "must be a number, got True"),
    ])
    def test_list_entry_messages(self, tmp_path, capsys, command, key,
                                 entry, code, message):
        doc = json.loads(config_text())
        if key == "weight.values":
            doc["weight"] = {"kind": "explicit",
                             "values": [1.0, entry] + [-2.0] * 62}
        else:
            doc["simulate"]["v0"] = [0.01, entry] + [0.01] * 62
        cfg = tmp_path / "entry.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err \
            == f"validation error: {key} {message}\n"

    def test_integer_past_digit_limit_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "digits.json"
        cfg.write_text(config_text().replace(
            '"positive_value": 1.0', '"positive_value": 1' + "0" * 5000))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "digits" in capsys.readouterr().err

    def test_solver_error_in_worker_exit_4(self, tmp_path, capsys,
                                           monkeypatch):
        parent = os.getpid()

        def fails_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise errors.SingularSystem("raised in a worker")
            return principal_eigenpair(*args, **kwargs)

        monkeypatch.setattr("eigenweight.optimize._usable_cpus", lambda: 2)
        monkeypatch.setattr("eigenweight.optimize.principal_eigenpair",
                            fails_in_worker)
        cfg = tmp_path / "optimize.json"
        cfg.write_text(config_text())
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == \
            "solver error: raised in a worker\n"

    @pytest.mark.parametrize("key", ["v0", "v0[1]", "gamma", "dt", "t_end"])
    def test_non_numeric_simulate_input_exit_3(self, tmp_path, capsys, key):
        simulate = dict(BASE_CONFIG["simulate"])
        if key == "v0[1]":
            simulate["v0"] = [0.01, "x"] + [0.01] * 62
        else:
            simulate[key] = "x"
        cfg = tmp_path / "simulate.json"
        cfg.write_text(config_text(simulate=simulate))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        name = key.removesuffix("[1]")
        assert f"simulate.{name} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,key,bad", [
        ("solve", "solve", "tol", "x"),
        ("solve", "solve", "tol", np.nan),
        ("solve", "solve", "spectrum", "x"),
        ("solve", "solve", "dump_stiffness", "false"),
        ("optimize", "optimize", "max_iters", "x"),
        ("optimize", "optimize", "restarts", 0),
        ("solve", "weight", "values", 5),
        ("rearrange", "rearrange", "direction", "sideways"),
        ("rearrange", "rearrange", "stripes", ["x"]),
        ("rearrange", "rearrange", "stripes", [2.5]),
    ])
    def test_bad_section_value_exit_3(self, tmp_path, capsys, command,
                                      section, key, bad):
        spec = {"kind": "explicit"} if section == "weight" \
            else dict(BASE_CONFIG.get(section, {}))
        spec[key] = bad
        cfg = tmp_path / "bad.json"
        cfg.write_text(config_text(**{section: spec}))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("restarts", [MAX_RESTARTS + 1, 2 ** 70])
    def test_restarts_above_cap_exit_3(self, tmp_path, capsys, restarts):
        cfg = tmp_path / "restarts.json"
        cfg.write_text(config_text(optimize=dict(
            BASE_CONFIG["optimize"], restarts=restarts)))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"optimize.restarts must be at most {MAX_RESTARTS}" in err
        assert not (tmp_path / "out").exists()

    def test_restarts_at_cap_accepted(self):
        config = parse_config(config_text(optimize=dict(
            BASE_CONFIG["optimize"], restarts=MAX_RESTARTS)))
        assert config.optimize["restarts"] == MAX_RESTARTS

    @pytest.mark.parametrize("section,key", [
        (None, "solv"), ("domain", "size"), ("weight", "value"),
        ("solve", "tolerance"), ("optimize", "solvr"),
        ("rearrange", "stripe"), ("simulate", "gama")])
    def test_unknown_key_exit_3(self, tmp_path, capsys, section, key):
        doc = json.loads(config_text())
        (doc if section is None else doc.setdefault(section, {}))[key] = 1
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in {section or 'config'}" in err
        assert "allowed keys: " in err

    def test_misspelled_optimize_keys_exit_3(self, tmp_path, capsys):
        # once ran silently with one restart and the dense solver
        doc = json.loads(config_text(
            optimize={"restart": 8, "solvr": "iterative"}))
        doc["solv"] = {}
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()
        assert "'solv'" in capsys.readouterr().err

    def test_weight_key_of_other_kind_exit_3(self, tmp_path, capsys):
        weight = dict(BASE_CONFIG["weight"], values=[1.0] * 64)
        cfg = tmp_path / "mixed.json"
        cfg.write_text(config_text(weight=weight))
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "unknown key 'values' in weight" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "measure,value\n1.0,0.25\n-2.0,0.75\n",
        "value,measure\none,0.25\n-2.0,0.75\n",
        "value,measure\n1.0,0.25,7\n",
        # a negative measure in a profile whose measures still sum to 1
        "value,measure\n1.0,-0.5\n1.0,0.5\n-2.0,1.0\n",
        "value,measure\nnan,0.25\n-2.0,0.75\n",
        "value,measure\n1.0,0.25\n-inf,0.75\n",
        "value,measure\n1.0,inf\n-2.0,0.75\n",
        "value,measure\n1.0,0.0\n1.0,0.25\n-2.0,0.75\n"])
    def test_bad_profile_file_exit_3(self, tmp_path, capsys, content):
        profile = tmp_path / "profile.csv"
        if content is not None:
            profile.write_text(content)
        cfg = tmp_path / "profile.json"
        cfg.write_text(config_text(
            domain={"type": "interval", "extents": [1.0], "shape": [16]},
            weight={"kind": "profile", "path": str(profile)}))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"weight.path {str(profile)!r}" in capsys.readouterr().err

    def test_solve_ok_exit_0(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(config_text())
        assert main(["solve", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "out")]) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats()),
                max_size=40))
def test_number_list_converts_like_the_entry_loop(raw):
    one_call = _numbers(raw, "weight.values")
    loop = np.array([_number(v, "weight.values") for v in raw], dtype=float)
    assert one_call.dtype == loop.dtype and one_call.shape == loop.shape
    assert one_call.tobytes() == loop.tobytes()


#: the exit code of every error class of the package
EXIT_CODES = {
    "ParseError": 2,
    "ValidationError": 3, "InvalidSpec": 3, "LengthMismatch": 3,
    "NotAdmissible": 3, "NoPositivePart": 3, "MeasureMismatch": 3,
    "NotAdmissibleClass": 3, "IndivisibleStripes": 3, "NegativeInitial": 3,
    "ZeroWeightIntegral": 4, "ConstantField": 4, "TooLarge": 4,
    "SingularSystem": 4, "UnstableStep": 4,
    "IterationLimit": 5,
}


def test_every_error_class_has_its_exit_code(tmp_path, monkeypatch):
    leaves = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, errors.EigenweightError)
              and not cls.__subclasses__()}
    assert leaves == set(EXIT_CODES)
    config = parse_config(config_text())
    for name, code in EXIT_CODES.items():
        def fail(*args, exc=getattr(errors, name)):
            raise exc("raised on purpose")
        monkeypatch.setattr("eigenweight.cli._cmd_solve", fail)
        assert execute(config, "solve", out_dir=tmp_path, quiet=True) \
            == code, name


class TestVerifyAndDumps:
    def test_verify_subcommand_passes(self, tmp_path):
        code = main(["verify", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = (tmp_path / "verify_report.txt").read_text()
        assert "FAIL" not in report
        assert all(f"PASS criterion_{i}_" in report for i in range(1, 11))
        assert report.splitlines()[-1] == "10/10 checks passed"

    def test_verify_failure_exit_4(self, tmp_path, monkeypatch):
        def check_fails(rng):
            raise verify.CheckFailed("broken on purpose")

        def check_raises(rng):
            raise ZeroDivisionError("raised on purpose")

        monkeypatch.setattr(verify, "ALL_CHECKS", (check_fails, check_raises))
        assert main(["verify", "--out", str(tmp_path), "--quiet"]) == 4
        assert (tmp_path / "verify_report.txt").read_text().splitlines() == [
            "FAIL fails: broken on purpose",
            "FAIL raises: raised ZeroDivisionError: raised on purpose",
            "0/2 checks passed",
        ]

    def test_iteration_limit_exit_5_with_partial_output(self, tmp_path):
        config = parse_config(config_text(
            optimize={"max_iters": 0, "restarts": 1, "seed": 0}))
        code = execute(config, "optimize", out_dir=tmp_path, quiet=True)
        assert code == 5
        payload = json.loads((tmp_path / "optimization.json").read_text())
        assert payload["converged"] is False
        assert (tmp_path / "final_m.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = parse_config(config_text(
            optimize={"max_iters": 200, "restarts": 3, "seed": 1}))
        execute(config, "optimize", out_dir=tmp_path / "a", quiet=True,
                seed_override=9)
        execute(config, "optimize", out_dir=tmp_path / "b", quiet=True,
                seed_override=9)
        a = (tmp_path / "a/final_m.csv").read_bytes()
        b = (tmp_path / "b/final_m.csv").read_bytes()
        assert a == b

    def test_debug_dumps(self, tmp_path):
        config = parse_config(config_text(
            solve={"dump_stiffness": True, "spectrum": 4}))
        code = execute(config, "solve", out_dir=tmp_path, quiet=True)
        assert code == 0
        assert (tmp_path / "stiffness.txt").read_text().startswith("0 0 ")
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "k,mu_positive,mu_negative"
        assert len(spectrum) == 5
