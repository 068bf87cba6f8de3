"""Config-driven batch front door.

One JSON config fully determines a run; subcommands dispatch to the
library and write result artifacts (JSON + CSV) into the output
directory.  Identical config and seed produce byte-identical outputs up
to the timestamp field inside JSON files.

Exit codes: 0 ok, 2 parse error, 3 invalid input (``errors.InputError``,
or an output directory that cannot be made), 4 solver error
(``errors.SolverError``), 5 iteration limit.  Each command computes every
result before it writes its first file, so a failed command writes
nothing, except that an optimize at ``max_iters`` writes its partial
result and a verify whose check fails writes its full report; a stopped
ARPACK run writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import errors
from .grid import Grid, build_grid
from .logistic import simulate_logistic
from .optimize import minimize_lambda1, oscillating_arrangement
from .rearrange import (
    RearrangementClass,
    decreasing_rearrangement,
    monotone_x1_rearrangement,
)
from .serialize import (
    eigenpair_payload,
    optimization_payload,
    read_profile_csv,
    write_field_csv,
    write_json,
    write_profile_csv,
    write_spectrum_csv,
    write_stiffness_coo,
    write_trajectory_csv,
)
from .spectral import (
    SOLVERS,
    principal_eigenpair,
    signed_spectrum,
    weight_field,
)
from .verify import format_report, run_all_checks

CONFIG_VERSION = 1

COMMANDS = ("solve", "optimize", "rearrange", "simulate", "verify")

#: most restarts one optimize may ask for; each restart runs its own sweeps
MAX_RESTARTS = 10_000

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_ITERATION_LIMIT = 5

#: the four disjoint error families: (family, exit code, label)
_EXIT_CODES = (
    (errors.ParseError, EXIT_PARSE, "parse error"),
    (errors.InputError, EXIT_VALIDATION, "validation error"),
    (errors.SolverError, EXIT_SOLVER, "solver error"),
    (errors.IterationLimit, EXIT_ITERATION_LIMIT, "iteration limit"),
)


def _exit_code(exc: errors.EigenweightError, quiet: bool) -> int:
    """Report a package error on stderr and return its family's exit code."""
    for family, code, label in _EXIT_CODES:
        if isinstance(exc, family):
            if not quiet:
                print(f"{label}: {exc}", file=sys.stderr)
            return code
    raise exc


@dataclass(eq=False)
class RunConfig:
    """Validated run description parsed from a config document.

    ``grid`` is the domain and ``values`` the weight's cell values on it,
    both built once by ``parse_config``, which also fills each option
    section with every key it reads, typed and checked.
    """

    grid: Grid
    values: np.ndarray
    solve: dict = field(default_factory=dict)
    optimize: dict = field(default_factory=dict)
    rearrange: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    output_dir: str = "out"


#: the JSON kind each Python type stands for in a type error's message
_KINDS = {dict: "an object", list: "a list", bool: "true or false",
          str: "a string"}


def _typed(value, key: str, kind: type):
    """``value`` if it is a ``kind``, or a ValidationError naming the key
    and the JSON kind."""
    if not isinstance(value, kind):
        raise errors.ValidationError(
            f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in _typed(mapping, context, dict):
        raise errors.ParseError(f"missing key {key!r} in {context}")
    return mapping[key]


def _number(value, key: str) -> float:
    """float(value), or a ValidationError naming the config key; a JSON
    true or false is not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError) as exc:
        raise errors.ValidationError(
            f"{key} must be a number, got {value!r}") from exc
    except OverflowError as exc:  # an integer literal beyond float range
        raise errors.ValidationError(
            f"{key} must be a number in float range, got a "
            f"{value.bit_length()}-bit integer") from exc


def _integer(value, key: str, minimum: int, maximum=None) -> int:
    """A whole number in [minimum, maximum], or a ValidationError; an int
    stays exact, a whole float such as 16.0 converts, and a bool is
    refused by ``_number``."""
    number = value if type(value) is int else _number(value, key)
    if not (number % 1 == 0 and number >= minimum):
        raise errors.ValidationError(
            f"{key} must be a whole number of at least {minimum}, "
            f"got {value!r}")
    if maximum is not None and number > maximum:
        raise errors.ValidationError(
            f"{key} must be at most {maximum}, got {value!r}")
    return int(number)


def _tolerance(value, key: str) -> float:
    tol = _number(value, key)
    if not 0.0 <= tol < np.inf:
        raise errors.ValidationError(
            f"{key} must be finite and nonnegative, got {value!r}")
    return tol


def _choice(value, key: str, allowed: tuple):
    if value not in allowed:
        raise errors.ValidationError(
            f"{key} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _numbers(values: list, key: str) -> np.ndarray:
    """The list as a float array, or a ValidationError naming the config
    key at the first entry that is not a number.

    A list of plain ints and floats converts in one numpy call; any other
    list, or one numpy rejects, goes entry by entry through ``_number``,
    so the error is the one that entry gives on its own (numpy would turn
    a null into NaN).
    """
    if set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, dtype=float)
        except (OverflowError, ValueError, TypeError):
            pass
    return np.array([_number(v, key) for v in values], dtype=float)


def _v0(value, key: str):
    """One initial density for every cell, or an array with one per cell."""
    if isinstance(value, list):
        return _numbers(value, key)
    return _number(value, key)


def _stripes(value, key: str) -> list:
    return [_integer(k, key, 1) for k in _typed(value, key, list)]


#: option section -> key -> (default, converter(value, "section.key"))
_OPTIONS = {
    "solve": {
        "solver": ("dense", partial(_choice, allowed=SOLVERS)),
        "tol": (1e-12, _tolerance),
        "spectrum": (0, partial(_integer, minimum=0)),
        "dump_stiffness": (False, partial(_typed, kind=bool)),
    },
    "optimize": {
        "solver": ("dense", partial(_choice, allowed=SOLVERS)),
        "tol": (1e-12, _tolerance),
        "max_iters": (200, partial(_integer, minimum=0)),
        "restarts": (1, partial(_integer, minimum=1, maximum=MAX_RESTARTS)),
        "seed": (0, partial(_integer, minimum=0)),
    },
    "rearrange": {
        "direction": ("decreasing", partial(
            _choice, allowed=("decreasing", "increasing"))),
        "stripes": ([], _stripes),
    },
    "simulate": {
        "v0": (0.01, _v0),
        "gamma": (1.0, _number),
        "dt": (0.01, _number),
        "t_end": (10.0, _number),
    },
}

#: the keys of a config document and of its domain and weight objects
_CONFIG_KEYS = ("version", "domain", "weight", *_OPTIONS, "output_dir")
_DOMAIN_KEYS = ("type", "extents", "shape")
_WEIGHT_KEYS = {
    "bang_bang": ("positive_value", "negative_value", "positive_fraction"),
    "explicit": ("values",),
    "profile": ("path",),
}


def _closed(spec, context: str, allowed) -> dict:
    """``spec``, checked to be an object with no key outside ``allowed``."""
    unknown = sorted(set(_typed(spec, context, dict)) - set(allowed))
    if unknown:
        raise errors.ValidationError(
            f"unknown key {unknown[0]!r} in {context}; allowed keys: "
            f"{', '.join(allowed)}")
    return spec


def _options(doc: dict, name: str) -> dict:
    """The option section ``name``, every key typed, defaults filled in."""
    table = _OPTIONS[name]
    spec = _closed(doc.get(name, {}), name, table)
    return {key: convert(spec.get(key, default), f"{name}.{key}")
            for key, (default, convert) in table.items()}


def _read_profile(path) -> list:
    """The (value, measure) rows of a profile CSV, or a ValidationError
    naming the path."""
    _typed(path, "weight.path", str)
    try:
        return read_profile_csv(path)
    except (OSError, ValueError, errors.ParseError) as exc:
        raise errors.ValidationError(
            f"weight.path {path!r} is not a readable profile: {exc}") from exc


def _weight_values(weight, grid: Grid) -> np.ndarray:
    """The cell values of the weight object on ``grid``, every key
    checked."""
    kind = _choice(_require(weight, "kind", "weight"), "weight.kind",
                   tuple(_WEIGHT_KEYS))
    _closed(weight, "weight", ("kind", *_WEIGHT_KEYS[kind]))
    if kind == "bang_bang":
        pos, neg, frac = (
            _number(_require(weight, key, "weight"), f"weight.{key}")
            for key in _WEIGHT_KEYS["bang_bang"])
        if not 0.0 < frac < 1.0:
            raise errors.ValidationError(
                f"positive_fraction must lie in (0, 1), got {frac}")
        if pos <= 0 or neg >= 0:
            raise errors.ValidationError(
                "bang-bang values must satisfy positive_value > 0 > "
                "negative_value")
        if not np.isfinite([pos, neg, frac]).all():
            raise errors.ValidationError("bang-bang values must be finite")
        n_pos = int(round(frac * grid.n_cells))
        n_pos = min(max(n_pos, 1), grid.n_cells - 1)
        values = np.full(grid.n_cells, neg)
        values[:n_pos] = pos
        return values
    if kind == "explicit":
        values = _numbers(_typed(_require(weight, "values", "weight"),
                                 "weight.values", list), "weight.values")
        if not np.isfinite(values).all():
            raise errors.ValidationError(
                "explicit weight values must be finite")
        if values.size != grid.n_cells:
            raise errors.ValidationError(
                f"explicit weight has {values.size} values, grid has "
                f"{grid.n_cells} cells")
        return values
    pairs = _read_profile(_require(weight, "path", "weight"))
    cls = RearrangementClass(
        profile=tuple(sorted(pairs, key=lambda p: -p[0])),
        total_measure=float(sum(s for _, s in pairs)),
        source_integral=float(sum(v * s for v, s in pairs)),
    )
    return cls.cell_values(grid)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Structural problems (malformed JSON, missing keys, wrong version)
    raise ParseError with the offending line or key; value problems raise
    an InputError naming the violated precondition (InvalidSpec from
    ``build_grid`` for the domain, ValidationError naming the key for the
    rest).  Every object is closed: a key it does not define is a
    ValidationError naming the key and the allowed ones.  Every section
    comes back complete, defaults filled in and values typed, so the
    commands convert nothing.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise errors.ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise errors.ParseError("config root must be an object")
    version = _require(doc, "version", "config")
    if version != CONFIG_VERSION:
        raise errors.ParseError(
            f"unsupported config version {version!r}, expected "
            f"{CONFIG_VERSION}")
    _closed(doc, "config", _CONFIG_KEYS)

    domain = _closed(_require(doc, "domain", "config"), "domain",
                     _DOMAIN_KEYS)
    grid = build_grid(_require(domain, "type", "domain"),
                      _require(domain, "extents", "domain"),
                      _require(domain, "shape", "domain"))

    return RunConfig(
        grid=grid,
        values=_weight_values(_require(doc, "weight", "config"), grid),
        **{name: _options(doc, name) for name in _OPTIONS},
        output_dir=_typed(doc.get("output_dir", "out"), "output_dir", str),
    )


def _cmd_solve(config: RunConfig, out: Path) -> int:
    grid = config.grid
    m = weight_field(grid, config.values)
    opts = config.solve
    pair = principal_eigenpair(m, solver=opts["solver"], tol=opts["tol"])
    spectrum = signed_spectrum(m, opts["spectrum"]) \
        if opts["spectrum"] > 0 else None
    stiffness = grid.stiffness if opts["dump_stiffness"] else None
    write_json(out / "eigenpair.json",
               {**eigenpair_payload(pair), "n_cells": grid.n_cells})
    write_field_csv(out / "u.csv", pair.u, grid)
    if stiffness is not None:
        write_stiffness_coo(out / "stiffness.txt", stiffness)
    if spectrum is not None:
        write_spectrum_csv(out / "spectrum.csv", spectrum)
    return EXIT_OK


def _cmd_optimize(config: RunConfig, out: Path, seed_override) -> int:
    grid = config.grid
    cls = decreasing_rearrangement(config.values, grid)
    opts = config.optimize
    seed = opts["seed"] if seed_override is None else int(seed_override)
    result = minimize_lambda1(
        cls, grid,
        max_iters=opts["max_iters"],
        tol=opts["tol"],
        restarts=opts["restarts"],
        seed=seed,
        solver=opts["solver"],
    )
    write_json(out / "optimization.json", optimization_payload(result))
    write_field_csv(out / "final_m.csv", result.final_m, grid)
    write_field_csv(out / "final_u.csv", result.final_pair.u, grid)
    return EXIT_OK if result.converged else EXIT_ITERATION_LIMIT


def _cmd_rearrange(config: RunConfig, out: Path) -> int:
    grid, values = config.grid, config.values
    direction = config.rearrange["direction"]
    cls = decreasing_rearrangement(values, grid)
    monotone = monotone_x1_rearrangement(values, grid, direction)
    stripes = {k: oscillating_arrangement(cls, grid, k)
               for k in config.rearrange["stripes"]}
    write_profile_csv(out / "profile.csv", cls)
    write_field_csv(out / "monotone_m.csv", monotone, grid)
    for k, stripe in stripes.items():
        write_field_csv(out / f"oscillating_k{k}.csv", stripe, grid)
    return EXIT_OK


def _cmd_simulate(config: RunConfig, out: Path) -> int:
    grid = config.grid
    m = weight_field(grid, config.values)
    opts = config.simulate
    v0 = opts["v0"] if isinstance(opts["v0"], np.ndarray) \
        else np.full(grid.n_cells, opts["v0"])
    traj = simulate_logistic(m, gamma=opts["gamma"], v0=v0, dt=opts["dt"],
                             t_end=opts["t_end"])
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_field_csv(out / "final_v.csv", traj.final_v, grid)
    write_json(out / "simulation.json", {
        "outcome": traj.outcome,
        "final_mass": float(traj.total_mass[-1]),
        "clamp_events": traj.clamp_events,
        "substeps": traj.substeps,
        "distinct_substep_lengths": traj.distinct_substep_lengths,
    })
    return EXIT_OK


def _cmd_verify(out: Path, seed: int, quiet: bool) -> int:
    results = run_all_checks(seed=seed)
    report = format_report(results)
    (out / "verify_report.txt").write_text(report)
    if not quiet:
        sys.stdout.write(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SOLVER


def _out_dir(path, key: str) -> Path:
    """``path``, made a directory with its parents, or a ValidationError
    naming the path."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise errors.ValidationError(
            f"{key} {str(path)!r} is not a directory that can be made: "
            f"{exc}") from exc
    return Path(path)


def execute(config: RunConfig | None, command: str, out_dir=None,
            seed_override=None, quiet: bool = False) -> int:
    """Dispatch one subcommand; returns the process exit code.

    ``verify`` reads no config, so it may run with ``config=None`` when
    ``out_dir`` is given.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    try:
        out = _out_dir(out_dir, "--out") if out_dir is not None \
            else _out_dir(config.output_dir, "output_dir")
        if command == "solve":
            return _cmd_solve(config, out)
        if command == "optimize":
            return _cmd_optimize(config, out, seed_override)
        if command == "rearrange":
            return _cmd_rearrange(config, out)
        if command == "simulate":
            return _cmd_simulate(config, out)
        seed = 0 if seed_override is None else int(seed_override)
        return _cmd_verify(out, seed, quiet)
    except errors.EigenweightError as exc:
        return _exit_code(exc, quiet)


def _read_config(path: str) -> str:
    """The text of the config file, or a ValidationError naming the path."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ValidationError(
            f"--config {path!r} is not a readable file: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigenweight",
        description="Principal eigenvalues with sign-changing weights: "
                    "solve, optimize, rearrange, simulate, verify.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to the JSON run config "
                        "(required except for verify)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for optimize/verify")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.config is None and args.command != "verify":
        parser.error("--config is required for this command")
    try:
        if args.seed is not None:
            _integer(args.seed, "--seed", minimum=0)
        config = None if args.config is None \
            else parse_config(_read_config(args.config))
    except errors.EigenweightError as exc:
        return _exit_code(exc, args.quiet)
    if config is None and args.out is None:
        args.out = "out"

    code = execute(config, args.command, out_dir=args.out,
                   seed_override=args.seed, quiet=args.quiet)
    if not args.quiet and code == EXIT_OK:
        print(f"{args.command}: ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
