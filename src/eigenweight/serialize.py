"""Plain-text serialization of fields, profiles, traces and matrices.

Field CSVs carry a header comment with the grid layout and one row per
first-axis line, so 2D files open directly as heatmap matrices.  Floats
are written with ``repr`` for exact round-trips.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError
from .grid import Grid
from .logistic import Trajectory
from .optimize import OptimizationResult
from .rearrange import RearrangementClass
from .spectral import EigenPair, SignedSpectrum


def write_field_csv(path, values: np.ndarray, grid: Grid) -> None:
    """Write a cell field, one row per first-axis line."""
    lines = grid.lines(values)
    shape = ",".join(str(n) for n in grid.shape)
    extents = ",".join(repr(float(L)) for L in grid.extents)
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} shape={shape} extents={extents}\n")
        for line in lines:
            fh.write(",".join(repr(float(v)) for v in line) + "\n")


def read_field_csv(path):
    """Read a field CSV back to (values, meta dict with dim/shape/extents)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# dim="):
            raise ParseError(f"{path}: missing field header")
        meta = {}
        for token in header[2:].split():
            key, _, raw = token.partition("=")
            meta[key] = raw
        dim = int(meta["dim"])
        shape = tuple(int(s) for s in meta["shape"].split(","))
        extents = tuple(float(s) for s in meta["extents"].split(","))
        rows = [np.array([float(tok) for tok in line.strip().split(",")])
                for line in fh if line.strip()]
    n1 = shape[0]
    n_lines = int(np.prod(shape)) // n1
    if len(rows) != n_lines:
        raise ParseError(f"{path}: {len(rows)} data rows, expected {n_lines}")
    for i, row in enumerate(rows):
        if row.size != n1:
            raise ParseError(f"{path}: row {i} has {row.size} values, "
                             f"expected {n1}")
    return (np.array(rows, dtype=float).ravel(),
            {"dim": dim, "shape": shape, "extents": extents})


def write_profile_csv(path, cls: RearrangementClass) -> None:
    with open(path, "w") as fh:
        fh.write("value,measure\n")
        for value, measure in cls.profile:
            fh.write(f"{value!r},{measure!r}\n")


def read_profile_csv(path):
    """Read (value, measure) rows; returns the raw profile pairs."""
    pairs = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "value,measure":
            raise ParseError(f"{path}: expected 'value,measure' header")
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            toks = line.strip().split(",")
            if len(toks) != 2:
                raise ParseError(f"{path}: bad profile row {i}")
            pairs.append((float(toks[0]), float(toks[1])))
    return pairs


def write_trajectory_csv(path, traj: Trajectory) -> None:
    with open(path, "w") as fh:
        fh.write("time,total_mass,min_v,max_v\n")
        for row in zip(traj.times, traj.total_mass, traj.min_v, traj.max_v):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_stiffness_coo(path, entries) -> None:
    """Debug dump: one 'row col value' triple per stored entry."""
    coo = entries.tocoo()
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{int(i)} {int(j)} {float(v)!r}\n")


def write_spectrum_csv(path, spectrum: SignedSpectrum) -> None:
    """Positive/negative eigenvalue lists side by side, blank when absent."""
    with open(path, "w") as fh:
        fh.write("k,mu_positive,mu_negative\n")
        rows = max(len(spectrum.positive), len(spectrum.negative))
        for k in range(rows):
            pos = repr(float(spectrum.positive[k])) \
                if k < len(spectrum.positive) else ""
            neg = repr(float(spectrum.negative[k])) \
                if k < len(spectrum.negative) else ""
            fh.write(f"{k + 1},{pos},{neg}\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_json(path, payload: dict) -> None:
    """Deterministic JSON (sorted keys) plus a timestamp field.

    The timestamp is the only field excluded from byte-identity
    comparisons between runs.
    """
    payload = dict(payload)
    payload["timestamp"] = _timestamp()
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def eigenpair_payload(pair: EigenPair) -> dict:
    return {
        "mu1": pair.mu1,
        "lambda1": pair.lambda1,
        "residual": pair.residual,
        "path": pair.stats.path,
        "applies": pair.stats.applies,
        "sigma": pair.stats.sigma,
    }


def optimization_payload(result: OptimizationResult) -> dict:
    return {
        "mu1": result.final_pair.mu1,
        "lambda1": result.final_pair.lambda1,
        "residual": result.final_pair.residual,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "solves": result.solves,
        "comonotone_violations": result.comonotone_violations,
        "monotone_x1": {
            "classification": result.monotone_x1.classification,
            "per_line": list(result.monotone_x1.per_line),
        },
        "trace": [[it, mu, lam, changed]
                  for it, mu, lam, changed in result.trace],
    }
