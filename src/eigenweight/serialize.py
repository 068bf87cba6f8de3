"""Plain-text serialization of fields, profiles, traces and matrices.

Field CSVs carry a header comment with the grid layout and one row per
first-axis line, so 2D files open directly as heatmap matrices.  Floats
are written with ``repr`` of the Python float for exact round-trips.  One
row formatter, ``_csv_rows``, writes the rows of every field and
trajectory CSV, so each file has the bytes a per-value ``repr(float(v))``
would give, whichever way the formatter converts the array.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import zip_longest

import numpy as np

from .errors import ParseError
from .grid import Grid
from .logistic import Trajectory
from .optimize import OptimizationResult
from .rearrange import RearrangementClass
from .spectral import EigenPair, SignedSpectrum

#: an array with at most this share of distinct values is written from a
#: table that formats each distinct value once
TABLE_SHARE = 1 / 8


def _csv_rows(array: np.ndarray):
    """One comma-separated, newline-terminated text row per row of a 2-D
    float array, each entry written as ``repr`` of the Python float.

    Weights, minimizers and stripe fields hold a handful of values, and
    for them each distinct value is formatted once.  Distinct values are
    told apart by their bit patterns, so 0.0 and -0.0 keep their own text.
    """
    array = np.ascontiguousarray(array, dtype=float)
    bits, inverse = np.unique(array.ravel().view(np.uint64),
                              return_inverse=True)
    if bits.size > TABLE_SHARE * array.size:
        for row in array:
            yield ",".join(map(repr, row.tolist())) + "\n"
        return
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    for row in table[inverse.reshape(array.shape)]:
        yield ",".join(row.tolist()) + "\n"


def write_field_csv(path, values: np.ndarray, grid: Grid) -> None:
    """Write a cell field, one row per first-axis line."""
    lines = grid.lines(values)
    shape = ",".join(str(n) for n in grid.shape)
    extents = ",".join(repr(float(L)) for L in grid.extents)
    with open(path, "w") as fh:
        fh.write(f"# dim={grid.dim} shape={shape} extents={extents}\n")
        fh.writelines(_csv_rows(lines))


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
    """Read (value, measure) rows; raises ParseError naming the row when a
    value is not finite or a measure not finite and positive."""
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
            value, measure = float(toks[0]), float(toks[1])
            if not (np.isfinite(value) and 0.0 < measure < np.inf):
                raise ParseError(f"{path}: profile row {i} needs a finite "
                                 f"value and a finite positive measure")
            pairs.append((value, measure))
    return pairs


def write_trajectory_csv(path, traj: Trajectory) -> None:
    with open(path, "w") as fh:
        fh.write("time,total_mass,min_v,max_v\n")
        fh.writelines(_csv_rows(np.column_stack(
            (traj.times, traj.total_mass, traj.min_v, traj.max_v))))


def write_stiffness_coo(path, entries) -> None:
    """Debug dump: one 'row col value' triple per stored entry."""
    coo = entries.tocoo()
    with open(path, "w") as fh:
        fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in zip(
            coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


def write_spectrum_csv(path, spectrum: SignedSpectrum) -> None:
    """Positive/negative eigenvalue lists side by side, blank when absent."""
    with open(path, "w") as fh:
        fh.write("k,mu_positive,mu_negative\n")
        columns = (map(repr, mu.tolist())
                   for mu in (spectrum.positive, spectrum.negative))
        fh.writelines(f"{k},{pos},{neg}\n" for k, (pos, neg) in enumerate(
            zip_longest(*columns, fillvalue=""), start=1))


def write_json(path, payload: dict) -> None:
    """Deterministic JSON (sorted keys) plus a timestamp field.

    The timestamp is the only field excluded from byte-identity
    comparisons between runs.
    """
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
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
        "halvings": pair.stats.halvings,
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
