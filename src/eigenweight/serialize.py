"""Plain-text serialization of fields, profiles, traces and matrices.

Field CSVs carry a header comment with the grid layout and one row per
first-axis line, so 2D files open directly as heatmap matrices.  Floats
are written with ``repr`` of the Python float for exact round-trips.
Every float CSV (field, profile and trajectory) goes through one writer,
``_write_csv``, which formats each distinct bit pattern of the array
once, so each file has the bytes a per-value ``repr(float(v))`` would
give and 0.0 and -0.0 keep their own text.  The JSON payloads are read
off the result objects' dataclass fields, so a field added to
``SolveStats`` reaches ``eigenpair.json`` with no edit here.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import zip_longest

import numpy as np

from .errors import ParseError
from .grid import Grid
from .logistic import Trajectory
from .optimize import OptimizationResult
from .rearrange import RearrangementClass
from .spectral import EigenPair, SignedSpectrum


def _write_csv(path, header: str, array) -> None:
    """Write a header line, then one comma-separated row per row of a 2-D
    float array, each entry written as ``repr`` of the Python float.

    Each distinct value is formatted once, told apart by its bit pattern.
    """
    array = np.ascontiguousarray(array, dtype=float)
    bits, inverse = np.unique(array.ravel().view(np.uint64),
                              return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row.tolist()) + "\n"
                      for row in table[inverse.reshape(array.shape)])


def write_field_csv(path, values: np.ndarray, grid: Grid) -> None:
    """Write a cell field, one row per first-axis line."""
    shape = ",".join(str(n) for n in grid.shape)
    extents = ",".join(repr(float(L)) for L in grid.extents)
    _write_csv(path, f"# dim={grid.dim} shape={shape} extents={extents}",
               grid.lines(values))


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
    _write_csv(path, "value,measure", cls.profile)


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
    _write_csv(path, "time,total_mass,min_v,max_v", np.column_stack(
        (traj.times, traj.total_mass, traj.min_v, traj.max_v)))


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
    return {"mu1": pair.mu1, "lambda1": pair.lambda1,
            "residual": pair.residual, **asdict(pair.stats)}


def optimization_payload(result: OptimizationResult) -> dict:
    return {
        "mu1": result.final_pair.mu1,
        "lambda1": result.final_pair.lambda1,
        "residual": result.final_pair.residual,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "solves": result.solves,
        "comonotone_violations": result.comonotone_violations,
        "monotone_x1": asdict(result.monotone_x1),
        "trace": result.trace,
    }
