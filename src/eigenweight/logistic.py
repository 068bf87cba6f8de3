"""Logistic reaction-diffusion with zero-flux boundaries.

Time-steps  v_t = div(grad v) + gamma * v * (m - v)  with an IMEX scheme:
diffusion implicit (unconditionally stable, mass-conserving when gamma is
zero; W/dt + K is diagonal in the DCT basis of ``grid.dct_eigenvalues``,
so each solve is a pointwise division between two transforms) and the
logistic reaction explicit under an adaptive substep guard.
The long-run classification implements the persistence criterion: the
population survives exactly when lambda1(m) < gamma, so total mass either
settles on a positive steady state or decays to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidSpec, NegativeInitial, UnstableStep,
                     ValidationError)
from .grid import as_field, dct_eigenvalues, from_dct, to_dct
from .spectral import WeightField

#: persistence threshold: final mass fraction of |domain| * max(m)+
PERSIST_MASS_FRACTION = 1e-3

#: extinction threshold: final mass fraction of the initial mass
EXTINCT_MASS_FRACTION = 1e-9

#: entries below this before clamping count as genuine clamp events
CLAMP_TOL = -1e-12

_MAX_SUBSTEPS = 1_000_000

#: most macro steps a run may take; each adds one entry to every history
_MAX_STEPS = 1_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded history of one simulation.

    Mass, min and max are recorded per accepted step; ``outcome`` is
    persistent, extinct or undecided per the thresholds above.
    ``clamp_events`` counts entries pushed below CLAMP_TOL by the solver
    (zero in healthy runs) and ``min_pre_clamp`` is the most negative
    value ever seen before clamping.  ``substeps`` counts the substeps of
    all macro steps and ``distinct_substep_lengths`` the distinct values
    of the substep length among them.
    """

    times: np.ndarray
    total_mass: np.ndarray
    min_v: np.ndarray
    max_v: np.ndarray
    outcome: str
    final_v: np.ndarray
    clamp_events: int
    min_pre_clamp: float
    substeps: int
    distinct_substep_lengths: int


def simulate_logistic(m: WeightField, gamma: float, v0, dt: float,
                      t_end: float) -> Trajectory:
    """Run the logistic model to t_end and classify the outcome.

    Each macro step of length dt is split into the smallest number of
    substeps keeping  dt_sub * gamma * (max|m| + 2 max v) < 1,  which
    bounds the explicit reaction and keeps the implicit diffusion solve
    nonnegative; UnstableStep is raised if the guard needs more than
    10^6 substeps, and InvalidSpec if t_end / dt asks for more than 10^6
    macro steps or the initial mass, max|m| + 2 max v0 or a substep's
    right-hand side overflows.
    """
    grid = m.grid
    v = as_field(grid, v0).copy()
    if not np.isfinite(v).all():
        raise ValidationError("initial density must be finite")
    if np.any(v < 0):
        raise NegativeInitial("initial density has negative entries")
    # written so that NaN fails every comparison
    if not (0 < dt < np.inf and 0 < t_end < np.inf):
        raise InvalidSpec(
            f"dt and t_end must be positive and finite, got {dt}, {t_end}")
    steps = t_end / dt - 1e-12
    if not steps < _MAX_STEPS:
        raise InvalidSpec(
            f"t_end / dt = {t_end:g} / {dt:g} asks for {steps:g} macro "
            f"steps, more than {_MAX_STEPS}")
    if not 0 <= gamma < np.inf:
        raise InvalidSpec(
            f"gamma must be nonnegative and finite, got {gamma}")

    w = grid.cell_measure
    m_abs_max = float(np.max(np.abs(m.values)))
    with np.errstate(over="ignore"):
        mass0 = w * float(v.sum())
    if not (mass0 < np.inf and m_abs_max + 2.0 * float(v.max()) < np.inf):
        raise InvalidSpec(
            "initial density is too large: its mass or the stability "
            "guard's max|m| + 2 max v0 overflows")
    n_steps = max(1, int(np.ceil(steps)))  # so every run ends at t_end

    times = [0.0]
    mass = [mass0]
    min_v = [float(v.min())]
    max_v = [float(v.max())]
    clamp_events = 0
    min_pre_clamp = 0.0
    substeps_taken = 0
    lengths = set()

    t = 0.0
    for step in range(n_steps):
        step_dt = min(dt, t_end - t)
        rate = gamma * (m_abs_max + 2.0 * max(float(v.max()), 0.0))
        # compared as a float: an overflowed rate is inf, not an integer
        substeps = step_dt * rate
        if not substeps < _MAX_SUBSTEPS:
            raise UnstableStep(
                f"stability guard needs {substeps:g} substeps at t={t:g}, "
                f"more than {_MAX_SUBSTEPS}")
        n_sub = int(substeps) + 1
        dt_sub = step_dt / n_sub
        substeps_taken += n_sub
        lengths.add(dt_sub)
        symbol = w / dt_sub + dct_eigenvalues(grid)
        for _ in range(n_sub):
            try:  # not checked up front: a short last step shrinks dt_sub
                with np.errstate(over="raise"):
                    rhs = w * (v / dt_sub + gamma * v * (m.values - v))
            except FloatingPointError as exc:
                raise InvalidSpec(f"initial density overflows v / dt_sub at "
                                  f"substep length {dt_sub:g}") from exc
            c = to_dct(grid, rhs)
            c /= symbol
            v = from_dct(grid, c)
            low = float(v.min())
            if low < 0.0:
                min_pre_clamp = min(min_pre_clamp, low)
                if low < CLAMP_TOL:
                    clamp_events += int(np.count_nonzero(v < CLAMP_TOL))
                v = np.maximum(v, 0.0)
        t += step_dt
        times.append(t)
        mass.append(w * float(v.sum()))
        min_v.append(float(v.min()))
        max_v.append(float(v.max()))

    times = np.asarray(times)
    mass = np.asarray(mass)
    outcome = _classify(m, times, mass)
    return Trajectory(
        times=times,
        total_mass=mass,
        min_v=np.asarray(min_v),
        max_v=np.asarray(max_v),
        outcome=outcome,
        final_v=v,
        clamp_events=clamp_events,
        min_pre_clamp=min_pre_clamp,
        substeps=substeps_taken,
        distinct_substep_lengths=len(lengths),
    )


def _classify(m: WeightField, times: np.ndarray, mass: np.ndarray) -> str:
    """Persistent / extinct / undecided from the recorded mass history."""
    if mass[-1] <= EXTINCT_MASS_FRACTION * mass[0]:
        return "extinct"
    threshold = (PERSIST_MASS_FRACTION * m.grid.volume
                 * max(float(m.values.max()), 0.0))
    tail_start = np.searchsorted(times, 0.9 * times[-1])
    tail_start = min(tail_start, len(times) - 2)
    tail = mass[tail_start:]
    stays_up = bool(tail.min() > threshold)
    trend_ok = bool(mass[-1] >= tail[0] - 1e-12 * max(1.0, abs(tail[0])))
    if stays_up and trend_ok:
        return "persistent"
    return "undecided"
