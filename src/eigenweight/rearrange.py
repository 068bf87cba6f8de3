"""Rearrangement theory on uniform grids.

On a uniform grid every rearrangement class is exactly a multiset of cell
values, so class operations are permutations: the decreasing rearrangement
is a sort, equimeasurability is multiset equality, and the majorization
relation compares prefix sums of sorted values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MeasureMismatch
from .grid import Grid, as_field, integrate

#: slack for prefix-sum and total comparisons (absolute, unit-scale data)
PREC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RearrangementClass:
    """A rearrangement class as a sorted value-measure profile.

    ``profile`` lists (value, measure) pairs with strictly decreasing
    values (equal values merged); measures are positive and sum to the
    domain measure.  On a uniform grid every measure is an integer number
    of cells.
    """

    profile: tuple
    total_measure: float
    source_integral: float

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.profile])

    @property
    def measures(self) -> np.ndarray:
        return np.array([s for _, s in self.profile])

    @property
    def is_admissible(self) -> bool:
        """Negative total integral and some positive value."""
        return self.source_integral < 0 and bool(np.any(self.values > 0))

    def cell_counts(self, grid: Grid) -> np.ndarray:
        """Cells per profile entry on this grid; raises MeasureMismatch."""
        w = grid.cell_measure
        if abs(self.total_measure - grid.volume) > PREC_TOL * max(
                1.0, grid.volume):
            raise MeasureMismatch(
                f"class measure {self.total_measure:g} does not match "
                f"domain measure {grid.volume:g}")
        counts = np.rint(self.measures / w).astype(int)
        if np.any(np.abs(counts * w - self.measures) > PREC_TOL * max(1.0, w)):
            raise MeasureMismatch("class measures are not whole cells")
        if counts.sum() != grid.n_cells:
            raise MeasureMismatch("class does not fill the grid exactly")
        return counts

    def cell_values(self, grid: Grid) -> np.ndarray:
        """All cell values of the class, sorted descending."""
        return np.repeat(self.values, self.cell_counts(grid))


def distribution_function(f, grid: Grid, t: float) -> float:
    """Measure of the superlevel set {f > t}."""
    f = as_field(grid, f)
    return grid.cell_measure * int(np.count_nonzero(f > t))


def decreasing_rearrangement(f, grid: Grid) -> RearrangementClass:
    """Profile of f sorted descending, one cell measure per value.

    The profile's distribution function equals f's, and integrating any
    function of the profile values against the measures reproduces the
    integral over the domain.
    """
    f = as_field(grid, f)
    w = grid.cell_measure
    values, counts = np.unique(f, return_counts=True)
    profile = tuple(
        (float(v), float(c * w)) for v, c in zip(values[::-1], counts[::-1]))
    return RearrangementClass(
        profile=profile,
        total_measure=grid.volume,
        source_integral=integrate(grid, f),
    )


def equimeasurable(f, g, grid: Grid) -> bool:
    """True when f and g are rearrangements of one another (exact values)."""
    f = as_field(grid, f)
    g = as_field(grid, g)
    return bool(np.array_equal(np.sort(f), np.sort(g)))


@dataclass(frozen=True, eq=False)
class MajorizationReport:
    """Outcome of a prefix-sum domination check.

    ``worst_margin`` is the smallest gap between the dominating and
    dominated prefix integrals; the relation holds when the totals match
    and the worst margin is above -PREC_TOL.
    """

    holds: bool
    worst_margin: float
    totals_match: bool


def check_majorization(g, f, grid: Grid) -> MajorizationReport:
    """Check g < f in the majorization order (g averaged from f).

    Compares prefix sums of the decreasing rearrangements: every prefix
    integral of g must stay below the matching prefix of f, with equal
    totals.
    """
    g = as_field(grid, g)
    f = as_field(grid, f)
    w = grid.cell_measure
    G = w * np.cumsum(np.sort(g)[::-1])
    F = w * np.cumsum(np.sort(f)[::-1])
    margins = F - G
    worst = float(margins.min())
    totals_match = bool(abs(margins[-1]) <= PREC_TOL)
    return MajorizationReport(
        holds=totals_match and worst >= -PREC_TOL,
        worst_margin=worst,
        totals_match=totals_match,
    )


@lru_cache(maxsize=32)
def _dealt_values(cls: RearrangementClass, grid: Grid) -> np.ndarray:
    """``cls.cell_values(grid)`` for every restart and sweep, read-only."""
    values = cls.cell_values(grid)
    values.setflags(write=False)
    return values


def comonotone_arrangement(cls: RearrangementClass, u, grid: Grid) -> np.ndarray:
    """The class member maximizing the u-weighted integral.

    Sorts cells by u descending (ties broken by ascending flat index, so
    runs are reproducible) and deals the class values largest first: the
    output is ordered like u, the extremal arrangement of the
    Hardy-Littlewood inequality.
    """
    u = as_field(grid, u)
    values = _dealt_values(cls, grid)
    order = np.argsort(-u, kind="stable")
    out = np.empty(grid.n_cells)
    out[order] = values
    return out


def monotone_x1_rearrangement(f, grid: Grid, direction: str = "decreasing") -> np.ndarray:
    """Sort every first-axis line of f in the requested direction.

    The output is equimeasurable with f and monotone along every line;
    applying the operation twice equals applying it once.
    """
    lines = grid.lines(f)
    if direction not in ("decreasing", "increasing"):
        raise ValueError(f"unknown direction {direction!r}")
    lines = np.sort(lines, axis=1)
    if direction == "decreasing":
        lines = lines[:, ::-1]
    return lines.ravel()
