"""Fragmenting the habitat makes lambda1 blow up.

There is no worst arrangement: tiling the same resource profile in ever
finer stripes drives the weight weakly-* toward its (negative) mean, so
mu1 tends to zero and lambda1 = 1/mu1 grows without bound.  The ladders
below show the roughly quadratic growth in the stripe count for a
two-valued profile and a continuous one on an interval, and for the
two-valued profile on a 64x32 rectangle.  The rectangle's ladder turns
down at 32 stripes: a stripe two cells wide holds too few positive cells
to fill one x1-column, and the stripe layout puts them in its lowest
lines, so the field is no longer constant along x2.
"""

import numpy as np

from eigenweight import (
    build_grid,
    decreasing_rearrangement,
    oscillating_arrangement,
    principal_eigenpair,
    weight_field,
)


def bang_bang(n):
    """+1 on a quarter of the cells, -2 on the rest."""
    return np.where(np.arange(n) < n // 4, 1.0, -2.0)


def main():
    interval = build_grid("interval", [1.0], [256])
    rectangle = build_grid("rectangle", [2.0, 1.0], [64, 32])
    profiles = {
        "1D bang-bang": (interval, bang_bang(256), "dense"),
        "1D continuous": (interval, np.linspace(-2.0, 1.0, 256) - 0.3,
                          "dense"),
        "64x32 bang-bang": (rectangle, bang_bang(rectangle.n_cells),
                            "iterative"),
    }
    stripes = (1, 2, 4, 8, 16, 32)
    print(f"{'stripes':>8}" + "".join(f"{name:>17}" for name in profiles))
    ladders = []
    for grid, values, solver in profiles.values():
        cls = decreasing_rearrangement(values, grid)
        ladders.append([principal_eigenpair(
            weight_field(grid, oscillating_arrangement(cls, grid, k)),
            solver=solver).lambda1 for k in stripes])
    for k, row in zip(stripes, zip(*ladders)):
        print(f"{k:>8}" + "".join(f"{lam:>17.4g}" for lam in row))
    print()
    cls = decreasing_rearrangement(bang_bang(256), interval)
    print("1D bang-bang stripe pattern at k=8: ",
          "".join("+" if v > 0 else "-"
                  for v in oscillating_arrangement(cls, interval, 8)[::4]))


if __name__ == "__main__":
    main()
