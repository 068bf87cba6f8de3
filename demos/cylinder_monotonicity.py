"""Minimizers on a rectangular cylinder are monotone along the axis.

On (0, 2) x (0, 1) with a bang-bang budget, the minimizing arrangement of
the weight is monotone in the first coordinate on every line: all the
favourable habitat gathers against one end face.  Random restarts break
the symmetry of suboptimal fixed points (for instance the arrangement
stacked along the cross-section, which the canonical start happens to hit).
"""

import numpy as np

from eigenweight import (
    build_grid,
    decreasing_rearrangement,
    minimize_lambda1,
)


def heatmap(values, grid):
    return "\n".join("".join("#" if v > 0 else "." for v in line)
                     for line in grid.lines(values))


def main():
    grid = build_grid("rectangle", [2.0, 1.0], [32, 16])
    n = grid.n_cells
    budget = np.where(np.arange(n) < n // 4, 1.0, -2.0)
    cls = decreasing_rearrangement(budget, grid)

    single = minimize_lambda1(cls, grid, restarts=1, solver="iterative")
    multi = minimize_lambda1(cls, grid, restarts=8, seed=0,
                             solver="iterative")

    print("canonical start only (a suboptimal fixed point):")
    print(f"  lambda1 = {single.final_pair.lambda1:.4f}, "
          f"{single.monotone_x1.classification}")
    print(heatmap(single.final_m, grid))
    print()
    print("best of 8 restarts:")
    print(f"  lambda1 = {multi.final_pair.lambda1:.4f}, "
          f"{multi.monotone_x1.classification}")
    print(heatmap(multi.final_m, grid))
    print()
    per_line = set(multi.monotone_x1.per_line)
    print(f"per-line monotonicity of the best minimizer: {sorted(per_line)}")


if __name__ == "__main__":
    main()
