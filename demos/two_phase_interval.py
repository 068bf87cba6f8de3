"""Principal eigenvalue of a two-phase weight on the unit interval.

The weight is +1 on (0, 1/2) and -3 on (1/2, 1).  For this configuration
the eigenvalue solves a closed-form matching equation, so we can watch the
grid solver converge to its root (``eigenweight.verify.two_phase_lambda1``):

    tan(sqrt(lam)/2) = sqrt(3) tanh(sqrt(3) sqrt(lam)/2)
"""

import math

import numpy as np

from eigenweight import build_grid, principal_eigenpair, weight_field
from eigenweight.verify import two_phase_lambda1


def main():
    lam_star = two_phase_lambda1(1.0, 3.0, 0.5, 1.0)
    print(f"matching-equation root:  lambda1 = {lam_star:.10f}\n")
    print(f"{'n':>6} {'lambda1':>14} {'rel. error':>12}")
    prev = None
    for n in (32, 64, 128, 256, 512, 1024):
        grid = build_grid("interval", [1.0], [n])
        x = grid.cell_centers()[:, 0]
        m = weight_field(grid, np.where(x < 0.5, 1.0, -3.0))
        pair = principal_eigenpair(m)
        err = abs(pair.lambda1 - lam_star) / lam_star
        rate = "" if prev is None else f"  (order {math.log2(prev / err):.2f})"
        print(f"{n:>6} {pair.lambda1:>14.8f} {err:>12.2e}{rate}")
        prev = err
    print("\nThe eigenfunction is positive and loads on the favourable phase:")
    u = pair.u
    bar = "".join("#" if v > 0.5 * u.max() else "." for v in u[::16])
    print(f"  u (coarse profile):  {bar}")


if __name__ == "__main__":
    main()
