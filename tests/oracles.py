"""Independent oracles used by the test suite.

These deliberately avoid the library's discretization: the eigenvalue
oracle solves the 1D two-phase matching equation by bisection on the
closed form, the arrangement oracle enumerates permutations, and the
stripe oracle searches every stripe for every cell.  ``random_admissible``
is the library's own admissible-weight generator, shared with ``verify``.
"""

import math
from itertools import permutations

import numpy as np

from eigenweight.verify import random_admissible_values as random_admissible


def two_phase_lambda1(a: float, b: float, cut: float, length: float,
                      tol: float = 1e-12) -> float:
    """Smallest positive eigenvalue for the weight +a on (0, cut), -b after.

    Zero-flux conditions at both ends give u = cos(sqrt(a lam) x) on the
    positive phase and a cosh profile on the negative one; matching value
    and slope at the cut yields

        sqrt(a) tan(sqrt(a lam) cut) = sqrt(b) tanh(sqrt(b lam) (L - cut))

    whose smallest root is bracketed between 0 and the first tangent pole.
    Requires a*cut < b*(L - cut), the negative-integral regime.
    """
    assert a > 0 and b > 0 and 0 < cut < length
    assert a * cut < b * (length - cut), "weight must have negative integral"

    def match(lam):
        s = math.sqrt(lam)
        return (math.sqrt(a) * math.tan(math.sqrt(a) * s * cut)
                - math.sqrt(b) * math.tanh(math.sqrt(b) * s * (length - cut)))

    pole = (math.pi / (2.0 * cut)) ** 2 / a
    lo, hi = 1e-8, pole * (1 - 1e-9)
    assert match(lo) < 0 < match(hi)
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if match(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_arrangement_value(values, u, w) -> float:
    """Brute-force max of sum(w * arrangement * u) over all permutations."""
    return max(float(np.dot(w * np.asarray(perm), u))
               for perm in permutations(values))


def oscillating_layout(values, counts, n1: int, n_cells: int, k: int):
    """Brute-force stripe layout: every cell sorts all k stripes.

    Deals each value's cells to the stripe nearest its ideal fractional
    position (earliest stripe on ties), skipping full stripes, then lays
    each stripe out sorted descending.  Returns the field and whether some
    cell found its nearest stripe full.
    """
    remaining = np.full(k, n_cells // k)
    stripe_values = [[] for _ in range(k)]
    hit_full = False
    for value, count in zip(values, counts):
        for j in range(count):
            x = (j + 0.5) * k / count - 0.5
            candidates = sorted(range(k), key=lambda s: (abs(s - x), s))
            hit_full |= bool(remaining[candidates[0]] == 0)
            for s in candidates:
                if remaining[s] > 0:
                    stripe_values[s].append(value)
                    remaining[s] -= 1
                    break
    out = np.empty(n_cells)
    i1 = np.arange(n_cells) % n1
    for s in range(k):
        cells = np.flatnonzero(i1 // (n1 // k) == s)
        out[cells] = np.sort(stripe_values[s])[::-1]
    return out, hit_full
