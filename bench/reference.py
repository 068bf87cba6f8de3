"""Host-speed reference: a fixed kernel timed between the benchmark's jobs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
a quarter or more over minutes, which a median over one run cannot
remove.  So every run times this fixed kernel, built from numpy and scipy
only (never from eigenweight), in slices between its jobs, and scales
each measured time by ``nominal / measured`` reference time.  The
reported seconds are then seconds on a host where one chunk of the
kernel takes ``CHUNK_NOMINAL_S``.  A change to the package cannot change
the kernel, so it moves the scaled times exactly as it moves the raw
ones.

One chunk mixes what the workloads spend their time on: sparse LU
solves and a factorisation of a 2D stiffness-like matrix, Gram-Schmidt
steps on vectors of that length, a sort and an argsort of 32,768 values,
an interpreted loop, and float-to-text formatting.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: median time of one chunk on the host the benchmark was tuned on
#: (Intel Xeon, 2 vCPUs of a shared host, numpy 2.4, scipy 1.17)
CHUNK_NOMINAL_S = 0.03


def _laplacian(n1: int, n2: int):
    def path(n):
        return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n),
                         -np.ones(n - 1)], [-1, 0, 1])
    return (sp.kron(sp.identity(n2), path(n1))
            + sp.kron(path(n2), sp.identity(n1))
            + 1e-3 * sp.identity(n1 * n2)).tocsc()


class Reference:
    """The fixed kernel; ``run`` times it and accumulates the totals."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = _laplacian(64, 32)
        self.lu = spla.splu(self.matrix)
        self.rhs = rng.standard_normal(self.matrix.shape[0])
        self.values = rng.standard_normal(32768)
        self.chunks = 0
        self.seconds = 0.0
        self._chunk()  # first call pays page faults and lazy imports

    def _chunk(self) -> None:
        x = self.rhs.copy()
        basis = np.zeros((40, x.size))
        for i in range(40):
            y = self.lu.solve(x)
            for j in range(i):
                y -= (basis[j] @ y) * basis[j]
            x = y / np.linalg.norm(y)
            basis[i] = x
        spla.splu(self.matrix)
        np.sort(self.values)
        np.argsort(self.values)
        total = 0
        for i in range(30000):
            total += i % 7
        ",".join(repr(float(v)) for v in self.values[:3000])

    def run(self, seconds: float) -> tuple:
        """Run whole chunks for about ``seconds``, at least one; returns
        (chunks, seconds taken) and adds them to the totals."""
        start = time.perf_counter()
        chunks, elapsed = 0, 0.0
        while chunks == 0 or elapsed < seconds:
            self._chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
        self.chunks += chunks
        self.seconds += elapsed
        return chunks, elapsed

    def scale(self) -> float:
        """Nominal over measured reference time so far: multiply a raw
        time by this to get seconds at the nominal host speed."""
        return self.chunks * CHUNK_NOMINAL_S / self.seconds
