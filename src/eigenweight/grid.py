"""Uniform tensor-product grids and the zero-flux (Neumann) stiffness matrix.

Domains are products of intervals (0, L_a).  Cells are uniform boxes centered
at midpoints, indexed flat with the *first axis fastest*: the cell with
multi-index (i1, ..., iN) has flat index

    i1 + shape[0] * (i2 + shape[1] * i3).

Lines of cells along the first axis are therefore contiguous runs of flat
indices; ``Grid.lines`` reshapes a field into one row per line, and every
module sees first-axis lines through it.

The stiffness matrix K is the Kronecker sum of the per-axis 1D Neumann
Laplacians.  On a uniform grid the orthonormal DCT-II diagonalizes each of
them, hence K, with the per-axis eigenvalues summed (``dct_eigenvalues``);
the spectral and logistic solvers work in that basis.  K, its spectrum and
the spectrum's inverse square root depend on the domain alone, so the grid
owns them: each is built on first read of ``Grid.stiffness``,
``Grid.spectrum`` or ``Grid.mode_scale``, read-only, and lives exactly as
long as its grid.

``to_dct`` and ``from_dct`` run pocketfft through ``scipy.fftpack``: the
bytes of ``scipy.fft`` without its dispatch layer, a sixth of a
``scipy.fft`` call at 2,048 cells.  They transform in place, consuming
their argument: a caller that needs it afterwards passes a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fftpack
import scipy.sparse as sp

from .errors import InvalidSpec, LengthMismatch, ValidationError

#: domain kind -> dimension
DOMAIN_KINDS = {"interval": 1, "rectangle": 2, "box": 3}

#: most cells a grid may have; one field then takes 8 MiB
MAX_CELLS = 2 ** 20


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered grid on a box domain.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    extents : tuple of float
        Side length per axis; the domain is the product of (0, extents[a]).
    shape : tuple of int
        Cell count per axis.
    spacing : tuple of float
        Cell width per axis, extents[a] / shape[a].
    cell_measure : float
        Lebesgue measure of every cell, the product of the spacings.  One
        measure for all cells is what makes a rearrangement class a
        multiset of cell values and the DCT diagonalize the stiffness.
    stiffness : scipy.sparse.csr_matrix
        ``assemble_stiffness(grid)``, built on first read; its arrays are
        read-only.
    spectrum : np.ndarray
        ``dct_eigenvalues(grid)``, built on first read, read-only.
    mode_scale : np.ndarray
        Lambda^{-1/2} on the non-constant DCT modes and 0 on the constant
        one, layout shape[::-1]; built on first read, read-only.
    """

    dim: int
    extents: tuple
    shape: tuple
    spacing: tuple
    cell_measure: float

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def volume(self) -> float:
        """Measure of the whole domain."""
        return math.prod(self.extents)

    def lines(self, f) -> np.ndarray:
        """A cell field with one first-axis line per row, by increasing
        x1; a view that writes through to f when f is a contiguous float
        array."""
        return as_field(self, f).reshape(-1, self.shape[0])

    def cell_centers(self) -> np.ndarray:
        """Midpoints of all cells as an (n_cells, dim) array in flat order."""
        idx = np.indices(self.shape[::-1]).reshape(self.dim, -1)[::-1]
        return (idx.T + 0.5) * np.array(self.spacing)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        K = assemble_stiffness(self)
        for array in (K.data, K.indices, K.indptr):
            array.setflags(write=False)
        return K

    @cached_property
    def spectrum(self) -> np.ndarray:
        return dct_eigenvalues(self)

    @cached_property
    def mode_scale(self) -> np.ndarray:
        out = np.zeros_like(self.spectrum)
        out.flat[1:] = self.spectrum.flat[1:] ** -0.5
        out.setflags(write=False)
        return out


def build_grid(kind: str, extents, shape) -> Grid:
    """Build a uniform grid on an interval, rectangle or box domain.

    Parameters
    ----------
    kind : {"interval", "rectangle", "box"}
        Domain family; must match the number of axes given.
    extents : sequence of float
        Positive, finite side length per axis, such that every squared
        spacing, the cell measure, the volume and each axis's stiffness
        eigenvalues are finite and positive in floating point.
    shape : sequence of int
        Cells per axis, each a whole number (16.0 counts as 16) and at
        least 2, with at most MAX_CELLS cells in all.

    This is the one place domains are validated: every malformed
    descriptor raises InvalidSpec.
    """
    if not isinstance(kind, str) or kind not in DOMAIN_KINDS:
        raise InvalidSpec(f"unknown domain kind {kind!r}")
    dim = DOMAIN_KINDS[kind]
    try:
        extents = _floats(extents, "extents")
        counts = _floats(shape, "shape")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"extents and shape must be numbers: {exc}") \
            from exc
    if len(extents) != dim or len(counts) != dim:
        raise InvalidSpec(
            f"{kind} domain needs {dim} extents and {dim} cell counts, "
            f"got {len(extents)} and {len(counts)}"
        )
    if not all(0 < L < np.inf for L in extents):
        raise InvalidSpec(
            f"extents must be positive and finite, got {extents}")
    if not all(n.is_integer() for n in counts):
        raise InvalidSpec(f"cell counts must be whole numbers, got {counts}")
    shape = tuple(int(n) for n in counts)
    if any(n < 2 for n in shape):
        raise InvalidSpec(f"cell counts must be at least 2, got {shape}")
    n_cells = math.prod(shape)
    if n_cells > MAX_CELLS:
        raise InvalidSpec(
            f"grid of shape {shape} has {n_cells} cells, more than the "
            f"cap of {MAX_CELLS}")

    spacing = tuple(L / n for L, n in zip(extents, shape))
    grid = Grid(dim, extents, shape, spacing, math.prod(spacing))
    scales = [("spacing^2", h * h) for h in spacing] + [
        ("cell measure", grid.cell_measure), ("volume", grid.volume)]
    for name, value in scales:
        if not 0 < value < np.inf:
            raise InvalidSpec(
                f"extents {extents} on shape {shape} give a {name} of "
                f"{value!r}, which must be finite and positive")
    grid.spectrum
    return grid


def _floats(values, name: str) -> tuple:
    """Each entry of a number or a sequence of numbers as a float; a bool
    is not a number, though ``float`` takes it."""
    entries = np.atleast_1d(np.asarray(values, dtype=object))
    if any(isinstance(v, (bool, np.bool_)) for v in entries):
        raise InvalidSpec(f"{name} must be numbers, got {values!r}")
    return tuple(float(v) for v in entries)


def assemble_stiffness(grid: Grid) -> sp.csr_matrix:
    """Assemble the Neumann stiffness matrix K of the grid.

    K is the Kronecker sum over axes of the 1D zero-flux Laplacians
    tridiag(-1, 2, -1), with 1 in both corners (no flux through the ends),
    each scaled by its face weight cell_measure / spacing[a]**2.
    ``f @ K @ f`` discretizes the Dirichlet energy of the piecewise field
    f.  K is symmetric with zero row sums (the discrete Neumann condition)
    and positive semidefinite; f^T K f = 0 exactly when f is constant.
    Each call builds a new K; ``grid.stiffness`` is the grid's own.
    """
    K = sp.csr_matrix((1, 1))
    for n, h in zip(grid.shape, grid.spacing):
        lap = sp.diags([-1.0, np.r_[1.0, np.full(n - 2, 2.0), 1.0], -1.0],
                       [-1, 0, 1], shape=(n, n))
        # kronsum(K, lap) puts the new axis slowest: first axis fastest
        K = sp.kronsum(K, grid.cell_measure / h ** 2 * lap, format="csr")
    return K


def dct_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the stiffness matrix in the orthonormal DCT-II basis.

    On a uniform grid the DCT-II along each axis diagonalizes the 1D
    Neumann Laplacian with eigenvalues 4 sin^2(pi k / 2n), which do not
    cancel as 2 - 2 cos(pi k / n) does when pi k / n is small.  K is
    diagonal in the tensor-product basis with eigenvalues summed over axes,
    each scaled by its face weight.  The array has layout shape[::-1] (the
    layout of ``to_dct``); entry [0, ..., 0] is the constant mode, exactly 0.
    A nonconstant axis eigenvalue of 0 or inf raises InvalidSpec; the sums
    stay finite, as two face weights multiply to 1 or to a squared spacing.
    Each call builds a new array; ``grid.spectrum`` is the grid's own.
    """
    lam = np.zeros(grid.shape[::-1])
    for a, n in enumerate(grid.shape):
        face_weight = grid.cell_measure / grid.spacing[a] ** 2
        k = np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            axis_vals = face_weight * 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
        if not (0 < axis_vals[1] and axis_vals[-1] < np.inf):
            raise InvalidSpec(
                f"extents {grid.extents} on shape {grid.shape} give axis {a} "
                f"a face weight of {face_weight!r}, whose stiffness "
                "eigenvalues must be finite and positive")
        lam += axis_vals.reshape((n,) + (1,) * a)
    lam.setflags(write=False)
    return lam


def to_dct(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II coefficients of f, layout shape[::-1]; consumes f."""
    return scipy.fftpack.dctn(f.reshape(grid.shape[::-1]), norm="ortho",
                              overwrite_x=True)


def from_dct(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Inverse of ``to_dct``: the cell field in flat order; consumes c."""
    return scipy.fftpack.idctn(c, norm="ortho", overwrite_x=True).ravel()


def as_field(grid: Grid, f) -> np.ndarray:
    """Validate and return f as a float cell field on the grid."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_cells,):
        raise LengthMismatch(
            f"field has shape {f.shape}, grid has {grid.n_cells} cells")
    return f


def integrate(grid: Grid, f) -> float:
    """Midpoint-rule integral of a cell field: cell measure * sum of values.

    Raises ValidationError when it is not finite, a sum that overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = grid.cell_measure * float(as_field(grid, f).sum())
    if not np.isfinite(total):
        raise ValidationError(f"field integral {total} is not finite")
    return total
