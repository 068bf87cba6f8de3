"""Eigenvalue machinery for -div(grad u) = lambda * m * u with zero-flux boundary.

The weight m changes sign.  When the weight integrates to a negative value
and is positive somewhere, the problem has a smallest positive eigenvalue
lambda1 with a one-signed eigenfunction; its reciprocal mu1 = 1/lambda1 is
the largest positive eigenvalue of the compact solution operator acting on
the mean-zero-against-m subspace

    V_m = { f : sum_i w_i m_i f_i = 0 },

equipped with the stiffness (Dirichlet) inner product <f, g> = f^T K g.

The dense path restricts the pencil (W diag(m), K) to V_m through an
orthonormal basis and is the oracle of record up to ``DENSE_CELL_LIMIT``
cells.  The iterative path uses that the orthonormal DCT-II diagonalizes K
exactly on these uniform grids, K = C^T Lambda C.  With q = W m and
P = I - 1 q^T / int m, which maps the non-constant fields onto V_m without
changing their energy, the Rayleigh quotient on V_m becomes the symmetric
operator

    S = Lambda^{-1/2} C (diag(q) - q q^T / int m) C^T Lambda^{-1/2}

on the non-constant DCT modes; ARPACK (``eigsh``) finds its largest
eigenvalue mu1 at two transforms per apply, and the eigenfunction is
u = P C^T Lambda^{-1/2} y.  The solution operator is P K^+ P^T (diag(q) f)
through the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import (
    ConstantField,
    IterationLimit,
    NoPositivePart,
    NotAdmissible,
    SingularSystem,
    TooLarge,
    ValidationError,
    ZeroWeightIntegral,
)
from .grid import (
    Grid,
    as_field,
    assemble_stiffness,
    dct_eigenvalues,
    from_dct,
    integrate,
    to_dct,
)

#: above this cell count the dense pencil is refused (TooLarge)
DENSE_CELL_LIMIT = 6000

#: eigensolver paths accepted by ``principal_eigenpair``
SOLVERS = ("dense", "iterative")


@dataclass(frozen=True, eq=False)
class WeightField:
    """A cell-wise weight with cached admissibility flags.

    The flags are recomputed from the values at construction and never
    user-set: ``is_admissible`` means the integral is negative while the
    positive set has positive measure, the regime with a positive
    principal eigenvalue.
    """

    grid: Grid
    values: np.ndarray
    integral: float
    has_positive_part: bool
    is_admissible: bool


def weight_field(grid: Grid, values) -> WeightField:
    """Wrap per-cell weight values, caching integral and admissibility.

    Raises ValidationError when a value is NaN or infinite.
    """
    values = as_field(grid, values).copy()
    if not np.isfinite(values).all():
        raise ValidationError("weight values must be finite")
    values.setflags(write=False)
    total = integrate(grid, values)
    has_pos = bool(np.any(values > 0))
    return WeightField(
        grid=grid,
        values=values,
        integral=total,
        has_positive_part=has_pos,
        is_admissible=(total < 0) and has_pos,
    )


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Principal eigenpair: mu1 = 1/lambda1 and the positive eigenfunction.

    u is normalized by u^T K u = 1, so m-weighted mass of u^2 equals mu1.
    ``residual`` is the relative norm of K u - lambda1 W (m*u) after
    removing its component along W m (the Lagrange direction).
    """

    mu1: float
    lambda1: float
    u: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class SignedSpectrum:
    """Extreme eigenvalues of the weighted pencil on V_m.

    ``positive`` is sorted descending (largest first); ``negative`` is
    sorted ascending, most negative first.  ``bound`` dominates every
    eigenvalue magnitude; ``basis_dim`` is the dimension of the discrete
    V_m, one less than the cell count.
    """

    positive: np.ndarray
    negative: np.ndarray
    basis_dim: int
    bound: float


def _weighted_values(m: WeightField) -> np.ndarray:
    """w_i * m_i, the vector defining the V_m constraint."""
    return m.grid.cell_measure * m.values


def project_mean_zero(m: WeightField, f) -> np.ndarray:
    """Remove the m-weighted mean: f - (int m f / int m).

    Maps any field onto V_m; constants map to zero and fields already in
    V_m are fixed.  Raises ZeroWeightIntegral when the weight integrates
    to zero.
    """
    if m.integral == 0.0:
        raise ZeroWeightIntegral("weight integrates to zero")
    f = as_field(m.grid, f)
    q = _weighted_values(m)
    return f - (q @ f) / m.integral


def _mode_scale(grid: Grid, exponent: float) -> np.ndarray:
    """Lambda^exponent on the non-constant DCT modes; 0 on the constant."""
    lam = dct_eigenvalues(grid)
    out = np.zeros_like(lam)
    out.flat[1:] = lam.flat[1:] ** exponent
    return out


def solution_operator(m: WeightField, f) -> np.ndarray:
    """Apply the constrained solution operator of the zero-flux problem.

    For f in V_m, returns the unique u in V_m with
    u^T K phi = sum_i w_i m_i f_i phi_i for every phi in V_m, computed as
    P K^+ P^T (W m f): P^T removes the Lagrange component along W m so the
    right-hand side is mean zero, and K^+ is a division in the DCT basis.
    """
    if m.integral == 0.0:
        raise ZeroWeightIntegral("weight integrates to zero")
    f = as_field(m.grid, f)
    q = _weighted_values(m)
    g = q * f
    g -= q * (g.sum() / m.integral)
    u = from_dct(m.grid, to_dct(m.grid, g) * _mode_scale(m.grid, -1.0))
    return project_mean_zero(m, u)


def _vm_basis(m: WeightField) -> np.ndarray:
    """Orthonormal basis of {f : (Wm)^T f = 0} from a Householder reflector.

    Deterministic: columns 2..n of the reflector that maps Wm onto the
    first coordinate axis.
    """
    q = _weighted_values(m)
    n = q.size
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ZeroWeightIntegral("weight is identically zero")
    v = q.copy()
    v[0] += norm if q[0] >= 0 else -norm
    vtv = v @ v
    B = (-2.0 / vtv) * np.outer(v, v[1:])
    B[1:, :] += np.eye(n - 1)
    return B


def _dense_pencil(m: WeightField):
    """The pencil (W diag(m), K) restricted to V_m, in the basis B.

    Returns (A, S, B): an eigenvector y of A y = mu S y is the cell field
    B y.
    """
    n = m.grid.n_cells
    if n > DENSE_CELL_LIMIT:
        raise TooLarge(
            f"{n} cells exceeds the dense limit of {DENSE_CELL_LIMIT}")
    K = assemble_stiffness(m.grid)
    B = _vm_basis(m)
    d = _weighted_values(m)
    A = B.T @ (d[:, None] * B)
    S = B.T @ (K @ B)
    A = 0.5 * (A + A.T)
    S = 0.5 * (S + S.T)
    return A, S, B


def _finalize_eigenpair(m: WeightField, mu1: float, u: np.ndarray) -> EigenPair:
    """Sign-fix, normalize u^T K u = 1 and attach the V_m residual."""
    K = assemble_stiffness(m.grid)
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    u = u / np.sqrt(u @ (K @ u))
    # one-signed up to solver accuracy: rough weights can graze zero, while
    # a genuine sign-changing mode has a negative part of order max(u)
    if np.min(u) < -1e-6 * np.max(u):
        raise SingularSystem(
            "principal eigenfunction is not one-signed; solver failure")
    lam = 1.0 / mu1
    r = K @ u - lam * (_weighted_values(m) * u)
    q = _weighted_values(m)
    r -= q * (q @ r) / (q @ q)
    residual = float(np.linalg.norm(r) / max(np.linalg.norm(K @ u), 1e-300))
    return EigenPair(mu1=float(mu1), lambda1=float(lam), u=u,
                     residual=residual)


def _check_admissible(m: WeightField) -> None:
    if m.integral >= 0:
        raise NotAdmissible(
            f"weight integral {m.integral:g} is nonnegative")
    if not m.has_positive_part:
        raise NoPositivePart("weight is nonpositive everywhere")


def _dct_iteration(m: WeightField, tol: float) -> EigenPair:
    """Largest eigenvalue of S (module docstring) by ARPACK.

    S acts on all DCT coefficients with the constant mode zeroed, which
    only adds the eigenvalue 0 below mu1 > 0.  The start vector is a
    fixed-seed random vector, generic against grid symmetries, so the
    same inputs always produce the same eigenpair.
    """
    grid = m.grid
    n = grid.n_cells
    q = _weighted_values(m)
    scale = _mode_scale(grid, -0.5)

    def to_vm(y):
        return project_mean_zero(
            m, from_dct(grid, y.reshape(scale.shape) * scale))

    def matvec(y):
        return (to_dct(grid, q * to_vm(y)) * scale).ravel()

    S = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(S, k=1, which="LA", tol=tol, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise IterationLimit(f"ARPACK did not converge: {exc}") from exc
    mu1 = float(vals[0])
    if mu1 <= 0:
        raise SingularSystem(
            "iterative solver converged to a nonpositive eigenvalue")
    return _finalize_eigenpair(m, mu1, to_vm(vecs[:, 0]))


def principal_eigenpair(m: WeightField, solver: str = "dense",
                        tol: float = 1e-12) -> EigenPair:
    """Largest positive eigenvalue mu1 of the weighted pencil and its pair.

    Requires an admissible weight (negative integral, positive part of
    positive measure).  ``solver`` selects the dense V_m-restricted pencil
    (the oracle path, refused above ``DENSE_CELL_LIMIT`` cells) or ARPACK
    on the DCT kernel ("iterative", no size cap); both paths return the
    eigenfunction normalized by u^T K u = 1 with the sign fixed positive.

    Both paths solve on m / 2^e with 2^e the power of two just above
    max|m|, and scale mu1 back by degree-1 homogeneity.  The division is
    exact, so weights of ordinary scale give the bytes an unscaled solve
    gives, and weights near the overflow or underflow threshold solve too.
    """
    _check_admissible(m)
    exp = int(np.frexp(np.abs(m.values).max())[1])
    pair = _unit_eigenpair(weight_field(m.grid, np.ldexp(m.values, -exp)),
                           solver, tol)
    return EigenPair(mu1=float(np.ldexp(pair.mu1, exp)),
                     lambda1=float(np.ldexp(pair.lambda1, -exp)),
                     u=pair.u, residual=pair.residual)


def _unit_eigenpair(m: WeightField, solver: str, tol: float) -> EigenPair:
    """``principal_eigenpair`` of a weight with max|m| in [1/2, 1)."""
    if solver == "dense":
        A, S, B = _dense_pencil(m)
        top = A.shape[0] - 1
        vals, vecs = scipy.linalg.eigh(A, S, subset_by_index=[top, top])
        mu1 = float(vals[0])
        if mu1 <= 0:  # pragma: no cover - admissible weights have mu1 > 0
            raise NoPositivePart("pencil has no positive eigenvalue")
        return _finalize_eigenpair(m, mu1, B @ vecs[:, 0])
    if solver == "iterative":
        return _dct_iteration(m, tol)
    raise ValueError(f"unknown solver {solver!r}")


def signed_spectrum(m: WeightField, k: int) -> SignedSpectrum:
    """The k largest positive and k most negative pencil eigenvalues.

    Dense only.  The positive list is empty exactly when the weight has no
    positive part, the negative list exactly when it has no negative part.
    """
    if m.integral == 0.0:
        raise ZeroWeightIntegral("weight integrates to zero")
    A, S, _ = _dense_pencil(m)
    vals = scipy.linalg.eigh(A, S, eigvals_only=True)
    pos = vals[vals > 0][::-1][:k].copy()
    neg = vals[vals < 0][:k].copy()
    bound = float(np.max(np.abs(vals))) if vals.size else 0.0
    return SignedSpectrum(positive=pos, negative=neg,
                          basis_dim=m.grid.n_cells - 1, bound=bound)


def rayleigh_quotient(m: WeightField, f) -> float:
    """Weighted Rayleigh quotient f^T W(m*f) / f^T K f.

    Bounded above by mu1 on V_m; raises ConstantField when the Dirichlet
    energy vanishes (numerically: fields whose relative variation is at
    roundoff scale count as constant).
    """
    f = as_field(m.grid, f)
    K = assemble_stiffness(m.grid)
    den = float(f @ (K @ f))
    energy_floor = 1e-14 * float(np.abs(K.diagonal()).max()) * float(f @ f)
    if den <= energy_floor:
        raise ConstantField("field has zero Dirichlet energy")
    num = float(f @ (_weighted_values(m) * f))
    return num / den


def mu1_derivative(m: WeightField, v, solver: str = "dense") -> float:
    """Directional derivative of mu1 at m: the v-weighted mass of u^2.

    With the eigenfunction normalization u^T K u = 1 the derivative in
    direction v is sum_i w_i u_i^2 v_i; in particular the derivative in
    direction m recovers mu1 itself (degree-1 homogeneity).  ``solver`` is
    passed to ``principal_eigenpair``.
    """
    v = as_field(m.grid, v)
    pair = principal_eigenpair(m, solver=solver)
    return float((m.grid.cell_measure * pair.u ** 2) @ v)


def mu1_extended(m: WeightField, solver: str = "dense",
                 tol: float = 1e-12) -> float:
    """mu1 extended by zero to weights with no positive part.

    Total on weights with negative integral, which makes convexity
    statements meaningful across degenerate weights; the degenerate case
    is signalled by ``m.has_positive_part`` being False.
    """
    if m.integral >= 0:
        raise NotAdmissible(
            f"weight integral {m.integral:g} is nonnegative")
    if not m.has_positive_part:
        return 0.0
    return principal_eigenpair(m, solver=solver, tol=tol).mu1
