"""Eigenvalue machinery for -div(grad u) = lambda * m * u with zero-flux boundary.

The weight m changes sign.  When the weight integrates to a negative value
and is positive somewhere, the problem has a smallest positive eigenvalue
lambda1 with a one-signed eigenfunction; its reciprocal mu1 = 1/lambda1 is
the largest positive eigenvalue of the compact solution operator acting on
the mean-zero-against-m subspace

    V_m = { f : sum_i w_i m_i f_i = 0 },

equipped with the stiffness (Dirichlet) inner product <f, g> = f^T K g.

The dense path restricts the pencil (W diag(m), K) to V_m by a rank-2
update of each matrix with the Householder reflector that maps W m onto
the first axis; no basis matrix is formed and only the lower triangles
are valid.  It is the oracle of record up to ``DENSE_CELL_LIMIT`` cells.
The iterative path uses that the orthonormal DCT-II diagonalizes K
exactly on these uniform grids, K = C^T Lambda C.  With q = W m and
P = I - 1 q^T / int m, which maps the non-constant fields onto V_m without
changing their energy, it works through two maps (Lambda^{-1/2} is 0 on
the constant mode):

    U = P C^T Lambda^{-1/2},    D = Lambda^{-1/2} C diag(q).

T = U D is the solution operator on V_m, and the symmetric S = D U =
Lambda^{-1/2} C (diag(q) - q q^T / int m) C^T Lambda^{-1/2} is the Rayleigh
quotient on V_m in DCT coordinates.  T and S share their nonzero
eigenvalues: mu1 is the top one of S, and u = U y for its eigenvector y.

ARPACK (``eigsh``) runs on S to the loose tolerance ``_SHIFT_TOL`` from a
seeded start, at two transforms per apply.  Smooth weights stop in its
first cycle with |S y - theta y| <= tol theta, and the pair is the answer.
A run that stopped in its first cycle short of ``tol`` is refined from y
within ``_PROBE_RESTARTS`` restarts, and the refined pair must pass the
same check.  Every other outcome takes one route: a theta <= 0, a
refinement that stalls or ends on theta <= 0, a pair that fails the
check, and a rough weight, whose crowded spectrum (gaps under 1%) needs
more cycles even at the loose tolerance.  The route is
spectral-transformation Lanczos (Ericsson and Ruhe 1980; Grimes, Lewis and
Simon 1994) on the pencil (K, Q), Q = diag(q), from the last positive Ritz
value, or else from the Rayleigh quotient of the indicator of the positive
cells.  For a shift 0 < sigma < lambda1 the matrix B = K - sigma Q is
positive definite (on each pencil eigenvector u^T B u =
(lambda_j - sigma) u^T Q u > 0, and on the constants -sigma int m > 0), so
Lanczos on Q u = nu B u in the B inner product finds
nu1 = 1/(lambda1 - sigma) at one sparse LU solve per apply.  The shift is
certified by Sylvester inertia: a symmetric-mode LU of B with diagonal
pivots has as many negative pivots as the pencil has eigenvalues in
(0, sigma), so all-positive pivots prove sigma < lambda1.  Every iterative
solve runs with the bundled OpenBLAS at one thread, so its bytes do not
depend on the process's BLAS thread count.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse
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
    from_dct,
    integrate,
    to_dct,
)

#: above this cell count the dense pencil is refused (TooLarge)
DENSE_CELL_LIMIT = 6000

#: eigensolver paths accepted by ``principal_eigenpair``
SOLVERS = ("dense", "iterative")

#: ARPACK restarts on S in the refine step before the iterative path falls
#: back to the shift
_PROBE_RESTARTS = 6

#: seed of ARPACK's start vector and of its restart draws
_ARPACK_SEED = 0x5EED

#: the loose run: ARPACK on S to this tolerance gives theta <= mu1 and picks
#: the path; the first shift is _SHIFT_SHARE / theta, halved while inertia
#: rejects it
_SHIFT_TOL = 0.5
_SHIFT_SHARE = 0.8
_SHIFT_HALVINGS = 30

#: mu1 must exceed this many times eps max|q| / kappa, kappa the least
#: nonzero eigenvalue of K: with one small positive cell among 64 at -1,
#: the dense u's residual is 0.004 at 50-100 times that and 0.25 at 0.5-1
_ROUNDING_MARGIN = 100.0

#: OpenBLAS thread-count entry points, newest naming first
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


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


@dataclass(frozen=True)
class SolveStats:
    """How an eigenpair was computed.

    ``path`` is "dense", "arpack" or "shift-invert".  ``applies`` counts
    operator applications: applies of S, then solves with B on the
    shift-invert path (0 on the dense path).  ``sigma`` is the certified
    shift of the shift-invert path and None on the others; ``halvings``
    counts the shifts that inertia rejected before it.
    """

    path: str
    applies: int = 0
    sigma: float | None = None
    halvings: int = 0


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Principal eigenpair: mu1 = 1/lambda1 and the positive eigenfunction.

    u is normalized by u^T K u = 1, so m-weighted mass of u^2 equals mu1.
    ``residual`` is the relative norm of K u - lambda1 W (m*u) after
    removing its component along W m (the Lagrange direction).  It sits
    at K's rounding floor, which grows like n^2, while lambda1 stays
    accurate: on the interval with +1 on its first half and -3 on the
    second, the iterative residual reads 5.1e-11, 1.5e-8 and 2.8e-7 at
    1,024, 16,384 and 65,536 cells, with lambda1 5.8e-10 off the closed
    form at 65,536.
    """

    mu1: float
    lambda1: float
    u: np.ndarray
    residual: float
    stats: SolveStats


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two cell fields by numpy's own loop.

    BLAS ``ddot`` runs threaded on long vectors, which rounds differently
    at each thread count and leaves its helper threads spinning against
    the transforms that follow; ``einsum`` does neither.
    """
    return float(np.einsum("i,i->", a, b))


def _weighted_values(m: WeightField) -> np.ndarray:
    """w_i * m_i, the vector defining the V_m constraint."""
    return m.grid.cell_measure * m.values


def _unit_weight(m: WeightField) -> tuple[WeightField, int]:
    """m / 2^e with 2^e the power of two just above max|m|, and e.

    mu1, the signed spectrum and the solution operator are of degree 1 in
    m, so they are computed on the unit weight and scaled back by 2^e with
    ``np.ldexp``.  The division is exact, so weights of ordinary scale give
    the bytes an unscaled computation gives, and weights near the overflow
    or underflow threshold are computed too.
    """
    exp = _exponent(m.values)
    return weight_field(m.grid, np.ldexp(m.values, -exp)), exp


def _exponent(x: np.ndarray) -> int:
    """e with 2^e the power of two just above max|x|."""
    return int(np.frexp(np.abs(x).max())[1])


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
    return f - _dot(q, f) / m.integral


def _dct_maps(m: WeightField):
    """(up, down): U and D of the module docstring.

    ``up`` works on one fresh array and never writes y: ARPACK passes
    slices of its Krylov basis.  ``down`` consumes u.  S = D U acts on all
    DCT coefficients; the zeroed constant mode only adds the eigenvalue 0.
    """
    grid = m.grid
    q = _weighted_values(m)
    scale = grid.mode_scale

    def up(y):
        u = from_dct(grid, y.reshape(scale.shape) * scale)
        u -= _dot(q, u) / m.integral
        return u

    def down(u):
        u *= q
        c = to_dct(grid, u)
        c *= scale
        return c.ravel()

    return up, down


def solution_operator(m: WeightField, f) -> np.ndarray:
    """Apply the constrained solution operator of the zero-flux problem.

    For f in V_m, returns the unique u in V_m with
    u^T K phi = sum_i w_i m_i f_i phi_i for every phi in V_m.  That is
    T f = U D f (module docstring), computed on the unit weight; f outside
    V_m is projected onto it first.
    """
    if m.integral == 0.0:
        raise ZeroWeightIntegral("weight integrates to zero")
    unit, exp = _unit_weight(m)
    up, down = _dct_maps(unit)
    return np.ldexp(up(down(project_mean_zero(unit, f))), exp)


def _dense_pencil(m: WeightField):
    """The pencil (W diag(m), K) restricted to V_m by a Householder reflector.

    H = I - beta v v^T maps q = W m (nonzero: callers reject int m = 0)
    onto the first axis, so its last n - 1 columns span V_m.  For a
    symmetric X, x = X v and z = beta x - beta^2 (v^T x) v / 2,
    (H X H)[1:, 1:] = X[1:, 1:] - v1 z1^T - z1 v1^T (v1, z1 without their
    first entry), a rank-2 update done in place by ``dsyr2`` on the lower
    triangle.  A and S come back in Fortran order with only their lower
    triangles valid, as ``_eigh_in_place`` reads them.  Returns
    (A, S, lift): an eigenvector y of A y = mu S y is the cell field
    lift(y) = H [0; y].
    """
    n = m.grid.n_cells
    if n > DENSE_CELL_LIMIT:
        raise TooLarge(
            f"{n} cells exceeds the dense limit of {DENSE_CELL_LIMIT}")
    K = m.grid.stiffness
    q = _weighted_values(m)
    # the reflector of q / 2^e is H itself; the division is exact, and
    # v^T v neither overflows nor underflows at any cell measure
    v = np.ldexp(q, -_exponent(q))
    norm = np.sqrt(_dot(v, v))
    v[0] += norm if v[0] >= 0 else -norm
    beta = 2.0 / _dot(v, v)

    def restrict(X, x):
        z = beta * x - (0.5 * beta * beta * _dot(v, x)) * v
        # X is symmetric, so X.T is X in Fortran order, updated where it lies
        return scipy.linalg.blas.dsyr2(-1.0, z[1:], v[1:], lower=1, a=X.T,
                                       overwrite_a=1)

    def lift(y):
        return np.concatenate(([0.0], y)) - (beta * _dot(v[1:], y)) * v

    return (restrict(np.diag(q[1:]), q * v),
            restrict(K[1:, 1:].toarray(), K @ v), lift)


def _eigh_in_place(A: np.ndarray, S: np.ndarray, **kwargs):
    """``scipy.linalg.eigh(A, S, **kwargs)`` on a ``_dense_pencil`` pencil,
    overwriting A and S.

    Both are Fortran-ordered, so LAPACK factors them where they lie and
    neither is copied.  Their values are not checked: they are finite
    when the weight's and K's are.  A Cholesky factorization of S that
    fails (its condition grows with the aspect ratio of a cell) raises
    SingularSystem.
    """
    try:
        return scipy.linalg.eigh(A, S, overwrite_a=True, overwrite_b=True,
                                 check_finite=False, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"Cholesky factorization of the restricted stiffness failed: "
            f"{exc}") from exc


def _finalize_eigenpair(m: WeightField, mu1: float, u: np.ndarray,
                        stats: SolveStats) -> EigenPair:
    """Sign-fix, normalize u^T K u = 1 and attach the V_m residual.  A mu1
    not ``_ROUNDING_MARGIN`` times above the pencil's rounding level is
    lost to rounding; a residual cannot tell, since accurate solves on
    cells of aspect ratio 10^6 report residuals near 1."""
    K, q = m.grid.stiffness, _weighted_values(m)
    level = (_ROUNDING_MARGIN * np.finfo(float).eps * np.abs(q).max()
             / m.grid.spectrum.flat[1:].min())
    if not mu1 > level:
        raise SingularSystem(f"the solver's mu1 = {mu1:g} is not above "
                             f"{level:g}: the weight's positive part is lost "
                             "to rounding")
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    Ku = K @ u
    energy, lam = _dot(u, Ku), 1.0 / mu1
    # K's condition grows with the cells' aspect ratio, and mu1 underflows
    # when the positive part of m / 2^e is subnormal
    if not (energy > 0 and lam < np.inf):
        raise SingularSystem(f"the eigenpair leaves the floating-point "
                             f"range: u^T K u = {energy:g}, lambda1 = {lam:g}")
    scale = np.sqrt(energy)
    u = u / scale
    Ku = Ku / scale
    # one-signed up to solver accuracy: rough weights can graze zero, while
    # a genuine sign-changing mode has a negative part of order max(u)
    if np.min(u) < -1e-6 * np.max(u):
        raise SingularSystem(
            "principal eigenfunction is not one-signed; solver failure")
    r = Ku - lam * (q * u)
    # the component along q, removed along q / 2^e: exact, and its square
    # norm neither overflows nor underflows
    v = np.ldexp(q, -_exponent(q))
    r -= v * (_dot(v, r) / _dot(v, v))
    residual = float(np.sqrt(_dot(r, r))
                     / max(np.sqrt(_dot(Ku, Ku)), 1e-300))
    return EigenPair(mu1=float(mu1), lambda1=float(lam), u=u,
                     residual=residual, stats=stats)


@cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS build bundled
    with scipy and numpy; empty where neither bundles one."""
    controls = []
    for package in (scipy, np):
        libs = Path(package.__file__).resolve().parent.parent
        for lib in sorted(libs.glob(f"{package.__name__}.libs/*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in _THREAD_SYMBOLS:
                get = getattr(handle, symbol.format("get"), None)
                set_ = getattr(handle, symbol.format("set"), None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    controls.append((get, set_))
                    break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Every bundled OpenBLAS at one thread inside, as before outside.

    ARPACK's own BLAS calls round differently at each thread count above
    about 10,000 cells, so every iterative solve runs inside.  A count
    already at one is left alone: setting it in a forked child makes
    OpenBLAS re-create its helper threads there, as many as it was loaded
    with, and they spin against the other workers before they sleep.
    Processes forked inside inherit the count.
    """
    changed = [(set_, count) for get, set_ in _blas_thread_controls()
               if (count := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)


class _Counted(spla.LinearOperator):
    """The symmetric operator x -> fn(x) on R^n; ``applies`` counts calls."""

    def __init__(self, fn, n: int):
        super().__init__(dtype=np.dtype(float), shape=(n, n))
        self.fn = fn
        self.applies = 0

    def matvec(self, x):  # without LinearOperator.matvec's checks and copies
        self.applies += 1
        return self.fn(x)

    _matvec = matvec


def _arpack_top(A, tol: float, v0=None, **kwargs):
    """Largest eigenvalue and eigenvector of A by ARPACK (``eigsh``).

    The default start vector is a fixed-seed random vector, generic
    against grid symmetries, and ARPACK's restart draws come from a
    fixed-seed generator, so the same inputs always produce the same
    bytes.  A run that does not converge raises IterationLimit; the
    eigenvalue may be of either sign.
    """
    if v0 is None:
        v0 = _start_vector(A.shape[0])
    try:
        vals, vecs = spla.eigsh(A, k=1, which="LA", tol=tol, v0=v0,
                                rng=np.random.default_rng(_ARPACK_SEED),
                                **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise IterationLimit(f"ARPACK did not converge: {exc}") from exc
    return float(vals[0]), vecs[:, 0]


@lru_cache(maxsize=32)
def _start_vector(n: int) -> np.ndarray:
    """ARPACK's seeded start vector of length n, read-only."""
    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(n)
    v0.setflags(write=False)
    return v0


def _dct_iteration(m: WeightField, tol: float) -> EigenPair:
    """Largest eigenvalue of S = D U by the stages of the module docstring.

    ARPACK's own convergence test can pass on a pair whose residual is far
    above tol, so the refined pair is checked too.  The Rayleigh quotient
    of the indicator f of the positive cells is at most mu1, as a Ritz
    value is: the constant that moves f into V_m keeps its energy and, as
    int m < 0, cannot lower f^T Q f.
    """
    up, down = _dct_maps(m)
    S = _Counted(lambda y: down(up(y)), m.grid.n_cells)
    ncv = min(S.shape[0], 20)  # the Lanczos basis of both runs on S
    theta, y = _arpack_top(S, _SHIFT_TOL, ncv=ncv)
    # one ARPACK cycle for one eigenpair: ncv applies and one more
    first_cycle = S.applies <= ncv + 1
    last = 0.0  # the last positive Ritz value
    for refined in (False, True):  # the loose pair, then a refined one
        if not theta > 0:
            break
        last = theta
        r = S.matvec(y) - theta * y
        if np.sqrt(_dot(r, r)) <= tol * theta:
            return _finalize_eigenpair(m, theta, up(y),
                                       SolveStats("arpack", S.applies))
        if refined or not first_cycle:
            break
        try:
            theta, y = _arpack_top(S, tol, y, ncv=ncv, maxiter=_PROBE_RESTARTS)
        except IterationLimit:
            break
    return _shift_invert(m, tol, last or rayleigh_quotient(m, m.values > 0),
                         S.applies)


def _shifted_lu(m: WeightField, sigma: float):
    """Sparse LU of B = K - sigma Q, B itself, and B's count of pivots
    that are not positive.

    When the pivots stay on the diagonal (``perm_r == perm_c``) the
    factorization is P B P^T = L D L^T, and by Sylvester's law of inertia
    the negative pivots count the pencil eigenvalues in (0, sigma).  The
    count is None when SuperLU pivoted off the diagonal.
    """
    B = (m.grid.stiffness
         - sigma * scipy.sparse.diags(_weighted_values(m))).tocsc()
    lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return lu, B, None
    return lu, B, int(np.count_nonzero(lu.U.diagonal() <= 0))


def _shift_invert(m: WeightField, tol: float, theta: float,
                  applies: int = 0) -> EigenPair:
    """Largest eigenvalue nu1 = 1/(lambda1 - sigma) of Q u = nu B u.

    theta <= mu1 (``_dct_iteration``), so 1/theta is at least lambda1; the
    first shift is ``_SHIFT_SHARE / theta``, halved until the inertia of B
    proves sigma < lambda1, and lambda1 is sigma + 1/nu1.  ``applies`` are
    those already spent on this solve.
    """
    sigma = _SHIFT_SHARE / theta
    for halvings in range(_SHIFT_HALVINGS):
        lu, B, negative = _shifted_lu(m, sigma)
        if negative == 0:
            break
        sigma *= 0.5
    else:
        raise SingularSystem("no shift passed the inertia check")
    Binv = _Counted(lu.solve, m.grid.n_cells)
    nu1, u = _arpack_top(scipy.sparse.diags(_weighted_values(m)), tol, M=B,
                         Minv=Binv)
    if not nu1 > 0:
        raise SingularSystem(
            f"shift-invert Lanczos converged to nu1 = {nu1:g}, not positive")
    stats = SolveStats("shift-invert", applies + Binv.applies, sigma,
                       halvings)
    return _finalize_eigenpair(m, 1.0 / (sigma + 1.0 / nu1),
                               project_mean_zero(m, u), stats)


def principal_eigenpair(m: WeightField, solver: str = "dense",
                        tol: float = 1e-12) -> EigenPair:
    """Largest positive eigenvalue mu1 of the weighted pencil and its pair.

    Requires an admissible weight (negative integral, positive part of
    positive measure).  ``solver`` selects the dense V_m-restricted pencil
    (the oracle path, refused above ``DENSE_CELL_LIMIT`` cells) or ARPACK
    on the DCT kernel with the shift-invert fallback ("iterative", no size
    cap); both paths return the eigenfunction normalized by u^T K u = 1
    with the sign fixed positive, and ``stats`` names the path that ran.
    Both paths solve on ``_unit_weight(m)``.
    """
    if m.integral >= 0:
        raise NotAdmissible(
            f"weight integral {m.integral:g} is nonnegative")
    if not m.has_positive_part:
        raise NoPositivePart("weight is nonpositive everywhere")
    unit, exp = _unit_weight(m)
    if solver == "dense":
        A, S, lift = _dense_pencil(unit)
        top = A.shape[0] - 1
        _, vecs = _eigh_in_place(A, S, subset_by_index=[top, top])
        # eigh's eigenvalue carries the error of the Cholesky factor of S,
        # whose condition grows like n^2; the Rayleigh quotient of its
        # vector errs only by the square of the vector's error
        u = lift(vecs[:, 0])
        pair = _finalize_eigenpair(unit, rayleigh_quotient(unit, u), u,
                                   SolveStats("dense"))
    elif solver == "iterative":
        with _one_blas_thread():
            pair = _dct_iteration(unit, tol)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    sigma = pair.stats.sigma
    return replace(pair, mu1=float(np.ldexp(pair.mu1, exp)),
                   lambda1=float(np.ldexp(pair.lambda1, -exp)),
                   stats=replace(pair.stats, sigma=None if sigma is None
                                 else float(np.ldexp(sigma, -exp))))


def signed_spectrum(m: WeightField, k: int) -> SignedSpectrum:
    """The k largest positive and k most negative pencil eigenvalues.

    Dense only, on ``_unit_weight(m)``.  The positive list is empty
    exactly when the weight has no positive part, the negative list exactly
    when it has no negative part.
    """
    if m.integral == 0.0:
        raise ZeroWeightIntegral("weight integrates to zero")
    unit, exp = _unit_weight(m)
    A, S, _ = _dense_pencil(unit)
    vals = np.ldexp(_eigh_in_place(A, S, eigvals_only=True), exp)
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
    K = m.grid.stiffness
    den = _dot(f, K @ f)
    energy_floor = 1e-14 * float(np.abs(K.diagonal()).max()) * _dot(f, f)
    if den <= energy_floor:
        raise ConstantField("field has zero Dirichlet energy")
    num = _dot(f, _weighted_values(m) * f)
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
    return _dot(m.grid.cell_measure * pair.u ** 2, v)


def mu1_extended(m: WeightField, solver: str = "dense",
                 tol: float = 1e-12) -> float:
    """mu1 extended by zero to weights with no positive part.

    Total on weights with negative integral, which makes convexity
    statements meaningful across degenerate weights; the degenerate case
    is signalled by ``m.has_positive_part`` being False.
    """
    if m.integral < 0 and not m.has_positive_part:
        return 0.0
    return principal_eigenpair(m, solver=solver, tol=tol).mu1
