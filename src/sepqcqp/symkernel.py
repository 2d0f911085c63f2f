"""Dense symmetric-matrix numerics.

Every matrix in the package (coefficient matrices, PSD variables, dual
blocks) is a SymMatrix: a real symmetric matrix held as one read-only
dense float64 array. The kernel supplies the handful of operations
everything else is built from: Frobenius inner products, the
eigendecomposition (LAPACK ``eigh``, one matrix or a stack of them), PSD
tests and numeric rank. The *_many forms work on stacks, one numpy call
per dimension, and give each matrix the result its one-matrix form
gives, bit for bit: LAPACK factors a stack one matrix at a time, and a
stacked dot product is one BLAS dot per C-contiguous row, as np.dot of
that row.

It is also the package's one LAPACK layer: eigh, eigvalsh, cholesky,
solve, inv and svd each call the gufunc of numpy.linalg's function of
that name (lower triangle, float64 signature; svd's with full matrices)
under the error state that function sets (built once, at import), so
each returns its bytes or raises its LinAlgError, without the wrapper's
per-call checks and conversions. They take float64 (..., m, m) stacks
(solve's right-hand side is (..., m, n), svd's input (..., m, n)). Like
_umath_linalg, the error state's context variable and constructor are
numpy 2's private internals; where a numpy release no longer has them,
each call enters one np.errstate of the same flags instead, which gives
the same bits, only slower.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError

try:
    from numpy._core.umath import _extobj_contextvar, _make_extobj
except ImportError:
    # the state is errstate's keywords, and each call enters and leaves an
    # np.errstate of them
    _make_extobj = dict

    def _enter(flags):
        state = np.errstate(**flags)
        state.__enter__()
        return state

    _leave = operator.methodcaller("__exit__", None, None, None)
else:
    _enter, _leave = _extobj_contextvar.set, _extobj_contextvar.reset

_EPS = float(np.finfo(np.float64).eps)

#: half the largest double: symmetrizing an entry beyond it, (v + v) / 2,
#: overflows
HALF_MAX = float(np.finfo(np.float64).max) / 2.0


def _error_state(message: str):
    """numpy.linalg's error state for its LAPACK gufuncs, where a failed
    factorization (the invalid flag) raises LinAlgError(message): the
    state np.errstate(call=..., invalid="call", over="ignore",
    divide="ignore", under="ignore") enters, built once. Each function
    below sets numpy's error-state context variable to it around its
    gufunc and resets the variable after, as that errstate does on every
    call, where it builds the state anew. Every flag and the handler are
    set here; only the buffer size comes from the state at import rather
    than the caller's, and it changes no result of these float64 calls."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return _make_extobj(
        call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


_NO_CONVERGENCE = _error_state("Eigenvalues did not converge")
_NOT_PD = _error_state("Matrix is not positive definite")
_SINGULAR = _error_state("Singular matrix")
_NO_SVD = _error_state("SVD did not converge")


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of a: eigenvalues ascending, eigenvectors as
    columns."""
    token = _enter(_NO_CONVERGENCE)
    try:
        return _umath_linalg.eigh_lo(a, signature="d->dd")
    finally:
        _leave(token)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh of a: eigenvalues ascending."""
    token = _enter(_NO_CONVERGENCE)
    try:
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")
    finally:
        _leave(token)


def cholesky(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.cholesky of a: the lower-triangular factor."""
    token = _enter(_NOT_PD)
    try:
        return _umath_linalg.cholesky_lo(a, signature="d->d")
    finally:
        _leave(token)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve of a and a (..., m, n) right-hand side b."""
    token = _enter(_SINGULAR)
    try:
        return _umath_linalg.solve(a, b, signature="dd->d")
    finally:
        _leave(token)


def inv(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.inv of a."""
    token = _enter(_SINGULAR)
    try:
        return _umath_linalg.inv(a, signature="d->d")
    finally:
        _leave(token)


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy.linalg.svd of a with full matrices: (u, singular values
    descending, vh)."""
    token = _enter(_NO_SVD)
    try:
        return _umath_linalg.svd_f(a, signature="d->ddd")
    finally:
        _leave(token)


@functools.cache
def _triangle(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle in row-major order, and weights
    1 on diagonal slots, 2 off-diagonal (both read-only).

    Frobenius sums run over the triangle in this order, so their roundoff,
    and with it the solver's iteration counts, stays as it was when the
    triangle was the storage.
    """
    iu, ju = np.triu_indices(dim)
    idx = iu * dim + ju
    w = np.where(iu == ju, 1.0, 2.0)
    idx.flags.writeable = False
    w.flags.writeable = False
    return idx, w


def frob_inner_many(a: np.ndarray, b: np.ndarray):
    """Frobenius inner product of every pair of matrices of two (..., d, d)
    array stacks that broadcast against each other (of one pair, for two
    matrices): the triangle-weighted sum of a * b, as frob_inner sums it.

    Each pair is one BLAS dot, the np.dot of the pair's gathered triangle
    (for one pair, that np.dot itself), so every value is bit for bit the
    one-pair value. take() gathers C-contiguous rows; over rows of another
    layout matmul would sum in another order."""
    d = a.shape[-1]
    idx, w = _triangle(d)
    if a.ndim == b.ndim == 2:
        return np.dot(a.take(idx) * b.take(idx), w)
    prod = a.reshape(a.shape[:-2] + (d * d,)).take(idx, axis=-1) * b.reshape(
        b.shape[:-2] + (d * d,)
    ).take(idx, axis=-1)
    return np.matmul(prod[..., None, :], w[:, None])[..., 0, 0]


class SymMatrix:
    """Real symmetric matrix over one read-only dense float64 array.

    All entries must be finite. Instances are immutable: the array is
    read-only and all operations return new objects.
    """

    __slots__ = ("dim", "_a")

    def __init__(self, a: np.ndarray):
        """Wrap a symmetric square array (copied; symmetry is the caller's
        promise, use from_dense for arbitrary input)."""
        a = np.array(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.size and not np.isfinite(a).all():
            raise ValueError("SymMatrix entries must be finite")
        a.flags.writeable = False
        self.dim = a.shape[0]
        self._a = a

    # -- constructors ------------------------------------------------------

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap a square, symmetric float64 array without a copy or a
        finite check, for a caller that checked its entries just before
        and hands the array over (it becomes read-only). The array keeps
        its layout, as the constructor's copy would."""
        out = object.__new__(cls)
        a.flags.writeable = False
        out.dim = a.shape[0]
        out._a = a
        return out

    @staticmethod
    def from_dense(a) -> "SymMatrix":
        """Build from a square array; the input is symmetrized as (A+A^T)/2."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        return SymMatrix(0.5 * (a + a.T))

    @staticmethod
    def zeros(dim: int) -> "SymMatrix":
        if dim < 0:
            raise DimensionError(f"dimension must be nonnegative, got {dim}")
        return SymMatrix(np.zeros((dim, dim)))

    @staticmethod
    def identity(dim: int) -> "SymMatrix":
        if dim < 0:
            raise DimensionError(f"dimension must be nonnegative, got {dim}")
        return SymMatrix(np.eye(dim))

    # -- access ------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """The full symmetric matrix as a fresh, writable array."""
        return self._a.copy()

    @property
    def array(self) -> np.ndarray:
        """The matrix itself: the read-only array, not a copy. Stacking
        many matrices reads these, with no copy per matrix."""
        return self._a

    def __getitem__(self, ij) -> float:
        i, j = ij
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DimensionError(f"index {(i, j)} out of range for dim {self.dim}")
        return float(self._a[i, j])

    def norm(self) -> float:
        """Frobenius norm (off-diagonals counted twice, as in the full matrix)."""
        return math.sqrt(frob_inner(self, self))

    def is_zero(self) -> bool:
        """True iff every entry is exactly zero."""
        return not self._a.any()

    # -- arithmetic (returns new instances) ---------------------------------

    def scaled(self, c: float) -> "SymMatrix":
        return SymMatrix(float(c) * self._a)

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigenDecomp:
    """Full spectral decomposition A = sum_i lam_i v_i v_i^T.

    eigenvalues are sorted descending; eigenvectors[:, i] is the unit
    eigenvector for eigenvalues[i], orthonormal as a set.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frob_inner(a: SymMatrix, b: SymMatrix) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij.

    Summed over the upper triangle with off-diagonal terms counted twice,
    matching the full double sum.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(frob_inner_many(a._a, b._a))


def eigen(a: SymMatrix) -> EigenDecomp:
    """Eigendecomposition by LAPACK ``eigh``, eigenvalues descending."""
    lam, vec = eigh(a._a)
    return EigenDecomp(lam[::-1].copy(), vec[:, ::-1].copy())


def by_dim(dims) -> list[np.ndarray]:
    """The positions of each value in dims (block dimensions), one index
    array per value in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(dims):
        groups.setdefault(d, []).append(i)
    return [np.array(idx, dtype=np.intp) for idx in groups.values()]


def _stacks(arrays) -> list[tuple[np.ndarray, np.ndarray]]:
    """The arrays of each length as one stack ((k, d, d) for matrices,
    (k, d) for vectors), with their positions in arrays. An array that
    is such a stack already is taken as it is."""
    if isinstance(arrays, np.ndarray):
        return [(np.arange(len(arrays)), arrays)] if len(arrays) else []
    return [
        (idx, np.stack([arrays[i] for i in idx]))
        for idx in by_dim([a.shape[0] for a in arrays])
    ]


def eigh_many(arrays) -> list[tuple[np.ndarray, np.ndarray]]:
    """eigh (eigenvalues ascending) of every symmetric array,
    one stacked call per dimension. LAPACK still factors one matrix at a
    time, so each result is bit for bit that of its own call (and of
    eigen, read in reverse)."""
    out = [None] * len(arrays)
    for idx, stack in _stacks(arrays):
        lam, vec = eigh(stack)
        for k, i in enumerate(idx):
            out[i] = (lam[k], vec[k])
    return out


def is_psd_many(arrays, tol: float = 1e-9) -> np.ndarray:
    """is_psd of every symmetric array in arrays (a SymMatrix's array, or
    a view of one; or a (k, d, d) stack), as one boolean array.

    Each dimension takes one stacked eigh and one stacked norm
    (frob_inner_many), so each flag is the one that matrix alone gets:
    lambda_min(a) >= -tol * max(1, ||a||_F).
    """
    # written so that a NaN fails it
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    flags = np.ones(len(arrays), dtype=bool)
    for idx, stack in _stacks(arrays):
        if stack.shape[-1]:
            # eigh, as eigen: eigvalsh's eigenvalues differ in bits
            lam = eigh(stack)[0][:, 0]
            norm = np.sqrt(frob_inner_many(stack, stack))
            # max(1, norm) as Python's max takes it
            flags[idx] = lam >= -tol * np.where(norm > 1.0, norm, 1.0)
    return flags


def is_psd(a: SymMatrix, tol: float = 1e-9) -> bool:
    """True iff lambda_min(a) >= -tol * max(1, ||a||_F): is_psd_many of
    the one matrix."""
    return bool(is_psd_many([a.array], tol)[0])


def rank_of_eigenvalues(lam: np.ndarray, tol: float = 1e-6) -> int:
    """Count of eigenvalues with |lambda| above the relative threshold.

    The threshold is tol * max(1, |lambda|_max), floored at machine
    epsilon times the dimension so that near-zero matrices of any scale
    report rank 0. lam may be in any order. This is
    rank_of_eigenvalues_many of the one spectrum.
    """
    _check_rank_tol(tol)
    return _ranks(np.asarray(lam, dtype=np.float64)[None], tol)[0]


def rank_of_eigenvalues_many(lams, tol: float = 1e-6) -> list[int]:
    """rank_of_eigenvalues of every spectrum in lams, one stacked test per
    length: the same comparisons, so the same counts (and, as one test
    per spectrum would, a bad tol raises only when there is a spectrum)."""
    if len(lams):
        _check_rank_tol(tol)
    out = [0] * len(lams)
    for idx, stack in _stacks(lams):
        for i, c in zip(idx, _ranks(stack, tol)):
            out[i] = c
    return out


def _check_rank_tol(tol: float) -> None:
    # written so that a NaN fails it
    if not tol > 0:
        raise ValueError("tol must be positive")


def _ranks(stack: np.ndarray, tol: float) -> list[int]:
    """The rank count of each spectrum of a (k, d) stack."""
    d = stack.shape[-1]
    if not d:
        return [0] * len(stack)
    mag = np.abs(stack)
    peak = mag.max(axis=1)
    # max(tol * max(1, peak), eps * d) as Python's max takes it
    rel = tol * np.where(peak > 1.0, peak, 1.0)
    floor = _EPS * d
    return np.sum(mag > np.where(floor > rel, floor, rel)[:, None], axis=1).tolist()


def numeric_rank(a: SymMatrix, tol: float = 1e-6) -> int:
    """rank_of_eigenvalues of a's spectrum."""
    return rank_of_eigenvalues(eigen(a).eigenvalues, tol)
