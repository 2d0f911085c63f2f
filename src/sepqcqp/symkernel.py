"""Dense symmetric-matrix numerics.

Every matrix in the package (coefficient matrices, PSD variables, dual
blocks) is a SymMatrix: a real symmetric matrix held as one read-only
dense float64 array. The kernel supplies the handful of operations
everything else is built from: Frobenius inner products, the
eigendecomposition (LAPACK ``eigh`` through numpy, one matrix or a
stack of them), PSD tests and numeric rank. The *_many forms work on
stacks, one numpy call per dimension, and give each matrix the result
its one-matrix form gives, bit for bit: LAPACK factors a stack one
matrix at a time, and a stacked dot product is one BLAS dot per
C-contiguous row, as np.dot of that row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_EPS = float(np.finfo(np.float64).eps)


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
        return math.sqrt(frob_inner_many(self._a, self._a))

    def is_zero(self) -> bool:
        """True iff every entry is exactly zero."""
        return not self._a.any()

    # -- arithmetic (returns new instances) ---------------------------------

    def _check_same_dim(self, other: "SymMatrix") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix(self._a + other._a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix(self._a - other._a)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self._a)

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
    lam, vec = np.linalg.eigh(a._a)
    return EigenDecomp(lam[::-1].copy(), vec[:, ::-1].copy())


def _stacks(arrays) -> list[tuple[list[int], np.ndarray]]:
    """The arrays of each length as one stack ((k, d, d) for matrices,
    (k, d) for vectors), with their positions in arrays. An array that
    is such a stack already is taken as it is."""
    if isinstance(arrays, np.ndarray):
        return [(list(range(len(arrays))), arrays)] if len(arrays) else []
    by_dim: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        by_dim.setdefault(a.shape[0], []).append(i)
    return [(idx, np.stack([arrays[i] for i in idx])) for idx in by_dim.values()]


def eigh_many(arrays) -> list[tuple[np.ndarray, np.ndarray]]:
    """np.linalg.eigh (eigenvalues ascending) of every symmetric array,
    one stacked call per dimension. LAPACK still factors one matrix at a
    time, so each result is bit for bit that of its own call (and of
    eigen, read in reverse)."""
    out = [None] * len(arrays)
    for idx, stack in _stacks(arrays):
        lam, vec = np.linalg.eigh(stack)
        for k, i in enumerate(idx):
            out[i] = (lam[k], vec[k])
    return out


def is_psd_many(arrays, tol: float = 1e-9) -> np.ndarray:
    """is_psd of every symmetric array in arrays (a SymMatrix's array, or
    a view of one; or a (k, d, d) stack), as one boolean array.

    Each dimension takes one stacked eigh and one stacked norm
    (frob_inner_many), so each flag is the one is_psd gives for that
    matrix alone: lambda_min(a) >= -tol * max(1, ||a||_F).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    flags = np.ones(len(arrays), dtype=bool)
    for idx, stack in _stacks(arrays):
        if stack.shape[-1]:
            # eigh, as is_psd's eigen: eigvalsh's eigenvalues differ in bits
            lam = np.linalg.eigh(stack)[0][:, 0]
            norm = np.sqrt(frob_inner_many(stack, stack))
            # max(1, norm) as Python's max takes it
            flags[idx] = lam >= -tol * np.where(norm > 1.0, norm, 1.0)
    return flags


def is_psd(a: SymMatrix, tol: float = 1e-9) -> bool:
    """True iff lambda_min(a) >= -tol * max(1, ||a||_F)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if a.dim == 0:
        return True
    dec = eigen(a)
    return float(dec.eigenvalues[-1]) >= -tol * max(1.0, a.norm())


def rank_of_eigenvalues(lam: np.ndarray, tol: float = 1e-6) -> int:
    """Count of eigenvalues with |lambda| above the relative threshold.

    The threshold is tol * max(1, |lambda|_max), floored at machine
    epsilon times the dimension so that near-zero matrices of any scale
    report rank 0. lam may be in any order.
    """
    return rank_of_eigenvalues_many([np.asarray(lam, dtype=np.float64)], tol)[0]


def rank_of_eigenvalues_many(lams, tol: float = 1e-6) -> list[int]:
    """rank_of_eigenvalues of every spectrum in lams, one stacked test per
    length: the same comparisons, so the same counts (and, as one test
    per spectrum would, a bad tol raises only when there is a spectrum)."""
    if tol <= 0 and len(lams):
        raise ValueError("tol must be positive")
    out = [0] * len(lams)
    for idx, stack in _stacks(lams):
        d = stack.shape[-1]
        if not d:
            continue
        mag = np.abs(stack)
        peak = mag.max(axis=1)
        # max(tol * max(1, peak), eps * d) as Python's max takes it
        rel = tol * np.where(peak > 1.0, peak, 1.0)
        floor = _EPS * d
        counts = np.sum(mag > np.where(floor > rel, floor, rel)[:, None], axis=1)
        for i, c in zip(idx, counts.tolist()):
            out[i] = c
    return out


def numeric_rank(a: SymMatrix, tol: float = 1e-6) -> int:
    """rank_of_eigenvalues of a's spectrum."""
    return rank_of_eigenvalues(eigen(a).eigenvalues, tol)
