"""Dense symmetric-matrix numerics.

Every matrix in the package (coefficient matrices, PSD variables, dual
blocks) is a SymMatrix: a real symmetric matrix held as one read-only
dense float64 array. The kernel supplies the handful of operations
everything else is built from: Frobenius inner products, the
eigendecomposition (LAPACK ``eigh`` through numpy, one matrix or a
stack of them), PSD tests and numeric rank.
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


def _triangle_dot(a: np.ndarray, b: np.ndarray) -> float:
    idx, w = _triangle(len(a))
    return float(np.dot(a.take(idx) * b.take(idx), w))


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

    def __getitem__(self, ij) -> float:
        i, j = ij
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DimensionError(f"index {(i, j)} out of range for dim {self.dim}")
        return float(self._a[i, j])

    def norm(self) -> float:
        """Frobenius norm (off-diagonals counted twice, as in the full matrix)."""
        return math.sqrt(_triangle_dot(self._a, self._a))

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
    return _triangle_dot(a._a, b._a)


def eigen(a: SymMatrix) -> EigenDecomp:
    """Eigendecomposition by LAPACK ``eigh``, eigenvalues descending."""
    lam, vec = np.linalg.eigh(a._a)
    return EigenDecomp(lam[::-1].copy(), vec[:, ::-1].copy())


def eigh_many(arrays) -> list[tuple[np.ndarray, np.ndarray]]:
    """np.linalg.eigh (eigenvalues ascending) of every symmetric array,
    one stacked call per dimension. LAPACK still factors one matrix at a
    time, so each result is bit for bit that of its own call (and of
    eigen, read in reverse)."""
    out = [None] * len(arrays)
    by_dim: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        by_dim.setdefault(a.shape[0], []).append(i)
    for idx in by_dim.values():
        lam, vec = np.linalg.eigh(np.stack([arrays[i] for i in idx]))
        for k, i in enumerate(idx):
            out[i] = (lam[k], vec[k])
    return out


def is_psd_many(mats, tol: float = 1e-9) -> np.ndarray:
    """is_psd of every SymMatrix in mats, as one boolean array.

    The spectra come from eigh_many, one stacked eigh per dimension, so
    each flag is the one is_psd gives for that matrix alone: lambda_min(a)
    >= -tol * max(1, ||a||_F), with the norm of SymMatrix.norm.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    flags = np.ones(len(mats), dtype=bool)
    live = [i for i, a in enumerate(mats) if a.dim]
    for i, (lam, _) in zip(live, eigh_many([mats[i]._a for i in live])):
        flags[i] = float(lam[0]) >= -tol * max(1.0, mats[i].norm())
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(lam) == 0:
        return 0
    threshold = max(tol * max(1.0, float(np.max(np.abs(lam)))), _EPS * len(lam))
    return int(np.sum(np.abs(lam) > threshold))


def numeric_rank(a: SymMatrix, tol: float = 1e-6) -> int:
    """rank_of_eigenvalues of a's spectrum."""
    return rank_of_eigenvalues(eigen(a).eigenvalues, tol)
