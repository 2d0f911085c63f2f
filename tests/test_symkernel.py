"""Symmetric-matrix kernel: frozen examples plus property tests.

The eigendecomposition is numpy's LAPACK eigh, so the eigen tests pin
what the package adds on top of it: descending order, reconstruction and
orthonormality at desk scale and at the 20- and 50-dimensional blocks
beyond it, repeated eigenvalues, and the rank and PSD thresholds. Plain
numpy (eigvalsh, matrix_rank, dense sums) is the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepqcqp.errors import DimensionError
from sepqcqp.symkernel import (
    SymMatrix,
    eigen,
    eigh_many,
    frob_inner,
    is_psd,
    is_psd_many,
    numeric_rank,
)


def sym(rows):
    return SymMatrix.from_dense(np.asarray(rows, dtype=float))


def random_sym(rng, dim):
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return SymMatrix.from_dense(0.5 * (a + a.T))


def with_spectrum(rng, lam):
    """Symmetric matrix with eigenvalues lam in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return SymMatrix.from_dense(q @ np.diag(lam) @ q.T)


dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestSymMatrix:
    def test_from_dense_symmetrizes(self):
        a = SymMatrix.from_dense(np.array([[1.0, 4.0], [0.0, 2.0]]))
        assert a[0, 1] == 2.0
        assert a[1, 0] == 2.0

    def test_index_order_irrelevant(self):
        a = sym([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        for i in range(3):
            for j in range(3):
                assert a[i, j] == a[j, i]

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        for dim in range(0, 6):
            a = rng.standard_normal((dim, dim))
            a = 0.5 * (a + a.T)
            assert np.array_equal(SymMatrix.from_dense(a).to_dense(), a)

    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(1)
        for dim in range(1, 7):
            m = random_sym(rng, dim)
            assert m.norm() == pytest.approx(np.linalg.norm(m.to_dense()), rel=1e-12)

    def test_arithmetic(self):
        a = sym([[1.0, 2.0], [2.0, 0.0]])
        b = sym([[0.0, 1.0], [1.0, 3.0]])
        assert np.array_equal((a + b).to_dense(), a.to_dense() + b.to_dense())
        assert np.array_equal((a - b).to_dense(), a.to_dense() - b.to_dense())
        assert np.array_equal(a.scaled(-2.0).to_dense(), -2.0 * a.to_dense())
        assert (a - a).is_zero()
        assert not a.is_zero()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            SymMatrix.from_dense(np.zeros((2, 3)))

    def test_storage_is_read_only(self):
        a = sym([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            a._a[0, 0] = 5.0
        dense = a.to_dense()
        dense[0, 1] = 7.0
        dense[1, 1] = 7.0
        assert a[0, 1] == 2.0
        assert a[1, 1] == 0.0
        assert a.to_dense()[0, 1] == 2.0


class TestFrobInner:
    def test_frozen_example(self):
        # sum_ij a_ij b_ij with both off-diagonal copies counted
        a = sym([[1.0, 2.0], [2.0, 0.0]])
        b = sym([[0.0, 1.0], [1.0, 3.0]])
        assert frob_inner(a, b) == pytest.approx(4.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            frob_inner(SymMatrix.zeros(2), SymMatrix.zeros(3))

    @given(dims, seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_trace(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = random_sym(rng, dim), random_sym(rng, dim)
        want = float(np.sum(a.to_dense() * b.to_dense()))
        assert frob_inner(a, b) == pytest.approx(want, abs=1e-12)

    @given(dims, seeds)
    @settings(max_examples=60, deadline=None)
    def test_quadratic_form_identity(self, dim, seed):
        # <A, x x^T> = x^T A x
        rng = np.random.default_rng(seed)
        a = random_sym(rng, dim)
        x = rng.uniform(-1.0, 1.0, size=dim)
        want = float(x @ a.to_dense() @ x)
        got = frob_inner(a, SymMatrix.from_dense(np.outer(x, x)))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEigen:
    def test_frozen_2x2(self):
        dec = eigen(sym([[2.0, -1.0], [-1.0, 2.0]]))
        assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_frozen_rank_one(self):
        u = np.array([3.0, 4.0])
        dec = eigen(SymMatrix.from_dense(np.outer(u, u)))
        assert dec.eigenvalues[0] == pytest.approx(25.0, abs=1e-10)
        assert dec.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)

    def test_empty_and_scalar(self):
        assert eigen(SymMatrix.zeros(0)).eigenvalues.shape == (0,)
        dec = eigen(sym([[-5.0]]))
        assert dec.eigenvalues[0] == -5.0
        assert dec.eigenvectors[0, 0] == 1.0

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        for dim in range(2, 8):
            vals = eigen(random_sym(rng, dim)).eigenvalues
            assert np.all(np.diff(vals) <= 0)

    @given(dims, seeds)
    @example(20, 3)
    @example(50, 4)
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_and_orthonormality(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = random_sym(rng, dim)
        dec = eigen(a)
        v, lam = dec.eigenvectors, dec.eigenvalues
        scale = max(1.0, a.norm())
        assert np.linalg.norm(v @ np.diag(lam) @ v.T - a.to_dense()) <= 1e-9 * scale
        assert np.linalg.norm(v.T @ v - np.eye(dim)) <= 1e-9

    @given(dims, seeds)
    @example(20, 3)
    @example(50, 4)
    @settings(max_examples=80, deadline=None)
    def test_eigenvalues_match_numpy(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = random_sym(rng, dim)
        got = eigen(a).eigenvalues
        want = np.linalg.eigvalsh(a.to_dense())[::-1]
        assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("dim", [3, 8, 20, 50])
    def test_repeated_eigenvalue(self, dim):
        # a triple eigenvalue 2 above a random spectrum inside [-1, 1]
        rng = np.random.default_rng(dim)
        want = np.concatenate([[2.0, 2.0, 2.0], rng.uniform(-1.0, 1.0, dim - 3)])
        a = with_spectrum(rng, want)
        want = np.sort(want)[::-1]
        dec = eigen(a)
        v, lam = dec.eigenvectors, dec.eigenvalues
        assert np.allclose(lam, want, atol=1e-12)
        assert np.linalg.norm(v @ np.diag(lam) @ v.T - a.to_dense()) <= 1e-9
        assert np.linalg.norm(v.T @ v - np.eye(dim)) <= 1e-9


class TestIsPsd:
    def test_frozen_cases(self):
        assert is_psd(sym([[2.0, -1.0], [-1.0, 2.0]]))
        assert not is_psd(sym([[0.0, 1.0], [1.0, 0.0]]))
        assert is_psd(SymMatrix.zeros(3))
        assert is_psd(SymMatrix.identity(3))

    def test_tolerance_scales_with_norm(self):
        # tiny negative eigenvalue is accepted relative to the matrix scale
        a = sym([[1e6, 0.0], [0.0, -1e-5]])
        assert is_psd(a, tol=1e-9)
        assert not is_psd(sym([[1.0, 0.0], [0.0, -1e-5]]), tol=1e-9)


class TestStacked:
    """eigh_many and is_psd_many against one call per matrix, bit for bit:
    LAPACK factors a stack one matrix at a time."""

    @given(seeds, st.lists(st.integers(min_value=0, max_value=6), max_size=12))
    @settings(max_examples=30)
    def test_match_one_call_per_matrix(self, seed, sizes):
        rng = np.random.default_rng(seed)
        mats = []
        for d in sizes:
            # shift some spectra to straddle zero, so both flags occur
            shift = float(rng.choice([0.0, 0.5, 2.0])) * np.eye(d)
            mats.append(SymMatrix.from_dense(random_sym(rng, d).to_dense() + shift))
        live = [a for a in mats if a.dim]
        for a, (lam, vec) in zip(live, eigh_many([a.to_dense() for a in live])):
            dec = eigen(a)
            assert lam.tobytes() == dec.eigenvalues[::-1].tobytes()
            assert vec.tobytes() == np.ascontiguousarray(dec.eigenvectors[:, ::-1]).tobytes()
        for tol in (1e-9, 0.1):
            flags = is_psd_many([a.array for a in mats], tol)
            assert flags.dtype == bool and flags.shape == (len(mats),)
            assert list(flags) == [is_psd(a, tol) for a in mats]
            for a, flag in zip(mats, flags):
                if a.dim:
                    # eigvalsh is the oracle away from the threshold
                    lam_min = float(np.linalg.eigvalsh(a.to_dense())[0])
                    cut = -tol * max(1.0, a.norm())
                    if abs(lam_min - cut) > 1e-12:
                        assert flag == (lam_min >= cut)

    def test_empty_and_negative_tol(self):
        assert is_psd_many([]).shape == (0,)
        assert eigh_many([]) == []
        with pytest.raises(ValueError):
            is_psd_many([np.eye(2)], tol=-1.0)


class TestNumericRank:
    def test_frozen_cases(self):
        assert numeric_rank(SymMatrix.zeros(4)) == 0
        assert numeric_rank(SymMatrix.identity(3)) == 3
        assert numeric_rank(sym([[1.0, 0.0], [0.0, 1e-12]]), tol=1e-6) == 1
        u = np.array([1.0, -2.0, 3.0])
        assert numeric_rank(SymMatrix.from_dense(np.outer(u, u))) == 1

    def test_relative_threshold(self):
        # both eigenvalues large: full rank even though ratio is 1e-3
        a = sym([[1e9, 0.0], [0.0, 1e6]])
        assert numeric_rank(a, tol=1e-6) == 2

    @given(dims, seeds, st.integers(min_value=0, max_value=8))
    @example(20, 5, 7)
    @example(50, 6, 8)
    @settings(max_examples=60, deadline=None)
    def test_factor_rank(self, dim, seed, r):
        r = min(r, dim)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((dim, r))
        x = f @ f.T
        # same relative threshold as numeric_rank so the oracles agree on
        # ill-conditioned draws
        lam_max = float(np.abs(np.linalg.eigvalsh(x)).max()) if dim else 0.0
        got = numeric_rank(SymMatrix.from_dense(x))
        assert got == np.linalg.matrix_rank(x, tol=1e-6 * max(1.0, lam_max))

    @pytest.mark.parametrize("dim", [3, 8, 20, 50])
    def test_repeated_eigenvalue(self, dim):
        # a triple eigenvalue 2, further ones in [0.5, 1], the rest zero
        rng = np.random.default_rng(dim)
        r = max(3, dim // 2)
        lam = np.zeros(dim)
        lam[:3] = 2.0
        lam[3:r] = rng.uniform(0.5, 1.0, r - 3)
        assert numeric_rank(with_spectrum(rng, lam)) == r
