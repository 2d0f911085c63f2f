"""Symmetric-matrix kernel: frozen examples plus property tests.

The eigendecomposition is numpy's LAPACK eigh, so the eigen tests pin
what the package adds on top of it: descending order, reconstruction and
orthonormality at desk scale and at the 20- and 50-dimensional blocks
beyond it, repeated eigenvalues, and the rank and PSD thresholds. Plain
numpy (eigvalsh, matrix_rank, dense sums) is the oracle.
"""

import importlib.util
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepqcqp import symkernel
from sepqcqp.errors import DimensionError
from sepqcqp.symkernel import (
    SymMatrix,
    eigen,
    eigh_many,
    frob_inner,
    is_psd,
    is_psd_many,
    numeric_rank,
    rank_of_eigenvalues,
    rank_of_eigenvalues_many,
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
        assert np.array_equal(a.scaled(-2.0).to_dense(), -2.0 * a.to_dense())
        assert a.scaled(0.0).is_zero()
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

    def test_negative_tol_rejected(self):
        for a in (SymMatrix.zeros(0), SymMatrix.identity(2)):
            with pytest.raises(ValueError, match="tol"):
                is_psd(a, tol=-1e-9)

    def test_nan_tol_rejected(self):
        for a in (SymMatrix.zeros(0), SymMatrix.identity(2)):
            with pytest.raises(ValueError, match="tol"):
                is_psd(a, float("nan"))

    @given(seeds)
    @settings(max_examples=40)
    def test_matches_the_one_matrix_eigen_test(self, seed):
        """is_psd, now is_psd_many of one matrix, against the test it
        replaced (eigen's smallest eigenvalue against the norm), bit for
        bit: matrices of every scale with lambda_min set on, just above
        and just below the threshold."""
        rng = np.random.default_rng(seed)
        for d in range(0, 7):
            lam = rng.uniform(0.0, 2.0, size=d) * 10.0 ** float(rng.integers(-6, 7))
            for tol in (1e-9, 1e-3):
                for step in (-1, 0, 1):
                    if d:
                        cut = -tol * max(1.0, float(np.linalg.norm(lam)))
                        lam[np.argmin(lam)] = cut + step * abs(cut) * 1e-12
                    a = with_spectrum(rng, lam) if d else SymMatrix.zeros(0)
                    assert is_psd(a, tol) is parent_is_psd(a, tol)


def parent_is_psd(a, tol=1e-9):
    """is_psd as it read before it became is_psd_many of one matrix."""
    if a.dim == 0:
        return True
    return float(eigen(a).eigenvalues[-1]) >= -tol * max(1.0, a.norm())


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
        for arrays in ([], [np.eye(2)]):
            with pytest.raises(ValueError, match="tol"):
                is_psd_many(arrays, tol=float("nan"))


class TestNumericRank:
    def test_frozen_cases(self):
        assert numeric_rank(SymMatrix.zeros(4)) == 0
        assert numeric_rank(SymMatrix.identity(3)) == 3
        assert numeric_rank(sym([[1.0, 0.0], [0.0, 1e-12]]), tol=1e-6) == 1
        u = np.array([1.0, -2.0, 3.0])
        assert numeric_rank(SymMatrix.from_dense(np.outer(u, u))) == 1

    def test_nan_tol_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="tol"):
            rank_of_eigenvalues(np.array([1.0, 2.0]), nan)
        with pytest.raises(ValueError, match="tol"):
            rank_of_eigenvalues_many([np.array([1.0])], nan)
        with pytest.raises(ValueError, match="tol"):
            numeric_rank(SymMatrix.identity(2), nan)
        # as for a tol <= 0: without a spectrum there is nothing to count
        assert rank_of_eigenvalues_many([], nan) == []

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


# ---------------------------------------------------------------------------
# the LAPACK layer against numpy.linalg

#: each function of the layer with the numpy.linalg function it stands for
_LAPACK = {
    "eigh": (symkernel.eigh, np.linalg.eigh),
    "eigvalsh": (symkernel.eigvalsh, np.linalg.eigvalsh),
    "cholesky": (symkernel.cholesky, np.linalg.cholesky),
    "solve": (symkernel.solve, np.linalg.solve),
    "inv": (symkernel.inv, np.linalg.inv),
    "svd": (symkernel.svd, np.linalg.svd),
}


@st.composite
def lapack_calls(draw):
    """(name, args): one matrix or a stack of 0-4 (dimension 0-6) that is
    SPD, singular (a zero row and column), indefinite, nonsymmetric or
    lower triangular, maybe with a NaN or infinite entry (not for svd),
    maybe passed as a transposed view; solve's right-hand side has 0-3
    columns."""
    name = draw(st.sampled_from(sorted(_LAPACK)))
    k = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    d = draw(st.integers(min_value=0, max_value=6))
    kind = draw(st.sampled_from(["spd", "singular", "indefinite", "general", "lower"]))
    # LAPACK's svd can hang on a non-finite entry (numpy's does too), so
    # svd draws finite matrices only
    poisons = [None] if name == "svd" else [None, math.nan, math.inf, -math.inf]
    poison = draw(st.sampled_from(poisons))
    transposed = draw(st.booleans())
    rng = np.random.default_rng(draw(seeds))
    batch = () if k is None else (k,)
    g = rng.standard_normal(batch + (d, d))
    if kind in ("spd", "singular"):
        a = g @ g.swapaxes(-1, -2) + 0.1 * np.eye(d)
        if kind == "singular" and d:
            j = int(rng.integers(d))
            a[..., j, :] = 0.0
            a[..., :, j] = 0.0
    elif kind == "indefinite":
        a = g + g.swapaxes(-1, -2)
    elif kind == "general":
        a = g
    else:
        a = np.tril(g) + d * np.eye(d)
    if poison is not None and a.size:
        a.flat[int(rng.integers(a.size))] = poison
    if transposed:
        # as _cholesky_solve passes a factor: the transpose, not a copy
        a = a.swapaxes(-1, -2)
    if name != "solve":
        return name, (a,)
    n = int(rng.integers(4))
    b = rng.standard_normal(batch + ((n, d) if transposed else (d, n)))
    return name, (a, b.swapaxes(-1, -2) if transposed else b)


def _outcome(f, args):
    """(results as (dtype, shape, bytes) triples, None), or (None, message)
    when f raised LinAlgError; the error state must be as it was either
    way."""
    state = np.geterr()
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return None, str(exc)
    finally:
        assert np.geterr() == state
    out = out if isinstance(out, tuple) else (out,)
    return [(a.dtype, a.shape, a.tobytes()) for a in out], None


def _same_as_numpy(name, args):
    """The layer's outcome of one call, asserted equal to numpy.linalg's."""
    ours, theirs = _LAPACK[name]
    want = _outcome(theirs, args)
    assert _outcome(ours, args) == want
    return want


class TestLapackLayer:
    """Each layer function is numpy.linalg's function of its name, bit for
    bit: the same bytes and shapes, or the same LinAlgError."""

    @given(lapack_calls())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_linalg(self, call):
        _same_as_numpy(*call)

    @pytest.mark.parametrize(
        "name, args, message",
        [
            ("cholesky", (-np.eye(3),), "Matrix is not positive definite"),
            ("inv", (np.zeros((2, 3, 3)),), "Singular matrix"),
            ("solve", (np.zeros((2, 2)), np.ones((2, 1))), "Singular matrix"),
        ],
    )
    def test_raises_as_numpy_linalg(self, name, args, message):
        """The failures the solver catches raise numpy's LinAlgError under
        any outer error state, and leave that state as it was."""
        with np.errstate(all="ignore"):
            assert _same_as_numpy(name, args) == (None, message)


@given(
    st.sampled_from([None, 1, 3]),
    st.integers(min_value=1, max_value=7),
    st.sampled_from(["spd", "indefinite"]),
    seeds,
    st.lists(
        st.one_of(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]), st.floats()),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=200, deadline=None)
@example(None, 3, "spd", 0, [math.nan])
@example(1, 2, "indefinite", 0, [math.inf])
def test_cholesky_reads_only_the_lower_triangle(k, d, kind, seed, garbage):
    """numpy's cholesky, and the layer's, factor a matrix with anything
    above the diagonal, NaN and inf included, to the bytes of the
    symmetric matrix, or fail as it fails: the upper triangle of a
    matrix to be factored need not be written."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(((k,) if k else ()) + (d, d))
    a = g @ g.swapaxes(-1, -2) + 0.1 * np.eye(d) if kind == "spd" else g + g.swapaxes(-1, -2)
    dirty = a.copy()
    iu = np.triu_indices(d, 1)
    upper = dirty[..., iu[0], iu[1]]
    upper[...] = np.resize(np.array(garbage), upper.shape)
    dirty[..., iu[0], iu[1]] = upper
    for f in (np.linalg.cholesky, symkernel.cholesky):
        assert _outcome(f, (dirty,)) == _outcome(f, (a,))


# ---------------------------------------------------------------------------
# the error state each layer function enters, built once

#: a failing call of each layer function, the message it raises, and a
#: call that succeeds
_FAILING = {
    "eigh": ((np.full((3, 3), np.nan),), "Eigenvalues did not converge", (np.eye(2),)),
    "eigvalsh": ((np.full((2, 3, 3), np.nan),), "Eigenvalues did not converge", (np.eye(2),)),
    "cholesky": ((-np.eye(3),), "Matrix is not positive definite", (np.eye(2),)),
    "solve": ((np.zeros((2, 2)), np.ones((2, 1))), "Singular matrix", (np.eye(2), np.ones((2, 1)))),
    "inv": ((np.zeros((2, 3, 3)),), "Singular matrix", (np.eye(2),)),
    "svd": ((np.full((3, 3), np.nan),), "SVD did not converge", (np.eye(2),)),
}


def _own_error_under(name: str, outer: str) -> None:
    """Call name's failing and succeeding calls under an outer error state
    that would turn its failure into something else: invalid="raise" (a
    FloatingPointError) or a call= handler (a call, and no error). The
    function raises its own LinAlgError, never calls the handler, and
    leaves np.geterr() and np.geterrcall() as it found them."""
    f = getattr(symkernel, name)
    bad, message, good = _FAILING[name]
    called = []

    def handler(err, flag):
        called.append(err)

    kwargs = {"invalid": "raise"} if outer == "raise" else {"call": handler, "all": "call"}
    with np.errstate(**kwargs):
        state = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError) as info:
            f(*bad)
        assert str(info.value) == message
        assert (np.geterr(), np.geterrcall()) == state
        f(*good)
        assert (np.geterr(), np.geterrcall()) == state
    assert not called


class TestErrorState:
    @pytest.mark.parametrize("outer", ["raise", "call"])
    @pytest.mark.parametrize("name", sorted(_FAILING))
    def test_raises_its_own_error_under_any_outer_state(self, name, outer):
        _own_error_under(name, outer)

    def test_in_a_second_thread(self):
        """A thread starts from numpy's default error state; the layer's
        state is entered and left there as in the main thread, whose state
        the thread leaves alone."""
        errors = []

        def work():
            try:
                for name in sorted(_FAILING):
                    for outer in ("raise", "call"):
                        _own_error_under(name, outer)
            except (Exception, pytest.fail.Exception) as exc:
                errors.append(exc)

        state = np.geterr(), np.geterrcall()
        with np.errstate(divide="raise"):
            inside = np.geterr(), np.geterrcall()
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert (np.geterr(), np.geterrcall()) == inside
        assert not errors, errors
        assert (np.geterr(), np.geterrcall()) == state


# ---------------------------------------------------------------------------
# the layer without numpy's private error-state internals


@pytest.fixture(scope="module")
def fallback():
    """symkernel loaded once more while numpy's _make_extobj and
    _extobj_contextvar are hidden, as a numpy release without them would
    leave it: the copy enters one np.errstate per call. The copy is not
    registered in sys.modules, so every other test keeps the fast path."""
    from numpy._core import umath

    hidden = {name: getattr(umath, name) for name in ("_make_extobj", "_extobj_contextvar")}
    for name in hidden:
        delattr(umath, name)
    try:
        spec = importlib.util.spec_from_file_location(
            "sepqcqp._symkernel_fallback", symkernel.__file__
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name, value in hidden.items():
            setattr(umath, name, value)
    return module


class TestErrstateFallback:
    def test_takes_the_fallback(self, fallback):
        assert fallback._enter is not symkernel._enter
        assert isinstance(fallback._SINGULAR, dict)

    @given(lapack_calls())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_fast_path(self, fallback, call):
        name, args = call
        fast, slow = getattr(symkernel, name), getattr(fallback, name)
        assert _outcome(slow, args) == _outcome(fast, args)

    @pytest.mark.parametrize("name", sorted(_FAILING))
    def test_same_errors_as_the_fast_path(self, fallback, name):
        """The failing call raises the fast path's LinAlgError message
        under an outer error state that would turn it into something else,
        and the succeeding call gives its bytes; np.geterr() is as it was
        after each (_outcome)."""
        bad, message, good = _FAILING[name]
        f = getattr(fallback, name)
        with np.errstate(invalid="raise"):
            assert _outcome(f, bad) == (None, message)
        assert _outcome(f, good) == _outcome(getattr(symkernel, name), good)
