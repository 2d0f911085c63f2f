"""The stages judge runs once per verdict, around the interior-point loop.

reference_compile is sdp_solver._Problem as a plain loop over blocks and
their active rows, and reference_sums adds each cell of the compile's
four sums one term at a time in block order. The compile must give the
same groups, slots and scalars, and its sums the same bits, on random
block SDPs: mixed dimensions (1x1 blocks among them), blocks without an
active row, and problems with and without slack rows.

The LAPACK budget pins count the numpy.linalg gufunc calls of one judge
outside _Ipm.run, so that the work around the loop cannot grow back
unnoticed.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from sepqcqp import sdp_solver
from sepqcqp.connection import VerdictStatus, judge
from sepqcqp.errors import InfeasibleStructureError
from sepqcqp.examples import make_example51, make_example52
from sepqcqp.qcqp_model import SeparableQcqp
from sepqcqp.sdpr_builder import to_standard_form
from test_sdp_iteration import random_sdp

# ---------------------------------------------------------------------------
# the compile against its loop-shaped reference


def reference_compile(b):
    """(where, where_s, groups, scalars) of b's compile, by loops: groups
    in order of first appearance of their dimension, each (dim, blocks,
    C, A, rows, side) with A[k, j] the k-th active row matrix of slot j
    and rows[k, j, 0, 0] its row (m past the slot's count)."""
    std = to_standard_form(b)
    op = std.operator.take(sdp_solver._presolve(std.operator))
    dims, m = std.block_dims, op.n_rows
    members: dict = {}
    for bi, d in enumerate(dims):
        members.setdefault(d, []).append(bi)
    where, where_s, groups = [None] * len(dims), [None] * len(dims), []
    for gi, (d, blocks) in enumerate(members.items()):
        g = len(blocks)
        kmax = max(len(op.active[bi]) for bi in blocks)
        A = np.zeros((kmax, g, d, d))
        rows = np.full((kmax, g, 1, 1), m, dtype=np.intp)
        for j, bi in enumerate(blocks):
            where[bi], where_s[bi] = (gi, j), (gi, g + j)
            for k, (r, mat) in enumerate(zip(op.active[bi], op.stacks[bi])):
                A[k, j] = mat
                rows[k, j, 0, 0] = r
        side = np.array([0] * g + [1] * g)[:, None, None]
        C = np.array([std.objective[bi].to_dense() for bi in blocks])
        groups.append((d, blocks, C, A, rows, side))
    norms = [float(np.linalg.norm(c.to_dense())) for c in std.objective]
    slack_rows = np.flatnonzero(op.slack_coeffs)
    scalars = {
        "m": m,
        "d_vec": op.rhs,
        "slack_rows": slack_rows,
        "slack_diag": slack_rows * (m + 1),
        "NS": len(slack_rows),
        "n_tot": float(max(sum(dims) + len(slack_rows), 1)),
        "d_scale": 1.0 + float(np.abs(op.rhs).max(initial=0.0)),
        "c_scale": 1.0 + max(norms, default=0.0),
        "vec_side": np.array([0] * len(slack_rows) + [1] * (len(slack_rows) + m) + [0]),
    }
    return where, where_s, groups, scalars


def reference_sums(where, groups, m, parts):
    """The row sums, the flat Schur matrix, the slot sum and the (X, S)
    sums of the groups' parts, each cell added one term at a time in
    block order from +0.0; parts[gi] is group gi's (row part (k, g),
    Schur part (g, k, k), slot part (g,), (X, S) part (2g,))."""
    row, schur, slot, xs = [0.0] * m, [0.0] * (m * m), [0.0], [0.0, 0.0]
    for gi, j in where:
        g = len(groups[gi][1])
        rows = groups[gi][4]
        pr, ps, pt, px = parts[gi]
        live = [int(r) for r in rows[:, j, 0, 0] if r < m]
        for k, r in enumerate(live):
            row[r] += pr[k, j]
            for l, c in enumerate(live):
                schur[r * m + c] += ps[j, k, l]
        slot[0] += pt[j]
        xs[0] += px[j]
        xs[1] += px[g + j]
    return [np.array(x) for x in (row, schur, slot, xs)]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def random_parts(rng, groups):
    """Each group's four sum parts, with signed zeros among the terms."""
    out = []
    for _, blocks, _, A, _, _ in groups:
        k, g = A.shape[:2]
        parts = [rng.standard_normal(shape) for shape in ((k, g), (g, k, k), (g,), (2 * g,))]
        for a in parts:
            a[rng.random(a.shape) < 0.1] = -0.0
        out.append(parts)
    return out


def shape_of(b) -> set:
    """Which of the property's cases b is: a 1x1 block, mixed dims, a
    block without an active row, slack rows."""
    std = to_standard_form(b)
    out = set()
    if 1 in std.block_dims:
        out.add("d=1")
    if len(set(std.block_dims)) > 1:
        out.add("mixed dims")
    if any(len(act) == 0 for act in std.operator.active):
        out.add("no active row")
    out.add("slack rows" if std.operator.slack_coeffs.any() else "no slack row")
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(0)
def test_compile_matches_its_loop_reference(seed):
    b = random_sdp(seed)
    try:
        p = sdp_solver._Problem(b)
    except InfeasibleStructureError:
        with pytest.raises(InfeasibleStructureError):
            reference_compile(b)
        return
    where, where_s, groups, scalars = reference_compile(b)
    assert p.where == where and p.where_s == where_s
    assert len(p.groups) == len(groups)
    for grp, (d, blocks, C, A, rows, side) in zip(p.groups, groups):
        assert (grp.dim, grp.n, grp.block.tolist()) == (d, len(blocks), blocks)
        assert bits(grp.C) == bits(C) and grp.C.shape == C.shape
        assert bits(grp.A) == bits(A) and grp.A.shape == A.shape
        assert grp.rows.dtype == rows.dtype and np.array_equal(grp.rows, rows)
        assert np.array_equal(grp.side, side) and grp.side.shape == side.shape
    for name, want in scalars.items():
        got = getattr(p, name)
        assert np.array_equal(got, want) and bits(got) == bits(want), name
    parts = random_parts(np.random.default_rng(seed), groups)
    got = [
        p.row_sums([x[0] for x in parts]),
        p.schur([x[1] for x in parts]),
        p.slot_sum([x[2] for x in parts]),
        p.xs_sums([x[3] for x in parts]),
    ]
    for a, b_ in zip(got, reference_sums(where, groups, p.m, parts)):
        assert a.shape == b_.shape and bits(a) == bits(b_)


def test_draws_reach_every_shape():
    """The property's draws include every case it is meant to cover."""
    seen = set()
    for seed in range(40):
        seen |= shape_of(random_sdp(seed))
    assert seen == {"d=1", "mixed dims", "no active row", "slack rows", "no slack row"}


# ---------------------------------------------------------------------------
# LAPACK calls of one verdict outside the loop

_GUFUNCS = [
    name for name in dir(_umath_linalg) if isinstance(getattr(_umath_linalg, name), np.ufunc)
]


def calls_outside_the_loop(monkeypatch, s):
    """judge(s) and the numpy.linalg gufunc calls it made outside
    _Ipm.run, by gufunc name (svd is matrix_rank's, svd_f a full svd)."""
    calls, inside = collections.Counter(), collections.Counter()
    for name in _GUFUNCS:

        def counted(*args, _f=getattr(_umath_linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, name, counted)
    run = sdp_solver._Ipm.run

    def counted_run(self):
        before = calls.copy()
        try:
            return run(self)
        finally:
            inside.update(calls - before)

    monkeypatch.setattr(sdp_solver._Ipm, "run", counted_run)
    verdict = judge(s)
    assert sum(inside.values()) > 0
    return verdict, dict(calls - inside)


@pytest.mark.parametrize(
    "make, status",
    [
        (lambda: make_example52(0), VerdictStatus.EXACT_CERTIFIED),
        (
            lambda: SeparableQcqp([make_example51(2.0)], make_example51(2.0).rhs),
            VerdictStatus.EXACT_WITNESSED,
        ),
    ],
    ids=["example52-0", "example51-2.0"],
)
def test_lapack_calls_outside_the_loop(monkeypatch, make, status):
    """Both connections have blocks of two dimensions, and neither
    reduction takes a step. Outside the loop one judge makes: presolve's
    matrix_rank (one singular-value call); per dimension, one eigh for
    the entries' dual-bound PSD tests; two full SVDs, the null-space
    tests of the reduction's system with and without its objective row;
    and three more eigh. On example 5.2 they are rank reduction's
    factors, one per dimension, whose spectra also give the final ranks,
    and the convexity tests of the two 2-variable inhomogeneous entries.
    On example 5.1 the 1x1 block is numerically zero and freezes, so the
    factors take one eigh and the final spectra one per dimension."""
    verdict, calls = calls_outside_the_loop(monkeypatch, make())
    assert verdict.status is status
    assert calls == {"svd": 1, "eigh_lo": 5, "svd_f": 2}
