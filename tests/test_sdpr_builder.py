"""Relaxation builders: structural contracts, lift consistency, and the
one-entry connections against the row assembly they replaced."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp.errors import StructureError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    connect,
    eval as eval_quad,
    hom_values,
    is_feasible,
    lift,
)
from sepqcqp.connection import judge, make_example52
from sepqcqp.sdpr_builder import (
    BlockSdp,
    Row,
    RowOperator,
    build_block,
    build_hom,
    build_shor,
    to_standard_form,
)
from sepqcqp.sdp_solver import solve
from sepqcqp.symkernel import SymMatrix, frob_inner


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def tiny_qcqp():
    # min u^2 s.t. u^2 <= 1
    return Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])


def row_values(b, blocks):
    """[objective, row 1..] of b at the PSD blocks, through b's operator."""
    obj = sum(frob_inner(m, x) for m, x in zip(b.objective, blocks))
    return np.concatenate([[obj], b.operator.apply([x.to_dense() for x in blocks])])


def hom_two_blocks():
    c0 = [SymMatrix.identity(2), SymMatrix.from_dense(np.diag([1.0, -1.0])),
          SymMatrix.zeros(2), SymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])]
    c1 = [SymMatrix.from_dense([[-1.0]]), SymMatrix.zeros(1),
          SymMatrix.from_dense([[1.0]]), SymMatrix.from_dense([[1.0]])]
    return HomSepQcqp(
        [c0, c1], [Relation.EQ, Relation.LE, Relation.LE], [1.0, 0.0, 0.0]
    )


class TestBuildShor:
    def test_tiny_shape(self):
        b = build_shor(tiny_qcqp())
        assert b.block_dims == (2,)
        assert b.n_rows == 2
        # constraint row: <B_1, X> + s = 1
        assert b.rows[0].slack_coeff == 1
        assert b.rows[0].rhs == 1.0
        assert b.rows[0].origin == 0
        # normalization row: X_22 = 1
        assert b.normalization_rows == {1}
        assert b.rows[1].slack_coeff == 0
        assert b.rows[1].mats[0][1, 1] == 1.0
        assert b.rows[1].mats[0][0, 0] == 0.0
        assert b.slack_signs == (1, 0)

    def test_relation_slack_signs(self):
        cons = [
            (qf([[1.0]]), Relation.LE),
            (qf([[2.0]]), Relation.EQ),
            (qf([[3.0]]), Relation.GE),
        ]
        b = build_shor(Qcqp(1, qf([[1.0]]), cons, [1.0, 2.0, 3.0]))
        assert [r.slack_coeff for r in b.rows[:3]] == [1, 0, -1]

    def test_zero_constraint_problem(self):
        b = build_shor(Qcqp(1, qf([[1.0]]), [], []))
        assert b.n_rows == 1 and b.normalization_rows == {0}

    def test_zero_row_dropped_with_warning(self):
        cons = [(QuadFunc.zero(1), Relation.LE), (qf([[1.0]]), Relation.LE)]
        with pytest.warns(UserWarning, match="zero"):
            b = build_shor(Qcqp(1, qf([[1.0]]), cons, [0.0, 1.0]))
        assert b.dropped_rows == (0,)
        assert [r.origin for r in b.rows] == [1, -1]

    def test_zero_row_nonzero_rhs_kept(self):
        cons = [(QuadFunc.zero(1), Relation.LE)]
        b = build_shor(Qcqp(1, qf([[1.0]]), cons, [5.0]))
        assert b.dropped_rows == () and b.n_rows == 2


class TestBuildHom:
    def test_shape(self):
        b = build_hom(hom_two_blocks())
        assert b.block_dims == (2, 1)
        assert b.n_rows == 3
        assert b.normalization_rows == frozenset()
        assert [r.slack_coeff for r in b.rows] == [0, 1, 1]
        assert [r.rhs for r in b.rows] == [1.0, 0.0, 0.0]

    def test_lift_preserves_row_values(self):
        h = hom_two_blocks()
        b = build_hom(h)
        v1, v2 = np.array([1.0, 0.5]), np.array([2.0])
        blocks = [
            SymMatrix.from_dense(np.outer(v1, v1)),
            SymMatrix.from_dense(np.outer(v2, v2)),
        ]
        got = row_values(b, blocks)
        want = hom_values(h, [v1, v2])
        assert got == pytest.approx(want)


class TestBuildBlock:
    def test_single_entry_matches_shor(self):
        q = Qcqp(
            2,
            qf(np.eye(2), [1.0, 0.0]),
            [(qf([[1.0, 0.5], [0.5, 0.0]]), Relation.LE),
             (qf([[0.0, 0.0], [0.0, 1.0]]), Relation.EQ)],
            [1.0, 2.0],
        )
        shor = build_shor(q)
        blk = build_block(SeparableQcqp([q], q.rhs))
        assert blk.block_dims == shor.block_dims
        assert blk.normalization_rows == shor.normalization_rows
        assert blk.n_rows == shor.n_rows
        for ra, rb in zip(blk.rows, shor.rows):
            assert ra.slack_coeff == rb.slack_coeff
            assert ra.rhs == rb.rhs
            assert all((ma - mb).is_zero() for ma, mb in zip(ra.mats, rb.mats))

    def test_mixed_connection_shape(self):
        # 2 inhomogeneous entries + 1 homogeneous entry with 3 sub-blocks,
        # 7 shared rows: expect 5 PSD blocks, 7 coupled + 2 normalization rows
        m = 7
        rels = [Relation.EQ, Relation.GE] + [Relation.LE] * 5
        rng = np.random.default_rng(0)

        def inhom(n):
            cons = [(qf(rng.standard_normal((n, n))), r) for r in rels]
            return Qcqp(n, qf(np.eye(n)), cons, np.arange(1.0, m + 1))

        hom_blocks = [
            [SymMatrix.from_dense(rng.standard_normal((d, d)) + np.eye(d) * 3)
             for _ in range(m + 1)]
            for d in (2, 2, 1)
        ]
        h = HomSepQcqp(hom_blocks, rels, np.arange(1.0, m + 1))
        s = connect([inhom(1), inhom(2), h], np.arange(1.0, m + 1))
        b = build_block(s)
        assert b.block_dims == (2, 3, 2, 2, 1)
        assert b.block_owner == (0, 1, 2, 2, 2)
        assert b.n_rows == 9
        assert len(b.normalization_rows) == 2
        coupled = [i for i in range(b.n_rows) if i not in b.normalization_rows]
        assert coupled == list(range(7))
        # normalization rows touch exactly their own block's corner
        for i in sorted(b.normalization_rows):
            row = b.rows[i]
            nonzero = [j for j, mm in enumerate(row.mats) if not mm.is_zero()]
            assert len(nonzero) == 1 and row.rhs == 1.0

    def test_lift_feasible_point(self):
        a = Qcqp(1, qf([[1.0]], [1.0]), [(qf([[1.0]]), Relation.LE)], [4.0])
        c = Qcqp(2, qf(np.eye(2)), [(qf([[1.0, 0.0], [0.0, 1.0]]), Relation.LE)], [4.0])
        s = connect([a, c], [6.0])
        b = build_block(s)
        parts = [np.array([1.0]), np.array([0.5, -1.0])]
        assert is_feasible(a, parts[0], 1e-9)
        vals = row_values(b, [lift(u) for u in parts])
        want = eval_quad(a.constraints[0][0], parts[0]) + eval_quad(
            c.constraints[0][0], parts[1]
        )
        assert vals[1] == pytest.approx(want)
        assert vals[2] == pytest.approx(1.0)  # first normalization row
        assert vals[3] == pytest.approx(1.0)
        want_obj = eval_quad(a.objective, parts[0]) + eval_quad(c.objective, parts[1])
        assert vals[0] == pytest.approx(want_obj)

    @pytest.mark.parametrize("seed", range(3))
    def test_lifted_points_give_row_and_objective_values(self, seed):
        # at the lift of any point, every row of build_block reads the sum
        # of the entries' function values and the objective their total
        s = make_example52(seed)
        b = build_block(s)
        rng = np.random.default_rng(seed)
        blocks, want = [], np.zeros(s.m + 1)
        for entry in s.blocks:
            if isinstance(entry, Qcqp):
                u = rng.standard_normal(entry.n)
                blocks.append(lift(u))
                funcs = [entry.objective] + [f for f, _ in entry.constraints]
                want += [eval_quad(f, u) for f in funcs]
            else:
                vs = [rng.standard_normal(d) for d in entry.dims]
                blocks += [SymMatrix.from_dense(np.outer(v, v)) for v in vs]
                want += hom_values(entry, vs)
        got = row_values(b, blocks)
        origins = [r.origin for r in b.rows]
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
        for i, k in enumerate(origins):
            expect = 1.0 if k < 0 else want[k + 1]
            np.testing.assert_allclose(got[i + 1], expect, rtol=1e-12, atol=1e-12)


class TestStandardForm:
    def test_all_eq_identity(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.EQ)], [1.0])
        b = build_shor(q)
        std = to_standard_form(b)
        assert std.n_rows == b.n_rows
        for ra, rb in zip(std.rows, b.rows):
            assert ra.slack_coeff == rb.slack_coeff and ra.rhs == rb.rhs

    def test_ge_negated(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.GE)], [1.0])
        std = to_standard_form(build_shor(q))
        row = std.rows[0]
        assert row.slack_coeff == 1
        assert row.rhs == -1.0
        assert row.mats[0][0, 0] == -1.0

    def test_idempotent(self):
        cons = [
            (qf([[1.0]]), Relation.LE),
            (qf([[2.0]]), Relation.GE),
            (qf([[3.0]]), Relation.EQ),
        ]
        b = to_standard_form(build_shor(Qcqp(1, qf([[1.0]]), cons, [1.0, 2.0, 3.0])))
        again = to_standard_form(b)
        for ra, rb in zip(again.rows, b.rows):
            assert ra.slack_coeff == rb.slack_coeff and ra.rhs == rb.rhs
            assert all((ma - mb).is_zero() for ma, mb in zip(ra.mats, rb.mats))

    def test_built_once(self):
        # a standard-form input is its own standard form; any other input
        # keeps the one it was given, and with it one compiled operator
        std_in = build_shor(tiny_qcqp())
        assert to_standard_form(std_in) is std_in
        cons = [(qf([[1.0]]), Relation.GE), (qf([[2.0]]), Relation.LE)]
        b = build_shor(Qcqp(1, qf([[1.0]]), cons, [1.0, 2.0]))
        std = to_standard_form(b)
        assert std is not b
        assert to_standard_form(b) is std and to_standard_form(std) is std
        assert std.operator is std.operator


class TestBlockSdpValidation:
    def test_normalization_row_must_be_equality(self):
        mats = (SymMatrix.identity(2),)
        rows = [Row(mats, 1, 1.0)]
        with pytest.raises(StructureError):
            BlockSdp((2,), (SymMatrix.zeros(2),), rows, normalization_rows={0})

    def test_bad_slack_coeff(self):
        with pytest.raises(StructureError):
            BlockSdp(
                (2,),
                (SymMatrix.zeros(2),),
                [Row((SymMatrix.identity(2),), 2, 1.0)],
            )


class TestRowOperator:
    """The compiled operator against the plain loop over (row, block) pairs
    it replaces, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_apply_dense_and_take_match_the_loop(self, seed):
        b = to_standard_form(build_block(make_example52(seed)))
        op = RowOperator(b.rows, b.block_dims)
        rng = np.random.default_rng(seed)
        xs = []
        for d in b.block_dims:
            a = rng.standard_normal((d, d))
            xs.append(a + a.T)
        loop = np.array([
            sum(float(np.sum(m.to_dense() * x)) for m, x in zip(row.mats, xs))
            for row in b.rows
        ])
        np.testing.assert_array_equal(op.apply(xs), loop)

        slack_rows = [i for i, r in enumerate(b.rows) if r.slack_coeff]
        dense = op.dense()
        for i, row in enumerate(b.rows):
            flat = np.concatenate([m.to_dense().ravel() for m in row.mats])
            np.testing.assert_array_equal(dense[i, : len(flat)], flat)
            tail = np.zeros(len(slack_rows))
            if row.slack_coeff:
                tail[slack_rows.index(i)] = row.slack_coeff
            np.testing.assert_array_equal(dense[i, len(flat) :], tail)

        keep = [i for i in range(len(b.rows)) if i % 2 == 0]
        part = op.take(keep)
        np.testing.assert_array_equal(part.apply(xs), loop[keep])
        np.testing.assert_array_equal(part.rhs, op.rhs[keep])
        for act, stack, full_act in zip(part.active, part.stacks, op.active):
            assert list(np.asarray(keep)[act]) == [i for i in full_act if i % 2 == 0]
            assert len(stack) == len(act)

    def test_operator_is_shared_and_read_only(self):
        b = build_block(make_example52(0))
        op = b.operator
        assert b.operator is op
        for arrays in (op.active, op.stacks, [op.slack_coeffs, op.rhs]):
            for a in arrays:
                with pytest.raises(ValueError):
                    a[...] = 0

    @pytest.mark.parametrize("seed", range(4))
    def test_with_row_matches_compiling_the_row(self, seed):
        b = to_standard_form(build_block(make_example52(seed)))
        extended = b.operator.with_row(b.objective)
        plain = RowOperator(b.rows + (Row(b.objective, 0, 0.0),), b.block_dims)
        assert extended.n_rows == plain.n_rows == b.n_rows + 1
        for got, want in zip(extended.active, plain.active):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(extended.stacks, plain.stacks):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(extended.slack_coeffs, plain.slack_coeffs)
        np.testing.assert_array_equal(extended.rhs, plain.rhs)


class TestBuildBlockSharing:
    def test_normalization_rows_share_one_zero_per_dimension(self):
        entries = [
            Qcqp(n, qf(np.eye(n)), [(qf(np.eye(n)), Relation.LE)], [float(n)])
            for n in (1, 2, 2, 1, 3)
        ]
        s = SeparableQcqp(entries, [9.0])
        b = build_block(s)
        norm = [b.rows[i] for i in sorted(b.normalization_rows)]
        assert len(norm) == len(entries)
        zeros = {}
        for bi, row in enumerate(norm):
            for bj, mat in enumerate(row.mats):
                if bj == bi:
                    assert mat[mat.dim - 1, mat.dim - 1] == 1.0
                else:
                    assert mat.is_zero()
                    assert zeros.setdefault(mat.dim, mat) is mat
        assert sorted(zeros) == [2, 3, 4]  # block dims n + 1


# ---------------------------------------------------------------------------
# build_shor and build_hom are one-entry connections: the row assembly they
# had of their own is kept here as the reference


def _reference_drop_zero_rows(mats_per_row, rhs):
    kept, dropped = [], []
    for k, mats in enumerate(mats_per_row):
        if float(rhs[k]) == 0.0 and all(m.is_zero() for m in mats):
            dropped.append(k)
        else:
            kept.append(k)
    if dropped:
        warnings.warn(f"dropping identically-zero rows with zero rhs: {dropped}")
    return kept, dropped


_REFERENCE_SLACK = {Relation.LE: 1, Relation.EQ: 0, Relation.GE: -1}


def reference_build_shor(q):
    dim = q.n + 1
    kept, dropped = _reference_drop_zero_rows(
        [[f.B] for f, _ in q.constraints], q.rhs
    )
    rows = [
        Row((q.constraints[k][0].B,), _REFERENCE_SLACK[q.constraints[k][1]],
            float(q.rhs[k]), origin=k)
        for k in kept
    ]
    corner = np.zeros((dim, dim))
    corner[-1, -1] = 1.0
    rows.append(Row((SymMatrix.from_dense(corner),), 0, 1.0, origin=-1))
    return BlockSdp(
        (dim,), (q.objective.B,), rows,
        normalization_rows={len(rows) - 1}, dropped_rows=dropped,
    )


def reference_build_hom(h):
    mats_per_row = [
        [h.blocks[q][k + 1] for q in range(h.q_hat)] for k in range(h.m)
    ]
    kept, dropped = _reference_drop_zero_rows(mats_per_row, h.rhs)
    rows = [
        Row(tuple(mats_per_row[k]), _REFERENCE_SLACK[h.relations[k]],
            float(h.rhs[k]), origin=k)
        for k in kept
    ]
    return BlockSdp(
        tuple(h.dims), tuple(h.blocks[q][0] for q in range(h.q_hat)), rows,
        dropped_rows=dropped,
    )


def _rhs_for(rng, kind, rel, value):
    """rhs of a row feasible at a point where the row reads value: with a
    margin on <= and >= rows, exact on = rows; a variable-free row (value
    0) with an = relation is made vacuous (rhs 0)."""
    if kind == "vacuous" or (kind == "free" and rel is Relation.EQ):
        return 0.0
    margin = float(rng.uniform(0.1, 1.0))
    return value + {Relation.LE: margin, Relation.EQ: 0.0, Relation.GE: -margin}[rel]


def random_qcqp(rng):
    """1..3 variables, 0..4 rows of any relation, each row quadratic,
    variable-free with a nonzero rhs, or vacuous (zero with rhs 0);
    strictly convex objective, feasible at a random point."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(0, 5))
    x = rng.standard_normal(n)
    g = rng.standard_normal((n, n))
    obj = QuadFunc.from_parts(g @ g.T / n + 0.5 * np.eye(n), rng.standard_normal(n))
    cons, rhs = [], []
    for _ in range(m):
        rel = Relation(str(rng.choice(["le", "eq", "ge"])))
        kind = str(rng.choice(["quad", "quad", "free", "vacuous"]))
        if kind == "quad":
            a = rng.standard_normal((n, n))
            f = QuadFunc.from_parts(a + a.T, rng.standard_normal(n))
        else:
            f = QuadFunc.zero(n)
        cons.append((f, rel))
        rhs.append(_rhs_for(rng, kind, rel, eval_quad(f, x)))
    return Qcqp(n, obj, cons, rhs)


def random_hom(rng):
    """1..3 blocks of dimension 1..3 over 0..4 rows, built like
    random_qcqp; a row may also miss some blocks."""
    dims = [int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
    m = int(rng.integers(0, 5))
    vs = [rng.standard_normal(d) for d in dims]
    blocks = []
    for d in dims:
        g = rng.standard_normal((d, d))
        blocks.append([SymMatrix.from_dense(g @ g.T / d + 0.5 * np.eye(d))])
    rels, rhs = [], []
    for _ in range(m):
        rel = Relation(str(rng.choice(["le", "eq", "ge"])))
        kind = str(rng.choice(["quad", "quad", "free", "vacuous"]))
        value = 0.0
        for mats, v, d in zip(blocks, vs, dims):
            if kind == "quad" and rng.uniform() < 0.8:
                a = rng.standard_normal((d, d))
                mats.append(SymMatrix.from_dense(a + a.T))
                value += float(v @ mats[-1].to_dense() @ v)
            else:
                mats.append(SymMatrix.zeros(d))
        rels.append(rel)
        rhs.append(_rhs_for(rng, kind, rel, value))
    return HomSepQcqp(blocks, rels, rhs)


def built(build, model):
    """(BlockSdp, warning messages) of one builder call."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        b = build(model)
    return b, [str(w.message) for w in rec]


def solved_fingerprint(b):
    """Everything solve(b) returns, bit for bit (or the error it raises)."""
    try:
        sol = solve(b)
    except Exception as exc:  # compared, not handled
        return (type(exc).__name__, str(exc))
    return (
        [x.to_dense().tobytes() for x in sol.blocks],
        sol.slacks.tobytes(),
        sol.dual_multipliers.tobytes(),
        [z.to_dense().tobytes() for z in sol.dual_blocks],
        sol.status,
        repr((sol.value, sol.primal_residual, sol.dual_residual, sol.gap)),
        sol.iterations,
        repr(sol.mu_history),
    )


def assert_same_relaxation(got, want):
    assert got.block_dims == want.block_dims
    assert got.block_owner == want.block_owner
    for a, b in zip(got.objective, want.objective, strict=True):
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())
    assert len(got.rows) == len(want.rows)
    for ra, rb in zip(got.rows, want.rows):
        assert (ra.slack_coeff, ra.rhs, ra.origin) == (rb.slack_coeff, rb.rhs, rb.origin)
        for a, b in zip(ra.mats, rb.mats, strict=True):
            np.testing.assert_array_equal(a.to_dense(), b.to_dense())
    assert got.normalization_rows == want.normalization_rows
    assert got.dropped_rows == want.dropped_rows
    assert solved_fingerprint(got) == solved_fingerprint(want)


class TestOneEntryConnections:
    """build_shor and build_hom, and build_block of the one-entry
    connection, give what the reference assembly gives, solve included."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_shor_is_the_one_entry_connection(self, seed):
        q = random_qcqp(np.random.default_rng(seed))
        want, want_msgs = built(reference_build_shor, q)
        for build, model in ((build_shor, q), (build_block, SeparableQcqp([q], q.rhs))):
            got, msgs = built(build, model)
            assert msgs == want_msgs
            assert_same_relaxation(got, want)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hom_is_the_one_entry_connection(self, seed):
        h = random_hom(np.random.default_rng(seed))
        want, want_msgs = built(reference_build_hom, h)
        for build, model in ((build_hom, h), (build_block, SeparableQcqp([h], h.rhs))):
            got, msgs = built(build, model)
            assert msgs == want_msgs
            assert_same_relaxation(got, want)

    @pytest.mark.parametrize("which", ["shor", "hom", "block", "judge"])
    def test_dropped_row_warning_names_the_caller(self, which):
        q = Qcqp(
            1, qf([[1.0]]),
            [(QuadFunc.zero(1), Relation.LE), (qf([[1.0]]), Relation.LE)],
            [0.0, 1.0],
        )
        h = HomSepQcqp(
            [[SymMatrix.identity(1), SymMatrix.zeros(1), SymMatrix.identity(1)]],
            [Relation.EQ, Relation.LE],
            [0.0, 1.0],
        )
        with pytest.warns(UserWarning, match="zero") as rec:
            if which == "shor":
                dropped = build_shor(q).dropped_rows
            elif which == "hom":
                dropped = build_hom(h).dropped_rows
            elif which == "block":
                dropped = build_block(SeparableQcqp([q, q], [0.0, 2.0])).dropped_rows
            else:  # judge builds the relaxation inside the package
                assert judge(SeparableQcqp([q, q], [0.0, 2.0])).exact
                dropped = (0,)
        assert dropped == (0,)
        assert [w.filename for w in rec] == [__file__]
