"""Relaxation builders: structural contracts and lift consistency."""

import numpy as np
import pytest

from sepqcqp.errors import StructureError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    connect,
    eval as eval_quad,
    is_feasible,
)
from sepqcqp.connection import make_example52
from sepqcqp.sdpr_builder import (
    BlockSdp,
    Row,
    RowOperator,
    build_block,
    build_hom,
    build_shor,
    eval_rows,
    lift_blocks,
    objective_value,
    to_standard_form,
)
from sepqcqp.symkernel import SymMatrix


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def tiny_qcqp():
    # min u^2 s.t. u^2 <= 1
    return Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])


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
        got = eval_rows(b, blocks)
        from sepqcqp.qcqp_model import hom_values

        want = hom_values(h, [v1, v2])
        assert got == pytest.approx(want[1:])
        assert objective_value(b, blocks) == pytest.approx(want[0])


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
        assert b.coupled_rows == list(range(7))
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
        blocks = lift_blocks(s, parts)
        vals = eval_rows(b, blocks)
        want = eval_quad(a.constraints[0][0], parts[0]) + eval_quad(
            c.constraints[0][0], parts[1]
        )
        assert vals[0] == pytest.approx(want)
        assert vals[1] == pytest.approx(1.0)  # first normalization row
        assert vals[2] == pytest.approx(1.0)
        want_obj = eval_quad(a.objective, parts[0]) + eval_quad(c.objective, parts[1])
        assert objective_value(b, blocks) == pytest.approx(want_obj)


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
