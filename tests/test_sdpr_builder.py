"""Relaxation builders: structural contracts, lift consistency, the
one-entry connections against the row assembly they replaced, and the
block-major build against the row-major assembly and pair-by-pair compile
it replaced."""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp.errors import DimensionError, RangeError, StructureError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    connect,
    eval as eval_quad,
    lift,
)
from sepqcqp.connection import judge
from sepqcqp.examples import make_example52
from sepqcqp.sdpr_builder import (
    BlockSdp,
    RowOperator,
    build_block,
    build_hom,
    build_shor,
    to_standard_form,
)
from sepqcqp.sdp_solver import solve
from sepqcqp.symkernel import SymMatrix, frob_inner

from instances import hom_values, is_feasible


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
        op = b.operator
        # constraint row: <B_1, X> + s = 1
        assert op.slack_coeffs[0] == 1
        assert op.rhs[0] == 1.0
        assert op.origins[0] == 0
        # normalization row: X_22 = 1
        assert b.normalization_rows == {1}
        assert op.slack_coeffs[1] == 0 and op.origins[1] == -1
        assert list(op.active[0]) == [0, 1]
        assert op.stacks[0][1, 1, 1] == 1.0
        assert op.stacks[0][1, 0, 0] == 0.0
        assert list(op.slack_coeffs) == [1, 0]
        assert repr(b) == "BlockSdp(dims=[2], rows=2, norm=[1])"

    def test_relation_slack_signs(self):
        cons = [
            (qf([[1.0]]), Relation.LE),
            (qf([[2.0]]), Relation.EQ),
            (qf([[3.0]]), Relation.GE),
        ]
        b = build_shor(Qcqp(1, qf([[1.0]]), cons, [1.0, 2.0, 3.0]))
        assert list(b.operator.slack_coeffs[:3]) == [1, 0, -1]

    def test_zero_constraint_problem(self):
        b = build_shor(Qcqp(1, qf([[1.0]]), [], []))
        assert b.n_rows == 1 and b.normalization_rows == {0}

    def test_zero_row_dropped_with_warning(self):
        cons = [(QuadFunc.zero(1), Relation.LE), (qf([[1.0]]), Relation.LE)]
        with pytest.warns(UserWarning, match="zero"):
            b = build_shor(Qcqp(1, qf([[1.0]]), cons, [0.0, 1.0]))
        assert b.dropped_rows == (0,)
        assert list(b.operator.origins) == [1, -1]

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
        assert list(b.operator.slack_coeffs) == [0, 1, 1]
        assert list(b.operator.rhs) == [1.0, 0.0, 0.0]

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
        assert_same_operator(blk.operator, shor.operator)

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
        assert b.n_rows == 9
        assert len(b.normalization_rows) == 2
        coupled = [i for i in range(b.n_rows) if i not in b.normalization_rows]
        assert coupled == list(range(7))
        # normalization rows touch exactly their own block's corner
        for i in sorted(b.normalization_rows):
            nonzero = [j for j, act in enumerate(b.operator.active) if i in act]
            assert len(nonzero) == 1 and b.operator.rhs[i] == 1.0

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
        origins = b.operator.origins
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
        assert_same_operator(std.operator, b.operator)

    def test_ge_negated(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.GE)], [1.0])
        std = to_standard_form(build_shor(q))
        op = std.operator
        assert op.slack_coeffs[0] == 1
        assert op.rhs[0] == -1.0
        assert op.stacks[0][0, 0, 0] == -1.0
        assert op.origins[0] == 0

    def test_idempotent(self):
        cons = [
            (qf([[1.0]]), Relation.LE),
            (qf([[2.0]]), Relation.GE),
            (qf([[3.0]]), Relation.EQ),
        ]
        b = to_standard_form(build_shor(Qcqp(1, qf([[1.0]]), cons, [1.0, 2.0, 3.0])))
        again = to_standard_form(b)
        assert again is b

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
        rows = [(mats, 1, 1.0)]
        with pytest.raises(StructureError):
            BlockSdp.from_rows((2,), (SymMatrix.zeros(2),), rows, normalization_rows={0})

    def test_bad_slack_coeff(self):
        with pytest.raises(StructureError):
            BlockSdp.from_rows(
                (2,),
                (SymMatrix.zeros(2),),
                [((SymMatrix.identity(2),), 2, 1.0)],
            )

    @pytest.mark.parametrize(
        "mats", [(), (SymMatrix.identity(2), SymMatrix.identity(2)), (SymMatrix.identity(3),)],
        ids=["no-block", "two-blocks", "wrong-dim"],
    )
    def test_row_shape_checked(self, mats):
        with pytest.raises(DimensionError, match="row 0"):
            BlockSdp.from_rows((2,), (SymMatrix.zeros(2),), [(mats, 0, 1.0)])

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_non_finite_row_matrix(self, c):
        # min tr X s.t. X11 + c X22 = 1: unchecked, c = inf left presolve no
        # row and solve read Optimal at an infinite residual, and c = nan
        # raised numpy's LinAlgError from presolve's rank test
        op = RowOperator((2,), [[0]], [[np.diag([1.0, c])]], [0.0], [1.0], [-1])
        with pytest.raises(RangeError, match="^row 0 block 0: matrix entries must be finite$"):
            BlockSdp((2,), (SymMatrix.identity(2),), op)
        op = RowOperator(
            (1, 2), [[0], [0, 1]], [[np.eye(1)], [np.eye(2), np.diag([1.0, c])]],
            [0.0, 1.0], [1.0, 2.0], [-1, -1],
        )
        with pytest.raises(RangeError, match="^row 1 block 1: "):
            BlockSdp((1, 2), (SymMatrix.identity(1), SymMatrix.identity(2)), op)

    def test_zero_dimensional_block(self):
        with pytest.raises(DimensionError, match="positive"):
            BlockSdp.from_rows((2, 0), (SymMatrix.zeros(2), SymMatrix.zeros(0)), [])

    def test_rows_over_other_blocks(self):
        op = BlockSdp.from_rows((2,), (SymMatrix.zeros(2),), []).operator
        with pytest.raises(DimensionError):
            BlockSdp((3,), (SymMatrix.zeros(3),), op)

    def test_takes_no_block_owner(self):
        # no reader of a relaxation asks which entry a block came from
        b = BlockSdp.from_rows((2,), (SymMatrix.zeros(2),), [])
        assert not hasattr(b, "block_owner")
        with pytest.raises(TypeError, match="block_owner"):
            BlockSdp((2,), (SymMatrix.zeros(2),), b.operator, block_owner=(0,))


class TestRowOperator:
    """The compiled operator against the plain loop over (row, block) pairs
    it replaces, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_apply_dense_and_take_match_the_loop(self, seed):
        b = to_standard_form(build_block(make_example52(seed)))
        op = b.operator
        rows = reference_standard_rows(reference_relax(make_example52(seed))[2])
        rng = np.random.default_rng(seed)
        xs = []
        for d in b.block_dims:
            a = rng.standard_normal((d, d))
            xs.append(a + a.T)
        loop = np.array([
            sum(float(np.sum(m.to_dense() * x)) for m, x in zip(row.mats, xs))
            for row in rows
        ])
        np.testing.assert_array_equal(op.apply(xs), loop)

        slack_rows = [i for i, r in enumerate(rows) if r.slack_coeff]
        dense = op.dense()
        for i, row in enumerate(rows):
            flat = np.concatenate([m.to_dense().ravel() for m in row.mats])
            np.testing.assert_array_equal(dense[i, : len(flat)], flat)
            tail = np.zeros(len(slack_rows))
            if row.slack_coeff:
                tail[slack_rows.index(i)] = row.slack_coeff
            np.testing.assert_array_equal(dense[i, len(flat) :], tail)

        # keeping every row copies no stack; a proper subset is renumbered
        assert op.take(range(op.n_rows)) is op
        keep = [i for i in range(len(rows)) if i % 2 == 0]
        part = op.take(keep)
        np.testing.assert_array_equal(part.apply(xs), loop[keep])
        np.testing.assert_array_equal(part.rhs, op.rhs[keep])
        np.testing.assert_array_equal(part.origins, op.origins[keep])
        for act, stack, full_act in zip(part.active, part.stacks, op.active):
            assert list(np.asarray(keep)[act]) == [i for i in full_act if i % 2 == 0]
            assert len(stack) == len(act)

    def test_operator_is_shared_and_read_only(self):
        b = build_block(make_example52(0))
        op = b.operator
        assert b.operator is op
        for arrays in (op.active, op.stacks, [op.slack_coeffs, op.rhs, op.origins]):
            for a in arrays:
                with pytest.raises(ValueError):
                    a[...] = 0

    @pytest.mark.parametrize("seed", range(4))
    def test_with_row_matches_compiling_the_row(self, seed):
        b = to_standard_form(build_block(make_example52(seed)))
        extended = b.operator.with_row(b.objective)
        rows = reference_standard_rows(reference_relax(make_example52(seed))[2])
        plain = reference_compile(rows + [RefRow(b.objective, 0, 0.0)], b.block_dims)
        assert extended.n_rows == plain.n_rows == b.n_rows + 1
        assert_same_operator(extended, plain)


class TestBuildBlockStacks:
    def test_each_block_holds_its_entrys_rows_then_its_corner(self):
        entries = [
            Qcqp(n, qf(np.eye(n)), [(qf(np.eye(n)), Relation.LE)], [float(n)])
            for n in (1, 2, 2, 1, 3)
        ]
        s = SeparableQcqp(entries, [9.0])
        b = build_block(s)
        op = b.operator
        norm = sorted(b.normalization_rows)
        assert norm == [1, 2, 3, 4, 5]
        for bi, (entry, act, stack) in enumerate(zip(entries, op.active, op.stacks)):
            assert list(act) == [0, norm[bi]]
            np.testing.assert_array_equal(stack[0], entry.constraints[0][0].B.to_dense())
            corner = np.zeros((entry.n + 1, entry.n + 1))
            corner[-1, -1] = 1.0
            np.testing.assert_array_equal(stack[1], corner)


# ---------------------------------------------------------------------------
# The row-major representation build_block's stacks replaced, kept here as
# the reference: one RefRow per row with one SymMatrix per block (the
# normalization rows sharing one zero per block dimension), the row-major
# assembly of a connection, its standard form, and the pair-by-pair
# compile into per-block stacks.


@dataclass(frozen=True)
class RefRow:
    """sum_b <mats[b], X_b> + slack_coeff * s = rhs; origin is the QCQP
    constraint's index, or -1 for a normalization row."""

    mats: tuple
    slack_coeff: int
    rhs: float
    origin: int = -1


def reference_compile(rows, dims):
    """Every (block, row) pair walked, a matrix object shared by many pairs
    tested once; each block's nonzero matrices densified into a stack."""
    active, stacks = [], []
    nonzero: dict[int, bool] = {}
    for bi, d in enumerate(dims):
        act = []
        for i, row in enumerate(rows):
            mat = row.mats[bi]
            hit = nonzero.get(id(mat))
            if hit is None:
                hit = nonzero[id(mat)] = not mat.is_zero()
            if hit:
                act.append(i)
        stack = np.array([rows[i].mats[bi].to_dense() for i in act])
        active.append(np.array(act, dtype=np.intp))
        stacks.append(stack.reshape(len(act), d, d))
    return RowOperator(
        dims, active, stacks,
        np.array([float(r.slack_coeff) for r in rows]),
        np.array([float(r.rhs) for r in rows]),
        np.array([r.origin for r in rows], dtype=np.intp),
    )


@functools.cache
def _reference_corner(dim):
    e = np.zeros((dim, dim))
    e[dim - 1, dim - 1] = 1.0
    return SymMatrix.from_dense(e)


def reference_relax(s):
    """(dims, objective, rows, normalization rows, dropped rows) of the
    connection s, row by row."""
    dims, obj, per_entry_row_mats = [], [], []
    for blk in s.blocks:
        if isinstance(blk, Qcqp):
            dims.append(blk.n + 1)
            obj.append(blk.objective.B)
            per_entry_row_mats.append([[f.B] for f, _ in blk.constraints])
        else:
            for q in range(blk.q_hat):
                dims.append(blk.blocks[q][0].dim)
                obj.append(blk.blocks[q][0])
            per_entry_row_mats.append(
                [[blk.blocks[q][k + 1] for q in range(blk.q_hat)] for k in range(blk.m)]
            )
    rows, dropped = [], []
    for k, rel in enumerate(s.relations):
        mats = [mat for entry in per_entry_row_mats for mat in entry[k]]
        rhs = float(s.gamma[k])
        if rhs == 0.0 and all(m.is_zero() for m in mats):
            dropped.append(k)
        else:
            rows.append(RefRow(tuple(mats), _REFERENCE_SLACK[rel], rhs, origin=k))
    norm, zero_row, b0 = set(), None, 0
    for blk in s.blocks:
        if isinstance(blk, Qcqp):
            if zero_row is None:
                zero = {d: SymMatrix.zeros(d) for d in set(dims)}
                zero_row = [zero[d] for d in dims]
            mats = list(zero_row)
            mats[b0] = _reference_corner(dims[b0])
            norm.add(len(rows))
            rows.append(RefRow(tuple(mats), 0, 1.0, origin=-1))
            b0 += 1
        else:
            b0 += blk.q_hat
    return tuple(dims), tuple(obj), rows, norm, dropped


def reference_standard_rows(rows):
    """Each >= row negated matrix by matrix (SymMatrix.scaled(-1.0))."""
    return [
        RefRow(tuple(m.scaled(-1.0) for m in r.mats), 1, -r.rhs, r.origin)
        if r.slack_coeff == -1 else r
        for r in rows
    ]


def assert_same_operator(got, want):
    """Same rows, bit for bit: active arrays, stack bytes, rhs, slack
    coefficients and origins, dtypes and shapes included."""
    assert got.dims == want.dims and got.n_rows == want.n_rows
    pairs = [*zip(got.active, want.active, strict=True),
             *zip(got.stacks, want.stacks, strict=True),
             (got.slack_coeffs, want.slack_coeffs), (got.rhs, want.rhs),
             (got.origins, want.origins)]
    for a, b in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
        RefRow((q.constraints[k][0].B,), _REFERENCE_SLACK[q.constraints[k][1]],
               float(q.rhs[k]), origin=k)
        for k in kept
    ]
    corner = np.zeros((dim, dim))
    corner[-1, -1] = 1.0
    rows.append(RefRow((SymMatrix.from_dense(corner),), 0, 1.0, origin=-1))
    return BlockSdp(
        (dim,), (q.objective.B,), reference_compile(rows, (dim,)),
        normalization_rows={len(rows) - 1}, dropped_rows=dropped,
    )


def reference_build_hom(h):
    mats_per_row = [
        [h.blocks[q][k + 1] for q in range(h.q_hat)] for k in range(h.m)
    ]
    kept, dropped = _reference_drop_zero_rows(mats_per_row, h.rhs)
    rows = [
        RefRow(tuple(mats_per_row[k]), _REFERENCE_SLACK[h.relations[k]],
               float(h.rhs[k]), origin=k)
        for k in kept
    ]
    return BlockSdp(
        tuple(h.dims), tuple(h.blocks[q][0] for q in range(h.q_hat)),
        reference_compile(rows, tuple(h.dims)), dropped_rows=dropped,
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
    for a, b in zip(got.objective, want.objective, strict=True):
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())
    assert_same_operator(got.operator, want.operator)
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


def random_connection(rng):
    """1..4 entries, each inhomogeneous (1..3 variables) or homogeneous
    (1..3 blocks of dimension 1..3), over 0..4 shared rows of any
    relation. A row's function is identically zero in some entries, in
    every entry on some rows, and gamma is 0 on about half of the rows,
    so some rows are dropped and some zero rows are kept."""
    m = int(rng.integers(0, 5))
    rels = [Relation(str(rng.choice(["le", "eq", "ge"]))) for _ in range(m)]
    free = rng.random(m) < 0.3
    gamma = np.where(rng.random(m) < 0.5, 0.0, rng.standard_normal(m))

    def mat(d, k):
        if k >= 0 and (free[k] or rng.random() < 0.3):
            return np.zeros((d, d))
        a = rng.standard_normal((d, d))
        return a + a.T

    def func(n, k):
        a = mat(n, k)
        return QuadFunc.from_parts(a, rng.standard_normal(n) if a.any() else None)

    entries = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.5:
            n = int(rng.integers(1, 4))
            funcs = [func(n, k) for k in range(-1, m)]
            entries.append(Qcqp(n, funcs[0], list(zip(funcs[1:], rels)), gamma))
        else:
            dims = rng.integers(1, 4, size=int(rng.integers(1, 4)))
            blocks = [
                [SymMatrix.from_dense(mat(int(d), k)) for k in range(-1, m)] for d in dims
            ]
            entries.append(HomSepQcqp(blocks, rels, gamma))
    return SeparableQcqp(entries, gamma)


class TestBlockMajorBuild:
    """build_block writes each block's stack from the entry that owns it;
    the operator is the pair-by-pair compile of the row-major assembly,
    bit for bit, before and after to_standard_form."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80)
    def test_equals_the_row_major_compile(self, seed):
        s = random_connection(np.random.default_rng(seed))
        dims, obj, rows, norm, dropped = reference_relax(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_block(s)
        assert b.block_dims == dims
        assert b.normalization_rows == norm and b.dropped_rows == tuple(dropped)
        assert all(x is y for x, y in zip(b.objective, obj, strict=True))
        assert_same_operator(b.operator, reference_compile(rows, dims))
        std = to_standard_form(b)
        assert std.normalization_rows == norm
        assert_same_operator(
            std.operator, reference_compile(reference_standard_rows(rows), dims)
        )

    def test_draws_cover_every_case(self):
        # the property's draws reach both entry kinds, dropped rows, kept
        # zero rows and every relation
        seen = set()
        for seed in range(60):
            s = random_connection(np.random.default_rng(seed))
            seen |= {type(e).__name__ for e in s.blocks}
            seen |= {r.value for r in s.relations}
            _, _, rows, _, dropped = reference_relax(s)
            seen |= {"dropped"} if dropped else set()
            if any(r.origin >= 0 and all(m.is_zero() for m in r.mats) for r in rows):
                seen.add("zero row kept")
        assert seen == {"Qcqp", "HomSepQcqp", "le", "eq", "ge", "dropped", "zero row kept"}
