"""Rank reduction: boundary moves, extreme-point counts, point extraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp import rank_reduction
from sepqcqp.certificates import pataki_count
from sepqcqp.errors import (
    RangeError,
    ReductionStallError,
    StaleSolutionError,
    StructureError,
)
from sepqcqp.qcqp_model import (
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    lift,
)
from sepqcqp.rank_reduction import reduce
from sepqcqp.sdp_solver import solve
from sepqcqp.sdpr_builder import (
    BlockSdp,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
    to_standard_form,
)
from sepqcqp.symkernel import (
    SymMatrix,
    eigh_many,
    numeric_rank,
    rank_of_eigenvalues_many,
)

from instances import hand_solution, hom_values, sym, walk_instance
from test_sdp_solver import family_value, two_block_family


def max_residual(b, sol):
    op = b.operator
    vals = op.apply([x.to_dense() for x in sol.blocks]) + sol.slacks * op.slack_coeffs
    return float(np.abs(vals - op.rhs).max(initial=0.0))


def row_table(b):
    """A[i][bi]: row i's dense matrix on block bi, zero where the row is not
    active there, read off b's operator."""
    op = b.operator
    A = [[np.zeros((d, d)) for d in b.block_dims] for _ in range(b.n_rows)]
    for bi, (act, stack) in enumerate(zip(op.active, op.stacks)):
        for i, mat in zip(act, stack):
            A[i][bi] = mat.copy()
    return A


def row_tuples(b):
    """b's rows as BlockSdp.from_rows takes them: (mats, slack_coeff, rhs)."""
    op = b.operator
    return [
        (tuple(SymMatrix(a) for a in mats), float(c), float(r))
        for mats, c, r in zip(row_table(b), op.slack_coeffs, op.rhs)
    ]


def min_eig(blk):
    x = blk.to_dense()
    return float(np.linalg.eigvalsh(x).min()) if x.size else 0.0


class TestTraceIdentity:
    def test_interior_point_walks_to_rank_one(self):
        # min <I, X> s.t. <I, X> = 1: every feasible point is optimal, so
        # reduction from the center I/2 must reach a rank-one extreme point
        b = BlockSdp.from_rows(
            (2,),
            (SymMatrix.identity(2),),
            [((SymMatrix.identity(2),), 0, 1.0)],
        )
        sol0 = hand_solution(b, [0.5 * np.eye(2)], 1.0)
        red, rep = reduce(b, sol0)
        assert rep.final_ranks == [1]
        assert rep.pataki_sum == 1
        assert rep.bound_m == 1
        assert rep.iterations >= 1
        assert red.value == pytest.approx(1.0, abs=1e-9)
        assert max_residual(b, red) <= 1e-8
        assert min_eig(red.blocks[0]) >= -1e-10
        assert rep.extracted is not None

    def test_trace_three_dims(self):
        b = BlockSdp.from_rows(
            (4,),
            (SymMatrix.identity(4),),
            [((SymMatrix.identity(4),), 0, 2.0)],
        )
        sol0 = hand_solution(b, [0.5 * np.eye(4)], 2.0)
        red, rep = reduce(b, sol0)
        assert rep.final_ranks == [1]
        assert red.value == pytest.approx(2.0, abs=1e-8)


class TestZeroIterations:
    def test_rank_one_input_is_left_alone(self):
        # min u^2 s.t. u^2 = 1, seeded with the lift of u = 1
        q = Qcqp(
            1,
            QuadFunc.from_parts([[1.0]]),
            [(QuadFunc.from_parts([[1.0]]), Relation.EQ)],
            [1.0],
        )
        b = to_standard_form(build_shor(q))
        sol0 = hand_solution(b, [lift(np.array([1.0]))], 1.0)
        red, rep = reduce(b, sol0)
        assert rep.iterations == 0
        assert rep.final_ranks == [1]
        assert np.allclose(
            red.blocks[0].to_dense(),
            lift(np.array([1.0])).to_dense(),
            atol=1e-12,
        )
        assert rep.extracted is not None
        assert rep.extracted[0] == pytest.approx([1.0], abs=1e-9)


def extract_point(sol, pinned, tol=1e-6, rank_tol=1e-6):
    """rank_reduction._extract at sol's blocks, decomposed as reduce
    decomposes its last iterate; pinned marks the blocks a normalization
    row pins."""
    eigs = eigh_many([0.5 * (x + x.T) for x in (blk.to_dense() for blk in sol.blocks)])
    ranks = rank_of_eigenvalues_many([lam for lam, _ in eigs], rank_tol)
    return rank_reduction._extract(eigs, ranks, pinned, tol)


class TestBenchmarkFamily:
    def solve_reduced(self, alpha, tol=1e-7):
        b = to_standard_form(build_hom(two_block_family(alpha)))
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        return b, reduce(b, sol, tol=tol)

    def test_alpha_one_ranks(self):
        b, (red, rep) = self.solve_reduced(1.0)
        assert rep.final_ranks == [1, 1]
        assert rep.bound_m == 3
        assert rep.pataki_sum <= rep.bound_m
        assert red.value == pytest.approx(-1.0, abs=1e-6)
        assert rep.extracted is not None

    def test_alpha_three_block(self):
        b, (red, rep) = self.solve_reduced(3.0)
        assert rep.final_ranks[0] == 1
        assert np.allclose(
            red.blocks[0].to_dense(), [[9.0, 3.0], [3.0, 1.0]], atol=1e-5
        )
        assert rep.extracted[0] == pytest.approx([3.0, 1.0], abs=1e-5)

    def test_alpha_midpoint_cannot_extract(self):
        # strictly inside the gap interval the first block stays rank two
        b, (red, rep) = self.solve_reduced(2.5)
        assert rep.final_ranks[0] == 2
        assert rep.extracted is None
        assert red.value == pytest.approx(22.0 / 3.0, abs=1e-6)
        assert extract_point(red, loop_pinned(b)) is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0, 3.5])
    def test_round_trip_recovers_optimum(self, alpha):
        h = two_block_family(alpha)
        b, (red, rep) = self.solve_reduced(alpha)
        assert rep.extracted is not None
        vs = rep.extracted
        vals = hom_values(h, vs)
        for k, (rel, rhs) in enumerate(zip(h.relations, h.rhs)):
            assert rel.holds(vals[k + 1], rhs, 1e-5)
        assert vals[0] == pytest.approx(family_value(alpha), abs=1e-5)
        assert vals[0] == pytest.approx(red.value, abs=1e-5)


class TestExtractPoint:
    def lifted_solution(self, mats, slack_count=0):
        return SdpSolution(
            blocks=[sym(x) for x in mats],
            slacks=np.zeros(slack_count),
            dual_multipliers=np.zeros(slack_count),
            dual_blocks=[SymMatrix.zeros(np.shape(x)[0]) for x in mats],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )

    def test_inhomogeneous_lift_round_trip(self):
        sol = self.lifted_solution([[[9.0, 3.0], [3.0, 1.0]]])
        out = extract_point(sol, [True])
        assert out is not None
        assert out[0] == pytest.approx([3.0], abs=1e-10)

    def test_negative_corner_factor_is_flipped(self):
        # g g^T with g = (3, -1) lifts u = -3 after normalizing the corner
        sol = self.lifted_solution([np.outer([3.0, -1.0], [3.0, -1.0])])
        out = extract_point(sol, [True])
        assert out is not None
        assert out[0] == pytest.approx([-3.0], abs=1e-10)

    def test_corner_magnitude_mismatch_fails(self):
        sol = self.lifted_solution([np.outer([2.0, 1.1], [2.0, 1.1])])
        assert extract_point(sol, [True]) is None

    def test_zero_inhomogeneous_block_fails(self):
        sol = self.lifted_solution([np.zeros((2, 2))])
        assert extract_point(sol, [True]) is None

    def test_zero_homogeneous_block_gives_zero_vector(self):
        sol = self.lifted_solution([np.zeros((3, 3))])
        out = extract_point(sol, [False])
        assert out is not None
        assert out[0] == pytest.approx([0.0, 0.0, 0.0], abs=0)

    def test_homogeneous_sign_convention(self):
        sol = self.lifted_solution([np.outer([-2.0, 1.0], [-2.0, 1.0])])
        out = extract_point(sol, [False])
        assert out is not None
        assert out[0] == pytest.approx([2.0, -1.0], abs=1e-10)

    def test_rank_two_fails(self):
        sol = self.lifted_solution(
            [np.outer([1.0, 1.0], [1.0, 1.0]), np.eye(2)]
        )
        assert extract_point(sol, [True, False]) is None

    def test_reduce_pins_blocks_by_their_normalization_rows(self):
        # the normalization row is active on block 0 (its corner entry) and
        # not on block 1: reduce reads u = 3 off block 0's lift, and block
        # 1's factor vector with its sign fixed, (2, -1)
        corner = np.zeros((2, 2))
        corner[1, 1] = 1.0
        zero = SymMatrix.zeros(2)
        b = BlockSdp.from_rows(
            (2, 2),
            (SymMatrix.identity(2), SymMatrix.identity(2)),
            [
                ((sym(corner), zero), 0, 1.0),
                ((zero, SymMatrix.identity(2)), 0, 5.0),
            ],
            normalization_rows=(0,),
        )
        assert loop_pinned(b) == [True, False]
        sol = hand_solution(
            b, [[[9.0, 3.0], [3.0, 1.0]], np.outer([-2.0, 1.0], [-2.0, 1.0])], 15.0
        )
        red, rep = reduce(b, sol)
        assert rep.iterations == 0 and rep.final_ranks == [1, 1]
        assert rep.extracted[0] == pytest.approx([3.0], abs=1e-10)
        assert rep.extracted[1] == pytest.approx([2.0, -1.0], abs=1e-10)


class TestGuards:
    def tiny_problem(self):
        return BlockSdp.from_rows(
            (2,),
            (SymMatrix.identity(2),),
            [((SymMatrix.identity(2),), 0, 1.0)],
        )

    def test_rejects_nonstandard_form(self):
        b = BlockSdp.from_rows(
            (2,),
            (SymMatrix.identity(2),),
            [((SymMatrix.identity(2),), -1, 1.0)],
        )
        sol0 = SdpSolution(
            blocks=[sym(np.eye(2))],
            slacks=np.ones(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(2)],
            status=SolveStatus.OPTIMAL,
            value=2.0,
        )
        with pytest.raises(StructureError):
            reduce(b, sol0)

    def test_rejects_nonoptimal_status(self):
        b = self.tiny_problem()
        sol0 = SdpSolution(
            blocks=[sym(0.5 * np.eye(2))],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(2)],
            status=SolveStatus.MAX_ITER,
            value=1.0,
        )
        with pytest.raises(StaleSolutionError):
            reduce(b, sol0)

    def test_rejects_shape_mismatch(self):
        b = self.tiny_problem()
        sol0 = SdpSolution(
            blocks=[sym(0.5 * np.eye(2)), sym(np.eye(1))],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(2), SymMatrix.zeros(1)],
            status=SolveStatus.OPTIMAL,
            value=1.0,
        )
        with pytest.raises(StaleSolutionError):
            reduce(b, sol0)

    def test_rejects_infeasible_input(self):
        b = self.tiny_problem()
        sol0 = hand_solution(b, [np.eye(2)], 2.0)  # trace 2 != 1
        with pytest.raises(StaleSolutionError):
            reduce(b, sol0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_slack(self, bad):
        # every comparison with NaN is false, so a NaN slack used to pass
        # the residual guard and come back as the reduced slack
        b = BlockSdp.from_rows(
            (2,),
            (SymMatrix.identity(2),),
            [((SymMatrix.identity(2),), 1, 1.0)],
        )
        sol0 = hand_solution(b, [0.5 * np.eye(2)], 1.0, slacks=[bad])
        with pytest.raises(StaleSolutionError, match="not finite"):
            reduce(b, sol0)

    def test_rejects_a_non_optimal_solution(self):
        # X = I is feasible for X11 + X22 = 2, X12 = 0 but not optimal for
        # diag(1, 0): the one feasibility-preserving direction, diag(1, -1),
        # changes the objective
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [
                ((SymMatrix.identity(2),), 0, 2.0),
                ((sym([[0.0, 0.5], [0.5, 0.0]]),), 0, 0.0),
            ],
        )
        sol0 = hand_solution(b, [np.eye(2)], 1.0)
        with pytest.raises(StaleSolutionError, match="changes the objective"):
            reduce(b, sol0)

    def test_rejects_non_finite_rhs(self):
        # a problem with a non-finite rhs is refused when it is built, so
        # reduce never meets one
        with pytest.raises(RangeError, match="must be finite"):
            BlockSdp.from_rows(
                (2,),
                (SymMatrix.identity(2),),
                [((SymMatrix.identity(2),), 0, float("nan"))],
            )


class TestStallBranches:
    """One hand-made input per way out of reduce's loop other than a
    finished walk."""

    def test_zero_block_gives_an_empty_system(self):
        # the zero block freezes and no row has a slack: the restricted
        # system has no column, so there is nothing to move
        b = BlockSdp.from_rows(
            (2,), (SymMatrix.identity(2),), [((SymMatrix.identity(2),), 0, 0.0)]
        )
        red, rep = reduce(b, hand_solution(b, [np.zeros((2, 2))], 0.0))
        assert rep.iterations == 0 and rep.final_ranks == [0]
        assert not red.blocks[0].to_dense().any()

    def test_unusable_null_directions_stall(self):
        # rows 1 and 2 differ by 1e-10 relative, below svd's cutoff, so
        # I/sqrt(2) counts as null; but row 2 moves by about 1e-4 along
        # it, far past the residual budget, and +I never meets the boundary
        n, rows = 1e6, []
        for mat in (np.diag([1.0, -1.0]), np.diag([1.0, -1.0 + 1e-10]),
                    np.array([[0.0, 1.0], [1.0, 0.0]])):
            mat = sym(n * mat)
            rows.append(((mat,), 0, float(np.sum(mat.to_dense() * np.eye(2)))))
        b = BlockSdp.from_rows((2,), (SymMatrix.zeros(2),), rows)
        with pytest.raises(ReductionStallError, match="numerically unusable") as exc:
            reduce(b, hand_solution(b, [np.eye(2)], 0.0))
        assert exc.value.report.final_ranks == [2]

    def test_constraint_only_move_lowers_the_objective(self):
        # the objective 1e-8 X11 is above svd's cutoff, so the full system
        # has no null direction; the rows alone leave diag(1, -1), along
        # which the objective falls by 1e-8, within the value budget
        rows = [
            ((SymMatrix.identity(2),), 0, 2.0),
            ((sym([[0.0, 1.0], [1.0, 0.0]]),), 0, 0.0),
        ]
        b = BlockSdp.from_rows((2,), (sym(np.diag([1e-8, 0.0])),), rows)
        red, rep = reduce(b, hand_solution(b, [np.eye(2)], 1e-8))
        assert rep.iterations == 1 and rep.final_ranks == [1]
        assert red.blocks[0].to_dense() == pytest.approx(np.diag([0.0, 2.0]), abs=1e-12)
        assert red.value == pytest.approx(0.0, abs=1e-15)

    def test_no_termination_stalls(self):
        # below machine precision, a rank tolerance keeps the roundoff
        # eigenvalue a boundary step leaves, so no step lowers a rank
        b = BlockSdp.from_rows(
            (4,), (SymMatrix.identity(4),), [((SymMatrix.identity(4),), 0, 1.0)]
        )
        with pytest.raises(ReductionStallError, match="no termination after 9 iterations"):
            reduce(b, hand_solution(b, [np.eye(4) / 4.0], 1.0), rank_tol=1e-20)

    def test_two_tiny_steps_stall(self):
        # per block x, rows x + s = 1 + e and -x + s' = -1 + e with slacks
        # of e = 2^-50 (2e on block 2): both ways along each block's null
        # direction a slack reaches 0 after a step of about e, before x
        # does, and each block takes one such step
        e, one, zero, neg = 2.0**-50, SymMatrix.identity(1), SymMatrix.zeros(1), sym([[-1.0]])
        rows = [
            ((one, zero), 1, 1.0 + e), ((neg, zero), 1, -1.0 + e),
            ((zero, one), 1, 1.0 + 2 * e), ((zero, neg), 1, -1.0 + 2 * e),
        ]
        b = BlockSdp.from_rows((1, 1), (zero, zero), rows)
        sol = hand_solution(b, [np.eye(1), np.eye(1)], 0.0, slacks=[e, e, 2 * e, 2 * e])
        with pytest.raises(ReductionStallError, match="below 1e-14 twice") as exc:
            reduce(b, sol, tol=1e-16)
        assert exc.value.report.iterations == 2

    def test_overflowing_restricted_system_stalls(self):
        # <A, X> is 0, but F^T A F overflows with F = 1e150 I; svd would
        # have met inf / inf = nan in the scaled system
        b = BlockSdp.from_rows(
            (2,), (SymMatrix.identity(2),),
            [((sym([[0.0, 1e10], [1e10, 0.0]]),), 0, 0.0)],
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ReductionStallError, match="overflowed"):
                reduce(b, hand_solution(b, [1e300 * np.eye(2)], 2e300))


def random_equality_instance(seed, with_slack_rows=0):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 7))
    m = int(rng.integers(2, 6))
    x0 = rng.standard_normal((dim, dim))
    x0 = x0 @ x0.T + dim * np.eye(dim)
    s0 = rng.standard_normal((dim, dim))
    s0 = s0 @ s0.T + dim * np.eye(dim)
    y0 = rng.standard_normal(m)
    amats = [0.5 * (a + a.T) for a in rng.standard_normal((m, dim, dim))]
    cmat = s0 + sum(y * a for y, a in zip(y0, amats))
    rows = [
        ((SymMatrix.from_dense(a),), 0, float(np.sum(a * x0)))
        for a in amats
    ]
    for k in range(with_slack_rows):
        a = rng.standard_normal((dim, dim))
        a = 0.5 * (a + a.T)
        margin = float(rng.uniform(0.5, 2.0))
        rows.append(
            ((SymMatrix.from_dense(a),), 1, float(np.sum(a * x0)) + margin)
        )
    return BlockSdp.from_rows((dim,), (SymMatrix.from_dense(cmat),), rows)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_equality_instances(self, seed):
        b = random_equality_instance(seed)
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        tol = 1e-7
        budget = sum(numeric_rank(blk, tol=1e-9) for blk in sol.blocks)
        red, rep = reduce(b, sol, tol=tol)
        rhs_scale = 1.0 + np.abs(b.operator.rhs).max()
        assert max_residual(b, red) <= 10 * tol * rhs_scale
        assert abs(red.value - sol.value) <= tol * (1.0 + abs(sol.value))
        assert rep.iterations <= budget
        assert rep.pataki_sum <= rep.bound_m
        assert min_eig(red.blocks[0]) >= -1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_slack_instances(self, seed):
        b = random_equality_instance(200 + seed, with_slack_rows=2)
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        tol = 1e-7
        smax = float(np.abs(sol.slacks).max(initial=0.0))
        budget = sum(numeric_rank(blk, tol=1e-9) for blk in sol.blocks) + int(
            np.sum(sol.slacks > tol * (1.0 + smax))
        )
        red, rep = reduce(b, sol, tol=tol)
        rhs_scale = 1.0 + np.abs(b.operator.rhs).max()
        assert max_residual(b, red) <= 10 * tol * rhs_scale
        assert abs(red.value - sol.value) <= tol * (1.0 + abs(sol.value))
        assert rep.iterations <= budget
        assert rep.pataki_sum <= rep.bound_m
        assert np.all(red.slacks >= 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_row_homogeneous_blocks_end_rank_one(self, seed):
        # with two rows the extreme-point count forces blockwise rank <= 1
        rng = np.random.default_rng(300 + seed)
        dims = (2, 2)
        v0 = []
        for d in dims:
            g = rng.standard_normal((d, d))
            v0.append(g @ g.T + d * np.eye(d))
        amats = [
            [0.5 * (a + a.T) for a in rng.standard_normal((2, d, d))]
            for d in dims
        ]
        cs = []
        for d in dims:
            g = rng.standard_normal((d, d))
            cs.append(g @ g.T + d * np.eye(d))
        rows = [
            (
                tuple(SymMatrix.from_dense(amats[bi][k]) for bi in range(2)),
                0 if k == 0 else 1,
                sum(float(np.sum(amats[bi][k] * v0[bi])) for bi in range(2))
                + (0.0 if k == 0 else 1.0),
            )
            for k in range(2)
        ]
        b = BlockSdp.from_rows(dims, tuple(SymMatrix.from_dense(c) for c in cs), rows)
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        red, rep = reduce(b, sol)
        assert rep.pataki_sum <= 2
        assert all(r <= 1 for r in rep.final_ranks)


# -- the per-(row, block) loop reduction ---------------------------------


def _loop_svec(a):
    d = a.shape[0]
    iu = np.triu_indices(d)
    out = a[iu].copy()
    out[iu[0] != iu[1]] *= np.sqrt(2.0)
    return out


def _loop_unsvec(v, d):
    iu = np.triu_indices(d)
    a = np.zeros((d, d))
    vals = v.copy()
    vals[iu[0] != iu[1]] /= np.sqrt(2.0)
    a[iu] = vals
    a.T[iu] = vals
    return a


def loop_pinned(b):
    """Per block, whether a normalization row has a nonzero matrix on it."""
    pinned = [False] * b.n_blocks
    A = row_table(b)
    for i in b.normalization_rows:
        for bi, mat in enumerate(A[i]):
            if mat.any():
                pinned[bi] = True
    return pinned


def loop_extract_point(sol, pinned, tol=1e-6, rank_tol=1e-6):
    """The points of sol's rank-<=1 blocks, one eigh per block, or None."""
    points = []
    for blk, pin in zip(sol.blocks, pinned):
        x = blk.to_dense()
        r = numeric_rank(blk, tol=rank_tol)
        if r > 1:
            return None
        if r == 0:
            if pin:
                return None
            points.append(np.zeros(blk.dim))
            continue
        lam, vec = np.linalg.eigh(0.5 * (x + x.T))
        g = vec[:, -1] * np.sqrt(max(lam[-1], 0.0))
        if not pin:
            j = int(np.argmax(np.abs(g)))
            if g[j] < 0:
                g = -g
            points.append(g)
        else:
            last = g[-1]
            if abs(abs(last) - 1.0) > tol:
                return None
            points.append((g / last)[:-1])
    return points


def loop_reduce(b, sol, tol=1e-7, rank_tol=1e-6):
    """Rank reduction over a dense table of every (row, block) matrix, with
    one eigh per block per use: the reference that reduce must match bit
    for bit (guards as reduce's, so non-finite slacks are rejected too)."""
    for coeff in b.operator.slack_coeffs:
        if coeff == -1:
            raise StructureError("reduce requires a standard-form BlockSdp")
    if sol.status is not SolveStatus.OPTIMAL:
        raise StaleSolutionError(f"solution status is {sol.status.value}")
    if len(sol.blocks) != b.n_blocks or len(sol.slacks) != b.n_rows:
        raise StaleSolutionError("solution shape does not match the problem")
    if not np.isfinite(sol.slacks).all():
        raise StaleSolutionError("solution slacks are not finite")

    nb = b.n_blocks
    dims = list(b.block_dims)
    A = row_table(b)
    C = [mat.to_dense() for mat in b.objective]
    d_vec = b.operator.rhs.copy()
    has_slack = b.operator.slack_coeffs != 0

    X = [blk.to_dense().copy() for blk in sol.blocks]
    s = sol.slacks.astype(np.float64).copy()
    s[~has_slack] = 0.0

    def row_values():
        out = np.array(
            [sum(float(np.sum(A[i][bi] * X[bi])) for bi in range(nb))
             for i in range(b.n_rows)]
        )
        return out + np.where(has_slack, s, 0.0)

    def objective():
        return sum(float(np.sum(C[bi] * X[bi])) for bi in range(nb))

    scale_rhs = 1.0 + np.abs(d_vec).max(initial=0.0)
    res0 = np.abs(row_values() - d_vec).max(initial=0.0)
    if not (res0 <= 100.0 * tol * scale_rhs and s.min(initial=0.0) >= -100.0 * tol):
        raise StaleSolutionError(
            f"input residual {res0:.2e} too large for reduction at tol {tol:g}"
        )
    value0 = objective()
    vscale = tol * (1.0 + abs(value0))
    xmax = max((np.abs(x).max(initial=0.0) for x in X), default=0.0)
    freeze = tol * (1.0 + xmax)
    factor_cut = 0.1 * rank_tol

    def factor_blocks():
        fs = []
        for bi in range(nb):
            x = X[bi]
            if np.linalg.norm(x) <= freeze:
                X[bi] = np.zeros_like(x)
                fs.append(np.zeros((dims[bi], 0)))
                continue
            lam, vec = np.linalg.eigh(0.5 * (x + x.T))
            cut = factor_cut * max(1.0, lam.max(initial=0.0))
            keep = lam > cut
            fs.append(vec[:, keep] * np.sqrt(lam[keep]))
        return fs

    smax = np.abs(s).max(initial=0.0)

    def slack_live():
        return [
            i for i in range(b.n_rows)
            if has_slack[i] and s[i] > tol * (1.0 + smax)
        ]

    def build_system(fs, live, include_objective=True):
        widths = [f.shape[1] for f in fs]
        cols = sum(w * (w + 1) // 2 for w in widths) + len(live)
        sys_rows = []

        def project(mats):
            parts = []
            for bi in range(nb):
                f = fs[bi]
                if f.shape[1] == 0:
                    continue
                g = f.T @ mats[bi] @ f
                parts.append(_loop_svec(0.5 * (g + g.T)))
            return parts

        for i in range(b.n_rows):
            parts = project(A[i])
            slack_part = np.zeros(len(live))
            if i in live:
                slack_part[live.index(i)] = 1.0
            sys_rows.append(np.concatenate(parts + [slack_part]) if parts or len(live)
                            else np.zeros(0))
        if include_objective:
            parts = project(C)
            sys_rows.append(np.concatenate(parts + [np.zeros(len(live))])
                            if parts or len(live) else np.zeros(0))
        mat = np.vstack(sys_rows) if sys_rows else np.zeros((0, cols))
        return mat, widths

    def null_candidates(mat):
        if mat.shape[1] == 0:
            return []
        norms = np.linalg.norm(mat, axis=1)
        scaled = mat / np.maximum(norms, 1.0)[:, None]
        _, sig, vt = np.linalg.svd(scaled, full_matrices=True)
        rank = int(np.sum(sig > 1e-9 * max(1.0, sig[0] if sig.size else 0.0)))
        return [vt[j] for j in range(mat.shape[1] - 1, rank - 1, -1)]

    def split_direction(z, widths):
        lams = []
        ofs = 0
        for w in widths:
            k = w * (w + 1) // 2
            lams.append(_loop_unsvec(z[ofs : ofs + k], w))
            ofs += k
        ds = z[ofs:]
        scale = max(
            max((np.linalg.norm(lam) for lam in lams), default=0.0),
            np.abs(ds).max(initial=0.0),
        )
        if scale > 0:
            lams = [lam / scale for lam in lams]
            ds = ds / scale
        return lams, ds, scale

    def boundary(lams, ds, live, sign):
        best_t, hit = np.inf, None
        for bi in range(nb):
            lam_dir = sign * lams[bi]
            if lam_dir.size == 0:
                continue
            lmin = float(np.linalg.eigvalsh(lam_dir)[0])
            if lmin < -1e-300:
                t = -1.0 / lmin
                if t < best_t - 1e-15 or (
                    abs(t - best_t) <= 1e-15
                    and hit is not None
                    and hit[0] == "slack"
                ):
                    best_t, hit = t, ("block", bi)
        for j, i in enumerate(live):
            dv = sign * ds[j]
            if dv < -1e-300:
                t = -s[i] / dv
                if t < best_t - 1e-15:
                    best_t, hit = t, ("slack", i)
        return best_t, hit

    iterations = 0
    tiny_steps = 0
    max_iter = sum(dims) + int(np.sum(has_slack)) + 5

    def make_report(extracted=None):
        ranks = [numeric_rank(SymMatrix.from_dense(x), tol=rank_tol) for x in X]
        return rank_reduction.ReductionReport(
            iterations=iterations,
            final_ranks=ranks,
            pataki_sum=pataki_count(ranks, s, rank_tol),
            bound_m=b.n_rows,
            extracted=extracted,
        )

    def stall(msg):
        raise ReductionStallError(msg, report=make_report())

    while True:
        fs = factor_blocks()
        live = slack_live()
        mat, widths = build_system(fs, live, include_objective=True)
        res_budget = 3.0 * tol * scale_rhs

        def obj_velocity(lams):
            return sum(
                float(np.sum(C[bi] * (fs[bi] @ lams[bi] @ fs[bi].T)))
                for bi in range(nb)
            )

        def admissible(z, sys_mat, one_sided):
            lams, ds, scale = split_direction(z, widths)
            if scale <= 0.0:
                return None
            vel = np.abs(sys_mat @ z).max(initial=0.0) / scale
            dval = obj_velocity(lams)
            signs = ((-1.0,) if dval > 0 else (1.0,)) if one_sided else (1.0, -1.0)
            options = []
            for sign in signs:
                t, hit = boundary(lams, ds, live, sign)
                if not np.isfinite(t) or hit is None:
                    continue
                if t * vel > res_budget or abs(t * dval) > 0.3 * vscale:
                    continue
                kind, idx = hit
                key = (0, idx) if kind == "block" else (1, idx)
                options.append((key, sign, t, hit, lams, ds))
            if not options:
                return None
            options.sort(key=lambda o: o[0])
            return options[0]

        move = None
        cands = null_candidates(mat)
        for z in cands:
            move = admissible(z, mat, one_sided=False)
            if move is not None:
                break
        if move is None:
            if cands:
                stall("null directions are numerically unusable")
            mat2, _ = build_system(fs, live, include_objective=False)
            cands2 = null_candidates(mat2)
            for z in cands2:
                move = admissible(z, mat2, one_sided=True)
                if move is not None:
                    break
            if move is None and cands2:
                raise StaleSolutionError(
                    "a feasibility-preserving direction changes the objective; "
                    "input solution is not optimal at this tolerance"
                )
            if move is None:
                break
        iterations += 1
        if iterations > max_iter:
            stall(f"no termination after {max_iter} iterations")
        _, sign, t, hit, lams, ds = move

        if t < rank_reduction._STALL_STEP:
            tiny_steps += 1
            if tiny_steps >= 2:
                stall(f"step {t:.2e} below {rank_reduction._STALL_STEP:g} twice")
        for bi in range(nb):
            if widths[bi] == 0:
                continue
            core = np.eye(widths[bi]) + (sign * t) * lams[bi]
            xn = fs[bi] @ core @ fs[bi].T
            X[bi] = 0.5 * (xn + xn.T)
        for j, i in enumerate(live):
            s[i] = max(s[i] + sign * t * ds[j], 0.0)

        res = np.abs(row_values() - d_vec).max(initial=0.0)
        drift = abs(objective() - value0)
        if not (res <= 10.0 * tol * scale_rhs and drift <= vscale):
            stall(
                f"invariants broken: residual {res:.2e}, objective drift "
                f"{drift:.2e}"
            )

    points = loop_extract_point(
        SdpSolution(
            blocks=[SymMatrix.from_dense(x) for x in X],
            slacks=s,
            dual_multipliers=sol.dual_multipliers,
            dual_blocks=sol.dual_blocks,
            status=SolveStatus.OPTIMAL,
            value=objective(),
        ),
        loop_pinned(b),
        rank_tol=rank_tol,
    )
    report = make_report(extracted=points)
    out = SdpSolution(
        blocks=[SymMatrix.from_dense(x) for x in X],
        slacks=s,
        dual_multipliers=sol.dual_multipliers.copy(),
        dual_blocks=list(sol.dual_blocks),
        status=SolveStatus.OPTIMAL,
        value=objective(),
        primal_residual=float(np.abs(row_values() - d_vec).max(initial=0.0)),
        dual_residual=sol.dual_residual,
        gap=sol.gap,
        iterations=sol.iterations,
    )
    return out, report


def same_points(a, b):
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(np.array_equal(p, q) for p, q in zip(a, b))


def same_report(a, b):
    return (
        a.iterations == b.iterations
        and a.final_ranks == b.final_ranks
        and a.pataki_sum == b.pataki_sum
        and a.bound_m == b.bound_m
        and same_points(a.extracted, b.extracted)
    )


def run_both(b, sol, **kw):
    """(result or exception) of reduce and of loop_reduce on the same input."""
    outs = []
    for fn in (reduce, loop_reduce):
        try:
            outs.append(fn(b, sol, **kw))
        except (ReductionStallError, StaleSolutionError, StructureError) as exc:
            outs.append(exc)
    return outs


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, ReductionStallError):
            assert same_report(got.report, want.report)
        return
    (red, rep), (red0, rep0) = got, want
    assert all(
        np.array_equal(x.to_dense(), y.to_dense())
        for x, y in zip(red.blocks, red0.blocks)
    )
    assert np.array_equal(red.slacks, red0.slacks)
    assert red.value == red0.value
    assert red.primal_residual == red0.primal_residual
    assert same_report(rep, rep0)


class TestMatchesLoopReduction:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150)
    def test_bit_for_bit(self, seed):
        b, sol = walk_instance(seed)
        got, want = run_both(b, sol)
        assert_same_outcome(got, want)

    def test_instances_take_steps(self):
        # the benchmark pools never step (every reduction reports zero
        # iterations), so the property must reach the walk itself
        steps = []
        for seed in range(40):
            b, sol = walk_instance(seed)
            got, want = run_both(b, sol)
            assert_same_outcome(got, want)
            if not isinstance(want, Exception):
                steps.append(want[1].iterations)
        assert len(steps) >= 30
        assert sum(n >= 2 for n in steps) >= 10

    @pytest.mark.parametrize("seed", range(6))
    def test_frozen_block(self, seed):
        """A block no row touches, at 1e-9 I, lies below the freeze
        threshold: the first factorization zeroes it and decomposes it
        as a zero block, whose spectrum the report reads with the others
        of the final iterate; report and solution are the loop
        reference's, byte for byte."""
        b0, sol0 = walk_instance(seed)
        zero = SymMatrix.zeros(2)
        b = BlockSdp.from_rows(
            b0.block_dims + (2,),
            b0.objective + (zero,),
            [(mats + (zero,), c, r) for mats, c, r in row_tuples(b0)],
            normalization_rows=b0.normalization_rows,
        )
        sol = dataclasses.replace(
            sol0,
            blocks=sol0.blocks + [sym(1e-9 * np.eye(2))],
            dual_blocks=sol0.dual_blocks + [zero],
        )
        got, want = run_both(b, sol)
        assert_same_outcome(got, want)
        if not isinstance(want, Exception):
            assert got[1].final_ranks[-1] == 0
            assert np.array_equal(got[0].blocks[-1].to_dense(), np.zeros((2, 2)))

    def test_frozen_block_without_steps(self):
        """The same at an extreme point, where the walk takes no step: the
        frozen block is still zeroed in the returned solution."""
        q = Qcqp(
            1,
            QuadFunc.from_parts([[1.0]]),
            [(QuadFunc.from_parts([[1.0]]), Relation.EQ)],
            [1.0],
        )
        b0 = to_standard_form(build_shor(q))
        zero = SymMatrix.zeros(3)
        b = BlockSdp.from_rows(
            b0.block_dims + (3,),
            b0.objective + (zero,),
            [(mats + (zero,), c, r) for mats, c, r in row_tuples(b0)],
            normalization_rows=b0.normalization_rows,
        )
        sol = hand_solution(b, [lift(np.array([1.0])), 1e-10 * np.eye(3)], 1.0)
        got, want = run_both(b, sol)
        assert_same_outcome(got, want)
        assert got[1].iterations == 0 and got[1].final_ranks == [1, 0]
        assert not got[0].blocks[1].to_dense().any()

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 3.0])
    def test_benchmark_family(self, alpha):
        b = to_standard_form(build_hom(two_block_family(alpha)))
        got, want = run_both(b, solve(b))
        assert_same_outcome(got, want)

    def test_extract_point_matches(self):
        for seed in range(20):
            b, sol = walk_instance(seed)
            red, _ = loop_reduce(b, sol)
            pinned = loop_pinned(b)
            got = extract_point(red, pinned)
            want = loop_extract_point(red, pinned)
            assert same_points(got, want)


def convex_entry(rng, n, m):
    def psd(ridge):
        g = rng.standard_normal((n, n))
        return g @ g.T / n + ridge * np.eye(n)

    obj = QuadFunc.from_parts(psd(0.5), rng.standard_normal(n))
    cons = [
        (QuadFunc.from_parts(psd(0.1), rng.standard_normal(n)), Relation.LE)
        for _ in range(m)
    ]
    return obj, cons


class TestOneDecompositionPerIterate:
    def test_wide_connection_joint_reduction(self, monkeypatch):
        # 16 convex entries with n = 3 sharing m = 3 rows: 16 blocks of 4x4,
        # 19 rows, of which only 64 (row, block) pairs are active
        rng = np.random.default_rng(5)
        parts = [convex_entry(rng, 3, 3) for _ in range(16)]
        gamma = np.full(3, 40.0)
        s = SeparableQcqp(
            [Qcqp(3, obj, cons, gamma) for obj, cons in parts], gamma
        )
        b = to_standard_form(build_block(s))
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        want = loop_reduce(b, sol)

        calls = {"eigh": 0, "triu_indices": 0}
        for name in calls:
            host = np.linalg if name == "eigh" else np
            real = getattr(host, name)

            def counted(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(host, name, counted)
        rank_reduction._svec_layout.cache_clear()
        got = reduce(b, sol)
        monkeypatch.undo()

        assert_same_outcome(got, want)
        groups = len(set(b.block_dims))
        iterations = got[1].iterations
        # factor every iterate; the last factorization also gives the
        # final ranks and the extraction
        assert calls["eigh"] <= groups * (iterations + 1)
        pairs = sum(
            mat.any() for row in row_table(b) for mat in row
        )
        assert pairs == 64
        assert calls["triu_indices"] <= max(b.block_dims)
