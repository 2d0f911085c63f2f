"""Interior-point solver: analytic values, duals, statuses, invariants."""

import math
import warnings

import numpy as np
import pytest

from sepqcqp.connection import (
    decompose_delta,
    make_example51,
    make_example52,
    strip_variable_free_rows,
)
from sepqcqp.errors import InfeasibleStructureError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    brute_force,
    connect,
    flatten,
)
from sepqcqp import sdp_solver
from sepqcqp.sdp_solver import (
    ResidualReport,
    SolverOptions,
    check_solution,
    solve,
    solve_many,
)
from sepqcqp.sdpr_builder import (
    BlockSdp,
    Row,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
)
from sepqcqp.symkernel import SymMatrix, numeric_rank


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def sym(rows):
    return SymMatrix.from_dense(np.asarray(rows, dtype=float))


def two_block_family(alpha):
    """min v1^2 - w^2 over v2^2 = 1, (v1-a v2)(v1-4v2) <= 0,
    w^2 <= (v1-2v2)(v1-3v2); purely quadratic, two blocks."""
    c1 = [
        sym(np.diag([1.0, 0.0])),
        sym(np.diag([0.0, 1.0])),
        sym([[1.0, -(4 + alpha) / 2], [-(4 + alpha) / 2, 4 * alpha]]),
        sym([[-1.0, 2.5], [2.5, -6.0]]),
    ]
    c2 = [sym([[-1.0]]), SymMatrix.zeros(1), SymMatrix.zeros(1), sym([[1.0]])]
    return HomSepQcqp(
        [c1, c2], [Relation.EQ, Relation.LE, Relation.LE], [1.0, 0.0, 0.0]
    )


def family_value(alpha):
    if alpha <= 2 or alpha >= 3:
        return 5 * alpha - 6
    return (14 * alpha - 24) / (alpha - 1)


class TestTrivialSdp:
    def test_corner_pin(self):
        # min X11 s.t. X22 = 1 -> 0 at diag(0, 1)
        b = BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [Row((sym(np.diag([0.0, 1.0])),), 0, 1.0)],
        )
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-7)
        assert sol.blocks[0][1, 1] == pytest.approx(1.0, abs=1e-7)
        assert sol.blocks[0][0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_shor_box(self):
        # min -u^2 s.t. u^2 <= 1 -> relaxation hits -1
        q = Qcqp(1, qf([[-1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        sol = solve(build_shor(q))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(-1.0, abs=1e-7)

    def test_ge_row_slack_and_dual(self):
        # min u^2 s.t. u^2 >= 4 -> 4; active row, nonnegative slack ~ 0
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.GE)], [4.0])
        sol = solve(build_shor(q))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(4.0, abs=1e-6)
        assert sol.slacks[0] == pytest.approx(0.0, abs=1e-6)
        # for a binding >= row in a min problem the multiplier is >= 0
        assert sol.dual_multipliers[0] > 0.5

    def test_unconstrained_convex(self):
        # min u^2 - 4u -> -4
        q = Qcqp(1, qf([[1.0]], [-2.0]), [], [])
        sol = solve(build_shor(q))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(-4.0, abs=1e-6)

    def test_zero_objective_zero_rows(self):
        h = HomSepQcqp(
            [[SymMatrix.zeros(2), SymMatrix.zeros(2)]], [Relation.LE], [0.0]
        )
        with pytest.warns(UserWarning):
            b = build_hom(h)
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-7)


class TestFamilyValues:
    @pytest.mark.parametrize(
        "alpha,rank",
        [(0.0, 1), (1.0, 1), (2.0, 1), (2.5, 2), (3.0, 1), (3.5, 1)],
    )
    def test_values_and_ranks(self, alpha, rank):
        sol = solve(build_hom(two_block_family(alpha)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(family_value(alpha), abs=1e-6)
        assert numeric_rank(sol.blocks[0], tol=1e-6) == rank

    def test_alpha3_first_block(self):
        sol = solve(build_hom(two_block_family(3.0)))
        v = sol.blocks[0]
        assert v[0, 0] == pytest.approx(9.0, abs=1e-5)
        assert v[0, 1] == pytest.approx(3.0, abs=1e-5)
        assert v[1, 1] == pytest.approx(1.0, abs=1e-5)


class TestStatuses:
    def test_contradictory_equalities(self):
        b = BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [
                Row((sym(np.diag([0.0, 1.0])),), 0, 1.0),
                Row((sym(np.diag([0.0, 1.0])),), 0, 2.0),
            ],
        )
        with pytest.raises(InfeasibleStructureError):
            solve(b)

    def test_zero_row_nonzero_rhs_infeasible(self):
        b = BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [Row((SymMatrix.zeros(2),), 0, 1.0)],
        )
        with pytest.raises(InfeasibleStructureError):
            solve(b)

    def test_redundant_consistent_row_dropped(self):
        # duplicate normalization row: consistent, solvable, zero dual on dup
        e22 = sym(np.diag([0.0, 1.0]))
        b = BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [Row((e22,), 0, 1.0), Row((e22,), 0, 1.0)],
        )
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-7)
        assert sol.dual_multipliers[1] == 0.0

    def test_presolve_rank_tests(self, monkeypatch):
        # the [rows | rhs] rank test runs only when the rows are
        # rank-deficient: full row rank leaves no rhs to contradict
        e11, e22 = sym(np.diag([1.0, 0.0])), sym(np.diag([0.0, 1.0]))
        widths = []
        rank = np.linalg.matrix_rank

        def counted(a, *args, **kwargs):
            widths.append(a.shape[1])
            return rank(a, *args, **kwargs)

        def presolved(rows):
            widths.clear()
            op = BlockSdp((2,), (e11,), rows).operator
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "matrix_rank", counted)
                return sdp_solver._presolve(op)

        assert presolved([Row((e11,), 0, 1.0), Row((e22,), 0, 1.0)]) == [0, 1]
        assert widths == [4]
        assert presolved([Row((e22,), 0, 1.0), Row((e22,), 0, 1.0)]) == [0]
        assert widths[:2] == [4, 5]  # rows, then rows | rhs
        assert widths.count(5) == 1
        with pytest.raises(InfeasibleStructureError):
            presolved([Row((e22,), 0, 1.0), Row((e22,), 0, 2.0)])
        assert widths == [4, 5]

    def test_primal_infeasible_diverges(self):
        # X11 <= -1 with X PSD is infeasible -> heuristic Diverged flag
        b = BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [Row((sym(np.diag([1.0, 0.0])),), 1, -1.0)],
        )
        sol = solve(b)
        assert sol.status is SolveStatus.DIVERGED

    def test_unbounded_diverges(self):
        # min -X11 with no rows: unbounded below -> Diverged
        b = BlockSdp((2,), (sym(np.diag([-1.0, 0.0])),), [])
        sol = solve(b)
        assert sol.status is SolveStatus.DIVERGED


class TestRandomStrictlyFeasible:
    @pytest.mark.parametrize("seed", range(10))
    def test_converges_with_known_interior(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 11))
        m = int(rng.integers(1, 13))
        x0 = rng.standard_normal((dim, dim))
        x0 = x0 @ x0.T + dim * np.eye(dim)  # strictly feasible primal
        s0 = rng.standard_normal((dim, dim))
        s0 = s0 @ s0.T + dim * np.eye(dim)  # strictly feasible dual slack
        y0 = rng.standard_normal(m)
        amats = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim))
            amats.append(0.5 * (a + a.T))
        cmat = s0 + sum(y * a for y, a in zip(y0, amats))
        rows = [
            Row((SymMatrix.from_dense(a),), 0, float(np.sum(a * x0)))
            for a in amats
        ]
        b = BlockSdp((dim,), (SymMatrix.from_dense(cmat),), rows)
        sol = solve(b)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.iterations <= 200
        rep = check_solution(b, sol, 1e-6)
        assert rep.within_tol
        # weak duality against the known feasible primal point
        assert sol.value <= float(np.sum(cmat * x0)) + 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_mu_decreases(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim, m = 5, 6
        x0 = rng.standard_normal((dim, dim))
        x0 = x0 @ x0.T + dim * np.eye(dim)
        amats = [0.5 * (a + a.T) for a in rng.standard_normal((m, dim, dim))]
        cmat = rng.standard_normal((dim, dim))
        cmat = cmat @ cmat.T + dim * np.eye(dim)
        rows = [
            Row((SymMatrix.from_dense(a),), 0, float(np.sum(a * x0)))
            for a in amats
        ]
        sol = solve(BlockSdp((dim,), (SymMatrix.from_dense(cmat),), rows))
        assert sol.status is SolveStatus.OPTIMAL
        hist = sol.mu_history
        for a, b2 in zip(hist, hist[1:]):
            assert b2 <= 1.1 * a


class TestLowerBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_relaxation_below_grid_optimum(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        obj = qf(
            0.5 * (lambda g: g + g.T)(rng.standard_normal((n, n))),
            rng.standard_normal(n),
        )
        cons = []
        for _ in range(m):
            g = rng.standard_normal((n, n))
            cons.append((qf(0.5 * (g + g.T), rng.standard_normal(n)), Relation.LE))
        # rhs chosen so the origin is strictly feasible
        rhs = rng.uniform(0.5, 2.0, size=m)
        q = Qcqp(n, obj, cons, rhs)
        val, pt = brute_force(q, (-3.0, 3.0), refine_rounds=3)
        sol = solve(build_shor(q))
        if sol.status is SolveStatus.OPTIMAL and pt is not None:
            assert sol.value <= val + 1e-5


class TestCheckSolution:
    def trivial(self):
        return BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [Row((sym(np.diag([0.0, 1.0])),), 0, 1.0)],
        )

    def test_hand_built_optimal(self):
        b = self.trivial()
        sol = SdpSolution(
            blocks=[sym(np.diag([0.0, 1.0]))],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[sym(np.diag([1.0, 0.0]))],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )
        rep = check_solution(b, sol, 1e-9)
        assert rep.max_row_residual <= 1e-12
        assert min(rep.min_eigenvalues) >= -1e-12

    def test_perturbation_visible(self):
        b = self.trivial()
        sol = SdpSolution(
            blocks=[sym(np.diag([1e-3, 1.0 + 1e-3]))],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[sym(np.diag([1.0, 0.0]))],
            status=SolveStatus.OPTIMAL,
            value=1e-3,
        )
        rep = check_solution(b, sol, 1e-9)
        assert rep.row_residuals[0] == pytest.approx(1e-3, rel=1e-6)
        assert not rep.within_tol

    def test_family_closed_form_passes(self):
        # alpha = 2: value 4, V = [[4, 2], [2, 1]], W = 0
        h = two_block_family(2.0)
        b = build_hom(h)
        sol = SdpSolution(
            blocks=[sym([[4.0, 2.0], [2.0, 1.0]]), sym([[0.0]])],
            slacks=np.zeros(3),
            dual_multipliers=np.zeros(3),
            dual_blocks=[SymMatrix.zeros(2), SymMatrix.zeros(1)],
            status=SolveStatus.OPTIMAL,
            value=4.0,
        )
        rep = check_solution(b, sol, 1e-6)
        assert rep.max_row_residual <= 1e-6
        assert min(rep.min_eigenvalues) >= -1e-6
        assert rep.primal_objective == pytest.approx(4.0, abs=1e-9)

    def test_dimension_mismatch(self):
        b = self.trivial()
        sol = SdpSolution(
            blocks=[SymMatrix.zeros(3)],
            slacks=np.zeros(1),
            dual_multipliers=np.zeros(1),
            dual_blocks=[SymMatrix.zeros(3)],
            status=SolveStatus.OPTIMAL,
            value=0.0,
        )
        from sepqcqp.errors import DimensionError

        with pytest.raises(DimensionError):
            check_solution(b, sol, 1e-9)


class TestStandardFormValue:
    @pytest.mark.parametrize("seed", range(6))
    def test_value_preserved(self, seed):
        from sepqcqp.sdpr_builder import to_standard_form

        rng = np.random.default_rng(300 + seed)
        n = 2
        cons = []
        rels = [Relation.LE, Relation.GE, Relation.EQ]
        for rel in rels:
            g = rng.standard_normal((n, n))
            cons.append((qf(0.5 * (g + g.T) + 2 * np.eye(n), rng.standard_normal(n)), rel))
        # rhs keeps the problem feasible and bounded: origin-ish interior
        q = Qcqp(n, qf(np.eye(n), rng.standard_normal(n)), cons, [4.0, 0.5, 1.0])
        b = build_shor(q)
        s1 = solve(b)
        s2 = solve(to_standard_form(b))
        if s1.status is SolveStatus.OPTIMAL and s2.status is SolveStatus.OPTIMAL:
            assert abs(s1.value - s2.value) <= 1e-7 * (1 + abs(s1.value))


class TestConnectionSolve:
    def test_two_entry_block_sdp(self):
        # separable convex: min (u-1)^2-ish + (w+2)^2-ish split over entries
        a = Qcqp(1, qf([[1.0]], [-1.0]), [(qf([[1.0]]), Relation.LE)], [9.0])
        c = Qcqp(1, qf([[1.0]], [2.0]), [(qf([[1.0]]), Relation.LE)], [9.0])
        s = connect([a, c], [12.0])
        sol = solve(build_block(s))
        assert sol.status is SolveStatus.OPTIMAL
        # unconstrained minima: -1 at u=1 and -4 at w=-2, both inside u^2+w^2<=12
        assert sol.value == pytest.approx(-5.0, abs=1e-6)
        flat = flatten(s)
        val, _ = brute_force(flat, (-4.0, 4.0), refine_rounds=6)
        assert sol.value <= val + 1e-5


class TestSolverOptions:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("tol", 0.0),
            ("tol", -1.0),
            ("tol", math.nan),
            ("tol", math.inf),  # reported Optimal after one iteration
            ("initial_scale", 0.0),
            ("initial_scale", math.nan),
            ("initial_scale", math.inf),  # raised from SymMatrix
            ("max_iter", 0),
            ("max_iter", 2.5),  # raised TypeError mid-solve
            ("max_iter", True),
            ("max_iter", None),
            ("step_fraction", 1.0),
            ("step_fraction", math.nan),
        ],
    )
    def test_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverOptions(**{name: value})

    def test_accepts_the_edges(self):
        opts = SolverOptions(tol=1e-300, max_iter=1, initial_scale=1e300)
        sol = solve(build_hom(two_block_family(1.0)), opts)
        assert sol.iterations == 1


class TestNumpyErrorState:
    def test_error_state_restored_after_a_raise(self, monkeypatch):
        def broken(x, s):
            raise RuntimeError("scaling failed")

        monkeypatch.setattr(sdp_solver, "_nt_scaling", broken)
        before = np.geterr()
        with pytest.raises(RuntimeError, match="scaling failed"):
            solve(build_hom(two_block_family(1.0)))
        assert np.geterr() == before

    def test_error_state_restored_after_a_return(self):
        before = np.geterr()
        solve(build_hom(two_block_family(1.0)))
        assert np.geterr() == before


def mixed_batch() -> list:
    """Problems of every shape and outcome the solver meets: the example-5.2
    connection and its entries at their allocations (blocks of different
    dims and row counts),
    the entries of a convex connection, the alpha = 4 relaxation (no
    strictly feasible point), x'x <= -1, the unbounded min -x^2 s.t.
    2x <= 1, and a problem with contradictory rows."""
    out = []
    for seed in (0, 3):
        s = make_example52(seed)
        out.append(build_block(s))
        deltas = decompose_delta(s, solve(out[-1]))
        for entry, delta in zip(s.blocks, deltas):
            if isinstance(entry, Qcqp):
                q = Qcqp(entry.n, entry.objective, list(entry.constraints), delta)
                out.append(build_shor(strip_variable_free_rows(q)[0]))
            else:
                h = HomSepQcqp(entry.blocks, list(entry.relations), delta)
                with warnings.catch_warnings():  # rows zero at this allocation
                    warnings.simplefilter("ignore", UserWarning)
                    out.append(build_hom(h))
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        cons = [(qf(np.eye(3), rng.standard_normal(3)), Relation.LE) for _ in range(2)]
        out.append(build_shor(Qcqp(3, qf(a @ a.T, rng.standard_normal(3)), cons, [4.0, 3.0])))
    out.append(build_hom(make_example51(4.0)))
    out.append(build_shor(Qcqp(2, qf(np.eye(2)), [(qf(np.eye(2)), Relation.LE)], [-1.0])))
    out.append(build_shor(Qcqp(1, qf([[-1.0]]), [(qf([[0.0]], [1.0]), Relation.LE)], [1.0])))
    out.append(
        BlockSdp(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [
                Row((sym(np.diag([0.0, 1.0])),), 0, 1.0),
                Row((sym(np.diag([0.0, 1.0])),), 0, 2.0),
            ],
        )
    )
    return out


def assert_same_solution(a, b):
    """Bit-for-bit equality of two solver results."""
    assert a.status is b.status
    assert a.iterations == b.iterations
    for f in ("value", "primal_residual", "dual_residual", "gap"):
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
    np.testing.assert_array_equal(a.dual_multipliers, b.dual_multipliers)
    np.testing.assert_array_equal(a.slacks, b.slacks)
    for xa, xb in zip(a.blocks + a.dual_blocks, b.blocks + b.dual_blocks):
        np.testing.assert_array_equal(xa.to_dense(), xb.to_dense())
    assert a.mu_history == b.mu_history


def single(b):
    try:
        return solve(b)
    except InfeasibleStructureError as exc:
        return exc


class TestSolveMany:
    def test_batch_equals_single_solves(self):
        bs = mixed_batch()
        singles = [single(b) for b in bs]
        statuses = {r.status for r in singles if isinstance(r, SdpSolution)}
        assert statuses == {
            SolveStatus.OPTIMAL,
            SolveStatus.DIVERGED,
            SolveStatus.NUMERICAL_FAILURE,
        }
        for order in (bs, bs[::-1]):
            batch = solve_many(order)
            want = singles if order is bs else singles[::-1]
            assert len(batch) == len(order)
            for got, ref in zip(batch, want):
                if isinstance(ref, InfeasibleStructureError):
                    assert isinstance(got, InfeasibleStructureError)
                    assert str(got) == str(ref)
                else:
                    assert_same_solution(got, ref)

    def test_structural_error_stays_in_its_slot(self):
        bs = mixed_batch()
        out = solve_many(bs)
        bad = [i for i, r in enumerate(out) if isinstance(r, Exception)]
        assert bad == [len(bs) - 1]
        assert all(isinstance(r, SdpSolution) for r in out[:-1])
        with pytest.raises(InfeasibleStructureError):
            solve(bs[-1])

    def test_empty_batch(self):
        assert solve_many([]) == []

    def test_problem_without_blocks(self):
        # s = 1 with s >= 0 and nothing else: only the slack moves
        free = BlockSdp((), (), [Row((), 1, 1.0)])
        for sol in (solve(free), solve_many([free, mixed_batch()[0]])[0]):
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.blocks == []
            assert sol.slacks[0] == pytest.approx(1.0, abs=1e-7)

    def test_failed_slot_fails_only_its_problem(self, monkeypatch):
        # the first stacked NT scaling raises, and so does the retry of
        # its first slot: only that slot's problem stops, at iteration 1
        bs = [build_hom(two_block_family(a)) for a in (0.0, 1.0, 3.0)]
        singles = [solve(b) for b in bs]
        real = sdp_solver._nt_scaling
        fired = []

        def flaky(x, s):
            if not fired and (x.ndim == 2 or len(x) > 1):
                if x.ndim == 2:
                    fired.append(True)
                raise np.linalg.LinAlgError("injected")
            return real(x, s)

        monkeypatch.setattr(sdp_solver, "_nt_scaling", flaky)
        before = np.geterr()
        out = solve_many(bs)
        assert np.geterr() == before
        failed = [i for i, r in enumerate(out) if r.status is SolveStatus.NUMERICAL_FAILURE]
        assert len(failed) == 1
        hit = out[failed[0]]
        assert hit.iterations == 1
        np.testing.assert_array_equal(hit.blocks[0].to_dense(), 10.0 * np.eye(2))
        for i, (got, ref) in enumerate(zip(out, singles)):
            if i != failed[0]:
                assert_same_solution(got, ref)

    def test_error_state_restored_after_a_failing_batch(self, monkeypatch):
        def broken(x, s):
            raise RuntimeError("scaling failed")

        before = np.geterr()
        solve_many(mixed_batch())
        assert np.geterr() == before
        monkeypatch.setattr(sdp_solver, "_nt_scaling", broken)
        with pytest.raises(RuntimeError, match="scaling failed"):
            solve_many(mixed_batch())
        assert np.geterr() == before
