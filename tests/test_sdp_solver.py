"""Interior-point solver: analytic values, duals, statuses, invariants."""

import warnings

import numpy as np
import pytest

from sepqcqp.connection import judge
from sepqcqp.errors import InfeasibleStructureError
from sepqcqp.examples import make_example51, make_example52
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
from sepqcqp.sdp_solver import solve
from sepqcqp.sdpr_builder import (
    BlockSdp,
    SdpSolution,
    SolveStatus,
    build_block,
    build_hom,
    build_shor,
)
from sepqcqp.symkernel import SymMatrix, numeric_rank

from instances import check_solution, strip_variable_free_rows


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
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [((sym(np.diag([0.0, 1.0])),), 0, 1.0)],
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
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [
                ((sym(np.diag([0.0, 1.0])),), 0, 1.0),
                ((sym(np.diag([0.0, 1.0])),), 0, 2.0),
            ],
        )
        with pytest.raises(InfeasibleStructureError):
            solve(b)

    def test_zero_row_nonzero_rhs_infeasible(self):
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [((SymMatrix.zeros(2),), 0, 1.0)],
        )
        with pytest.raises(InfeasibleStructureError):
            solve(b)

    def test_redundant_consistent_row_dropped(self):
        # duplicate normalization row: consistent, solvable, zero dual on dup
        e22 = sym(np.diag([0.0, 1.0]))
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [((e22,), 0, 1.0), ((e22,), 0, 1.0)],
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
            op = BlockSdp.from_rows((2,), (e11,), rows).operator
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "matrix_rank", counted)
                return sdp_solver._presolve(op)

        assert presolved([((e11,), 0, 1.0), ((e22,), 0, 1.0)]) == [0, 1]
        assert widths == [4]
        assert presolved([((e22,), 0, 1.0), ((e22,), 0, 1.0)]) == [0]
        assert widths[:2] == [4, 5]  # rows, then rows | rhs
        assert widths.count(5) == 1
        with pytest.raises(InfeasibleStructureError):
            presolved([((e22,), 0, 1.0), ((e22,), 0, 2.0)])
        assert widths == [4, 5]

    def test_primal_infeasible_diverges(self):
        # X11 <= -1 with X PSD is infeasible -> heuristic Diverged flag
        b = BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [((sym(np.diag([1.0, 0.0])),), 1, -1.0)],
        )
        sol = solve(b)
        assert sol.status is SolveStatus.DIVERGED

    def test_unbounded_diverges(self):
        # min -X11 with no rows: unbounded below -> Diverged
        b = BlockSdp.from_rows((2,), (sym(np.diag([-1.0, 0.0])),), [])
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
            ((SymMatrix.from_dense(a),), 0, float(np.sum(a * x0)))
            for a in amats
        ]
        b = BlockSdp.from_rows((dim,), (SymMatrix.from_dense(cmat),), rows)
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
            ((SymMatrix.from_dense(a),), 0, float(np.sum(a * x0)))
            for a in amats
        ]
        sol = solve(BlockSdp.from_rows((dim,), (SymMatrix.from_dense(cmat),), rows))
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
        return BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [((sym(np.diag([0.0, 1.0])),), 0, 1.0)],
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


class TestMaxIter:
    @pytest.mark.parametrize(
        "value", [0, -1, 2.5, True, None, "3", np.bool_(True), np.int64(0), np.float64(3.0)]
    )
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="max_iter"):
            solve(build_hom(two_block_family(1.0)), value)

    def test_accepts_one(self):
        sol = solve(build_hom(two_block_family(1.0)), 1)
        assert sol.iterations == 1

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integers(self, cast):
        """A numpy integer caps the solve as the int does; a MaxIter stop
        records its iterations as an int."""
        b = build_hom(two_block_family(1.0))
        sol = solve(b, cast(50))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.mu_history == solve(b, 50).mu_history
        capped = solve(b, cast(3))
        assert capped.status is SolveStatus.MAX_ITER
        assert type(capped.iterations) is int and capped.iterations == 3


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
        deltas = judge(s).delta_decomposition
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
        BlockSdp.from_rows(
            (2,),
            (sym(np.diag([1.0, 0.0])),),
            [
                ((sym(np.diag([0.0, 1.0])),), 0, 1.0),
                ((sym(np.diag([0.0, 1.0])),), 0, 2.0),
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
    """A batch of problems is solved one problem at a time: every result
    is the problem's own, whatever the other problems and their order."""

    def test_batch_equals_single_solves(self):
        bs = mixed_batch()
        singles = [single(b) for b in bs]
        statuses = {r.status for r in singles if isinstance(r, SdpSolution)}
        assert statuses == {
            SolveStatus.OPTIMAL,
            SolveStatus.DIVERGED,
            SolveStatus.NUMERICAL_FAILURE,
        }
        for got, ref in zip([single(b) for b in bs[::-1]], singles[::-1]):
            if isinstance(ref, InfeasibleStructureError):
                assert isinstance(got, InfeasibleStructureError)
                assert str(got) == str(ref)
            else:
                assert_same_solution(got, ref)

    def test_structural_error_stays_in_its_slot(self):
        # only the contradictory rows raise, and they raise again; the
        # problems solved before and after them are untouched
        bs = mixed_batch()
        out = [single(b) for b in bs]
        bad = [i for i, r in enumerate(out) if isinstance(r, Exception)]
        assert bad == [len(bs) - 1]
        assert all(isinstance(r, SdpSolution) for r in out[:-1])
        with pytest.raises(InfeasibleStructureError, match="contradictory"):
            solve(bs[-1])

    def test_problem_without_blocks(self):
        # s = 1 with s >= 0 and nothing else: only the slack moves
        free = BlockSdp.from_rows((), (), [((), 1, 1.0)])
        sol = solve(free)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.blocks == []
        assert sol.slacks[0] == pytest.approx(1.0, abs=1e-7)

    def test_failed_slot_fails_only_its_problem(self, monkeypatch):
        # the middle problem's first NT scaling raises: its solve stops at
        # iteration 1 with the starting iterate, and the others solve as
        # if nothing had happened
        bs = [build_hom(two_block_family(a)) for a in (0.0, 1.0, 3.0)]
        singles = [solve(b) for b in bs]
        real = sdp_solver._nt_scaling
        fired = []

        def flaky(x, s):
            if not fired:
                fired.append(True)
                raise np.linalg.LinAlgError("injected")
            return real(x, s)

        before = np.geterr()
        out = [solve(bs[0])]
        with monkeypatch.context() as m:
            m.setattr(sdp_solver, "_nt_scaling", flaky)
            out.append(solve(bs[1]))
        out.append(solve(bs[2]))
        assert np.geterr() == before
        hit = out[1]
        assert hit.status is SolveStatus.NUMERICAL_FAILURE
        assert hit.iterations == 1
        assert hit.mu_history == singles[1].mu_history[:1]
        np.testing.assert_array_equal(hit.blocks[0].to_dense(), 10.0 * np.eye(2))
        assert_same_solution(out[0], singles[0])
        assert_same_solution(out[2], singles[2])

    def test_error_state_restored_after_a_failing_batch(self, monkeypatch):
        def broken(x, s):
            raise RuntimeError("scaling failed")

        bs = mixed_batch()
        before = np.geterr()
        [single(b) for b in bs]
        assert np.geterr() == before
        monkeypatch.setattr(sdp_solver, "_nt_scaling", broken)
        with pytest.raises(RuntimeError, match="scaling failed"):
            [single(b) for b in bs]
        assert np.geterr() == before


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestEarlyAbort:
    """A LinAlgError from any LAPACK call of a step ends the solve as
    NumericalFailure at that iteration, with the iterate the step started
    from: the iterate that max_iter = k - 1 returns."""

    @pytest.mark.parametrize("k", [1, 5, 12])
    @pytest.mark.parametrize(
        "name", ["_nt_scaling", "_xs_factor", "_cholesky_solve", "_boundary_eig"]
    )
    def test_linalg_error_at_iteration(self, monkeypatch, name, k):
        b = build_block(make_example52(0))
        clean = solve(b)
        assert clean.status is SolveStatus.OPTIMAL and clean.iterations > 12
        real, residuals = getattr(sdp_solver, name), sdp_solver._Ipm.residuals
        iteration = [0]

        def counted(self):
            iteration[0] += 1
            return residuals(self)

        def flaky(*args):
            if iteration[0] == k:
                raise np.linalg.LinAlgError("injected")
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(sdp_solver._Ipm, "residuals", counted)
            m.setattr(sdp_solver, name, flaky)
            before = np.geterr()
            sol = solve(b)
            assert np.geterr() == before
        assert sol.status is SolveStatus.NUMERICAL_FAILURE
        assert sol.iterations == k
        assert sol.mu_history == clean.mu_history[:k]
        if k == 1:
            return
        ref = solve(b, k - 1)
        assert ref.status is SolveStatus.MAX_ITER
        for f in ("slacks", "dual_multipliers"):
            assert bits(getattr(sol, f)) == bits(getattr(ref, f)), f
        for f in ("blocks", "dual_blocks"):
            for xa, xb in zip(getattr(sol, f), getattr(ref, f)):
                assert bits(xa.to_dense()) == bits(xb.to_dense()), f
