"""Connection pipeline: allocations, blockwise optimality, verdicts,
bilevel reading, and the seeded instance generators."""

import json
import math
import os

import numpy as np
import pytest

from sepqcqp import connection
from sepqcqp.certificates import (
    CertificateKind,
    SignCase,
    check_convex,
    reduce_homogeneous_rows,
)
from sepqcqp.connection import (
    BilevelReport,
    ExactnessVerdict,
    JudgeOptions,
    VerdictStatus,
    bilevel_report,
    decompose_delta,
    judge,
    make_example51,
    make_example52,
    nonpositive_gauge,
    strip_variable_free_rows,
    validate_example52,
    verify_suboptimality,
)
from sepqcqp.errors import (
    DimensionError,
    GenerationError,
    RangeError,
)
from sepqcqp.qcqp_model import (
    INFEASIBLE,
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
    brute_force,
    flatten,
)
from sepqcqp.qcqp_model import eval as qf_eval
from sepqcqp.sdp_solver import solve
from sepqcqp.sdpr_builder import SdpSolution, SolveStatus, build_block
from sepqcqp.symkernel import frob_inner

from test_sdp_solver import family_value


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def single_convex_connection():
    """min |x|^2 - 2 e.x over |x|^2 <= 1 and a loose linear row, p_hat=1."""
    n = 2
    obj = qf(np.eye(n), -np.ones(n))
    cons = [
        (qf(np.eye(n)), Relation.LE),
        (qf(np.zeros((n, n)), np.ones(n)), Relation.LE),
    ]
    entry = Qcqp(n, obj, cons, [1.0, 50.0])
    return SeparableQcqp([entry], [1.0, 50.0])


def two_convex_connection():
    """Two convex entries with a shared tight quadratic budget row.

    Entry p wants x = a_p but row 1 caps |x|^2 + |y|^2 below
    |a_1|^2 + |a_2|^2, so the budget row is active at the optimum.
    """
    a1 = np.array([2.0, 0.0])
    a2 = np.array([0.0, 2.0])
    mk = lambda a: Qcqp(
        2,
        qf(np.eye(2), -a),
        [
            (qf(np.eye(2)), Relation.LE),
            (qf(np.zeros((2, 2)), np.ones(2)), Relation.LE),
        ],
        [4.0, 40.0],
    )
    return SeparableQcqp([mk(a1), mk(a2)], [4.0, 40.0])


def family_connection(alpha):
    return SeparableQcqp([make_example51(alpha)], [1.0, 0.0, 0.0])


def solved(s):
    b = build_block(s)
    sol = solve(b)
    assert sol.status is SolveStatus.OPTIMAL
    return sol


class TestDecomposeDelta:
    def test_single_entry_is_achieved_values(self):
        s = single_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        assert len(deltas) == 1
        x = sol.blocks[0]
        entry = s.blocks[0]
        direct = [frob_inner(f.B, x) for f, _ in entry.constraints]
        assert np.allclose(deltas[0], direct, atol=1e-12)
        for k, rel in enumerate(s.relations):
            assert rel.holds(float(deltas[0][k]), float(s.gamma[k]), 1e-6)

    def test_two_block_sum_matches_gamma_on_active_rows(self):
        s = two_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        total = np.sum(deltas, axis=0)
        for k in range(s.m):
            if sol.slacks[k] <= 1e-7:
                assert abs(total[k] - s.gamma[k]) <= 1e-6
        # the budget row is genuinely active here
        assert sol.slacks[0] <= 1e-7

    def test_example52_hom_rows_carry_the_whole_residual(self):
        s = make_example52(0)
        sol = solved(s)
        d1, d2, d3 = decompose_delta(s, sol)
        # rows 1 and 2 are variable-free for the first two entries
        assert d1[0] == 0.0 and d1[1] == 0.0
        assert d2[0] == 0.0 and d2[1] == 0.0
        # the equality row is carried entirely by the homogeneous entry
        assert abs(d3[0] - (s.gamma[0] - d1[0] - d2[0])) <= 1e-6

    def test_block_count_mismatch(self):
        s = single_convex_connection()
        other = solved(two_convex_connection())
        with pytest.raises(DimensionError):
            decompose_delta(s, other)


class TestVerifySuboptimality:
    def test_single_entry_gap_zero(self):
        s = single_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        gaps = verify_suboptimality(s, sol, deltas)
        assert gaps.shape == (1,)
        assert gaps[0] <= 1e-6

    def test_two_block_convex_gaps_small(self):
        s = two_convex_connection()
        sol = solved(s)
        gaps = verify_suboptimality(s, sol, decompose_delta(s, sol))
        assert np.all(np.isfinite(gaps))
        assert np.all(gaps <= 1e-6)

    def test_perturbed_allocation_detected(self):
        s = two_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        deltas[0] = deltas[0] + 0.1
        gaps = verify_suboptimality(s, sol, deltas)
        assert gaps[0] > 1e-3

    def test_length_mismatch(self):
        s = two_convex_connection()
        sol = solved(s)
        with pytest.raises(DimensionError):
            verify_suboptimality(s, sol, [np.zeros(s.m)])


class TestJudge:
    def test_family_values_and_verdicts(self):
        expect = {
            0.0: VerdictStatus.EXACT_CERTIFIED,
            2.0: VerdictStatus.EXACT_WITNESSED,
            2.5: VerdictStatus.NOT_EXACT,
            3.0: VerdictStatus.EXACT_WITNESSED,
            3.5: VerdictStatus.EXACT_CERTIFIED,
        }
        for alpha, status in expect.items():
            v = judge(family_connection(alpha))
            assert v.status is status, (alpha, v.status, v.reason)
            assert abs(v.eta - family_value(alpha)) <= 1e-4 * (
                1 + abs(family_value(alpha))
            )

    def test_not_exact_reports_oracle(self):
        v = judge(family_connection(2.5))
        assert v.status is VerdictStatus.NOT_EXACT
        assert v.oracle_value is not None
        assert abs(v.oracle_value - 9.0) <= 1e-6
        assert v.oracle_value > v.eta + 1e-5
        assert not v.exact
        assert "exceeds" in v.reason

    def test_exact_verdicts_carry_witnesses(self):
        for alpha in (0.0, 2.0, 3.0):
            v = judge(family_connection(alpha))
            assert v.exact
            assert v.witness is not None
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))

    def test_example52_certified_and_witnessed(self):
        for seed in (0, 1, 2):
            s = make_example52(seed)
            v = judge(s)
            assert v.status is VerdictStatus.EXACT_CERTIFIED, (seed, v.reason)
            kinds = [pb.certificate.kind for pb in v.per_block]
            assert kinds == [
                CertificateKind.CONVEX,
                CertificateKind.SIGN_PATTERN,
                CertificateKind.HOM_LIMITED,
            ]
            # both verdict paths agree: certified and witnessed
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))
            gaps = [pb.optimality_gap for pb in v.per_block]
            assert all(math.isfinite(g) and g <= 1e-6 for g in gaps)

    def test_witness_points_are_feasible(self):
        s = make_example52(3)
        v = judge(s)
        assert v.witness is not None
        totals = np.zeros(s.m)
        obj = 0.0
        for entry, pt in zip(s.blocks, v.witness):
            if isinstance(entry, HomSepQcqp):
                ofs = 0
                for q, d in enumerate(entry.dims):
                    vq = np.asarray(pt)[ofs : ofs + d]
                    ofs += d
                    obj += float(vq @ entry.blocks[q][0].to_dense() @ vq)
                    for k in range(entry.m):
                        totals[k] += float(
                            vq @ entry.blocks[q][k + 1].to_dense() @ vq
                        )
            else:
                obj += qf_eval(entry.objective, pt)
                for k, (f, _) in enumerate(entry.constraints):
                    totals[k] += qf_eval(f, pt)
        for k, rel in enumerate(s.relations):
            gk = float(s.gamma[k])
            assert rel.holds(float(totals[k]), gk, 1e-6 * (1 + abs(gk)))
        assert abs(obj - v.eta) <= 1e-5 * (1 + abs(v.eta))

    def test_unbounded_relaxation_undetermined(self):
        entry = Qcqp(
            1,
            qf([[-1.0]]),
            [(qf(np.zeros((1, 1)), [1.0]), Relation.LE)],
            [1.0],
        )
        s = SeparableQcqp([entry], [1.0])
        v = judge(s)
        assert v.status is VerdictStatus.UNDETERMINED
        assert v.reason != ""

    def test_single_convex_entry_certified(self):
        s = single_convex_connection()
        v = judge(s)
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        assert v.per_block[0].certificate.kind is CertificateKind.CONVEX
        assert v.witness is not None


class TestBilevelReport:
    def test_single_entry(self):
        s = single_convex_connection()
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 1
        assert rep.rows[0].certified
        assert abs(rep.rows[0].value - v.eta) <= 1e-6 * (1 + abs(v.eta))
        assert rep.identity_gap <= 1e-6 * (1 + abs(v.eta))

    def test_two_block_identity(self):
        s = two_convex_connection()
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 2
        assert rep.identity_gap <= 1e-6 * (1 + abs(v.eta))
        assert abs(rep.total - v.eta) <= 1e-6 * (1 + abs(v.eta))

    def test_example52_has_three_rows(self):
        s = make_example52(1)
        v = judge(s)
        rep = bilevel_report(s, v)
        assert len(rep.rows) == 3
        assert [r.index for r in rep.rows] == [0, 1, 2]
        assert all(r.allocation.shape == (7,) for r in rep.rows)
        assert rep.identity_gap <= 1e-5 * (1 + abs(v.eta))

    def test_entry_count_mismatch(self):
        s = two_convex_connection()
        v = judge(single_convex_connection())
        with pytest.raises(DimensionError):
            bilevel_report(s, v)


class TestMakeExample51:
    def test_frozen_matrices(self):
        h = make_example51(0.0)
        assert h.q_hat == 2 and h.m == 3 and h.dims == [2, 1]
        assert np.allclose(
            h.blocks[0][2].to_dense(), [[1.0, -2.0], [-2.0, 0.0]]
        )
        h4 = make_example51(4.0)
        assert np.allclose(
            h4.blocks[0][2].to_dense(), [[1.0, -4.0], [-4.0, 16.0]]
        )

    def test_scalar_block_rows(self):
        for alpha in (0.0, 1.7, 4.0):
            h = make_example51(alpha)
            assert np.allclose(h.blocks[1][3].to_dense(), [[1.0]])
            assert np.allclose(h.blocks[1][0].to_dense(), [[-1.0]])
            assert h.blocks[1][1].is_zero() and h.blocks[1][2].is_zero()
            assert h.relations == [Relation.EQ, Relation.LE, Relation.LE]
            assert np.allclose(h.rhs, [1.0, 0.0, 0.0])

    def test_out_of_range(self):
        for alpha in (-0.1, 4.2):
            with pytest.raises(RangeError):
                make_example51(alpha)


class TestMakeExample52:
    def test_validator_accepts_generated(self):
        for seed in range(6):
            s = make_example52(seed)
            assert validate_example52(s) == []
            assert s.p_hat == 3 and s.m == 7

    def test_seeded_determinism(self):
        a = make_example52(11)
        b = make_example52(11)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(
            a.blocks[0].objective.B.to_dense(),
            b.blocks[0].objective.B.to_dense(),
        )

    def test_first_entry_is_convex(self):
        s = make_example52(2)
        stripped, kept = strip_variable_free_rows(s.blocks[0])
        assert kept == [2, 3, 4, 5, 6]
        assert check_convex(stripped).holds

    def test_second_entry_gauges_to_nonpositive(self):
        s = make_example52(2)
        stripped, _ = strip_variable_free_rows(s.blocks[1])
        d = nonpositive_gauge(stripped)
        assert d is not None
        # all couplings already nonpositive, so the identity gauge works
        assert np.allclose(d, np.ones(stripped.n))

    def test_hom_entry_reduces_to_four_rows_at_allocation(self):
        s = make_example52(0)
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        h = s.blocks[2]
        h_alloc = HomSepQcqp(h.blocks, list(h.relations), deltas[2])
        reduced, dropped = reduce_homogeneous_rows(h_alloc)
        assert reduced.m <= 4
        assert 5 in dropped and 6 in dropped  # the all-zero trailing rows
        assert 3 in dropped or 4 in dropped  # one of the proportional pair

    def test_custom_dims(self):
        s = make_example52(5, dims=(3, 2, (2, 1, 2)))
        assert validate_example52(s) == []
        assert s.blocks[0].n == 3
        assert s.blocks[2].dims == [2, 1, 2]

    def test_dimension_range_errors(self):
        with pytest.raises(RangeError):
            make_example52(0, dims=(5, 2, (2, 2, 2)))
        with pytest.raises(RangeError):
            make_example52(0, dims=(2, 2, (2, 2)))

    def test_exhausted_draws_raise(self, monkeypatch):
        import sepqcqp.connection as conn

        monkeypatch.setattr(
            conn, "validate_example52", lambda s: ["always rejected"]
        )
        with pytest.raises(GenerationError):
            conn.make_example52(0)


class TestStripVariableFreeRows:
    def test_drop_and_keep(self):
        q = Qcqp(
            1,
            qf([[1.0]]),
            [
                (QuadFunc.zero(1), Relation.EQ),
                (qf([[1.0]]), Relation.LE),
                (QuadFunc.zero(1), Relation.GE),
            ],
            [5.0, 1.0, -2.0],
        )
        reduced, kept = strip_variable_free_rows(q)
        assert kept == [1]
        assert reduced.m == 1
        assert reduced.rhs[0] == 1.0

    def test_noop_when_all_rows_live(self):
        q = Qcqp(1, qf([[1.0]]), [(qf([[1.0]]), Relation.LE)], [1.0])
        reduced, kept = strip_variable_free_rows(q)
        assert kept == [0] and reduced.m == 1


class TestNonpositiveGauge:
    def test_positive_coupling_flipped(self):
        # +xy coupling plus linear parts that pin the orientation
        obj = qf([[0.0, 1.0], [1.0, 0.0]], [-2.0, 2.0])
        q = Qcqp(2, obj, [(qf(np.eye(2)), Relation.LE)], [1.0])
        d = nonpositive_gauge(q)
        assert d is not None
        assert np.allclose(d, [1.0, -1.0])

    def test_conflicting_linear_signs(self):
        # couplings force d = (1, -1) up to a flip, but both orientations
        # leave some gauged linear coefficient positive
        obj = qf([[0.0, 1.0], [1.0, 0.0]], [2.0, 2.0])
        q = Qcqp(2, obj, [(qf(np.eye(2)), Relation.LE)], [1.0])
        assert nonpositive_gauge(q) is None

    def test_odd_positive_cycle_fails(self):
        quad = np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        q = Qcqp(3, qf(quad), [(qf(np.eye(3)), Relation.LE)], [1.0])
        assert nonpositive_gauge(q) is None


class TestInvariants:
    def test_eta_lower_bounds_oracle(self):
        for alpha in (0.0, 1.0, 2.0, 2.5, 3.0, 4.0):
            s = family_connection(alpha)
            v = judge(s)
            val, _ = brute_force(flatten(s), (-5.0, 5.0), grid_points=51)
            assert val is not INFEASIBLE
            assert v.eta <= val + 1e-5
        s = two_convex_connection()
        v = judge(s)
        val, _ = brute_force(flatten(s), (-3.0, 3.0), grid_points=31)
        assert v.eta <= val + 1e-5

    def test_decomposition_identity(self):
        for s in (
            two_convex_connection(),
            make_example52(4),
            family_connection(1.0),
        ):
            sol = solved(s)
            ofs, total = 0, 0.0
            for entry in s.blocks:
                cnt = entry.q_hat if isinstance(entry, HomSepQcqp) else 1
                for q in range(cnt):
                    c0 = (
                        entry.blocks[q][0]
                        if isinstance(entry, HomSepQcqp)
                        else entry.objective.B
                    )
                    total += frob_inner(c0, sol.blocks[ofs + q])
                ofs += cnt
            assert abs(total - sol.value) <= 1e-8 * (1 + abs(sol.value))

    def test_relaxing_le_rows_never_raises_eta(self):
        for s in (two_convex_connection(), make_example52(0)):
            v = judge(s)
            gamma2 = np.array(
                [
                    g + 1.0 if rel is Relation.LE else g
                    for g, rel in zip(s.gamma, s.relations)
                ]
            )
            relaxed = SeparableQcqp(list(s.blocks), gamma2)
            v2 = judge(relaxed)
            assert v2.eta <= v.eta + 1e-6 * (1 + abs(v.eta))

    def test_witness_objective_matches_eta_on_certified_seeds(self):
        hits = 0
        for seed in range(8):
            s = make_example52(seed)
            v = judge(s)
            if v.status is not VerdictStatus.EXACT_CERTIFIED:
                continue
            hits += 1
            assert v.zeta_witness is not None
            assert abs(v.zeta_witness - v.eta) <= 1e-5 * (1 + abs(v.eta))
        assert hits >= 6


REFERENCES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "references",
)


def reference_iterations(workload: str) -> dict:
    with open(os.path.join(REFERENCES, f"{workload}.json"), encoding="utf-8") as fh:
        return {k: rec["iters"] for k, rec in json.load(fh)["keys"].items()}


def judged_iterations(s, monkeypatch) -> int:
    """IPM iterations of every solve inside judge(s), batched or not."""
    total = 0
    one, many = connection.solve, connection.solve_many

    def counted_one(*args, **kwargs):
        nonlocal total
        sol = one(*args, **kwargs)
        total += sol.iterations
        return sol

    def counted_many(*args, **kwargs):
        nonlocal total
        out = many(*args, **kwargs)
        total += sum(r.iterations for r in out if isinstance(r, SdpSolution))
        return out

    with monkeypatch.context() as m:
        m.setattr(connection, "solve", counted_one)
        m.setattr(connection, "solve_many", counted_many)
        judge(s)
    return total


class TestIterationsPinned:
    """judge's summed IPM iterations equal the benchmark references, which
    were recorded one solve at a time: batching the entry re-solves leaves
    every solve's iterations as they were."""

    def test_example52(self, monkeypatch):
        ref = reference_iterations("ex52-cli")
        for seed in range(20):
            assert judged_iterations(make_example52(seed), monkeypatch) == ref[str(seed)]

    def test_example51_table(self, monkeypatch):
        ref = reference_iterations("ex51-sweep")
        for key, alpha in (("0", 0.0), ("100", 1.0), ("200", 2.0), ("250", 2.5),
                           ("300", 3.0), ("350", 3.5), ("alpha4", 4.0)):
            h = make_example51(alpha)
            assert judged_iterations(SeparableQcqp([h], h.rhs), monkeypatch) == ref[key]
