"""Connection pipeline: allocations, blockwise optimality, verdicts,
bilevel reading, and the seeded instance generators."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp import certificates, connection, sdpr_builder
from sepqcqp.certificates import (
    CertificateKind,
    SignCase,
    check_convex,
    reduce_homogeneous_rows,
)
from sepqcqp.cli import verdict_to_dict
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
from sepqcqp.sdp_solver import solve, solve_many
from sepqcqp.sdpr_builder import RowOperator, SolveStatus, build_block, build_shor
from sepqcqp.symkernel import SymMatrix, frob_inner, is_psd

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


def entry_gaps(s, sol, deltas, tol=1e-6):
    """Each entry's optimality gap at allocation deltas, as judge's
    per-entry analysis reads it off sol; nan marks a failed check."""
    slices = connection._entry_slices(s)
    achieved = connection._achieved(s, sol, slices)
    entries = connection._analyse_entries(
        s, build_block(s), sol, slices, achieved, deltas, tol
    )
    return np.array([e.gap for e in entries], dtype=np.float64)


class TestVerifySuboptimality:
    """The per-entry gaps judge reports (PerBlockReport.optimality_gap),
    at the achieved allocations and at moved ones."""

    def test_single_entry_gap_zero(self):
        s = single_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        gaps = entry_gaps(s, sol, deltas)
        assert gaps.shape == (1,)
        assert gaps[0] <= 1e-6
        assert [pb.optimality_gap for pb in judge(s).per_block] == list(gaps)

    def test_two_block_convex_gaps_small(self):
        s = two_convex_connection()
        sol = solved(s)
        gaps = entry_gaps(s, sol, decompose_delta(s, sol))
        assert np.all(np.isfinite(gaps))
        assert np.all(gaps <= 1e-6)
        assert [pb.optimality_gap for pb in judge(s).per_block] == list(gaps)

    def test_perturbed_allocation_detected(self):
        s = two_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        deltas[0] = deltas[0] + 0.1
        gaps = entry_gaps(s, sol, deltas)
        assert gaps[0] > 1e-3

    def test_allocation_cut_on_a_loose_row_detected(self):
        # the linear row is slack, so its multiplier is 0 and the dual
        # bound ignores the cut; the joint block then misses the row and
        # the entry is re-solved
        s = single_convex_connection()
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        deltas[0] = deltas[0].copy()
        deltas[0][1] -= 3.0
        gaps = entry_gaps(s, sol, deltas)
        assert gaps[0] > 1e-3

    def test_inconsistent_variable_free_row_is_nan(self):
        # rows 0 and 1 carry no variable of entry 0; an allocation of 1 (or
        # -1 on a <= row) there has no feasible point, so no gap is reported
        s = make_example52(0)
        sol = solved(s)
        deltas = decompose_delta(s, sol)
        rel = s.relations[0]
        deltas[0] = deltas[0].copy()
        deltas[0][0] = -1.0 if rel is Relation.LE else 1.0
        gaps = entry_gaps(s, sol, deltas)
        assert math.isnan(gaps[0])
        assert np.all(np.isfinite(gaps[1:]))


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


def achieved_objectives(s, v) -> list:
    """The objective each entry achieves at the verdict's relaxation."""
    return [
        float(connection._entry_achieved(entry, v.relaxation.blocks[sl])[0])
        for entry, sl in zip(s.blocks, connection._entry_slices(s))
    ]


def failed(sol):
    return dataclasses.replace(sol, status=SolveStatus.NUMERICAL_FAILURE)


class TestEntryFallback:
    """judge reads every entry of make_example52(0) off the joint pair;
    an entry whose dual bound fails is the only one re-solved."""

    def judged(self, monkeypatch, p, shift=None, resolve=None):
        """judge(make_example52(0)) with entry p's dual bound gone (or moved
        by shift, so it no longer meets the achieved objective) and resolve
        applied to every re-solve; returns (s, verdict, non-empty
        solve_many batches)."""
        s = make_example52(0)
        batches = []
        bound, many = connection._dual_bound, connection.solve_many

        def moved_bound(entry, *args):
            value = bound(entry, *args)
            if entry is not s.blocks[p]:
                return value
            return None if shift is None else value + shift

        def recorded(bs, *args, **kwargs):
            batches.append(list(bs))
            out = many(bs, *args, **kwargs)
            return out if resolve is None else [resolve(r) for r in out]

        with monkeypatch.context() as m:
            m.setattr(connection, "_dual_bound", moved_bound)
            m.setattr(connection, "solve_many", recorded)
            v = judge(s)
        return s, v, [b for b in batches if b]

    def test_failed_bound_resolves_that_entry_alone(self, monkeypatch):
        # the homogeneous entry, whose re-solve reaches Optimal on seed 0
        s, v, batches = self.judged(monkeypatch, 2)
        plain = judge(s)
        assert [len(b) for b in batches] == [1]
        sub = connection._sub_problem(s.blocks[2], v.delta_decomposition[2])
        assert repr(batches[0][0]) == repr(sub)
        assert [r.rhs for r in batches[0][0].rows] == [r.rhs for r in sub.rows]
        sol = solve(sub)
        assert sol.status is SolveStatus.OPTIMAL
        achieved = achieved_objectives(s, v)[2]
        pb = v.per_block[2]
        assert (pb.sub_sdpr_value, pb.optimality_gap) == (
            sol.value,
            abs(sol.value - achieved),
        )
        assert pb.certificate.kind is CertificateKind.HOM_LIMITED
        assert pb.certificate.details.endswith("at the re-solved allocation")
        assert plain.per_block[2].certificate.details.endswith(
            "at the joint solution"
        )
        assert v.per_block[:2] == plain.per_block[:2]
        assert v.status is plain.status and v.eta == plain.eta

    def test_failed_resolve_keeps_the_bound(self, monkeypatch):
        s, v, batches = self.judged(monkeypatch, 1, shift=-1.0, resolve=failed)
        assert [len(b) for b in batches] == [1]
        bound = judge(s).per_block[1].sub_sdpr_value - 1.0
        achieved = achieved_objectives(s, v)[1]
        assert v.per_block[1].sub_sdpr_value == bound
        assert v.per_block[1].optimality_gap == abs(achieved - bound)

    def test_boundless_failed_resolve_is_nan(self, monkeypatch):
        _, v, batches = self.judged(monkeypatch, 1, resolve=failed)
        assert [len(b) for b in batches] == [1]
        assert math.isnan(v.per_block[1].sub_sdpr_value)
        assert math.isnan(v.per_block[1].optimality_gap)
        pb = json.loads(json.dumps(verdict_to_dict(v), allow_nan=False))[
            "per_block"
        ][1]
        assert pb["sub_sdpr_value"] is None and pb["optimality_gap"] is None


def small_convex_connection(seed) -> SeparableQcqp:
    """Two to four convex entries of one to three variables sharing one to
    three <= rows, strictly feasible at a random reference point."""
    rng = np.random.default_rng(seed)
    entries, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (1, 4), (1, 4)))
    parts, values = [], np.zeros(m)
    for _ in range(entries):
        x = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.3 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            g = rng.standard_normal((n, n))
            cons.append(qf(g @ g.T / n, rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    gamma = values + rng.uniform(0.2, 1.0, size=m)
    rows = [Relation.LE] * m
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, rows)), gamma) for obj, cons in parts],
        gamma,
    )


class TestEntryWeakDuality:
    """Every entry's reported relaxation value is a lower bound on the
    objective it achieves, and the entry values sum to eta."""

    def check(self, s):
        tol = JudgeOptions().tol
        v = judge(s)
        assert v.relaxation is not None
        assert v.relaxation.status is SolveStatus.OPTIMAL
        for pb, achieved in zip(v.per_block, achieved_objectives(s, v)):
            assert pb.sub_sdpr_value <= achieved + tol * (1.0 + abs(achieved))
        rep = bilevel_report(s, v)
        assert rep.identity_gap <= tol * (1.0 + abs(v.eta))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15)
    def test_example52(self, seed):
        self.check(make_example52(seed))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15)
    def test_small_convex_connections(self, seed):
        self.check(small_convex_connection(seed))


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


def judged_iterations(s, monkeypatch) -> tuple:
    """(iterations, problems): the IPM iterations of judge(s)'s joint solve
    plus those of re-solving every entry at its allocation on the side,
    and the number of problems judge itself hands to solve_many."""
    joint, problems = 0, 0
    one, many = connection.solve, connection.solve_many

    def counted_one(*args, **kwargs):
        nonlocal joint
        sol = one(*args, **kwargs)
        joint += sol.iterations
        return sol

    def counted_many(bs, *args, **kwargs):
        nonlocal problems
        problems += len(bs)
        return many(bs, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(connection, "solve", counted_one)
        m.setattr(connection, "solve_many", counted_many)
        v = judge(s)
    subs = [
        connection._sub_problem(entry, delta)
        for entry, delta in zip(s.blocks, v.delta_decomposition)
    ]
    entries = sum(sol.iterations for sol in solve_many(subs))
    return joint + entries, problems


class TestIterationsPinned:
    """The benchmark references count the joint solve plus one re-solve of
    every entry at its allocation, each solved one at a time. judge now
    reads the entries off the joint primal-dual pair and re-solves none
    of them here; re-solving them on the side reproduces the reference
    iterations exactly."""

    def test_example52(self, monkeypatch):
        ref = reference_iterations("ex52-cli")
        for seed in range(20):
            iters, problems = judged_iterations(make_example52(seed), monkeypatch)
            assert (iters, problems) == (ref[str(seed)], 0), seed

    def test_example51_table(self, monkeypatch):
        ref = reference_iterations("ex51-sweep")
        for key, alpha in (("0", 0.0), ("100", 1.0), ("200", 2.0), ("250", 2.5),
                           ("300", 3.0), ("350", 3.5), ("alpha4", 4.0)):
            h = make_example51(alpha)
            iters, problems = judged_iterations(SeparableQcqp([h], h.rhs), monkeypatch)
            assert (iters, problems) == (ref[key], 0), key


# ---------------------------------------------------------------------------
# the inhomogeneous row check against the sub-problem path it replaced


def reference_sub_problem(entry, delta):
    """An inhomogeneous entry's relaxation at delta, built as judge built it
    before reading the row check off the row values: (BlockSdp, check),
    check(tol) naming an inconsistent variable-free row or None."""
    delta = np.asarray(delta, dtype=np.float64)
    full = Qcqp(entry.n, entry.objective, list(entry.constraints), delta)
    stripped, kept = strip_variable_free_rows(full)
    dropped = [k for k in range(len(delta)) if k not in kept]

    def check(tol):
        for k in dropped:
            rel, dk = entry.relations[k], float(delta[k])
            if not rel.holds(0.0, dk, tol * (1.0 + abs(dk))):
                return f"variable-free row {k} inconsistent"
        return None

    return build_shor(stripped), check


def reference_joint_rows_hold(sub, blocks, tol):
    """Do the joint blocks satisfy sub's rows, read off its own compiled
    RowOperator, within tol?"""
    op = RowOperator(sub.rows, sub.block_dims)
    resid = op.rhs - op.apply([x.to_dense() for x in blocks])
    miss = np.where(op.slack_coeffs == 0.0, np.abs(resid), -op.slack_coeffs * resid)
    return bool(np.all(miss <= tol * (1.0 + np.abs(op.rhs))))


def reference_dual_bound(entry, delta, y, mu, tol):
    """The dual bound with one is_psd call per entry."""
    yscale = tol * (1.0 + float(np.abs(y).max(initial=0.0)))
    for k, rel in enumerate(entry.relations):
        if (rel is Relation.LE and y[k] > yscale) or (
            rel is Relation.GE and y[k] < -yscale
        ):
            return None
    acc = entry.objective.B.to_dense().copy()
    for k, (f, _) in enumerate(entry.constraints):
        if y[k] != 0.0:
            acc -= y[k] * f.B.to_dense()
    acc[entry.n, entry.n] -= mu
    if not is_psd(SymMatrix.from_dense(acc), tol):
        return None
    return float(y @ delta) + mu


def reference_analysis(s, b, sol, deltas, tol):
    """(value, gap, resolved) of every inhomogeneous entry, by the
    sub-problem path: build each entry's relaxation, accept its joint
    block where the dual bound meets the achieved objective and the block
    satisfies the compiled rows, re-solve the rest in one batch."""
    y, mus = connection._connection_duals(s, b, sol)
    out, retry = [], {}
    for p, entry in enumerate(s.blocks):
        blocks = sol.blocks[p : p + 1]
        achieved = float(connection._entry_achieved(entry, blocks)[0])
        bound = reference_dual_bound(entry, deltas[p], y, mus[p], tol)
        sub, check = reference_sub_problem(entry, deltas[p])
        if check(tol) is not None:
            out.append((math.nan, math.nan, False))
            continue
        if (
            bound is not None
            and abs(achieved - bound) <= tol * (1.0 + abs(achieved))
            and reference_joint_rows_hold(sub, blocks, tol)
        ):
            out.append((bound, abs(achieved - bound), False))
            continue
        retry[p] = (sub, achieved, bound)
        out.append(None)
    resolved = solve_many([sub for sub, _, _ in retry.values()])
    for (p, (_, achieved, bound)), cand in zip(retry.items(), resolved):
        if cand.status is SolveStatus.OPTIMAL:
            out[p] = (float(cand.value), abs(float(cand.value) - achieved), True)
        elif bound is None:
            out[p] = (math.nan, math.nan, True)
        else:
            out[p] = (bound, abs(achieved - bound), True)
    return out


def mixed_relation_connection(rng):
    """Two or three entries of one to three variables over one to three
    shared rows of any relation, each row variable-free for some entries
    but never for the first, feasible at a random reference point (<= and
    >= rows with a margin, = rows exactly)."""
    entries, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (1, 4), (1, 4)))
    relations = [Relation(r) for r in rng.choice(["le", "eq", "ge"], size=m)]
    parts, values = [], np.zeros(m)
    for p in range(entries):
        x = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.3 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            if p > 0 and rng.uniform() < 0.4:
                cons.append(QuadFunc.zero(n))
            else:
                g = rng.standard_normal((n, n))
                cons.append(qf(g @ g.T / n, rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    sign = np.array([{"le": 1.0, "eq": 0.0, "ge": -1.0}[r.value] for r in relations])
    gamma = values + sign * rng.uniform(0.2, 1.0, size=m)
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, relations)), gamma) for obj, cons in parts],
        gamma,
    )


def margin(rng):
    """A perturbation size far from the tolerance boundary (tol = 1e-6)."""
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.0))


class TestQcqpRowCheckReference:
    """An inhomogeneous entry's row check reads the row values and the
    corner entry judge already has; it decides as building the entry's
    sub-problem and checking the joint block against its compiled rows
    did, and every entry's (value, gap, resolved) is the same."""

    @pytest.mark.parametrize(
        "case", ["joint", "row_cut", "variable_free", "corner"]
    )
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8)
    def test_matches_sub_problem_path(self, case, seed):
        rng = np.random.default_rng(seed)
        s = mixed_relation_connection(rng)
        b = build_block(s)
        sol = solve(b)
        if sol.status is not SolveStatus.OPTIMAL:
            return
        if case == "corner":  # move one entry's unit corner off 1
            p = int(rng.integers(len(s.blocks)))
            x = sol.blocks[p].to_dense()
            x[-1, -1] += margin(rng)
            blocks = list(sol.blocks)
            blocks[p] = SymMatrix.from_dense(x)
            sol = dataclasses.replace(sol, blocks=blocks)
        deltas = [d.copy() for d in decompose_delta(s, sol)]
        for p, entry in enumerate(s.blocks):
            for k, (f, _) in enumerate(entry.constraints):
                # a cut (or a loosening) on any row with variables, or a
                # consistent or inconsistent rhs on a variable-free one
                if (case == "row_cut" and not f.is_zero()) or (
                    case == "variable_free" and f.is_zero()
                ):
                    if rng.uniform() < 0.7:
                        deltas[p][k] += margin(rng)
        tol = JudgeOptions().tol
        slices = connection._entry_slices(s)
        achieved = [
            connection._entry_achieved(e, sol.blocks[p : p + 1])
            for p, e in enumerate(s.blocks)
        ]
        got = connection._analyse_entries(s, b, sol, slices, achieved, deltas, tol)
        want = reference_analysis(s, b, sol, deltas, tol)
        assert [repr((e.value, e.gap, e.resolved)) for e in got] == [
            repr(w) for w in want
        ]
        assert all(e.subsol is None for e in got if not e.resolved)


# ---------------------------------------------------------------------------
# judge builds, compiles and reduces each thing once


def convex_connection(entries, n, m, seed):
    """entries strictly convex QCQPs of n variables sharing m <= rows,
    strictly feasible at a random reference point."""
    rng = np.random.default_rng(seed)
    values, parts = np.zeros(m), []
    for _ in range(entries):
        x = rng.standard_normal(n) / np.sqrt(n)
        g = rng.standard_normal((n, n))
        obj = qf(g @ g.T / n + 0.5 * np.eye(n), rng.standard_normal(n))
        cons = []
        for k in range(m):
            g = rng.standard_normal((n, n))
            cons.append(qf(g @ g.T / n + 0.1 * np.eye(n), rng.standard_normal(n)))
            values[k] += qf_eval(cons[-1], x)
        parts.append((obj, cons))
    gamma = values + rng.uniform(0.5, 1.5, size=m) * entries
    rows = [Relation.LE] * m
    return SeparableQcqp(
        [Qcqp(n, obj, list(zip(cons, rows)), gamma) for obj, cons in parts],
        gamma,
    )


class TestJudgeDoesEachOnce:
    """Counts of the work judge repeated: the row operator is compiled
    once, no inhomogeneous sub-problem is built, build_block allocates one
    zero matrix per block dimension, and a homogeneous entry's rows are
    reduced once."""

    def counted(self, monkeypatch, s):
        calls = {"compile": 0, "build_shor": 0, "zeros": 0, "reduce_rows": 0}
        in_build = []
        init, zeros = sdpr_builder.RowOperator.__init__, SymMatrix.zeros
        build, shor = connection.build_block, connection.build_shor
        reduce_rows = certificates.reduce_homogeneous_rows

        def counter(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counted_zeros(dim):
            calls["zeros"] += bool(in_build)
            return zeros(dim)

        def counted_build(*args, **kwargs):
            in_build.append(1)
            try:
                return build(*args, **kwargs)
            finally:
                in_build.pop()

        with monkeypatch.context() as m:
            m.setattr(sdpr_builder.RowOperator, "__init__", counter("compile", init))
            m.setattr(SymMatrix, "zeros", staticmethod(counted_zeros))
            m.setattr(connection, "build_block", counted_build)
            m.setattr(connection, "build_shor", counter("build_shor", shor))
            wrapped = counter("reduce_rows", reduce_rows)
            m.setattr(connection, "reduce_homogeneous_rows", wrapped)
            m.setattr(certificates, "reduce_homogeneous_rows", wrapped)
            v = judge(s)
        return v, calls

    def test_wide_convex_connection(self, monkeypatch):
        s = convex_connection(16, 3, 3, seed=1)
        v, calls = self.counted(monkeypatch, s)
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        assert v.reduction is not None
        assert calls["compile"] == 1
        assert calls["build_shor"] == 0
        assert 1 <= calls["zeros"] <= len({e.n + 1 for e in s.blocks})

    def test_example52_reduces_homogeneous_rows_once(self, monkeypatch):
        s = make_example52(0)
        v, calls = self.counted(monkeypatch, s)
        assert v.exact
        assert sum(isinstance(e, HomSepQcqp) for e in s.blocks) == 1
        assert calls["reduce_rows"] == 1


class TestJudgeOptions:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tol", "rank_tol"])
    def test_rejects_non_positive_or_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            JudgeOptions(**{name: value})

    def test_defaults_accepted(self):
        assert JudgeOptions().tol == JudgeOptions().rank_tol == 1e-6
