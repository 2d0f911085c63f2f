"""Every verdict judge renders after an Optimal solve, field by field.

Several of these outcomes are reached by no bundled instance, so each
test forces its branch by wrapping a name judge looks up in
connection: rank reduction (connection.reduce) with its extracted points
dropped, the grid oracle (connection.brute_force) with its value
replaced, or an entry's own witness point (connection._salvage_point)
withheld. Each test pins the verdict's full field set, so that the
fields a branch leaves empty stay empty.
"""

import dataclasses
import math

import numpy as np
import pytest

from sepqcqp import connection
from sepqcqp.certificates import CertificateKind
from sepqcqp.connection import VerdictStatus, judge
from sepqcqp.examples import make_example51, make_example52
from sepqcqp.qcqp_model import INFEASIBLE, HomSepQcqp, SeparableQcqp

from instances import convex_rank_two, family, sign_salvage

TOL = 1e-6


@pytest.fixture
def reductions(monkeypatch):
    """Make connection.reduce drop its extracted points: on the first call
    only (the joint reduction) with drop("joint"), on every call with
    drop("all"). Returns the list of whether each real call extracted."""
    real = connection.reduce
    extracted = []

    def drop(which):
        def wrapped(*args, **kwargs):
            x, rep = real(*args, **kwargs)
            extracted.append(rep.extracted is not None)
            if which == "all" or len(extracted) == 1:
                rep = dataclasses.replace(rep, extracted=None)
            return x, rep

        monkeypatch.setattr(connection, "reduce", wrapped)
        return extracted

    return drop


@pytest.fixture
def oracle(monkeypatch):
    """Record connection.brute_force's calls; value(eta) replaces the
    value it returns (the point stays), INFEASIBLE included."""
    real = connection.brute_force
    calls = []

    def install(value=None):
        def wrapped(*args, **kwargs):
            val, pt = real(*args, **kwargs)
            calls.append(val)
            return (val if value is None else value), pt

        monkeypatch.setattr(connection, "brute_force", wrapped)
        return calls

    return install


def assert_fields(v, status, reason="", zeta=None, oracle_value=None, witness=None):
    """The verdict's status and reason exactly; zeta_witness, oracle_value
    and each witness point to 1e-9 relative, or None where given None."""
    assert v.status is status
    assert v.reason == reason
    for got, want in ((v.zeta_witness, zeta), (v.oracle_value, oracle_value)):
        if want is None:
            assert got is None
        else:
            assert isinstance(got, float)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    if witness is None:
        assert v.witness is None
    else:
        assert len(v.witness) == len(witness)
        for got, want in zip(v.witness, witness):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
    assert v.relaxation is not None and v.relaxation.value == v.eta
    assert v.reduction is not None
    assert len(v.delta_decomposition) == len(v.per_block)


class TestWitnessedWithoutTheJointPoints:
    def test_homogeneous_entry_falls_to_the_oracle(self, reductions, oracle):
        # the joint reduction's points gone, a homogeneous entry builds no
        # point of its own (judge reduces once), so the grid oracle
        # supplies the witness
        extracted = reductions("joint")
        calls = oracle()
        v = judge(family(3.0))
        assert extracted == [True]
        assert calls == [9.0]
        assert v.eta == pytest.approx(9.000000021154838, rel=1e-9)
        assert_fields(
            v,
            VerdictStatus.EXACT_WITNESSED,
            zeta=9.0,
            oracle_value=9.0,
            witness=[[-3.0, -1.0, 0.0]],
        )
        assert [pb.certificate.kind for pb in v.per_block] == [CertificateKind.NONE]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_certified_example52_without_the_joint_points(self, reductions, seed):
        # the homogeneous entry leaves the convex and sign entries'
        # constructions unused: certified, with no witness
        extracted = reductions("joint")
        v = judge(make_example52(seed))
        assert extracted == [True]
        assert_fields(v, VerdictStatus.EXACT_CERTIFIED)

    def test_certified_without_any_witness(self, reductions, oracle):
        # every reduction's points gone: the homogeneous entry has no
        # point of its own, so the certified verdict carries no witness
        reductions("all")
        calls = oracle()
        v = judge(make_example52(0))
        assert calls == []
        assert_fields(v, VerdictStatus.EXACT_CERTIFIED)

    def test_convex_salvage_point(self, monkeypatch, oracle):
        # the joint reduction ends at rank 2, so only the last column of
        # the lifted block (extract_convex_solution) gives the point
        # (-1, -1); without it the certified verdict has no witness
        calls = oracle()
        v = judge(convex_rank_two())
        assert calls == []
        assert v.eta == pytest.approx(-4.0, abs=1e-5)
        assert v.reduction.final_ranks == [2]
        assert v.reduction.extracted is None
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        assert [pb.certificate.kind for pb in v.per_block] == [CertificateKind.CONVEX]
        assert len(v.witness) == 1
        np.testing.assert_allclose(v.witness[0], [-1.0, -1.0], rtol=0.0, atol=1e-4)
        want = connection.extract_convex_solution(v.relaxation.blocks[0])
        np.testing.assert_array_equal(v.witness[0], want)
        assert abs(v.zeta_witness - v.eta) <= TOL * (1.0 + abs(v.eta))

        monkeypatch.setattr(connection, "_salvage_point", lambda *args: None)
        v = judge(convex_rank_two())
        assert calls == []
        assert_fields(v, VerdictStatus.EXACT_CERTIFIED)
        assert v.reduction.extracted is None


    def test_sign_salvage_point(self, monkeypatch, oracle):
        # the rank-one point of the joint reduction misses eta, so the
        # gauge-signed square root of the block's diagonal is the witness;
        # without the sign branch the certified verdict has none
        calls = oracle()
        v = judge(sign_salvage())
        assert calls == []
        assert v.eta == -1.4442420857387317
        assert v.reduction.final_ranks == [1]
        (point,) = v.reduction.extracted
        value = float(sign_salvage().blocks[0].objective.eval_many(point[None, :])[0])
        assert value - v.eta > TOL * (1.0 + abs(v.eta))
        assert v.status is VerdictStatus.EXACT_CERTIFIED
        kinds = [pb.certificate.kind for pb in v.per_block]
        assert kinds == [CertificateKind.SIGN_PATTERN]
        assert v.zeta_witness == -1.444242085799576
        block = v.relaxation.blocks[0].to_dense()
        np.testing.assert_array_equal(np.abs(v.witness[0]), [np.sqrt(block[0, 0])])

        real = connection._salvage_point

        def no_sign(entry, cert, gauge, block):
            if cert.kind is CertificateKind.SIGN_PATTERN:
                return None
            return real(entry, cert, gauge, block)

        monkeypatch.setattr(connection, "_salvage_point", no_sign)
        v = judge(sign_salvage())
        assert calls == []
        assert_fields(v, VerdictStatus.EXACT_CERTIFIED)


class TestOracleVerdicts:
    def test_oracle_witnessed(self, reductions, oracle):
        reductions("all")
        calls = oracle()
        v = judge(family(3.0))
        assert calls == [9.0]
        assert_fields(
            v,
            VerdictStatus.EXACT_WITNESSED,
            zeta=9.0,
            oracle_value=9.0,
            witness=[[-3.0, -1.0, 0.0]],
        )
        assert v.zeta_witness == v.oracle_value

    def test_ambiguity_band(self, reductions, oracle):
        # a value above eta by more than tol (1 + |eta|) but by no more
        # than 10 tol: neither a witness nor a proof of a gap
        reductions("all")
        eta = judge(family(2.0)).eta
        band = eta + 0.5 * (TOL * (1.0 + abs(eta)) + 10.0 * TOL)
        assert eta + TOL * (1.0 + abs(eta)) < band <= eta + 10.0 * TOL
        calls = oracle(band)
        v = judge(family(2.0))
        assert v.eta == eta
        assert calls == [4.0]
        assert_fields(
            v,
            VerdictStatus.UNDETERMINED,
            reason="oracle value inside the ambiguity band around eta",
            oracle_value=band,
        )

    def test_large_eta_within_the_witness_tolerance(self, reductions, oracle):
        # example 5.1 at alpha = 3 with its objective scaled by 3 (eta near
        # 27): an oracle value 1.5e-5 above eta lies within the witness
        # tolerance tol (1 + |eta|), so it witnesses exactness and is no
        # proof of a gap, although it exceeds eta by more than 10 tol
        h = make_example51(3.0)
        blocks = [[mats[0].scaled(3.0)] + mats[1:] for mats in h.blocks]
        s = SeparableQcqp([HomSepQcqp(blocks, list(h.relations), h.rhs)], h.rhs)
        reductions("all")
        eta = judge(s).eta
        assert eta == pytest.approx(27.0, rel=1e-6)
        value = eta + 1.5e-5
        assert 10.0 * TOL < value - eta <= TOL * (1.0 + abs(eta))
        calls = oracle(value)
        v = judge(s)
        assert v.eta == eta
        assert calls == [27.0]
        assert_fields(
            v,
            VerdictStatus.EXACT_WITNESSED,
            zeta=value,
            oracle_value=value,
            witness=[[-3.0, -1.0, 0.0]],
        )

    def test_no_feasible_grid_point(self, reductions, oracle):
        reductions("all")
        oracle(INFEASIBLE)
        v = judge(family(3.0))
        # no oracle_value: the oracle found no value to report
        assert_fields(
            v, VerdictStatus.UNDETERMINED, reason="oracle found no feasible grid point"
        )

    def test_not_exact(self, oracle):
        calls = oracle()
        v = judge(family(2.5))
        assert calls == [9.0]
        assert_fields(
            v,
            VerdictStatus.NOT_EXACT,
            reason=(
                f"best feasible value {9.0:.9g} exceeds the "
                f"relaxation value {v.eta:.9g}"
            ),
            oracle_value=9.0,
        )
        assert v.eta == pytest.approx((14 * 2.5 - 24) / 1.5, rel=1e-6)

    def test_too_many_variables(self, reductions, oracle):
        reductions("all")
        calls = oracle()
        v = judge(family(3.0, copies=2))
        assert calls == []
        assert math.isfinite(v.eta)
        assert_fields(
            v,
            VerdictStatus.UNDETERMINED,
            reason="no witness found and too many variables for the oracle",
        )
