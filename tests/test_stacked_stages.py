"""judge's stages over all entries pinned bit for bit to their one-entry forms.

The parent_* functions are the per-entry stages as they stood before
judge stacked them across entries: check_convex testing one problem's
quadratic parts (built as SymMatrix objects), _certify_qcqp_entry,
_entry_achieved and _entry_point_values summing one function at a time,
and the dual-feasibility test building each entry's reduced objectives.
The stacked stages must give the same certificates (kind, details, case
and gauge) and the same values, bit for bit, on random connections that mix
convex, sign-gauge, equality-row, zero-row, non-certifiable and
homogeneous entries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepqcqp import connection
from sepqcqp.certificates import (
    Certificate,
    CertificateKind,
    _convex_certificates,
    aggregated_graph,
    check_convex,
    check_sign_pattern,
)
from sepqcqp.errors import DimensionError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
)
from sepqcqp.qcqp_model import eval as qf_eval
from sepqcqp.symkernel import (
    SymMatrix,
    _triangle,
    eigh_many,
    rank_of_eigenvalues,
    rank_of_eigenvalues_many,
)

from instances import hom_values, random_connection, scaled
from test_certificates import parent_nonpositive_gauge

# ---------------------------------------------------------------------------
# the parent's one-entry stages


def parent_frob_inner(a: SymMatrix, b: SymMatrix) -> float:
    idx, w = _triangle(a.dim)
    return float(np.dot(a.to_dense().take(idx) * b.to_dense().take(idx), w))


def parent_norm(a: SymMatrix) -> float:
    return math.sqrt(parent_frob_inner(a, a))


def parent_is_psd_many(mats, tol: float = 1e-9) -> np.ndarray:
    flags = np.ones(len(mats), dtype=bool)
    live = [i for i, a in enumerate(mats) if a.dim]
    for i, (lam, _) in zip(live, eigh_many([mats[i].to_dense() for i in live])):
        flags[i] = float(lam[0]) >= -tol * max(1.0, parent_norm(mats[i]))
    return flags


def parent_rank_of_eigenvalues(lam, tol: float = 1e-6) -> int:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(lam) == 0:
        return 0
    eps = float(np.finfo(np.float64).eps)
    threshold = max(tol * max(1.0, float(np.max(np.abs(lam)))), eps * len(lam))
    return int(np.sum(np.abs(lam) > threshold))


def parent_quad_part(f: QuadFunc) -> SymMatrix:
    dense = f.B.to_dense()
    return SymMatrix.from_dense(dense[: f.n, : f.n])


def parent_kept_constraints(q: Qcqp):
    return [
        (f, rel, float(d))
        for (f, rel), d in zip(q.constraints, q.rhs)
        if not (f.is_zero() and float(d) == 0.0)
    ]


def parent_check_convex(q: Qcqp, tol: float = 1e-9) -> Certificate:
    kept = parent_kept_constraints(q)
    bad_rel = [i for i, (_, rel, _) in enumerate(kept) if rel is not Relation.LE]
    if bad_rel:
        return Certificate(
            CertificateKind.NONE,
            f"constraint rows {bad_rel} are not <=",
            depends_on_solution=False,
        )
    funcs = [q.objective] + [f for f, _, _ in kept]
    psd = parent_is_psd_many([parent_quad_part(f) for f in funcs], tol=tol)
    if not psd.all():
        k = int(np.argmin(psd))
        which = "objective" if k == 0 else f"constraint {k - 1}"
        return Certificate(
            CertificateKind.NONE,
            f"quadratic part of {which} is not PSD",
            depends_on_solution=False,
        )
    return Certificate(
        CertificateKind.CONVEX,
        f"all {len(kept)} rows are <= and all {len(funcs)} quadratic parts PSD",
        depends_on_solution=False,
    )


def parent_strip_variable_free_rows(q: Qcqp):
    kept = [k for k, (f, _) in enumerate(q.constraints) if not f.is_zero()]
    reduced = Qcqp(
        q.n,
        q.objective,
        [q.constraints[k] for k in kept],
        [float(q.rhs[k]) for k in kept],
    )
    return reduced, kept


def parent_no_certificate(note: str) -> Certificate:
    return Certificate(
        kind=CertificateKind.NONE, details=note, depends_on_solution=False
    )


def parent_certify_qcqp_entry(entry: Qcqp):
    stripped, _ = parent_strip_variable_free_rows(entry)
    if any(rel is not Relation.LE for rel in stripped.relations):
        return parent_no_certificate("an equality or >= row involves variables"), None
    cert = parent_check_convex(stripped)
    if cert.holds:
        return cert, None
    gauge = parent_nonpositive_gauge(stripped)
    if gauge is not None:
        funcs = [stripped.objective] + [f for f, _ in stripped.constraints]
        return (
            check_sign_pattern(aggregated_graph([f.quad_part() for f in funcs])),
            gauge,
        )
    return (
        parent_no_certificate(
            "neither convex nor sign-flippable to nonpositive couplings"
        ),
        None,
    )


def parent_entry_achieved(entry, blocks) -> np.ndarray:
    if isinstance(entry, HomSepQcqp):
        out = np.zeros(entry.m + 1)
        for q in range(entry.q_hat):
            for k in range(entry.m + 1):
                out[k] += parent_frob_inner(entry.blocks[q][k], blocks[q])
        return out
    x = blocks[0]
    vals = [parent_frob_inner(entry.objective.B, x)]
    vals += [parent_frob_inner(f.B, x) for f, _ in entry.constraints]
    return np.array(vals)


def parent_entry_point_values(entry, point) -> np.ndarray:
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    if isinstance(entry, HomSepQcqp):
        vs, ofs = [], 0
        for d in entry.dims:
            vs.append(point[ofs : ofs + d])
            ofs += d
        if ofs != point.shape[0]:
            raise DimensionError(
                f"point has {point.shape[0]} coordinates, expected {ofs}"
            )
        return hom_values(entry, vs)
    vals = [qf_eval(entry.objective, point)]
    vals += [qf_eval(f, point) for f, _ in entry.constraints]
    return np.array(vals)


def parent_reduced_objectives(entry, y, mu) -> list:
    if isinstance(entry, HomSepQcqp):
        out = []
        for q in range(entry.q_hat):
            acc = entry.blocks[q][0].to_dense().copy()
            for k in range(entry.m):
                if y[k] != 0.0:
                    acc -= y[k] * entry.blocks[q][k + 1].to_dense()
            out.append(SymMatrix.from_dense(acc))
        return out
    acc = entry.objective.B.to_dense().copy()
    for k, (f, _) in enumerate(entry.constraints):
        if y[k] != 0.0:
            acc -= y[k] * f.B.to_dense()
    acc[entry.n, entry.n] -= mu
    return [SymMatrix.from_dense(acc)]


def parent_dual_feasible(s: SeparableQcqp, y, mus, tol) -> np.ndarray:
    yscale = tol * (1.0 + float(np.abs(y).max(initial=0.0)))
    ok = np.ones(len(s.blocks), dtype=bool)
    mats, owner = [], []
    for p, entry in enumerate(s.blocks):
        for k, rel in enumerate(entry.relations):
            if (rel is Relation.LE and y[k] > yscale) or (
                rel is Relation.GE and y[k] < -yscale
            ):
                ok[p] = False
                break
        else:
            red = parent_reduced_objectives(entry, y, mus[p])
            mats += red
            owner += [p] * len(red)
    psd = parent_is_psd_many(mats, tol)
    for p, flag in zip(owner, psd):
        ok[p] &= flag
    return ok


# ---------------------------------------------------------------------------
# random draws around a connection


def random_blocks(rng, stacks):
    """A random symmetric matrix per relaxation block."""
    out = []
    for d in stacks.dims:
        g = rng.standard_normal((d, d))
        out.append(SymMatrix.from_dense(scaled(rng, g + g.T)))
    return out


def random_points(rng, stacks):
    """A random point per relaxation block, an inhomogeneous block's
    without its trailing 1."""
    sizes = [d - (c >= 0) for d, c in zip(stacks.dims, stacks.corner.tolist())]
    return [scaled(rng, rng.standard_normal(n)) for n in sizes]


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def same_certificate(a: Certificate, b: Certificate) -> bool:
    return (a.kind, a.details, a.case, a.depends_on_solution) == (
        b.kind, b.details, b.case, b.depends_on_solution
    )


# ---------------------------------------------------------------------------
# the stacked stages against the parent's


def assert_stages_match(s, rng):
    stacks = connection._EntryStacks(s)
    inhom = [e for e in s.blocks if not isinstance(e, HomSepQcqp)]

    # certificates: the convexity test of the raw entries, and the pass
    # over the stripped ones
    for q in inhom:
        assert same_certificate(check_convex(q), parent_check_convex(q))
    structural = connection._certify_qcqp_entries(stacks)
    assert len(structural) == len(inhom)
    for q, (cert, gauge) in zip(inhom, structural.values()):
        want, want_gauge = parent_certify_qcqp_entry(q)
        assert same_certificate(cert, want)
        assert (gauge is None) == (want_gauge is None)
        if gauge is not None:
            assert bits(gauge) == bits(want_gauge)

    # row values at blocks and at points
    blocks = random_blocks(rng, stacks)
    achieved = stacks.at_blocks(blocks)
    for p, (entry, sl) in enumerate(zip(s.blocks, stacks.slices)):
        assert bits(achieved[p]) == bits(parent_entry_achieved(entry, blocks[sl]))
    points = random_points(rng, stacks)
    values = stacks.at_points(points)
    for p, (entry, sl) in enumerate(zip(s.blocks, stacks.slices)):
        point = np.concatenate(points[sl])
        assert bits(values[p]) == bits(parent_entry_point_values(entry, point))

    # dual feasibility: multipliers of the rows' signs (now and then
    # flipped or zero) and small, so the psd tests go both ways
    sign = np.array([{"le": -1.0, "eq": 0.0, "ge": 1.0}[r.value] for r in s.relations])
    y = np.abs(rng.standard_normal(s.m)) * 10.0 ** rng.uniform(-4, 0, size=s.m)
    y = np.where(sign == 0.0, rng.standard_normal(s.m) * y, sign * y)
    y[rng.random(s.m) < 0.3] = 0.0
    if s.m and rng.random() < 0.2:
        y[int(rng.integers(s.m))] *= -1.0
    mus = list(rng.standard_normal(len(s.blocks)) * 10.0 ** float(rng.integers(-2, 3)))
    for p, entry in enumerate(s.blocks):
        if isinstance(entry, HomSepQcqp):
            mus[p] = 0.0
    tol = 1e-6
    got = connection._dual_feasible(stacks, y, mus, tol)
    assert got.tolist() == parent_dual_feasible(s, y, mus, tol).tolist()
    return got


class TestStackedStages:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80)
    def test_random_connections(self, seed):
        s, rng = random_connection(seed)
        assert_stages_match(s, rng)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_twenty_variables(self, seed):
        s, rng = random_connection(seed, n_fixed=20)
        assert any(getattr(e, "n", 0) == 20 for e in s.blocks)
        assert_stages_match(s, rng)

    def test_draws_reach_every_outcome(self):
        """The generator reaches every certificate outcome and both dual
        feasibility flags, so the property compares all the branches."""
        details, flags = set(), set()
        for seed in range(60):
            s, rng = random_connection(seed)
            stacks = connection._EntryStacks(s)
            for cert, gauge in connection._certify_qcqp_entries(stacks).values():
                details.add((cert.kind, cert.details.split(" ")[0], gauge is None))
            flags.update(assert_stages_match(s, rng).tolist())
        kinds = {k for k, _, _ in details}
        assert kinds == {CertificateKind.CONVEX, CertificateKind.SIGN_PATTERN,
                         CertificateKind.NONE}
        notes = {note for k, note, _ in details if k is CertificateKind.NONE}
        assert {"an", "neither"} <= notes
        assert flags == {True, False}

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_ranks_of_many_spectra(self, seed):
        """One stacked rank test per length counts as one test per
        spectrum did, at tolerances on both sides of eps * d."""
        rng = np.random.default_rng(seed)
        lams = []
        for _ in range(int(rng.integers(0, 9))):
            d = int(rng.integers(0, 6))
            lam = rng.standard_normal(d) * 10.0 ** rng.integers(-18, 3, size=d)
            if d and rng.random() < 0.2:
                lam[int(rng.integers(d))] = np.nan
            lams.append(lam)
        for tol in (1e-6, 1e-13, 1e-16, 1e-300):
            want = [parent_rank_of_eigenvalues(lam, tol) for lam in lams]
            assert rank_of_eigenvalues_many(lams, tol) == want
            assert [rank_of_eigenvalues(lam, tol) for lam in lams] == want
        with pytest.raises(ValueError):
            rank_of_eigenvalues(np.ones(2), 0.0)
        assert rank_of_eigenvalues_many([], 0.0) == []

    def test_convex_failure_names_the_first_part(self):
        # the objective is psd, row 1 is not and row 2 is not: row 1 is named
        f_ok = QuadFunc.from_parts(np.eye(2))
        f_bad = QuadFunc.from_parts(-np.eye(2))
        rows = [(f_ok, Relation.LE), (f_bad, Relation.LE), (f_bad, Relation.LE)]
        q = Qcqp(2, f_ok, rows, [1.0, 1.0, 1.0])
        both = [check_convex(q), check_convex(Qcqp(2, f_bad, [], []))]
        assert [c.details for c in both] == [
            "quadratic part of constraint 1 is not PSD",
            "quadratic part of objective is not PSD",
        ]
        assert _convex_certificates([]) == []
