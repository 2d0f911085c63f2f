"""The paper's two constructive examples as seeded instance generators.

make_example51(alpha) is example 5.1: a two-block homogeneous family
whose coupling parameter alpha in [0, 4] moves it between exact and
not exact relaxations. make_example52(seed) is example 5.2: a convex, a
nonpositive-coupling and a homogeneous separable entry joined into one
connection on which every entry certifies; validate_example52 re-checks
the structural conditions of that template, and a draw that fails them
is resampled.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GenerationError, RangeError
from .qcqp_model import HomSepQcqp, Qcqp, QuadFunc, Relation, SeparableQcqp
from .symkernel import SymMatrix, is_psd


def make_example51(alpha: float) -> HomSepQcqp:
    """Two-block homogeneous benchmark with a tunable coupling parameter.

    min v1^2 - w^2 over blocks (v1, v2) and (w), subject to v2^2 = 1,
    (v1 - alpha v2)(v1 - 4 v2) <= 0, and w^2 <= (v1 - 2 v2)(v1 - 3 v2).
    """
    if not (0.0 <= float(alpha) <= 4.0):
        raise RangeError(f"alpha must lie in [0, 4], got {alpha!r}")
    alpha = float(alpha)
    sym = SymMatrix.from_dense
    c1 = [
        sym(np.diag([1.0, 0.0])),
        sym(np.diag([0.0, 1.0])),
        sym(np.array([
            [1.0, -(4.0 + alpha) / 2.0],
            [-(4.0 + alpha) / 2.0, 4.0 * alpha],
        ])),
        sym(np.array([[-1.0, 2.5], [2.5, -6.0]])),
    ]
    c2 = [
        sym(np.array([[-1.0]])),
        SymMatrix.zeros(1),
        SymMatrix.zeros(1),
        sym(np.array([[1.0]])),
    ]
    return HomSepQcqp(
        [c1, c2],
        [Relation.EQ, Relation.LE, Relation.LE],
        [1.0, 0.0, 0.0],
    )


def _rand_psd(rng, n, ridge=0.0):
    g = rng.standard_normal((n, n))
    return (g @ g.T) / max(n, 1) + ridge * np.eye(n)


def _rand_sym(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def _rand_stieltjes(rng, n):
    """Diagonally dominant PD matrix with nonpositive off-diagonal."""
    w = np.abs(rng.standard_normal((n, n)))
    off = -0.5 * (w + w.T)
    np.fill_diagonal(off, 0.0)
    diag = -off.sum(axis=1) + rng.uniform(0.3, 1.0, size=n)
    return off + np.diag(diag)


def _rand_offdiag_nonpos(rng, n):
    """Symmetric, off-diagonal <= 0, free diagonal."""
    w = np.abs(rng.standard_normal((n, n)))
    off = -0.5 * (w + w.T)
    np.fill_diagonal(off, 0.0)
    return off + np.diag(rng.standard_normal(n))


def validate_example52(s: SeparableQcqp) -> list:
    """Re-check every structural condition of the three-entry template.

    Returns a list of violation descriptions; empty means the instance
    satisfies all of them.
    """
    bad: list[str] = []
    if len(s.blocks) != 3:
        return [f"expected 3 entries, got {len(s.blocks)}"]
    q1, q2, h3 = s.blocks
    if not isinstance(q1, Qcqp) or not isinstance(q2, Qcqp):
        bad.append("entries 1 and 2 must be inhomogeneous")
    if not isinstance(h3, HomSepQcqp):
        bad.append("entry 3 must be homogeneous separable")
    if bad:
        return bad
    if s.m != 7:
        return [f"expected 7 rows, got {s.m}"]
    want = [Relation.EQ, Relation.GE] + [Relation.LE] * 5
    if list(s.relations) != want:
        bad.append(
            f"relation pattern {[r.symbol for r in s.relations]} is wrong"
        )
    gamma = np.asarray(s.gamma, dtype=float)
    if abs(gamma[0]) <= 1e-9:
        bad.append("gamma_1 must be nonzero")
    if gamma[1] <= 0.0:
        bad.append("gamma_2 must be positive")
    if gamma[2] >= 0.0:
        bad.append("gamma_3 must be negative")

    def zero_lin(f):
        return float(np.abs(f.linear_part()).max(initial=0.0)) <= 1e-12

    # entry 1: convex, rows 1 and 2 variable-free, row 3 purely quadratic
    f1 = [q1.objective] + [f for f, _ in q1.constraints]
    for k in (1, 2):
        if not f1[k].is_zero():
            bad.append(f"entry 1 row {k} must be zero")
    for k in (0, 3, 4, 5, 6, 7):
        if not is_psd(f1[k].quad_part()):
            bad.append(f"entry 1 function {k} is not convex")
    if not zero_lin(f1[3]):
        bad.append("entry 1 row 3 must have no linear part")

    # entry 2: nonpositive couplings and linear terms, rows 1, 2 free
    f2 = [q2.objective] + [f for f, _ in q2.constraints]
    for k in (1, 2):
        if not f2[k].is_zero():
            bad.append(f"entry 2 row {k} must be zero")
    for k in (0, 3, 4, 5, 6, 7):
        quad = f2[k].quad_part().to_dense()
        off = quad - np.diag(np.diag(quad))
        if float(off.max(initial=0.0)) > 1e-12:
            bad.append(f"entry 2 function {k} has positive couplings")
        if float(f2[k].linear_part().max(initial=0.0)) > 1e-12:
            bad.append(f"entry 2 function {k} has positive linear terms")
    if not is_psd(f2[3].quad_part()):
        bad.append("entry 2 row 3 must be positive semidefinite")
    if not zero_lin(f2[3]):
        bad.append("entry 2 row 3 must have no linear part")

    # entry 3: per-row sign structure and row-5 proportionality
    for q in (1, 2):
        if q < h3.q_hat and not h3.blocks[q][1].is_zero():
            bad.append(f"entry 3 block {q + 1} must be absent from row 1")
    for q in (0, 2):
        if q < h3.q_hat and not is_psd(h3.blocks[q][2].scaled(-1.0)):
            bad.append(f"entry 3 block {q + 1} row 2 must be nsd")
    for q in (0, 1):
        if q < h3.q_hat and not is_psd(h3.blocks[q][3]):
            bad.append(f"entry 3 block {q + 1} row 3 must be psd")
    for q in range(h3.q_hat):
        for k in (6, 7):
            if not h3.blocks[q][k].is_zero():
                bad.append(f"entry 3 block {q + 1} row {k} must be zero")
    c4 = np.concatenate(
        [h3.blocks[q][4].to_dense().ravel() for q in range(h3.q_hat)]
    )
    c5 = np.concatenate(
        [h3.blocks[q][5].to_dense().ravel() for q in range(h3.q_hat)]
    )
    j = int(np.argmax(np.abs(c4)))
    if abs(c4[j]) <= 1e-12:
        bad.append("entry 3 row 4 must be nonzero")
    else:
        alpha = c5[j] / c4[j]
        if alpha <= 0.0:
            bad.append(f"row-5 factor {alpha:.3g} must be positive")
        elif float(np.abs(c5 - alpha * c4).max()) > 1e-9 * (
            1.0 + float(np.abs(c5).max())
        ):
            bad.append("row 5 is not proportional to row 4")
    return bad


def make_example52(seed: int) -> SeparableQcqp:
    """Seeded three-entry connection: convex + nonpositive-coupling +
    homogeneous separable, wired so every entry certifies.

    Entries of 2, 2 and (2, 2, 2) variables. Every draw fixes a
    reference point, generates matrices with the required sign structure,
    and back-solves the right-hand sides to leave feasibility margins;
    draws failing the validator are resampled.
    """
    n1, n2, hom_dims = 2, 2, (2, 2, 2)
    rng = np.random.default_rng(seed)
    m = 7
    relations = [Relation.EQ, Relation.GE] + [Relation.LE] * 5

    for _ in range(100):
        x1 = rng.standard_normal(n1)
        x2 = rng.standard_normal(n2)
        vs = [rng.standard_normal(d) for d in hom_dims]
        if any(float(v @ v) < 1e-2 for v in vs):
            continue
        vs = [v / float(np.linalg.norm(v)) for v in vs]

        # entry 1 functions, indexed 0 (objective) .. 7
        funcs1 = [
            QuadFunc.from_parts(
                _rand_psd(rng, n1, ridge=0.3), rng.standard_normal(n1)
            ),
            QuadFunc.zero(n1),
            QuadFunc.zero(n1),
            QuadFunc.from_parts(_rand_psd(rng, n1)),
        ]
        funcs1 += [
            QuadFunc.from_parts(_rand_psd(rng, n1), rng.standard_normal(n1))
            for _k in range(4)
        ]

        # entry 2 functions: nonpositive couplings; row 3 also psd
        funcs2 = [
            QuadFunc.from_parts(
                _rand_stieltjes(rng, n2), -np.abs(rng.standard_normal(n2))
            ),
            QuadFunc.zero(n2),
            QuadFunc.zero(n2),
            QuadFunc.from_parts(_rand_stieltjes(rng, n2)),
        ]
        funcs2 += [
            QuadFunc.from_parts(
                _rand_offdiag_nonpos(rng, n2),
                -np.abs(rng.standard_normal(n2)),
            )
            for _k in range(4)
        ]

        # entry 3 coefficient matrices, blocks[q][k] for k = 0 .. 7
        q_hat = len(hom_dims)
        alpha = float(rng.uniform(0.5, 2.0))
        blocks = []
        for q, d in enumerate(hom_dims):
            c0 = _rand_psd(rng, d, ridge=0.3)
            c1 = _rand_sym(rng, d) if q == 0 else np.zeros((d, d))
            c2 = _rand_psd(rng, d, ridge=0.3) if q == 1 else -_rand_psd(rng, d)
            c3 = _rand_sym(rng, d) if q == 2 else _rand_psd(rng, d)
            c4 = _rand_sym(rng, d)
            blocks.append(
                [c0, c1, c2, c3, c4, alpha * c4,
                 np.zeros((d, d)), np.zeros((d, d))]
            )

        # row 1 lives only on the first hom block; keep it clearly nonzero
        gamma1 = float(vs[0] @ blocks[0][1] @ vs[0])
        if abs(gamma1) < 0.1:
            continue

        # scale v^2 so the positive middle block dominates row 2
        neg = sum(float(vs[q] @ blocks[q][2] @ vs[q]) for q in (0, 2))
        pos = float(vs[1] @ blocks[1][2] @ vs[1])
        if pos <= 1e-9:
            continue
        vs[1] = vs[1] * math.sqrt(
            (0.5 + float(rng.uniform(0.0, 1.0)) - neg) / pos
        )

        # shift the third block's row-3 matrix until the row clears gamma_3
        gamma3 = -float(rng.uniform(0.5, 2.0))
        margin3 = float(rng.uniform(0.1, 0.5))
        base3 = (
            float(funcs1[3].eval_many(x1[None, :])[0])
            + float(funcs2[3].eval_many(x2[None, :])[0])
            + sum(float(vs[q] @ blocks[q][3] @ vs[q]) for q in range(q_hat))
        )
        tau = (base3 - gamma3 + margin3) / float(vs[2] @ vs[2])
        blocks[2][3] = blocks[2][3] - tau * np.eye(hom_dims[2])

        def row_value(k):
            val = float(funcs1[k].eval_many(x1[None, :])[0])
            val += float(funcs2[k].eval_many(x2[None, :])[0])
            val += sum(
                float(vs[q] @ blocks[q][k] @ vs[q]) for q in range(q_hat)
            )
            return val

        gamma = np.zeros(m)
        gamma[0] = gamma1
        row2 = sum(float(vs[q] @ blocks[q][2] @ vs[q]) for q in range(q_hat))
        if row2 <= 0.0:
            continue
        gamma[1] = float(rng.uniform(0.1, 0.9)) * row2
        gamma[2] = gamma3
        for k in range(4, 8):
            gamma[k - 1] = row_value(k) + float(rng.uniform(0.1, 1.0))

        entry1 = Qcqp(n1, funcs1[0], list(zip(funcs1[1:], relations)), gamma)
        entry2 = Qcqp(n2, funcs2[0], list(zip(funcs2[1:], relations)), gamma)
        entry3 = HomSepQcqp(
            [[SymMatrix.from_dense(mat) for mat in blocks[q]]
             for q in range(q_hat)],
            relations,
            gamma,
        )
        s = SeparableQcqp([entry1, entry2, entry3], gamma)
        if not validate_example52(s):
            return s
    raise GenerationError("no structurally valid draw after 100 attempts")
