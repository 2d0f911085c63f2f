"""Problem file grammar, round-trips, command dispatch, exit codes, and
report schemas."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sepqcqp import cli
from sepqcqp.cli import (
    emit,
    parse,
    parse_text,
    problem_file_of,
    read_problem_text,
    run,
    validate_problem_file,
    verdict_from_dict,
    verdict_to_dict,
    write_problem,
)
from sepqcqp.connection import judge, make_example51, make_example52
from sepqcqp.errors import ParseError, ValidationError
from sepqcqp.qcqp_model import (
    HomSepQcqp,
    Qcqp,
    QuadFunc,
    Relation,
    SeparableQcqp,
)


def qf(quad, linear=None):
    return QuadFunc.from_parts(np.asarray(quad, dtype=float), linear)


def small_qcqp():
    obj = qf(np.eye(2), [-1.0, -1.0])
    return Qcqp(2, obj, [(qf(np.eye(2)), Relation.LE)], [1.0])


QCQP_TEXT = """\
# a tiny convex test problem
schema_version 1
kind qcqp
relations le
rhs 1.0

block
n 2
matrix 0
1 1 1.0
1 3 -1.0   # linear part lives in the last column
2 2 1.0
2 3 -1.0
end
matrix 1
1 1 1.0
2 2 1.0
end
end
"""


class TestParse:
    def test_qcqp_text(self):
        q = parse_text(QCQP_TEXT)
        assert isinstance(q, Qcqp)
        assert q.n == 2 and q.m == 1
        assert np.allclose(q.objective.B.to_dense()[:2, 2], [-1.0, -1.0])
        assert q.constraints[0][1] is Relation.LE

    def test_missing_matrices_are_zero(self):
        text = QCQP_TEXT.replace("matrix 1\n1 1 1.0\n2 2 1.0\nend\n", "")
        q = parse_text(text)
        assert q.constraints[0][0].B.is_zero()

    def test_unknown_keyword_cites_line(self):
        with pytest.raises(ParseError) as ei:
            parse_text("schema_version 1\nwhatzit 3\n")
        assert ei.value.line == 2
        assert "line 2" in str(ei.value)

    def test_bad_number_is_parse_error(self):
        bad = QCQP_TEXT.replace("1 1 1.0", "1 1 one")
        with pytest.raises(ParseError):
            parse_text(bad)

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse_text("schema_version 1\nkind qcqp\nblock\nn 1\n")

    def test_comments_and_blank_lines_ignored(self):
        q = parse_text(QCQP_TEXT)
        stripped = "\n".join(
            ln.split("#")[0] for ln in QCQP_TEXT.splitlines()
        )
        q2 = parse_text(stripped)
        assert np.array_equal(
            q.objective.B.to_dense(), q2.objective.B.to_dense()
        )


class TestValidation:
    def test_nonzero_corner_rejected(self):
        bad = QCQP_TEXT.replace("2 3 -1.0", "3 3 0.5")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "corner" in str(ei.value)

    def test_zero_corner_allowed(self):
        ok = QCQP_TEXT.replace("2 3 -1.0", "3 3 0.0")
        q = parse_text(ok)
        assert q.objective.B[2, 2] == 0.0

    def test_relation_rhs_length_mismatch(self):
        bad = QCQP_TEXT.replace("relations le", "relations le eq")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "rhs" in str(ei.value)

    def test_index_out_of_frame(self):
        bad = QCQP_TEXT.replace("2 2 1.0\n2 3 -1.0", "4 4 1.0")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "frame" in str(ei.value)

    def test_lower_triangle_rejected(self):
        bad = QCQP_TEXT.replace("1 3 -1.0", "3 1 -1.0")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "i <= j" in str(ei.value)

    def test_unsupported_schema_version(self):
        bad = QCQP_TEXT.replace("schema_version 1", "schema_version 9")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "schema_version" in str(ei.value)

    def test_unknown_relation_name(self):
        bad = QCQP_TEXT.replace("relations le", "relations lt")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "relations[0]" in str(ei.value)

    def test_gamma_outside_separable(self):
        bad = QCQP_TEXT.replace("rhs 1.0", "rhs 1.0\ngamma 1.0")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "gamma" in str(ei.value)

    def test_cross_block_entry_in_hom_entry(self):
        text = (
            "schema_version 1\nkind separable\nrelations le\nrhs 1.0\n"
            "block hom\ndims 2 1\nmatrix 0\n2 3 1.0\nend\nend\n"
        )
        with pytest.raises(ValidationError) as ei:
            parse_text(text)
        assert "couples" in str(ei.value)

    def test_duplicate_matrix_index(self):
        bad = QCQP_TEXT.replace("matrix 1", "matrix 0")
        with pytest.raises(ValidationError) as ei:
            parse_text(bad)
        assert "duplicate matrix index" in str(ei.value)

    def test_validate_is_pure_check(self):
        pf = read_problem_text(QCQP_TEXT)
        assert validate_problem_file(pf) is None


class TestRoundTrip:
    def test_benchmark_family_round_trips(self):
        h = make_example51(2.0)
        text = emit(h)
        h2 = parse_text(text)
        assert emit(h2) == text
        for q in range(h.q_hat):
            for k in range(h.m + 1):
                assert np.array_equal(
                    h.blocks[q][k].to_dense(), h2.blocks[q][k].to_dense()
                )
        assert h2.relations == h.relations
        assert np.array_equal(h2.rhs, h.rhs)

    def test_qcqp_round_trips(self):
        q = small_qcqp()
        q2 = parse_text(emit(q))
        assert isinstance(q2, Qcqp)
        assert np.array_equal(
            q.objective.B.to_dense(), q2.objective.B.to_dense()
        )
        assert emit(q2) == emit(q)

    def test_separable_with_hom_entry_round_trips(self):
        s = make_example52(1)
        s2 = parse_text(emit(s))
        assert isinstance(s2, SeparableQcqp)
        assert [type(b).__name__ for b in s2.blocks] == [
            "Qcqp",
            "Qcqp",
            "HomSepQcqp",
        ]
        assert emit(s2) == emit(s)
        assert np.array_equal(s2.gamma, s.gamma)
        v, v2 = judge(s), judge(s2)
        assert v2.status is v.status
        assert abs(v2.eta - v.eta) <= 1e-9 * (1 + abs(v.eta))

    def test_gamma_alias_for_separable(self):
        s = make_example52(0)
        text = emit(s).replace("\nrhs ", "\ngamma ")
        s2 = parse_text(text)
        assert np.array_equal(s2.gamma, s.gamma)

    def test_file_io(self, tmp_path):
        path = tmp_path / "prob.sq"
        write_problem(small_qcqp(), str(path))
        q = parse(str(path))
        assert isinstance(q, Qcqp) and q.n == 2

    def test_problem_file_of_orders_matrices(self):
        pf = problem_file_of(make_example51(1.0))
        for blk in pf.blocks:
            assert [mt.k for mt in blk.matrices] == list(range(4))


class TestVerdictSerialization:
    def test_verdict_round_trips_through_json(self):
        s = make_example52(2)
        v = judge(s)
        d = json.loads(json.dumps(verdict_to_dict(v), sort_keys=True))
        v2 = verdict_from_dict(d)
        assert v2.status is v.status
        assert v2.eta == v.eta
        assert v2.zeta_witness == v.zeta_witness
        assert v2.reason == v.reason
        assert len(v2.per_block) == len(v.per_block)
        for a, b in zip(v2.per_block, v.per_block):
            assert a.certificate.kind is b.certificate.kind
            assert a.certificate.case is b.certificate.case
            assert a.sub_sdpr_value == b.sub_sdpr_value
        for a, b in zip(v2.delta_decomposition, v.delta_decomposition):
            assert np.array_equal(a, b)
        assert v2.witness is not None
        for a, b in zip(v2.witness, v.witness):
            assert np.array_equal(a, b)

    def test_non_finite_numbers_round_trip_as_null(self):
        q = contradictory_qcqp()
        v = judge(SeparableQcqp([q], q.rhs))
        assert math.isnan(v.eta)
        d = verdict_to_dict(v)
        assert d["eta"] is None
        assert math.isnan(verdict_from_dict(json.loads(json.dumps(d))).eta)


def contradictory_qcqp():
    """One variable, rows x^2 = 1 and x^2 = 2: the relaxation fails
    structurally."""
    return Qcqp(
        1,
        qf([[1.0]]),
        [(qf([[1.0]]), Relation.EQ), (qf([[1.0]]), Relation.EQ)],
        [1.0, 2.0],
    )


def strict_json(text):
    """json.loads that refuses NaN and the infinities."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_example51_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "example51", "--alpha", "2", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "example51"
        rep = env["report"]
        assert abs(rep["eta"] - 4.0) <= 1e-4
        assert abs(rep["zeta"] - 4.0) <= 1e-4
        assert rep["rank"] == 1
        assert rep["verdict"] == "ExactWitnessed"
        assert rep["solver"]["status"] == "Optimal"
        assert "pataki_sum" in rep["solver"]

    def test_example51_not_exact_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "example51", "--alpha", "2.5", "--format", "json",
            "--no-timestamp",
        )
        assert code == 2
        rep = json.loads(out)["report"]
        assert rep["verdict"] == "NotExact"
        assert abs(rep["eta"] - 22.0 / 3.0) <= 1e-4
        assert abs(rep["zeta"] - 9.0) <= 1e-4
        assert rep["rank"] == 2

    def test_example51_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "example51", "--table", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        rows = json.loads(out)["report"]["rows"]
        by_alpha = {row["alpha"]: row for row in rows}
        assert set(by_alpha) == {0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0}
        for a, eta in ((0.0, -6.0), (1.0, -1.0), (2.0, 4.0), (3.0, 9.0)):
            assert abs(by_alpha[a]["eta"] - eta) <= 1e-4
            assert by_alpha[a]["verdict"].startswith("Exact")
            assert by_alpha[a]["rank"] == 1
        assert by_alpha[2.5]["verdict"] == "NotExact"
        assert by_alpha[4.0]["solver"]["status"] == "Diverged"
        # observed values reported for the open upper range, not asserted
        assert abs(by_alpha[3.5]["eta"] - 11.5) <= 1e-4

    def test_example51_table_text_renders(self, capsys):
        code, out, _ = run_cli(capsys, "example51", "--table")
        assert code == 0
        assert "alpha" in out.splitlines()[1]
        assert "NotExact" in out

    def test_example51_needs_alpha_or_table(self, capsys):
        code, _, err = run_cli(capsys, "example51")
        assert code == 1
        assert "alpha" in err

    def test_example52_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "example52", "--seed", "0", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["seed"] == 0
        assert rep["verdict"]["status"] == "ExactCertified"
        kinds = [
            pb["certificate"]["kind"] for pb in rep["verdict"]["per_block"]
        ]
        assert kinds == ["Convex", "SignPattern", "HomLimited"]
        assert rep["bilevel"]["identity_gap"] <= 1e-5
        v = verdict_from_dict(rep["verdict"])
        assert v.exact

    def test_example52_deterministic_bytes(self, capsys):
        args = ("example52", "--seed", "3", "--format", "json", "--no-timestamp")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_solve_command(self, capsys, tmp_path):
        path = tmp_path / "fam.sq"
        write_problem(make_example51(2.5), str(path))
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["kind"] == "homogeneous"
        assert rep["solver"]["status"] == "Optimal"
        assert abs(rep["solver"]["value"] - 22.0 / 3.0) <= 1e-4
        assert rep["solver"]["block_ranks"][0] == 2

    def test_judge_convex_file(self, capsys, tmp_path):
        path = tmp_path / "cvx.sq"
        write_problem(small_qcqp(), str(path))
        code, out, _ = run_cli(
            capsys, "judge", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["verdict"]["status"] == "ExactCertified"
        cert = rep["verdict"]["per_block"][0]["certificate"]
        assert cert["kind"] == "Convex"

    def test_judge_does_not_solve_twice(self, capsys, tmp_path, monkeypatch):
        # provenance comes from the solve inside judge, never a second one
        def no_solve(*args, **kwargs):
            raise AssertionError("cli.solve called during judge")

        path = tmp_path / "ex52.sq"
        write_problem(make_example52(2), str(path))
        monkeypatch.setattr(cli, "solve", no_solve)
        code, out, _ = run_cli(
            capsys, "judge", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["solver"]["status"] == "Optimal"
        assert rep["solver"]["value"] == rep["verdict"]["eta"]

    def test_example51_does_not_solve_twice(self, capsys, monkeypatch):
        # every row reads its relaxation from the verdict, alpha = 4 too
        def no_solve(*args, **kwargs):
            raise AssertionError("cli.solve called during example51")

        monkeypatch.setattr(cli, "solve", no_solve)
        code, out, _ = run_cli(
            capsys, "example51", "--table", "--format", "json", "--no-timestamp"
        )
        assert code == 0
        assert len(json.loads(out)["report"]["rows"]) == 7

    def test_judge_json_is_strict_when_the_relaxation_fails(
        self, capsys, tmp_path
    ):
        path = tmp_path / "contradictory.sq"
        write_problem(contradictory_qcqp(), str(path))
        code, out, _ = run_cli(
            capsys, "judge", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 2
        rep = strict_json(out)["report"]
        assert rep["verdict"]["eta"] is None
        assert rep["solver"] is None

    def test_certify_command(self, capsys, tmp_path):
        path = tmp_path / "ex52.sq"
        write_problem(make_example52(1), str(path))
        code, out, _ = run_cli(
            capsys, "certify", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert [c["kind"] for c in rep["certificates"]] == [
            "Convex",
            "SignPattern",
            "HomLimited",
        ]
        assert all(c["holds"] for c in rep["certificates"])

    def test_reduce_command(self, capsys, tmp_path):
        path = tmp_path / "fam.sq"
        write_problem(make_example51(0.0), str(path))
        code, out, _ = run_cli(
            capsys, "reduce", str(path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["stalled"] is False
        assert rep["final_ranks"][0] == 1
        assert rep["pataki_sum"] <= rep["bound_m"]
        assert rep["extracted"] is True
        assert rep["value_drift"] <= 1e-6

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "example51", "--alpha", "0", "--format", "json",
            "--no-timestamp", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        rep = json.loads(target.read_text())
        assert rep["report"]["verdict"] == "ExactCertified"

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(
            capsys, "example51", "--alpha", "0", "--format", "json"
        )
        assert "generated_at" in json.loads(out)


class TestWarnings:
    # row 0 reads no matrix and has rhs 0; the ball moves to row 1
    ZERO_ROW_TEXT = QCQP_TEXT.replace(
        "relations le\nrhs 1.0", "relations le le\nrhs 0.0 1.0"
    ).replace("matrix 1\n", "matrix 2\n")

    @pytest.mark.parametrize("command", ["solve", "judge", "reduce", "certify"])
    def test_dropped_row_is_one_stderr_line(self, capsys, tmp_path, command):
        path = tmp_path / "zero.sq"
        path.write_text(self.ZERO_ROW_TEXT)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, str(path), "--format", "json",
                                     "--no-timestamp")
        assert code == 0
        assert escaped == []
        assert err == "warning: dropping identically-zero rows with zero rhs: [0]\n"
        assert json.loads(out)["command"] == command

    def test_report_unchanged_by_the_warning(self, capsys, tmp_path):
        path = tmp_path / "zero.sq"
        path.write_text(self.ZERO_ROW_TEXT)
        _, with_line, _ = run_cli(capsys, "judge", str(path), "--format", "json",
                                  "--no-timestamp")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, without, err = run_cli(capsys, "judge", str(path), "--format", "json",
                                      "--no-timestamp")
        assert err == ""
        assert with_line == without


class TestExitCodes:
    def test_parse_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.sq"
        path.write_text("schema_version 1\nwhatzit\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "line 2" in err

    def test_validation_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.sq"
        path.write_text(QCQP_TEXT.replace("2 3 -1.0", "3 3 0.5"))
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "corner" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.sq"))
        assert code == 1
        assert err != ""

    def test_usage_error_exits_1(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1
        assert run_cli(capsys, "example52")[0] == 1

    @pytest.mark.parametrize(
        "case", ["overflowing-entry", "not-utf8", "out-dir-missing", "negative-seed"]
    )
    def test_failure_exits_1_with_one_error_line(self, capsys, tmp_path, case):
        path = tmp_path / "p.sq"
        path.write_text(QCQP_TEXT)
        argv = ["judge", str(path)]
        if case == "overflowing-entry":
            # symmetrizing doubles the entry past the largest float
            path.write_text(QCQP_TEXT.replace("1 3 -1.0", "1 3 1e308"))
        elif case == "not-utf8":
            path.write_bytes(QCQP_TEXT.encode().replace(b"tiny", b"t\xffny"))
        elif case == "out-dir-missing":
            argv += ["--out", str(tmp_path / "missing" / "report.txt")]
        else:
            argv = ["example52", "--seed", "-1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        want = {
            "overflowing-entry": "blocks[0].matrices[0].entries[1]",
            "not-utf8": "line 1: not UTF-8",
            "out-dir-missing": "No such file or directory",
            "negative-seed": "argument --seed",
        }[case]
        assert want in err

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-iter", "0"),
            ("--rank-tol", "0"),
            ("--tol", "-1"),
            ("--tol", "nan"),
        ],
        ids=["max-iter-0", "rank-tol-0", "tol-negative", "tol-nan"],
    )
    def test_bad_tolerance_or_cap_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        # rejected while parsing: nothing is solved or judged
        def no_judge(*args, **kwargs):
            raise AssertionError("judge ran on a rejected flag")

        path = tmp_path / "cvx.sq"
        write_problem(small_qcqp(), str(path))
        monkeypatch.setattr(cli, "judge", no_judge)
        code, out, err = run_cli(capsys, "judge", str(path), flag, value)
        assert code == 1
        assert out == ""
        assert f"argument {flag}" in err

    def test_parser_is_built_once_per_process(self, capsys, tmp_path, monkeypatch):
        built = []
        build = cli.build_arg_parser

        def counted():
            built.append(1)
            return build()

        path = tmp_path / "fam.sq"
        write_problem(make_example51(2.5), str(path))
        monkeypatch.setattr(cli, "build_arg_parser", counted)
        cli._arg_parser.cache_clear()
        try:
            code, out, _ = run_cli(
                capsys, "solve", str(path), "--format", "json", "--no-timestamp"
            )
            assert code == 0
            assert json.loads(out)["command"] == "solve"
            code, out, _ = run_cli(
                capsys, "example51", "--alpha", "2", "--format", "json",
                "--no-timestamp",
            )
            assert code == 0
            assert json.loads(out)["command"] == "example51"
        finally:
            cli._arg_parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize(
        "model, solver_status",
        [
            (make_example51(4.0), "Diverged"),  # no strictly feasible point
            (Qcqp(1, qf([[0.0]]), [(qf([[1.0]]), Relation.LE)], [-1.0]), "Diverged"),
            (contradictory_qcqp(), None),  # the solve raises, no provenance
        ],
        ids=["alpha4", "infeasible", "contradictory"],
    )
    def test_judge_short_of_optimal_exits_2(
        self, capsys, tmp_path, model, solver_status
    ):
        path = tmp_path / "short.sq"
        write_problem(model, str(path))
        code, out, err = run_cli(capsys, "judge", str(path), "--format", "json")
        assert code == 2
        assert err == ""
        rep = strict_json(out)["report"]
        assert rep["verdict"]["status"] == "Undetermined"
        solver = rep["solver"]
        assert (None if solver is None else solver["status"]) == solver_status
        assert rep["bilevel"] is None


class TestEntryPoint:
    """python -m sepqcqp runs main() through __main__."""

    def test_module_judges_and_reports_failures(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )

        def module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "sepqcqp", *argv],
                capture_output=True, text=True, env=env, timeout=300,
            )

        good = tmp_path / "good.sq"
        write_problem(small_qcqp(), str(good))
        res = module("judge", str(good), "--format", "json")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["command"] == "judge"

        bad = tmp_path / "bad.sq"
        bad.write_bytes(b"schema_version 1\n\xff\n")
        res = module("judge", str(bad))
        assert res.returncode == 1
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr
