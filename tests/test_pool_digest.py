"""tools/pool_digest.py records the solve every verdict rests on, and
its command-line lines hash a run that succeeded.

The digest wraps the name judge calls the solver through. If that name
moved, the digest would record nothing and still compare equal between
two commits; these tests catch that.
"""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "pool_digest.py"
)


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("pool_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["deep-blocks", "ex51-sweep", "ex52-cli", "wide-connection"])
def test_digest_records_the_one_solve(tool, workload):
    line = tool.digest(tool.make_instance(workload, 0))
    assert " solves=1 " in line
    assert tool.digest(tool.make_instance(workload, 0)) == line


@pytest.mark.parametrize("command", ["judge", "solve", "reduce", "certify"])
def test_cli_digest_is_stable(tool, command, tmp_path, monkeypatch):
    """The command-line half of the digest: one command on the problem
    file of make_example52(0) exits 0 and hashes the same twice."""
    path = str(tmp_path / "problem.sdpq")
    tool.cli.write_problem(tool.make_example52(0), path)
    real, codes = tool.cli.run, []

    def recorded(argv):
        codes.append(real(argv))
        return codes[-1]

    monkeypatch.setattr(tool.cli, "run", recorded)
    argv = [command, path, "--format", "json", "--no-timestamp"]
    first = tool.cli_digest(argv)
    assert tool.cli_digest(argv) == first
    assert codes == [0, 0]


def test_emit_digest_is_stable(tool):
    """A cli emit line hashes the problem file text itself: the same
    twice, and another text for another seed."""
    line = tool.emit_digest(0)
    assert len(line) == 40 and tool.emit_digest(0) == line
    text = tool.cli.emit(tool.make_example52(0))
    assert tool.hashlib.sha1(text.encode()).hexdigest() == line
    assert tool.emit_digest(1) != line


def test_new_route_instances(tool):
    """The sign-salvage line is certified with the gauge witness, and the
    direct oracle searches return their pinned values."""
    line = tool.digest(tool.sign_salvage())
    assert line.startswith("ExactCertified -1.4442420857387317 '' iters=12 solves=1 ")
    values = [
        tool.oracle_digest(q, grid, rounds).split()[0]
        for _, q, grid, rounds in tool.oracle_searches()
    ]
    assert values == ["-4.6049999999999995", "-4.0", "-3.2"]


def test_walk_lines(tool):
    """A walk line holds the steps, ranks and solution hash of a reduction
    that ends, and the error of one that stalls (seed 20)."""
    line = tool.walk_digest(*tool.walk_instance(1))
    assert line.startswith("steps=") and " ranks=[" in line and " sol=" in line
    assert tool.walk_digest(*tool.walk_instance(1)) == line
    stalled = tool.walk_digest(*tool.walk_instance(20))
    assert stalled.startswith("ReductionStallError 'invariants broken: ")
