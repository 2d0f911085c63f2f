"""tools/traffic_lines.py traces the digest traffic and names the lines
of the package it did not run."""

import importlib.util
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "traffic_lines", os.path.join(TOOLS, "traffic_lines.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_example52_digest(tool):
    # judging make_example52(0) through the digest runs judge but never
    # the CLI's example51 rows
    digest, before = tool.pool_digest, sys.gettrace()
    executed = tool.trace(lambda: digest.digest(digest.make_instance("ex52-cli", 0)))
    assert sys.gettrace() is before
    report = tool.unexecuted(executed)
    lines, missed = report[("connection.py", "judge")]
    assert lines and missed < lines
    lines, missed = report[("cli.py", "_example51_row")]
    assert lines and missed == lines
    assert report[("connection.py", "_EntryStacks.at_blocks")][0]


def test_ranges(tool):
    assert tool._ranges({9, 3, 7, 8}) == "3 7-9"
    assert tool._ranges(set()) == ""
