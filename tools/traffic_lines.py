"""Print the lines of ``sepqcqp`` that the digest traffic never executes.

Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/traffic_lines.py [workload ... | cli | routes]

The traffic is that of ``tools/pool_digest.py`` with the same arguments
(every pool instance judged by the library, then the command-line
reports), imported from it rather than copied; its digest lines are
discarded. It runs under ``sys.settrace``, which records the executed
lines of frames whose code lies in ``src/sepqcqp`` only. Then, for each
function of the package (a method is named ``Class.method``; lambdas and
comprehensions count as lines of the function around them), one line
names the lines that did not run:

    connection.py judge 812 830-831
    cli.py _example51_row never ran

A function whose every line ran is not printed. The first and last
lines print how many functions and lines the package has and how many
of them ran.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pool_digest  # noqa: E402
import sepqcqp  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(sepqcqp.__file__))


def trace(run) -> set:
    """Call run() and return the (file, line) pairs it executed inside
    the package."""
    executed: set = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == PACKAGE:
            executed.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(os.path.abspath(path), line) for path, line in executed}


def _lines(code) -> set:
    """The lines of code and of the anonymous code nested in it (lambdas,
    comprehensions), without the def line."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines") and const.co_name.startswith("<"):
            out |= _lines(const)
    out.discard(code.co_firstlineno)
    return out


def _functions(code, prefix=""):
    """(qualified name, code) of every named function under code."""
    for const in code.co_consts:
        if not hasattr(const, "co_lines") or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        if const.co_flags & 0x3:  # CO_OPTIMIZED | CO_NEWLOCALS: a function
            yield name, const
        yield from _functions(const, name + ".")


def functions() -> dict:
    """{(module file name, qualified name): set of lines} for the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            module = compile(fh.read(), path, "exec")
        for qualname, code in _functions(module):
            out[(name, qualname)] = (path, _lines(code))
    return out


def unexecuted(executed) -> dict:
    """{(module file name, qualified name): (lines, the lines that did not
    run)} for every function of the package."""
    out = {}
    for key, (path, lines) in functions().items():
        out[key] = (lines, {n for n in lines if (path, n) not in executed})
    return out


def _ranges(lines) -> str:
    """Sorted line numbers as runs: "3 7-9"."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(names) -> None:
    def traffic():
        with contextlib.redirect_stdout(io.StringIO()):
            pool_digest.main(names)

    report = unexecuted(trace(traffic))
    n_lines = sum(len(lines) for lines, _ in report.values())
    n_missed = sum(len(missed) for _, missed in report.values())
    n_never = sum(lines == missed for lines, missed in report.values())
    print(f"{len(report)} functions, {n_lines} lines")
    for (module, name), (lines, missed) in sorted(report.items()):
        if missed == lines:
            print(module, name, "never ran")
        elif missed:
            print(module, name, _ranges(missed))
    print(
        f"{len(report) - n_never} functions ran, "
        f"{n_lines - n_missed} of {n_lines} lines ran"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
