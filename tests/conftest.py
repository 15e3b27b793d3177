import collections
import contextlib
import io

import pytest

from bkcalc.cli import main

VERDICTS: list[str] = []

CliResult = collections.namedtuple("CliResult", "exit_code output stderr")


def run_cli(*args) -> CliResult:
    """Run ``main`` on ``args`` in this process: its exit code, and what it
    wrote to stdout (``output``) and to stderr, captured apart and byte for
    byte, so CSV rows keep their \\r\\n."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exited:
            main(list(args))
    return CliResult(exited.value.code, out.getvalue(), err.getvalue())


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
