import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VERDICTS = []


def cli_env():
    """The environment of every child interpreter a test starts: this
    checkout's src first on PYTHONPATH, and no PYTHONUNBUFFERED, so that
    the child's stdout is block-buffered into its pipe, as by default, and
    output that an exit fails to flush is missing from every such test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
