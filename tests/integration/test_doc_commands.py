"""Doc-drift gate: every ``funseeker ...`` or ``python -m repro ...``
command in a fenced shell block of the docs parses with
:func:`repro.cli.build_parser`. Nothing is run.

Shell blocks are fences tagged ``sh``, ``bash``, ``shell`` or
``console`` (where only ``$ `` lines are commands), and untagged
fences. A ``table1|table2`` token stands for each of its alternatives;
a line with a bare ``...`` is a synopsis and is skipped.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted((ROOT / "docs").glob("*.md"))]
SHELL_FENCES = {"", "sh", "bash", "shell", "console"}
MENTION = re.compile(r"\bfunseeker\b|-m repro\b")


def _shell_lines(path: Path):
    """(line number, command line) in the file's shell blocks, with
    backslash continuations joined."""
    fence = None
    pending, start = "", 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = stripped[3:].strip() if fence is None else None
            continue
        if fence not in SHELL_FENCES:
            continue
        if fence == "console":
            if not stripped.startswith("$ "):
                continue
            stripped = stripped[2:]
        if not pending:
            start = number
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        yield start, pending + stripped
        pending = ""


def _invocations(tokens: list[str]):
    """The CLI argument lists in one tokenized shell line."""
    command: list[str] = []
    for token in [*tokens, ";"]:
        if token not in ("|", ";", "&&", "||"):
            command.append(token)
            continue
        while command and re.fullmatch(r"\w+=\S*", command[0]):
            command.pop(0)  # VAR=value prefixes
        args = None
        if command[:1] == ["funseeker"]:
            args = command[1:]
        elif command[:3] in (["python", "-m", "repro"],
                             ["python3", "-m", "repro"]):
            args = command[3:]
        # A bare "..." marks a synopsis, not a command.
        if args is not None and "..." not in args:
            yield from _alternatives(args)
        command = []


def _alternatives(args: list[str]):
    for i, arg in enumerate(args):
        if "|" in arg:
            for alt in arg.split("|"):
                yield from _alternatives([*args[:i], alt, *args[i + 1:]])
            return
    yield args


def _doc_commands():
    for path in DOCS:
        if not path.exists():
            continue
        for number, line in _shell_lines(path):
            if not MENTION.search(line):
                continue
            label = f"{path.relative_to(ROOT)}:{number}"
            for args in _invocations(shlex.split(line, comments=True)):
                yield pytest.param(args, id=f"{label} {' '.join(args)}")


COMMANDS = list(_doc_commands())


def test_the_docs_hold_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("args", COMMANDS)
def test_documented_command_parses(args):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            build_parser().parse_args(args)
        except SystemExit:
            pytest.fail(f"funseeker {' '.join(args)}: {stderr.getvalue()}")
