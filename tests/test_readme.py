"""The README's command-line examples print what the README shows."""

import re
import shlex
from pathlib import Path

from miselect.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks() -> list[str]:
    return re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)


def printed(capsys, command: str) -> list[str]:
    """The lines ``command`` prints, each whitespace-normalised."""
    program, *argv = shlex.split(command)
    assert program == "miselect"
    assert main(argv) == 0
    return [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]


def test_oracle_example(capsys):
    blocks = fenced_blocks()
    command = "miselect oracle --scenario I --k 0.2"
    shown = blocks[blocks.index(command + "\n") + 1].splitlines()
    assert shown[-1] == "..."  # the table is cut after its first rows
    shown = [" ".join(line.split()) for line in shown[:-1]]
    assert printed(capsys, command)[:len(shown)] == shown


def test_order_examples(capsys):
    # each example is a command line, then the line it prints
    (block,) = [b for b in fenced_blocks() if b.startswith("miselect order ")]
    examples = [p.splitlines() for p in block.split("\n\n") if "\n" in p.strip()]
    assert len(examples) == 2
    for command, shown in examples:
        assert printed(capsys, command) == [" ".join(shown.split())]
