"""README's CLI examples, run as written.

Every ``$ murec ...`` line in the ``sh`` blocks under README "CLI" goes
through ``murec.cli.main`` in order, in a fresh directory, and must print the
lines the block shows under it.  The ``wrote`` line's path is compared by its
file name.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from conftest import ADD_REC, MUL_REC
from murec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = {"add.rec": ADD_REC, "mul.rec": MUL_REC, "chain.rec": "(compose (succ) ((succ)))"}


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ murec`` line under README "CLI", with the lines shown after it."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            else:
                examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, source in SOURCES.items():
        (tmp_path / name).write_text(source + "\n")
    examples = _cli_examples()
    assert len(examples) == 7
    for example, shown in examples:
        command, _, comment = example.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "murec", example
        if comment:  # names the program its file holds
            program, = (arg for arg in argv if arg in SOURCES)
            assert comment.strip() == SOURCES[program]
        main(argv[1:])
        printed = capsys.readouterr().out.splitlines()
        printed = [f"wrote {Path(line[6:]).name}" if line.startswith("wrote ") else line for line in printed]
        assert printed == shown, example
