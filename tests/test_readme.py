"""README.md's quick tour and command-line examples must run as written."""

import pathlib
import re
import shlex

import pytest

from maclab.cli import execute

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
FORMATS = ROOT / "FORMATS.md"


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _command_lines():
    """argv of each `maclab` line in the Command line section's block."""
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(),
                      re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("maclab ")]


# simulate lines need a scenario file and a 1e6-slot run
CLOSED_FORM_LINES = [argv for argv in _command_lines() if argv[0] != "simulate"]


def test_command_block_covers_qos():
    assert ["design", "--mode", "rts", "--qos", "classes.ini"] in CLOSED_FORM_LINES


@pytest.mark.parametrize("argv", CLOSED_FORM_LINES, ids=" ".join)
def test_command_line_example_runs(argv, tmp_path, capsys):
    qos = re.search(r"```ini\n(\[qos\]\n.*?)```", FORMATS.read_text(), re.DOTALL)
    classes = tmp_path / "classes.ini"
    classes.write_text(qos.group(1))
    argv = [str(classes) if a == "classes.ini" else a for a in argv]
    assert execute(argv) == 0, capsys.readouterr().err
