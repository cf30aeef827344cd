"""The README's examples, run as written.

Each `$ cyclebetti ...` example of the Command line section runs as
`python -m cyclebetti.cli ...` in a fresh interpreter, and must exit 0 with
exactly the stdout printed below it; a leading "..." line means only the
lines after it are compared.  The python block runs through doctest.  Only
the block is parsed: on the whole file, doctest reads the closing fence
after the last example as part of its expected output.
"""

import doctest
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cyclebetti

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def cli_examples():
    block = README.split("## Command line")[1].split("```text\n")[1].split("```")[0]
    examples = [example.split("\n") for example in block.strip().split("\n\n")]
    return [pytest.param(command, expected, id=command.removeprefix("$ ")) for command, *expected in examples]


@pytest.mark.parametrize("command,expected", cli_examples())
def test_command_line_example_prints_what_the_readme_shows(command, expected):
    program, *args = shlex.split(command.removeprefix("$ "))
    assert program == "cyclebetti", command
    source = str(Path(cyclebetti.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "cyclebetti.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    if expected[0] == "...":
        expected = expected[1:]
        out = "".join(out.splitlines(keepends=True)[-len(expected):])
    assert out == "".join(line + "\n" for line in expected)


def test_python_block_passes_doctest():
    block = README.split("```python\n")[1].split("```")[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)
