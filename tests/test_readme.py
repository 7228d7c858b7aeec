"""The README runs as written: its ``python`` blocks, and the ``sandlab`` lines of its CLI block."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sandlab.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def cli_lines() -> list[str]:
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", README.read_text(), re.S | re.M)
    return [line for line in block.group(1).splitlines() if line.startswith("sandlab ")]


@pytest.mark.parametrize("line", cli_lines(), ids=lambda line: line.split("#")[0].strip())
def test_every_cli_line_runs_with_the_exit_code_its_comment_states(line):
    # as a shell splits it: an unquoted |, ; or & comes out as a token of its own
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = list(lexer)
    operators = [tok for tok in argv if set(tok) <= set(lexer.punctuation_chars)]
    assert not operators, f"a shell reads {operators} as an operator: quote the argument"
    stated = re.search(r"#.*\bexits? (\d+)", line)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv[1:])
    assert code == (int(stated.group(1)) if stated else 0), err.getvalue()
