"""The README's ``python`` blocks run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
