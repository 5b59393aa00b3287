"""The README's Python examples run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    # later blocks reuse names (np) imported by earlier ones, as a reader would
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    bound, delta = map(float, printed)
    assert bound > 0.0 and 0.0 < delta < 1.0
    assert list(namespace["pt"].diag_sigma) == pytest.approx([10.0, 1.0])
