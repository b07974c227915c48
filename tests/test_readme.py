"""The README's library examples run as written.

Every fenced ``python`` block of README.md is executed in order, in one
namespace, so a later block may use names an earlier one defined.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
