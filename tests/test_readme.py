"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE))
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        # pad with the lines before the block, so tracebacks give README line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
