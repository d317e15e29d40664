import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_runs():
    """Each ```python block of the README runs as written, in a fresh namespace."""
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) >= 2
    for block in blocks:
        line = text.count("\n", 0, block.start(1)) + 1
        code = compile("\n" * (line - 1) + block.group(1), str(README), "exec")
        exec(code, {})
