"""The README's library tour runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_library_tour_runs_in_order():
    # the blocks share one namespace: the second one uses the first one's np
    assert BLOCKS
    namespace: dict = {"__name__": "__main__"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i, block in enumerate(BLOCKS):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert "odd-number" in out.getvalue()
