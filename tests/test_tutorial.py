"""docs/TUTORIAL.md runs: every fenced Python block, in order, in one
namespace, as a reader following along would type them."""

import contextlib
import io
import pathlib
import re

TUTORIAL = pathlib.Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"


def test_tutorial_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 10
    namespace = {"__name__": "tutorial"}
    for number, block in enumerate(blocks, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"{TUTORIAL.name} block {number}", "exec"),
                 namespace)
