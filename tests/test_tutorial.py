"""docs/TUTORIAL.md runs: every fenced Python block, in order, in one
namespace, as a reader following along would type them, and each block
that §3's prose describes prints what the prose says."""

import contextlib
import io
import pathlib
import re

import pytest

TUTORIAL = pathlib.Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"


@pytest.fixture(scope="module")
def blocks():
    """``[(code, stdout)]`` for every fenced Python block, run in order."""
    codes = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(),
                       flags=re.DOTALL | re.MULTILINE)
    namespace = {"__name__": "tutorial"}
    ran = []
    for number, code in enumerate(codes, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, f"{TUTORIAL.name} block {number}", "exec"),
                 namespace)
        ran.append((code, out.getvalue()))
    return ran


def _output(blocks, marker):
    """The output of the one block whose code contains ``marker``."""
    (out,) = [out for code, out in blocks if marker in code]
    return out


def test_tutorial_blocks_run_in_order(blocks):
    assert len(blocks) >= 10


def test_section_3_drops_out_dh_at_the_filter_then_tunnels(blocks):
    # Out-DH from the filtering visited domain gets no echo: visited-gw
    # drops it as a foreign source leaving the site.
    assert "echo:" not in _output(blocks, 'sendto("hello", ')
    trace = _output(blocks, "sim.trace.summary()")
    assert "drop[source-address-filter:foreign-source-leaving-site]: 1" in trace
    assert trace.splitlines()[-2:] == [
        "5.0 laptop mode-select UDP Out-DH",
        "5.0006136 visited-gw drop UDP "
        "source-address-filter:foreign-source-leaving-site",
    ]
    # Started pessimistically, the datagram rides the reverse tunnel:
    # the echo comes back, and the traceroute reaches the laptop.
    assert _output(blocks, 'sendto("hello again"') == "echo: hello again\n"
    assert _output(blocks, "traceroute(").splitlines()[-2:] == [
        "   6  10.1.0.10", "  reached"]
