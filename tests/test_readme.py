"""The README quick tour runs as written and prints what it promises."""

import cmath
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    block, = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    holomorphic, missing, value_line = out.getvalue().splitlines()
    assert holomorphic == "holomorphic"
    assert missing == "not-extendable"
    value, bound = value_line.split(" +/- ")
    assert abs(complex(value) - cmath.exp(0.2)) <= float(bound)
