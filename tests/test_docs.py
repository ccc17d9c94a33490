"""The README's code examples run and print what the README says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_documented_energy():
    code = library_example()
    documented = re.search(r"\.energy\)\s*# (\S+)", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == documented
