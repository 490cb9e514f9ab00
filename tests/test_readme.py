"""The README's Python example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    example = text.split("## Example", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["1 * Z_1^A+B(4)", "2/9"]
