"""The README's `Library use` example runs and prints what its comments show."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_as_documented():
    code = library_use_block()
    # Each `print(...)  # text` line states the text it prints.
    shown = re.findall(r"^print\(.*\)  # (.*)$", code, re.M)
    assert shown
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[: len(shown)] == shown
    # Then one line per flagged window: its index and two counts.
    assert printed[len(shown):] and all(
        re.fullmatch(r"\d+ \d+ \d+", line) for line in printed[len(shown):])
