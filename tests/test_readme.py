"""The README's Quick example runs as shown, from the repository root."""

import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quick_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Quick example\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README.md has no Quick example python block"
    return match.group(1)


def test_quick_example_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the example reads tests/data/tiny.json
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_example(), "README.md", "exec"), {})
    assert out.getvalue() == f"{2 / 3} 44\n"
