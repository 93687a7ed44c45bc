"""README stays true: its Library example prints what its comments say, and
every name its module map gives exists in that module."""

import builtins
import contextlib
import importlib
import io
import keyword
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_library_example_and_module_map():
    example = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", example, re.M)
    assert expected == ["Z_2 + Z_2", "Z + Z_2 + Z_2", "t^2 - 6t + 1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert out.getvalue().splitlines() == expected

    module_map = README.split("Module map:\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(ckbundle\.\w+)`:(.*?)(?=^- |\Z)", module_map, re.M | re.S)
    assert len(bullets) == 6
    for name, text in bullets:
        module = importlib.import_module(name)
        for ident in re.findall(r"`([^`]+)`", text):
            if not ident.isidentifier() or keyword.iskeyword(ident):
                continue
            assert hasattr(module, ident) or hasattr(builtins, ident), (name, ident)
