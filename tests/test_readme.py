"""README stays true: its Library example prints what its comments say,
every name its module map gives exists in that module, every name in a
module's __all__ appears in its bullet, and every module-qualified name it
gives anywhere resolves."""

import builtins
import contextlib
import functools
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
        idents = re.findall(r"`([^`]+)`", text)
        assert not set(module.__all__) - set(idents), (name, set(module.__all__) - set(idents))
        for ident in idents:
            if not ident.isidentifier() or keyword.iskeyword(ident):
                continue
            assert hasattr(module, ident) or hasattr(builtins, ident), (name, ident)


def test_readme_qualified_names_resolve():
    names = re.findall(r"`((ck|sft|intmat|abelian|bundle|cli)(?:\.\w+)+)", README)
    assert len(names) >= 3
    for name, module in names:
        path = name.split(".")[1:]
        functools.reduce(getattr, path, importlib.import_module(f"ckbundle.{module}"))
