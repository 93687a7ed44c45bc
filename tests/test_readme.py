"""README stays true: its Library example prints what its comments say,
every name its module map gives exists in that module, every name in a
module's __all__ appears in its bullet, every module-qualified name it
gives anywhere resolves, and every limit it quotes equals the constant."""

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


def test_readme_limits_equal_the_constants():
    # `module.NAME` = value, the value a chain like 7⁶ = 117,649
    term = r"[\d,]+[⁰¹²³⁴⁵⁶⁷⁸⁹]*"
    quoted = re.findall(rf"`(\w+)\.([A-Z][A-Z_]*)`\s+=\s+((?:{term}\s+=\s+)*[\d,]*\d)", README)
    superscripts = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    names = set()
    for module, name, chain in quoted:
        constant = getattr(importlib.import_module(f"ckbundle.{module}"), name)
        for value in re.split(r"\s+=\s+", chain):
            base, power = re.fullmatch(r"([\d,]+)(\D*)", value).groups()
            quoted_value = int(base.replace(",", "")) ** int(power.translate(superscripts) or 1)
            assert quoted_value == constant, (f"{module}.{name}", value, constant)
        names.add(f"{module}.{name}")
    assert names >= {"ck.MAX_DILATION_ARCS", "sft.MAX_SE_CANDIDATES", "sft.MAX_SEARCH_ENTRIES"}
