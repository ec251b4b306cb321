"""Module boundaries: no module of the package reads another package
module's underscore name, either as ``<module>._name`` or through
``from .<module> import _name``.  Names of the standard library and of
third-party packages (``os._exit``, say) are not checked."""

import ast
from pathlib import Path

import eegspeech

PACKAGE = Path(eegspeech.__file__).resolve().parent


def _is_module(path: Path) -> bool:
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _violations(source: Path, code: str) -> list[str]:
    """Each breach in ``code``, the text of the package file ``source``, as
    ``"<line>: <what>"``, in line order."""
    tree = ast.parse(code, str(source))
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = source.parents[node.level - 1]
            if node.module:
                base = base.joinpath(*node.module.split("."))
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"from {'.' * node.level}{node.module or ''} "
                                               f"import {alias.name}"))
                elif _is_module(base / alias.name):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_no_module_reads_another_package_modules_underscore_names():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = [f"{source.relative_to(PACKAGE)}:{where}"
             for source in sources for where in _violations(source, source.read_text())]
    assert not found, found


def test_the_check_flags_both_forms_and_skips_other_packages():
    code = ("from . import pipeline as p\n"
            "from .nn import ops\n"
            "from .networks import _fit\n"
            "import os\n"
            "p._hidden()\n"
            "ops._kernel\n"
            "os._exit\n"
            "p.__name__\n"
            "p.train_fold\n")
    assert _violations(PACKAGE / "cli.py", code) == [
        "3: from .networks import _fit", "5: p._hidden", "6: ops._kernel"]
