"""The public surface: every name `monoreg/__init__.py` exports is listed in
the README's API index under its module, and the index lists nothing else;
no module of the package imports another's private name; and the count of
settable values does not rise."""
import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names() -> dict[str, set[str]]:
    """Module -> the names the package imports from it."""
    tree = ast.parse((ROOT / "src" / "monoreg" / "__init__.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.setdefault(node.module, set()).update(
                alias.asname or alias.name for alias in node.names
            )
    return names


def indexed_names() -> dict[str, set[str]]:
    """Module -> the names in backticks in its row of the README's API index."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## API index\n", 1)[1].split("\n## ", 1)[0]
    names = {}
    for row in re.finditer(r"^\| `(\w+)` \|(.*)\|$", section, re.MULTILINE):
        names[row[1]] = set(re.findall(r"`(\w+)`", row[2]))
    return names


def test_readme_api_index_lists_exactly_the_exports():
    exported, indexed = exported_names(), indexed_names()
    assert sorted(indexed) == sorted(exported)
    for module, names in exported.items():
        assert indexed[module] - names == set(), f"{module}: not exported"
        assert names - indexed[module] == set(), f"{module}: not in the README"


def private_imports(path: Path) -> list[str]:
    """`module._name` for each `from .module import _name` of the file."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: names
             for path in sorted((ROOT / "src" / "monoreg").glob("*.py"))
             if (names := private_imports(path))}
    assert found == {}, "import no private name; make a shared rule public"


def test_settable_values_do_not_rise():
    # A change that raises this count names, in CHANGES.md, two callers that
    # are not tests and need different values of each new setting; a value
    # only tests set is a constant (monkeypatched where a test needs another).
    spec = importlib.util.spec_from_file_location(
        "statement_trace", ROOT / "tools" / "statement_trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    count = sum(trace.settable_values(ast.parse(path.read_text()))
                for path in (ROOT / "src" / "monoreg").glob("*.py"))
    assert count <= 67
