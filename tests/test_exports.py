import ast
import importlib
import pathlib
import re
import types
from collections import Counter

import pytest

import dirlap as dl

MODULES = ["graph", "generators", "operators", "semigroup", "spectral"]


def declared_names():
    """Every entry of the five modules' ``__all__`` lists, repeats included."""
    return [name for module in MODULES for name in importlib.import_module(f"dirlap.{module}").__all__]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_defined_and_re_exported(module):
    mod = importlib.import_module(f"dirlap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"dirlap.{module}.__all__ names {name}, which it does not define"
        assert getattr(dl, name, None) is getattr(mod, name), f"dirlap does not re-export {module}.{name}"


def test_each_public_name_is_declared_once():
    counts = Counter(declared_names())
    assert [name for name, count in counts.items() if count > 1] == []


def test_the_package_exports_exactly_the_declared_names():
    names = {name for name, value in vars(dl).items() if not isinstance(value, types.ModuleType)}
    public = {name for name in names if not name.startswith("_") or name == "__version__"}
    assert public == set(declared_names()) | {"__version__"}


ROOT = pathlib.Path(__file__).resolve().parents[1]


def caller_sources():
    """The lines of every file whose references count as callers, with the line span of each
    top-level function the package defines.

    A string in ``perfbench/spans.py`` does not count: its tracer skips names that are missing.
    """
    package = sorted((ROOT / "src" / "dirlap").glob("*.py"))
    others = sorted((ROOT / "demos").glob("*.py"))
    others += [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    others += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "spans.py"]
    sources = []
    for path in package + others:
        text = path.read_text(encoding="utf-8")
        nodes = ast.parse(text).body if path in package else []
        spans = {node.name: (node.lineno, node.end_lineno) for node in nodes if isinstance(node, ast.FunctionDef)}
        sources.append((text.splitlines(), spans))
    return sources


def test_every_public_function_has_a_caller():
    """Each public function is called or read as an attribute (``name(`` or ``.name``) outside its
    own definition, in the package, the demos, the acceptance suite, conftest or perfbench.

    A reference from inside a function that itself has no caller does not count, so a chain of
    unused helpers is named whole.
    """
    functions = set()
    for module in MODULES:
        mod = importlib.import_module(f"dirlap.{module}")
        functions |= {name for name in mod.__all__ if isinstance(getattr(mod, name), types.FunctionType)}
    sources = caller_sources()

    def referenced(name, dead):
        pattern = re.compile(rf"(?<!\w){name}\(|\.{name}\b")
        for lines, spans in sources:
            skipped = {k for d in dead | {name} if d in spans for k in range(spans[d][0], spans[d][1] + 1)}
            if any(pattern.search(line) for k, line in enumerate(lines, 1) if k not in skipped):
                return True
        return False

    dead: set[str] = set()
    while newly := {name for name in functions - dead if not referenced(name, dead)}:
        dead |= newly
    assert not dead, f"public functions with no caller outside their unit tests: {sorted(dead)}"
