"""The package's runtime dependencies are numpy and the standard library.

Every absolute import in `src/evoadapt/*.py`, at module level or inside a
function, must name `numpy` or a module of `sys.stdlib_module_names`
(Python >= 3.10, the declared floor)."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "evoadapt"


def absolute_imports(path: pathlib.Path):
    """The top-level module of every absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = [(path.name, module) for path in sources for module in absolute_imports(path)
               if module not in allowed]
    assert foreign == []
