"""The runtime package imports nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cupweb"


def imported_top_levels(path: Path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        (path.name, name)
        for path in sources
        for name in imported_top_levels(path)
        if name not in sys.stdlib_module_names and name != "cupweb"
    ]
    assert foreign == []


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only what cupweb.cli itself imports is loaded.
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             "import cupweb.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
