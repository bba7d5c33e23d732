"""Every name a module imports is used in that module.

No linter ships with the project, so this parses `src/critnum/*.py` and
`tests/**/*.py` with `ast`.  A name counts as used when it is read anywhere in the module or
listed in its `__all__` (the package's re-exports).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "critnum").glob("*.py")) + sorted((ROOT / "tests").glob("**/*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert SOURCES
    unused = [
        f"{path.relative_to(ROOT)} {problem}"
        for path in SOURCES
        for problem in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == []
