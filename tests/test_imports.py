"""Every name a module imports is used in that module, and no private code is dead.

No linter ships with the project, so this parses `src/critnum/*.py` and
`tests/**/*.py` with `ast`.  A name counts as used when it is read anywhere in the module or
listed in its `__all__` (the package's re-exports).  A module-level private
name (`_name`) of the package must be read somewhere in the package outside
its own definition, and must not rebind a name its module imports.
README's export table lists exactly the names in `critnum.__all__`.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import critnum

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "critnum").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("**/*.py"))


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


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _read(node: ast.AST) -> set[str]:
    """Names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_dead_private_names():
    modules = {path: ast.parse(path.read_text(), str(path)).body for path in PACKAGE}
    reads = [(node, _read(node)) for body in modules.values() for node in body]
    dead = []
    for path, body in modules.items():
        imported = {a.asname or a.name for node in body if isinstance(node, ast.ImportFrom) for a in node.names}
        for node in body:
            for name in _defined(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if name in imported or not any(name in names for other, names in reads if other is not node):
                    dead.append(f"{path.relative_to(ROOT)} line {node.lineno}: {name}")
    assert dead == []


def test_readme_export_table_matches_all():
    readme = (ROOT / "README.md").read_text()
    count = re.search(r"The package exports (\d+) names", readme)
    assert count and int(count.group(1)) == len(critnum.__all__)
    table = readme[count.end():].split("\n\n")[1]
    rows = dict(re.findall(r"^\| `(\w+)` +\| (.*) \|$", table, re.MULTILINE))
    errors = rows.pop("errors")
    listed = [name for cell in rows.values() for name in re.findall(r"`(\w+)`", cell)]
    is_error = {
        name: isinstance(obj, type) and issubclass(obj, critnum.CritnumError)
        for name, obj in ((name, getattr(critnum, name)) for name in critnum.__all__)
    }
    assert sorted(listed) == sorted(name for name, err in is_error.items() if not err)
    subclasses = re.search(r"`CritnumError` and its (\d+) subclasses", errors)
    assert subclasses and int(subclasses.group(1)) == sum(is_error.values()) - 1


def test_import_loads_no_dataclasses_or_typing():
    # without site nothing but critnum can have imported these modules
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import critnum, critnum.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_oracle_imports_no_closed_form():
    # the search shares no logic with the closed forms it is checked against
    tree = ast.parse((ROOT / "src" / "critnum" / "oracle.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not {"formulas", "critnum.formulas"} & modules, sorted(m for m in modules if m)
