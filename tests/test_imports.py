import ast
import sys
from pathlib import Path

import turan_reg

SOURCES = sorted(Path(turan_reg.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    # README: "the standard library is all it imports"; relative imports
    # are the package's own modules
    assert len(SOURCES) > 5
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_modules_use_every_name_they_import():
    # `__init__.py` imports to re-export, and `from __future__` names a
    # compiler feature, not a binding
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        # a dotted use `a.b` starts at the name `a`
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in used]
    assert unused == []
