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
