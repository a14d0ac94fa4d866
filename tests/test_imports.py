"""The package's module-level imports are pinned.

Every module the package imports when it loads adds to the start-up time
of each CLI call (the benchmark's ``setup_s``). A new one must be added to
``PINNED`` on purpose, not slip in with an unrelated change.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcdm_weights"

#: top-level names of the modules imported outside any function body;
#: the package's own, relative, imports are left out
PINNED = {
    "__future__",
    "argparse",
    "concurrent",
    "csv",
    "dataclasses",
    "functools",
    "hashlib",
    "io",
    "json",
    "math",
    "numpy",
    "operator",
    "pathlib",
    "re",
    "sys",
    "typing",
}


def module_level_imports(tree):
    """Top-level module names imported by ``tree`` when it is executed,
    including under module-level ``if``/``try`` and in class bodies."""
    found = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_imports_are_pinned():
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
            imported.setdefault(name, []).append(path.name)
    added = {name: files for name, files in imported.items() if name not in PINNED}
    assert not added, (
        f"new module-level imports {added}: each one adds to every CLI call's "
        "start-up time; import it inside the function that needs it, or add "
        "it to PINNED"
    )
    assert set(imported) == PINNED, f"no longer imported: {PINNED - set(imported)}"


def test_a_new_import_is_caught():
    tree = ast.parse(
        "import numpy as np\n"
        "from .matrix import x\n"
        "from xml.etree import ElementTree\n"
        "if True:\n    import decimal\n"
        "def f():\n    import fractions\n"
    )
    assert module_level_imports(tree) == {"numpy", "xml", "decimal"}
