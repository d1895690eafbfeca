import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgquot"


def unused_imports(path: Path) -> list:
    """Names a module imports and never reads, skipping `# noqa: F401` lines."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports(tmp_path):
    # the finder itself: one unused name, one used through an alias, one exempt line
    probe = tmp_path / "m.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, floor  # noqa: F401\n"
        "from fractions import Fraction\n"
        "def f(x: Fraction):\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(probe) == ["m.py:2: os"]

    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []


def unreferenced_private_names(paths) -> list:
    """Module-level `_name` definitions that no module of the package reads."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{f}:{line}: {name}" for f, line, name in defined if name not in read)


def test_no_unreferenced_private_helpers(tmp_path):
    # the finder itself: a dead helper, one read in its own module, one read
    # through another module's attribute, and a dunder, which is exempt
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "__all__ = []\n"
        "def _dead():\n    return 1\n"
        "def _used():\n    return _LIMIT\n"
        "def public():\n    return _used()\n"
        "class _Remote:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\nx = a._Remote\n")
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == ["a.py:3: _dead"]

    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert unreferenced_private_names(modules) == []


# Modules whose arithmetic reaches polynomial coefficients.  Those are ints
# when integral, and int / int is a float, so these modules never divide.
COEFFICIENT_MODULES = ("algebra.py", "repify.py", "resolution.py", "derham.py", "tangent.py", "points.py")


def true_divisions(path: Path) -> list:
    """Every `/` and `/=` in a module; floor division `//` is not one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_no_true_division_on_coefficients(tmp_path):
    # the finder itself: a quotient, an in-place quotient, floor division,
    # an exact Fraction and a division inside a nested function
    probe = tmp_path / "m.py"
    probe.write_text(
        "from fractions import Fraction\n"
        "def f(c, d):\n"
        "    c /= 2\n"
        "    e = c // d + Fraction(1, 3)\n"
        "    def g():\n"
        "        return e / d\n"
        "    return g\n"
    )
    assert true_divisions(probe) == ["m.py:3", "m.py:6"]

    assert [entry for name in COEFFICIENT_MODULES for entry in true_divisions(SRC / name)] == []


def function_local_imports(path: Path) -> list:
    """Every import statement inside a function body, run at call time."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_no_function_local_imports(tmp_path):
    # the finder itself: module-level and conditional imports pass; one in a
    # function, one in a nested function and one in a method are found once each
    probe = tmp_path / "m.py"
    probe.write_text(
        "import os\n"
        "if os.name:\n"
        "    import sys\n"
        "def f():\n"
        "    from math import comb\n"
        "    def g():\n"
        "        import json\n"
        "    return comb\n"
        "class C:\n"
        "    async def h(self):\n"
        "        import re\n"
    )
    assert function_local_imports(probe) == ["m.py:5", "m.py:7", "m.py:11"]

    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for p in modules for entry in function_local_imports(p)] == []
