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


def public_names_no_module_reads(paths) -> list:
    """Module-level public names and public methods of classes, as
    `module.name` or `module.Class.method`, that no module reads and no
    `__init__.__all__` exports.  A module-level name is read by a Name load,
    an attribute or an import; a method only by an attribute or an import,
    so a local variable of the same name does not count.  It matches by
    name alone, so a method passes when any module reads another object's
    attribute of the same name."""
    defined, loaded, read, exported = [], set(), set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names == ["__all__"] and path.name == "__init__.py":
                    exported |= set(ast.literal_eval(node.value))
            else:
                continue
            defined += [(name, f"{path.stem}.{name}", True) for name in names]
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, f"{path.stem}.{node.name}.{item.name}", False)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name.split(".")[-1] for alias in node.names)
    return sorted(qualname for name, qualname, module_level in defined
                  if not name.startswith("_") and name not in read | exported
                  and not (module_level and name in loaded))


# Public names that no module of the package reads yet, each kept for a
# ROADMAP item; the gate requires this list to be exact.
KEPT_UNREAD = {
    "linalg.nullspace": "ROADMAP item 1: kept until the pairing check settles on bordered ranks,"
                        " which need no kernel",
    "linalg.rational_roots": "ROADMAP item 8: perfbench wraps it, so it goes with the benchmark refresh",
    "tangent.TangentComplex.d0": "ROADMAP item 1: the rational view of the integer-scale d0, kept for"
                                 " the pairing check",
    "tangent.TangentComplex.d1": "ROADMAP item 1: the rational view of the integer-scale d1, kept for"
                                 " the pairing check",
}


def test_no_public_name_only_tests_read(tmp_path):
    # the finder itself: an unread function, constant and method are found,
    # as is a method whose name is only a local variable elsewhere; names
    # read through a Name, an attribute, an import or `__all__` pass, as do
    # a method that shares a read attribute name and private or dunder names
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNREAD = 4\n"
        "def dead():\n    return LIMIT\n"
        "def imported():\n    pass\n"
        "def exported():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def _private(self):\n        pass\n"
        "    def stale(self):\n        pass\n"
        "    def size(self):\n        pass\n"
        "    def width(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import imported\nimport a\n_box = a.Box()\n_size = [].size\n"
        "def _f(width):\n    return width\n"
    )
    (tmp_path / "__init__.py").write_text("__all__ = ['exported']\n")
    assert public_names_no_module_reads(sorted(tmp_path.glob("*.py"))) == [
        "a.Box.stale", "a.Box.width", "a.UNREAD", "a.dead",
    ]

    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert public_names_no_module_reads(modules) == sorted(KEPT_UNREAD)


# Modules whose arithmetic reaches polynomial coefficients or matrix entries.
# Those are ints when integral, and int / int is a float, so these modules
# never divide.
COEFFICIENT_MODULES = (
    "algebra.py", "repify.py", "resolution.py", "derham.py", "tangent.py", "points.py", "linalg.py",
)


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


def fraction_seeds(path: Path) -> list:
    """Every one-argument `Fraction(<int literal>)`, however Fraction is
    reached: an integral value is an int under the one scalar rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def int_literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    return sorted(
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Fraction"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction"
        )
        and len(node.args) == 1 and not node.keywords and int_literal(node.args[0])
    )


def test_no_fraction_seeds(tmp_path):
    # the finder itself: integer seeds, signed and through the module, are
    # found; a ratio, a converted variable and a string literal pass
    probe = tmp_path / "m.py"
    probe.write_text(
        "import fractions\n"
        "from fractions import Fraction\n"
        "a = Fraction(0)\n"
        "b = [Fraction(-1)] * 3\n"
        "c = fractions.Fraction(1)\n"
        "d = Fraction(1, 3) + Fraction(a) + Fraction('2')\n"
    )
    assert fraction_seeds(probe) == ["m.py:3", "m.py:4", "m.py:5"]

    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for p in modules for entry in fraction_seeds(p)] == []


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


def indented_json_calls(path: Path) -> list:
    """Every json.dump/json.dumps call that passes `indent=`, however imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            or isinstance(node.func, ast.Name) and node.func.id in ("dump", "dumps")
        )
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_one_report_encoder(tmp_path):
    # the finder itself: indented calls through the module and through a bare
    # import are found; a compact call and another object's dumps pass
    probe = tmp_path / "m.py"
    probe.write_text(
        "import json\n"
        "from json import dump\n"
        "a = json.dumps({}, indent=2)\n"
        "b = json.dumps({}, sort_keys=True, separators=(',', ':'))\n"
        "dump({}, fh, indent=None)\n"
        "c = pickle.dumps({}, indent=2)\n"
    )
    assert indented_json_calls(probe) == ["m.py:3", "m.py:5"]

    # reports go through serialize.write_canonical only
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for p in modules for entry in indented_json_calls(p)] == []
