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
