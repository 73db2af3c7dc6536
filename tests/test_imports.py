"""Every name a module under apexp imports is used by that module, every
name an __all__ lists resolves, and importing apexp after numpy loads
only a few small standard modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apexp

MODULES = sorted(p for p in Path(apexp.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads
    and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert unused_imports(src) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "name", ["apexp"] + [f"apexp.{p.stem}" for p in MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(listed) == len(set(listed))
    assert [n for n in listed if not hasattr(module, n)] == []


# top-level modules that `import apexp` may add to a process that has
# already imported numpy; each new one adds to every command's start-up
ALLOWED_AFTER_NUMPY = {"__future__", "_decimal", "apexp", "copy",
                       "dataclasses", "decimal", "fractions"}


def test_import_adds_only_known_modules(tmp_path):
    code = ("import json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import apexp\n"
            "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(added)))\n")
    # the source root of the package under test, so the child imports the
    # same apexp wherever pytest was started from
    src_root = Path(apexp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code],
                         env={"PATH": os.environ.get("PATH", os.defpath),
                              "PYTHONPATH": str(src_root)},
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    added = set(json.loads(out.stdout))
    assert "apexp" in added
    assert added <= ALLOWED_AFTER_NUMPY, sorted(added - ALLOWED_AFTER_NUMPY)
