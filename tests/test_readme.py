"""The README's library quickstart runs, and it imports exactly the package
root's names and uses each of them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import chauffeur

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = ("core", "solution", "sim", "strategy", "deception")


def quickstart() -> str:
    """The first fenced ``python`` block under "## Library quickstart"."""
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_imports_and_uses_the_package_root():
    tree = ast.parse(quickstart())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "chauffeur"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(chauffeur.__all__)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert set(imported) <= used, f"imported but never used: {sorted(set(imported) - used)}"


def test_quickstart_runs():
    namespace = {}
    exec(compile(quickstart(), str(README), "exec"), namespace)
    assert namespace["traj"].capture_time is not None
    assert namespace["report"].gain > 0.0
    assert len(namespace["amap"].cells) == 4 and not namespace["amap"].failures


def test_import_binds_the_submodules():
    # perfbench reads chauffeur.core, chauffeur.solution, ... after a bare
    # ``import chauffeur``; a fresh interpreter shows what that import binds.
    src = Path(chauffeur.__file__).resolve().parents[1]
    code = f"import chauffeur, types; print(all(isinstance(getattr(chauffeur, m, None), types.ModuleType) for m in {SUBMODULES!r}))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"
