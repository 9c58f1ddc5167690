"""Every ``from repro... import name`` a reader copies still resolves.

The README's python blocks, the examples, and the scripts and benchmark
drivers import from the modules that define each name; a rename or a
moved definition must update them.  Parsed, never run.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    readme = (ROOT / "README.md").read_text()
    for n, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {n + 1}", block
    for pattern in ("examples/*.py", "scripts/*.py", "benchmarks/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            yield str(path.relative_to(ROOT)), path.read_text()


def _resolves(module, name) -> bool:
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_documented_repro_import_resolves():
    checked, broken = 0, []
    for where, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "repro"):
                continue
            for alias in node.names:
                checked += 1
                if not _resolves(node.module, alias.name):
                    broken.append(f"{where}:{node.lineno}: from {node.module} import {alias.name}")
    assert checked > 50
    assert broken == []
