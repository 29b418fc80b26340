"""The package runs on the standard library and numpy alone."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chants"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "chants"}


def imported_modules(path: Path) -> list[str]:
    """Top-level names of the modules ``path`` imports; a relative import is ``chants``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("chants" if node.level else node.module)
    return [name.split(".")[0] for name in names]


def test_every_import_names_the_standard_library_numpy_or_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = {f"{path.name}: {name}" for path in sources for name in imported_modules(path) if name not in ALLOWED}
    assert not outside


def test_the_runtime_dependency_is_numpy_alone():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in project["dependencies"]]
    assert names == ["numpy"]


def test_importing_and_extracting_loads_no_scipy_module():
    script = """
import sys
import numpy as np
import chants
from chants.encoder import Encoder, EncoderConfig, init_cat_params
from chants.harness import extract_features
config = EncoderConfig(channels=2, steps=6, width=8, depth=1, heads=2, dropout=0.0)
encoder = Encoder(init_cat_params(config, np.random.default_rng(0)), config)
extract_features(encoder, np.random.default_rng(1).normal(scale=3.0, size=(3, 2, 6)))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
