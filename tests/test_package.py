import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve():
    package = importlib.import_module("hdcrypt")
    # __main__ runs the command line when imported, and has no __all__
    names = [m.name for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"]
    assert names
    for name in names:
        module = importlib.import_module(f"hdcrypt.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"hdcrypt.{name}.__all__ names missing {public!r}"


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse((ROOT / "src" / "hdcrypt" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hdcrypt.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, \
                f"hdcrypt.{node.module}.__all__ lacks {alias.name!r}"


def test_readme_names_of_hdcrypt_modules_resolve():
    # `module.name` or `hdcrypt.module.name`, as the README writes them, and
    # `Class.attr` for a class that an hdcrypt module exports
    package = importlib.import_module("hdcrypt")
    modules = {m.name: importlib.import_module(f"hdcrypt.{m.name}")
               for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"}
    classes = {name: getattr(module, name) for module in modules.values()
               for name in getattr(module, "__all__", ())
               if isinstance(getattr(module, name), type)}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    checked = []
    for name in re.findall(r"`(\w+(?:\.\w+)+)", text):
        parts = name.split(".")
        parts = parts[1:] if parts[0] == "hdcrypt" else parts
        if parts[0] in modules:
            target = modules[parts[0]]
        elif parts[0] in classes:
            target = classes[parts[0]]
        else:
            continue
        for part in parts[1:]:
            assert hasattr(target, part), f"README.md names `{name}`, which does not resolve"
            target = getattr(target, part)
        checked.append(name)
    assert sum(name[0].isupper() for name in checked) >= 6, checked
    assert len(checked) >= 26, checked


@pytest.mark.parametrize("demo", ["01_crossbar_noise.py", "02_text_roundtrip.py",
                                  "03_image_pipeline.py", "04_grid_sweep.py"])
def test_demo_runs(demo, tmp_path):
    # demo 04 writes its report into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
