import importlib
import os
import pkgutil
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


# demo 03 trains two image decoders and takes about a minute, so it stays out
@pytest.mark.parametrize("demo", ["01_crossbar_noise.py", "02_text_roundtrip.py",
                                  "04_grid_sweep.py"])
def test_demo_runs(demo, tmp_path):
    # demo 04 writes its report into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
