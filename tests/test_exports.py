import os
import subprocess
import sys
from pathlib import Path

import siggraphgan


def test_every_export_resolves():
    """`from siggraphgan import *` fails on any name in __all__ the package lacks."""
    assert [name for name in siggraphgan.__all__ if not hasattr(siggraphgan, name)] == []


def test_import_leaves_scipy_unloaded():
    """Importing the package does not import scipy; only the GARCH baseline needs it."""
    src = str(Path(siggraphgan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, siggraphgan; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
