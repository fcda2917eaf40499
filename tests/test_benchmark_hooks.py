"""The package attributes that the benchmark's tracer wraps must exist.

`perfbench/tracer.py` intercepts calls by replacing module globals, class
attributes and dict entries of the package, so renaming or deleting one of
them breaks only a benchmark run. This loads the tracer by file path,
installs it on the imported package and checks that every patched
attribute was replaced and is put back by `uninstall()`.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores():
    tracer = load_tracer_module().Tracer("t")
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            wrapper = current(owner, attr)
            assert wrapper is not original, attr
            # span wrappers record what they wrap; counting wrappers close over it
            assert getattr(wrapper, "__wrapped__", original) is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert current(owner, attr) is original, attr
