"""The package attributes that the benchmark's tracer wraps must exist.

`perfbench/tracer.py` intercepts calls by replacing module globals, class
attributes and dict entries of the package, so renaming or deleting one of
them breaks only a benchmark run. This loads the tracer by file path,
installs it on the imported package and checks that every patched
attribute was replaced and is put back by `uninstall()`, and that
`build_report` still reaches the pieces it times through those names.
"""

import importlib.util
from pathlib import Path

import numpy as np

from siggraphgan import metrics
from siggraphgan.fixture import fixture_prices

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


def test_warm_report_calls_the_traced_names(monkeypatch):
    """A report on a real series already scored runs the fake side through
    the module globals the tracer wraps: four EMDs, four expected
    signatures and one leverage score."""
    real = np.diff(np.log(fixture_prices().closes))
    fake = 0.01 * np.random.default_rng(3).standard_normal(600)
    metrics.build_report(real, fake)
    calls = dict.fromkeys(("emd_1d", "expected_leadlag_signature", "leverage_effect_score"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(metrics, name, counted)
    metrics.build_report(real, fake[::-1])
    assert calls == {"emd_1d": 4, "expected_leadlag_signature": 4, "leverage_effect_score": 1}
