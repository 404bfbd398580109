"""The names the benchmark tracer (bench/tracing.py) wraps must stay where
it looks for them: a method in its class's own `__dict__`, a function on
its module.  A refactor that moves one into a base class breaks the traced
benchmark, which tier-1 does not run; this test sees it first."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (bench/tracing.py, read only)


def _package_bindings():
    """Every attribute of every loaded slicereg module and traced class."""
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "slicereg" or name.startswith("slicereg."):
            for key, value in vars(module).items():
                bindings[name, key] = value
    for cls, attr, _ in tracing.COUNTED + tracing.METHODS:
        bindings[cls, attr] = cls.__dict__[attr]
    return bindings


def test_every_wrapped_method_is_in_its_class_own_dict():
    for cls, attr, _ in tracing.COUNTED + tracing.METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


def test_every_wrapped_function_resolves_on_its_module():
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


def test_the_tracer_puts_every_original_back():
    before = _package_bindings()
    with tracing.Tracer():
        for cls, attr, _ in tracing.COUNTED + tracing.METHODS:
            assert cls.__dict__[attr].__wrapped__ is before[cls, attr]
        for module, attr, _ in tracing.FUNCTIONS:
            assert getattr(module, attr).__wrapped__ is \
                before[module.__name__, attr]
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
