"""Every span target of the benchmark's tracer names something the
package defines, so a deletion or rename in ``src/`` cannot silently
drop a span from the traced runs."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _tracer().TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        mod = importlib.import_module("dsegraphon." + modname)
        if "." in attr:  # a method, read from its class as Tracer.install does
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (modname, attr)
        else:
            assert callable(getattr(mod, attr, None)), (modname, attr)
