"""The benchmark's per-layer trace names library functions by module and
attribute; a rename in the library would make ``perfbench/run.py --trace 1``
fail with AttributeError.  This test loads the layer table by path, without
importing the benchmark as a package, and resolves every entry."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load_layers().LAYERS
    assert layers
    for span, (module_name, attr) in layers.items():
        module = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches the method in the class namespace itself
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert callable(target), f"{span}: {module_name}.{attr} does not resolve"
