"""Every span the benchmark wraps names a live library attribute."""

import importlib
import importlib.util
from pathlib import Path


def test_tracing_targets_resolve():
    # perfbench wraps these names from outside the library and silently
    # drops a layer's metrics when one is gone, so a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for target in tracing.targets():
        owner = importlib.import_module(target.module)
        cls_name, _, attr = target.path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{target.module}.{target.path}"
