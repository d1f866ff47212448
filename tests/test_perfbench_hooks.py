"""The benchmark's tracer wraps functions and reads cache fields of
``renner`` by name.  These tests load ``perfbench/tracer.py`` without
installing it and check that every name it relies on still exists, so a
rename shows up here rather than only in traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

from renner.cones import RationalCone, enumerate_points

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes_read(pre) -> set[str]:
    """Private attribute names a pre-hook reads: string constants of its code
    and of its closure (``_cached(attr)`` keeps the name in a cell)."""
    names = set(pre.__code__.co_consts)
    names |= {cell.cell_contents for cell in pre.__closure__ or ()}
    return {n for n in names if isinstance(n, str) and n.startswith("_")}


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, attr, _, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_tracer_pre_hooks_read_live_cone_caches():
    tracer = _load_tracer()
    hooks = [pre for _, _, _, pre, _ in tracer.TARGETS if pre is not None]
    assert hooks
    cone = RationalCone.from_generators(2, [(1, 0), (1, 2)])
    for pre in hooks:
        read = _attributes_read(pre)
        assert read, pre
        for name in read:
            assert hasattr(cone, name), name
        assert pre((cone, 1), {}) is False
    cone.canonical_generators()
    cone.canonical_halfspaces()
    enumerate_points(cone, 1)
    for pre in hooks:
        assert pre((cone, 1), {}) is True
