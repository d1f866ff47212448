"""The package's module-level caches are declared here: a new
``functools.lru_cache`` at module level in ``renner`` must be added to the
allow-list, so that no hidden cache grows unnoticed."""

import importlib
import pkgutil

import renner

ALLOWED = {
    "renner.root_datum._positive_coroots",
    "renner.root_datum._levi_kernel",
    "renner.parabolic_monoid.renner_monoid",
    "renner.vinberg._vinberg_cone",
}


def module_caches():
    found = set()
    for info in pkgutil.iter_modules(renner.__path__, "renner."):
        if info.name == "renner.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == info.name:
                found.add(f"{info.name}.{name}")
    return found


def test_module_level_caches_are_the_declared_ones():
    assert module_caches() == ALLOWED
