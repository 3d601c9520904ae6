"""Shared test set-up: every test starts with every shared table empty."""

import functools
import importlib
import pkgutil

import pytest

import lockstep
from lockstep.simnet import Seeds


def shared_tables() -> dict[str, object]:
    """Every shared table of the ``lockstep`` modules and their classes,
    found by type: each ``functools.lru_cache`` and each
    :class:`~lockstep.simnet.Seeds`, by module-relative name."""
    found: dict[str, object] = {}
    seen: set[int] = set()
    for info in pkgutil.iter_modules(lockstep.__path__):
        module = importlib.import_module(f"lockstep.{info.name}")
        owners = [("", module)] + [
            (f"{cls.__name__}.", cls) for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__]
        for prefix, owner in owners:
            for attr, value in vars(owner).items():
                # a classmethod or staticmethod holds its table
                value = getattr(value, "__func__", value)
                if isinstance(value, functools._lru_cache_wrapper):
                    if value.__module__ != module.__name__:
                        continue
                elif not isinstance(value, Seeds):
                    continue
                if id(value) not in seen:
                    seen.add(id(value))
                    found[f"{info.name}.{prefix}{attr}"] = value
    return found


_TABLES = tuple(shared_tables().values())


@pytest.fixture(autouse=True)
def cold_tables():
    """Empty every shared table, so that no result depends on which test
    ran first."""
    for table in _TABLES:
        if isinstance(table, Seeds):
            table.clear()
        else:
            table.cache_clear()
