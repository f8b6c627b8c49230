"""Every annotation in the ``repro`` package resolves to a real name.

``from __future__ import annotations`` keeps annotations as strings, so
a type used only in a signature can lose its import without any call
failing.  Resolving every annotation with :func:`typing.get_type_hints`
catches that (the same defect ruff reports as F821).
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


def _modules():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    return sorted(names)


def _annotated_objects(module):
    """Functions and classes defined in ``module``, plus each class's methods."""
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in sorted(vars(obj).items()):
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", _modules())
def test_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for qualname, obj in _annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            unresolved.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert not unresolved, "\n".join(unresolved)


def test_every_module_is_checked():
    # Guards the walk itself: a broken package path would make the
    # parametrized test above vacuously green.
    names = _modules()
    assert "repro.baselines.strict" in names
    assert "repro.workloads.store" in names
    assert len(names) > 50
