"""The traced benchmark run finds every library call it wraps.

``recbench/spans.py`` installs its span wrappers by name: each
``(module, attribute path)`` in ``HOOKS``, and ``iter_microbatch_arenas``
in each ``QUEUE_MODULES`` entry.  A renamed or moved function breaks
the traced run; these checks catch it in the default test run.
"""

import importlib

import pytest

from recbench.spans import HOOKS, QUEUE_MODULES


@pytest.mark.parametrize(
    "module_name,path",
    [(module_name, path) for module_name, path, _, _ in HOOKS],
    ids=[path for _, path, _, _ in HOOKS],
)
def test_hook_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # The tracer replaces the owner's own attribute, so an inherited
    # one would not do.
    assert callable(owner.__dict__.get(attr)), f"{module_name}.{path}"


@pytest.mark.parametrize("module_name", QUEUE_MODULES)
def test_queue_module_names_microbatch_generator(module_name):
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get("iter_microbatch_arenas"))
