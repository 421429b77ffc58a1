"""Every layer the traced benchmark wraps still exists where it looks.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name: a
function is looked up on its module, a method in its class's own
``__dict__`` (an inherited method would be wrapped on the wrong class).
A rename or deletion in ``src/`` that orphans an entry makes the traced
run (``perfbench/run.py --trace 1``) crash, so it must fail here first.
The tracing module is loaded from its file and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("_traced_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    ("name", "module_name", "attribute"),
    TARGETS,
    ids=[f"{module}:{attribute}" for _, module, attribute in TARGETS],
)
def test_target_resolves(name, module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert method in vars(owner), (
            f"{attribute} is not defined on {owner_name} itself"
        )
        assert callable(vars(owner)[method])
    else:
        assert callable(getattr(module, attribute))
