"""The benchmark's tracer wraps qnct functions by name; each must exist.

perfbench/tracing.py lists (metric, module, attribute path) targets and
replaces each with a timing wrapper. A refactor that renames or drops one
breaks every traced benchmark run, so this checks them without running one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name,module,path", tracing.TARGETS,
                         ids=[f"{m}.{p}" for _, m, p in tracing.TARGETS])
def test_every_traced_target_resolves_to_a_callable(name, module, path):
    owner, key, is_item = tracing._resolve(
        importlib.import_module(f"qnct.{module}"), path)
    # the tracer reads the owner's own entry, never an inherited one
    target = owner[key] if is_item else owner.__dict__[key]
    assert callable(target), f"{module}.{path} is {target!r}"
