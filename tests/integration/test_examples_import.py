"""Every script under ``examples/`` still imports.

The examples call library functions directly, so a rename or deletion
in the library breaks them silently: nothing else runs them. Each file
guards its work behind ``if __name__ == "__main__"``, so importing it
only resolves its imports and module-level definitions.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
