"""The mutant list (``tools/mutants.py``) stays applicable to the code as it reads."""

import importlib.util

from conftest import ROOT


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once_and_names_existing_tests():
    tool = load_tool()
    assert len(tool.MUTANTS) == 35
    for name, mutant in tool.MUTANTS.items():
        text = tool.mutated(mutant)  # each old text occurs exactly once in turn
        compile(text, mutant.path, "exec")
        assert mutant.tests, name
        for test in mutant.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (name, test)
