"""The bit-identity manifest (``tools/manifest.py``) stays runnable and stable."""

import importlib.util
import time

from conftest import ROOT


def load_tool():
    spec = importlib.util.spec_from_file_location("manifest", ROOT / "tools" / "manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_has_172_cases_smallest_input_first():
    tool = load_tool()
    names = [name for name, _, _ in tool.cases()]
    assert len(names) == len(set(names)) == 172
    assert sum(name.startswith("cluster-sorted-") for name in names) == 8
    assert sum("/k256/" in name for name in names) == 4
    sizes = [tool.INPUTS[data][1] for _, data, _ in tool.cases()]
    assert sizes == sorted(sizes)


def test_two_smallest_cases_give_equal_lines_twice():
    tool = load_tool()
    started = time.perf_counter()
    first, second = tool.manifest(2), tool.manifest(2)
    assert time.perf_counter() - started < 10
    assert first == second
    assert [line.split()[0] for line in first] == [name for name, _, _ in tool.cases()[:2]]
    assert all(len(line.split()[1]) == 64 for line in first)
