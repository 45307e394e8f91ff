"""Every demo script runs to completion against the source tree."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    child = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                           env=src_env(TMPDIR=str(tmp_path)), cwd=tmp_path, timeout=300)
    assert child.returncode == 0, child.stderr
    assert not list(tmp_path.glob("contrabatch-demo-*"))
