import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import src_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # a copy, because demo 01 writes its SVG next to itself
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                       cwd=tmp_path, env=src_env(), timeout=300)
    assert r.returncode == 0, r.stderr
