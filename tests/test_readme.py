"""Every python block of README.md runs as written.

Each block runs in its own interpreter, with the directory holding the
imported greyvar package at the front of PYTHONPATH, so the library
tour cannot drift from the public API.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import greyvar

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                    flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", BLOCKS[index]],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
